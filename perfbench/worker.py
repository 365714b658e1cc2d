"""Benchmark child process: one closed-loop client of ``crisscross.cli.main``.

Started by ``run.py`` with the package on ``PYTHONPATH`` and BLAS threads
pinned in its environment.  It imports the package, runs a tiny warm-up
command and announces itself ready; then it reads one JSON request per line
from stdin, runs it to completion, and answers with one JSON line before it
reads the next.  With ``--trace`` it rebinds the public functions of the
seven modules to span-recording wrappers (see ``Tracer``) after the warm-up,
and sends the spans back when told to end.

Protocol (one JSON object per line):
  child  -> {"ready": true, "env": {...}, "cpu_s": ..., "maxrss_kb": ...}
  parent -> {"argv": [...], "request": n}
  child  -> {"rc": int|null, "stdout": str, "stderr": str, "error": str|null,
             "cpu_s": ..., "maxrss_kb": ...}
  parent -> {"end": true}
  child  -> {"spans": [...]}    (empty unless tracing; then exits)
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

MODULES = ("mesh", "refelem", "fespace", "assembly", "eigsolve", "audit", "cli")
WARMUP_ARGV = ["eig", "--degree", "2", "--levels", "1", "--neigs", "1"]


def _usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss}


def environment() -> dict:
    """Versions and BLAS build and thread settings, as this process sees them."""
    import numpy as np
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    for name, mod in (("numpy", np), ("scipy", scipy)):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            env[name + "_blas"] = blas.get("openblas configuration", blas.get("name"))
        except (TypeError, KeyError, AttributeError):
            env[name + "_blas"] = None
    return env


def run_command(main, argv):
    """Run ``main(argv)`` with its output captured; never raises."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:          # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:                  # report, keep serving the loop
        error = traceback.format_exc()
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error}


class Tracer:
    """Span recorder installed by rebinding public names.

    Every public function defined in one of ``MODULES`` is replaced by a
    wrapper, both in its own module (so calls within the module go through
    it) and in every other module that imported it by name.  Spans stay in
    memory: (span id, parent id, request id, name, start, end, attrs).
    """

    def __init__(self, package: str = "crisscross"):
        self.spans = []
        self.stack = []
        self.request = None
        self._next_id = 1
        self.modules = [importlib.import_module(f"{package}.{m}")
                        for m in MODULES]

    def install(self) -> None:
        originals = {}
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                short = mod.__name__.rsplit(".", 1)[1]
                originals[id(obj)] = (obj, self._wrap(obj, f"{short}.{name}"))
        for mod in self.modules + [sys.modules[self.modules[0].__package__]]:
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _close(self, span_id, parent, name, t0, attrs):
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans.append((span_id, parent, self.request, name, t0, t1, attrs))

    def _wrap(self, fn, name):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span_id, parent, name, t0, {"raised": True})
                raise
            attrs = attrs_of(result) if attrs_of is not None else None
            self._close(span_id, parent, name, t0, attrs)
            return result

        return traced


def _spectrum_attrs(spec):
    res = spec.residuals
    return {
        "n": int(len(spec.eigenvalues)),
        "zero_count": int(spec.zero_count),
        "converged": bool(spec.converged),
        "max_residual": (None if res is None or len(res) == 0
                         else float(max(res))),
    }


def _size_attr(key, attr):
    return lambda result: {key: int(getattr(result, attr))}


ATTRS = {
    "mesh.criss_cross": _size_attr("triangles", "n_triangles"),
    "fespace.build_scalar_space": _size_attr("dofs", "n_dofs"),
    "fespace.build_vector_space": _size_attr("dofs", "n_dofs"),
    "fespace.build_wh_space": _size_attr("dofs", "n_dofs"),
    "fespace.build_disc_space": _size_attr("dofs", "n_dofs"),
    "assembly.assemble_scalar_mass": _size_attr("nnz", "nnz"),
    "assembly.assemble_scalar_stiffness": _size_attr("nnz", "nnz"),
    "assembly.assemble_vector_mass": _size_attr("nnz", "nnz"),
    "assembly.assemble_divdiv": _size_attr("nnz", "nnz"),
    "assembly.assemble_div_coupling": _size_attr("nnz", "nnz"),
    "assembly.assemble_wh_mass": _size_attr("nnz", "nnz"),
    "eigsolve.dense_gevp": _spectrum_attrs,
    "eigsolve.shift_invert_lanczos": _spectrum_attrs,
    "eigsolve.solve_fem2": _spectrum_attrs,
    "eigsolve.solve_fem1": _spectrum_attrs,
    "eigsolve.solve_primal": _spectrum_attrs,
    "audit.exactness_check": _size_attr("dim_v", "dim_v"),
}


def serve(trace: bool) -> None:
    # Replies go to a private copy of stdout; fd 1 itself goes to /dev/null so
    # stray native output cannot corrupt the protocol.
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    def send(obj):
        proto.write(json.dumps(obj) + "\n")

    from crisscross import cli

    warm = run_command(cli.main, WARMUP_ARGV)
    if warm["rc"] != 0:
        sys.stderr.write(f"warm-up failed: {warm}\n")
        sys.exit(3)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    send({"ready": True, "env": environment(), **_usage()})

    for line in sys.stdin:
        req = json.loads(line)
        if req.get("end"):
            spans = tracer.spans if tracer is not None else []
            send({"spans": spans})
            return
        if tracer is not None:
            tracer.request = req.get("request")
        reply = run_command(cli.main, req["argv"])
        reply.update(_usage())
        send(reply)


if __name__ == "__main__":
    serve("--trace" in sys.argv[1:])
