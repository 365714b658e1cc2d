"""crisscross benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass of a workload runs in a fresh child
process (``worker.py``) that imports the package from ``src/`` with BLAS
threads pinned to 1 and serves the pass's CLI commands as a closed loop with
one client.  Passes repeat until ``--seconds`` is used up (at least two).
After timing, every output is checked (``check.py``) and compared with the
digests of earlier passes.  The last line of stdout is one JSON object:
end-to-end metrics with ``--trace 0``; with ``--trace 1`` traced and
untraced passes alternate and the per-layer metrics come from the spans.
Exit code 0 when every output is right, 1 when a check failed, 2 when the
benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402

SRC = "src"
WORK = ".bench_work"
MIN_PASSES = 2
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1"}
MANY_SMALL_PAIRS = ((1, "primal"), (2, "fem2"), (2, "fem1"), (2, "primal"),
                    (3, "fem2"), (3, "fem1"), (3, "primal"))


# ----------------------------------------------------------------- workloads

def _cfg(cmd, domain="square", degree=2, levels=(8,), form="fem2", neigs=10,
         backend="dense", **extra):
    return dict(cmd=cmd, domain=domain, degree=degree, levels=list(levels),
                form=form, neigs=neigs, backend=backend, **extra)


def workload(name: str, seed: int) -> list:
    """The command configs of one pass, in the order they run."""
    if name == "sparse-fine":
        return [
            _cfg("eig", "square", 2, [64], backend="lanczos", sigma=1.0),
            _cfg("eig", "lshape", 3, [16], backend="lanczos", sigma=1.0),
        ]
    if name == "cli-tour":
        return [
            _cfg("eig", "square", 2, [8]),
            _cfg("converge", "square", 2, [6, 12]),
            _cfg("eig", "square", 3, [6], form="fem1"),
            _cfg("compare", "lshape", 2, [6]),
            _cfg("audit", "square", 3, [8]),
            _cfg("audit", "square", 2, [4, 8]),
            _cfg("audit", "square", 1, [4, 8]),
            _cfg("mesh", "lshape", 2, [4]),
        ]
    if name == "many-small":
        meshes = ([("square", n) for n in range(1, 7)]
                  + [("square-perturbed", n) for n in range(1, 7)]
                  + [("lshape", n) for n in range(1, 4)])
        cmds = []
        for domain, n in meshes:
            for k, form in MANY_SMALL_PAIRS:
                extra = {"seed": seed} if domain == "square-perturbed" else {}
                cmds.append(_cfg("eig", domain, k, [n], form=form, neigs=6,
                                 **extra))
        random.Random(seed).shuffle(cmds)
        return cmds
    raise KeyError(name)


WORKLOADS = ("sparse-fine", "cli-tour", "many-small")


def to_argv(cfg: dict, out: str | None) -> list:
    argv = [cfg["cmd"], "--domain", cfg["domain"],
            "--degree", str(cfg["degree"]),
            "--levels", ",".join(str(n) for n in cfg["levels"])]
    if cfg["cmd"] in ("eig", "converge", "compare"):
        argv += ["--form", cfg["form"], "--neigs", str(cfg["neigs"]),
                 "--backend", cfg["backend"]]
        if "sigma" in cfg:
            argv += ["--sigma", repr(cfg["sigma"])]
    if "seed" in cfg:
        argv += ["--seed", str(cfg["seed"])]
    if out is not None:
        argv += ["--out", out]
    return argv


def output_suffix(cfg: dict) -> str | None:
    return {"eig": ".csv", "converge": ".csv", "compare": ".csv",
            "mesh": ".txt"}.get(cfg["cmd"])


# -------------------------------------------------------------- child process

class Worker:
    """One fresh child process; ``setup_s`` is spawn-to-ready wall time."""

    def __init__(self, trace: bool):
        env = dict(os.environ, **PINNED)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        argv = [sys.executable, os.path.join(HERE, "worker.py")]
        if trace:
            argv.append("--trace")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=env)
        try:
            self.ready = self._recv()
        except (EOFError, ValueError):
            self.close()
            raise RuntimeError("worker did not start") from None
        self.setup_s = time.perf_counter() - t0

    def _recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise EOFError("worker exited")
        return json.loads(line)

    def request(self, obj: dict) -> dict:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()
        return self._recv()

    def close(self) -> None:
        self.proc.stdin.close()          # the child's loop ends at EOF
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_pass(cmds: list, out_dir: str, tag: str, trace: bool) -> dict:
    """Run one pass in a fresh worker and return its raw record."""
    worker = Worker(trace)
    try:
        replies = []
        t_start = time.perf_counter()
        for i, cfg in enumerate(cmds):
            suffix = output_suffix(cfg)
            out = None if suffix is None else os.path.join(out_dir, f"{tag}-c{i}{suffix}")
            t0 = time.perf_counter()
            try:
                reply = worker.request({"argv": to_argv(cfg, out), "request": i})
            except EOFError:
                reply = {"rc": None, "stdout": "", "error": "worker exited",
                         "cpu_s": None}
            reply["latency_ms"] = 1e3 * (time.perf_counter() - t0)
            reply["out"] = out
            replies.append(reply)
            if reply.get("cpu_s") is None:
                break
        wall = time.perf_counter() - t_start
        last = replies[-1]
        spans = worker.request({"end": True})["spans"] if trace and last["cpu_s"] is not None else []
        return {
            "trace": trace,
            "wall_s": wall,
            "cpu_s": (last["cpu_s"] - worker.ready["cpu_s"]) if last["cpu_s"] is not None else None,
            "peak_rss_mb": last.get("maxrss_kb", 0) / 1024.0,
            "setup_s": worker.setup_s,
            "replies": replies,
            "spans": spans,
            "env": worker.ready["env"],
        }
    finally:
        worker.close()


def measure_setup() -> float:
    """Spawn-to-ready time of one child that then ends at once."""
    worker = Worker(trace=False)
    try:
        worker.request({"end": True})
        return worker.setup_s
    finally:
        worker.close()


# ------------------------------------------------------------------- metrics

def self_times(spans: list) -> dict:
    """Per span name: summed self time, call count and the recorded attrs."""
    child_time = {}
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    per_fn = {}
    for sid, _, _, name, t0, t1, attrs in spans:
        entry = per_fn.setdefault(name, {"self_s": 0.0, "calls": 0, "attrs": []})
        entry["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
        entry["calls"] += 1
        if attrs:
            entry["attrs"].append(attrs)
    return per_fn


def layer_metrics(rec: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    per_fn = self_times(rec["spans"])

    def self_s(prefix):
        return sum((e["self_s"] for n, e in per_fn.items() if n.startswith(prefix)), 0.0)

    def attrs(prefix, key):
        return [a[key] for n, e in per_fn.items() if n.startswith(prefix)
                for a in e["attrs"] if key in a]

    # what the solve_* drivers hand back, and what the solvers computed for them
    solves = [a for n in ("solve_fem2", "solve_fem1", "solve_primal")
              for a in per_fn.get("eigsolve." + n, {}).get("attrs", []) if "n" in a]
    computed = (attrs("eigsolve.dense_gevp", "n")
                + attrs("eigsolve.shift_invert_lanczos", "n"))
    residuals = [r for r in attrs("eigsolve.", "max_residual") if r is not None]
    roots = sum(t1 - t0 for _, parent, _, _, t0, t1, _ in rec["spans"]
                if parent is None)
    return {
        "eigsolve.lanczos_s": self_s("eigsolve.shift_invert_lanczos"),
        "eigsolve.dense_s": self_s("eigsolve.dense_gevp"),
        "eigsolve.dense_dim_max": max(attrs("eigsolve.dense_gevp", "n"), default=0),
        "eigsolve.reported_frac": (sum(a["n"] for a in solves) / sum(computed)
                                   if sum(computed) else 1.0),
        "eigsolve.schur_s": self_s("eigsolve.solve_fem1"),
        "eigsolve.residual_s": self_s("eigsolve.residual_norms"),
        "eigsolve.max_residual": max(residuals, default=0.0),
        "eigsolve.unconverged": sum(1 for a in solves if not a["converged"]),
        "eigsolve.kernel_count": sum(a["zero_count"] for a in solves),
        "audit.self_s": self_s("audit."),
        "audit.rank_dim": max(attrs("audit.exactness_check", "dim_v"), default=0),
        "assembly.self_s": self_s("assembly."),
        "assembly.nnz": sum(attrs("assembly.", "nnz")),
        "mesh.self_s": self_s("mesh."),
        "mesh.triangles": sum(attrs("mesh.criss_cross", "triangles")),
        "fespace.self_s": self_s("fespace."),
        "fespace.dofs": sum(attrs("fespace.", "dofs")),
        "refelem.self_s": self_s("refelem."),
        "cli.self_s": self_s("cli."),
        "trace.uncovered_s": rec["wall_s"] - roots,
    }


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open("BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# -------------------------------------------------------------------- checks

def source_digest() -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(root, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def read_output(reply: dict) -> str | None:
    """The file a command wrote with --out, or None."""
    if reply["out"] is None or not os.path.exists(reply["out"]):
        return None
    with open(reply["out"], encoding="ascii") as fh:
        return fh.read()


def check_run(cmds: list, passes: list, bounds: dict, store_key: str) -> tuple:
    """(attempted, failures) over every command of every pass."""
    failures = []
    attempted = 0
    store_path = os.path.join(WORK, "digests.json")
    try:
        with open(store_path, encoding="ascii") as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    known = store.setdefault(store_key, {})
    for p, rec in enumerate(passes):
        texts = []
        for i, cfg in enumerate(cmds):
            attempted += 1
            if i >= len(rec["replies"]):
                failures.append((p, i, ["not run: worker exited"]))
                texts.append(None)
                continue
            reply = rec["replies"][i]
            text = read_output(reply)
            texts.append(text)
            problems = check.check_command(cfg, reply["rc"], reply["stdout"],
                                           text, bounds)
            if reply.get("error"):
                problems.append(reply["error"].strip().splitlines()[-1])
            dig = check.digest(text if text is not None else reply["stdout"])
            argv_key = " ".join(to_argv(cfg, None))
            if known.setdefault(argv_key, dig) != dig:
                problems.append(f"output digest {dig} differs from {known[argv_key]}")
            if problems:
                failures.append((p, i, problems))
        fem2 = {check.pair_key(c): t for c, t in zip(cmds, texts)
                if c["form"] == "fem2" and t is not None}
        for i, (cfg, text) in enumerate(zip(cmds, texts)):
            key = check.pair_key(cfg)
            if cfg["form"] == "fem1" and key in fem2 and text is not None:
                problems = check.check_pairs(text, fem2[key])
                if problems:
                    failures.append((p, i, problems))
    os.makedirs(WORK, exist_ok=True)
    tmp = store_path + f".{os.getpid()}"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(store, fh, indent=0, sort_keys=True)
    os.replace(tmp, store_path)
    return attempted, failures


# ---------------------------------------------------------------------- main

def environment(seed: int, child_env: dict, loadavg_start) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return dict(child_env, seed=seed, nproc=os.cpu_count(),
                affinity=affinity, loadavg_start=loadavg_start,
                loadavg_end=os.getloadavg())


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "crisscross", "cli.py")):
        print(f"error: no {SRC}/crisscross here; run from the repository root",
              file=sys.stderr)
        return 2
    units = declared_units(trace)
    bounds = check.load_bounds()
    broken = check.selftest(bounds)
    if broken:
        print("error: output check self-test failed: " + "; ".join(broken),
              file=sys.stderr)
        return 2
    cmds = workload(workload_name, seed)
    loadavg_start = os.getloadavg()
    out_dir = os.path.join(WORK, "out", f"{workload_name}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        setup = []
        passes = []
        t_start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            t0 = time.perf_counter()
            if not trace:
                # set-up samples spread over the run, two per pass
                setup.append(measure_setup())
            rec = run_pass(cmds, out_dir, f"p{len(passes)}", traced)
            if not trace:
                setup.append(rec["setup_s"])
            rec["span_s"] = time.perf_counter() - t0
            passes.append(rec)
            elapsed = time.perf_counter() - t_start
            typical = statistics.median(r["span_s"] for r in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
                break
        attempted, failures = check_run(
            cmds, passes, bounds,
            f"{source_digest()}/{workload_name}/seed{seed}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    env = environment(seed, passes[0]["env"], loadavg_start)
    plain = [r for r in passes if not r["trace"]]
    latencies = [r["latency_ms"] for rec in plain for r in rec["replies"]]
    failed = len({(p, i) for p, i, _ in failures})
    if trace:
        traced = [r for r in passes if r["trace"]]
        per = [layer_metrics(r) for r in traced]
        values = {name: statistics.median(m[name] for m in per) for name in per[0]}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        _print_top_functions(traced[0]["spans"])
        _write_json(os.path.join(WORK, "traces", f"{workload_name}-seed{seed}.json"),
                    {"workload": workload_name, "seed": seed, "env": env,
                     "fields": ["span_id", "parent", "request", "name", "t0",
                                "t1", "attrs"],
                     "passes": [r["spans"] for r in traced]})
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] or 0.0 for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(setup),
            "solve_ms_p50": statistics.median(latencies),
            "solve_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
            "ok_frac": 1.0 - failed / attempted,
        }
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print("env", json.dumps(env, sort_keys=True))
    print(f"workload {workload_name}: {len(passes)} passes of {len(cmds)} "
          f"commands, {len(setup)} set-up samples, {len(latencies)} latency samples")
    for p, i, problems in failures:
        print(f"FAILED pass {p} command {i} ({' '.join(to_argv(cmds[i], None))}): "
              + "; ".join(problems))
    for name, m in metrics.items():
        print(f"{name:>24} {m['value']:.6g} {m['unit']}")
    _write_json(os.path.join(WORK, "runs", f"{workload_name}-seed{seed}-trace{int(trace)}.json"),
                {"workload": workload_name, "seed": seed, "seconds": seconds,
                 "env": env, "setup_s": setup, "metrics": metrics,
                 "passes": [{k: r[k] for k in ("trace", "wall_s", "cpu_s",
                                               "peak_rss_mb", "span_s")}
                            for r in passes],
                 "latency_ms": latencies, "failures": failures})
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


def _print_top_functions(spans: list, count: int = 8) -> None:
    per_fn = self_times(spans)
    top = sorted(per_fn.items(), key=lambda kv: -kv[1]["self_s"])[:count]
    for name, e in top:
        print(f"self {e['self_s']:9.3f} s  {e['calls']:6d} calls  {name}")


def _write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
