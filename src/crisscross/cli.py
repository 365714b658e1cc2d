"""Command-line harness for eigenvalue runs, convergence studies, complex
audits, and mixed-versus-primal comparisons.

Exit codes: 0 success, 1 tolerance or check failure, 2 invalid
configuration, 3 solver failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import write_matrix_market
from .audit import exactness_check, spurious_counts, square_exact_spectrum
from .eigsolve import (
    _BACKENDS,
    _FORMS,
    DEFAULT_SHIFT,
    SolverError,
    _form_rule,
    _or_list,
    _pencil,
    cluster_eigenvalues,
    solve_fem1,
    solve_fem2,
    solve_primal,
)
from .mesh import (
    MeshError,
    build_lshape_grid,
    build_rect_grid,
    criss_cross,
    mesh_stats,
    perturb_quad_grid,
    write_mesh_text,
)

__all__ = ["StudyConfig", "StudyReport", "LevelResult", "ConfigError",
           "cmd_eig", "cmd_converge", "cmd_audit", "cmd_compare", "main"]

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

DOMAINS = ("square", "lshape", "square-perturbed")
CSV_HEADER = "level,h,index,lambda_h,exact,abs_error,rate"


class ConfigError(ValueError):
    """Invalid study configuration."""


@dataclass
class StudyConfig:
    domain: str = "square"
    degree: int = 2
    formulation: str = "fem2"
    levels: list = field(default_factory=lambda: [8])
    n_eigs: int = 10
    backend: str = "dense"
    sigma: float = DEFAULT_SHIFT
    seed: int = 42
    perturb: float = 0.15
    exact: list | None = None
    expect_rate: tuple | None = None
    out: str | None = None
    export_mesh: str | None = None
    export_matrices: str | None = None

    def validate(self) -> "StudyConfig":
        if self.domain not in DOMAINS:
            raise ConfigError(f"unknown domain {self.domain!r}")
        _form_rule(self.formulation, self.degree, error=ConfigError)
        if not self.levels or any(n < 1 for n in self.levels):
            raise ConfigError("levels must be positive integers")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ConfigError("levels must be strictly increasing")
        if self.n_eigs < 1:
            raise ConfigError("n_eigs must be at least 1")
        _form_rule(self.formulation, self.degree, self.backend,
                   error=ConfigError)
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError("sigma must be positive and finite")
        if self.expect_rate is not None and (
                len(self.expect_rate) != 2
                or not all(map(math.isfinite, self.expect_rate))
                or self.expect_rate[0] > self.expect_rate[1]):
            raise ConfigError("--expect-rate must be a finite lo:hi pair "
                              "with lo <= hi")
        if self.exact and self.domain != "lshape":
            raise ConfigError("--exact needs --domain lshape")
        if self.exact and not all(math.isfinite(x) and x > 0
                                  for x in self.exact):
            raise ConfigError("--exact targets must be positive and finite")
        if (self.perturb != StudyConfig.perturb
                and self.domain != "square-perturbed"):
            raise ConfigError("--perturb needs --domain square-perturbed")
        return self


# The StudyConfig fields each command reads: its only options, and the only
# ones _validate lets differ from their defaults.  mesh --degree (read by
# nothing) and compare --form (fem2 only) stay for the benchmark driver.
_SOLVE_FIELDS = ("domain", "degree", "levels", "n_eigs", "backend", "sigma",
                 "seed", "perturb")
COMMANDS = {
    "eig": ("eigenvalue table on one mesh", _SOLVE_FIELDS + (
        "formulation", "exact", "out", "export_mesh", "export_matrices")),
    "converge": ("refinement study with rates", _SOLVE_FIELDS + (
        "formulation", "exact", "expect_rate", "out")),
    "audit": ("complex exactness audit and spurious eigenvalue counts",
              ("domain", "degree", "levels", "n_eigs", "seed", "perturb")),
    "compare": ("mixed versus primal eigenvalues",
                _SOLVE_FIELDS + ("formulation", "out")),
    "mesh": ("write a mesh in the plain-text format",
             ("domain", "degree", "levels", "seed", "perturb", "out")),
}


def _validate(config: StudyConfig, command: str) -> None:
    """Validate the config and refuse a field ``command`` does not read, set
    away from its default, and a form other than fem2 in ``compare``."""
    default = StudyConfig()
    for name, (flag, _) in _OPTIONS.items():
        if (name not in COMMANDS[command][1]
                and getattr(config, name) != getattr(default, name)):
            raise ConfigError(f"{command} does not read {flag}")
    if command == "compare" and config.formulation != "fem2":
        raise ConfigError(f"compare runs --form fem2 only, not "
                          f"{config.formulation!r}")
    config.validate()
    if command in ("eig", "compare", "mesh") and len(config.levels) != 1:
        raise ConfigError(f"{command} expects exactly one level")


@dataclass
class LevelResult:
    level: int
    h: float
    lambdas: np.ndarray
    exact: np.ndarray | None
    errors: np.ndarray | None
    rates: np.ndarray | None      # vs previous level, where h halves
    runtime: float


def _cell(values, i: int, spec: str) -> str:
    """Entry i of a column formatted by ``spec``; empty where the column or
    the entry is missing (no target, or a rate not taken)."""
    if values is None or math.isnan(values[i]):
        return ""
    return format(values[i], spec)


@dataclass
class StudyReport:
    config: StudyConfig
    rows: list

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            for i, lam in enumerate(row.lambdas):
                exact, err, rate = (_cell(values, i, ".17g") for values in
                                    (row.exact, row.errors, row.rates))
                lines.append(
                    f"{row.level},{row.h:.17g},{i + 1},{lam:.17g},{exact},{err},{rate}"
                )
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_csv())


def build_mesh(config: StudyConfig, n: int):
    if config.domain == "square":
        qmesh = build_rect_grid(0.0, 0.0, math.pi, math.pi, n, n)
    elif config.domain == "square-perturbed":
        qmesh = build_rect_grid(0.0, 0.0, math.pi, math.pi, n, n)
        qmesh = perturb_quad_grid(qmesh, config.perturb, config.seed)
    else:
        qmesh = build_lshape_grid(n)
    return criss_cross(qmesh)


def _exact_targets(config: StudyConfig) -> np.ndarray | None:
    if config.domain in ("square", "square-perturbed"):
        return square_exact_spectrum(config.n_eigs)
    if config.exact:
        pad = np.full(config.n_eigs, np.nan)
        vals = np.asarray(config.exact, dtype=float)[: config.n_eigs]
        pad[: len(vals)] = vals
        return pad
    return None


def _solve(config: StudyConfig, tmesh):
    """The spectrum of the configured form; warns on stderr when the solver
    could not certify it or when the pencil has fewer than ``n_eigs``
    nonzero eigenvalues."""
    if config.formulation == "fem1":
        spec = solve_fem1(tmesh, config.degree, config.n_eigs)
    else:
        solve = solve_fem2 if config.formulation == "fem2" else solve_primal
        spec = solve(tmesh, config.degree, config.n_eigs, config.backend,
                     sigma=config.sigma, seed=config.seed)
    doubts = spec.doubts
    if len(spec.eigenvalues) < config.n_eigs:
        doubts.append(f"{len(spec.eigenvalues)} of {config.n_eigs} "
                      "requested eigenvalues")
    if doubts:
        print(f"warning: {config.formulation} k={config.degree} on "
              f"{tmesh.n_quads} quads: " + "; ".join(doubts),
              file=sys.stderr)
    return spec


def _run_level(config: StudyConfig, n: int):
    """One level's table row, and the mesh it was solved on."""
    t0 = time.perf_counter()
    tmesh = build_mesh(config, n)
    spec = _solve(config, tmesh)
    runtime = time.perf_counter() - t0
    lambdas = spec.eigenvalues[: config.n_eigs]
    exact = _exact_targets(config)
    errors = None
    if exact is not None:
        errors = np.abs(exact[: len(lambdas)] - lambdas)
    return LevelResult(
        level=n,
        h=mesh_stats(tmesh).h,
        lambdas=lambdas,
        exact=None if exact is None else exact[: len(lambdas)],
        errors=errors,
        rates=None,
        runtime=runtime,
    ), tmesh


def _attach_rates(rows: list) -> None:
    for prev, cur in zip(rows, rows[1:]):
        if cur.level != 2 * prev.level:
            continue
        if prev.errors is None or cur.errors is None:
            continue
        m = min(len(prev.errors), len(cur.errors))
        rates = np.full(len(cur.lambdas), np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            rates[:m] = np.log2(prev.errors[:m] / cur.errors[:m])
        cur.rates = rates


def _export_artifacts(config: StudyConfig, tmesh) -> None:
    if config.export_mesh:
        write_mesh_text(tmesh, config.export_mesh)
    if config.export_matrices:
        B, A = _pencil(config.formulation, tmesh, config.degree)[:2]
        names = ("_K", "_M") if config.formulation == "primal" else ("_B", "_A")
        for mat, name in zip((B, A), names):
            write_matrix_market(mat, config.export_matrices + name + ".mtx")


def cmd_eig(config: StudyConfig) -> tuple[StudyReport, int]:
    """Single-level eigenvalue table with errors against known targets."""
    _validate(config, "eig")
    row, tmesh = _run_level(config, config.levels[0])
    _export_artifacts(config, tmesh)
    report = StudyReport(config, [row])
    _print_eig_table(row)
    clusters = cluster_eigenvalues(row.lambdas)
    doublets = [c for c in clusters if c[1] > 1]
    if doublets:
        print("clusters:", ", ".join(
            f"{val:.12g} (x{mult})" for val, mult in doublets))
    return report, EXIT_OK


def _print_eig_table(row: LevelResult) -> None:
    print(f"level n={row.level}  h={row.h:.6g}  ({row.runtime:.2f}s)")
    print(f"{'i':>3} {'lambda_h':>22} {'exact':>10} {'abs_error':>14}")
    for i, lam in enumerate(row.lambdas):
        exact, err = _cell(row.exact, i, ".6g"), _cell(row.errors, i, ".8e")
        print(f"{i + 1:>3} {lam:>22.16g} {exact:>10} {err:>14}")


def cmd_converge(config: StudyConfig) -> tuple[StudyReport, int]:
    """Multi-level refinement study with per-mode convergence rates."""
    _validate(config, "converge")
    if len(config.levels) < 2:
        raise ConfigError("converge expects at least two levels")
    if _exact_targets(config) is None:
        raise ConfigError("converge needs exact targets (square domain or --exact)")
    rows = [_run_level(config, n)[0] for n in config.levels]
    _attach_rates(rows)
    report = StudyReport(config, rows)
    code = EXIT_OK
    print(f"{'n':>5} {'h':>12} {'lambda_1':>22} {'error_1':>14} {'rate_1':>8}")
    for row in rows:
        rate = _cell(row.rates, 0, ".4f")
        print(f"{row.level:>5} {row.h:>12.6g} {row.lambdas[0]:>22.16g} "
              f"{row.errors[0]:>14.6e} {rate:>8}")
    if config.expect_rate is not None:
        lo, hi = config.expect_rate
        last = rows[-1].rates
        rate1 = last[0] if last is not None else math.nan
        if not (lo <= rate1 <= hi):
            print(f"rate check FAILED: {rate1:.4f} outside [{lo}, {hi}]")
            code = EXIT_TOLERANCE
        else:
            print(f"rate check passed: {rate1:.4f} in [{lo}, {hi}]")
    return report, code


def cmd_audit(config: StudyConfig) -> int:
    """Exactness audit on the first level, and spurious eigenvalue counts
    (square, >= 2 levels) on the last."""
    _validate(config, "audit")
    spurious = config.domain == "square" and len(config.levels) >= 2
    if spurious and config.n_eigs < 2:
        raise ConfigError("spurious counts need --neigs 2 or more")
    report = exactness_check(build_mesh(config, config.levels[0]),
                             config.degree)
    for line in report.lines():
        print("exactness:", line)
    print("exactness:", "PASS" if report.passed else "FAIL")
    ok = report.passed
    if spurious:
        n = config.levels[-1]
        worst, unresolved = 0, []
        for tau, count, exact in spurious_counts(
                build_mesh(config, n), config.degree, config.n_eigs):
            print(f"spurious: n={n} tau={tau:g} count={count} exact={exact} "
                  f"excess={count - exact}")
            worst = max(worst, count - exact)
            if count < exact:   # the mesh misses exact values below tau
                unresolved.append(f"{tau:g}")
        if unresolved:
            print("spurious: unresolved at tau=" + ",".join(unresolved))
        # degree 1 must exhibit the failure; higher degrees must not
        scan_ok = not unresolved and (worst > 0) == (config.degree == 1)
        print(f"spurious: {worst} flagged, " + ("PASS" if scan_ok else "FAIL"))
        ok &= scan_ok
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_compare(config: StudyConfig) -> tuple[StudyReport, int]:
    """Mixed (div-div) versus primal eigenvalues on the same mesh."""
    _validate(config, "compare")
    stable = _FORMS["fem1"].degrees   # the mixed method's, div V_h = W_h
    if config.degree not in stable:
        raise ConfigError(f"compare requires degree {_or_list(stable)}")
    n = config.levels[0]
    tmesh = build_mesh(config, n)
    t0 = time.perf_counter()
    mixed = _solve(config, tmesh)
    primal = _solve(replace(config, formulation="primal"), tmesh)
    runtime = time.perf_counter() - t0
    h = mesh_stats(tmesh).h
    m = min(len(mixed.eigenvalues), len(primal.eigenvalues))
    gaps = np.abs(mixed.eigenvalues[:m] - primal.eigenvalues[:m])
    print(f"level n={n}  h={h:.6g}  ({runtime:.2f}s)")
    print(f"{'i':>3} {'lambda_mixed':>22} {'lambda_primal':>22} {'gap':>14}")
    for i in range(m):
        print(f"{i + 1:>3} {mixed.eigenvalues[i]:>22.16g} "
              f"{primal.eigenvalues[i]:>22.16g} {gaps[i]:>14.6e}")
    row = LevelResult(
        level=n, h=h, lambdas=mixed.eigenvalues[:m],
        exact=primal.eigenvalues[:m], errors=gaps, rates=None, runtime=runtime,
    )
    return StudyReport(config, [row]), EXIT_OK


def cmd_mesh(config: StudyConfig) -> int:
    """Build a mesh and write the plain-text criss-cross format."""
    _validate(config, "mesh")
    tmesh = build_mesh(config, config.levels[0])
    path = config.out or "mesh.txt"
    write_mesh_text(tmesh, path)
    stats = mesh_stats(tmesh)
    print(f"wrote {path}: V={stats.n_vertices} E={stats.n_edges} "
          f"T={stats.n_triangles} Q={stats.n_quads} h={stats.h:.6g}")
    return EXIT_OK


# flag and argparse settings of each field, in --help order; the defaults
# are StudyConfig's, and _config_from_args splits the lists
_OPTIONS = {
    "domain": ("--domain", dict(choices=DOMAINS)),
    "degree": ("--degree", dict(type=int)),
    "formulation": ("--form", dict(choices=tuple(_FORMS))),
    "levels": ("--levels", dict(default="8",
                                help="comma-separated subdivision counts")),
    "n_eigs": ("--neigs", dict(type=int)),
    "backend": ("--backend", dict(choices=tuple(_BACKENDS))),
    "sigma": ("--sigma", dict(type=float)),
    "seed": ("--seed", dict(type=int)),
    "perturb": ("--perturb", dict(type=float)),
    "exact": ("--exact", dict(help="comma-separated exact targets")),
    "expect_rate": ("--expect-rate",
                    dict(help="lo:hi window for the first-mode rate")),
    "out": ("--out", dict(help="CSV path (mesh: mesh text path)")),
    "export_mesh": ("--export-mesh", dict()),
    "export_matrices": ("--export-matrices",
                        dict(help="path stem for MatrixMarket files")),
}


# glibc's malloc raises its mmap threshold to the size of each large block
# that is freed, so after one dense solve the arrays of later ones come from
# the heap, and how much freed memory stays resident then depends on the
# order of the earlier solves; so does the peak memory of a process that runs
# several (converge, compare, audit, or an in-process caller of main).  A
# fixed threshold turns that off: a new array of 4 MiB or more that free heap
# memory cannot hold gets its own mapping, returned to the system when freed.
_M_MMAP_THRESHOLD = -3          # mallopt parameter number, <malloc.h>
_MMAP_THRESHOLD_BYTES = 4 << 20


@functools.cache
def _fix_mmap_threshold() -> None:
    """Pin glibc's mmap threshold once per process; a no-op without glibc."""
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


class _Parser(argparse.ArgumentParser):
    """Raises its parse errors as ConfigError, for main's exit 2."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing does not change it."""
    parser = _Parser(
        prog="crisscross",
        description="Laplace eigenvalues with Lagrange elements on "
                    "criss-cross meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default = StudyConfig()
    for command, (helptext, fields) in COMMANDS.items():
        p = sub.add_parser(command, help=helptext)
        for name, (flag, settings) in _OPTIONS.items():
            if name in fields:
                p.add_argument(flag, dest=name, **{
                    "default": getattr(default, name), **settings})
    return parser


def _config_from_args(args) -> StudyConfig:
    values = {k: v for k, v in vars(args).items() if k != "command"}
    for name, kind, sep in (("levels", int, ","), ("exact", float, ","),
                            ("expect_rate", float, ":")):
        text = values.get(name)
        if isinstance(text, str):
            try:
                values[name] = [kind(tok) for tok in text.split(sep) if tok]
            except ValueError:
                raise ConfigError(f"bad {name} {text!r}") from None
    return StudyConfig(**values)


def main(argv=None) -> int:
    _fix_mmap_threshold()
    try:
        args = _build_parser().parse_args(argv)
        config = _config_from_args(args)
        if args.command == "eig":
            report, code = cmd_eig(config)
        elif args.command == "converge":
            report, code = cmd_converge(config)
        elif args.command == "audit":
            return cmd_audit(config)
        elif args.command == "compare":
            report, code = cmd_compare(config)
        else:
            return cmd_mesh(config)
        if config.out:
            report.write(config.out)
        return code
    except (ValueError, OSError) as exc:
        # ConfigError (parse errors too), MeshError, argument errors from
        # the modules, and output paths that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
