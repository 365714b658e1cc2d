"""Output checks for benchmark commands.

Each command is described by a config dict (``cmd``, ``domain``, ``degree``,
``form``, ``levels``, ``neigs``, ...).  ``check_command`` looks at one
command's exit code, captured stdout and output file and returns a list of
problems (empty when the output is right); ``check_pairs`` cross-checks the
mixed (fem1) and div-div (fem2) tables of the same mesh.  The eigenvalue
checks use bounds recorded per config in ``bounds.json`` (see
``calibrate.py``) against exact values computed here, not by the program.

``selftest`` checks the checker: the known-bad output of
``eig --backend lanczos --sigma 3`` (lambda_1 printed as 5.0007 on the square,
where the exact value is 2) must be rejected, and the output of the same
command at ``--sigma 1`` accepted.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
CSV_HEADER = "level,h,index,lambda_h,exact,abs_error,rate"
LSHAPE_MODE3 = 8.0        # sin(2x) sin(2y) lives on the L-shape too
PAIR_RTOL = 1e-10         # fem1 against fem2 on one mesh
UPPER_RTOL = 1e-11        # roundoff slack for Galerkin upper bounds
DOUBLET_RTOL = 1e-8       # same as the CLI's cluster tolerance
DOUBLET_MAX_ERROR = 0.02  # doublets are checked where modes are resolved
# Row pairs (0-based) of the square's doublets m^2 + n^2 with m + n odd:
# 5 = (1,2), 13 = (2,3), 17 = (1,4).  The criss-cross square mesh keeps the
# square's symmetry group, whose 2-d representation holds these modes, so
# they stay exactly double.  10 = (1,3) is double only in the limit: its pair
# splits by O(h^2k) and is covered by the error bound alone.
SYMMETRIC_DOUBLETS = ((1, 2), (6, 7), (8, 9))


def square_exact(count: int) -> list:
    """Sorted Dirichlet eigenvalues m^2 + n^2 of (0, pi)^2."""
    top = count + 2
    vals = sorted(m * m + n * n for m in range(1, top) for n in range(1, top))
    return [float(v) for v in vals[:count]]


def bound_key(domain: str, degree: int, form: str, n: int) -> str:
    return f"{domain}/k{degree}/{form}/n{n}"


def load_bounds(path: str | None = None) -> dict:
    with open(path or os.path.join(HERE, "bounds.json"), encoding="ascii") as fh:
        return json.load(fh)["bounds"]


def parse_csv(text: str) -> dict:
    """Eigenvalue table by level: {level: [(lambda_h, exact or None), ...]}.

    Raises ValueError when the text is not a well-formed table.
    """
    lines = text.strip("\n").split("\n")
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or wrong CSV header")
    table = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 7:
            raise ValueError(f"row with {len(fields)} fields: {line!r}")
        level, index = int(fields[0]), int(fields[2])
        lam = float(fields[3])
        exact = float(fields[4]) if fields[4] else None
        if not math.isfinite(lam):
            raise ValueError(f"non-finite eigenvalue in {line!r}")
        rows = table.setdefault(level, [])
        if index != len(rows) + 1:
            raise ValueError(f"index {index} out of order at level {level}")
        rows.append((lam, exact))
    if not table:
        raise ValueError("empty table")
    return table


def relative_errors(cfg: dict, domain: str, form: str, lams: list) -> dict:
    """Observed error per bound key for one column of eigenvalues.

    Square domains: max relative error against m^2 + n^2 over all rows.
    L-shape: relative error of lambda_3 against 8.
    """
    n = cfg["n"]
    key = bound_key(domain, cfg["degree"], form, n)
    if domain in ("square", "square-perturbed"):
        exact = square_exact(len(lams))
        return {key: max(abs(a - b) / b for a, b in zip(lams, exact))}
    if len(lams) >= 3:
        return {key: abs(lams[2] - LSHAPE_MODE3) / LSHAPE_MODE3}
    return {}


def observed_errors(cfg: dict, table: dict) -> dict:
    """Bound key -> observed relative error for a parsed eigenvalue table."""
    out = {}
    for level, rows in table.items():
        sub = dict(cfg, n=level)
        lams = [lam for lam, _ in rows]
        out.update(relative_errors(sub, cfg["domain"], cfg["form"], lams))
        if cfg["cmd"] == "compare":      # exact column holds the primal values
            primal = [ex for _, ex in rows]
            out.update(relative_errors(sub, cfg["domain"], "primal", primal))
    return out


def _check_table(cfg: dict, text: str, bounds: dict) -> list:
    problems = []
    try:
        table = parse_csv(text)
    except ValueError as exc:
        return [f"CSV does not parse: {exc}"]
    if sorted(table) != sorted(cfg["levels"]):
        problems.append(f"levels {sorted(table)} != {cfg['levels']}")
    for key, err in observed_errors(cfg, table).items():
        if key not in bounds:
            problems.append(f"no recorded bound for {key}")
        elif not err <= bounds[key]:
            problems.append(f"{key}: error {err:.3e} above bound {bounds[key]:.3e}")
    square = cfg["domain"] in ("square", "square-perturbed")
    for level, rows in table.items():
        lams = [lam for lam, _ in rows]
        if cfg["cmd"] == "compare":
            primal = [ex for _, ex in rows]
        elif cfg["form"] == "primal":
            primal = lams
        else:
            primal = []
        if square:
            exact = square_exact(len(lams))
            if cfg["cmd"] != "compare":
                for (_, ex), want in zip(rows, exact):
                    if ex is None or abs(ex - want) > 1e-12 * want:
                        problems.append(f"exact column {ex} != {want}")
                        break
        else:
            exact = [None, None, LSHAPE_MODE3][:len(primal)]
        for i, (lam, want) in enumerate(zip(primal, exact)):
            if want is not None and lam < want * (1.0 - UPPER_RTOL):
                problems.append(
                    f"primal lambda_{i + 1} = {lam!r} below exact {want}")
        key = bound_key(cfg["domain"], cfg["degree"], cfg["form"], level)
        if cfg["domain"] == "square" and bounds.get(key, 1.0) < DOUBLET_MAX_ERROR:
            for i, j in SYMMETRIC_DOUBLETS:
                if j < len(lams) and abs(lams[i] - lams[j]) > DOUBLET_RTOL * lams[j]:
                    problems.append(f"doublet {exact[j]:g},{exact[j]:g} split: "
                                    f"{lams[i]!r} vs {lams[j]!r}")
    return problems


def _check_audit(cfg: dict, stdout: str) -> list:
    lines = stdout.splitlines()
    problems = []
    if cfg["degree"] in (2, 3) and "exactness: PASS" not in lines:
        problems.append("exactness audit did not PASS")
    if cfg["domain"] == "square" and len(cfg["levels"]) >= 2:
        verdict = [ln for ln in lines if ln.startswith("spurious: ")
                   and ln.endswith((" flagged, PASS", " flagged, FAIL"))]
        if len(verdict) != 1:
            return problems + ["no spurious-scan verdict"]
        flagged = int(verdict[0].split()[1])
        if not verdict[0].endswith("PASS"):
            problems.append(f"spurious scan FAIL: {verdict[0]}")
        if cfg["degree"] == 1 and flagged < 1:
            problems.append("degree-1 spurious mode not flagged")
        if cfg["degree"] != 1 and flagged != 0:
            problems.append(f"{flagged} spurious values flagged at k={cfg['degree']}")
    return problems


def _check_mesh(cfg: dict, stdout: str, text: str) -> list:
    lines = text.split("\n")
    try:
        v, e, t, q = (int(tok) for tok in lines[2].split())
    except (IndexError, ValueError):
        return ["mesh file does not parse"]
    n = cfg["levels"][0]
    problems = []
    if lines[0] != "crisscross-mesh v1":
        problems.append("bad mesh header")
    if len(lines) != 3 + v + 2 * t + 1:
        problems.append(f"mesh file has {len(lines)} lines for V={v} T={t}")
    if q != (3 * n * n if cfg["domain"] == "lshape" else n * n) or t != 4 * q:
        problems.append(f"mesh counts T={t} Q={q} wrong for n={n}")
    if v - e + t != 1:
        problems.append(f"Euler characteristic V-E+T={v - e + t} != 1")
    if f"V={v} E={e} T={t} Q={q}" not in stdout:
        problems.append("printed counts differ from the file")
    return problems


def check_command(cfg: dict, rc, stdout: str, text: str | None,
                  bounds: dict) -> list:
    """Problems with one command's result; empty when it is right."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    if cfg["cmd"] == "audit":
        return _check_audit(cfg, stdout)
    if text is None:
        return ["output file missing"]
    if cfg["cmd"] == "mesh":
        return _check_mesh(cfg, stdout, text)
    return _check_table(cfg, text, bounds)


def pair_key(cfg: dict):
    """Commands with equal keys solve the same pencil in fem1 and fem2 form."""
    if cfg["cmd"] != "eig" or cfg["form"] not in ("fem1", "fem2"):
        return None
    return (cfg["domain"], cfg["degree"], tuple(cfg["levels"]),
            cfg.get("seed"), cfg["neigs"])


def check_pairs(fem1_text: str, fem2_text: str) -> list:
    """fem1 and fem2 eigenvalues of one mesh must agree to PAIR_RTOL."""
    try:
        a, b = parse_csv(fem1_text), parse_csv(fem2_text)
    except ValueError as exc:
        return [f"CSV does not parse: {exc}"]
    for level in a:
        x = [lam for lam, _ in a[level]]
        y = [lam for lam, _ in b.get(level, [])]
        if len(x) != len(y):
            return [f"fem1 has {len(x)} rows, fem2 {len(y)}"]
        for i, (p, q) in enumerate(zip(x, y)):
            if abs(p - q) > PAIR_RTOL * max(1.0, abs(q)):
                return [f"fem1 lambda_{i + 1} = {p!r} vs fem2 {q!r}"]
    return []


def digest(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()[:16]


# --------------------------------------------------------------- self-test

SIGMA3_CFG = {"cmd": "eig", "domain": "square", "degree": 2, "form": "fem2",
              "levels": [8], "neigs": 10, "backend": "lanczos", "sigma": 3.0}


def selftest(bounds: dict) -> list:
    """Problems with the checker itself; empty when it works."""
    failures = []
    path = os.path.join(HERE, "fixtures", "eig_lanczos_sigma3.csv")
    with open(path, encoding="ascii") as fh:
        bad = fh.read()
    if not check_command(SIGMA3_CFG, 0, "", bad, bounds):
        failures.append("the sigma=3 output (lambda_1 = 5.0007) was accepted")
    path = os.path.join(HERE, "fixtures", "eig_lanczos_sigma1.csv")
    with open(path, encoding="ascii") as fh:
        good = fh.read()
    problems = check_command(dict(SIGMA3_CFG, sigma=1.0), 0, "", good, bounds)
    if problems:
        failures.append(f"the sigma=1 output was rejected: {problems}")
    return failures
