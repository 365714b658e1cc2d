"""Record the per-config eigenvalue error bounds used by ``check.py``.

    python3 perfbench/calibrate.py

Run from the repository root.  Runs every table-producing command of every
workload once in this process (the perturbed-mesh commands once per seed in
``range(SEEDS)``), measures each config's relative error (square: max over
rows against m^2 + n^2; L-shape: lambda_3 against 8) and writes
``bounds.json`` with bound = factor * observed + floor.  Meshes without
randomness get a tight factor, since their eigenvalues are fixed by the
discretisation; perturbed meshes get a wider one, since the seed of a
benchmark run need not be among the calibrated ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, "src")

import check  # noqa: E402
import run  # noqa: E402

SEEDS = 40
FACTOR_FIXED = 1.5
FACTOR_PERTURBED = 3.0
FLOOR = 1e-9


def main() -> int:
    from crisscross.cli import main as cli_main

    configs = {}
    for seed in range(SEEDS):
        for name in run.WORKLOADS:
            for cfg in run.workload(name, seed):
                if run.output_suffix(cfg) == ".csv":
                    configs[" ".join(run.to_argv(cfg, None))] = cfg
    configs[" ".join(run.to_argv(check.SIGMA3_CFG, None))] = dict(
        check.SIGMA3_CFG, sigma=1.0)

    out_dir = os.path.join(run.WORK, "calibrate")
    os.makedirs(out_dir, exist_ok=True)
    observed = {}
    try:
        for i, cfg in enumerate(configs.values()):
            out = os.path.join(out_dir, f"c{i}.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main(run.to_argv(cfg, out))
            if rc != 0:
                print(f"{run.to_argv(cfg, None)} exited {rc}", file=sys.stderr)
                return 1
            with open(out, encoding="ascii") as fh:
                errors = check.observed_errors(cfg, check.parse_csv(fh.read()))
            for key, err in errors.items():
                observed[key] = max(observed.get(key, 0.0), err)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    bounds = {}
    for key, err in sorted(observed.items()):
        factor = FACTOR_PERTURBED if key.startswith("square-perturbed/") else FACTOR_FIXED
        bounds[key] = float(f"{factor * err + FLOOR:.3e}")
    record = {
        "about": "relative eigenvalue error bounds per domain/degree/form/level; "
                 "written by calibrate.py",
        "seeds": SEEDS,
        "factor_fixed": FACTOR_FIXED,
        "factor_perturbed": FACTOR_PERTURBED,
        "floor": FLOOR,
        "bounds": bounds,
        "observed": {k: float(f"{v:.4e}") for k, v in sorted(observed.items())},
    }
    with open(os.path.join(HERE, "bounds.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"{len(bounds)} bounds from {len(configs)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
