"""Write reference.json.gz: the values the correctness gate checks against.

Run once, from the repository root, on the commit whose behaviour is the
reference (the commit that introduced this benchmark):

    PYTHONPATH=src python3 perfbench/make_reference.py

* feedback_grid: the noise-free optimize columns of every cell, the
  candidate list of every multi-candidate cell, and density.csv verbatim.
* mc_sweep: J_mean and J_stderr per u from a sweep at 8x the workload's
  path count, with a seed no benchmark run uses.
* path_dump: mean and standard error of the final state over 1e6 paths
  (`dynamics.simulate_final`, the same model and u = 0 policy).
"""

from __future__ import annotations

import csv
import gzip
import json
import sys
from pathlib import Path

import numpy as np

from stubborn import cli, control, dynamics, payoff
from stubborn.model import State

import workloads

REF_SEED = 1_000_003
SWEEP_PATH_FACTOR = 8
FINAL_STATE_PATHS = 1_000_000


def _write(cfg: dict, out: Path) -> Path:
    path = out / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _cli_outputs(cfg: dict, command: str, out: Path) -> Path:
    rc = cli.run_command(command, cli.load_config(str(_write(cfg, out))), str(out / command))
    if rc != 0:
        raise SystemExit(f"{command} failed with exit code {rc}")
    return out / command


def feedback_grid(out: Path) -> dict:
    cfg = workloads.FEEDBACK_GRID.config(REF_SEED)
    config = cli.load_config(str(_write(cfg, out)))
    opt_dir = _cli_outputs(cfg, "optimize", out)
    dens_dir = _cli_outputs(cfg, "density", out)
    cells = []
    with open(opt_dir / "optimize.csv", encoding="utf-8", newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            s, x, n_cand = float(row[0]), float(row[1]), int(row[5])
            cands = []
            if n_cand >= 2:
                res = control.optimal_stubbornness(
                    State(s=s, x=x), config.model, config.payoff, config.lagrange, config.modes,
                    dt=config.numerics.dt, seed=REF_SEED,
                )
                cands = sorted(min(max(u, 0.0), 1.0) for u in res.u_candidates)
            cells.append([s, x, n_cand, row[7], float(row[2]), cands])
    return {"optimize": cells, "density_csv": (dens_dir / "density.csv").read_text(encoding="utf-8")}


def mc_sweep(out: Path) -> dict:
    cfg = workloads.MC_SWEEP.config(REF_SEED)
    cfg["numerics"]["n_paths"] *= SWEEP_PATH_FACTOR
    with open(_cli_outputs(cfg, "sweep", out) / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {
        "seed": REF_SEED,
        "n_paths": cfg["numerics"]["n_paths"],
        "J_mean": [float(r[1]) for r in rows],
        "J_stderr": [float(r[2]) for r in rows],
    }


def path_dump(out: Path) -> dict:
    cfg = workloads.PATH_DUMP.config(REF_SEED)
    config = cli.load_config(str(_write(cfg, out)))
    final, _ = dynamics.simulate_final(
        config.numerics.x0, payoff.constant_policy(0.0), config.model, config.numerics.dt,
        config.payoff.horizon, REF_SEED, FINAL_STATE_PATHS,
    )
    return {
        "seed": REF_SEED,
        "n_paths": FINAL_STATE_PATHS,
        "final_mean": float(final.mean()),
        "final_stderr": float(final.std(ddof=1) / np.sqrt(final.size)),
    }


def main() -> int:
    out = Path(".perfbench_out") / "reference"
    out.mkdir(parents=True, exist_ok=True)
    reference = {
        "stubborn_version": cli.__version__,
        "feedback_grid": feedback_grid(out),
        "mc_sweep": mc_sweep(out),
        "path_dump": path_dump(out),
        "oracle_validate": {},
    }
    with gzip.GzipFile(workloads.REFERENCE_PATH, "wb", mtime=0) as fh:
        fh.write(json.dumps(reference, sort_keys=True).encode("utf-8"))
    print(f"wrote {workloads.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
