"""Benchmark workloads: seeded configs, work counts and correctness gates.

A scenario is one config and the CLI commands run on it through the
public path (`cli.load_config` + `cli.run_command`); a workload runs one
or more scenarios in each pass.  The workload seed feeds `numerics.seed`
and nothing else, so every noise-free output is the same for every seed
and can be checked against reference values computed once from the seed
commit (`reference.json.gz`, written by make_reference.py), keyed by
scenario.

The gate does not depend on the noise stream: noise-free columns are
compared to 1e-9 relative, Monte Carlo outputs to 4 combined standard
errors, and structural invariants exactly.  A change of counter-based
noise generator therefore passes, while a wrong number fails.
"""

from __future__ import annotations

import copy
import csv
import gzip
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json.gz"

REL_TOL = 1e-9
MC_SIGMAS = 4.0

# The README scenario, every field spelled out so that a change of a
# documented default cannot silently change the work a workload does.
README_CONFIG = {
    "model": {"a": 1.0, "sigma1": 0.3, "sigma2": 0.1},
    "payoff": {
        "theta": 1.0, "alpha1": 0.1, "alpha2": 0.1, "alpha3": 0.1,
        "c": 1.0, "r": 0.5, "mu_bar": 0.0, "omega": 1.0, "horizon": 1.0,
    },
    "lagrange": {"l0": 0.0, "l1": 0.0},
    "modes": {
        "derivative_mode": "paper", "nash_mode": "paper",
        "kernel_exponent_mode": "rederived", "closed_form_mode": "rederived",
    },
    "numerics": {
        "dt": 0.01, "n_paths": 1000, "seed": 42, "x0": 1.0, "u_grid_n": 21,
        "x_grid": {"min": 0.2, "max": 3.0, "n": 65},
        "s_grid": {"min": 0.0, "max": 1.0, "n": 3},
        "tolerances": {"fd_rel": 1e-5, "residual_rel": 1e-6, "quad_rel": 1e-8},
        "density": {
            "eps": 0.01, "n_steps": 20, "snapshot_stride": 5, "u": 0.2,
            "step": "schrodinger", "gradient_correction": False,
        },
    },
}


def _merge(base: dict, overrides: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _n_steps(cfg: dict) -> int:
    return round(cfg["payoff"]["horizon"] / cfg["numerics"]["dt"])


@dataclass(frozen=True)
class Scenario:
    """One config and the commands run on it, with the gate for their outputs."""

    name: str
    commands: tuple[str, ...]
    overrides: dict
    gate: Callable[[dict, dict[str, Path], dict], list[str]]

    def config(self, seed: int) -> dict:
        """The run configuration for one workload seed."""
        return _merge(README_CONFIG, _merge(self.overrides, {"numerics": {"seed": seed}}))


@dataclass(frozen=True)
class Workload:
    """Scenarios run one after the other in each pass."""

    name: str
    scenarios: tuple[Scenario, ...]
    work_unit: str
    work: Callable[[dict[str, dict]], int]
    bytes_moved: Callable[[dict[str, dict]], int]
    bytes_moved_basis: str

    def configs(self, seed: int) -> dict[str, dict]:
        return {sc.name: sc.config(seed) for sc in self.scenarios}


# ---------------------------------------------------------------- helpers

def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _mc_agrees(value: float, se: float, ref: float, ref_se: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= MC_SIGMAS * math.hypot(se, ref_se)


def load_reference() -> dict:
    with gzip.open(REFERENCE_PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- gates

def gate_sweep(cfg: dict, files: dict[str, Path], ref: dict) -> list[str]:
    header, rows = _read_rows(files["sweep.csv"])
    if header != ["u", "J_mean", "J_stderr", "invalid_fraction"]:
        return [f"sweep.csv header {header}"]
    n = cfg["numerics"]["u_grid_n"]
    if len(rows) != n:
        return [f"sweep.csv has {len(rows)} rows, expected {n}"]
    errors = []
    for row, u_ref, j_ref, se_ref in zip(rows, np.linspace(0.0, 1.0, n), ref["J_mean"], ref["J_stderr"]):
        u, j, se, bad = (float(v) for v in row)
        if not close(u, float(u_ref)):
            errors.append(f"sweep u {u} != {u_ref}")
        if not (0.0 <= bad <= 1.0 and se >= 0.0):
            errors.append(f"sweep row {row} out of range")
        if not _mc_agrees(j, se, j_ref, se_ref):
            errors.append(f"sweep J({u}) = {j} +- {se}, reference {j_ref} +- {se_ref}")
    return errors


def gate_paths(cfg: dict, files: dict[str, Path], ref: dict) -> list[str]:
    path = files["paths.csv"]
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header != "path_id,step,s,x,clamped":
        return [f"paths.csv header {header!r}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_paths, steps = cfg["numerics"]["n_paths"], _n_steps(cfg) + 1
    if data.shape != (n_paths * steps, 5):
        return [f"paths.csv shape {data.shape}, expected {(n_paths * steps, 5)}"]
    errors = []
    idx = np.arange(n_paths * steps)
    if not (np.array_equal(data[:, 0], idx // steps) and np.array_equal(data[:, 1], idx % steps)):
        errors.append("paths.csv path_id/step columns out of order")
    s_want = data[:, 1] * cfg["numerics"]["dt"]
    if np.any(np.abs(data[:, 2] - s_want) > REL_TOL * np.abs(s_want)):
        errors.append("paths.csv s column differs from step*dt")
    x, clamped = data[:, 3], data[:, 4]
    if np.any(x < 0.0):
        errors.append("paths.csv has negative x")
    if not np.all((clamped == 0.0) | (clamped == 1.0)):
        errors.append("paths.csv clamped column not in {0, 1}")
    if np.any(x[clamped == 1.0] != 0.0):
        errors.append("paths.csv has clamped=1 with x != 0")
    final = x[steps - 1 :: steps]
    mean, se = float(final.mean()), float(final.std(ddof=1) / math.sqrt(final.size))
    if not _mc_agrees(mean, se, ref["final_mean"], ref["final_stderr"]):
        errors.append(
            f"final-step mean x {mean} +- {se}, reference {ref['final_mean']} +- {ref['final_stderr']}"
        )
    return errors


def gate_optimize_density(cfg: dict, files: dict[str, Path], ref: dict) -> list[str]:
    errors = []
    header, rows = _read_rows(files["optimize.csv"])
    if header != ["s", "x", "u_star", "u_unclamped", "residual", "n_candidates", "mode_flags", "status"]:
        return [f"optimize.csv header {header}"]
    if len(rows) != len(ref["optimize"]):
        return [f"optimize.csv has {len(rows)} rows, expected {len(ref['optimize'])}"]
    for row, (s, x, n_cand, status, u_star, cands) in zip(rows, ref["optimize"]):
        where = f"optimize cell (s={row[0]}, x={row[1]})"
        if not (close(float(row[0]), s) and close(float(row[1]), x)):
            errors.append(f"{where}: expected (s={s}, x={x})")
        elif int(row[5]) != n_cand or row[7] != status:
            errors.append(f"{where}: n_candidates/status {row[5]}/{row[7]}, expected {n_cand}/{status}")
        elif n_cand >= 2:
            if not any(close(float(row[2]), c) for c in cands):
                errors.append(f"{where}: u_star {row[2]} not among candidates {cands}")
        elif not close(float(row[2]), u_star):
            errors.append(f"{where}: u_star {row[2]}, expected {u_star}")
        if len(errors) >= 10:
            break
    header, rows = _read_rows(files["density.csv"])
    ref_rows = list(csv.reader(ref["density_csv"].splitlines()))
    if [header] + rows == ref_rows:
        return errors
    if header != ref_rows[0] or len(rows) != len(ref_rows) - 1:
        return errors + [f"density.csv has {len(rows)} rows, expected {len(ref_rows) - 1}"]
    for row, want in zip(rows, ref_rows[1:]):
        if not all(close(float(a), float(b)) for a, b in zip(row, want)):
            errors.append(f"density row {row}, expected {want}")
            if len(errors) >= 10:
                break
    return errors


def gate_validate(cfg: dict, files: dict[str, Path], ref: dict) -> list[str]:
    report = json.loads(files["report.json"].read_text(encoding="utf-8"))
    if report.get("passed") is not True:
        failed = sorted(k for k, v in report.get("suites", {}).items() if not v.get("passed"))
        return [f"validate report passed={report.get('passed')}, failing suites {failed}"]
    return []


# ---------------------------------------------------------------- scenarios

MC_SWEEP = Scenario(
    name="mc_sweep",
    commands=("sweep",),
    overrides={"numerics": {"n_paths": 32768, "u_grid_n": 21, "dt": 0.01}},
    gate=gate_sweep,
)
PATH_DUMP = Scenario(
    name="path_dump",
    commands=("simulate",),
    overrides={"numerics": {"n_paths": 10000}},
    gate=gate_paths,
)
FEEDBACK_GRID = Scenario(
    name="feedback_grid",
    commands=("optimize", "density"),
    overrides={
        "model": {"a": 2.0, "sigma1": 0.5, "sigma2": 0.5},
        "payoff": {"c": 2.5},
        "lagrange": {"l0": 0.4, "l1": 0.0},
        "numerics": {
            "n_paths": 200,
            "x_grid": {"min": 0.2, "max": 3.0, "n": 1025},
            "s_grid": {"min": 0.0, "max": 1.0, "n": 3},
            "density": {"eps": 0.005, "n_steps": 200, "snapshot_stride": 50},
        },
    },
    gate=gate_optimize_density,
)
ORACLE_VALIDATE = Scenario(
    name="oracle_validate",
    commands=("validate",),
    overrides={"numerics": {"n_paths": 100000}},
    gate=gate_validate,
)


def _em_path_steps(c: dict[str, dict]) -> int:
    sweep, fk = c["mc_sweep"], c["oracle_validate"]
    return (
        sweep["numerics"]["u_grid_n"] * sweep["numerics"]["n_paths"] * _n_steps(sweep)
        + fk["numerics"]["n_paths"] * _n_steps(fk)
    )


# ---------------------------------------------------------------- workloads

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="monte_carlo",
            scenarios=(MC_SWEEP, ORACLE_VALIDATE),
            work_unit="EM path-steps (sweep + validate's Feynman-Kac estimate)",
            work=_em_path_steps,
            bytes_moved=lambda c: 8 * _em_path_steps(c),
            bytes_moved_basis="8 B per normal drawn, one normal per EM path-step",
        ),
        Workload(
            name="path_dump",
            scenarios=(PATH_DUMP,),
            work_unit="rows",
            work=lambda c: c["path_dump"]["numerics"]["n_paths"] * (_n_steps(c["path_dump"]) + 1),
            bytes_moved=lambda c: 9 * c["path_dump"]["numerics"]["n_paths"] * (_n_steps(c["path_dump"]) + 1),
            bytes_moved_basis="9 B per stored path-step (float64 state + bool clamp flag)",
        ),
        Workload(
            name="feedback_grid",
            scenarios=(FEEDBACK_GRID,),
            work_unit="cells + density point-steps",
            work=lambda c: (
                c["feedback_grid"]["numerics"]["s_grid"]["n"] * c["feedback_grid"]["numerics"]["x_grid"]["n"]
                + c["feedback_grid"]["numerics"]["x_grid"]["n"] * c["feedback_grid"]["numerics"]["density"]["n_steps"]
            ),
            bytes_moved=lambda c: (
                32 * c["feedback_grid"]["numerics"]["x_grid"]["n"] * c["feedback_grid"]["numerics"]["density"]["n_steps"]
            ),
            bytes_moved_basis="4 float64 grid arrays (psi, f, f_x, f_xx) per density step",
        ),
    )
}
