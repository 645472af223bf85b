"""Command-line interface: config ingestion, dispatch, run manifests.

Commands: simulate | sweep | optimize | density | validate.  Scenarios are
described by a single JSON config (about twenty parameters); command-line
flags override top-level numerics only (--seed, --dt, --n-paths,
--out-dir).  Every command writes a manifest.json naming each emitted file;
CSV numbers use the shortest round-trip decimal representation so repeated
runs are byte-identical (manifest timing and diagnostics aside).  Each
command returns (files, ok, diagnostics); the diagnostics dict lands in the
manifest's `diagnostics` block next to the resolved worker count.

Exit codes: 0 success, 1 check failure or runtime error, 2 usage/config
error.  STUBBORN_THREADS caps the Monte Carlo worker count; outputs do not
depend on it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from . import __version__, checks, density, dynamics
from .control import ClosedFormDomainError, optimal_stubbornness
from .model import (
    LagrangeParams,
    ModeFlags,
    ModelParams,
    ParameterError,
    PayoffParams,
    State,
    validate_params,
)
from .payoff import constant_policy, expected_payoffs


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass(frozen=True)
class GridSpec:
    min: float
    max: float
    n: int


@dataclass(frozen=True)
class Tolerances:
    fd_rel: float = 1e-5
    residual_rel: float = 1e-6
    quad_rel: float = 1e-8


@dataclass(frozen=True)
class DensityRun:
    eps: float = 0.01
    n_steps: int = 20
    snapshot_stride: int = 5
    u: float = 0.2
    step: str = "schrodinger"
    gradient_correction: bool = False


@dataclass(frozen=True)
class Numerics:
    dt: float = 0.01
    n_paths: int = 1000
    seed: int = 42
    x0: float = 1.0
    u_grid_n: int = 21
    x_grid: GridSpec = GridSpec(0.2, 3.0, 65)
    s_grid: GridSpec | None = None
    tolerances: Tolerances = Tolerances()
    density: DensityRun = DensityRun()


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    payoff: PayoffParams
    lagrange: LagrangeParams
    modes: ModeFlags
    numerics: Numerics

    def resolved_s_grid(self) -> GridSpec:
        if self.numerics.s_grid is not None:
            return self.numerics.s_grid
        return GridSpec(0.0, self.payoff.horizon, 3)


def _section(raw: dict, key: str, name: str, required: bool = False) -> dict:
    """raw[key] as a JSON object ({} when absent and optional)."""
    if key not in raw:
        if required:
            raise ConfigError(f"{name} section required")
        return {}
    if not isinstance(raw[key], dict):
        raise ConfigError(f"{name} must be a JSON object")
    return raw[key]


def _number(section: dict, section_name: str, field: str, default=None, kind=float):
    """section[field] converted by kind (float or int); required unless a default is given.

    A JSON boolean is not a number, and an int field takes only integral
    values: nothing is silently truncated or cast.
    """
    if field not in section:
        if default is None:
            raise ConfigError(f"{section_name}.{field} required")
        return default
    value = section[field]
    noun = "an integer" if kind is int else "a number"
    error = ConfigError(f"{section_name}.{field} must be {noun}, got {value!r}")
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise error
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise error from None


def _build_grid(raw: dict, key: str) -> GridSpec:
    g = _section(raw, key, key)
    spec = GridSpec(
        min=_number(g, key, "min"),
        max=_number(g, key, "max"),
        n=_number(g, key, "n", kind=int),
    )
    if not spec.min < spec.max:
        raise ConfigError(f"{key}.min must be below {key}.max")
    if spec.n < 2:
        raise ConfigError(f"{key}.n must be at least 2")
    return spec


def _validate_numerics(numerics: Numerics, horizon: float) -> None:
    """Numerics rules that also apply after command-line overrides."""
    if numerics.dt <= 0.0:
        raise ConfigError("numerics.dt must be positive")
    try:
        dynamics.n_steps_for(horizon, numerics.dt)
    except ValueError as exc:
        raise ConfigError(f"numerics.dt: {exc}") from None
    if numerics.n_paths < 1:
        raise ConfigError("numerics.n_paths must be at least 1")
    if numerics.x0 < 0.0:
        raise ConfigError("numerics.x0 must be nonnegative")
    if numerics.u_grid_n < 2:
        raise ConfigError("numerics.u_grid_n must be at least 2")
    if numerics.density.snapshot_stride < 1:
        raise ConfigError("numerics.density.snapshot_stride must be at least 1")
    if numerics.density.step not in ("schrodinger", "kernel"):
        raise ConfigError("numerics.density.step must be 'schrodinger' or 'kernel'")


def parse_config(raw: dict) -> RunConfig:
    """Validated RunConfig from a parsed JSON document."""
    m = _section(raw, "model", "model", required=True)
    p = _section(raw, "payoff", "payoff", required=True)
    model = ModelParams(
        a=_number(m, "model", "a"),
        sigma1=_number(m, "model", "sigma1"),
        sigma2=_number(m, "model", "sigma2"),
    )
    payoff = PayoffParams(
        theta=_number(p, "payoff", "theta"),
        alpha1=_number(p, "payoff", "alpha1"),
        alpha2=_number(p, "payoff", "alpha2"),
        alpha3=_number(p, "payoff", "alpha3"),
        c=_number(p, "payoff", "c"),
        r=_number(p, "payoff", "r"),
        mu_bar=_number(p, "payoff", "mu_bar"),
        omega=_number(p, "payoff", "omega"),
        horizon=_number(p, "payoff", "horizon"),
    )
    lag_raw = _section(raw, "lagrange", "lagrange")
    lagrange = LagrangeParams(
        l0=_number(lag_raw, "lagrange", "l0", 0.0),
        l1=_number(lag_raw, "lagrange", "l1", 0.0),
    )
    modes_raw = _section(raw, "modes", "modes")
    try:
        modes = ModeFlags(
            derivative_mode=modes_raw.get("derivative_mode", "paper"),
            nash_mode=modes_raw.get("nash_mode", "paper"),
            kernel_exponent_mode=modes_raw.get("kernel_exponent_mode", "rederived"),
            closed_form_mode=modes_raw.get("closed_form_mode", "rederived"),
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc

    n_raw = _section(raw, "numerics", "numerics")
    tol_raw = _section(n_raw, "tolerances", "numerics.tolerances")
    dens_raw = _section(n_raw, "density", "numerics.density")
    gradient_correction = dens_raw.get("gradient_correction", False)
    if not isinstance(gradient_correction, bool):
        raise ConfigError("numerics.density.gradient_correction must be true or false")
    numerics = Numerics(
        dt=_number(n_raw, "numerics", "dt", 0.01),
        n_paths=_number(n_raw, "numerics", "n_paths", 1000, int),
        seed=_number(n_raw, "numerics", "seed", 42, int),
        x0=_number(n_raw, "numerics", "x0", 1.0),
        u_grid_n=_number(n_raw, "numerics", "u_grid_n", 21, int),
        x_grid=_build_grid(n_raw, "x_grid") if "x_grid" in n_raw else GridSpec(0.2, 3.0, 65),
        s_grid=_build_grid(n_raw, "s_grid") if "s_grid" in n_raw else None,
        tolerances=Tolerances(
            fd_rel=_number(tol_raw, "numerics.tolerances", "fd_rel", 1e-5),
            residual_rel=_number(tol_raw, "numerics.tolerances", "residual_rel", 1e-6),
            quad_rel=_number(tol_raw, "numerics.tolerances", "quad_rel", 1e-8),
        ),
        density=DensityRun(
            eps=_number(dens_raw, "numerics.density", "eps", 0.01),
            n_steps=_number(dens_raw, "numerics.density", "n_steps", 20, int),
            snapshot_stride=_number(dens_raw, "numerics.density", "snapshot_stride", 5, int),
            u=_number(dens_raw, "numerics.density", "u", 0.2),
            step=str(dens_raw.get("step", "schrodinger")),
            gradient_correction=gradient_correction,
        ),
    )
    validate_params(model, payoff, lagrange)
    _validate_numerics(numerics, payoff.horizon)
    return RunConfig(model=model, payoff=payoff, lagrange=lagrange, modes=modes, numerics=numerics)


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON config file."""
    try:
        text = FsPath(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return parse_config(raw)


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips (reproducibility contract for CSV)."""
    return repr(float(value))


def _write_csv(path: FsPath, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def cmd_simulate(config: RunConfig, out_dir: FsPath) -> tuple[list[str], bool, dict]:
    num = config.numerics
    states, clamped = dynamics.simulate_batch(
        num.x0,
        constant_policy(0.0),
        config.model,
        num.dt,
        config.payoff.horizon,
        num.seed,
        num.n_paths,
    )
    rows = []
    for pid in range(states.shape[0]):
        for k in range(states.shape[1]):
            rows.append(
                f"{pid},{k},{_fmt(k * num.dt)},{_fmt(states[pid, k])},{1 if clamped[pid, k] else 0}"
            )
    out = out_dir / "paths.csv"
    _write_csv(out, "path_id,step,s,x,clamped", rows)
    return [str(out)], True, {}


def cmd_sweep(config: RunConfig, out_dir: FsPath) -> tuple[list[str], bool, dict]:
    num = config.numerics
    u_grid = np.linspace(0.0, 1.0, num.u_grid_n)
    estimates = expected_payoffs(
        num.x0,
        [constant_policy(float(u)) for u in u_grid],
        config.model,
        config.payoff,
        num.dt,
        num.n_paths,
        num.seed,
    )
    rows = [
        f"{_fmt(u)},{_fmt(est.mean)},{_fmt(est.std_error)},{_fmt(est.invalid_fraction)}"
        for u, est in zip(u_grid, estimates)
    ]
    out = out_dir / "sweep.csv"
    _write_csv(out, "u,J_mean,J_stderr,invalid_fraction", rows)
    # one entry per sweep.csv row
    return [str(out)], True, {"clamp_fraction": [est.clamp_fraction for est in estimates]}


def cmd_optimize(config: RunConfig, out_dir: FsPath) -> tuple[list[str], bool, dict]:
    num = config.numerics
    sg = config.resolved_s_grid()
    xg = num.x_grid
    mode_cell = config.modes.describe()
    rows = []
    for s in np.linspace(sg.min, sg.max, sg.n):
        for x in np.linspace(xg.min, xg.max, xg.n):
            try:
                res = optimal_stubbornness(
                    State(s=float(s), x=float(x)),
                    config.model,
                    config.payoff,
                    config.lagrange,
                    config.modes,
                    dt=num.dt,
                    n_paths=num.n_paths,
                    seed=num.seed,
                )
                rows.append(
                    f"{_fmt(s)},{_fmt(x)},{_fmt(res.u_star)},{_fmt(res.u_unclamped)},"
                    f"{_fmt(res.residual)},{len(res.u_candidates)},{mode_cell},{res.reason}"
                )
            except ClosedFormDomainError as exc:
                rows.append(f"{_fmt(s)},{_fmt(x)},,,,0,{mode_cell},{exc}")
    out = out_dir / "optimize.csv"
    _write_csv(
        out, "s,x,u_star,u_unclamped,residual,n_candidates,mode_flags,status", rows
    )
    return [str(out)], True, {}


def cmd_density(config: RunConfig, out_dir: FsPath) -> tuple[list[str], bool, dict]:
    num = config.numerics
    dens = num.density
    xg = num.x_grid
    if xg.min <= 0.0:
        raise ConfigError("density requires x_grid.min > 0 (f is singular at x = 0)")
    x = np.linspace(xg.min, xg.max, xg.n)
    grid = density.gaussian_density_grid(
        x, center=0.5 * (xg.min + xg.max), width=(xg.max - xg.min) / 8.0
    )
    fields = density.model_fields(
        dens.u, config.model, config.payoff, config.lagrange, config.modes
    )
    rows = []
    warnings = []

    def snapshot(g: density.DensityGrid) -> None:
        for xi, pi in zip(g.x_grid, g.psi):
            rows.append(f"{_fmt(g.s)},{_fmt(xi)},{_fmt(pi)}")

    snapshot(grid)
    for step_idx in range(1, dens.n_steps + 1):
        if dens.step == "kernel":
            grid = density.kernel_step(
                grid,
                dens.eps,
                fields,
                kernel_exponent_mode=config.modes.kernel_exponent_mode,
                gradient_correction=dens.gradient_correction,
            )
        else:
            grid = density.schrodinger_step(
                grid, dens.eps, fields, kernel_exponent_mode=config.modes.kernel_exponent_mode
            )
        if grid.warning is not None:
            warnings.append({"step": step_idx, "warning": grid.warning})
        if step_idx % dens.snapshot_stride == 0 or step_idx == dens.n_steps:
            snapshot(grid)
    out = out_dir / "density.csv"
    _write_csv(out, "s,x,psi", rows)
    return [str(out)], True, {"boundary_warnings": warnings}


def cmd_validate(config: RunConfig, out_dir: FsPath) -> tuple[list[str], bool, dict]:
    num = config.numerics
    tol = num.tolerances
    report = checks.run_all_checks(
        n_paths=num.n_paths,
        dt=num.dt,
        seed=num.seed,
        fd_rel=tol.fd_rel,
        residual_rel=tol.residual_rel,
        quad_rel=tol.quad_rel,
    )
    out = out_dir / "report.json"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, suite in sorted(report["suites"].items()):
        print(f"{'PASS' if suite['passed'] else 'FAIL'}: {name}")
    return [str(out)], bool(report["passed"]), {}


COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
    "density": cmd_density,
    "validate": cmd_validate,
}


def _write_manifest(
    out: FsPath,
    command: str,
    config: RunConfig | None,
    status: str,
    error: str | None,
    duration: float = 0.0,
    files: list[str] | None = None,
    checks_passed: bool | None = None,
    diagnostics: dict | None = None,
) -> None:
    """Write out/manifest.json; config is None when it never parsed."""
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "config": None if config is None else dataclasses.asdict(config),
        "seed": None if config is None else config.numerics.seed,
        "duration_seconds": duration,
        "diagnostics": diagnostics or {"worker_count": dynamics._worker_count()},
        "files": files or [],
        "checks_passed": checks_passed,
        "status": status,
        "error": error,
    }
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_command(name: str, config: RunConfig, out_dir: str = ".") -> int:
    """Dispatch one command, writing outputs and a manifest under out_dir."""
    if name not in COMMANDS:
        raise ConfigError(f"unknown command '{name}'")
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    files: list[str] = []
    diagnostics = {"worker_count": dynamics._worker_count()}
    status = "ok"
    checks_passed: bool | None = None
    error_text: str | None = None
    try:
        files, ok, found = COMMANDS[name](config, out)
        diagnostics.update(found)
        if name == "validate":
            checks_passed = ok
            if not ok:
                status = "check_failure"
    except (ConfigError, ParameterError) as exc:
        status = "config_error"
        error_text = str(exc)
    except Exception as exc:  # noqa: BLE001 - surfaced via manifest + exit code
        status = "error"
        error_text = f"{type(exc).__name__}: {exc}"
    _write_manifest(
        out, name, config, status, error_text, duration=time.perf_counter() - started,
        files=files, checks_passed=checks_passed, diagnostics=diagnostics,
    )
    if status == "ok":
        return 0
    if status == "config_error":
        print(f"error: {error_text}", file=sys.stderr)
        return 2
    if error_text:
        print(f"error: {error_text}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stubborn",
        description="Goal-dynamics SDE simulation, payoff evaluation, and optimal-stubbornness computation.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out-dir", default=".", help="directory for emitted files")
    parser.add_argument("--seed", type=int, default=None, help="override numerics.seed")
    parser.add_argument("--dt", type=float, default=None, help="override numerics.dt")
    parser.add_argument("--n-paths", type=int, default=None, help="override numerics.n_paths")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = load_config(args.config)
        overrides = {"seed": args.seed, "dt": args.dt, "n_paths": args.n_paths}
        num = dataclasses.replace(
            config.numerics, **{k: v for k, v in overrides.items() if v is not None}
        )
        _validate_numerics(num, config.payoff.horizon)
        config = dataclasses.replace(config, numerics=num)
    except (ConfigError, ParameterError) as exc:
        # a manifest is emitted even when the config never parsed
        try:
            _write_manifest(FsPath(args.out_dir), args.command, None, "config_error", str(exc))
        except OSError:
            pass
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_command(args.command, config, args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
