"""Command-line interface: config ingestion, dispatch, run manifests.

Commands: simulate | sweep | optimize | density | validate.  Scenarios are
described by a single JSON config whose schema is the RunConfig dataclass
tree (fields, types and defaults; an unknown key is an error); command-line
flags override top-level numerics only (--seed, --dt, --n-paths,
--out-dir).  Every command writes a manifest.json naming each emitted file;
CSV numbers use the shortest round-trip decimal representation so repeated
runs are byte-identical (manifest timing and diagnostics aside).  Each
command returns (written, ok, diagnostics): written maps each emitted file to
its writing time, summed as the manifest's `timings.write_s` (the rest is
`compute_s`); diagnostics lands in the manifest's `diagnostics` block next to
the resolved worker count.

Exit codes: 0 success, 1 check failure or runtime error, 2 usage/config
error; a command line that argparse rejects also leaves a config_error
manifest.  Every fan-out runs on min(worker count, tasks) forked
processes, and inline when that is 1: the Monte Carlo engine's blocks, and
the fixed chunks of paths in which paths.csv is formatted (each worker
sends its chunks' bytes through its own pipe, and the command writes them
in path order).  The worker count is
STUBBORN_THREADS, else the CPUs the process may run on, and 1 where the
platform has no fork; outputs do not depend on it, and a STUBBORN_THREADS
value that is not a positive integer is a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
import typing
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from . import __version__, checks, density, dynamics
from .control import ClosedFormDomainError, optimal_stubbornness_row
from .model import (
    LagrangeParams,
    ModeFlags,
    ModelParams,
    ParameterError,
    PayoffParams,
    validate_params,
)
from .payoff import expected_payoffs


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
    lagrange: LagrangeParams = LagrangeParams()
    modes: ModeFlags = ModeFlags()
    numerics: Numerics = Numerics()

    def resolved_s_grid(self) -> GridSpec:
        if self.numerics.s_grid is not None:
            return self.numerics.s_grid
        return GridSpec(0.0, self.payoff.horizon, 3)


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
    if numerics.seed < 0:
        raise ConfigError("numerics.seed must be a nonnegative integer")
    if numerics.seed >= 2**64:  # the engine would key its noise by the seed modulo 2**64
        raise ConfigError(f"numerics.seed must be at most 2**64 - 1 = {2**64 - 1}")
    if numerics.x0 < 0.0:
        raise ConfigError("numerics.x0 must be nonnegative")
    if numerics.u_grid_n < 2:
        raise ConfigError("numerics.u_grid_n must be at least 2")
    for key, grid in (("x_grid", numerics.x_grid), ("s_grid", numerics.s_grid)):
        if grid is None:
            continue
        if not grid.min < grid.max:
            raise ConfigError(f"numerics.{key}.min must be below numerics.{key}.max")
        if grid.n < 2:
            raise ConfigError(f"numerics.{key}.n must be at least 2")
        if grid.min < 0.0:
            raise ConfigError(f"numerics.{key}.min must be nonnegative")
    if numerics.s_grid is not None and numerics.s_grid.max > horizon:
        raise ConfigError("numerics.s_grid.max must not exceed payoff.horizon")
    dens = numerics.density
    if dens.eps <= 0.0:
        raise ConfigError("numerics.density.eps must be positive")
    if dens.n_steps < 1:
        raise ConfigError("numerics.density.n_steps must be at least 1")
    if dens.snapshot_stride < 1:
        raise ConfigError("numerics.density.snapshot_stride must be at least 1")
    if not 0.0 <= dens.u <= 1.0:
        raise ConfigError("numerics.density.u must lie in [0, 1]")
    if dens.step not in ("schrodinger", "kernel"):
        raise ConfigError("numerics.density.step must be 'schrodinger' or 'kernel'")
    if dens.gradient_correction and dens.step != "kernel":
        raise ConfigError("numerics.density.gradient_correction requires step 'kernel'")


def _value(kind, value, where: str):
    """One JSON value as a field of type kind; where is its dotted config key.

    Nothing is cast silently: a JSON boolean is not a number, a number must
    be finite, and an int field takes only integral values (16.0 is 16).
    """
    if typing.get_args(kind):  # GridSpec | None: a grid, or null for none
        if value is None:
            return None
        (kind,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
    if dataclasses.is_dataclass(kind):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object")
        return _parse(kind, value, where)
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be true or false")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
        return value
    noun = "an integer" if kind is int else "a number"
    error = ConfigError(f"{where} must be {noun}, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error
    if isinstance(value, float) and not (
        math.isfinite(value) and (kind is float or value.is_integer())
    ):
        raise error
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise error from None


def _parse(cls, raw: dict, name: str):
    """An instance of the dataclass cls from the JSON object found at key name.

    An absent field takes its dataclass default and is required when it has
    none; a key that names no field is an error.
    """
    fields = {field.name: field for field in dataclasses.fields(cls)}
    prefix = f"{name}." if name else ""
    for key in raw:
        if key not in fields:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
    hints = typing.get_type_hints(cls)
    values = {}
    for key, field in fields.items():
        if key in raw:
            values[key] = _value(hints[key], raw[key], prefix + key)
        elif field.default is dataclasses.MISSING:
            raise ConfigError(f"{prefix}{key} required")
    try:
        return cls(**values)
    except ParameterError as exc:  # ModeFlags checks its names
        raise ConfigError(str(exc)) from exc


def parse_config(raw: dict) -> RunConfig:
    """Validated RunConfig from a parsed JSON document."""
    config = _parse(RunConfig, raw, "")
    validate_params(config.model, config.payoff, config.lagrange)
    _validate_numerics(config.numerics, config.payoff.horizon)
    return config


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


def _write_json(path: FsPath, obj: dict) -> float:
    started = time.perf_counter()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return time.perf_counter() - started


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips (reproducibility contract for CSV)."""
    return repr(float(value))


def _write_csv(path: FsPath, header: str, rows: Iterable[str | bytes]) -> float:
    """Write one line per row; return the seconds taken, lazy rows' formatting included.

    A row of bytes (UTF-8 text, as a forked paths.csv worker sends it) goes
    to the file's byte layer as it is, after the text written before it.
    """
    started = time.perf_counter()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                fh.flush()
                fh.buffer.write(row)
            fh.write("\n")
    return time.perf_counter() - started


def _engine_blocks(n_paths: int, n_controls: int, n_steps: int) -> dict[str, int]:
    """The manifest's block_paths and draw_steps: the paths of the engine's
    first block, and the steps of noise that block draws per call."""
    paths = min(n_paths, dynamics._block_paths(n_controls))
    return {"block_paths": paths, "draw_steps": 2 * dynamics._draw_pairs(paths, n_steps)}


# Paths per chunk of paths.csv lines; the chunks depend only on n_paths.
# Chunks of 500 paths took the time of chunks of 100 on the perfbench
# path_dump config (wall time 2% lower in the median, lower in only 4 of 10
# alternated pairs on 2 cores), but a worker and the command each hold a
# chunk's text at a time, and at 500 paths that raised peak RSS by 8%.
_CHUNK_PATHS = 100


def _path_block(first: int, states: np.ndarray, clamped: np.ndarray, steps: list[str]) -> str:
    """The newline-joined paths.csv lines of paths first, first + 1, ...
    (the rows of states and clamped): each from a Python float (repr is
    _fmt there) after its step's ",k,s," prefix in steps."""
    flags = (",0", ",1")
    return "\n".join([
        f"{pid}{step}{x!r}{flags[hit]}"
        for pid, xs, hits in zip(
            map(str, range(first, first + len(states))), states.tolist(), clamped.tolist()
        )
        for step, x, hit in zip(steps, xs, hits)
    ])


def cmd_simulate(config: RunConfig, out_dir: FsPath) -> tuple[dict[str, float], bool, dict]:
    num = config.numerics
    states, clamped = dynamics.simulate_batch(
        num.x0,
        0.0,
        config.model,
        num.dt,
        config.payoff.horizon,
        num.seed,
        num.n_paths,
    )
    # The ",k,s," prefixes are formatted once; the lines in chunks of
    # _CHUNK_PATHS paths, on forked worker processes when there are two or
    # more chunks and workers (repr holds the GIL, so threads would not
    # help).  The workers fork here, after simulate_batch has reaped its
    # own and before paths.csv is opened; they read states and clamped from
    # the shared memory they inherit and stream each chunk's bytes back
    # through a pipe, in path order.
    steps = [f",{k},{_fmt(k * num.dt)}," for k in range(states.shape[1])]
    size = _CHUNK_PATHS
    chunks = [(first, states[first:first + size], clamped[first:first + size], steps)
              for first in range(0, num.n_paths, size)]
    workers = min(dynamics._worker_count(), len(chunks))
    out = out_dir / "paths.csv"
    # no worker outlives the block, also when one fails or the writing does
    with dynamics._ordered_map(_path_block, chunks, workers) as blocks:
        written = {str(out): _write_csv(out, "path_id,step,s,x,clamped", blocks)}
    # the share of paths clamped at least once, as sweep's clamp_fraction
    clamp_fraction = float(np.count_nonzero(clamped.any(axis=1))) / clamped.shape[0]
    return written, True, {
        "clamp_fraction": clamp_fraction, **_engine_blocks(num.n_paths, 1, states.shape[1] - 1),
        "write_workers": workers, "write_chunk_paths": size,
    }


def cmd_sweep(config: RunConfig, out_dir: FsPath) -> tuple[dict[str, float], bool, dict]:
    num = config.numerics
    u_grid = np.linspace(0.0, 1.0, num.u_grid_n)
    estimates = expected_payoffs(
        num.x0,
        u_grid,
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
    written = {str(out): _write_csv(out, "u,J_mean,J_stderr,invalid_fraction", rows)}
    n_steps = dynamics.n_steps_for(config.payoff.horizon, num.dt)
    return written, True, {
        # one entry per sweep.csv row
        "clamp_fraction": [est.clamp_fraction for est in estimates],
        **_engine_blocks(num.n_paths, len(u_grid), n_steps),
    }


def cmd_optimize(config: RunConfig, out_dir: FsPath) -> tuple[dict[str, float], bool, dict]:
    num = config.numerics
    sg = config.resolved_s_grid()
    xg = num.x_grid
    xs = [float(x) for x in np.linspace(xg.min, xg.max, xg.n)]
    mode_cell = config.modes.describe()
    rows = []
    status_counts: dict[str, int] = {}
    ranked_cells = 0
    certificates = []  # of `ok` cells whose u_star is not clamped
    for s in np.linspace(sg.min, sg.max, sg.n):
        results, n_ranked = optimal_stubbornness_row(
            float(s),
            xs,
            config.model,
            config.payoff,
            config.lagrange,
            config.modes,
            dt=num.dt,
            n_paths=num.n_paths,
            seed=num.seed,
        )
        ranked_cells += n_ranked
        for x, res in zip(xs, results):
            if isinstance(res, ClosedFormDomainError):
                status = str(res)
                rows.append(f"{_fmt(s)},{_fmt(x)},,,,0,{mode_cell},{status}")
            else:
                status = res.reason
                if status == "ok" and res.u_star == res.u_unclamped:
                    certificates.append(res.certificate)
                rows.append(
                    f"{_fmt(s)},{_fmt(x)},{_fmt(res.u_star)},{_fmt(res.u_unclamped)},"
                    f"{_fmt(res.residual)},{len(res.u_candidates)},{mode_cell},{status}"
                )
            status_counts[status] = status_counts.get(status, 0) + 1
    out = out_dir / "optimize.csv"
    written = {str(out): _write_csv(
        out, "s,x,u_star,u_unclamped,residual,n_candidates,mode_flags,status", rows
    )}
    tol = num.tolerances.residual_rel
    return written, True, {
        "status_counts": status_counts,
        "ranked_cells": ranked_cells,
        "certificate_max": max(certificates, default=0.0),
        "certificate_failures": sum(c > tol for c in certificates),
    }


def cmd_density(config: RunConfig, out_dir: FsPath) -> tuple[dict[str, float], bool, dict]:
    num = config.numerics
    dens = num.density
    xg = num.x_grid
    if xg.min <= 0.0:
        raise ConfigError("density requires x_grid.min > 0 (f is singular at x = 0)")
    if xg.n < 4:
        raise ConfigError("density requires x_grid.n >= 4 (the density grid's minimum)")
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

    # looked up on the module when the command runs, so a wrapper installed
    # there (perfbench's tracer) sees every step
    step = density.schrodinger_step
    if dens.step == "kernel":
        step = functools.partial(density.kernel_step, gradient_correction=dens.gradient_correction)
    snapshot(grid)
    for step_idx in range(1, dens.n_steps + 1):
        grid = step(grid, dens.eps, fields, kernel_exponent_mode=config.modes.kernel_exponent_mode)
        if grid.warning is not None:
            warnings.append({"step": step_idx, "warning": grid.warning})
        if step_idx % dens.snapshot_stride == 0 or step_idx == dens.n_steps:
            snapshot(grid)
    out = out_dir / "density.csv"
    written = {str(out): _write_csv(out, "s,x,psi", rows)}
    return written, True, {"boundary_warnings": warnings}


def cmd_validate(config: RunConfig, out_dir: FsPath) -> tuple[dict[str, float], bool, dict]:
    num = config.numerics
    tol = num.tolerances
    report, suite_seconds = checks.run_all_checks(
        n_paths=num.n_paths,
        dt=num.dt,
        seed=num.seed,
        fd_rel=tol.fd_rel,
        residual_rel=tol.residual_rel,
        quad_rel=tol.quad_rel,
    )
    out = out_dir / "report.json"
    written = {str(out): _write_json(out, report)}
    for name, suite in sorted(report["suites"].items()):
        print(f"{'PASS' if suite['passed'] else 'FAIL'}: {name}")
    return written, bool(report["passed"]), {"suite_seconds": suite_seconds}


COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
    "density": cmd_density,
    "validate": cmd_validate,
}


def _write_manifest(
    out: FsPath,
    command: str | None,
    config: RunConfig | None,
    status: str,
    error: str | None,
    compute_s: float = 0.0,
    write_s: float = 0.0,
    files: list[str] | None = None,
    checks_passed: bool | None = None,
    diagnostics: dict | None = None,
) -> None:
    """Write out/manifest.json; config is None when it never parsed, and
    command is None when the command line named none.

    The two timings sum to duration_seconds exactly."""
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "config": None if config is None else dataclasses.asdict(config),
        "seed": None if config is None else config.numerics.seed,
        "duration_seconds": compute_s + write_s,
        "timings": {"compute_s": compute_s, "write_s": write_s},
        "diagnostics": diagnostics or {},
        "files": files or [],
        "checks_passed": checks_passed,
        "status": status,
        "error": error,
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", manifest)


def run_command(name: str, config: RunConfig, out_dir: str = ".") -> int:
    """Dispatch one command, writing outputs and a manifest under out_dir."""
    if name not in COMMANDS:
        raise ConfigError(f"unknown command '{name}'")
    out = FsPath(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out-dir names a file, or cannot be created
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    written: dict[str, float] = {}
    diagnostics: dict = {}  # no worker count when STUBBORN_THREADS is malformed
    status = "ok"
    checks_passed: bool | None = None
    error_text: str | None = None
    try:
        diagnostics["worker_count"] = dynamics._worker_count()
        written, ok, found = COMMANDS[name](config, out)
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
    write_s = sum(written.values())
    _write_manifest(
        out, name, config, status, error_text, time.perf_counter() - started - write_s,
        write_s, files=list(written), checks_passed=checks_passed, diagnostics=diagnostics,
    )
    if error_text:
        print(f"error: {error_text}", file=sys.stderr)
    return {"ok": 0, "config_error": 2}.get(status, 1)


def _flag_value(key: str, text: str, kind: type) -> int | float:
    """The command-line override of numerics.key, read from text as kind."""
    flag = "--" + key.replace("_", "-")
    try:
        value = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{flag} must be {noun}, got {text!r}") from None
    return _value(kind, value, flag)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that keeps the message of the usage error it exits on."""

    message = ""

    def error(self, message: str) -> typing.NoReturn:
        self.message = message
        super().error(message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="stubborn",
        description="Goal-dynamics SDE simulation, payoff evaluation, and optimal-stubbornness computation.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out-dir", default=".", help="directory for emitted files")
    # the overrides are read as text and converted below, so a malformed
    # one is a config error with a manifest, as in the config file
    parser.add_argument("--seed", help="override numerics.seed")
    parser.add_argument("--dt", help="override numerics.dt")
    parser.add_argument("--n-paths", help="override numerics.n_paths")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):  # --help
            return 0
        # argparse has printed its message; the manifest goes into the
        # --out-dir the command line names, else ".", and names the command
        # when the first positional argument does.  Every flag takes an
        # optional value here, so this reading cannot fail.
        probe = argparse.ArgumentParser(add_help=False)
        probe.add_argument("command", nargs="?")
        for flag in ("--config", "--out-dir", "--seed", "--dt", "--n-paths"):
            probe.add_argument(flag, nargs="?")
        args = probe.parse_known_args(argv)[0]
        error = parser.message
    else:
        try:
            config = load_config(args.config)
            overrides = {"seed": (args.seed, int), "dt": (args.dt, float), "n_paths": (args.n_paths, int)}
            num = dataclasses.replace(config.numerics, **{
                key: _flag_value(key, text, kind)
                for key, (text, kind) in overrides.items() if text is not None
            })
            _validate_numerics(num, config.payoff.horizon)
            return run_command(args.command, dataclasses.replace(config, numerics=num), args.out_dir)
        except (ConfigError, ParameterError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            error = str(exc)
    # a manifest is emitted even when the command line or config never parsed
    command = args.command if args.command in COMMANDS else None
    try:
        _write_manifest(FsPath(args.out_dir or "."), command, None, "config_error", error)
    except OSError:
        pass
    return 2


if __name__ == "__main__":
    sys.exit(main())
