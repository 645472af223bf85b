import ast
import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import typing
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import stubborn
from stubborn import checks, cli, control, density, dynamics
from stubborn.cli import ConfigError, _fmt, load_config, main, parse_config, run_command
from stubborn.model import ModelParams
from stubborn.payoff import expected_payoff
from test_dynamics import ForkSpy

MINIMAL = {
    "model": {"a": 1.0, "sigma1": 0.3, "sigma2": 0.1},
    "payoff": {
        "theta": 1.0, "alpha1": 0.1, "alpha2": 0.1, "alpha3": 0.1,
        "c": 1.0, "r": 0.5, "mu_bar": 0.0, "omega": 1.0, "horizon": 1.0,
    },
}


def readme_config():
    """The full JSON config printed in the README's CLI section."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


# keys that may be left out of a config, as paths into the README config
OPTIONAL_KEYS = [
    ("lagrange",), ("lagrange", "l0"), ("lagrange", "l1"),
    ("modes",), ("modes", "derivative_mode"), ("modes", "nash_mode"),
    ("modes", "kernel_exponent_mode"), ("modes", "closed_form_mode"),
    ("numerics",), ("numerics", "dt"), ("numerics", "n_paths"), ("numerics", "seed"),
    ("numerics", "x0"), ("numerics", "u_grid_n"), ("numerics", "x_grid"), ("numerics", "s_grid"),
    ("numerics", "tolerances"), ("numerics", "tolerances", "fd_rel"),
    ("numerics", "tolerances", "residual_rel"), ("numerics", "tolerances", "quad_rel"),
    ("numerics", "density"), ("numerics", "density", "eps"), ("numerics", "density", "n_steps"),
    ("numerics", "density", "snapshot_stride"), ("numerics", "density", "u"),
    ("numerics", "density", "step"),
]


# the perfbench feedback_grid scenario's optimize: 3 x 1025 cells, and two
# ranking passes on 200 paths
FEEDBACK_GRID = {
    "model": {"a": 2.0, "sigma1": 0.5, "sigma2": 0.5},
    "payoff": dict(MINIMAL["payoff"], c=2.5),
    "lagrange": {"l0": 0.4, "l1": 0.0},
    "modes": {"derivative_mode": "paper", "nash_mode": "paper"},
    "numerics": {
        "dt": 0.01, "n_paths": 200, "seed": 1009,
        "x_grid": {"min": 0.2, "max": 3.0, "n": 1025},
        "s_grid": {"min": 0.0, "max": 1.0, "n": 3},
    },
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def small_numerics(**overrides):
    base = {
        "dt": 0.05,
        "n_paths": 16,
        "seed": 3,
        "u_grid_n": 11,
        "x_grid": {"min": 0.2, "max": 2.0, "n": 7},
    }
    base.update(overrides)
    return base


def test_minimal_config_gets_documented_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    assert cfg.lagrange.l0 == 0.0 and cfg.lagrange.l1 == 0.0
    assert cfg.modes.derivative_mode == "paper"
    assert cfg.modes.nash_mode == "paper"
    assert cfg.modes.kernel_exponent_mode == "rederived"
    assert cfg.modes.closed_form_mode == "rederived"
    assert cfg.numerics.dt == 0.01
    assert cfg.numerics.tolerances.fd_rel == 1e-5
    # the README spells out every default, and s_grid as the resolved one
    resolved = dataclasses.replace(cfg.numerics, s_grid=cfg.resolved_s_grid())
    assert parse_config(readme_config()) == dataclasses.replace(cfg, numerics=resolved)


@settings(max_examples=30, deadline=None)
@given(
    section=st.sampled_from([
        (), ("model",), ("payoff",), ("lagrange",), ("modes",), ("numerics",),
        ("numerics", "x_grid"), ("numerics", "s_grid"),
        ("numerics", "tolerances"), ("numerics", "density"),
    ]),
    key=st.text(min_size=1, max_size=12),
)
def test_unknown_key_is_named(section, key):
    doc = readme_config()
    target = reduce(lambda d, k: d[k], section, doc)
    assume(key not in target)
    target[key] = 1.0
    dotted = ".".join(section + (key,))
    with pytest.raises(ConfigError, match=re.escape(f"unknown config key '{dotted}'")):
        parse_config(doc)


@settings(max_examples=30, deadline=None)
@given(dropped=st.sets(st.sampled_from(OPTIONAL_KEYS)))
def test_dropped_keys_take_dataclass_defaults(dropped):
    doc = readme_config()
    for path in dropped:
        parent = reduce(lambda d, k: d.get(k, {}), path[:-1], doc)
        parent.pop(path[-1], None)
    cfg = parse_config(doc)
    full = parse_config(readme_config())
    defaults = parse_config(MINIMAL)
    leaves = [p for p in OPTIONAL_KEYS if not any(q[:len(p)] == p != q for q in OPTIONAL_KEYS)]
    for path in leaves:
        gone = any(path[:n] in dropped for n in range(1, len(path) + 1))
        expected = reduce(getattr, path, defaults if gone else full)
        assert reduce(getattr, path, cfg) == expected, path


def test_missing_required_field(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    del doc["payoff"]["c"]
    with pytest.raises(ConfigError, match=r"payoff\.c required"):
        load_config(write_config(tmp_path, doc))


def test_invalid_params_surface_verbatim(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["payoff"]["r"] = 0.1
    doc["payoff"]["mu_bar"] = 0.2
    with pytest.raises(Exception, match="r must exceed mu_bar"):
        load_config(write_config(tmp_path, doc))


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "model": [,]\n}')
    with pytest.raises(ConfigError, match=r"line 2 column \d+"):
        load_config(str(path))


def test_unknown_mode_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["modes"] = {"derivative_mode": "exact"}
    with pytest.raises(ConfigError, match="derivative_mode"):
        parse_config(doc)


def test_simulate_row_count_and_manifest(tmp_path):
    doc = dict(MINIMAL, numerics=small_numerics())
    code = main(["simulate", "--config", write_config(tmp_path, doc),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "paths.csv").read_text().strip().split("\n")
    assert lines[0] == "path_id,step,s,x,clamped"
    assert len(lines) == 1 + 16 * 21  # n_paths * (n_steps + 1)
    # every x round-trips to the simulated state bit for bit
    states, clamped = dynamics.simulate_batch(
        1.0, 0.0, ModelParams(**MINIMAL["model"]), 0.05, 1.0, 3, 16
    )
    rows = [ln.split(",") for ln in lines[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows[:2]] == [(0, 0), (0, 1)]
    assert np.array_equal([float(r[3]) for r in rows], states.ravel())
    assert np.array_equal([r[4] == "1" for r in rows], clamped.ravel())
    assert {r[4] for r in rows} <= {"0", "1"}
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["files"] == [str(tmp_path / "out" / "paths.csv")]
    assert manifest["seed"] == 3


def _paths_csv_by_row_formula(n_paths, dt, x0, seed):
    """The paths.csv bytes of a MINIMAL run, formatted one row at a time from
    numpy scalars (shortest round-trip repr)."""
    states, clamped = dynamics.simulate_batch(
        x0, 0.0, ModelParams(**MINIMAL["model"]), dt, 1.0, seed, n_paths
    )
    rows = [
        f"{pid},{k},{float(k * dt)!r},{float(states[pid, k])!r},{1 if clamped[pid, k] else 0}\n"
        for pid in range(states.shape[0])
        for k in range(states.shape[1])
    ]
    return ("path_id,step,s,x,clamped\n" + "".join(rows)).encode()


@settings(max_examples=30, deadline=None)
@given(
    n_paths=st.integers(1, 40),
    dt=st.sampled_from([0.05, 0.1, 0.2, 0.25]),
    # 1e-5 prints in exponent form; 0.05 reaches the clamp
    x0=st.sampled_from([0.0, 1e-5, 0.05, 1.0, 3.0]),
    threads=st.sampled_from(["1", "2", "3"]),
    # paths per chunk: small chunks put uneven chunks on the worker processes
    chunk=st.integers(1, 7),
    seed=st.integers(0, 2**31),
)
def test_paths_csv_matches_row_formula(n_paths, dt, x0, threads, chunk, seed):
    # paths.csv is formatted a chunk of paths at a time, on worker processes
    # when there are two or more chunks and threads; the bytes must agree
    # with the row formula
    doc = dict(MINIMAL, numerics=small_numerics(n_paths=n_paths, dt=dt, x0=x0, seed=seed))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setenv("STUBBORN_THREADS", threads)
        mp.setattr(cli, "_BLOCK_PATHS", chunk)
        out = Path(tmp) / "out"
        assert main(["simulate", "--config", write_config(Path(tmp), doc),
                     "--out-dir", str(out)]) == 0
        written = (out / "paths.csv").read_bytes()
    assert written == _paths_csv_by_row_formula(n_paths, dt, x0, seed)


_PATH_BLOCK, _WRITE_CSV = cli._path_block, cli._write_csv


def _block_failing_at_path_3(first, states, clamped, steps):
    """cli._path_block, but raising for the chunk that starts at path 3."""
    if first == 3:
        raise RuntimeError("planted failure in the chunk at path 3")
    return _PATH_BLOCK(first, states, clamped, steps)


def _write_csv_failing_after_one_block(path, header, rows):
    """cli._write_csv, but failing as a full disk would once it has written
    the first row (for paths.csv, the first chunk)."""
    def first_then_fail():
        yield next(iter(rows))
        raise OSError("planted failure after one block")

    return _WRITE_CSV(path, header, first_then_fail())


def _block_late_at_path_0(first, states, clamped, steps):
    """cli._path_block, but finishing the chunk at path 0 about 0.2 s late."""
    if first == 0:
        time.sleep(0.2)
    return _PATH_BLOCK(first, states, clamped, steps)


@pytest.mark.parametrize("target, planted, message", [
    # fork workers inherit the patched module, so one chunk's worker raises
    ("_path_block", _block_failing_at_path_3, "planted failure in the chunk at path 3"),
    # the command's own process raises while the workers still hold chunks
    ("_write_csv", _write_csv_failing_after_one_block, "planted failure after one block"),
], ids=["worker", "writer"])
def test_worker_error_fails_simulate_and_leaves_no_worker(
    tmp_path, monkeypatch, target, planted, message
):
    monkeypatch.setenv("STUBBORN_THREADS", "2")
    monkeypatch.setattr(cli, "_BLOCK_PATHS", 3)  # 16 paths in 6 chunks, on 2 workers
    cfg_path = write_config(tmp_path, dict(MINIMAL, numerics=small_numerics()))
    assert main(["simulate", "--config", cfg_path, "--out-dir", str(tmp_path / "ok")]) == 0
    ok = json.loads((tmp_path / "ok" / "manifest.json").read_text())
    assert ok["diagnostics"]["write_workers"] == 2
    with pytest.raises(ChildProcessError):  # no child left to reap
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(cli, target, planted)
    assert main(["simulate", "--config", cfg_path, "--out-dir", str(tmp_path / "bad")]) == 1
    bad = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert bad["status"] == "error"
    assert bad["files"] == []
    assert message in bad["error"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_writer_error_stops_workers_blocked_on_full_pipes(tmp_path):
    # 100-path chunks at dt 0.01 hold about 330 KB of text each, beyond a
    # pipe's 64 KB buffer, so when the command's writing fails after one
    # chunk both workers are blocked writing theirs: the command must still
    # exit 1, and stop and reap them
    src = str(Path(stubborn.__file__).resolve().parent.parent)
    cfg_path = write_config(tmp_path, dict(MINIMAL, numerics=small_numerics(n_paths=1000, dt=0.01)))
    argv = ["simulate", "--config", cfg_path, "--out-dir", str(tmp_path / "bad")]
    script = (
        "import os\n"
        "from stubborn import cli\n"
        "write_csv = cli._write_csv\n"
        "def first_then_fail(rows):\n"
        "    yield next(iter(rows))\n"
        "    raise OSError('planted failure after one block')\n"
        "cli._write_csv = lambda path, header, rows: write_csv(path, header, first_then_fail(rows))\n"
        f"code = cli.main({argv!r})\n"
        "try:\n"
        "    print(code, os.waitpid(-1, os.WNOHANG))\n"
        "except ChildProcessError:\n"
        "    print(code, 'no child')\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src, "STUBBORN_THREADS": "2"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the command and the workers it left
        proc.communicate()
        raise
    assert stdout.split() == ["1", "no", "child"]
    # a worker that finds its pipe closed leaves without a traceback
    assert stderr == "error: OSError: planted failure after one block\n"
    bad = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert (bad["status"], bad["files"]) == ("error", [])


def test_engine_worker_error_fails_sweep_and_leaves_no_child(tmp_path, monkeypatch):
    # 40 paths of 3 controls in blocks of 10 on 2 workers: the forked child
    # runs the blocks at 10 and 30, and inherits the patched engine
    monkeypatch.setenv("STUBBORN_THREADS", "2")
    monkeypatch.setattr(dynamics, "_BLOCK_PATHS", 10)
    config = load_config(write_config(tmp_path, dict(MINIMAL, numerics=small_numerics(
        n_paths=40, u_grid_n=3))))
    assert run_command("sweep", config, str(tmp_path / "ok")) == 0
    em_steps = dynamics._em_steps

    def failing_at_path_30(*args, **kwargs):
        if args[6] == 30:  # first_path
            raise ValueError("planted failure in the block at path 30")
        return em_steps(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_em_steps", failing_at_path_30)
    assert run_command("sweep", config, str(tmp_path / "bad")) == 1
    bad = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert bad["status"] == "error"
    assert bad["files"] == []
    assert bad["error"] == "RuntimeError: 1 of 1 engine worker processes failed"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_simulate_without_fork_runs_inline(tmp_path, monkeypatch):
    # where the platform has no os.fork the worker count is 1, so the engine
    # and the paths.csv writer both run in the command's own process
    monkeypatch.setenv("STUBBORN_THREADS", "2")
    monkeypatch.setattr(cli, "_BLOCK_PATHS", 3)  # 16 paths in 6 chunks
    cfg_path = write_config(tmp_path, dict(MINIMAL, numerics=small_numerics()))
    assert main(["simulate", "--config", cfg_path, "--out-dir", str(tmp_path / "forked")]) == 0
    monkeypatch.delattr(os, "fork")
    assert main(["simulate", "--config", cfg_path, "--out-dir", str(tmp_path / "inline")]) == 0
    forked, inline = (json.loads((tmp_path / run / "manifest.json").read_text())["diagnostics"]
                      for run in ("forked", "inline"))
    assert (forked["worker_count"], forked["write_workers"]) == (2, 2)
    assert (inline["worker_count"], inline["write_workers"]) == (1, 1)
    assert (tmp_path / "inline" / "paths.csv").read_bytes() == \
        (tmp_path / "forked" / "paths.csv").read_bytes()
    # STUBBORN_THREADS is still checked there
    monkeypatch.setenv("STUBBORN_THREADS", "two")
    assert main(["simulate", "--config", cfg_path, "--out-dir", str(tmp_path / "bad")]) == 2


def test_optimize_ranking_blocks_with_more_rows_than_paths_fork(tmp_path, monkeypatch):
    # feedback_grid ranks 206 and 278 candidate rows on 200 paths, in two
    # blocks each (of 159 and 117 paths): each pass forks one child on 2 or
    # more workers, and optimize.csv does not depend on the worker count
    rows = []
    ranked = control.expected_payoffs

    def spy(x0, controls, *args):
        rows.append(len(controls))
        return ranked(x0, controls, *args)

    monkeypatch.setattr(control, "expected_payoffs", spy)
    cfg_path = write_config(tmp_path, FEEDBACK_GRID)
    written = {}
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("STUBBORN_THREADS", threads)
        forks = ForkSpy()
        monkeypatch.setattr(os, "fork", forks)
        out = tmp_path / threads
        assert main(["optimize", "--config", cfg_path, "--out-dir", str(out)]) == 0
        assert forks.count == (0 if threads == "1" else 2), threads
        written[threads] = (out / "optimize.csv").read_bytes()
    assert rows == [206, 278] * 3
    assert [dynamics._block_paths(n) for n in rows[:2]] == [159, 117]
    assert written["1"] == written["2"] == written["3"]
    with pytest.raises(ChildProcessError):  # no child left to reap
        os.waitpid(-1, os.WNOHANG)


def test_forked_commands_leak_no_resource(tmp_path):
    # in development mode with ResourceWarning an error, a leaked pipe or
    # mmap prints to stderr; simulate formats its 3 and 10 chunks on 2
    # processes, and sweep and optimize fork engine workers
    src = str(Path(stubborn.__file__).resolve().parent.parent)
    runs = {
        "simulate": ("simulate", dict(MINIMAL, numerics=small_numerics(n_paths=300))),
        # 100-path chunks of about 330 KB: each fills its worker's pipe
        "simulate-wide": ("simulate", dict(MINIMAL, numerics=small_numerics(n_paths=1000, dt=0.01))),
        "sweep": ("sweep", dict(MINIMAL, numerics=small_numerics(n_paths=2000, u_grid_n=21))),
        "optimize": ("optimize", FEEDBACK_GRID),
    }
    for name, (command, doc) in runs.items():
        run = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "stubborn",
             command, "--config", write_config(tmp_path, doc, f"{name}.json"),
             "--out-dir", str(tmp_path / name)],
            env={**os.environ, "PYTHONPATH": src, "STUBBORN_THREADS": "2"},
            capture_output=True, text=True,
        )
        assert (run.returncode, run.stderr) == (0, ""), name
    diagnostics = {name: json.loads((tmp_path / name / "manifest.json").read_text())["diagnostics"]
                   for name in runs}
    assert diagnostics["simulate"]["write_workers"] == diagnostics["simulate-wide"]["write_workers"] == 2
    assert diagnostics["sweep"]["block_paths"] == 1560  # 2000 paths in two blocks


def test_paths_csv_keeps_path_order_when_chunks_finish_out_of_order(tmp_path, monkeypatch):
    # the chunk at path 0 finishes last of 6, on 2 workers; the rows must
    # still come in path order
    monkeypatch.setenv("STUBBORN_THREADS", "2")
    monkeypatch.setattr(cli, "_BLOCK_PATHS", 3)
    monkeypatch.setattr(cli, "_path_block", _block_late_at_path_0)
    cfg_path = write_config(tmp_path, dict(MINIMAL, numerics=small_numerics(seed=7)))
    assert main(["simulate", "--config", cfg_path, "--out-dir", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["diagnostics"]["write_workers"] == 2
    assert (tmp_path / "out" / "paths.csv").read_bytes() == \
        _paths_csv_by_row_formula(16, 0.05, 1.0, 7)


def test_sweep_row_contract(tmp_path):
    doc = dict(MINIMAL, numerics=small_numerics())
    code = main(["sweep", "--config", write_config(tmp_path, doc),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "u,J_mean,J_stderr,invalid_fraction"
    assert len(lines) == 1 + 11
    first = lines[1].split(",")
    assert float(first[0]) == 0.0


def test_sweep_matches_per_u_payoff_loop(tmp_path, monkeypatch):
    # 21 u values take 3120-path blocks, so 3500 paths span two of them
    monkeypatch.setenv("STUBBORN_THREADS", "2")
    doc = dict(MINIMAL, numerics=small_numerics(n_paths=3500, u_grid_n=21, x0=0.3))
    code = main(["sweep", "--config", write_config(tmp_path, doc),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    config = load_config(write_config(tmp_path, doc))
    num = config.numerics
    rows, clamp_fractions = ["u,J_mean,J_stderr,invalid_fraction"], []
    for u in np.linspace(0.0, 1.0, num.u_grid_n):
        est = expected_payoff(num.x0, float(u), config.model,
                              config.payoff, num.dt, num.n_paths, num.seed)
        rows.append(
            f"{_fmt(u)},{_fmt(est.mean)},{_fmt(est.std_error)},{_fmt(est.invalid_fraction)}"
        )
        clamp_fractions.append(est.clamp_fraction)
    assert (tmp_path / "out" / "sweep.csv").read_text() == "\n".join(rows) + "\n"
    assert any(clamp_fractions), "the grid should reach the clamp"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["diagnostics"]["clamp_fraction"] == clamp_fractions


def test_manifest_diagnostics(tmp_path, monkeypatch):
    monkeypatch.setenv("STUBBORN_THREADS", "3")
    doc = dict(
        MINIMAL,
        numerics=small_numerics(
            x_grid={"min": 0.2, "max": 3.0, "n": 33},
            density={"eps": 0.01, "n_steps": 4, "snapshot_stride": 2, "u": 0.2},
        ),
    )
    cfg_path = write_config(tmp_path, doc)
    for command in ("simulate", "sweep", "optimize", "density", "validate"):
        out = tmp_path / command
        assert main([command, "--config", cfg_path, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["worker_count"] == 3, command
        # writing the output files, and the rest of the command
        timings = manifest["timings"]
        assert sorted(timings) == ["compute_s", "write_s"], command
        assert min(timings.values()) >= 0.0, command
        assert timings["compute_s"] + timings["write_s"] <= manifest["duration_seconds"]
    # the share of simulated paths that hit the clamp at least once
    sim = json.loads((tmp_path / "simulate" / "manifest.json").read_text())["diagnostics"]
    assert sim["clamp_fraction"] == 0.0
    low_doc = dict(MINIMAL, numerics=small_numerics(x0=0.05))
    assert main(["simulate", "--config", write_config(tmp_path, low_doc, "low.json"),
                 "--out-dir", str(tmp_path / "low")]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "low" / "paths.csv").read_text().strip().split("\n")[1:]]
    hit = {row[0] for row in rows if row[4] == "1"}
    low = json.loads((tmp_path / "low" / "manifest.json").read_text())["diagnostics"]
    assert low["clamp_fraction"] == len(hit) / 16 == 0.5
    sweep = json.loads((tmp_path / "sweep" / "manifest.json").read_text())["diagnostics"]
    assert len(sweep["clamp_fraction"]) == 11
    assert all(0.0 <= f <= 1.0 for f in sweep["clamp_fraction"])
    # the block that ran: all 16 paths in one block, which draws all of its
    # 20 steps of noise in one call (32768 // 16 steps would fit)
    assert sim["block_paths"] == low["block_paths"] == sweep["block_paths"] == 16
    assert sim["draw_steps"] == low["draw_steps"] == sweep["draw_steps"] == 20
    # paths.csv: one chunk of 16 paths is formatted inline; 4-path chunks on
    # 3 worker processes, as STUBBORN_THREADS allows
    assert sim["write_workers"] == low["write_workers"] == 1
    assert sim["write_chunk_paths"] == low["write_chunk_paths"] == 100
    monkeypatch.setattr(cli, "_BLOCK_PATHS", 4)
    assert main(["simulate", "--config", cfg_path, "--out-dir", str(tmp_path / "chunked")]) == 0
    chunked = json.loads((tmp_path / "chunked" / "manifest.json").read_text())["diagnostics"]
    assert chunked["write_workers"] == 3
    assert chunked["write_chunk_paths"] == 4
    assert (tmp_path / "chunked" / "paths.csv").read_bytes() == \
        (tmp_path / "simulate" / "paths.csv").read_bytes()
    wide_doc = dict(MINIMAL, numerics=small_numerics(dt=0.25, n_paths=32768, u_grid_n=21))
    assert main(["sweep", "--config", write_config(tmp_path, wide_doc, "wide.json"),
                 "--out-dir", str(tmp_path / "wide")]) == 0
    wide = json.loads((tmp_path / "wide" / "manifest.json").read_text())["diagnostics"]
    # 32768 // 21 pairs per block for the mc_sweep shape of 21 controls at
    # 32768 paths; 21 steps of noise would fit in a call, but there are 4
    assert wide["block_paths"] == 1560
    assert wide["draw_steps"] == 4
    # one count per status string, over every optimize.csv row
    opt = json.loads((tmp_path / "optimize" / "manifest.json").read_text())["diagnostics"]
    statuses = [row.rsplit(",", 1)[1] for row in
                (tmp_path / "optimize" / "optimize.csv").read_text().strip().split("\n")[1:]]
    assert opt["status_counts"] == {s: statuses.count(s) for s in set(statuses)}
    assert opt["ranked_cells"] == 0  # no cell here has two candidates
    # the feedback-grid scenario: 3 x 1025 cells, 103 + 139 of them ranked
    assert main(["optimize", "--config", write_config(tmp_path, FEEDBACK_GRID, "grid.json"),
                 "--out-dir", str(tmp_path / "grid")]) == 0
    grid = json.loads((tmp_path / "grid" / "manifest.json").read_text())["diagnostics"]
    assert grid["status_counts"] == {"ok": 1912, "trivial root only": 1163}
    assert grid["ranked_cells"] == 242
    # the closed form is a root of the condition it reports only at s = 0
    # and l0 = 0: with l0 = 0.4 every unclamped `ok` cell fails the certificate
    assert grid["certificate_failures"] == 1912
    assert 0.99 < grid["certificate_max"] < 1.0
    # the README config: 187 unclamped `ok` cells, worst certificate
    # 5.9e-16 at s = 0, 0.63 at s = 0.5 and 0.90 at s = 1
    assert main(["optimize", "--config", write_config(tmp_path, readme_config(), "readme.json"),
                 "--out-dir", str(tmp_path / "readme")]) == 0
    readme = json.loads((tmp_path / "readme" / "manifest.json").read_text())["diagnostics"]
    assert readme["status_counts"] == {"ok": 195}
    assert readme["certificate_failures"] == 130
    assert readme["certificate_max"] == pytest.approx(0.9037, abs=1e-4)
    # the initial bump sits four widths from the grid edges: every step warns
    dens = json.loads((tmp_path / "density" / "manifest.json").read_text())["diagnostics"]
    assert [w["step"] for w in dens["boundary_warnings"]] == [1, 2, 3, 4]
    assert all("boundary mass fraction" in w["warning"] for w in dens["boundary_warnings"])
    assert main(["sweep", "--config", str(tmp_path / "missing.json"),
                 "--out-dir", str(tmp_path / "bad")]) == 2
    bad = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert bad["diagnostics"] == {}  # the worker count is resolved only once the config parses
    assert bad["timings"] == {"compute_s": 0.0, "write_s": 0.0}


def test_manifest_reports_the_engine_block_that_ran(tmp_path, monkeypatch):
    # block_paths and draw_steps are the paths of the first block and the
    # steps of its first noise draw, as the engine drew them
    calls = []
    draws = dynamics._step_draws

    def spy(keys, first_step, n_steps, *work):
        calls.append((len(keys), n_steps))
        return draws(keys, first_step, n_steps, *work)

    monkeypatch.setattr(dynamics, "_step_draws", spy)
    monkeypatch.setenv("STUBBORN_THREADS", "1")  # every draw in this process
    readme = write_config(tmp_path, readme_config(), "readme.json")
    split = write_config(tmp_path, dict(MINIMAL, numerics=small_numerics(
        n_paths=3500, u_grid_n=21)), "split.json")
    # the README config: one 1000-path block of 100 steps, 32 steps per call
    # (and 21 controls in sweep); 3500 paths of 21 controls in 1560-path
    # blocks of 20 steps, drawn in one call each
    runs = [("simulate", readme, (1000, 32)), ("sweep", readme, (1000, 32)),
            ("sweep", split, (1560, 20))]
    for i, (command, cfg_path, shape) in enumerate(runs):
        calls.clear()
        out = tmp_path / str(i)
        assert main([command, "--config", cfg_path, "--out-dir", str(out)]) == 0
        diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert calls[0] == shape == (diagnostics["block_paths"], diagnostics["draw_steps"]), command


def test_optimize_evaluates_each_row_in_two_partials_calls(tmp_path, monkeypatch):
    # two array `_partials` calls per s row over all 65 in-domain cells of
    # the README config: one at u = 0 for the closed-form coefficients, one
    # at each cell's u_star for the residual column
    calls = []
    partials = control._partials

    def spy(s, x, u, *args):
        calls.append((s, np.shape(x), np.shape(u)))
        return partials(s, x, u, *args)

    monkeypatch.setattr(control, "_partials", spy)
    assert main(["optimize", "--config", write_config(tmp_path, readme_config()),
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert calls == [call for s in (0.0, 0.5, 1.0) for call in ((s, (65,), ()), (s, (65,), (65,)))]


def test_optimize_domain_cells(tmp_path):
    doc = dict(
        MINIMAL,
        numerics=small_numerics(
            x_grid={"min": 0.0, "max": 1.0, "n": 3},
            s_grid={"min": 0.0, "max": 0.5, "n": 2},
        ),
    )
    code = main(["optimize", "--config", write_config(tmp_path, doc),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "optimize.csv").read_text().strip().split("\n")
    header = "s,x,u_star,u_unclamped,residual,n_candidates,mode_flags,status"
    assert lines[0] == header
    assert len(lines) == 1 + 2 * 3
    below = [ln for ln in lines[1:] if ln.endswith("state below closed-form domain")]
    assert len(below) == 2  # the x = 0 column at both s values
    ok_rows = [ln for ln in lines[1:] if ln.endswith(",ok")]
    assert ok_rows, "interior cells should resolve"


def test_optimize_ranks_with_configured_n_paths(tmp_path, monkeypatch):
    # these cells have two nonnegative candidates, so both get ranked
    doc = {
        "model": {"a": 2.0, "sigma1": 0.5, "sigma2": 0.5},
        "payoff": dict(MINIMAL["payoff"], c=2.5),
        "lagrange": {"l0": 0.4, "l1": 0.0},
        "numerics": small_numerics(
            dt=0.01, n_paths=37,
            x_grid={"min": 0.2, "max": 0.3, "n": 2}, s_grid={"min": 0.0, "max": 0.5, "n": 2},
        ),
    }
    config = parse_config(json.loads(json.dumps(doc)))
    cells = [(s, x) for s in (0.0, 0.5) for x in (0.2, 0.3)]
    candidates = {
        cell: control.optimal_stubbornness(
            stubborn.State(*cell), config.model, config.payoff, config.lagrange,
            config.modes, dt=0.01, n_paths=37,
        ).u_candidates
        for cell in cells
    }
    calls = []
    ranked = control.expected_payoffs

    def spy(x0, controls, model, payoff, dt, n_paths, seed):
        calls.append((list(x0), list(controls), payoff.horizon, n_paths))
        return ranked(x0, controls, model, payoff, dt, n_paths, seed)

    monkeypatch.setattr(control, "expected_payoffs", spy)
    code = main(["optimize", "--config", write_config(tmp_path, doc),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    rows = [line.split(",") for line in
            (tmp_path / "out" / "optimize.csv").read_text().strip().split("\n")[1:]]
    assert [(float(row[0]), float(row[1])) for row in rows] == cells
    assert all(row[5] == "2" for row in rows)
    # one call per s, carrying the candidates of both cells, each from its own x
    want = []
    for s in (0.0, 0.5):
        row_cells = [cell for cell in cells if cell[0] == s]
        want.append((
            [x for _s, x in row_cells for _u in candidates[(s, x)]],
            [u for cell in row_cells for u in sorted(candidates[cell])],
            pytest.approx(1.0 - s),
            37,
        ))
    assert calls == want
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["diagnostics"]["ranked_cells"] == 4


def test_density_snapshots(tmp_path):
    doc = dict(
        MINIMAL,
        numerics=small_numerics(
            x_grid={"min": 0.2, "max": 3.0, "n": 33},
            density={"eps": 0.01, "n_steps": 4, "snapshot_stride": 2, "u": 0.2},
        ),
    )
    code = main(["density", "--config", write_config(tmp_path, doc),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "density.csv").read_text().strip().split("\n")
    assert lines[0] == "s,x,psi"
    assert len(lines) == 1 + 3 * 33  # snapshots at s = 0, 0.02, 0.04


def test_density_kernel_step_with_gradient(tmp_path):
    doc = dict(
        MINIMAL,
        numerics=small_numerics(
            x_grid={"min": 0.2, "max": 3.0, "n": 33},
            density={
                "eps": 0.01, "n_steps": 4, "snapshot_stride": 4,
                "u": 0.2, "step": "kernel", "gradient_correction": True,
            },
        ),
    )
    code = main(["density", "--config", write_config(tmp_path, doc),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "density.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 33  # snapshots at s = 0 and s = 0.04
    psi = [float(ln.split(",")[2]) for ln in lines[1 + 33:]]
    assert all(v >= 0.0 for v in psi)
    assert sum(psi) > 0.0


def _density_csv_by_direct_loop(config):
    """density.csv from the density module's own updates, called one by one
    from the command's start grid with the config's options."""
    num, dens = config.numerics, config.numerics.density
    xg, mode = num.x_grid, config.modes.kernel_exponent_mode
    grid = density.gaussian_density_grid(
        np.linspace(xg.min, xg.max, xg.n),
        center=0.5 * (xg.min + xg.max), width=(xg.max - xg.min) / 8.0,
    )
    fields = density.model_fields(dens.u, config.model, config.payoff, config.lagrange,
                                  config.modes)
    lines = ["s,x,psi"]
    for k in range(dens.n_steps + 1):
        if k and dens.step == "kernel":
            grid = density.kernel_step(grid, dens.eps, fields, kernel_exponent_mode=mode,
                                       gradient_correction=dens.gradient_correction)
        elif k:
            grid = density.schrodinger_step(grid, dens.eps, fields, kernel_exponent_mode=mode)
        if k % dens.snapshot_stride == 0 or k == dens.n_steps:
            lines += [f"{_fmt(grid.s)},{_fmt(x)},{_fmt(p)}" for x, p in zip(grid.x_grid, grid.psi)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("exponent_mode", ["rederived", "paper"])
def test_density_options_reach_the_update(tmp_path, exponent_mode):
    # each of step, gradient_correction and kernel_exponent_mode reaches the
    # update: the bytes equal a direct loop of the update with those options
    written = {}
    for step, correction in (("kernel", True), ("kernel", False), ("schrodinger", False)):
        doc = dict(MINIMAL, modes={"kernel_exponent_mode": exponent_mode}, numerics=small_numerics(
            x_grid={"min": 0.2, "max": 3.0, "n": 33},
            density={"eps": 0.01, "n_steps": 4, "snapshot_stride": 2, "u": 0.2,
                     "step": step, "gradient_correction": correction},
        ))
        out = tmp_path / f"{step}{correction}"
        config = write_config(tmp_path, doc, f"{step}{correction}.json")
        assert main(["density", "--config", config, "--out-dir", str(out)]) == 0
        written[step, correction] = (out / "density.csv").read_text()
        assert written[step, correction] == _density_csv_by_direct_loop(load_config(config))
    assert written["kernel", True] != written["kernel", False]


def test_report_is_strict_json_when_a_suite_value_is_not_finite(tmp_path, monkeypatch, capsys):
    # an empty root scan makes max_closed_vs_scan infinite: the suite fails,
    # and report.json still parses with non-finite constants rejected
    monkeypatch.setattr(checks, "root_scan", lambda *args, **kwargs: [])
    doc = dict(MINIMAL, numerics=small_numerics(n_paths=400, dt=0.02))
    out = tmp_path / "out"
    assert main(["validate", "--config", write_config(tmp_path, doc), "--out-dir", str(out)]) == 1
    assert "FAIL: root_residuals" in capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    suite = report["suites"]["root_residuals"]
    assert suite["passed"] is False and suite["max_closed_vs_scan"] is None
    assert report["passed"] is False


def test_validate_passes_and_reproduces(tmp_path):
    doc = dict(MINIMAL, numerics=small_numerics(n_paths=400, dt=0.02))
    cfg_path = write_config(tmp_path, doc)
    code1 = main(["validate", "--config", cfg_path, "--out-dir", str(tmp_path / "a")])
    code2 = main(["validate", "--config", cfg_path, "--out-dir", str(tmp_path / "b")])
    assert code1 == 0 and code2 == 0
    rep_a = (tmp_path / "a" / "report.json").read_bytes()
    rep_b = (tmp_path / "b" / "report.json").read_bytes()
    assert rep_a == rep_b
    report = json.loads(rep_a)
    assert report["passed"] is True
    assert set(report["suites"]) == {
        "gaussian_integral_identity",
        "derivative_consistency",
        "trivial_root_law",
        "root_residuals",
        "feynman_kac_analytic",
    }
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["checks_passed"] is True
    # each suite's seconds go to the manifest only, keyed like the report
    seconds = manifest["diagnostics"]["suite_seconds"]
    assert set(seconds) == set(report["suites"])
    assert all(t >= 0.0 for t in seconds.values())
    assert sum(seconds.values()) <= manifest["timings"]["compute_s"]


def test_root_suite_ranks_with_validates_numerics(monkeypatch):
    # run_all_checks hands its dt and n_paths, and the suite its seed, to
    # every optimal_stubbornness call, as optimize does
    calls = []

    def spy(*args, **kwargs):
        calls.append({k: kwargs.get(k) for k in ("dt", "n_paths", "seed")})
        return control.optimal_stubbornness(*args, **kwargs)

    monkeypatch.setattr(checks, "optimal_stubbornness", spy)
    report, _seconds = checks.run_all_checks(
        n_paths=40, dt=0.05, seed=30, fd_rel=1e-5, residual_rel=1e-6, quad_rel=1e-8
    )
    assert report["suites"]["root_residuals"]["passed"]
    assert calls and all(c == {"dt": 0.05, "n_paths": 40, "seed": 33} for c in calls), calls


@pytest.mark.parametrize("command", ["simulate", "sweep", "optimize", "density", "validate"])
def test_negative_seed_is_a_config_error(tmp_path, command, capsys):
    # in the config and as the --seed override: exit 2 with a manifest,
    # before any work (numpy's seeding would raise, the engine would mask it)
    doc = dict(MINIMAL, numerics=small_numerics())
    bad = dict(MINIMAL, numerics=small_numerics(seed=-5))
    good = write_config(tmp_path, doc)
    runs = {
        "config": ([command, "--config", write_config(tmp_path, bad, "bad.json")],
                   "numerics.seed must be a nonnegative integer"),
        "flag": ([command, "--config", good, "--seed", "-5"],
                 "numerics.seed must be a nonnegative integer"),
        "fraction": ([command, "--config", good, "--seed", "1.5"],
                     "--seed must be an integer, got '1.5'"),
    }
    for where, (argv, error) in runs.items():
        out = tmp_path / where
        assert main(argv + ["--out-dir", str(out)]) == 2, where
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "config_error", where
        assert manifest["error"] == error, where
        assert manifest["files"] == [] and not (out / "report.json").exists(), where
        assert f"error: {error}" in capsys.readouterr().err, where


@pytest.mark.parametrize("command", ["simulate", "sweep", "optimize", "density", "validate"])
def test_seed_beyond_64_bits_is_a_config_error(tmp_path, command, capsys):
    # the engine keys its noise by the seed modulo 2**64: a seed of
    # 2**64 + 3 would repeat seed 3's paths, so it is refused in the config
    # and as the --seed override, and 2**64 - 1 still runs
    error = "numerics.seed must be at most 2**64 - 1 = 18446744073709551615"
    good = write_config(tmp_path, dict(MINIMAL, numerics=small_numerics(n_paths=400, dt=0.02)))
    bad = write_config(tmp_path, dict(MINIMAL, numerics=small_numerics(seed=2**64 + 3)), "bad.json")
    runs = {
        "config": [command, "--config", bad],
        "flag": [command, "--config", good, "--seed", str(2**64)],
    }
    for where, argv in runs.items():
        out = tmp_path / where
        assert main(argv + ["--out-dir", str(out)]) == 2, where
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"], manifest["error"]) == ("config_error", error), where
        assert manifest["files"] == [], where
        assert f"error: {error}" in capsys.readouterr().err, where
    out = tmp_path / "largest"
    assert main([command, "--config", good, "--seed", str(2**64 - 1), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["seed"]) == ("ok", 2**64 - 1)


@pytest.mark.parametrize("argv, out_dir, command, message", [
    (["sweep", "--out-dir", "d"], "d", "sweep",
     "the following arguments are required: --config"),
    (["bogus", "--config", "c.json", "--out-dir", "d"], "d", None,
     "argument command: invalid choice: 'bogus'"),
    (["--out-dir=d"], "d", None, "the following arguments are required: command, --config"),
    (["--seed", "5", "optimize", "--config", "c.json", "--out-dir", "d", "extra"], "d",
     "optimize", "unrecognized arguments: extra"),
    # no --out-dir to recover: the manifest goes into the working directory
    (["validate", "--config", "c.json", "--out-dir"], ".", "validate",
     "argument --out-dir: expected one argument"),
], ids=["no-config", "unknown-command", "no-command", "extra-argument", "no-out-dir-value"])
def test_usage_error_writes_a_manifest(tmp_path, monkeypatch, capsys, argv, out_dir, command, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert f"stubborn: error: {message}" in capsys.readouterr().err
    manifest = json.loads((tmp_path / out_dir / "manifest.json").read_text())
    assert (manifest["status"], manifest["command"]) == ("config_error", command)
    assert manifest["error"].startswith(message)
    assert manifest["config"] is None and manifest["files"] == []


def test_help_writes_no_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--help", "--out-dir", "d"]) == 0
    assert "usage: stubborn" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_manifest_config_runs_again_unchanged(tmp_path):
    # the echo writes an unset s_grid as null, which must read back as unset
    cfg_path = write_config(tmp_path, dict(MINIMAL, numerics=small_numerics(n_paths=400, dt=0.02)))
    first = {}
    for command in ("simulate", "sweep", "optimize", "density", "validate"):
        out = tmp_path / "first" / command
        assert main([command, "--config", cfg_path, "--out-dir", str(out)]) == 0
        first[command] = out
    echoed = json.loads((first["sweep"] / "manifest.json").read_text())["config"]
    assert echoed["numerics"]["s_grid"] is None
    echo_path = write_config(tmp_path, echoed, name="echoed.json")
    for command, out in first.items():
        again = tmp_path / "again" / command
        assert main([command, "--config", echo_path, "--out-dir", str(again)]) == 0
        names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert names and names == sorted(p.name for p in again.iterdir() if p.name != "manifest.json")
        for name in names:
            assert (out / name).read_bytes() == (again / name).read_bytes(), (command, name)


def test_flag_overrides(tmp_path):
    doc = dict(MINIMAL, numerics=small_numerics())
    code = main([
        "simulate", "--config", write_config(tmp_path, doc),
        "--out-dir", str(tmp_path / "out"), "--seed", "99", "--n-paths", "2",
        "--dt", "0.25",
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 99
    lines = (tmp_path / "out" / "paths.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 5
    # a malformed override is a config error with a manifest, like a config value
    for flag, text, error in [
        ("--n-paths", "2.5", "--n-paths must be an integer, got '2.5'"),
        ("--dt", "fast", "--dt must be a number, got 'fast'"),
        ("--dt", "nan", "--dt must be a number, got nan"),
    ]:
        out = tmp_path / "bad"
        assert main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out-dir", str(out), flag, text]) == 2, flag
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"], manifest["error"]) == ("config_error", error), flag


def test_usage_errors_exit_2(tmp_path):
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--out-dir", out]) == 2
    doc = json.loads(json.dumps(MINIMAL))
    doc["payoff"]["c"] = -1.0
    assert main(["simulate", "--config", write_config(tmp_path, doc),
                 "--out-dir", out]) == 2
    # the manifest is emitted even when the config never parsed
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "config_error"
    bad_grid = dict(MINIMAL, numerics=small_numerics(x_grid={"min": 0.0, "max": 2.0, "n": 9}))
    assert main([
        "density", "--config", write_config(tmp_path, bad_grid, "g.json"),
        "--out-dir", str(tmp_path / "out2"),
    ]) == 2
    # malformed values are rejected while parsing, each with a manifest
    malformed = [
        ("simulate", dict(MINIMAL, model=3)),
        ("simulate", dict(MINIMAL, model=dict(MINIMAL["model"], a="x"))),
        ("simulate", dict(MINIMAL, numerics=small_numerics(dt=0.3))),
        ("density", dict(MINIMAL, numerics=small_numerics(density={"snapshot_stride": 0}))),
        # no silent casts: bool("false") is True, int() truncates, True is 1.0
        ("density", dict(MINIMAL, numerics=small_numerics(density={"gradient_correction": "false"}))),
        ("simulate", dict(MINIMAL, numerics=small_numerics(n_paths=1000.7))),
        ("density", dict(MINIMAL, numerics=small_numerics(density={"n_steps": 20.5}))),
        ("simulate", dict(MINIMAL, model=dict(MINIMAL["model"], a=True))),
        # a misspelled key or section is an error, never a silent default
        ("simulate", dict(MINIMAL, numerics=dict(small_numerics(), n_path=100000))),
        ("simulate", dict(MINIMAL, numeric=small_numerics())),
        # numbers are finite JSON numbers; strings are JSON strings
        ("simulate", dict(MINIMAL, numerics=small_numerics(dt="0.01"))),
        ("simulate", dict(MINIMAL, numerics=small_numerics(x0=float("nan")))),
        ("density", dict(MINIMAL, numerics=small_numerics(density={"eps": float("inf")}))),
        ("density", dict(MINIMAL, numerics=small_numerics(density={"step": 5}))),
        ("optimize", dict(MINIMAL, modes={"nash_mode": 1})),
    ]
    for i, (command, doc) in enumerate(malformed):
        case_out = tmp_path / f"malformed{i}"
        assert main([command, "--config", write_config(tmp_path, doc, f"m{i}.json"),
                     "--out-dir", str(case_out)]) == 2, doc
        manifest = json.loads((case_out / "manifest.json").read_text())
        assert manifest["status"] == "config_error", doc
    # density values the update cannot use are config errors naming their key
    bad_density = [
        ("density.eps", small_numerics(density={"eps": 0})),
        ("density.n_steps", small_numerics(density={"n_steps": 0})),
        ("density.n_steps", small_numerics(density={"n_steps": -3})),
        ("density.u", small_numerics(density={"u": 1.5})),
        # the correction term exists only in the kernel update; the
        # Schrodinger update would write the density without it
        ("density.gradient_correction", small_numerics(density={"gradient_correction": True})),
        ("density.gradient_correction", small_numerics(
            density={"step": "schrodinger", "gradient_correction": True})),
        ("x_grid.n", small_numerics(x_grid={"min": 0.2, "max": 2.0, "n": 3})),
    ]
    # grids outside the domain of (s, x) fail before optimize computes a row
    bad_grids = [
        ("s_grid.max", small_numerics(s_grid={"min": 0.0, "max": 2.0, "n": 3})),
        ("s_grid.min", small_numerics(s_grid={"min": -0.5, "max": 1.0, "n": 3})),
        ("x_grid.min", small_numerics(x_grid={"min": -1.0, "max": 2.0, "n": 7})),
    ]
    cases = [("density", *case) for case in bad_density]
    cases += [("optimize", *case) for case in bad_grids]
    for i, (command, key, numerics) in enumerate(cases):
        case_out = tmp_path / f"domain{i}"
        config = write_config(tmp_path, dict(MINIMAL, numerics=numerics), f"d{i}.json")
        assert main([command, "--config", config, "--out-dir", str(case_out)]) == 2, key
        manifest = json.loads((case_out / "manifest.json").read_text())
        assert manifest["status"] == "config_error", key
        assert key in manifest["error"], manifest["error"]
    # an --out-dir that names a file is a usage error, not a traceback
    not_a_dir = tmp_path / "file.txt"
    not_a_dir.write_text("")
    assert main(["sweep", "--config", write_config(tmp_path, MINIMAL, "ok.json"),
                 "--out-dir", str(not_a_dir)]) == 2
    # an integral JSON number still fills an int field
    assert parse_config(dict(MINIMAL, numerics=small_numerics(n_paths=16.0))).numerics.n_paths == 16


@pytest.mark.parametrize("threads", ["two", "0", "-1", "1.5", " 2"])
def test_malformed_thread_count_is_a_usage_error(tmp_path, monkeypatch, capsys, threads):
    # never silently replaced: exit 2, naming the variable, before any work
    monkeypatch.setenv("STUBBORN_THREADS", threads)
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, MINIMAL),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: STUBBORN_THREADS must be a positive integer"), err
    assert not (out / "sweep.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config_error"
    assert "STUBBORN_THREADS" in manifest["error"]
    assert manifest["diagnostics"] == {}
    # the same from run_command, which the CLI's config checks do not guard
    config = load_config(write_config(tmp_path, MINIMAL))
    assert run_command("sweep", config, str(tmp_path / "direct")) == 2
    assert not (tmp_path / "direct" / "sweep.csv").exists()


@pytest.mark.parametrize("threads", ["", "1", "2", "02"])
def test_valid_thread_counts_run(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("STUBBORN_THREADS", threads)
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, MINIMAL),
                 "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"]["worker_count"] == int(threads or len(os.sched_getaffinity(0)))


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # the runtime needs numpy only: not even a full validate run loads scipy
    src = str(Path(stubborn.__file__).resolve().parent.parent)
    doc = dict(MINIMAL, numerics=small_numerics(n_paths=400, dt=0.02))
    argv = ["validate", "--config", write_config(tmp_path, doc), "--out-dir", str(tmp_path / "out")]
    probe = subprocess.run(
        [sys.executable, "-c",
         f"import sys, stubborn.cli; code = stubborn.cli.main({argv!r}); "
         "print(code, 'scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert probe.stdout.strip().splitlines()[-1] == "0 False"


def test_no_command_loads_numpy_random(tmp_path):
    # validate draws its scenarios from checks._Uniforms, the engine's
    # SplitMix64 counter construction, not from numpy.random, which would
    # stay resident for the rest of the process
    src = str(Path(stubborn.__file__).resolve().parent.parent)
    doc = dict(MINIMAL, numerics=small_numerics(n_paths=400, dt=0.02))
    config = write_config(tmp_path, doc)
    script = (
        "import sys, stubborn.cli\n"
        "for command in ('simulate', 'sweep', 'optimize', 'density', 'validate'):\n"
        f"    code = stubborn.cli.main([command, '--config', {config!r}, "
        f"'--out-dir', {str(tmp_path / 'out')!r} + '/' + command])\n"
        "    print(command, code, 'numpy.random' in sys.modules)\n"
    )
    probe = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    # validate also prints one PASS line per suite
    lines = [line for line in probe.stdout.splitlines() if not line.startswith("PASS: ")]
    assert lines == [
        f"{command} 0 False" for command in ("simulate", "sweep", "optimize", "density", "validate")
    ]


def test_cli_import_leaves_process_pools_unloaded(tmp_path):
    # the engine and the paths.csv writer fork without a process pool, so
    # neither the import that perfbench's setup_s times nor a forked
    # simulate loads one, which would stay resident for the process
    src = str(Path(stubborn.__file__).resolve().parent.parent)
    cfg_path = write_config(tmp_path, dict(MINIMAL, numerics=small_numerics(n_paths=300)))
    argv = ["simulate", "--config", cfg_path, "--out-dir", str(tmp_path / "out")]
    pools = ("'multiprocessing' in sys.modules, 'concurrent.futures.process' in sys.modules, "
             "'concurrent.futures' in sys.modules")
    probe = subprocess.run(
        [sys.executable, "-c",
         f"import sys, stubborn.cli; print({pools}); "
         f"print(stubborn.cli.main({argv!r}), {pools})"],
        env={**os.environ, "PYTHONPATH": src, "STUBBORN_THREADS": "2"},
        capture_output=True, text=True, check=True,
    )
    assert probe.stdout.split() == ["False"] * 3 + ["0"] + ["False"] * 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["diagnostics"]["write_workers"] == 2


def test_package_imports_only_stdlib_and_numpy():
    # every absolute import, lazy ones included, must be covered by the
    # declared runtime dependency (numpy) or ship with Python
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for source in sorted(Path(stubborn.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{source.name} imports {name}"


def _parameters_with_defaults(source):
    """(function, parameter, position) of each parameter with a default in source.

    position counts the arguments a caller passes (self and cls excluded);
    it is None for a keyword-only parameter.
    """
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        positional = node.args.posonlyargs + node.args.args
        bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
        for i in range(len(positional) - len(node.args.defaults), len(positional)):
            yield node.name, positional[i].arg, i - bound
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def test_every_parameter_default_is_set_by_some_caller():
    # a default that no call overrides is a constant posing as a setting
    root = Path(__file__).resolve().parent.parent
    calls = {}  # called name -> [(positional argument count, keyword names)]
    for folder in ("src", "tests", "perfbench"):
        for source in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                    n_pos = float("inf") if starred else len(node.args)
                    # a **mapping argument shows up as the keyword None
                    calls.setdefault(name, []).append((n_pos, {kw.arg for kw in node.keywords}))
    unset = [
        f"{source.stem}.{function}({param})"
        for source in sorted(Path(stubborn.__file__).resolve().parent.glob("*.py"))
        for function, param, position in _parameters_with_defaults(source)
        if not any(
            param in keywords or None in keywords or (position is not None and n_pos > position)
            for n_pos, keywords in calls.get(function, [])
        )
    ]
    assert not unset, f"parameter defaults that no call sets: {unset}"


# public names that no package code calls, each kept for a reason
ORACLES = (
    ("expected_payoff", "the README quickstart's one-control estimate of J"),
    ("payoff_stationarity", "oracle of acceptance criterion 9 (dJ/du at a grid maximizer)"),
    ("hand_coded_f", "oracle pair for f with assemble_f_from_generator"),
    ("assemble_f_from_generator", "oracle pair for f with hand_coded_f"),
    ("fk_pde_residual_check", "Feynman-Kac generator oracle"),
)


def _names_used_outside_own_definition(tree):
    """Names and attributes read in tree, except inside a def or class of that name."""
    used = set()
    stack = [(tree, frozenset())]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in enclosing:
            used.add(name)
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return used


def test_every_public_name_is_reached_or_is_an_oracle():
    # a public name that only its own tests call is API nobody needs
    oracles = {name for name, _reason in ORACLES}
    used = set()
    for source in sorted(Path(stubborn.__file__).resolve().parent.glob("*.py")):
        if source.name != "__init__.py":
            used |= _names_used_outside_own_definition(ast.parse(source.read_text(encoding="utf-8")))
    unreached = [name for name in stubborn.__all__ if name not in used and name not in oracles]
    assert not unreached, f"public names that no package code references: {unreached}"
    stale = [name for name in oracles if name in used or name not in stubborn.__all__]
    assert not stale, f"ORACLES entries that are referenced or not public: {stale}"


# record fields that no package code reads, each with the reason it stays
UNREAD_FIELDS = (
    ("ClosedFormCoeffs", "A2",
     "the paper's printed coefficient: k4 is built from it, and the tests hold it to the paper"),
)


def _records_echoed_by_asdict(cls, found=None):
    """Names of cls and of every record its fields hold: what `dataclasses.asdict` writes."""
    found = set() if found is None else found
    if dataclasses.is_dataclass(cls) and cls.__name__ not in found:
        found.add(cls.__name__)
        for hint in typing.get_type_hints(cls).values():
            for held in (hint, *typing.get_args(hint)):
                _records_echoed_by_asdict(held, found)
    return found


def _attribute_reads(tree):
    """(attribute, names of the enclosing defs and classes, outermost first) per read in tree."""
    reads = []
    stack = [(tree, ())]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing + (node.name,)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, enclosing))
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return reads


def _dataclass_fields(tree):
    """(class, field) for each annotated field of each @dataclass class in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def _is_read(reads, cls, field):
    """True when some read of .field lies outside cls, or in a method of cls but __post_init__."""
    for attr, enclosing in reads:
        if attr == field:
            if cls not in enclosing:
                return True
            method = enclosing[enclosing.index(cls) + 1:][:1]
            if method and method != ("__post_init__",):
                return True
    return False


def test_every_record_field_is_read_or_listed():
    # a stored value that no caller reads is work and API nobody needs; the
    # config records are exempt, since the manifest echoes them whole
    trees = [ast.parse(source.read_text(encoding="utf-8"))
             for source in sorted(Path(stubborn.__file__).resolve().parent.glob("*.py"))]
    reads = [read for tree in trees for read in _attribute_reads(tree)]
    echoed = _records_echoed_by_asdict(cli.RunConfig)
    unread = {(cls, field) for tree in trees for cls, field in _dataclass_fields(tree)
              if cls not in echoed and not _is_read(reads, cls, field)}
    listed = {(cls, field) for cls, field, _reason in UNREAD_FIELDS}
    assert not unread - listed, f"record fields that no package code reads: {sorted(unread - listed)}"
    assert not listed - unread, f"UNREAD_FIELDS entries that are read: {sorted(listed - unread)}"


def test_pyproject_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9._-]+", dep).group().lower() for dep in deps] == ["numpy"]


def test_run_command_rejects_unknown():
    doc = parse_config(json.loads(json.dumps(MINIMAL)))
    with pytest.raises(ConfigError, match="unknown command"):
        run_command("frobnicate", doc)
