import dataclasses
import json
import os
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import stubborn
from stubborn import control, dynamics
from stubborn.cli import ConfigError, _fmt, load_config, main, parse_config, run_command
from stubborn.model import ModelParams
from stubborn.payoff import constant_policy, expected_payoff

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
        1.0, constant_policy(0.0), ModelParams(**MINIMAL["model"]), 0.05, 1.0, 3, 16
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
        est = expected_payoff(num.x0, constant_policy(float(u)), config.model,
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
        diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diagnostics["worker_count"] == 3, command
    sweep = json.loads((tmp_path / "sweep" / "manifest.json").read_text())["diagnostics"]
    assert len(sweep["clamp_fraction"]) == 11
    assert all(0.0 <= f <= 1.0 for f in sweep["clamp_fraction"])
    # the initial bump sits four widths from the grid edges: every step warns
    dens = json.loads((tmp_path / "density" / "manifest.json").read_text())["diagnostics"]
    assert [w["step"] for w in dens["boundary_warnings"]] == [1, 2, 3, 4]
    assert all("boundary mass fraction" in w["warning"] for w in dens["boundary_warnings"])
    assert main(["sweep", "--config", str(tmp_path / "missing.json"),
                 "--out-dir", str(tmp_path / "bad")]) == 2
    bad = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert bad["diagnostics"] == {"worker_count": 3}


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
    seen = []
    ranked = control.expected_payoff

    def spy(x0, policy, model, payoff, dt, n_paths, seed):
        seen.append(n_paths)
        return ranked(x0, policy, model, payoff, dt, n_paths, seed)

    monkeypatch.setattr(control, "expected_payoff", spy)
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
    code = main(["optimize", "--config", write_config(tmp_path, doc),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert seen and set(seen) == {37}


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
    # an --out-dir that names a file is a usage error, not a traceback
    not_a_dir = tmp_path / "file.txt"
    not_a_dir.write_text("")
    assert main(["sweep", "--config", write_config(tmp_path, MINIMAL, "ok.json"),
                 "--out-dir", str(not_a_dir)]) == 2
    # an integral JSON number still fills an int field
    assert parse_config(dict(MINIMAL, numerics=small_numerics(n_paths=16.0))).numerics.n_paths == 16


def test_cli_import_leaves_scipy_unloaded():
    # only validate's quadrature suite needs scipy, and it imports it itself
    src = str(Path(stubborn.__file__).resolve().parent.parent)
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, stubborn.cli; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert probe.stdout.strip() == "False"


def test_run_command_rejects_unknown():
    doc = parse_config(json.loads(json.dumps(MINIMAL)))
    with pytest.raises(ConfigError, match="unknown command"):
        run_command("frobnicate", doc)
