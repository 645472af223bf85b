"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its measured error and elapsed time (run with `pytest -s` to see
the lines on success)."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import stubborn
from stubborn import checks
from stubborn.density import gaussian_density_grid, kernel_step, schrodinger_step
from stubborn.dynamics import simulate_final
from stubborn.feynman_kac import FKProblem, fk_estimate
from stubborn.model import ModelParams, PayoffParams
from stubborn.payoff import expected_payoff, payoff_stationarity


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(n, ok, budget, timer, detail):
    line = (
        f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail} "
        f"[{timer.elapsed:.2f}s / budget {budget:.0f}s]"
    )
    print(line)
    assert ok, line
    assert timer.elapsed <= budget, line


@pytest.fixture(scope="module")
def root_suite():
    with Timer() as t:
        result = checks.check_root_residuals(seed=11)
    result["_elapsed"] = t.elapsed
    return result


def test_criterion_1_gaussian_integral_identity():
    with Timer() as t:
        suite = checks.check_gaussian_identity(quad_rel=1e-8)
    report(
        1,
        suite["passed"],
        1.0,
        t,
        f"closed form vs trapezoid rule over {suite['cases']} cases, "
        f"max rel err {suite['max_rel_error']:.2e} <= 1e-8",
    )


def test_criterion_2_derivative_consistency():
    with Timer() as t:
        suite = checks.check_finite_differences(fd_rel=1e-5)
    report(
        2,
        suite["passed"],
        1.0,
        t,
        f"FD max rel err {suite['max_fd_rel_error']:.2e} <= 1e-5; "
        f"published-mode gap err {suite['max_gap_error']:.2e} <= 1e-6",
    )


def test_criterion_3_trivial_root_law():
    with Timer() as t:
        suite = checks.check_trivial_root()
    report(
        3,
        suite["passed"],
        1.0,
        t,
        f"residual at u=0 exactly {suite['max_abs_residual']} across "
        f"{suite['scenarios']} scenarios x 4 mode pairs",
    )


def test_criterion_4_closed_form_vs_oracle(root_suite):
    ok = (
        root_suite["max_closed_vs_scan"] <= 1e-3
        and root_suite["max_certificate_ratio"] <= 1e-6
        and root_suite["max_polynomial_residual_ratio"] <= 1e-9
    )
    t = Timer()
    t.elapsed = root_suite["_elapsed"]
    report(
        4,
        ok,
        5.0,
        t,
        f"|u_closed - u_scan| max {root_suite['max_closed_vs_scan']:.2e} <= 1e-3; "
        f"residual certificate {root_suite['max_certificate_ratio']:.2e} <= 1e-6",
    )


def test_criterion_5_printed_formula_divergence(root_suite):
    records = root_suite["printed_formula_records"]
    ok = (
        root_suite["printed_formula_fail_fraction"] >= 0.9
        and len(records) == root_suite["scenarios"]
        and all("printed_residual" in r for r in records)
    )
    t = Timer()
    t.elapsed = root_suite["_elapsed"]
    report(
        5,
        ok,
        5.0,
        t,
        f"printed root formula fails the residual oracle on "
        f"{100 * root_suite['printed_formula_fail_fraction']:.0f}% of "
        f"{root_suite['scenarios']} scenarios (>= 90% required), all recorded",
    )


def test_criterion_6_feynman_kac_analytic_cases():
    with Timer() as t:
        frozen = ModelParams(a=0.0, sigma1=0.0, sigma2=0.0)
        r, s0, x0 = 0.35, 0.2, 1.3
        prob = FKProblem(
            V=lambda s, x, u: r,
            Theta=lambda s, x, u: 0.0,
            T_term=lambda t_, x: x,
            dynamics=frozen,
            u=0.0,
            horizon=1.0,
        )
        mean, _ = fk_estimate(prob, s0, x0, 0.01, 16, seed=5)
        expect = x0 * math.exp(-r * (1.0 - s0))
        frozen_err = abs(mean - expect) / expect

        noisy = ModelParams(a=0.0, sigma1=0.3, sigma2=0.0)
        prob2 = FKProblem(
            V=lambda s, x, u: 0.0,
            Theta=lambda s, x, u: 0.0,
            T_term=lambda t_, x: x,
            dynamics=noisy,
            u=0.0,
            horizon=1.0,
        )
        mean2, se2 = fk_estimate(prob2, 0.0, 1.0, 0.01, 100_000, seed=6)
        stoch_dev = abs(mean2 - 1.0)
    ok = frozen_err <= 1e-12 and stoch_dev <= 3.0 * se2
    # validate's suite runs the same stochastic case behind the same 3 SE gate
    # and reports how often that gate fails on correct code
    suite = checks.check_fk_cases(dt=0.01, n_paths=100_000, seed=6)
    assert (suite["stochastic_mean"], suite["stochastic_std_error"]) == (mean2, se2)
    assert suite["passed"] == ok
    false_alarm = suite["stochastic_false_alarm_rate"]
    assert false_alarm == math.erfc(3 / math.sqrt(2)) == pytest.approx(0.0027, abs=1e-4)
    report(
        6,
        ok,
        30.0,
        t,
        f"frozen discount rel err {frozen_err:.2e} <= 1e-12; stochastic linear "
        f"terminal dev {stoch_dev:.2e} <= 3*SE ({3 * se2:.2e}) at 1e5 paths, "
        f"nominal false-alarm rate {false_alarm:.4f}",
    )


def test_criterion_7_sde_moment_law():
    with Timer() as t:
        model = ModelParams(a=0.0, sigma1=0.3, sigma2=0.1)
        dt, horizon, x0, n = 1e-3, 1.0, 1.0, 100_000
        final, _ = simulate_final(
            x0, 0.0, model, dt, horizon, seed=42, n_paths=n, clamp=False
        )
        target = x0 * (1.0 - model.sigma2 * dt) ** round(horizon / dt)
        se = final.std(ddof=1) / math.sqrt(n)
        dev = abs(final.mean() - target)
    ok = dev <= 3.0 * se
    report(
        7,
        ok,
        30.0,
        t,
        f"pre-clamp EM mean {final.mean():.6f} vs x0*(1-sigma2*dt)^(t/dt)="
        f"{target:.6f}, dev {dev:.2e} <= 3*SE ({3 * se:.2e})",
    )


def test_criterion_8_density_step_equivalence():
    with Timer() as t:
        def fields(s, x):
            return 0.3 + 0.4 * x + 0.5 * x * x, 0.4 + x, np.full_like(x, 1.0)

        x = np.linspace(-6.0, 6.0, 512)
        g_kernel = gaussian_density_grid(x, 0.0, 1.0)
        g_schro = gaussian_density_grid(x, 0.0, 1.0)
        worst_norm = 0.0
        for _ in range(20):
            g_kernel = kernel_step(g_kernel, 0.01, fields, gradient_correction=False)
            g_schro = schrodinger_step(g_schro, 0.01, fields)
            worst_norm = max(
                worst_norm,
                abs(np.trapezoid(g_kernel.psi, g_kernel.x_grid) - 1.0),
                abs(np.trapezoid(g_schro.psi, g_schro.x_grid) - 1.0),
            )
        diff = float(np.abs(g_kernel.psi - g_schro.psi).max())
    ok = diff <= 1e-8 and worst_norm <= 1e-9
    report(
        8,
        ok,
        5.0,
        t,
        f"kernel vs pointwise update max diff {diff:.2e} <= 1e-8 over 20 steps "
        f"on 512 points; normalization defect {worst_norm:.2e} <= 1e-9",
    )


def test_criterion_9_payoff_stationarity_at_grid_maximizer():
    with Timer() as t:
        model = ModelParams(a=0.0, sigma1=0.0, sigma2=0.0)
        pay = PayoffParams(
            theta=0.1, alpha1=-0.6, alpha2=-0.5, alpha3=-0.5,
            c=0.5, r=0.5, mu_bar=0.0, omega=0.1, horizon=1.0,
        )
        x0, dt = 2.0, 0.005
        n_steps = round(pay.horizon / dt)

        # grid-search oracle over u in [0, 1], step 0.001: deterministic
        # dynamics let every candidate evolve in one vectorized sweep.
        u_grid = np.linspace(0.0, 1.0, 1001)
        xs = np.full_like(u_grid, x0)
        j_vals = np.zeros_like(u_grid)
        k = pay.c / (pay.r - pay.mu_bar)
        beta = pay.theta + pay.alpha1 + pay.alpha2 + pay.alpha3
        for j in range(n_steps):
            s = j * dt
            j_vals += math.exp(-pay.r * s) * (beta * xs - k * u_grid**2 / np.sqrt(xs)) * dt
            xs = xs - u_grid * dt  # a = 0, sigma = 0
        j_vals += pay.omega * math.exp(-pay.r * pay.horizon) * np.sqrt(xs)
        u_best = float(u_grid[np.argmax(j_vals)])
        assert 0.0 < u_best < 1.0, "maximizer must be interior for the check"

        # oracle consistency: the vectorized sweep reproduces expected_payoff
        est = expected_payoff(x0, u_best, model, pay, dt, 1, seed=0)
        assert est.mean == pytest.approx(float(j_vals[np.argmax(j_vals)]), rel=1e-12)

        d1, d2 = payoff_stationarity(x0, u_best, 0.01, model, pay, dt, 1, seed=0)
    ok = abs(d1) <= 1e-3 and d2 < 0.0
    report(
        9,
        ok,
        10.0,
        t,
        f"grid maximizer u*={u_best:.3f}: |dJ/du|={abs(d1):.2e} <= 1e-3 "
        f"and d2J/du2={d2:.3f} < 0",
    )


def test_criterion_10_end_to_end_reproducibility(tmp_path):
    with Timer() as t:
        config = {
            "model": {"a": 1.0, "sigma1": 0.3, "sigma2": 0.1},
            "payoff": {
                "theta": 1.0, "alpha1": 0.1, "alpha2": 0.1, "alpha3": 0.1,
                "c": 1.0, "r": 0.5, "mu_bar": 0.0, "omega": 1.0, "horizon": 1.0,
            },
            "numerics": {"dt": 0.01, "n_paths": 2000, "seed": 42, "u_grid_n": 5},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        # the child imports the package the tests import, installed or not
        env = {**os.environ, "PYTHONPATH": str(Path(stubborn.__file__).resolve().parent.parent)}
        payloads = {}
        for run in ("a", "b"):
            out = tmp_path / run
            for command, artifact in (("validate", "report.json"), ("sweep", "sweep.csv")):
                proc = subprocess.run(
                    [sys.executable, "-m", "stubborn.cli", command,
                     "--config", str(cfg), "--out-dir", str(out / command)],
                    capture_output=True,
                    text=True,
                    env=env,
                )
                assert proc.returncode == 0, proc.stderr
                payloads[(run, artifact)] = (out / command / artifact).read_bytes()
        identical = (
            payloads[("a", "report.json")] == payloads[("b", "report.json")]
            and payloads[("a", "sweep.csv")] == payloads[("b", "sweep.csv")]
        )
        all_passed = json.loads(payloads[("a", "report.json")])["passed"]
    ok = identical and all_passed
    report(
        10,
        ok,
        60.0,
        t,
        "two validate runs byte-identical (report.json) and sweep CSV "
        "byte-identical; all validation suites green",
    )
