import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stubborn import dynamics, payoff
from stubborn.dynamics import diffusion, drift, n_steps_for, step_normals
from stubborn.model import ModelParams, PayoffParams
from stubborn.payoff import expected_payoff, expected_payoffs, payoff_stationarity

FROZEN = ModelParams(a=0.0, sigma1=0.0, sigma2=0.0)


def pay(**overrides):
    base = dict(
        theta=1.0, alpha1=0.0, alpha2=0.0, alpha3=0.0,
        c=1.0, r=0.5, mu_bar=0.0, omega=1.0, horizon=1.0,
    )
    base.update(overrides)
    return PayoffParams(**base)


def test_deterministic_riemann_sum():
    # theta + sum(alpha) = 1, r = 0, omega = 0: left sum of a constant 1 over [0,1).
    p = pay(r=0.0, mu_bar=-0.5, omega=0.0)
    est = expected_payoff(1.0, 0.0, FROZEN, p, 0.25, 1, seed=0)
    assert est.mean == 1.0
    assert est.std_error == 0.0
    assert est.clamp_fraction == 0.0 and est.invalid_fraction == 0.0


def test_same_seed_same_estimate():
    model = ModelParams(a=0.5, sigma1=0.3, sigma2=0.1)
    a = expected_payoff(1.0, 0.2, model, pay(), 0.05, 1, seed=9)
    b = expected_payoff(1.0, 0.2, model, pay(), 0.05, 1, seed=9)
    assert a == b


def test_against_bruteforce_oracle():
    """Independent re-implementation: sequential numpy RNG, own Riemann sum."""
    model = ModelParams(a=0.4, sigma1=0.25, sigma2=0.15)
    p = pay(theta=0.8, alpha1=0.1, alpha2=0.05, alpha3=0.05)
    u, dt, n, x0 = 0.3, 0.01, 100_000, 1.0

    est = expected_payoff(x0, u, model, p, dt, n, seed=123)

    rng = np.random.default_rng(987654)
    x = np.full(n, x0)
    totals = np.zeros(n)
    invalid = np.zeros(n, dtype=bool)
    k = p.c / (p.r - p.mu_bar)
    beta = p.theta + p.alpha1 + p.alpha2 + p.alpha3
    for j in range(100):
        s = j * dt
        invalid |= (x <= 0.0) & (u > 0.0)
        safe = np.where(x <= 0.0, 1.0, x)
        pi = beta * x - np.where(x <= 0.0, 0.0, k * u * u / np.sqrt(safe))
        totals += math.exp(-p.r * s) * pi * dt
        w = rng.standard_normal(n)
        x = np.maximum(
            x + (model.a * np.sqrt(x) - model.sigma2 * x - u) * dt
            + (model.sigma1 - model.sigma2 * x) * math.sqrt(dt) * w,
            0.0,
        )
    totals += p.omega * math.exp(-p.r * p.horizon) * np.sqrt(x)
    sample = totals[~invalid]
    oracle_mean = sample.mean()
    oracle_se = sample.std(ddof=1) / math.sqrt(len(sample))

    combined = math.hypot(est.std_error, oracle_se)
    assert abs(est.mean - oracle_mean) <= 3.0 * combined, (
        f"{est.mean} vs oracle {oracle_mean} (3se {3*combined:.2e})"
    )


def test_discount_consistency():
    # pi >= 0 along all paths (u = 0, positive slope): J at r = 0 dominates.
    model = ModelParams(a=0.3, sigma1=0.2, sigma2=0.1)
    p_r0 = pay(r=0.0, mu_bar=-0.5)
    p_r = pay(r=0.6, mu_bar=-0.5)
    j0 = expected_payoff(1.0, 0.0, model, p_r0, 0.02, 4000, seed=3)
    j1 = expected_payoff(1.0, 0.0, model, p_r, 0.02, 4000, seed=3)
    assert j0.mean >= j1.mean


def test_std_error_scaling():
    model = ModelParams(a=0.3, sigma1=0.4, sigma2=0.1)
    ratios = []
    for seed in (1, 2, 3):
        small = expected_payoff(1.0, 0.1, model, pay(), 0.02, 2000, seed)
        big = expected_payoff(1.0, 0.1, model, pay(), 0.02, 8000, seed)
        ratios.append(small.std_error / big.std_error)
    mean_ratio = sum(ratios) / len(ratios)
    assert abs(mean_ratio - 2.0) <= 0.4  # 1/sqrt(n) within 20%


def test_invalid_paths_reported():
    # Start near the boundary with full stubbornness: clamping under u > 0
    # makes the cost singular and the path invalid.
    model = ModelParams(a=0.0, sigma1=0.5, sigma2=0.0)
    p = pay()
    est = expected_payoff(0.01, 1.0, model, p, 0.05, 2000, seed=17)
    assert est.invalid_fraction > 0.5
    assert math.isfinite(est.mean)
    # with u = 0 paths still clamp, but the cost stays finite: none is invalid
    free = expected_payoff(0.01, 0.0, model, p, 0.05, 2000, seed=17)
    assert free.clamp_fraction > 0.5
    assert free.invalid_fraction == 0.0


def test_paths_reaching_zero_raise_no_floating_point_warning(monkeypatch):
    """The cost's quotient is inf or nan at x = 0; none of that reaches the caller.

    Paths start at 0.3 and reach the clamp mid-run, in one block with rows
    at u = 0 and u > 0.  Floating-point warnings are errors here, and the
    error state is the caller's after the call, also after a block raises.
    """
    model = ModelParams(a=0.0, sigma1=0.5, sigma2=0.0)
    args = (0.3, [0.0, 0.5, 1.0], model, pay(), 0.05, 200)
    monkeypatch.setenv("STUBBORN_THREADS", "1")
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        caller = np.geterr()
        free, half, full = expected_payoffs(*args, seed=17)
        assert np.geterr() == caller
        assert free.clamp_fraction > 0.1 and free.invalid_fraction == 0.0
        assert half.invalid_fraction > 0.1 and full.invalid_fraction > 0.1
        assert all(math.isfinite(est.mean) for est in (free, half, full))

        steps = dynamics._em_steps

        def failing_steps(*step_args, **kwargs):
            # from step 5 on, a sqrt(x) that the cost's divide cannot broadcast
            for j, (s_j, x, u, x_next, hit, sq) in enumerate(steps(*step_args, **kwargs)):
                yield s_j, x, u, x_next, hit, (sq if j < 5 else sq[:, :0])

        monkeypatch.setattr(dynamics, "_em_steps", failing_steps)
        with pytest.raises(ValueError):
            expected_payoffs(*args, seed=17)
        assert np.geterr() == caller


@pytest.mark.parametrize("threads", ["1", "2"])
def test_control_array_equals_single_control_runs(monkeypatch, threads):
    # the u grid array that `sweep` passes unchanged; 21 controls in blocks
    # of 4 paths split 10 paths into 3 blocks, so two threads use the pool
    model = ModelParams(a=0.5, sigma1=0.4, sigma2=0.2)
    args = (model, pay(), 0.05, 10, 5)
    u_grid = np.linspace(0.0, 1.0, 21)
    monkeypatch.setenv("STUBBORN_THREADS", "1")
    singles = [expected_payoff(0.3, float(u), *args) for u in u_grid]
    monkeypatch.setattr(dynamics, "_BLOCK_ELEMS", 4 * 21)
    monkeypatch.setenv("STUBBORN_THREADS", threads)
    assert expected_payoffs(0.3, u_grid, *args) == singles
    with pytest.raises(ValueError, match="at least one control"):
        expected_payoffs(0.3, np.array([]), *args)


def test_stationarity_flat_payoff():
    # theta + sum(alpha) = 0, c = 0, omega = 0: J does not depend on u at all.
    p = PayoffParams(
        theta=0.5, alpha1=-0.5, alpha2=0.0, alpha3=0.0,
        c=0.0, r=0.5, mu_bar=0.0, omega=0.0, horizon=1.0,
    )
    model = ModelParams(a=0.2, sigma1=0.3, sigma2=0.1)
    d1, d2 = payoff_stationarity(1.0, 0.5, 0.05, model, p, 0.05, 500, seed=2)
    assert d1 == 0.0
    assert d2 == 0.0


def test_stationarity_matches_near_quadratic_cost():
    # With a vanishing reward slope and x0 >> u*t the cost is effectively
    # -C*u^2, so dJ/du = -2*C*u with C = c/((r-mu_bar)*sqrt(x0)) * int e^{-rs} ds.
    x0 = 1.0e6
    p = PayoffParams(
        theta=0.5, alpha1=-0.5, alpha2=0.0, alpha3=0.0,
        c=1.0, r=0.5, mu_bar=0.0, omega=1e-12, horizon=1.0,
    )
    dt = 0.001
    d1, d2 = payoff_stationarity(x0, 0.4, 0.01, FROZEN, p, dt, 1, seed=0)
    disc_sum = sum(math.exp(-p.r * j * dt) * dt for j in range(1000))
    C = p.c / ((p.r - p.mu_bar) * math.sqrt(x0)) * disc_sum
    assert d1 == pytest.approx(-2.0 * C * 0.4, rel=1e-3)
    assert d2 == pytest.approx(-2.0 * C, rel=1e-2)


def test_stationarity_validates_bracket():
    with pytest.raises(ValueError):
        payoff_stationarity(1.0, 0.005, 0.01, FROZEN, pay(), 0.25, 1, seed=0)


def reference_accumulation(x0, controls, model, p, dt, n_paths, seed):
    """Per-path totals, clamp and invalid flags, written out step by step.

    The cost term takes its own sqrt(x) off the boundary; the step is
    x + drift*dt + diffusion*sqrt(dt)*w, clamped at 0.
    """
    k = p.c / (p.r - p.mu_bar)
    bonus = p.omega * math.exp(-p.r * p.horizon)
    u = np.clip(np.asarray(controls, dtype=np.float64), 0.0, 1.0).reshape(-1, 1)
    x = np.empty((len(u), n_paths))
    x[...] = np.reshape(x0, (-1, 1))
    running = np.zeros(x.shape)
    clamped = np.zeros(x.shape, dtype=bool)
    invalid = np.zeros(x.shape, dtype=bool)
    for j in range(n_steps_for(p.horizon, dt)):
        s_j = j * dt
        at_zero = x <= 0.0
        invalid |= at_zero & (u > 0.0)
        running += (
            math.exp(-p.r * s_j)
            * (
                p.reward_coeff * x
                - np.where(at_zero, 0.0, k * u * u / np.sqrt(np.where(at_zero, 1.0, x)))
            )
            * dt
        )
        w = step_normals(seed, 0, n_paths, j)
        raw = x + drift(x, u, model) * dt + diffusion(x, model) * math.sqrt(dt) * w
        clamped |= raw < 0.0
        x = np.maximum(raw, 0.0)
    return running + bonus * np.sqrt(x), clamped, invalid


@settings(max_examples=30, deadline=None)
@given(
    controls=st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.3]), min_size=1, max_size=4),
    starts=st.lists(st.sampled_from([0.0, 0.02, 0.4, 1.5]), min_size=4, max_size=4),
    per_row=st.booleans(),
    sigma1=st.sampled_from([0.0, 0.3, 1.0]),
    c=st.sampled_from([0.0, 1.0, 2.5]),
    mu_bar=st.sampled_from([-0.3, 0.0, 0.2]),
    n_paths=st.integers(1, 30),
    block=st.integers(1, 8),
    elems=st.integers(1, 24),
    threads=st.sampled_from(["1", "2"]),
    seed=st.integers(0, 2**63),
)
# starts at x0 = 0 under u = 0 (valid, no cost) and under u > 0 (invalid)
@example(
    controls=[0.0, 0.5, 0.0, 1.0], starts=[0.0, 0.0, 0.4, 0.02], per_row=True,
    sigma1=1.0, c=1.0, mu_bar=0.0, n_paths=9, block=4, elems=24, threads="2", seed=5,
)
# paths from 0.4 that reach x = 0 mid-run, under u = 0 and u > 0 in one block
@example(
    controls=[0.0, 1.0, 0.1], starts=[0.4, 0.0, 0.0, 0.0], per_row=False,
    sigma1=1.0, c=2.5, mu_bar=0.0, n_paths=12, block=8, elems=24, threads="2", seed=5,
)
def test_accumulation_equals_written_out_payoff(
    controls, starts, per_row, sigma1, c, mu_bar, n_paths, block, elems,
    threads, seed,
):
    """expected_payoffs' per-path totals and invalid flags equal the written-out
    sum bit for bit, and its clamped-path counts count the written-out flags."""
    model = ModelParams(a=0.5, sigma1=sigma1, sigma2=0.2)
    p = pay(c=c, mu_bar=mu_bar, horizon=0.5)
    x0 = starts[: len(controls)] if per_row else starts[0]
    want = reference_accumulation(x0, controls, model, p, 0.05, n_paths, seed)
    with pytest.MonkeyPatch.context() as mp:
        # each estimate becomes the (totals, clamped count, invalid flags) it reduces
        mp.setattr(payoff, "_estimate", lambda *rows: rows)
        mp.setattr(dynamics, "_BLOCK_PATHS", block)
        mp.setattr(dynamics, "_BLOCK_ELEMS", elems)
        mp.setenv("STUBBORN_THREADS", threads)
        got = expected_payoffs(x0, controls, model, p, 0.05, n_paths, seed)
    assert len(got) == len(controls)
    want_totals, want_clamped, want_invalid = want
    for i, (totals, clamped, invalid) in enumerate(got):
        assert np.array_equal(want_totals[i], totals, equal_nan=True), (i, controls)
        assert clamped == np.count_nonzero(want_clamped[i]), (i, controls)
        assert np.array_equal(want_invalid[i], invalid), (i, controls)


def test_estimate_reduces_the_valid_paths_only():
    totals = np.array([2.0, 5.0, 3.0, 11.0])
    none_valid = payoff._estimate(totals, 1, np.ones(4, dtype=bool))
    assert math.isnan(none_valid.mean) and math.isnan(none_valid.std_error)
    assert none_valid.invalid_fraction == 1.0 and none_valid.clamp_fraction == 0.25
    one_valid = payoff._estimate(totals, 1, np.array([True, True, False, True]))
    assert (one_valid.mean, one_valid.std_error) == (3.0, 0.0)
    assert one_valid.invalid_fraction == 0.75
    two_valid = payoff._estimate(totals, 1, np.array([True, False, True, False]))
    want = (8.0, float(np.std([5.0, 11.0], ddof=1) / math.sqrt(2)))
    assert (two_valid.mean, two_valid.std_error) == want
    assert (two_valid.mean, two_valid.std_error) == payoff._mean_and_error(np.array([5.0, 11.0]))
