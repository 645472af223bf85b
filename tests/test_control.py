import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stubborn import checks, dynamics, lagrangian
from stubborn.control import (
    X_MIN,
    ClosedFormCoeffs,
    ClosedFormDomainError,
    _nash_sides,
    _solve_quadratic_stable,
    closed_form_coeffs,
    nash_residual,
    optimal_stubbornness,
    optimal_stubbornness_row,
    root_scan,
    scan_sign_changes,
    solve_quartic,
)
from stubborn.model import (
    LagrangeParams,
    ModeFlags,
    ModelParams,
    ParameterError,
    PayoffParams,
    State,
)
from stubborn.lagrangian import derivatives
from stubborn.payoff import expected_payoff

NO_LAG = LagrangeParams()
PP_MODES = ModeFlags(derivative_mode="paper", nash_mode="paper")


def pay(**overrides):
    base = dict(
        theta=1.0, alpha1=0.1, alpha2=0.1, alpha3=0.1,
        c=1.0, r=0.5, mu_bar=0.0, omega=1.0, horizon=1.0,
    )
    base.update(overrides)
    return PayoffParams(**base)


def test_trivial_root_in_every_mode_pair():
    model = ModelParams(a=0.9, sigma1=0.4, sigma2=0.3)
    st = State(s=0.3, x=1.7)
    for dm in ("paper", "consistent"):
        for nm in ("paper", "rederived"):
            modes = ModeFlags(derivative_mode=dm, nash_mode=nm)
            assert nash_residual(st, 0.0, model, pay(), NO_LAG, modes) == 0.0


MODE_PAIRS = [
    ModeFlags(derivative_mode=dm, nash_mode=nm)
    for dm in ("paper", "consistent")
    for nm in ("paper", "rederived")
]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0.0, 1.0),
    x=st.floats(0.01, 5.0),
    cells=st.lists(st.tuples(st.floats(0.01, 5.0), st.floats(0.0, 1.0)), min_size=1, max_size=16),
    a=st.floats(0.0, 2.0),
    sigma1=st.floats(0.0, 1.0),
    sigma2=st.floats(0.0, 1.5),
    c=st.floats(0.1, 4.0),
    l0=st.floats(-0.5, 0.5),
    l1=st.floats(-0.5, 0.5),
)
def test_array_sides_equal_scalar_residual_bit_for_bit(s, x, cells, a, sigma1, sigma2, c, l0, l1):
    # the array route that root_scan and the optimize residual column take
    # gives every element of the one-point nash_residual exactly
    model = ModelParams(a=a, sigma1=sigma1, sigma2=sigma2)
    p = pay(c=c)
    lag = LagrangeParams(l0=l0, l1=l1)
    grid = np.arange(1, 65) / 64
    xs, us = (np.array(col) for col in zip(*cells))
    for modes in MODE_PAIRS:
        lhs, rhs = _nash_sides(s, x, grid, model, p, lag, modes)
        want = [nash_residual(State(s=s, x=x), u, model, p, lag, modes) for u in grid.tolist()]
        assert _bits(lhs - rhs) == _bits(want), modes
        lhs, rhs = _nash_sides(s, xs, us, model, p, lag, modes)
        want = [nash_residual(State(s=s, x=xi), ui, model, p, lag, modes) for xi, ui in cells]
        assert _bits(lhs - rhs) == _bits(want), modes


def test_residual_zero_without_cost():
    # c = 0 removes every control-dependent term: the condition is flat.
    p = pay(c=0.0)
    model = ModelParams(a=0.5, sigma1=0.3, sigma2=0.2)
    for u in (0.0, 0.3, 0.7, 1.0):
        assert nash_residual(State(s=0.1, x=1.0), u, model, p, NO_LAG) == 0.0


def test_residual_sign_flip_matches_hand_root():
    # sigma2 = 0 collapses A3, and at s = 0 the stationarity condition
    # reduces to u * (k1*k2^2*z^2 - k3*z + k4) with z = u^2: solvable by hand.
    p = pay(theta=1.0, alpha1=0.5, alpha2=0.3, alpha3=0.2, c=4.0, r=0.25)
    model = ModelParams(a=0.0, sigma1=0.1, sigma2=0.0)
    st = State(s=0.0, x=1.0)
    rm = p.r - p.mu_bar
    beta = p.theta + p.alpha1 + p.alpha2 + p.alpha3
    k1 = -2.0 * p.c / rm
    k2 = 15.0 * p.c / (4.0 * rm)
    k3 = p.c**2 / rm**2
    k4 = 2.0 * beta * p.c / rm
    a_q = k1 * k2 * k2
    z_hand = (k3 - math.sqrt(k3 * k3 + 4.0 * (-a_q) * k4)) / (2.0 * a_q)
    u_hand = math.sqrt(z_hand)
    assert 0.0 < u_hand < 1.0

    r_lo = nash_residual(st, u_hand / 2.0, model, p, NO_LAG, PP_MODES)
    r_hi = nash_residual(st, min(1.0, 2.0 * u_hand), model, p, NO_LAG, PP_MODES)
    assert r_lo * r_hi < 0.0
    roots = root_scan(st, model, p, NO_LAG, PP_MODES, grid_n=64)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(u_hand, abs=1e-8)


def test_coefficients_reference_values():
    p = pay()
    cf = closed_form_coeffs(State(s=0.0, x=1.0), ModelParams(a=1, sigma1=0.3, sigma2=0.1), p, NO_LAG)
    assert cf.k1 == -4.0
    assert cf.k2 == 7.5
    assert cf.k3 == 4.0
    assert cf.k4 == pytest.approx(4.0 * cf.A2, rel=1e-15)


def test_coefficients_sigma2_zero():
    p = pay(alpha1=0.2, alpha2=0.2, alpha3=0.1)
    cf = closed_form_coeffs(State(s=0.0, x=2.0), ModelParams(a=1.0, sigma1=0.5, sigma2=0.0), p, NO_LAG)
    assert cf.A2 == p.theta + 0.5
    assert cf.A3 == 0.0


def test_coefficients_zero_diffusion_point():
    # sigma1 = sigma2*x: the middle and last A3 terms vanish.
    s2 = 0.5
    model = ModelParams(a=0.7, sigma1=s2 * 2.0, sigma2=s2)
    cf = closed_form_coeffs(State(s=0.0, x=2.0), model, pay(), NO_LAG)
    assert cf.A3 == pytest.approx(s2**4 * math.exp(s2 * 2.0), rel=1e-14)


def test_coefficients_are_control_free_parts_of_published_partials():
    # The published f_x and f_xx split as (cost term) + (u*l0 term) + A;
    # verifying the split ties the closed form to the derivative bundles.
    rng = np.random.default_rng(23)
    for _ in range(30):
        p = pay(
            c=rng.uniform(0.2, 3.0),
            r=rng.uniform(0.2, 0.9),
            mu_bar=rng.uniform(-0.3, 0.1),
        )
        model = ModelParams(
            a=rng.uniform(0, 1.5), sigma1=rng.uniform(0, 1), sigma2=rng.uniform(0, 1.2)
        )
        lag = LagrangeParams(l0=rng.uniform(-0.4, 0.4), l1=rng.uniform(-0.4, 0.4))
        st = State(s=rng.uniform(0, 1), x=rng.uniform(0.2, 3.0))
        u = rng.uniform(0, 1)
        cf = closed_form_coeffs(st, model, p, lag)
        b = derivatives(st, u, model, p, lag, mode="paper")
        D = math.exp(-p.r * st.s)
        E = math.exp(model.sigma2 * st.x)
        k = p.c / (p.r - p.mu_bar)
        cost_fx = -D * k * u * u / (2.0 * st.x ** 1.5)
        cost_fxx = D * 15.0 * k * u * u / (4.0 * st.x ** 2.5)
        assert b.f_x == pytest.approx(
            cost_fx - model.sigma2**2 * E * u * lag.l0 + cf.A2, rel=1e-12
        )
        assert b.f_xx == pytest.approx(
            cost_fxx - model.sigma2**3 * E * u * lag.l0 + cf.A3, rel=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(0.0, 1.0),
    x=st.floats(X_MIN, 5.0),
    a=st.floats(0.0, 2.0),
    sigma1=st.floats(0.0, 1.0),
    sigma2=st.floats(0.0, 1.5),
    c=st.floats(0.1, 4.0),
    r=st.floats(0.05, 1.0),
    mu_bar=st.floats(-0.5, 0.0),
    l0=st.floats(-0.5, 0.5),
    l1=st.floats(-0.5, 0.5),
)
# a feedback_grid cell where a copy of the formula with math.exp for D and
# E misses the partials in the last bit of both A2 and A3
@example(s=0.0, x=0.41875, a=2.0, sigma1=0.5, sigma2=0.5, c=2.5, r=0.5, mu_bar=0.0,
         l0=0.4, l1=0.0)
def test_coefficients_are_the_published_partials_at_zero_control(
    s, x, a, sigma1, sigma2, c, r, mu_bar, l0, l1
):
    # A2 and A3 are the published f_x and f_xx at u = 0, bit for bit
    state = State(s=s, x=x)
    model = ModelParams(a=a, sigma1=sigma1, sigma2=sigma2)
    p = pay(c=c, r=r, mu_bar=mu_bar)
    lag = LagrangeParams(l0=l0, l1=l1)
    cf = closed_form_coeffs(state, model, p, lag)
    b = derivatives(state, 0.0, model, p, lag, mode="paper")
    assert _bits([cf.A2, cf.A3]) == _bits([b.f_x, b.f_xx])


@settings(max_examples=30, deadline=None)
@given(
    s=st.floats(0.0, 1.0),
    xs=st.lists(st.floats(X_MIN, 5.0), min_size=1, max_size=12),
    below=st.floats(0.0, X_MIN, exclude_max=True),
    a=st.floats(0.0, 2.0),
    sigma1=st.floats(0.0, 1.0),
    sigma2=st.floats(0.0, 1.5),
    c=st.floats(0.1, 4.0),
    l0=st.floats(-0.5, 0.5),
    l1=st.floats(-0.5, 0.5),
)
def test_row_roots_equal_cell_closed_form(s, xs, below, a, sigma1, sigma2, c, l0, l1):
    # the row's array coefficients give each cell's one-cell roots exactly
    model = ModelParams(a=a, sigma1=sigma1, sigma2=sigma2)
    p = pay(c=c)
    lag = LagrangeParams(l0=l0, l1=l1)
    row_xs = [xs[0], below, *xs[1:]]
    for mode in ("rederived", "paper-verbatim"):
        modes = ModeFlags(closed_form_mode=mode)
        row, _n_ranked = optimal_stubbornness_row(s, row_xs, model, p, lag, modes,
                                                  dt=0.01, n_paths=2, seed=0)
        assert isinstance(row[1], ClosedFormDomainError)
        for x, got in zip(row_xs, row):
            if x < X_MIN:
                continue
            z_roots = solve_quartic(closed_form_coeffs(State(s=s, x=x), model, p, lag), mode)
            u_candidates = [math.sqrt(z) for z in z_roots if z >= 0.0]
            assert _bits(got.z_roots) == _bits(z_roots), (mode, x)
            assert _bits(got.u_candidates) == _bits(u_candidates), (mode, x)


def test_coefficient_sign_invariants():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = pay(
            c=rng.uniform(0.1, 5.0),
            r=rng.uniform(0.05, 1.0),
            mu_bar=rng.uniform(-0.5, 0.0),
        )
        model = ModelParams(
            a=rng.uniform(0, 2), sigma1=rng.uniform(0, 1), sigma2=rng.uniform(0, 1.5)
        )
        cf = closed_form_coeffs(
            State(s=rng.uniform(0, 1), x=rng.uniform(0.01, 5)), model, p, NO_LAG
        )
        assert cf.k1 < 0.0
        assert cf.k2 > 0.0
        assert cf.k3 > 0.0


def test_quartic_factored_case():
    # A3 = 0, k4 = 0 factor the polynomial as z*(k1*k2^2*z - k3).
    from stubborn.control import ClosedFormCoeffs

    cf = ClosedFormCoeffs(A2=0.0, A3=0.0, k1=-4.0, k2=7.5, k3=4.0, k4=0.0)
    roots = solve_quartic(cf, "rederived")
    expected = 4.0 / (-4.0 * 7.5**2)
    assert roots == sorted([0.0, expected])
    # only the nonnegative root is a valid z = u^2 candidate
    assert [z for z in roots if z >= 0.0] == [0.0]


def test_quartic_roots_satisfy_polynomial():
    rng = np.random.default_rng(77)
    from stubborn.checks import sample_root_scenario

    found = 0
    while found < 20:
        sc = sample_root_scenario(rng)
        if sc is None:
            continue
        found += 1
        cf = closed_form_coeffs(sc.state, sc.model, sc.payoff, sc.lagrange)
        scale = cf.coefficient_scale()
        for z in solve_quartic(cf, "rederived"):
            assert abs(cf.polynomial_residual(z)) <= 1e-9 * scale


def test_root_suite_draws_no_root_below_the_scan_grid():
    # check seed 1351 once drew a scenario whose only root, u = 0.001895,
    # lies below the scan's first grid point 1/512: the scan came back empty
    # and the suite failed on correct code
    suite = checks.check_root_residuals(seed=1351)
    assert suite["passed"], suite
    assert suite["max_closed_vs_scan"] <= checks.AGREE_TOL


def test_stationarity_route_evaluates_no_f(monkeypatch):
    # the condition needs the partials only: neither an optimize row nor a
    # root scan computes f or its terminal constant
    calls = []
    for name in ("_f_core", "default_terminal_constant"):
        original = getattr(lagrangian, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(lagrangian, name, spy)
    p = pay(theta=0.2, alpha1=0.05, alpha2=0.05, alpha3=0.0, c=2.0)
    model = ModelParams(a=0.6, sigma1=0.3, sigma2=0.4)
    results, _n_ranked = optimal_stubbornness_row(0.0, [0.5, 1.2, 2.0], model, p, NO_LAG,
                                                  PP_MODES, 0.01, 50, 0)
    assert all(0.0 < r.u_star < 1.0 for r in results)
    assert root_scan(State(s=0.0, x=1.2), model, p, NO_LAG, PP_MODES)
    assert calls == []
    # the spies are live: derivatives() returns f, so it calls both
    derivatives(State(s=0.0, x=1.2), 0.3, model, p, NO_LAG)
    assert calls == ["_f_core", "default_terminal_constant"]


def _coefficient():
    """0, or a magnitude in [0.01, 10] of either sign."""
    signed = st.builds(lambda m, sign: sign * m, st.floats(0.01, 10.0), st.sampled_from([-1.0, 1.0]))
    return st.just(0.0) | signed


@settings(max_examples=30, deadline=None)
@given(A3=_coefficient(), k1=_coefficient(), k2=_coefficient(), k3=_coefficient(),
       k4=_coefficient())
def test_stable_quadratic_roots_pass_residual_certificate(A3, k1, k2, k3, k4):
    # every root of the expanded quadratic satisfies the factored polynomial
    # k1*(k2*z + A3)^2 - k3*z + k4 to rounding of its own terms
    cf = ClosedFormCoeffs(A2=0.0, A3=A3, k1=k1, k2=k2, k3=k3, k4=k4)
    a, b, c = cf.quadratic_coeffs()
    roots = _solve_quadratic_stable(a, b, c)
    assert roots == sorted(roots)
    if a != 0.0 and b * b - 4.0 * a * c >= 0.0:
        assert len(roots) == 2
    for z in roots:
        t = abs(k2 * z) + abs(A3)
        size = abs(k1) * t * t + abs(k3 * z) + abs(k4)
        assert abs(cf.polynomial_residual(z)) <= 1e-12 * size


def test_printed_formula_diverges_generically():
    p = pay(theta=0.3, c=2.0)
    model = ModelParams(a=0.8, sigma1=0.4, sigma2=0.5)
    cf = closed_form_coeffs(State(s=0.0, x=1.0), model, p, NO_LAG)
    scale = cf.coefficient_scale()
    printed = solve_quartic(cf, "paper-verbatim")
    assert printed, "printed formula should produce real branches here"
    assert min(abs(cf.polynomial_residual(z)) for z in printed) > 1e-6 * scale


def test_printed_formula_agrees_in_degenerate_case():
    # A3 = 0 with k4 = 0: the printed formula's z = 0 branch satisfies the
    # polynomial exactly (the constant term vanishes).
    from stubborn.control import ClosedFormCoeffs

    cf = ClosedFormCoeffs(A2=0.0, A3=0.0, k1=-2.0, k2=3.0, k3=1.0, k4=0.0)
    printed = solve_quartic(cf, "paper-verbatim")
    residuals = [abs(cf.polynomial_residual(z)) for z in printed]
    assert min(residuals) == 0.0


def test_solve_quartic_linear_fallback_and_empty():
    from stubborn.control import ClosedFormCoeffs

    lin = ClosedFormCoeffs(A2=0, A3=0.0, k1=0.0, k2=1.0, k3=2.0, k4=1.0)
    assert solve_quartic(lin, "rederived") == [0.5]
    none = ClosedFormCoeffs(A2=0, A3=0.0, k1=-1.0, k2=1.0, k3=-3.0, k4=-4.0)
    # a = -1, b = 3, c = -4: discriminant 9 - 16 < 0
    assert solve_quartic(none, "rederived") == []


def test_optimal_stubbornness_without_cost():
    p = pay(c=0.0)
    model = ModelParams(a=0.5, sigma1=0.3, sigma2=0.2)
    res = optimal_stubbornness(State(s=0.0, x=1.0), model, p, NO_LAG)
    assert res.u_star == 0.0
    assert res.reason == "trivial root only"
    assert res.u_candidates == ()


def test_optimal_stubbornness_matches_scan():
    p = pay(theta=0.2, alpha1=0.05, alpha2=0.05, alpha3=0.0, c=2.0)
    model = ModelParams(a=0.6, sigma1=0.3, sigma2=0.4)
    st = State(s=0.0, x=1.2)
    res = optimal_stubbornness(st, model, p, NO_LAG, PP_MODES)
    assert 0.0 < res.u_star < 1.0
    scan = root_scan(st, model, p, NO_LAG, PP_MODES)
    nearest = min(scan, key=lambda u: abs(u - res.u_star))
    assert abs(res.u_star - nearest) <= 1e-3
    assert res.certificate <= 1e-6


def test_clamped_control_reported():
    # Tiny marginal cost pushes the root far above 1; the result clamps and
    # keeps the raw value.  No stationarity root exists inside (0, 1].
    p = pay(c=0.01)
    model = ModelParams(a=0.3, sigma1=0.2, sigma2=0.1)
    st = State(s=0.0, x=1.0)
    res = optimal_stubbornness(st, model, p, NO_LAG, PP_MODES)
    assert res.u_star == 1.0
    assert res.u_unclamped > 1.0
    assert root_scan(st, model, p, NO_LAG, PP_MODES) == []


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    n_paths=st.integers(1, 64),
    threads=st.sampled_from(["1", "2"]),
)
def test_two_candidates_ranked_by_payoff(seed, n_paths, threads):
    # Engineered negative-A3 regime with two z-roots in (0, 1).
    p = pay(theta=0.1, alpha1=5.0, alpha2=5.0, alpha3=4.9, c=1.0)
    model = ModelParams(a=0.3, sigma1=1.7, sigma2=2.0)
    state = State(s=0.0, x=0.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("STUBBORN_THREADS", threads)
        res = optimal_stubbornness(
            state, model, p, NO_LAG, PP_MODES, dt=0.01, n_paths=n_paths, seed=seed
        )
    assert len(res.u_candidates) == 2
    assert res.u_star in res.u_candidates
    # both candidates are exact stationarity roots at s = 0: their
    # residuals sit at rounding level relative to the condition's scale
    for u in res.u_candidates:
        lhs, rhs = _nash_sides(state.s, state.x, u, model, p, NO_LAG, PP_MODES)
        assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + abs(rhs))
    estimates = {
        u: expected_payoff(state.x, u, model, p, 0.01, n_paths, seed).mean
        for u in res.u_candidates
    }
    # the argmax of the single-candidate means; ties go to the smaller u,
    # and a NaN mean (every path invalid) never wins
    finite = {u: j for u, j in estimates.items() if not math.isnan(j)}
    if finite:
        best = max(finite.values())
        assert res.u_star == min(u for u, j in finite.items() if j == best)
        assert res.reason == "ok"
    else:
        assert res.u_star == min(res.u_candidates)
        assert res.reason == "no valid ranking path"


def test_all_invalid_ranking_paths_give_smallest_candidate():
    # Every ranking path of both candidates reaches the x = 0 clamp while
    # exercising u > 0, so neither payoff mean is finite.
    model = ModelParams(a=0.7330293173495849, sigma1=0.02563416560163878,
                        sigma2=2.4433820856933326)
    p = pay(theta=0.6824722377542138, alpha1=0.8485150416205114,
            alpha2=4.705806287514265, alpha3=4.96606056422636,
            c=0.8469391957841542, omega=0.3814985109883179)
    lagrange = LagrangeParams(l0=0.08533359382311034, l1=0.0)
    state = State(s=0.0, x=0.027820771748210814)
    res = optimal_stubbornness(state, model, p, lagrange, dt=0.01, n_paths=50, seed=0)
    assert len(res.u_candidates) == 2
    for u in res.u_candidates:
        est = expected_payoff(state.x, u, model, p, 0.01, 50, 0)
        assert math.isnan(est.mean)
    assert res.u_star == min(res.u_candidates)
    assert res.reason == "no valid ranking path"


ROW_MODEL = ModelParams(a=2.0, sigma1=0.5, sigma2=0.5)
ROW_PAYOFF = pay(c=2.5)
ROW_LAGRANGE = LagrangeParams(l0=0.4, l1=0.0)
# below the domain, two candidates, one candidate, trivial root only
ROW_XS = [0.0, 0.2, 0.3, 0.45, 1.0, 1.5, 2.8]


@settings(max_examples=30, deadline=None)
@given(
    s=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**63),
    n_paths=st.integers(1, 64),
    threads=st.sampled_from(["1", "2"]),
)
def test_row_equals_cell_by_cell(s, seed, n_paths, threads):
    """One ranking pass over a row gives each cell's single-cell result.

    The row's six ranking rows run in blocks of 8 paths, so two threads
    reach the pool from 9 paths on.
    """
    args = (ROW_MODEL, ROW_PAYOFF, ROW_LAGRANGE, ModeFlags())
    kwargs = dict(dt=0.01, n_paths=n_paths, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_BLOCK_PATHS", 8)
        mp.setenv("STUBBORN_THREADS", threads)
        row, n_ranked = optimal_stubbornness_row(s, ROW_XS, *args, **kwargs)
    assert len(row) == len(ROW_XS)
    assert isinstance(row[0], ClosedFormDomainError)
    sizes = [len(res.u_candidates) for res in row[1:]]
    assert {0, 1, 2} <= set(sizes)
    # the last step has no horizon left to rank over
    assert n_ranked == (0 if s == 1.0 else sizes.count(2))
    for x, got in zip(ROW_XS, row):
        try:
            want = optimal_stubbornness(State(s=s, x=x), *args, **kwargs)
        except ClosedFormDomainError as exc:
            want = exc
        if isinstance(want, ClosedFormDomainError):
            assert isinstance(got, ClosedFormDomainError) and str(got) == str(want), x
        else:
            assert got == want, x


def test_scan_finds_both_roots_even_on_coarse_grid():
    p = pay(theta=0.1, alpha1=5.0, alpha2=5.0, alpha3=4.9, c=1.0)
    model = ModelParams(a=0.3, sigma1=1.7, sigma2=2.0)
    st = State(s=0.0, x=0.5)
    coarse = root_scan(st, model, p, NO_LAG, PP_MODES, grid_n=10)
    fine = root_scan(st, model, p, NO_LAG, PP_MODES, grid_n=1000)
    assert len(coarse) == len(fine) == 2
    for a, b in zip(coarse, fine):
        assert abs(a - b) <= 1e-8


def test_scan_scale_invariance():
    fn = lambda u: (u - 0.37) * (u - 0.81) * np.exp(u)
    base = scan_sign_changes(fn, grid_n=50)
    scaled = scan_sign_changes(lambda u: 17.3 * fn(u), grid_n=50)
    assert base == scaled
    assert base == pytest.approx([0.37, 0.81], abs=1e-9)


def test_scan_evaluates_the_grid_in_one_call():
    # one array call over the whole grid, then one float per bisection step
    calls = []

    def spy(u):
        calls.append(u)
        return (u - 0.37) * (u - 0.81)

    assert scan_sign_changes(spy, grid_n=50) == pytest.approx([0.37, 0.81], abs=1e-9)
    assert isinstance(calls[0], np.ndarray)
    assert calls[0].tolist() == [i / 50 for i in range(1, 51)]
    assert len(calls) > 1 and all(type(u) is float for u in calls[1:])


def test_scan_rejects_tiny_grid():
    with pytest.raises(ValueError):
        scan_sign_changes(lambda u: u, grid_n=5)


def test_domain_guards():
    with pytest.raises(ClosedFormDomainError, match="state below closed-form domain"):
        closed_form_coeffs(State(s=0.0, x=1e-7), ModelParams(a=0, sigma1=0.1, sigma2=0), pay(), NO_LAG)
    with pytest.raises(ParameterError, match="r must exceed mu_bar"):
        closed_form_coeffs(
            State(s=0.0, x=1.0),
            ModelParams(a=0, sigma1=0.1, sigma2=0),
            pay(r=0.1, mu_bar=0.2),
            NO_LAG,
        )
