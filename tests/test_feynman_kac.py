import math

import numpy as np
import pytest

from stubborn import dynamics
from stubborn.feynman_kac import FKProblem, fk_estimate, fk_pde_residual_check, pde_stencil
from stubborn.model import ModelParams, State

FROZEN = ModelParams(a=0.0, sigma1=0.0, sigma2=0.0)


def problem(V=None, Theta=None, T_term=None, dynamics=FROZEN, horizon=1.0):
    return FKProblem(
        V=V or (lambda s, x, u: 0.0),
        Theta=Theta or (lambda s, x, u: 0.0),
        T_term=T_term or (lambda t, x: x),
        dynamics=dynamics,
        u=0.0,
        horizon=horizon,
    )


def test_terminal_collapse_frozen():
    prob = problem(T_term=lambda t, x: 3.0 * x + 1.0)
    mean, se = fk_estimate(prob, 0.0, 2.0, 0.1, 32, seed=0)
    assert mean == 7.0
    assert se == 0.0


def test_frozen_discount_exact():
    r = 0.35
    prob = problem(V=lambda s, x, u: r)
    s0, x0 = 0.2, 1.3
    mean, _ = fk_estimate(prob, s0, x0, 0.01, 8, seed=1)
    assert mean == pytest.approx(x0 * math.exp(-r * (1.0 - s0)), rel=1e-12)


def test_constant_source_integrates_to_elapsed_time():
    prob = problem(Theta=lambda s, x, u: 1.0, T_term=lambda t, x: 0.0)
    mean, _ = fk_estimate(prob, 0.25, 1.0, 0.01, 8, seed=1)
    assert mean == pytest.approx(0.75, rel=1e-12)
    # a source equal to the clock checks that the steps start at s, not 0:
    # the left Riemann sum of s1 over [0.25, 1] with dt = 0.01
    prob = problem(Theta=lambda s, x, u: s, T_term=lambda t, x: 0.0)
    mean, _ = fk_estimate(prob, 0.25, 1.0, 0.01, 8, seed=1)
    assert mean == pytest.approx(0.75 * 0.25 + 0.01 * 0.01 * 74 * 75 / 2, rel=1e-12)


def test_linearity_with_common_random_numbers():
    noisy = ModelParams(a=0.3, sigma1=0.3, sigma2=0.1)
    th1 = lambda s, x, u: 0.5 * x
    th2 = lambda s, x, u: math.sin(1.0) * 0.2 + 0.0 * x
    both = lambda s, x, u: th1(s, x, u) + th2(s, x, u)
    kw = dict(s=0.0, x=1.0, dt=0.02, n_paths=500, seed=44)
    e1, _ = fk_estimate(problem(Theta=th1, dynamics=noisy), **kw)
    e2, _ = fk_estimate(problem(Theta=th2, dynamics=noisy), **kw)
    e12, _ = fk_estimate(problem(Theta=both, dynamics=noisy), **kw)
    e0, _ = fk_estimate(problem(dynamics=noisy), **kw)
    assert e12 == pytest.approx(e1 + e2 - e0, abs=1e-12)


def test_discount_monotone_in_potential():
    noisy = ModelParams(a=0.3, sigma1=0.3, sigma2=0.1)
    kw = dict(s=0.0, x=1.0, dt=0.02, n_paths=500, seed=13)
    lo, _ = fk_estimate(problem(V=lambda s, x, u: 0.1, dynamics=noisy), **kw)
    hi, _ = fk_estimate(problem(V=lambda s, x, u: 0.4, dynamics=noisy), **kw)
    assert hi <= lo  # T >= 0 and the same paths: larger V only shrinks the weight


def test_terminal_consistency_as_dt_shrinks():
    r = 0.5
    prob = problem(V=lambda s, x, u: r)
    x0 = 2.0
    errs = []
    for dt in (0.1, 0.01):
        mean, _ = fk_estimate(prob, 1.0 - dt, x0, dt, 4, seed=2)
        errs.append(abs(mean - x0))
    assert errs[1] < errs[0]
    # e^{-r dt} ~ 1 - r dt: the defect scales linearly in dt
    assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.06)


def test_pde_residual_constant_solution():
    prob = problem(T_term=lambda t, x: 4.2)
    res = fk_pde_residual_check(prob, lambda s, x: 4.2, State(s=0.5, x=1.0))
    assert res == 0.0


def test_pde_residual_frozen_discount_analytic():
    r = 0.35
    prob = problem(V=lambda s, x, u: r)
    phi = lambda s, x: x * math.exp(-r * (1.0 - s))
    res = fk_pde_residual_check(prob, phi, State(s=0.5, x=1.3), hs=1e-4, hx=1e-4)
    scale = r * phi(0.5, 1.3)
    assert abs(res) <= 1e-6 * scale


def test_pde_residual_monte_carlo_within_propagated_error():
    model = ModelParams(a=0.2, sigma1=0.3, sigma2=0.0)
    r = 0.3
    prob = FKProblem(
        V=lambda s, x, u: r,
        Theta=lambda s, x, u: 0.0,
        T_term=lambda t, x: x,
        dynamics=model,
        u=0.0,
        horizon=1.0,
    )
    point = State(s=0.5, x=1.0)
    hs, hx = 0.05, 0.1
    nodes, theta0 = pde_stencil(prob, point, hs, hx)
    total, var = theta0, 0.0
    for idx, (si, xi, w) in enumerate(nodes):
        mean, se = fk_estimate(prob, si, xi, 0.01, 20_000, seed=100 + idx)
        total += w * mean
        var += (w * se) ** 2
    assert abs(total) <= 3.0 * math.sqrt(var), (total, math.sqrt(var))


def test_estimator_validates_inputs():
    with pytest.raises(ValueError, match="precede"):
        fk_estimate(problem(), 1.0, 1.0, 0.1, 4, seed=0)
    with pytest.raises(ValueError, match="insufficient grid"):
        pde_stencil(problem(), State(s=0.0, x=1.0), 0.1, 0.1)
    with pytest.raises(ValueError, match="insufficient grid"):
        pde_stencil(problem(), State(s=0.99, x=1.0), 0.05, 0.1)


NOISY = ModelParams(a=0.3, sigma1=0.3, sigma2=0.1)


@pytest.mark.parametrize("dynamics_params", [FROZEN, NOISY], ids=["frozen", "noisy"])
@pytest.mark.parametrize("terminal", ["constant", "state"])
def test_scalar_fields_equal_array_fields_bit_for_bit(monkeypatch, dynamics_params, terminal):
    # numpy broadcasts a field's float against the paths; a field that fills
    # an array with it instead must give the same bits, at any worker count
    def fields(fill):
        T_term = (lambda t, x: fill(x, 1.5)) if terminal == "constant" else (lambda t, x: x)
        return problem(V=lambda s, x, u: fill(x, 0.3), Theta=lambda s, x, u: fill(x, 0.7),
                       T_term=T_term, dynamics=dynamics_params)

    as_float, as_array = fields(lambda x, c: c), fields(np.full_like)
    monkeypatch.setattr(dynamics, "_BLOCK_PATHS", 64)  # 300 paths in 5 blocks
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("STUBBORN_THREADS", threads)
        want = fk_estimate(as_float, 0.1, 1.2, 0.02, 300, seed=7)
        assert fk_estimate(as_array, 0.1, 1.2, 0.02, 300, seed=7) == want, threads
        results.append(want)
    assert results[0] == results[1]
    _mean, se = results[0]  # the paths spread only a state-dependent terminal
    assert (se > 1e-9) == (dynamics_params is NOISY and terminal == "state")
