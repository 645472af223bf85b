"""The README quickstart, executed verbatim against the top-level exports."""

import math

from stubborn import (
    LagrangeParams,
    ModeFlags,
    ModelParams,
    PayoffParams,
    State,
    expected_payoff,
    optimal_stubbornness,
    simulate_batch,
    validate_params,
)


def test_readme_quickstart_flow():
    model = ModelParams(a=1.0, sigma1=0.3, sigma2=0.1)
    payoff = PayoffParams(
        theta=1.0, alpha1=0.1, alpha2=0.1, alpha3=0.1,
        c=1.0, r=0.5, mu_bar=0.0, omega=1.0, horizon=1.0,
    )
    lagrange = LagrangeParams()
    validate_params(model, payoff, lagrange)

    states, clamped = simulate_batch(
        1.0, 0.2, model, dt=0.01, horizon=1.0, seed=42, n_paths=1
    )
    path = states[0]
    assert len(path) == 101 and len(clamped[0]) == 101
    assert path[0] == 1.0

    est = expected_payoff(
        1.0, 0.2, model, payoff, dt=0.01, n_paths=1000, seed=42
    )
    assert math.isfinite(est.mean) and est.std_error > 0.0

    best = optimal_stubbornness(State(s=0.0, x=1.0), model, payoff, lagrange)
    assert 0.0 <= best.u_star <= 1.0
    assert math.isfinite(best.residual)
    assert ModeFlags().nash_mode == "paper" and ModeFlags().closed_form_mode == "rederived"

    flags = ModeFlags(derivative_mode="consistent", nash_mode="rederived")
    alt = optimal_stubbornness(State(s=0.0, x=1.0), model, payoff, lagrange, flags)
    assert 0.0 <= alt.u_star <= 1.0
