import pytest

from stubborn.model import (
    LagrangeParams,
    ModeFlags,
    ModelParams,
    ParameterError,
    PayoffParams,
    State,
    clamp_control,
    validate_params,
)


def make_bundle(**overrides):
    model = ModelParams(a=1.0, sigma1=0.3, sigma2=0.1)
    payoff = PayoffParams(
        theta=1.0, alpha1=0.1, alpha2=0.1, alpha3=0.1,
        c=1.0, r=0.5, mu_bar=0.0, omega=1.0, horizon=1.0,
    )
    lagrange = LagrangeParams()
    if "model" in overrides:
        model = overrides["model"]
    if "payoff" in overrides:
        payoff = overrides["payoff"]
    if "lagrange" in overrides:
        lagrange = overrides["lagrange"]
    return model, payoff, lagrange


def test_validate_accepts_reference_bundle():
    model, payoff, lagrange = make_bundle()
    assert validate_params(model, payoff, lagrange) == (model, payoff, lagrange)


def test_validate_is_idempotent():
    bundle = make_bundle()
    once = validate_params(*bundle)
    twice = validate_params(*once)
    assert twice == once == bundle


def test_r_must_exceed_mu_bar():
    model, payoff, lagrange = make_bundle()
    bad = PayoffParams(
        theta=1.0, alpha1=0.1, alpha2=0.1, alpha3=0.1,
        c=1.0, r=0.1, mu_bar=0.2, omega=1.0, horizon=1.0,
    )
    with pytest.raises(ParameterError, match="r must exceed mu_bar"):
        validate_params(model, bad, lagrange)


def test_negative_cost_rejected():
    model, _, lagrange = make_bundle()
    bad = PayoffParams(
        theta=1.0, alpha1=0.1, alpha2=0.1, alpha3=0.1,
        c=-1.0, r=0.5, mu_bar=0.0, omega=1.0, horizon=1.0,
    )
    with pytest.raises(ParameterError, match="c must be positive"):
        validate_params(model, bad, lagrange)


def test_first_violation_wins_in_declaration_order():
    # theta precedes c in the payoff checks; sigma1 precedes all payoff checks.
    model, _, lagrange = make_bundle()
    both_bad = PayoffParams(
        theta=-1.0, alpha1=0.0, alpha2=0.0, alpha3=0.0,
        c=-1.0, r=0.5, mu_bar=0.0, omega=1.0, horizon=1.0,
    )
    with pytest.raises(ParameterError, match="theta must be positive"):
        validate_params(model, both_bad, lagrange)
    bad_model = ModelParams(a=1.0, sigma1=-0.5, sigma2=0.1)
    with pytest.raises(ParameterError, match="sigma1 must be nonnegative"):
        validate_params(bad_model, both_bad, lagrange)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("omega", -2.0, "omega must be positive"),
        ("horizon", 0.0, "horizon must be positive"),
        ("alpha2", float("nan"), "alpha2 must be finite"),
    ],
)
def test_named_payoff_violations(field, value, message):
    model, payoff, lagrange = make_bundle()
    bad = PayoffParams(**{**payoff.__dict__, field: value})
    with pytest.raises(ParameterError, match=message):
        validate_params(model, bad, lagrange)


def test_lagrange_must_be_finite():
    model, payoff, _ = make_bundle()
    with pytest.raises(ParameterError, match="l0 must be finite"):
        validate_params(model, payoff, LagrangeParams(l0=float("inf")))


def test_state_structural_invariants():
    State(s=0.0, x=0.0)
    State(s=2.0, x=7.5)
    with pytest.raises(ParameterError):
        State(s=-0.1, x=1.0)
    with pytest.raises(ParameterError):
        State(s=0.0, x=-1e-9)


def test_control_bounds_and_clamp():
    assert clamp_control(1.7) == 1.0
    assert clamp_control(-0.3) == 0.0
    assert clamp_control(0.42) == 0.42


def test_mode_flags_defaults_and_validation():
    flags = ModeFlags()
    assert flags.derivative_mode == "paper"
    assert flags.nash_mode == "paper"
    assert flags.kernel_exponent_mode == "rederived"
    assert flags.closed_form_mode == "rederived"
    with pytest.raises(ParameterError):
        ModeFlags(derivative_mode="exact")
    with pytest.raises(ParameterError):
        ModeFlags(closed_form_mode="printed")
    cell = flags.describe()
    assert "," not in cell and "derivative=paper" in cell


def test_records_are_immutable():
    model, payoff, lagrange = make_bundle()
    with pytest.raises(AttributeError):
        model.a = 2.0
    with pytest.raises(AttributeError):
        payoff.c = 2.0
    with pytest.raises(AttributeError):
        lagrange.l0 = 1.0
