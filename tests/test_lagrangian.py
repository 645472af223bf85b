import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stubborn import checks
from stubborn.density import model_fields
from stubborn.lagrangian import (
    SingularCostError,
    assemble_f_from_generator,
    default_terminal_constant,
    derivative_gap,
    derivatives,
    finite_difference_check,
    hand_coded_f,
    integrating_factor,
)
from stubborn.model import (
    DERIVATIVE_MODES, LagrangeParams, ModeFlags, ModelParams, PayoffParams, State,
)

NO_LAG = LagrangeParams()


def pay(**overrides):
    base = dict(
        theta=1.0, alpha1=0.0, alpha2=0.0, alpha3=0.0,
        c=1.0, r=0.5, mu_bar=0.0, omega=1.0, horizon=1.0,
    )
    base.update(overrides)
    return PayoffParams(**base)


def test_integrating_factor_values():
    h = integrating_factor(State(s=0, x=0.0), ModelParams(a=0, sigma1=0, sigma2=0.7))
    assert h.h == 1.0 and h.h_s == 0.0

    h2 = integrating_factor(State(s=0, x=2.0), ModelParams(a=0, sigma1=0, sigma2=0.5))
    assert h2.h == pytest.approx(math.e)
    assert h2.h_x == pytest.approx(0.5 * math.e)
    assert h2.h_xx == pytest.approx(0.25 * math.e)

    h3 = integrating_factor(State(s=0, x=3.0), ModelParams(a=0, sigma1=0, sigma2=0.0))
    assert (h3.h, h3.h_x, h3.h_xx) == (1.0, 0.0, 0.0)


def test_hand_coded_f_values():
    p = pay(r=1.0)
    f1 = hand_coded_f(State(s=0, x=1.0), 0.0, ModelParams(a=0, sigma1=1, sigma2=1), p, NO_LAG, Mbar=0.0)
    assert f1 == pytest.approx(1.0, rel=1e-15)
    f2 = hand_coded_f(State(s=0, x=1.0), 0.0, ModelParams(a=0, sigma1=2, sigma2=1), p, NO_LAG, Mbar=0.0)
    assert f2 == pytest.approx(1.0 + math.e / 2.0, rel=1e-15)
    # all multiplier terms and the diffusion term collapse at sigma2 = 0
    f3 = hand_coded_f(State(s=0.3, x=2.0), 0.4, ModelParams(a=0.5, sigma1=0.7, sigma2=0.0), p, NO_LAG, Mbar=0.0)
    disc = math.exp(-p.r * 0.3)
    pi = 1.0 * 2.0 - 1.0 * 0.16 / ((1.0 - 0.0) * math.sqrt(2.0))
    assert f3 == pytest.approx(disc * pi, rel=1e-15)


def test_generator_assembly_strict_multiplier_scaling():
    # With every multiplier-scaled term zeroed the generator route leaves
    # only the discounted payoff.
    p = pay()
    model = ModelParams(a=0.5, sigma1=0.8, sigma2=0.6)
    st = State(s=0.2, x=1.3)
    f = assemble_f_from_generator(st, 0.3, model, p, NO_LAG, Mbar=0.0, scale_diffusion_by_l0=True)
    disc = math.exp(-p.r * st.s)
    pi = st.x - 0.09 * 2.0 / math.sqrt(st.x)
    assert f == pytest.approx(disc * pi, rel=1e-14)


def test_generator_assembly_with_unit_multiplier():
    p = pay()
    st = State(s=0.1, x=2.0)
    model = ModelParams(a=0.4, sigma1=0.0, sigma2=0.0)
    lag = LagrangeParams(l0=1.0, l1=0.0)
    f = assemble_f_from_generator(st, 0.2, model, p, lag, Mbar=3.0)
    disc = math.exp(-p.r * st.s)
    pi = 2.0 - 0.04 * 2.0 / math.sqrt(2.0)
    # h == 1, h_x = h_xx = 0: only the bare multiplier increment survives
    assert f == pytest.approx(disc * pi + 3.0 + 1.0, rel=1e-14)


def test_generator_assembly_matches_hand_coded():
    rng = np.random.default_rng(8)
    p = pay(alpha1=0.1, alpha2=0.2, alpha3=0.05)
    for _ in range(50):
        model = ModelParams(
            a=rng.uniform(0, 2), sigma1=rng.uniform(0, 1), sigma2=rng.uniform(0, 1.5)
        )
        lag = LagrangeParams(l0=rng.uniform(-1, 1), l1=rng.uniform(-1, 1))
        st = State(s=rng.uniform(0, 1), x=rng.uniform(0.05, 4))
        u = rng.uniform(0, 1)
        f_gen = assemble_f_from_generator(st, u, model, p, lag, Mbar=0.7)
        f_hand = hand_coded_f(st, u, model, p, lag, Mbar=0.7)
        assert f_gen == pytest.approx(f_hand, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0.0, 2.0),
    x=st.floats(1e-3, 10.0),
    u=st.floats(0.0, 1.0),
    a=st.floats(0.0, 3.0),
    sigma1=st.floats(0.0, 1.0),
    sigma2=st.floats(0.0, 1.5),
    l0=st.floats(-1.0, 1.0),
    l1=st.floats(-1.0, 1.0),
    mode=st.sampled_from(DERIVATIVE_MODES),
    Mbar=st.none() | st.floats(-2.0, 2.0),
)
def test_f_is_one_value_on_every_route(s, x, u, a, sigma1, sigma2, l0, l1, mode, Mbar):
    # f has one home: the bundle, the density fields and the hand-coded
    # oracle agree bit for bit, with Mbar given or left to its default
    model = ModelParams(a=a, sigma1=sigma1, sigma2=sigma2)
    p = pay(alpha1=0.2, alpha2=0.1, alpha3=0.05, c=1.3, r=0.6, mu_bar=0.1, horizon=1.5)
    lag = LagrangeParams(l0=l0, l1=l1)
    state = State(s=s, x=x)
    f_bundle = derivatives(state, u, model, p, lag, mode=mode, Mbar=Mbar).f
    f_grid, _f_x, _f_xx = model_fields(u, model, p, lag, ModeFlags(derivative_mode=mode),
                                       Mbar)(s, np.array([x]))
    f_hand = hand_coded_f(state, u, model, p, lag, Mbar=Mbar)
    assert f_bundle == f_grid[0] == f_hand


def test_derivatives_vanish_at_zero_control():
    p = pay()
    model = ModelParams(a=0.8, sigma1=0.4, sigma2=0.5)
    for mode in ("paper", "consistent"):
        b = derivatives(State(s=0.2, x=1.1), 0.0, model, p, NO_LAG, mode=mode)
        assert b.f_u == 0.0
        assert b.f_xu == 0.0


def test_fd_check_consistent_at_pinned_point():
    p = pay(alpha1=0.1, alpha2=0.1, alpha3=0.1)
    model = ModelParams(a=1.2, sigma1=0.3, sigma2=0.6)
    lag = LagrangeParams(l0=0.2, l1=-0.1)
    report = finite_difference_check(State(s=0.3, x=0.8), 0.4, model, p, lag, step=1e-5)
    assert report.max_error() <= 1e-5


def test_derivative_gap_vanishes_at_zero_control_sigma2_zero():
    # Every published-vs-exact gap carries u, l0 or sigma2 factors; with all
    # three absent the published partials are the exact ones.
    p = pay()
    model = ModelParams(a=1.0, sigma1=0.5, sigma2=0.0)
    assert derivative_gap(State(s=0.2, x=1.5), 0.0, model, p, NO_LAG) == (0.0, 0.0, 0.0)


def test_mode_gap_formulas_are_exact():
    rng = np.random.default_rng(12)
    p = pay(alpha1=0.2, alpha2=0.1, alpha3=0.05, c=1.7)
    for i in range(100):
        model = ModelParams(
            a=rng.uniform(0, 2), sigma1=rng.uniform(0, 1), sigma2=rng.uniform(0, 1.2)
        )
        lag = LagrangeParams(l0=rng.uniform(-0.4, 0.4), l1=rng.uniform(-0.4, 0.4)) if i % 2 else NO_LAG
        st = State(s=rng.uniform(0, 1), x=rng.uniform(0.1, 5))
        u = rng.uniform(0, 1)
        bp = derivatives(st, u, model, p, lag, mode="paper")
        bc = derivatives(st, u, model, p, lag, mode="consistent")
        assert bp.f == bc.f
        assert bp.f_u == bc.f_u
        gx, gxx, gxu = derivative_gap(st, u, model, p, lag)
        assert bp.f_x - bc.f_x == pytest.approx(gx, rel=1e-9, abs=1e-12)
        assert bp.f_xx - bc.f_xx == pytest.approx(gxx, rel=1e-9, abs=1e-12)
        assert bp.f_xu - bc.f_xu == pytest.approx(gxu, rel=1e-9, abs=1e-12)


def test_mode_agreement_at_zero_control():
    # At u = 0, l0 = 0 the modes agree on f, f_u, f_x, f_xu.  f_xx retains a
    # control-independent gap sigma_tilde*sigma2^4*(2 - sigma2)*exp(sigma2*x)
    # from the published second derivative; it vanishes only at sigma2 = 0
    # (or sigma2 = 2, or on the zero-diffusion locus).
    p = pay()
    model = ModelParams(a=0.6, sigma1=0.4, sigma2=0.9)
    st = State(s=0.3, x=1.2)
    bp = derivatives(st, 0.0, model, p, NO_LAG, mode="paper")
    bc = derivatives(st, 0.0, model, p, NO_LAG, mode="consistent")
    assert bp.f == bc.f and bp.f_u == bc.f_u == 0.0
    assert bp.f_x == bc.f_x
    assert bp.f_xu == bc.f_xu == 0.0
    sig = model.sigma1 - model.sigma2 * st.x
    expected_gap = sig * model.sigma2**4 * (2.0 - model.sigma2) * math.exp(model.sigma2 * st.x)
    assert bp.f_xx - bc.f_xx == pytest.approx(expected_gap, rel=1e-12)

    flat = ModelParams(a=0.6, sigma1=0.4, sigma2=0.0)
    bp0 = derivatives(st, 0.0, flat, p, NO_LAG, mode="paper")
    bc0 = derivatives(st, 0.0, flat, p, NO_LAG, mode="consistent")
    assert bp0.f_xx == bc0.f_xx


def test_third_mixed_derivative_vanishes_at_zero_control():
    # Central difference of f_xx in u at u = 0 (l0 = 0): the cost term is
    # quadratic in u, so the mixed third derivative vanishes there.  For
    # u > 0 it does not, which is why both stationarity modes are exposed.
    p = pay()
    model = ModelParams(a=0.7, sigma1=0.5, sigma2=0.4)
    st = State(s=0.1, x=1.4)
    h = 1e-6

    def fxx(u):
        return derivatives(st, u, model, p, NO_LAG, mode="consistent").f_xx

    d3_at_zero = (fxx(h) - fxx(-h)) / (2 * h)
    assert abs(d3_at_zero) <= 1e-9
    d3_at_half = (fxx(0.5 + h) - fxx(0.5 - h)) / (2 * h)
    assert abs(d3_at_half) > 1e-3


def test_singular_cost_guards():
    p = pay()
    model = ModelParams(a=0.5, sigma1=0.3, sigma2=0.2)
    with pytest.raises(SingularCostError):
        hand_coded_f(State(s=0, x=0.0), 0.5, model, p, NO_LAG)
    with pytest.raises(SingularCostError):
        derivatives(State(s=0, x=0.0), 0.5, model, p, NO_LAG)
    with pytest.raises(ValueError):
        derivatives(State(s=0, x=0.0), 0.0, model, p, NO_LAG)


def test_default_terminal_constant():
    p = pay(omega=2.0, r=0.5, horizon=2.0)
    assert default_terminal_constant(p, 4.0) == pytest.approx(2.0 * math.exp(-1.0) * 2.0)
    # the default is frozen per call: f at perturbed x must use the same Mbar
    model = ModelParams(a=0.3, sigma1=0.4, sigma2=0.2)
    report = finite_difference_check(State(s=0.1, x=1.0), 0.3, model, p, NO_LAG, step=1e-5)
    assert report.max_error() <= 1e-5


@pytest.mark.parametrize("seed", [113, 120, 263])
def test_derivative_consistency_suite_where_terms_nearly_cancel(seed):
    # validate's numerics.seed 112, 119 and 262 (the suite runs at seed + 1)
    # drew the points of EDGE_POINTS from the PCG64 stream that the suites
    # once used; the counter stream draws other points at these seeds, and
    # the replay test below keeps the edge points themselves
    suite = checks.check_finite_differences(seed=seed)
    assert suite["passed"], suite


# The PCG64 unit draws of those points: at check seed 113 point 4, a
# published-minus-exact f_x gap of 1.6e-11 on partials of 0.61; at 120 point
# 93 and 263 point 12, an f_xx of 9.4e-8 and of -1.7e-8.  Each is right up to
# rounding or FD truncation when measured against the size of its terms.
# Odd points draw a multiplier, so point 93 follows the draws of point 92.
EDGE_POINTS = {
    "113/4": [
        0.672924854303115, 0.5385897036231736, 0.13762071899846562,
        0.07154136801114142, 0.12231612848938489, 0.26058960137656784,
        0.47248448925731723, 0.43724433078905434, 0.4142494012379351,
        0.08291053557610706, 0.9975919295830953, 0.4550797561285026,
        0.40927308619529734, 1.0652172318770248e-05,
    ],
    "120/93": [
        0.6837365161139252, 0.023477158139600163, 0.2583117549636681,
        0.3039979491301449, 0.31651743474234806, 0.4013005881941788,
        0.7692852677187951, 0.21121932063852977, 0.6618164921672604,
        0.5956899029919243, 0.3426258880235926, 0.11563898614855572,
        0.921251435538573, 0.6135845942897951,
        0.4248398323656637, 0.612855153761579, 0.8604736723613297,
        0.4240050581832171, 0.7095246894162318, 0.6495173432979482,
        0.03849490487403395, 0.027675084750110046, 0.8558248979211548,
        0.2505152396037442, 0.4267857806085481, 0.41885539036175623,
        0.24583396221913534, 0.3395246819997825, 0.5594365443357316,
        0.012754434387730051,
    ],
    "263/12": [
        0.05283396500279547, 0.8079322113706292, 0.8552397064766133,
        0.8228748131431333, 0.012304501268519785, 0.2037008281021616,
        0.3711499687525147, 0.9864252974391695, 0.9365002612792115,
        0.39921522372109464, 0.6762086135629346, 0.7143368949892743,
        0.8534492937727701, 0.0001917901512310527,
    ],
}


@pytest.mark.parametrize("point", EDGE_POINTS)
def test_derivative_consistency_suite_replays_its_edge_points(replay_draws, monkeypatch, point):
    units = EDGE_POINTS[point]
    replay_draws(units)
    # 14 draws for a point without a multiplier, 16 with one
    monkeypatch.setattr(checks, "FD_POINTS", 1 if len(units) == 14 else 2)
    suite = checks.check_finite_differences()
    assert suite["passed"], suite
