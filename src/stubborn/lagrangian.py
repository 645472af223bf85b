"""The integrating-factor Lagrangian f(s, x, u) and its partial derivatives.

f bundles the discounted running payoff, a terminal constant, and the
multiplier terms built from the integrating factor h(s, x) = exp(sigma2*x)
that absorbs the -sigma2*x pieces of the dynamics:

    f = e^{-rs} * pi(s, x, u) + Mbar
        + h*l0 + (h_s*l0 + l1*h)
        + h_x * mu * l0
        + (1/2) * sigma^2 * h_xx        [optionally scaled by l0]

Two derivative modes are first-class:

* "paper"      -- the published partials verbatim, signs and coefficients
                  included.  These feed the closed-form optimal control.
* "consistent" -- the calculus-exact partials of the same f, validated
                  against extended-precision finite differences.

The two modes agree on f and f_u everywhere; their difference on f_x,
f_xx, f_xu is available in closed form via :func:`derivative_gap`.

The partials live once, in `_partials`, which takes x and u as floats or
float64 arrays and returns (f_u, f_x, f_xx, f_xu), not f: :func:`derivatives`
is its checked one-point entry, `density.model_fields` evaluates a whole x
grid with it in one call, and `control` reads the closed-form coefficients
A2 and A3 from it, the published f_x and f_xx at u = 0
(`control.closed_form_coeffs` for one cell, and the x row of an `optimize`
row in one call), and evaluates the stationarity condition with it on a
whole u grid (`root_scan`) or on one (x, u) per cell of an `optimize` row.
f itself lives once, in `_f_core`, which the two callers that return f
(`derivatives` and `density.model_fields`) call beside `_partials`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import LagrangeParams, ModelParams, PayoffParams, State
from .model import DERIVATIVE_MODES


class SingularCostError(ValueError):
    """The control cost c*u^2 / ((r - mu_bar) * sqrt(x)) is singular."""


class IntegratingFactor(NamedTuple):
    h: float
    h_s: float
    h_x: float
    h_xx: float


@dataclass(frozen=True)
class DerivativeBundle:
    """Values of f and its partials at one (s, x, u)."""

    f: float
    f_u: float
    f_x: float
    f_xx: float
    f_xu: float


@dataclass(frozen=True)
class FDCheckReport:
    """Per-component scaled errors of a bundle against finite differences."""

    rel_f_x: float
    rel_f_xx: float
    rel_f_u: float
    rel_f_xu: float

    def max_error(self) -> float:
        return max(self.rel_f_x, self.rel_f_xx, self.rel_f_u, self.rel_f_xu)


def default_terminal_constant(payoff: PayoffParams, x_ref: float) -> float:
    """omega * e^{-r t} * sqrt(x_ref): the terminal bonus frozen at a reference level."""
    return payoff.omega * np.exp(-payoff.r * payoff.horizon) * np.sqrt(x_ref)


def integrating_factor(state: State, model: ModelParams) -> IntegratingFactor:
    """h = exp(sigma2 * x) with h_s = 0, h_x = sigma2*h, h_xx = sigma2^2*h."""
    h = float(np.exp(model.sigma2 * state.x))
    return IntegratingFactor(h=h, h_s=0.0, h_x=model.sigma2 * h, h_xx=model.sigma2**2 * h)


def _require_positive_x(x: float, u: float) -> None:
    if x <= 0.0:
        if u != 0.0:
            raise SingularCostError("cost singular at x=0")
        raise ValueError("x must be positive")


def _f_core(s, x, u, model: ModelParams, payoff: PayoffParams, lagrange: LagrangeParams, Mbar):
    """Dtype-generic evaluation of f; works for float64 and longdouble alike.

    Mbar=None means :func:`default_terminal_constant` at x.
    """
    if Mbar is None:
        Mbar = default_terminal_constant(payoff, x)
    D = np.exp(-payoff.r * s)
    E = np.exp(model.sigma2 * x)
    k = payoff.c / (payoff.r - payoff.mu_bar)
    sqx = np.sqrt(x)
    mu = model.a * sqx - model.sigma2 * x - u
    sig = model.sigma1 - model.sigma2 * x
    l0, l1 = lagrange.l0, lagrange.l1
    return (
        D * (payoff.reward_coeff * x - k * u * u / sqx)
        + Mbar
        + E * l0
        + l1 * E
        + model.sigma2 * E * mu * l0
        + 0.5 * sig * sig * model.sigma2**2 * E
    )


def hand_coded_f(
    state: State,
    u: float,
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
    Mbar: float | None = None,
) -> float:
    """f written out in full for the worked dynamics (diffusion term unscaled by l0)."""
    _require_positive_x(state.x, u)
    return float(_f_core(state.s, state.x, u, model, payoff, lagrange, Mbar))


def assemble_f_from_generator(
    state: State,
    u: float,
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
    Mbar: float | None = None,
    scale_diffusion_by_l0: bool = False,
) -> float:
    """f assembled term by term from the integrating factor and the SDE coefficients.

    The (1/2)*sigma^2*h_xx term is scaled by l0 only when
    scale_diffusion_by_l0 is set; the default matches :func:`hand_coded_f`.
    """
    from .dynamics import drift, diffusion  # local import avoids a cycle

    _require_positive_x(state.x, u)
    if Mbar is None:
        Mbar = default_terminal_constant(payoff, state.x)
    h, h_s, h_x, h_xx = integrating_factor(state, model)
    D = float(np.exp(-payoff.r * state.s))
    k = payoff.c / (payoff.r - payoff.mu_bar)
    pi = payoff.reward_coeff * state.x - k * u * u / np.sqrt(state.x)
    mu = drift(state.x, u, model)
    sig = diffusion(state.x, model)
    l0, l1 = lagrange.l0, lagrange.l1
    diff_term = 0.5 * sig * sig * h_xx
    if scale_diffusion_by_l0:
        diff_term *= l0
    return float(D * pi + Mbar + h * l0 + (h_s * l0 + l1 * h) + h_x * mu * l0 + diff_term)


def _partials(s, x, u, model: ModelParams, payoff: PayoffParams, lagrange: LagrangeParams,
              mode: str):
    """(f_u, f_x, f_xx, f_xu) at (s, x, u); x and u are floats or float64 arrays.

    The one copy of the partials, shared by :func:`derivatives` (one point),
    :func:`stubborn.density.model_fields` (an x grid),
    `stubborn.control._nash_sides` (a u grid, or one u per x) and the
    closed-form coefficients at u = 0 (`stubborn.control.closed_form_coeffs`,
    and an `optimize` row's x grid in one call).  f is not among them: it
    depends on the terminal constant Mbar, which no partial does, and only
    `derivatives` and `model_fields` return it, from `_f_core`.  Each element
    of an array evaluation equals the one-point value bit for bit.  Checks
    nothing; a non-array x is evaluated in Python floats, which is faster
    than numpy scalars and gives the same bits.
    """
    s2 = model.sigma2
    a = model.a
    D = float(np.exp(-payoff.r * s))
    E = np.exp(s2 * x)
    sqx = np.sqrt(x)
    if not isinstance(x, np.ndarray):
        E, sqx = float(E), float(sqx)
    k = payoff.c / (payoff.r - payoff.mu_bar)
    x15 = x * sqx
    x25 = x * x * sqx
    mu = a * sqx - s2 * x - u
    sig = model.sigma1 - s2 * x
    l0, l1 = lagrange.l0, lagrange.l1

    f_u = -2.0 * k * u * D / sqx - s2 * E * l0

    if mode == "consistent":
        f_x = (
            D * (payoff.reward_coeff + k * u * u / (2.0 * x15))
            + s2 * E * l0
            + s2 * l1 * E
            + l0 * (s2 * s2 * E * mu + s2 * E * (a / (2.0 * sqx) - s2))
            - sig * s2**3 * E
            + 0.5 * sig * sig * s2**3 * E
        )
        f_xx = (
            -0.75 * k * u * u * D / x25
            + s2 * s2 * E * l0
            + s2 * s2 * l1 * E
            + l0
            * (
                s2**3 * E * mu
                + 2.0 * s2 * s2 * E * (a / (2.0 * sqx) - s2)
                - s2 * E * a / (4.0 * x15)
            )
            + s2**4 * E
            - 2.0 * sig * s2**4 * E
            + 0.5 * sig * sig * s2**4 * E
        )
        f_xu = k * u * D / x15 - s2 * s2 * E * l0
    else:
        f_x = (
            D * (payoff.reward_coeff - k * u * u / (2.0 * x15))
            + s2 * E * (l0 + l1 + (a / (2.0 * sqx) - s2) * l0 + s2 * mu * l0)
            - sig * s2**3 * E
            + 0.5 * sig * sig * s2**3 * E
        )
        f_xx = (
            3.75 * k * u * u * D / x25
            + s2 * s2 * E * l0
            + s2 * s2 * l1 * E
            + s2 * s2 * E * (a / (2.0 * sqx) - s2) * l0
            - s2 * E * (3.0 * a / (4.0 * x25)) * l0
            + s2**3 * E * mu * l0
            + s2 * s2 * E * (a / (2.0 * sqx)) * l0
            - s2 * s2 * E * (a / (4.0 * x15)) * l0
            + s2**4 * E
            - sig * s2**5 * E
            + 0.5 * sig * sig * s2**4 * E
        )
        f_xu = -k * u * D / x15
    return f_u, f_x, f_xx, f_xu


def derivatives(
    state: State,
    u: float,
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
    mode: str = "paper",
    Mbar: float | None = None,
) -> DerivativeBundle:
    """f and its partials at (s, x, u) in the requested mode.

    mode="paper" reproduces the published expressions exactly as printed;
    mode="consistent" returns the exact partials of :func:`hand_coded_f`.
    The mixed third derivative f_xxu is treated as 0 by the published
    route and is not stored.
    """
    if mode not in DERIVATIVE_MODES:
        raise ValueError(f"mode must be one of {DERIVATIVE_MODES}")
    _require_positive_x(state.x, u)
    f = _f_core(state.s, state.x, u, model, payoff, lagrange, Mbar)
    f_u, f_x, f_xx, f_xu = _partials(state.s, state.x, u, model, payoff, lagrange, mode)
    return DerivativeBundle(f=float(f), f_u=float(f_u), f_x=float(f_x), f_xx=float(f_xx),
                            f_xu=float(f_xu))


def derivative_gap(
    state: State,
    u: float,
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
) -> tuple[float, float, float]:
    """Closed-form difference (published minus calculus-exact) on (f_x, f_xx, f_xu).

    f and f_u carry no gap.  The f_x gap is twice the cost-derivative term;
    the f_xx gap adds a u-independent sigma2^4*(2 - sigma2) piece and, for
    l0 != 0, multiplier terms; the f_xu gap flips the sign of the cost term
    and drops the l0 term.
    """
    _require_positive_x(state.x, u)
    s, x = state.s, state.x
    s2, a = model.sigma2, model.a
    D = float(np.exp(-payoff.r * s))
    E = float(np.exp(s2 * x))
    k = payoff.c / (payoff.r - payoff.mu_bar)
    sqx = float(np.sqrt(x))
    x15 = x * sqx
    x25 = x * x * sqx
    sig = model.sigma1 - s2 * x
    l0 = lagrange.l0

    gap_fx = -k * u * u * D / x15
    gap_fxx = (
        4.5 * k * u * u * D / x25
        + sig * s2**4 * (2.0 - s2) * E
        + l0 * E * (s2**3 - 3.0 * a * s2 / (4.0 * x25) + a * (s2 - s2 * s2) / (4.0 * x15))
    )
    gap_fxu = -2.0 * k * u * D / x15 + s2 * s2 * E * l0
    return gap_fx, gap_fxx, gap_fxu


def _scaled_error(got: float, want: float, scale: float) -> float:
    """|got - want| over the size of the terms, max(|got|, |want|, |scale|).

    The scale stands in for the terms that got and want are made from, so
    a value that passes through zero is not compared with itself alone.
    Zero when all three are zero.
    """
    size = max(abs(got), abs(want), abs(scale))
    return abs(got - want) / size if size > 0.0 else 0.0


def _central_stencils(F, x, uu, h) -> tuple[float, float, float, float]:
    """(f_x, f_xx, f_u, f_xu) by central differences at step h."""
    f_pp = F(x + h, uu + h)
    f_pm = F(x + h, uu - h)
    f_mp = F(x - h, uu + h)
    f_mm = F(x - h, uu - h)
    f_px = F(x + h, uu)
    f_mx = F(x - h, uu)
    f_pu = F(x, uu + h)
    f_mu = F(x, uu - h)
    f_00 = F(x, uu)
    return (
        float((f_px - f_mx) / (2 * h)),
        float((f_px - 2 * f_00 + f_mx) / (h * h)),
        float((f_pu - f_mu) / (2 * h)),
        float((f_pp - f_pm - f_mp + f_mm) / (4 * h * h)),
    )


def finite_difference_check(
    state: State,
    u: float,
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
    step: float = 1e-5,
) -> FDCheckReport:
    """Central-difference validation of derivatives(mode="consistent") against f itself.

    Stencils run in extended precision (longdouble) so that the second and
    mixed differences are not drowned by float64 cancellation at the
    requested step size.  Each derivative combines the step and half-step
    stencils by Richardson extrapolation, (4*D(h/2) - D(h))/3, cancelling
    the h^2 truncation term.  Each error is :func:`_scaled_error` with the
    value |f| at the point as its scale: the stencils difference values of
    f, so their error grows with |f|, and a partial that passes through
    zero (f_xx often does) is not measured against its own near-zero size.
    The published partials differ from these by :func:`derivative_gap`.
    """
    if state.x - step <= 0.0:
        raise ValueError("x - step must stay positive for the stencil")
    Mbar = default_terminal_constant(payoff, state.x)
    bundle = derivatives(state, u, model, payoff, lagrange, mode="consistent", Mbar=Mbar)

    ld = np.longdouble
    s, x, uu, h = ld(state.s), ld(state.x), ld(u), ld(step)

    def F(xv, uv):
        return _f_core(s, xv, uv, model, payoff, lagrange, ld(Mbar))

    coarse = _central_stencils(F, x, uu, h)
    fine = _central_stencils(F, x, uu, h / 2)
    fd_fx, fd_fxx, fd_fu, fd_fxu = ((4.0 * f - c) / 3.0 for f, c in zip(fine, coarse))

    return FDCheckReport(
        rel_f_x=_scaled_error(bundle.f_x, fd_fx, bundle.f),
        rel_f_xx=_scaled_error(bundle.f_xx, fd_fxx, bundle.f),
        rel_f_u=_scaled_error(bundle.f_u, fd_fu, bundle.f),
        rel_f_xu=_scaled_error(bundle.f_xu, fd_fxu, bundle.f),
    )
