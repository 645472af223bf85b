"""Feedback-optimal stubbornness: stationarity residual, closed-form
coefficients, quartic solution, and an independent grid+bisection oracle.

The stationarity condition comes in two modes:

* nash_mode="paper":     f_u * f_xx^2 = 2 * f_x * f_xu
* nash_mode="rederived": f_u * f_xx   =     f_x * f_xu

Dividing the published factored equation by the trivial root u gives

    k1*(k2*z + A3)^2 - k3*z + k4 = 0,   z = u^2,

whose exact expansion is k1*k2^2 * z^2 + (2*k1*k2*A3 - k3) * z
+ (k1*A3^2 + k4) = 0.  closed_form_mode="rederived" solves that expansion;
"paper-verbatim" evaluates the printed root formula exactly as displayed
(leading product k1*k2, discriminant term k1*A3^2 - k4), which is retained
for reproduction and divergence measurement, not for production use.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

from .lagrangian import derivatives
from .model import (
    LagrangeParams,
    ModeFlags,
    ModelParams,
    ParameterError,
    PayoffParams,
    State,
    clamp_control,
)
from .payoff import constant_policy, expected_payoff

X_MIN = 1e-6
BISECT_WIDTH = 1e-10


class ClosedFormDomainError(ValueError):
    """The closed form is not evaluated below x = X_MIN."""


@dataclass(frozen=True)
class ClosedFormCoeffs:
    """Auxiliary coefficients of the factored stationarity equation at (s, x)."""

    A1: float
    A2: float
    A3: float
    k1: float
    k2: float
    k3: float
    k4: float

    def quadratic_coeffs(self) -> tuple[float, float, float]:
        """(a, b, c) of the exact expansion a*z^2 + b*z + c."""
        a = self.k1 * self.k2 * self.k2
        b = 2.0 * self.k1 * self.k2 * self.A3 - self.k3
        c = self.k1 * self.A3 * self.A3 + self.k4
        return a, b, c

    def coefficient_scale(self) -> float:
        a, b, c = self.quadratic_coeffs()
        return max(abs(a), abs(b), abs(c))

    def polynomial_residual(self, z: float) -> float:
        """k1*(k2*z + A3)^2 - k3*z + k4 evaluated at z."""
        t = self.k2 * z + self.A3
        return self.k1 * t * t - self.k3 * z + self.k4


@dataclass(frozen=True)
class OptimalControlResult:
    z_roots: tuple[float, ...]
    u_candidates: tuple[float, ...]
    candidate_residuals: tuple[float, ...]
    u_star: float
    u_unclamped: float
    residual: float
    nash_mode: str
    derivative_mode: str
    closed_form_mode: str
    reason: str

    def __post_init__(self) -> None:
        if not (0.0 <= self.u_star <= 1.0):
            raise ValueError("u_star must lie in [0, 1]")
        if not math.isfinite(self.residual):
            raise ValueError("residual must be finite")
        if any(u < 0.0 for u in self.u_candidates):
            raise ValueError("u_candidates must be nonnegative")
        if len(self.candidate_residuals) != len(self.u_candidates):
            raise ValueError("one residual per candidate required")


def _nash_sides(
    state: State,
    u: float,
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
    modes: ModeFlags,
) -> tuple[float, float]:
    """(lhs, rhs) of the stationarity condition at (s, x, u) under the selected mode pair."""
    b = derivatives(state, u, model, payoff, lagrange, mode=modes.derivative_mode)
    if modes.nash_mode == "paper":
        return b.f_u * b.f_xx * b.f_xx, 2.0 * b.f_x * b.f_xu
    return b.f_u * b.f_xx, b.f_x * b.f_xu


def nash_residual(
    state: State,
    u: float,
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
    modes: ModeFlags = ModeFlags(),
) -> float:
    """Stationarity defect lhs - rhs at (s, x, u) under the selected mode pair."""
    lhs, rhs = _nash_sides(state, u, model, payoff, lagrange, modes)
    return lhs - rhs


def nash_residual_scale(
    state: State,
    u: float,
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
    modes: ModeFlags = ModeFlags(),
) -> float:
    """Magnitude scale |lhs| + |rhs| of the stationarity condition at u."""
    lhs, rhs = _nash_sides(state, u, model, payoff, lagrange, modes)
    return abs(lhs) + abs(rhs)


def closed_form_coeffs(
    state: State,
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
) -> ClosedFormCoeffs:
    """A1-A3 and k1-k4 at (s, x), with d(lambda) := l0 and d(lambda)/ds := l1.

    A2 and A3 are the control-independent parts of the published f_x and
    f_xx; the k's are the building blocks of the factored quartic.
    """
    if state.x < X_MIN:
        raise ClosedFormDomainError("state below closed-form domain")
    if not payoff.r > payoff.mu_bar:
        raise ParameterError("r must exceed mu_bar")

    s, x = state.s, state.x
    s2, a = model.sigma2, model.a
    D = math.exp(-payoff.r * s)
    E = math.exp(s2 * x)
    sqx = math.sqrt(x)
    x15 = x * sqx
    x25 = x * x * sqx
    sig = model.sigma1 - s2 * x
    mu0 = a * sqx - s2 * x  # drift without the control term
    l0, l1 = lagrange.l0, lagrange.l1
    rm = payoff.r - payoff.mu_bar
    c = payoff.c

    A1 = s2 * E * l0
    A2 = (
        D * payoff.reward_coeff
        + s2 * E * (l0 + l1 + (a / (2.0 * sqx) - s2) * l0 + s2 * mu0 * l0)
        - sig * s2**3 * E
        + 0.5 * sig * sig * s2**3 * E
    )
    A3 = (
        s2 * s2 * E * l0
        + s2 * s2 * l1 * E
        + s2 * s2 * E * (a / (2.0 * sqx) - s2) * l0
        - s2 * E * (3.0 * a / (4.0 * x25)) * l0
        + s2**3 * E * mu0 * l0
        + s2 * s2 * E * (a / (2.0 * sqx)) * l0
        - s2 * s2 * E * (a / (4.0 * x15)) * l0
        + s2**4 * E
        - sig * s2**5 * E
        + 0.5 * sig * sig * s2**4 * E
    )
    k1 = -2.0 * c / (rm * sqx)
    k2 = 15.0 * c / (4.0 * rm * x25)
    k3 = c * c / (rm * rm * x**3)
    k4 = 2.0 * A2 * c * math.exp(-3.0 * payoff.r * s) / (rm * x15)
    return ClosedFormCoeffs(A1=A1, A2=A2, A3=A3, k1=k1, k2=k2, k3=k3, k4=k4)


def _solve_quadratic_stable(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*z^2 + b*z + c, ascending; stable against cancellation."""
    if a == 0.0:
        if b == 0.0:
            return []
        return [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    if b >= 0.0:
        q = -0.5 * (b + sq)
    else:
        q = -0.5 * (b - sq)
    if q == 0.0:
        roots = [0.0, 0.0]
    else:
        roots = [q / a, c / q]
    return sorted(roots)


def solve_quartic(coeffs: ClosedFormCoeffs, closed_form_mode: str = "rederived") -> list[float]:
    """Real candidate values of z = u^2 in ascending order.

    rederived: roots of the exact expansion k1*k2^2*z^2 + (2*k1*k2*A3 - k3)*z
    + (k1*A3^2 + k4); a vanishing leading coefficient falls back to the
    linear equation; a negative discriminant yields an empty root set.

    paper-verbatim: the printed two-branch root formula evaluated exactly as
    displayed; requires k1*k2 != 0.
    """
    if closed_form_mode == "rederived":
        a, b, c = coeffs.quadratic_coeffs()
        return _solve_quadratic_stable(a, b, c)
    if closed_form_mode != "paper-verbatim":
        raise ValueError("closed_form_mode must be 'paper-verbatim' or 'rederived'")
    k1k2 = coeffs.k1 * coeffs.k2
    if k1k2 == 0.0:
        raise ZeroDivisionError("printed root formula requires k1*k2 != 0")
    t1 = (coeffs.k3 - 2.0 * k1k2) / k1k2
    inner = t1 * t1 - 4.0 * (coeffs.k1 * coeffs.A3**2 - coeffs.k4) / k1k2
    if inner < 0.0:
        return []
    sq = math.sqrt(inner)
    return sorted([0.5 * (t1 - sq), 0.5 * (t1 + sq)])


def scan_sign_changes(
    fn: Callable[[float], float],
    grid_n: int,
    lo: float = 0.0,
    hi: float = 1.0,
    width: float = BISECT_WIDTH,
) -> list[float]:
    """Roots of fn located by sign changes on a uniform grid over (lo, hi].

    Each bracket is bisected to |interval| <= width.  Scale-invariant:
    multiplying fn by a positive constant changes no sign and therefore no
    bisection decision.
    """
    if grid_n < 10:
        raise ValueError("grid_n must be at least 10")
    us = [lo + (hi - lo) * i / grid_n for i in range(1, grid_n + 1)]
    vals = [fn(u) for u in us]
    roots: list[float] = []
    for i in range(len(us) - 1):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            roots.append(us[i])
            continue
        if v0 * v1 < 0.0:
            a, b = us[i], us[i + 1]
            fa = v0
            while b - a > width:
                m = 0.5 * (a + b)
                fm = fn(m)
                if fm == 0.0:
                    a = b = m
                    break
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(us[-1])
    return roots


def root_scan(
    state: State,
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
    modes: ModeFlags = ModeFlags(),
    grid_n: int = 512,
) -> list[tuple[float, float]]:
    """All sign-change roots of the stationarity residual on (0, 1].

    Independent of the closed form: pure grid scan plus bisection.  Returns
    (root, residual-at-root) pairs; an empty list is a valid outcome.
    """
    fn = lambda u: nash_residual(state, u, model, payoff, lagrange, modes)
    return [(u, fn(u)) for u in scan_sign_changes(fn, grid_n)]


def optimal_stubbornness(
    state: State,
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
    modes: ModeFlags = ModeFlags(),
    dt: float = 0.01,
    n_paths: int = 200,
    seed: int = 0,
) -> OptimalControlResult:
    """Closed-form optimal control at (s, x) with candidate bookkeeping.

    Builds the coefficients, solves for z = u^2 in the selected mode, maps
    nonnegative z to u = +sqrt(z), and clamps the selection into [0, 1].
    When several nonnegative candidates exist, each is ranked by a
    constant-control payoff estimate over the remaining horizon (common
    seed), ties toward the smaller u.  With no nonnegative real root the
    trivial solution u = 0 is reported.
    """
    if state.s > payoff.horizon:
        raise ParameterError("s must not exceed horizon")
    coeffs = closed_form_coeffs(state, model, payoff, lagrange)
    a, b, c = coeffs.quadratic_coeffs()
    if a == 0.0 and b == 0.0 and c == 0.0:
        z_roots: list[float] = []
    else:
        z_roots = solve_quartic(coeffs, modes.closed_form_mode)
    candidates = [math.sqrt(z) for z in z_roots if z >= 0.0]
    cand_residuals = tuple(
        nash_residual(state, u, model, payoff, lagrange, modes) for u in candidates
    )

    def result(u_unclamped: float, reason: str) -> OptimalControlResult:
        u_star = clamp_control(u_unclamped)
        res = nash_residual(state, u_star, model, payoff, lagrange, modes)
        return OptimalControlResult(
            z_roots=tuple(z_roots),
            u_candidates=tuple(candidates),
            candidate_residuals=cand_residuals,
            u_star=u_star,
            u_unclamped=u_unclamped,
            residual=res,
            nash_mode=modes.nash_mode,
            derivative_mode=modes.derivative_mode,
            closed_form_mode=modes.closed_form_mode,
            reason=reason,
        )

    if not candidates:
        return result(0.0, "trivial root only")
    if len(candidates) == 1:
        return result(candidates[0], "ok")

    remaining = payoff.horizon - state.s
    n_rem = max(1, round(remaining / dt))
    if remaining < dt / 2.0:
        return result(min(candidates), "ok")
    payoff_rem = dataclasses.replace(payoff, horizon=n_rem * dt)
    best_u, best_j = None, -math.inf
    for cand in sorted(candidates):
        est = expected_payoff(
            state.x,
            constant_policy(clamp_control(cand)),
            model,
            payoff_rem,
            dt,
            n_paths,
            seed,
        )
        if est.mean > best_j:
            best_u, best_j = cand, est.mean
    return result(best_u, "ok")
