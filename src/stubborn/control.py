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
from typing import Callable, Sequence

import numpy as np

from .lagrangian import _partials, _require_positive_x
from .model import (
    LagrangeParams,
    ModeFlags,
    ModelParams,
    ParameterError,
    PayoffParams,
    State,
    clamp_control,
)
from .payoff import expected_payoffs

X_MIN = 1e-6
BISECT_WIDTH = 1e-10


class ClosedFormDomainError(ValueError):
    """The closed form is not evaluated below x = X_MIN."""


@dataclass(frozen=True)
class ClosedFormCoeffs:
    """Auxiliary coefficients of the factored stationarity equation at (s, x)."""

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
    """The selected control at one cell.

    residual is lhs - rhs of the stationarity condition at u_star, and
    certificate is |lhs - rhs| / (|lhs| + |rhs|) there (0 when both are 0).
    """

    z_roots: tuple[float, ...]
    u_candidates: tuple[float, ...]
    u_star: float
    u_unclamped: float
    residual: float
    certificate: float
    reason: str

    def __post_init__(self) -> None:
        if not (0.0 <= self.u_star <= 1.0):
            raise ValueError("u_star must lie in [0, 1]")
        if not math.isfinite(self.residual):
            raise ValueError("residual must be finite")
        if any(u < 0.0 for u in self.u_candidates):
            raise ValueError("u_candidates must be nonnegative")


def _nash_sides(s, x, u, model: ModelParams, payoff: PayoffParams, lagrange: LagrangeParams,
                modes: ModeFlags):
    """(lhs, rhs) of the stationarity condition at (s, x, u) under the selected mode pair.

    x and u are floats or float64 arrays, as `_partials` takes them; each
    element equals the one-point evaluation bit for bit.  Checks nothing.
    """
    f_u, f_x, f_xx, f_xu = _partials(s, x, u, model, payoff, lagrange, modes.derivative_mode)
    if modes.nash_mode == "paper":
        return f_u * f_xx * f_xx, 2.0 * f_x * f_xu
    return f_u * f_xx, f_x * f_xu


def _certificate(lhs: float, rhs: float) -> float:
    """|lhs - rhs| / (|lhs| + |rhs|), the defect relative to its terms; 0 when both are 0."""
    scale = abs(lhs) + abs(rhs)
    return abs(lhs - rhs) / scale if scale > 0.0 else 0.0


def nash_residual(
    state: State,
    u: float,
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
    modes: ModeFlags = ModeFlags(),
) -> float:
    """Stationarity defect lhs - rhs at (s, x, u) under the selected mode pair."""
    _require_positive_x(state.x, u)
    lhs, rhs = _nash_sides(state.s, state.x, u, model, payoff, lagrange, modes)
    return lhs - rhs


def _coefficient_row(
    s: float,
    xs: Sequence[float],
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
) -> list[ClosedFormCoeffs]:
    """`closed_form_coeffs` at (s, x) for every x in xs, all at or above X_MIN.

    A2 and A3 of the whole row come from one array `_partials` call; the
    k's are Python floats per cell, since numpy's array x**3 differs from
    Python's in the last bit for about 5% of x.
    """
    if not payoff.r > payoff.mu_bar:
        raise ParameterError("r must exceed mu_bar")
    # published mode at u = 0
    _f_u, A2, A3, _f_xu = _partials(s, np.array(xs, dtype=float), 0.0, model, payoff,
                                    lagrange, "paper")
    rm = payoff.r - payoff.mu_bar
    c = payoff.c
    d3 = math.exp(-3.0 * payoff.r * s)
    row = []
    for x, a2, a3 in zip(xs, A2.tolist(), A3.tolist()):
        sqx = math.sqrt(x)
        x15 = x * sqx
        x25 = x * x * sqx
        row.append(ClosedFormCoeffs(
            A2=a2,
            A3=a3,
            k1=-2.0 * c / (rm * sqx),
            k2=15.0 * c / (4.0 * rm * x25),
            k3=c * c / (rm * rm * x**3),
            k4=2.0 * a2 * c * d3 / (rm * x15),
        ))
    return row


def closed_form_coeffs(
    state: State,
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
) -> ClosedFormCoeffs:
    """A2, A3 and k1-k4 at (s, x), with d(lambda) := l0 and d(lambda)/ds := l1.

    A2 and A3 are the control-independent parts of the published f_x and
    f_xx, read from `_partials` in published mode at u = 0; the k's are
    the building blocks of the factored quartic.
    """
    if state.x < X_MIN:
        raise ClosedFormDomainError("state below closed-form domain")
    return _coefficient_row(state.s, [state.x], model, payoff, lagrange)[0]


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


def scan_sign_changes(fn: Callable, grid_n: int) -> list[float]:
    """Roots of fn located by sign changes on a uniform grid over (0, 1].

    fn is called once with the whole grid as a float64 array, then with
    one float per bisection step; each bracket is bisected to
    |interval| <= BISECT_WIDTH.  Scale-invariant: multiplying fn by a
    positive constant changes no sign and therefore no bisection decision.
    """
    if grid_n < 10:
        raise ValueError("grid_n must be at least 10")
    grid = np.arange(1, grid_n + 1) / grid_n
    us, vals = grid.tolist(), fn(grid).tolist()
    roots: list[float] = []
    for i in range(len(us) - 1):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            roots.append(us[i])
            continue
        if v0 * v1 < 0.0:
            a, b = us[i], us[i + 1]
            fa = v0
            while b - a > BISECT_WIDTH:
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
) -> list[float]:
    """All sign-change roots of the stationarity residual on (0, 1], ascending.

    Independent of the closed form: pure grid scan plus bisection on the
    grid k/grid_n, k = 1..grid_n, so a root below 1/grid_n is not seen.  An
    empty list is a valid outcome.
    """
    _require_positive_x(state.x, 1.0)  # every scanned u is positive

    def fn(u):
        lhs, rhs = _nash_sides(state.s, state.x, u, model, payoff, lagrange, modes)
        return lhs - rhs

    return scan_sign_changes(fn, grid_n)


def _candidates(coeffs: ClosedFormCoeffs, closed_form_mode: str) -> tuple[list[float], list[float]]:
    """(z roots, candidates u = +sqrt(z) for z >= 0) of the closed form, both ascending."""
    a, b, c = coeffs.quadratic_coeffs()
    if a == 0.0 and b == 0.0 and c == 0.0:
        z_roots: list[float] = []
    else:
        z_roots = solve_quartic(coeffs, closed_form_mode)
    return z_roots, [math.sqrt(z) for z in z_roots if z >= 0.0]


def optimal_stubbornness_row(
    s: float,
    xs: Sequence[float],
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
    modes: ModeFlags,
    dt: float,
    n_paths: int,
    seed: int,
) -> tuple[list[OptimalControlResult | ClosedFormDomainError], int]:
    """`optimal_stubbornness` at (s, x) for every x in xs, ranked in one pass.

    Returns (results, ranked cell count).  results[i] equals
    optimal_stubbornness(State(s, xs[i]), ...) exactly, or is the
    ClosedFormDomainError that call raises.  The coefficients of every
    in-domain cell come from one array evaluation, and so does the
    residual column.  Every cell at one s has the same remaining horizon,
    so it ranks with the same noise: the candidates of all cells that
    need ranking go to one `expected_payoffs` call, each candidate
    starting from its own cell's x.
    """
    if s > payoff.horizon:
        raise ParameterError("s must not exceed horizon")
    # State checks s and each x, as the one-cell call does
    inside = [i for i, x in enumerate(xs) if State(s=s, x=x).x >= X_MIN]
    x_inside = [xs[i] for i in inside]
    coeffs = _coefficient_row(s, x_inside, model, payoff, lagrange)
    # per in-domain cell: (z roots, candidates), both ascending
    found = [_candidates(cf, modes.closed_form_mode) for cf in coeffs]
    # per in-domain cell: (u, status), the smallest candidate unless ranked
    chosen = [(u_candidates[0], "ok") if u_candidates else (0.0, "trivial root only")
              for _z_roots, u_candidates in found]
    remaining = payoff.horizon - s
    ranked: list[int] = []  # in-domain cells with several candidates and horizon left
    if remaining >= dt / 2.0:
        ranked = [cell for cell, (_z_roots, us) in enumerate(found) if len(us) >= 2]
    if ranked:
        n_rem = max(1, round(remaining / dt))
        payoff_rem = dataclasses.replace(payoff, horizon=n_rem * dt)
        rows = [(x_inside[cell], u) for cell in ranked for u in found[cell][1]]
        estimates = iter(expected_payoffs(
            [x for x, _u in rows], [u for _x, u in rows],
            model, payoff_rem, dt, n_paths, seed,
        ))
        for cell in ranked:
            candidates = found[cell][1]
            best_u, best_j = candidates[0], -math.inf
            for u, est in zip(candidates, estimates):
                if est.mean > best_j:
                    best_u, best_j = u, est.mean
            chosen[cell] = (best_u, "ok" if best_j > -math.inf else "no valid ranking path")

    # the residual column of the row in one array evaluation
    u_star = np.array([clamp_control(u) for u, _status in chosen])
    lhs, rhs = _nash_sides(s, np.array(x_inside, dtype=float), u_star, model, payoff, lagrange,
                           modes)
    results: list = [ClosedFormDomainError("state below closed-form domain") for _x in xs]
    for i, (z_roots, u_candidates), (u, status), u_clamped, lhs_i, rhs_i in zip(
        inside, found, chosen, u_star.tolist(), lhs.tolist(), rhs.tolist()
    ):
        results[i] = OptimalControlResult(
            z_roots=tuple(z_roots),
            u_candidates=tuple(u_candidates),
            u_star=u_clamped,
            u_unclamped=u,
            residual=lhs_i - rhs_i,
            certificate=_certificate(lhs_i, rhs_i),
            reason=status,
        )
    return results, len(ranked)


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
    When several nonnegative candidates exist and at least dt/2 of the
    horizon remains, one `expected_payoffs` call ranks them by their
    constant-control payoff over the remaining horizon (common random
    numbers); a candidate wins only with a strictly larger mean, so ties
    go to the smaller u and a NaN mean never wins.  If no candidate has a
    valid ranking path, the smallest is reported with the status
    "no valid ranking path".  With no nonnegative real root the trivial
    solution u = 0 is reported.  This is `optimal_stubbornness_row` with
    one cell.
    """
    (result,), _n_ranked = optimal_stubbornness_row(
        state.s, [state.x], model, payoff, lagrange, modes, dt, n_paths, seed
    )
    if isinstance(result, ClosedFormDomainError):
        raise result
    return result
