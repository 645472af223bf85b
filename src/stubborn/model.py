"""Parameter records for the goal-dynamics control problem.

The records themselves are plain immutable value objects; business rules
(sign constraints, r > mu_bar, ...) are enforced explicitly through
:func:`validate_params` so that degenerate configurations (e.g. c = 0)
remain constructible for diagnostic runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ParameterError(ValueError):
    """A parameter bundle violates one of its declared constraints."""


@dataclass(frozen=True)
class ModelParams:
    """SDE coefficients of the goal dynamics dx = (a*sqrt(x) - sigma2*x - u) ds + (sigma1 - sigma2*x) dW.

    a       -- drift strength (per unit time, scales sqrt(x))
    sigma1  -- passing-network volatility (per sqrt(time))
    sigma2  -- environmental/strategic volatility (per sqrt(time))
    """

    a: float
    sigma1: float
    sigma2: float


@dataclass(frozen=True)
class PayoffParams:
    """Economic parameters of the player payoff.

    theta     -- injury-risk coefficient (payoff per unit x)
    alpha1-3  -- assist rate / pass accuracy / dribbling coefficients
    c         -- marginal cost (payoff * sqrt(x) per squared control)
    r         -- discount rate (per unit time)
    mu_bar    -- average drift coefficient (per unit time)
    omega     -- terminal bonus weight (payoff per sqrt(x))
    horizon   -- total match time t
    """

    theta: float
    alpha1: float
    alpha2: float
    alpha3: float
    c: float
    r: float
    mu_bar: float
    omega: float
    horizon: float

    @property
    def reward_coeff(self) -> float:
        """theta + alpha1 + alpha2 + alpha3, the linear payoff slope in x."""
        return self.theta + (self.alpha1 + self.alpha2 + self.alpha3)


@dataclass(frozen=True)
class LagrangeParams:
    """Scalar values assigned to the multiplier increments.

    l0 -- value of the increment d(lambda)(s), dimensionless
    l1 -- value of d(lambda)/ds, per unit time

    Defaults to (0, 0), the vanishing-multiplier limit, while keeping the
    pre-limit formulas reachable.
    """

    l0: float = 0.0
    l1: float = 0.0


@dataclass(frozen=True)
class State:
    """Time/state pair (s, x) with s >= 0 and x >= 0.

    x is probability-like but is not confined to [0, 1]; only x >= 0 is
    structural (sqrt(x) and fractional powers of x appear throughout).
    """

    s: float
    x: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.s) or self.s < 0.0:
            raise ParameterError("s must be finite and nonnegative")
        if not math.isfinite(self.x) or self.x < 0.0:
            raise ParameterError("x must be finite and nonnegative")


def clamp_control(u: float) -> float:
    """Clamp a raw control value into [0, 1] (applied at public boundaries)."""
    return min(max(u, 0.0), 1.0)


DERIVATIVE_MODES = ("paper", "consistent")
NASH_MODES = ("paper", "rederived")
KERNEL_EXPONENT_MODES = ("paper", "rederived")
CLOSED_FORM_MODES = ("paper-verbatim", "rederived")


@dataclass(frozen=True)
class ModeFlags:
    """Formula-variant selectors.

    Each flag picks between the published ("paper"/"paper-verbatim") form of
    a formula and the internally consistent rederivation, where the two
    disagree:

    derivative_mode      -- partials of the Lagrangian f: published vs
                            calculus-exact
    nash_mode            -- stationarity condition: f_u*f_xx^2 = 2*f_x*f_xu
                            vs f_u*f_xx = f_x*f_xu
    kernel_exponent_mode -- density-update growth rate: b^2/(4a^2) - f vs
                            b^2/(4a) - f
    closed_form_mode     -- quartic solution: printed root formula vs exact
                            expansion of the factored equation
    """

    derivative_mode: str = "paper"
    nash_mode: str = "paper"
    kernel_exponent_mode: str = "rederived"
    closed_form_mode: str = "rederived"

    def __post_init__(self) -> None:
        for name, allowed in (
            ("derivative_mode", DERIVATIVE_MODES),
            ("nash_mode", NASH_MODES),
            ("kernel_exponent_mode", KERNEL_EXPONENT_MODES),
            ("closed_form_mode", CLOSED_FORM_MODES),
        ):
            if getattr(self, name) not in allowed:
                raise ParameterError(f"{name} must be one of {allowed}")

    def describe(self) -> str:
        """Compact single-cell rendering for CSV output."""
        return (
            f"derivative={self.derivative_mode};nash={self.nash_mode};"
            f"kernel={self.kernel_exponent_mode};closed_form={self.closed_form_mode}"
        )


def validate_params(
    model: ModelParams, payoff: PayoffParams, lagrange: LagrangeParams
) -> tuple[ModelParams, PayoffParams, LagrangeParams]:
    """Check every declared invariant, reporting the first violation by name.

    Returns the bundle unchanged when all invariants hold; validation is
    idempotent. Check order follows declaration order: model (sigma1,
    sigma2, a), then payoff (theta, c, omega, horizon, r vs mu_bar), then
    lagrange (l0, l1).
    """
    if not math.isfinite(model.sigma1) or model.sigma1 < 0.0:
        raise ParameterError("sigma1 must be nonnegative")
    if not math.isfinite(model.sigma2) or model.sigma2 < 0.0:
        raise ParameterError("sigma2 must be nonnegative")
    if not math.isfinite(model.a):
        raise ParameterError("a must be finite")

    for name in ("theta", "alpha1", "alpha2", "alpha3", "c", "r", "mu_bar", "omega", "horizon"):
        if not math.isfinite(getattr(payoff, name)):
            raise ParameterError(f"{name} must be finite")
    for name in ("theta", "c", "omega", "horizon"):
        if getattr(payoff, name) <= 0.0:
            raise ParameterError(f"{name} must be positive")
    if not payoff.r > payoff.mu_bar:
        raise ParameterError("r must exceed mu_bar")

    for name in ("l0", "l1"):
        if not math.isfinite(getattr(lagrange, name)):
            raise ParameterError(f"{name} must be finite")

    return model, payoff, lagrange
