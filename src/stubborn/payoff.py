"""Monte Carlo estimation of the expected payoff J.

The running payoff is pi(s, x, u) = (theta + alpha1 + alpha2 + alpha3)*x
- c*u^2 / ((r - mu_bar)*sqrt(x)); the expected payoff J discounts pi at
rate r along simulated goal-dynamics paths and adds the terminal bonus
omega*e^{-rt}*sqrt(x(t)).  The payoff integral uses a left-endpoint Riemann
sum on the Euler-Maruyama grid, accumulated step by step over
`dynamics._em_steps`, the package's only Euler-Maruyama recursion.  The
engine draws each block's noise from keys computed once per block and
updates its states in place; the accumulator divides c*u^2/(r - mu_bar)
by the sqrt(x) the engine yields, not a second sqrt, and adds
(e^{-rs} * (reward*x - cost)) * dt in place, in that order.

`expected_payoffs` estimates J for several constant controls in one
pass: the engine steps all of them on one block of paths and draws each
step's noise once for the block, so the estimates share common random
numbers and each equals `expected_payoff` with that control alone, bit
for bit.  Blocks then hold fewer paths (see `dynamics`), which changes no
result.  Each control may start from its own state: `x0` is then one
start state per control, and the estimates still share their noise path
by path.

Paths that reach the x = 0 clamp while exercising u > 0 make the cost term
singular; such paths are flagged invalid and excluded from the estimate,
with the invalid fraction reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dynamics
from .model import ModelParams, PayoffParams


@dataclass(frozen=True)
class PayoffEstimate:
    """Monte Carlo estimate of J under a constant control.

    mean/std_error are computed over the valid paths only: both are NaN
    when invalid_fraction is 1, and std_error is 0 with one valid path.
    """

    mean: float
    std_error: float
    clamp_fraction: float
    invalid_fraction: float

    def __post_init__(self) -> None:
        if not math.isnan(self.mean) and not self.std_error >= 0.0:
            raise ValueError("std_error must be nonnegative")
        if not (0.0 <= self.clamp_fraction <= 1.0):
            raise ValueError("clamp_fraction must lie in [0, 1]")
        if not (0.0 <= self.invalid_fraction <= 1.0):
            raise ValueError("invalid_fraction must lie in [0, 1]")


def expected_payoff(
    x0: float,
    u: float,
    model: ModelParams,
    payoff: PayoffParams,
    dt: float,
    n_paths: int,
    seed: int,
) -> PayoffEstimate:
    """Monte Carlo estimate of J(u) from n_paths simulated paths.

    Deterministic for fixed (seed, dt, x0, params, u): noise is keyed per
    (seed, path_index, step_index) and paths are reduced in index order.
    """
    return expected_payoffs(x0, [u], model, payoff, dt, n_paths, seed)[0]


def expected_payoffs(
    x0: float | Sequence[float] | np.ndarray,
    controls: Sequence[float] | np.ndarray,
    model: ModelParams,
    payoff: PayoffParams,
    dt: float,
    n_paths: int,
    seed: int,
) -> list[PayoffEstimate]:
    """Monte Carlo estimates of J under each constant control, in order.

    x0 is one start state for every control, or one per control.  Path p
    sees the same noise under every control (common random numbers), drawn
    once per step for all of them; element i equals
    expected_payoff(x0, controls[i], ...) exactly, or
    expected_payoff(x0[i], controls[i], ...) with per-control starts.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if len(controls) == 0:
        raise ValueError("at least one control is required")
    n_steps = dynamics.n_steps_for(payoff.horizon, dt)
    k = payoff.c / (payoff.r - payoff.mu_bar)
    bonus = payoff.omega * math.exp(-payoff.r * payoff.horizon)
    shape = (len(controls), n_paths)
    totals = np.empty(shape)
    clamp_flags = np.zeros(shape, dtype=bool)
    invalid = np.zeros(shape, dtype=bool)

    def work(lo: int, hi: int) -> None:
        running = np.zeros((len(controls), hi - lo))
        rate = np.empty_like(running)
        cost = np.empty_like(running)
        at_zero = np.empty(running.shape, dtype=bool)
        off_zero = np.empty_like(at_zero)
        block_invalid, block_clamped = invalid[:, lo:hi], clamp_flags[:, lo:hi]
        for s_j, x, u, x_next, hit, sq in dynamics._em_steps(
            x0, controls, model, dt, n_steps, seed, lo, hi - lo
        ):
            np.less_equal(x, 0.0, out=at_zero)
            block_invalid |= at_zero & (u > 0.0)
            # Cost evaluated off the boundary only, on the drift's sqrt(x);
            # x = 0 with u = 0 contributes nothing (the linear term vanishes
            # there too).  In place, in the order
            # (e^{-r s_j} * (reward*x - cost)) * dt.
            np.logical_not(at_zero, out=off_zero)
            np.divide(k * u * u, sq, out=cost, where=off_zero)
            np.multiply(x, payoff.reward_coeff, out=rate)
            np.subtract(rate, cost, out=rate, where=off_zero)
            rate *= math.exp(-payoff.r * s_j)
            rate *= dt
            running += rate
            block_clamped |= hit
        totals[:, lo:hi] = running + bonus * np.sqrt(x_next)

    dynamics._for_each_chunk(n_paths, work, len(controls))
    return [_estimate(*rows) for rows in zip(totals, clamp_flags, invalid)]


def _estimate(
    totals: np.ndarray, clamp_flags: np.ndarray, invalid: np.ndarray
) -> PayoffEstimate:
    """Reduce one control's per-path totals and flags, in path order."""
    n_paths = len(totals)
    valid = totals[~invalid]
    mean, std_error = _mean_and_error(valid) if valid.size else (math.nan, math.nan)
    return PayoffEstimate(
        mean=mean,
        std_error=std_error,
        clamp_fraction=float(np.count_nonzero(clamp_flags)) / n_paths,
        invalid_fraction=float(np.count_nonzero(invalid)) / n_paths,
    )


def _mean_and_error(sample: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a nonempty sample; the error is 0 for one value."""
    n = len(sample)
    std_error = float(sample.std(ddof=1) / math.sqrt(n)) if n >= 2 else 0.0
    return float(sample.mean()), std_error


def payoff_stationarity(
    x0: float,
    u_center: float,
    h_u: float,
    model: ModelParams,
    payoff: PayoffParams,
    dt: float,
    n_paths: int,
    seed: int,
) -> tuple[float, float]:
    """Central finite-difference estimates (dJ/du, d2J/du2) at a constant control.

    The three J evaluations come from one `expected_payoffs` call and share
    every noise draw (common random numbers), so for deterministic dynamics
    the differences are exact up to truncation.
    """
    if h_u <= 0.0:
        raise ValueError("h_u must be positive")
    if u_center - h_u < 0.0 or u_center + h_u > 1.0:
        raise ValueError("u_center +/- h_u must stay within [0, 1]")
    controls = (u_center - h_u, u_center, u_center + h_u)
    j_minus, j_center, j_plus = (
        est.mean for est in expected_payoffs(x0, controls, model, payoff, dt, n_paths, seed)
    )
    d1 = (j_plus - j_minus) / (2.0 * h_u)
    d2 = (j_plus - 2.0 * j_center + j_minus) / (h_u * h_u)
    return d1, d2
