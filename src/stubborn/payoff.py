"""Monte Carlo estimation of the expected payoff J.

The running payoff is pi(s, x, u) = (theta + alpha1 + alpha2 + alpha3)*x
- c*u^2 / ((r - mu_bar)*sqrt(x)); the expected payoff J discounts pi at
rate r along simulated goal-dynamics paths and adds the terminal bonus
omega*e^{-rt}*sqrt(x(t)).  The payoff integral uses a left-endpoint Riemann
sum on the Euler-Maruyama grid, accumulated step by step over
`dynamics._em_steps`, the package's only Euler-Maruyama recursion.  The
engine draws each block's noise from keys computed once per block and
updates its states in place; the accumulator divides c*u^2/(r - mu_bar),
computed once per call, by the sqrt(x) the engine yields, not a second
sqrt, and adds (e^{-rs} * (reward*x - cost)) * dt in place, in that
order.  The divide and subtract run unmasked (masked, the pair cost 2.2
against 1.4 ns per element on 21 x 1560 blocks); on the steps where some
state sits at x <= 0, those elements take reward*x back, so every total
equals the masked sum bit for bit.

`expected_payoffs` estimates J for several constant controls in one
pass: the engine steps all of them on one block of paths and draws each
step's noise once for the block, so the estimates share common random
numbers and each equals `expected_payoff` with that control alone, bit
for bit.  Blocks then hold fewer paths (see `dynamics`), which changes no
result.  Each control may start from its own state: `x0` is then one
start state per control, and the estimates still share their noise path
by path.

Paths that reach the x = 0 clamp while exercising u > 0 make the cost term
singular; such paths are flagged invalid (once per block, from the paths
that ever sat at x <= 0) and excluded from the estimate, with the
invalid fraction reported alongside.  Clamped paths are only
counted: each block writes how many of its paths hit the clamp under
each control into one column of a (controls x blocks) count array, and
the clamp fraction is the summed count over n_paths.
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
    u = dynamics._control_column(controls)
    scaled_cost = k * u * u  # the cost's numerator c*u^2/(r - mu_bar)
    exercised = u > 0.0
    reward = payoff.reward_coeff
    bonus = payoff.omega * math.exp(-payoff.r * payoff.horizon)
    shape = (len(controls), n_paths)
    totals = dynamics._shared(shape)
    invalid = dynamics._shared(shape, dtype=bool)
    block_paths = dynamics._block_paths(len(controls))
    clamp_counts = dynamics._shared(
        (len(controls), -(-n_paths // block_paths)), dtype=np.int64
    )

    def work(lo: int, hi: int) -> None:
        running = np.zeros((len(controls), hi - lo))
        rate = np.empty_like(running)
        cost = np.empty_like(running)
        at_zero = np.empty(running.shape, dtype=bool)
        ever_zero = np.zeros_like(at_zero)
        block_clamped = np.zeros_like(at_zero)
        for s_j, x, _u, x_next, hit, sq in dynamics._em_steps(
            x0, controls, model, dt, n_steps, seed, lo, hi - lo
        ):
            # In place, in the order (e^{-r s_j} * (reward*x - cost)) * dt,
            # the cost on the drift's sqrt(x).  At x <= 0 the quotient is
            # inf or nan; there the rate is reward*x alone (x = 0 with u = 0
            # costs nothing, and x = 0 under u > 0 makes the path invalid).
            np.less_equal(x, 0.0, out=at_zero)
            ever_zero |= at_zero
            np.multiply(x, reward, out=rate)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(scaled_cost, sq, out=cost)
                rate -= cost
            if at_zero.any():
                np.multiply(x, reward, out=rate, where=at_zero)
            rate *= math.exp(-payoff.r * s_j)
            rate *= dt
            running += rate
            block_clamped |= hit
        np.logical_and(ever_zero, exercised, out=invalid[:, lo:hi])
        totals[:, lo:hi] = running + bonus * np.sqrt(x_next)
        clamp_counts[:, lo // block_paths] = np.count_nonzero(block_clamped, axis=1)

    dynamics._for_each_chunk(n_paths, work, len(controls))
    clamped = clamp_counts.sum(axis=1).tolist()
    return [_estimate(*rows) for rows in zip(totals, clamped, invalid)]


def _estimate(totals: np.ndarray, clamped: int, invalid: np.ndarray) -> PayoffEstimate:
    """Reduce one control's per-path totals, in path order, its clamped-path
    count and its per-path invalid flags."""
    n_paths = len(totals)
    valid = totals[~invalid]
    mean, std_error = _mean_and_error(valid) if valid.size else (math.nan, math.nan)
    return PayoffEstimate(
        mean=mean,
        std_error=std_error,
        clamp_fraction=clamped / n_paths,
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
