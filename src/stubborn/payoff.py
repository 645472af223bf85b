"""Instantaneous payoff, terminal bonus, and Monte Carlo payoff estimation.

The running payoff is pi(s, x, u) = (theta + alpha1 + alpha2 + alpha3)*x
- c*u^2 / ((r - mu_bar)*sqrt(x)); the expected payoff J discounts pi at
rate r along simulated goal-dynamics paths and adds the terminal bonus
omega*e^{-rt}*sqrt(x(t)).  The payoff integral uses a left-endpoint Riemann
sum on the Euler-Maruyama grid, accumulated step by step over
`dynamics._em_steps`, the package's only Euler-Maruyama recursion.

Paths that reach the x = 0 clamp while exercising u > 0 make the cost term
singular; such paths are flagged invalid and excluded from the estimate,
with the invalid fraction reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .lagrangian import SingularCostError
from .model import ModelParams, PayoffParams, State


@dataclass(frozen=True)
class PayoffEstimate:
    """Monte Carlo estimate of J under a fixed policy.

    mean/std_error are computed over the valid paths only; n_paths is the
    requested sample count, n_valid the count actually used.
    """

    mean: float
    std_error: float
    n_paths: int
    n_valid: int
    clamp_fraction: float
    invalid_fraction: float

    def __post_init__(self) -> None:
        if self.n_valid >= 2 and not self.std_error >= 0.0:
            raise ValueError("std_error must be nonnegative")
        if not (0.0 <= self.clamp_fraction <= 1.0):
            raise ValueError("clamp_fraction must lie in [0, 1]")
        if not (0.0 <= self.invalid_fraction <= 1.0):
            raise ValueError("invalid_fraction must lie in [0, 1]")


def instantaneous_payoff(state: State, u: float, payoff: PayoffParams) -> float:
    """(theta + sum(alpha))*x - c*u^2 / ((r - mu_bar)*sqrt(x))."""
    if u == 0.0:
        return payoff.reward_coeff * state.x
    if state.x <= 0.0:
        raise SingularCostError("cost singular at x=0")
    k = payoff.c / (payoff.r - payoff.mu_bar)
    return payoff.reward_coeff * state.x - k * u * u / math.sqrt(state.x)


def terminal_bonus(x_final: float, payoff: PayoffParams) -> float:
    """omega * e^{-r*horizon} * sqrt(x_final)."""
    if x_final < 0.0:
        raise ValueError("x_final must be nonnegative")
    return payoff.omega * math.exp(-payoff.r * payoff.horizon) * math.sqrt(x_final)


def expected_payoff(
    x0: float,
    policy: dynamics.PolicyFn,
    model: ModelParams,
    payoff: PayoffParams,
    dt: float,
    n_paths: int,
    seed: int,
) -> PayoffEstimate:
    """Monte Carlo estimate of J(policy) from n_paths simulated paths.

    Deterministic for fixed (seed, dt, x0, params, policy): noise is keyed
    per (seed, path_index, step_index) and paths are reduced in index
    order.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    n_steps = dynamics.n_steps_for(payoff.horizon, dt)
    k = payoff.c / (payoff.r - payoff.mu_bar)
    bonus = payoff.omega * math.exp(-payoff.r * payoff.horizon)
    totals = np.empty(n_paths)
    clamp_flags = np.zeros(n_paths, dtype=bool)
    invalid = np.zeros(n_paths, dtype=bool)

    def work(lo: int, hi: int) -> None:
        running = np.zeros(hi - lo)
        block_invalid, block_clamped = invalid[lo:hi], clamp_flags[lo:hi]
        for s_j, x, u, x_next, hit in dynamics._em_steps(
            x0, policy, model, dt, n_steps, seed, lo, hi - lo
        ):
            at_zero = x <= 0.0
            block_invalid |= at_zero & (u > 0.0)
            # Cost evaluated off the boundary only; x = 0 with u = 0
            # contributes nothing (the linear term vanishes there too).
            safe_x = np.where(at_zero, 1.0, x)
            pi = payoff.reward_coeff * x - np.where(
                at_zero, 0.0, k * u * u / np.sqrt(safe_x)
            )
            running += math.exp(-payoff.r * s_j) * pi * dt
            block_clamped |= hit
        totals[lo:hi] = running + bonus * np.sqrt(x_next)

    dynamics._for_each_chunk(n_paths, work)
    valid = ~invalid
    n_valid = int(np.count_nonzero(valid))
    if n_valid == 0:
        mean, std_error = math.nan, math.nan
    else:
        sample = totals[valid]
        mean = float(sample.mean())
        std_error = (
            float(sample.std(ddof=1) / math.sqrt(n_valid)) if n_valid >= 2 else 0.0
        )
    return PayoffEstimate(
        mean=mean,
        std_error=std_error,
        n_paths=n_paths,
        n_valid=n_valid,
        clamp_fraction=float(np.count_nonzero(clamp_flags)) / n_paths,
        invalid_fraction=float(np.count_nonzero(invalid)) / n_paths,
    )


def constant_policy(u: float) -> dynamics.PolicyFn:
    """Policy that applies the same (clamped) control at every (s, x)."""
    u_clamped = min(max(u, 0.0), 1.0)

    def policy(s: float, x: np.ndarray) -> float:
        return u_clamped

    return policy


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

    The three J evaluations share the same seed (common random numbers), so
    for deterministic dynamics the differences are exact up to truncation.
    """
    if h_u <= 0.0:
        raise ValueError("h_u must be positive")
    if u_center - h_u < 0.0 or u_center + h_u > 1.0:
        raise ValueError("u_center +/- h_u must stay within [0, 1]")
    j_minus = expected_payoff(
        x0, constant_policy(u_center - h_u), model, payoff, dt, n_paths, seed
    ).mean
    j_center = expected_payoff(
        x0, constant_policy(u_center), model, payoff, dt, n_paths, seed
    ).mean
    j_plus = expected_payoff(
        x0, constant_policy(u_center + h_u), model, payoff, dt, n_paths, seed
    ).mean
    d1 = (j_plus - j_minus) / (2.0 * h_u)
    d2 = (j_plus - 2.0 * j_center + j_minus) / (h_u * h_u)
    return d1, d2


