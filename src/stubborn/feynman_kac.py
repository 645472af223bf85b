"""Monte Carlo estimator for the conditional-expectation representation

    phi(s, x) = E[ T(t, x(t)) * exp(-int_s^t V)
                   + int_s^t Theta(s1, x(s1), u(s1)) * exp(-int_s^{s1} V) ds1
                 | x(s) = x ],

with x following the goal dynamics under a known constant control u.  Inner
integrals are left-endpoint Riemann sums on the Euler-Maruyama grid,
accumulated step by step over `dynamics._em_steps`, the package's only
Euler-Maruyama recursion.

A finite-difference residual check against the generator equation
-V*phi + Theta + phi_s + phi_x*mu + (1/2)*phi_xx*sigma^2 = 0 is provided,
with the stencil weights exposed for exact Monte Carlo error propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dynamics
from .model import ModelParams, State
from .payoff import _mean_and_error

ScalarField = Callable[[float, np.ndarray, np.ndarray], np.ndarray | float]
TerminalField = Callable[[float, np.ndarray], np.ndarray | float]


@dataclass(frozen=True)
class FKProblem:
    """Potential V(s, x, u), source Theta(s, x, u), terminal T(t, x), dynamics, control u."""

    V: ScalarField
    Theta: ScalarField
    T_term: TerminalField
    dynamics: ModelParams
    u: float
    horizon: float


def fk_estimate(
    problem: FKProblem,
    s: float,
    x: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> tuple[float, float]:
    """(mean, std_error) of the conditional-expectation functional from (s, x)."""
    if not s < problem.horizon:
        raise ValueError("s must precede the horizon")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    n_steps = dynamics.n_steps_for(problem.horizon - s, dt)
    totals = dynamics._shared(n_paths)

    def work(lo: int, hi: int) -> None:
        m = hi - lo
        disc = np.ones(m)
        theta_acc = np.zeros(m)
        for t_j, xs, u, x_next, _hit, _sq in dynamics._em_steps(
            x, [problem.u], problem.dynamics, dt, n_steps, seed, lo, m
        ):
            s_j, xs, u = s + t_j, xs[0], u[0]
            theta_acc += problem.Theta(s_j, xs, u) * disc * dt
            disc = disc * np.exp(-problem.V(s_j, xs, u) * dt)
        totals[lo:hi] = problem.T_term(problem.horizon, x_next[0]) * disc + theta_acc

    dynamics._for_each_chunk(n_paths, work)
    return _mean_and_error(totals)


def pde_stencil(
    problem: FKProblem, point: State, hs: float, hx: float
) -> tuple[list[tuple[float, float, float]], float]:
    """Finite-difference stencil of the generator residual at (s, x).

    Returns (nodes, theta0) where nodes is a list of (s_i, x_i, weight_i)
    such that residual = sum_i weight_i * phi(s_i, x_i) + theta0.  Exposing
    the weights lets a caller propagate per-node Monte Carlo errors
    exactly.
    """
    s, x = point.s, point.x
    if hs <= 0.0 or hx <= 0.0:
        raise ValueError("stencil steps must be positive")
    if s - hs < 0.0 or s + hs >= problem.horizon or x - hx < 0.0:
        raise ValueError("insufficient grid for the finite-difference stencil")
    u = float(np.clip(problem.u, 0.0, 1.0))
    xa = np.asarray(x)
    ua = np.asarray(u)
    v0 = float(problem.V(s, xa, ua))
    theta0 = float(problem.Theta(s, xa, ua))
    mu = dynamics.drift(x, u, problem.dynamics)
    sig = dynamics.diffusion(x, problem.dynamics)
    half_sig2 = 0.5 * sig * sig
    nodes = [
        (s + hs, x, 1.0 / (2.0 * hs)),
        (s - hs, x, -1.0 / (2.0 * hs)),
        (s, x + hx, mu / (2.0 * hx) + half_sig2 / (hx * hx)),
        (s, x - hx, -mu / (2.0 * hx) + half_sig2 / (hx * hx)),
        (s, x, -v0 - 2.0 * half_sig2 / (hx * hx)),
    ]
    return nodes, theta0


def fk_pde_residual_check(
    problem: FKProblem,
    phi: Callable[[float, float], float],
    point: State,
    hs: float = 1e-3,
    hx: float = 1e-3,
) -> float:
    """Generator-equation residual of a numeric phi at one interior point.

    Near zero (relative to the stencil term magnitudes) when phi matches
    the conditional-expectation representation for the test problem.
    """
    nodes, theta0 = pde_stencil(problem, point, hs, hx)
    return sum(w * phi(si, xi) for si, xi, w in nodes) + theta0
