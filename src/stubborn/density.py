"""Gaussian-reduced transition-kernel updates for the state density.

Both updates evolve a normalized density grid Psi_s(x) by a small time
increment eps using a local quadratic (Laplace) model of the Lagrangian f
with a = f_xx/2 and b = f_x:

* kernel_step applies the pointwise multiplier sqrt(pi/(eps*a)) * exp(eps*E)
  (optionally with the gradient correction term (x - b/(2a)) * dPsi/dx),
  then renormalizes numerically.
* schrodinger_step applies the pointwise exponential-Euler update
  Psi <- Psi * exp(eps*E) and renormalizes.

The growth exponent E depends on kernel_exponent_mode: "rederived" uses
b^2/(4a) - f (the value the completed square actually produces, confirmed
by quadrature), "paper" uses b^2/(4a^2) - f as printed.  With the gradient
term off and a constant over the grid, the two updates agree after
normalization.

Both updates need a = f_xx/2 > 0 over the grid and raise KernelError
otherwise.  The published partials (derivative_mode="paper") give f_xx > 0
on the README config; the calculus-exact ones ("consistent") give f_xx < 0
there, so neither update runs in that mode on that config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lagrangian import _f_core, _partials, _require_positive_x
from .model import LagrangeParams, ModeFlags, ModelParams, PayoffParams, State

BOUNDARY_MASS_LIMIT = 1e-6
NORMALIZATION_TOL = 1e-9

# fields(s, x_grid) -> (f, f_x, f_xx) arrays over the grid
FieldFn = Callable[[float, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


class KernelError(ValueError):
    """Kernel update not normalizable (a <= 0 somewhere on the grid)."""


@dataclass(frozen=True)
class DensityGrid:
    x_grid: np.ndarray
    psi: np.ndarray
    s: float
    warning: str | None = None

    def __post_init__(self) -> None:
        if len(self.x_grid) != len(self.psi):
            raise ValueError("x_grid and psi must have equal length")
        if len(self.x_grid) < 4:
            raise ValueError("grid needs at least 4 points")
        if np.any(np.diff(self.x_grid) <= 0.0):
            raise ValueError("x_grid must be strictly increasing")
        if np.any(self.psi < 0.0):
            raise ValueError("psi must be nonnegative")
        total = float(np.trapezoid(self.psi, self.x_grid))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"normalized grid integrates to {total}, not 1")


def gaussian_density_grid(x_grid: np.ndarray, center: float, width: float) -> DensityGrid:
    """Normalized Gaussian bump at s = 0 with zeroed endpoints, for initial conditions."""
    x = np.asarray(x_grid, dtype=np.float64)
    psi = np.exp(-0.5 * ((x - center) / width) ** 2)
    psi[0] = 0.0
    psi[-1] = 0.0
    psi /= np.trapezoid(psi, x)
    return DensityGrid(x_grid=x, psi=psi, s=0.0)


def gaussian_integral_closed(q: float, lambda_coef: float, eps: float, beta_pow: float) -> float:
    """Closed form of int exp{-q*xi^2/(eps*B) + lambda*eps*xi/B} dxi with B = (1+beta)^t.

    Equals exp{lambda^2*eps^3 / (4*q*B)} * sqrt(eps*pi*B / q).
    """
    if q <= 0.0:
        raise ValueError("q must be positive")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if beta_pow <= 0.0:
        raise ValueError("beta_pow must be positive")
    exponent = lambda_coef**2 * eps**3 / (4.0 * q * beta_pow)
    return math.exp(exponent) * math.sqrt(eps * math.pi * beta_pow / q)


def model_fields(
    u: float,
    model: ModelParams,
    payoff: PayoffParams,
    lagrange: LagrangeParams,
    modes: ModeFlags = ModeFlags(),
    Mbar: float | None = None,
) -> FieldFn:
    """FieldFn that evaluates (f, f_x, f_xx) of the model Lagrangian at fixed u.

    One array evaluation per call; each value equals a per-point
    :func:`stubborn.lagrangian.derivatives` call bit for bit.
    """

    def fields(s: float, x_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = np.asarray(x_grid, dtype=np.float64)
        bad = x[~(np.isfinite(x) & (x > 0.0))]
        # the first point outside (0, inf) raises what derivatives() raises there
        state = State(s=s, x=float(bad[0] if bad.size else x[0]))
        _require_positive_x(state.x, u)
        _f_u, f_x, f_xx, _f_xu = _partials(s, x, u, model, payoff, lagrange,
                                           modes.derivative_mode)
        return _f_core(s, x, u, model, payoff, lagrange, Mbar), f_x, f_xx

    return fields


def _laplace_terms(
    grid: DensityGrid, eps: float, fields: FieldFn, kernel_exponent_mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x, a, b, E): the grid, a = f_xx/2, b = f_x and the growth exponent."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    x = grid.x_grid
    f, b, fxx = fields(grid.s, x)
    a = 0.5 * fxx
    bad = np.flatnonzero(a <= 0.0)
    if bad.size:
        raise KernelError(f"kernel not normalizable at grid point {int(bad[0])}")
    if kernel_exponent_mode == "rederived":
        return x, a, b, b * b / (4.0 * a) - f
    if kernel_exponent_mode == "paper":
        return x, a, b, b * b / (4.0 * a * a) - f
    raise ValueError("kernel_exponent_mode must be 'paper' or 'rederived'")


def _growth(eps: float, E: np.ndarray, support: np.ndarray) -> np.ndarray:
    """exp(eps*E) over the support, divided by its largest value there; 0 off it.

    The constant is absorbed by the normalizer.  Shifting by the max over the
    points the update carries, not over the whole grid, keeps a large E at a
    point without mass (the zeroed endpoints) from pushing the carried values
    into subnormal range or to 0; masking the exponential off the support
    keeps the larger values there from overflowing.
    """
    out = np.zeros_like(E)
    np.exp(eps * (E - E[support].max()), out=out, where=support)
    return out


def _finish_step(
    raw: np.ndarray, x: np.ndarray, s_next: float
) -> DensityGrid:
    raw = np.maximum(raw, 0.0)
    total = float(np.trapezoid(raw, x))
    if total <= 0.0:
        raise KernelError("kernel update annihilated all mass")
    warning = None
    boundary = float(
        np.trapezoid(raw[:2], x[:2]) + np.trapezoid(raw[-2:], x[-2:])
    )
    if boundary / total > BOUNDARY_MASS_LIMIT:
        warning = (
            f"boundary mass fraction {boundary / total:.3e} exceeds "
            f"{BOUNDARY_MASS_LIMIT:.0e}; widen the grid"
        )
    raw[0] = 0.0
    raw[-1] = 0.0
    psi = raw / np.trapezoid(raw, x)
    # subnormal values keep too few significant bits to mean anything
    psi[psi < np.finfo(psi.dtype).tiny] = 0.0
    return DensityGrid(x_grid=x, psi=psi, s=s_next, warning=warning)


def kernel_step(
    grid: DensityGrid,
    eps: float,
    fields: FieldFn,
    kernel_exponent_mode: str = "rederived",
    gradient_correction: bool = False,
) -> DensityGrid:
    """One Gaussian-reduced kernel update of the density grid.

    The pointwise multiplier is sqrt(pi/(eps*a)) * exp(eps*E); the optional
    gradient correction adds (x - b/(2a)) * dPsi/dx under the same
    multiplier.  The normalizer is numeric: the output integrates to 1.
    """
    x, a, b, E = _laplace_terms(grid, eps, fields, kernel_exponent_mode)
    support = grid.psi > 0.0
    if gradient_correction:
        dpsi = np.gradient(grid.psi, x)
        support |= dpsi != 0.0
    mult = np.sqrt(math.pi / (eps * a)) * _growth(eps, E, support)
    raw = mult * grid.psi
    if gradient_correction:
        raw = raw + mult * (x - b / (2.0 * a)) * dpsi
    return _finish_step(raw, x, grid.s + eps)


def schrodinger_step(
    grid: DensityGrid,
    eps: float,
    fields: FieldFn,
    kernel_exponent_mode: str = "rederived",
) -> DensityGrid:
    """One exponential-Euler update Psi <- Psi * exp(eps*E), renormalized."""
    x, _, _, E = _laplace_terms(grid, eps, fields, kernel_exponent_mode)
    raw = grid.psi * _growth(eps, E, grid.psi > 0.0)
    return _finish_step(raw, x, grid.s + eps)
