"""Stochastic optimal control for goal-dynamics SDEs.

Simulation of dx = (a*sqrt(x) - sigma2*x - u) ds + (sigma1 - sigma2*x) dW,
Monte Carlo payoff evaluation, closed-form feedback stubbornness with
independent root-finding oracles, transition-density propagation, and a
conditional-expectation (Feynman-Kac style) estimator.
"""

__version__ = "0.1.0"

from .model import (
    LagrangeParams,
    ModeFlags,
    ModelParams,
    ParameterError,
    PayoffParams,
    State,
    clamp_control,
    validate_params,
)
from .dynamics import diffusion, drift, simulate_batch
from .payoff import (
    PayoffEstimate,
    expected_payoff,
    expected_payoffs,
    payoff_stationarity,
)
from .lagrangian import (
    DerivativeBundle,
    assemble_f_from_generator,
    derivative_gap,
    derivatives,
    finite_difference_check,
    hand_coded_f,
    integrating_factor,
)
from .control import (
    ClosedFormCoeffs,
    OptimalControlResult,
    closed_form_coeffs,
    nash_residual,
    optimal_stubbornness,
    root_scan,
    solve_quartic,
)
from .density import (
    DensityGrid,
    gaussian_integral_closed,
    kernel_step,
    schrodinger_step,
)
from .feynman_kac import FKProblem, fk_estimate, fk_pde_residual_check

__all__ = [
    "__version__",
    "LagrangeParams",
    "ModeFlags",
    "ModelParams",
    "ParameterError",
    "PayoffParams",
    "State",
    "clamp_control",
    "validate_params",
    "diffusion",
    "drift",
    "simulate_batch",
    "PayoffEstimate",
    "expected_payoff",
    "expected_payoffs",
    "payoff_stationarity",
    "DerivativeBundle",
    "assemble_f_from_generator",
    "derivative_gap",
    "derivatives",
    "finite_difference_check",
    "hand_coded_f",
    "integrating_factor",
    "ClosedFormCoeffs",
    "OptimalControlResult",
    "closed_form_coeffs",
    "nash_residual",
    "optimal_stubbornness",
    "root_scan",
    "solve_quartic",
    "DensityGrid",
    "gaussian_integral_closed",
    "kernel_step",
    "schrodinger_step",
    "FKProblem",
    "fk_estimate",
    "fk_pde_residual_check",
]
