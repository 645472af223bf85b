"""Self-contained validation suites: each pits a closed form against an
independent numerical oracle (the trapezoid rule, extended-precision
finite differences, grid+bisection root scans, analytic expectation
values) and reports measured errors.

These back the `validate` CLI command and are reused by the test suite.
All suites are deterministic for a fixed seed.  The scenarios come from
`_Uniforms`, a pure-Python replica of `np.random.default_rng(seed).uniform`
that draws the same floats bit for bit, so no command imports
`numpy.random` (which stays resident at about 6 MB once imported).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .control import (
    _certificate,
    _nash_sides,
    closed_form_coeffs,
    nash_residual,
    optimal_stubbornness,
    root_scan,
    solve_quartic,
)
from .density import gaussian_integral_closed
from .feynman_kac import FKProblem, fk_estimate
from .lagrangian import _scaled_error, derivative_gap, derivatives, finite_difference_check
from .model import LagrangeParams, ModeFlags, ModelParams, PayoffParams, State

GAUSSIAN_GRID = {
    "q": (0.1, 1.0, 10.0),
    "lambda": (-2.0, 0.0, 2.0),
    "eps": (0.01, 0.1, 1.0),
    "beta_pow": (0.5, 1.0, 2.0),
}
AGREE_TOL = 1e-3  # closed-form u vs the grid+bisection oracle
SCAN_GRID_N = 512  # the root scan's grid is k / SCAN_GRID_N, k = 1..SCAN_GRID_N
PRINTED_FAIL_FRACTION = 0.9  # printed root formula must diverge this often
FD_POINTS = 100  # random interior points of the derivative suite
GAP_TOL = 1e-6  # published-mode gap vs its closed form, relative to the terms
TRIVIAL_SCENARIOS = 100  # scenarios of the trivial-root suite
ROOT_SCENARIOS = 50  # scenarios of the root-residual suite


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


class _Uniforms:
    """The draws of `np.random.default_rng(seed).uniform(lo, hi)`, bit for bit.

    numpy's default generator is PCG64 (O'Neill, "PCG: A family of simple
    fast space-efficient statistically good algorithms for random number
    generation", HMC-CS-2014-0905) seeded through `SeedSequence`.  The
    seed's 32-bit words, least significant first, are hash-mixed into a
    pool of four words; eight hashed pool words give the 128-bit start
    state and stream; each draw advances the 128-bit LCG and outputs the
    XSL-RR 64-bit word, whose top 53 bits scale [lo, hi).  Seeds are
    nonnegative integers, as `numerics.seed` is.
    """

    def __init__(self, seed: int) -> None:
        words = [seed >> 32 * i & _MASK32 for i in range(max(1, -(-seed.bit_length() // 32)))]
        const = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal const
            value ^= const
            const = const * 0x931E8875 & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
            return result ^ result >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # SeedSequence.generate_state(4, np.uint64): 8 words, paired low first
        const = 0x8B51F9DD
        state = []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * 0x58F38DED & _MASK32
            value = value * const & _MASK32
            state.append(value ^ value >> 16)
        w = [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]
        # PCG's srandom: state 0, one step, add the start state, one step
        self._inc = (w[2] << 65 | w[3] << 1 | 1) & _MASK128
        self._state = ((self._inc + (w[0] << 64 | w[1])) * _PCG_MULT + self._inc) & _MASK128

    def uniform(self, lo: float, hi: float) -> float:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        word = (word >> rot | word << (-rot & 63)) & _MASK64
        return lo + (hi - lo) * ((word >> 11) * 2.0 ** -53)


@dataclass(frozen=True)
class Scenario:
    model: ModelParams
    payoff: PayoffParams
    lagrange: LagrangeParams
    state: State


def check_gaussian_identity(quad_rel: float = 1e-8) -> dict:
    """Closed-form Gaussian integral vs the trapezoid rule over the full grid.

    Each case integrates over center +- 50 sigma_eff on 401 uniform nodes
    (spacing sigma_eff / 4).  For a smooth integrand that decays this fast
    the trapezoid rule converges exponentially (Trefethen & Weideman,
    SIAM Review 2014), so its error is at the level of rounding.
    """
    cases = np.array(list(itertools.product(*GAUSSIAN_GRID.values())))
    q, lam, eps, bp = cases.T
    sigma_eff = np.sqrt(eps * bp / (2.0 * q))
    center = lam * eps * eps / (2.0 * q)
    xi = np.linspace(center - 50.0 * sigma_eff, center + 50.0 * sigma_eff, 401, axis=1)
    integrand = np.exp(-(q / (eps * bp))[:, None] * xi * xi + (lam * eps / bp)[:, None] * xi)
    numeric = np.trapezoid(integrand, xi, axis=1)
    closed = np.array([gaussian_integral_closed(*case) for case in cases])
    worst = float(np.max(np.abs(closed - numeric) / np.abs(numeric)))
    return {
        "name": "gaussian_integral_identity",
        "cases": len(cases),
        "max_rel_error": worst,
        "tolerance": quad_rel,
        "passed": bool(worst <= quad_rel),
    }


def _random_interior_point(rng: _Uniforms, with_multiplier: bool) -> Scenario:
    rm = rng.uniform(0.1, 1.0)
    mu_bar = rng.uniform(-0.2, 0.3)
    if with_multiplier:
        lag = LagrangeParams(l0=rng.uniform(-0.3, 0.3), l1=rng.uniform(-0.3, 0.3))
    else:
        lag = LagrangeParams()
    return Scenario(
        model=ModelParams(
            a=rng.uniform(0.0, 2.0),
            sigma1=rng.uniform(0.0, 1.0),
            sigma2=rng.uniform(0.0, 1.2),
        ),
        payoff=PayoffParams(
            theta=rng.uniform(0.1, 1.0),
            alpha1=rng.uniform(0.0, 0.4),
            alpha2=rng.uniform(0.0, 0.4),
            alpha3=rng.uniform(0.0, 0.4),
            c=rng.uniform(0.2, 3.0),
            r=mu_bar + rm,
            mu_bar=mu_bar,
            omega=rng.uniform(0.2, 2.0),
            horizon=1.0,
        ),
        lagrange=lag,
        state=State(s=rng.uniform(0.0, 1.0), x=rng.uniform(0.1, 5.0)),
    )


def check_finite_differences(seed: int = 2024, fd_rel: float = 1e-5) -> dict:
    """Exact-mode partials vs FD, and published-mode gap vs its closed form,
    at FD_POINTS random points.

    The FD errors are those of :func:`finite_difference_check`; each gap
    error is measured against the size of its terms, max(|published|,
    |exact|, |closed-form gap|) of that partial.
    """
    rng = _Uniforms(seed)
    worst_fd = 0.0
    worst_gap = 0.0
    for i in range(FD_POINTS):
        sc = _random_interior_point(rng, with_multiplier=(i % 2 == 1))
        u = rng.uniform(0.0, 1.0)
        report = finite_difference_check(
            sc.state,
            u,
            sc.model,
            sc.payoff,
            sc.lagrange,
            step=1e-3,
        )
        worst_fd = max(worst_fd, report.max_error())

        bp = derivatives(sc.state, u, sc.model, sc.payoff, sc.lagrange, mode="paper")
        bc = derivatives(sc.state, u, sc.model, sc.payoff, sc.lagrange, mode="consistent")
        gaps = derivative_gap(sc.state, u, sc.model, sc.payoff, sc.lagrange)
        pairs = ((bp.f_x, bc.f_x), (bp.f_xx, bc.f_xx), (bp.f_xu, bc.f_xu))
        for (published, exact), want in zip(pairs, gaps):
            err = _scaled_error(published - exact, want, max(abs(published), abs(exact)))
            worst_gap = max(worst_gap, err)
    return {
        "name": "derivative_consistency",
        "points": FD_POINTS,
        "max_fd_rel_error": worst_fd,
        "fd_tolerance": fd_rel,
        "max_gap_error": worst_gap,
        "gap_tolerance": GAP_TOL,
        "passed": bool(worst_fd <= fd_rel and worst_gap <= GAP_TOL),
    }


def check_trivial_root(seed: int = 7) -> dict:
    """nash_residual(u=0) == 0 exactly for l0 = 0 in all four mode pairs,
    over TRIVIAL_SCENARIOS scenarios."""
    rng = _Uniforms(seed)
    worst = 0.0
    for _ in range(TRIVIAL_SCENARIOS):
        sc = _random_interior_point(rng, with_multiplier=False)
        for dm in ("paper", "consistent"):
            for nm in ("paper", "rederived"):
                modes = ModeFlags(derivative_mode=dm, nash_mode=nm)
                worst = max(
                    worst,
                    abs(
                        nash_residual(
                            sc.state, 0.0, sc.model, sc.payoff, sc.lagrange, modes
                        )
                    ),
                )
    return {
        "name": "trivial_root_law",
        "scenarios": TRIVIAL_SCENARIOS,
        "max_abs_residual": worst,
        "passed": bool(worst == 0.0),
    }


def sample_root_scenario(rng: _Uniforms) -> Scenario | None:
    """One scenario (s = 0, l0 = 0) whose exact-expansion roots the scan can check.

    Some root gives u in [1/SCAN_GRID_N, 1) and none gives u in
    (0, 1/SCAN_GRID_N), below the scan's first grid point, where the scan
    cannot see it.  Returns None when the draw has no such roots; resample
    on None.
    """
    rm = rng.uniform(0.1, 0.7)
    mu_bar = rng.uniform(-0.1, 0.3)
    sc = Scenario(
        model=ModelParams(
            a=rng.uniform(0.0, 1.5),
            sigma1=rng.uniform(0.0, 0.8),
            sigma2=rng.uniform(0.0, 0.8),
        ),
        payoff=PayoffParams(
            theta=rng.uniform(0.05, 0.5),
            alpha1=rng.uniform(0.0, 0.5),
            alpha2=rng.uniform(0.0, 0.5),
            alpha3=rng.uniform(0.0, 0.5),
            c=rng.uniform(0.5, 4.0),
            r=mu_bar + rm,
            mu_bar=mu_bar,
            omega=rng.uniform(0.2, 2.0),
            horizon=1.0,
        ),
        lagrange=LagrangeParams(),
        state=State(s=0.0, x=rng.uniform(0.4, 2.5)),
    )
    coeffs = closed_form_coeffs(sc.state, sc.model, sc.payoff, sc.lagrange)
    us = [math.sqrt(z) for z in solve_quartic(coeffs, "rederived") if z > 0.0]
    u_min = 1.0 / SCAN_GRID_N
    if any(u_min <= u < 1.0 for u in us) and all(u >= u_min for u in us):
        return sc
    return None


def collect_root_scenarios(n: int, seed: int) -> list[Scenario]:
    rng = _Uniforms(seed)
    out: list[Scenario] = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 200 * n:
            raise RuntimeError("scenario sampling failed to converge")
        sc = sample_root_scenario(rng)
        if sc is not None:
            out.append(sc)
    return out


def check_root_residuals(
    seed: int = 11,
    residual_rel: float = 1e-6,
    dt: float = 0.01,
    n_paths: int = 200,
) -> dict:
    """Closed form vs grid+bisection oracle, and printed-formula divergence.

    For each of ROOT_SCENARIOS scenarios: |u_closed - u_scan| <= AGREE_TOL,
    the residual certificate holds at u*, and the exact-expansion roots
    satisfy the polynomial to 1e-9 of the coefficient scale.  The printed
    two-branch root formula is then evaluated verbatim and its polynomial
    residual recorded; it is expected to fail the certificate on at least
    PRINTED_FAIL_FRACTION of the scenarios.  A scenario with several
    candidates would rank them with dt, n_paths and seed, as `optimize`
    does; the sampled scenarios have one each.
    """
    modes = ModeFlags(derivative_mode="paper", nash_mode="paper", closed_form_mode="rederived")
    scenarios = collect_root_scenarios(ROOT_SCENARIOS, seed)
    worst_agree = 0.0
    worst_cert = 0.0
    worst_poly = 0.0
    printed_failures = 0
    printed_records = []
    for sc in scenarios:
        coeffs = closed_form_coeffs(sc.state, sc.model, sc.payoff, sc.lagrange)
        scale = coeffs.coefficient_scale()
        result = optimal_stubbornness(
            sc.state, sc.model, sc.payoff, sc.lagrange, modes,
            dt=dt, n_paths=n_paths, seed=seed,
        )
        interior = [u for u in result.u_candidates if 0.0 < u < 1.0]
        u_closed = min(interior, key=lambda u: abs(u - result.u_star)) if interior else result.u_star

        for z in result.z_roots:
            if z >= 0.0:
                worst_poly = max(worst_poly, abs(coeffs.polynomial_residual(z)) / scale)

        scan = root_scan(sc.state, sc.model, sc.payoff, sc.lagrange, modes, grid_n=SCAN_GRID_N)
        if not scan:
            worst_agree = math.inf
        else:
            nearest = min(scan, key=lambda u: abs(u - u_closed))
            worst_agree = max(worst_agree, abs(u_closed - nearest))

        lhs, rhs = _nash_sides(
            sc.state.s, sc.state.x, u_closed, sc.model, sc.payoff, sc.lagrange, modes
        )
        worst_cert = max(worst_cert, _certificate(lhs, rhs))

        printed = solve_quartic(coeffs, "paper-verbatim")
        if printed:
            printed_res = min(abs(coeffs.polynomial_residual(z)) for z in printed)
        else:
            printed_res = math.inf
        diverged = not printed_res <= residual_rel * scale
        printed_failures += diverged
        printed_records.append(
            {
                "s": sc.state.s,
                "x": sc.state.x,
                "printed_residual": printed_res if math.isfinite(printed_res) else None,
                "coefficient_scale": scale,
                "diverged": bool(diverged),
            }
        )
    fail_frac = printed_failures / ROOT_SCENARIOS
    return {
        "name": "root_residuals",
        "scenarios": ROOT_SCENARIOS,
        "max_closed_vs_scan": worst_agree,
        "agree_tolerance": AGREE_TOL,
        "max_certificate_ratio": worst_cert,
        "certificate_tolerance": residual_rel,
        "max_polynomial_residual_ratio": worst_poly,
        "printed_formula_fail_fraction": fail_frac,
        "printed_formula_records": printed_records,
        "passed": bool(
            worst_agree <= AGREE_TOL
            and worst_cert <= residual_rel
            and worst_poly <= 1e-9
            and fail_frac >= PRINTED_FAIL_FRACTION
        ),
    }


def check_fk_cases(dt: float, n_paths: int, seed: int) -> dict:
    """Frozen-dynamics discount case (exact) and driftless stochastic case (3 SE)."""
    frozen = ModelParams(a=0.0, sigma1=0.0, sigma2=0.0)
    r = 0.35
    problem = FKProblem(
        V=lambda s, x, u: r,
        Theta=lambda s, x, u: 0.0,
        T_term=lambda t, x: x,
        dynamics=frozen,
        u=0.0,
        horizon=1.0,
    )
    s0, x0 = 0.2, 1.3
    mean, _ = fk_estimate(problem, s0, x0, dt, 16, seed)
    frozen_expect = x0 * math.exp(-r * (1.0 - s0))
    frozen_err = abs(mean - frozen_expect) / abs(frozen_expect)

    noisy = ModelParams(a=0.0, sigma1=0.3, sigma2=0.0)
    problem2 = FKProblem(
        V=lambda s, x, u: 0.0,
        Theta=lambda s, x, u: 0.0,
        T_term=lambda t, x: x,
        dynamics=noisy,
        u=0.0,
        horizon=1.0,
    )
    mean2, se2 = fk_estimate(problem2, 0.0, 1.0, dt, n_paths, seed)
    stoch_dev = abs(mean2 - 1.0)
    se_bound = 3.0
    return {
        "name": "feynman_kac_analytic",
        "frozen_rel_error": frozen_err,
        "frozen_tolerance": 1e-12,
        "stochastic_mean": mean2,
        "stochastic_std_error": se2,
        "stochastic_deviation": stoch_dev,
        "n_paths": n_paths,
        # two-sided normal tail beyond the bound: how often correct code fails
        "stochastic_false_alarm_rate": math.erfc(se_bound / math.sqrt(2.0)),
        "passed": bool(frozen_err <= 1e-12 and stoch_dev <= se_bound * se2),
    }


def _null_if_not_finite(suite: dict) -> dict:
    """The suite with each non-finite float as None, which JSON writes as null."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in suite.items()}


def run_all_checks(
    n_paths: int, dt: float, seed: int, fd_rel: float, residual_rel: float, quad_rel: float
) -> tuple[dict, dict[str, float]]:
    """(report, seconds per suite): every suite, keyed by name, plus an overall pass flag.

    A suite value that is not finite (an empty root scan makes
    max_closed_vs_scan infinite) is reported as None, so the report is
    strict JSON; each suite's pass flag is decided before that.  The
    seconds stay out of the report, which is deterministic.
    """
    runs = [
        lambda: check_gaussian_identity(quad_rel),
        lambda: check_finite_differences(fd_rel=fd_rel, seed=seed + 1),
        lambda: check_trivial_root(seed=seed + 2),
        lambda: check_root_residuals(
            seed=seed + 3, residual_rel=residual_rel, dt=dt, n_paths=n_paths
        ),
        lambda: check_fk_cases(dt=dt, n_paths=n_paths, seed=seed + 4),
    ]
    suites, seconds = [], {}
    for run in runs:
        started = time.perf_counter()
        suite = run()
        seconds[suite["name"]] = time.perf_counter() - started
        suites.append(suite)
    report = {
        "suites": {s["name"]: _null_if_not_finite(s) for s in suites},
        "passed": bool(all(s["passed"] for s in suites)),
    }
    return report, seconds
