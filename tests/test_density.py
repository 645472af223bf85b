import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from stubborn import checks
from stubborn.density import (
    DensityGrid,
    KernelError,
    gaussian_density_grid,
    gaussian_integral_closed,
    kernel_step,
    model_fields,
    schrodinger_step,
)
from stubborn.lagrangian import SingularCostError, derivatives
from stubborn.model import (
    DERIVATIVE_MODES,
    LagrangeParams,
    ModeFlags,
    ModelParams,
    ParameterError,
    PayoffParams,
    State,
)

NO_LAG = LagrangeParams()


def quadratic_fields(c0=0.3, c1=0.4, c2=0.5):
    """Synthetic f = c0 + c1*x + (c2/2)... returns (f, f_x, f_xx) with f_xx = 2*c2? No:
    f = c0 + c1*x + c2*x^2, f_x = c1 + 2*c2*x, f_xx = 2*c2 (constant)."""

    def fields(s, x):
        return (
            c0 + c1 * x + c2 * x * x,
            c1 + 2.0 * c2 * x,
            np.full_like(x, 2.0 * c2),
        )

    return fields


def test_gaussian_integral_reference_values():
    assert gaussian_integral_closed(1.0, 0.0, 1.0, 1.0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gaussian_integral_closed(1.0, 2.0, 1.0, 1.0) == pytest.approx(
        math.e * math.sqrt(math.pi), rel=1e-15
    )


def test_gaussian_integral_vs_quadrature():
    q, lam, eps, bp = 2.7, -1.3, 0.35, 1.8
    closed = gaussian_integral_closed(q, lam, eps, bp)
    sigma_eff = math.sqrt(eps * bp / (2.0 * q))
    center = lam * eps * eps / (2.0 * q)
    numeric, _ = scipy.integrate.quad(
        lambda xi: math.exp(-q * xi * xi / (eps * bp) + lam * eps * xi / bp),
        center - 50 * sigma_eff,
        center + 50 * sigma_eff,
        epsabs=0.0,
        epsrel=1e-12,
    )
    assert closed == pytest.approx(numeric, rel=1e-10)


def test_gaussian_identity_suite_is_exact_and_sees_a_wrong_closed_form(monkeypatch):
    suite = checks.check_gaussian_identity()
    assert suite["cases"] == 81 and suite["passed"]
    assert suite["max_rel_error"] <= 1e-12
    true_closed = checks.gaussian_integral_closed
    monkeypatch.setattr(
        checks, "gaussian_integral_closed", lambda *args: (1.0 + 1e-6) * true_closed(*args)
    )
    wrong = checks.check_gaussian_identity()
    assert wrong["passed"] is False
    assert wrong["max_rel_error"] == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("bad", [
    dict(q=0.0, lambda_coef=0.0, eps=1.0, beta_pow=1.0),
    dict(q=1.0, lambda_coef=0.0, eps=-1.0, beta_pow=1.0),
    dict(q=1.0, lambda_coef=0.0, eps=1.0, beta_pow=0.0),
])
def test_gaussian_integral_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        gaussian_integral_closed(**bad)


def test_laplace_degenerate_at_zero_control_flat_model():
    # u = 0, sigma2 = 0 in the published mode leaves f_xx = 0: the expansion
    # has no quadratic term and a density step refuses to take it.
    p = PayoffParams(theta=1.0, alpha1=0.0, alpha2=0.0, alpha3=0.0,
                     c=1.0, r=0.5, mu_bar=0.0, omega=1.0, horizon=1.0)
    model = ModelParams(a=0.0, sigma1=0.5, sigma2=0.0)
    fields = model_fields(0.0, model, p, NO_LAG, ModeFlags(derivative_mode="paper"))
    grid = gaussian_density_grid(np.linspace(0.2, 3.0, 33), 1.6, 0.35)
    for step_fn in (kernel_step, schrodinger_step):
        with pytest.raises(KernelError, match="kernel not normalizable at grid point 0"):
            step_fn(grid, 0.01, fields)


@settings(max_examples=30, deadline=None)
@given(
    x=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=40),
    s=st.floats(0.0, 2.0),
    u=st.floats(0.0, 1.0),
    a=st.floats(0.0, 3.0),
    sigma1=st.floats(0.0, 1.0),
    sigma2=st.floats(0.0, 1.5),
    c=st.floats(0.1, 3.0),
    r=st.floats(0.1, 1.0),
    l0=st.floats(-1.0, 1.0),
    l1=st.floats(-1.0, 1.0),
    mode=st.sampled_from(DERIVATIVE_MODES),
    Mbar=st.none() | st.floats(-2.0, 2.0),
)
def test_model_fields_equals_per_point_derivatives(x, s, u, a, sigma1, sigma2, c, r,
                                                    l0, l1, mode, Mbar):
    # one grid evaluation gives every point's derivatives() values bit for bit
    model = ModelParams(a=a, sigma1=sigma1, sigma2=sigma2)
    p = PayoffParams(theta=1.0, alpha1=0.2, alpha2=0.1, alpha3=0.05,
                     c=c, r=r, mu_bar=r - 0.3, omega=1.3, horizon=1.5)
    lag = LagrangeParams(l0=l0, l1=l1)
    x_grid = np.array(x)
    f, f_x, f_xx = model_fields(u, model, p, lag, ModeFlags(derivative_mode=mode), Mbar)(s, x_grid)
    points = [derivatives(State(s=s, x=xi), u, model, p, lag, mode=mode, Mbar=Mbar) for xi in x]
    assert np.array_equal(f, [b.f for b in points])
    assert np.array_equal(f_x, [b.f_x for b in points])
    assert np.array_equal(f_xx, [b.f_xx for b in points])
    assert f.dtype == f_x.dtype == f_xx.dtype == np.float64


def test_model_fields_rejects_nonpositive_grid_points():
    # the errors a per-point derivatives() call raises at the first bad point
    p = PayoffParams(theta=1.0, alpha1=0.1, alpha2=0.1, alpha3=0.1,
                     c=1.0, r=0.5, mu_bar=0.0, omega=1.0, horizon=1.0)
    model = ModelParams(a=1.0, sigma1=0.3, sigma2=0.4)
    zero = np.array([0.5, 0.0, 1.0])
    with pytest.raises(SingularCostError, match="cost singular at x=0"):
        model_fields(0.2, model, p, NO_LAG)(0.0, zero)
    with pytest.raises(ValueError, match="x must be positive"):
        model_fields(0.0, model, p, NO_LAG)(0.0, zero)
    with pytest.raises(ParameterError, match="x must be finite and nonnegative"):
        model_fields(0.2, model, p, NO_LAG)(0.0, np.array([0.5, -0.1, 0.0]))


def test_constant_multiplier_is_identity_after_normalization():
    # Constant f with a synthetic positive curvature: the pointwise
    # multiplier is the same everywhere and normalization removes it.
    def fields(s, x):
        return np.full_like(x, 1.7), np.zeros_like(x), np.full_like(x, 2.0)

    x = np.linspace(-3, 3, 201)
    grid = gaussian_density_grid(x, 0.0, 0.8)
    for step_fn in (kernel_step, schrodinger_step):
        out = step_fn(grid, 0.05, fields)
        assert np.allclose(out.psi, grid.psi, atol=1e-14)


def test_kernel_multiplier_matches_gaussian_closed_form():
    fields = quadratic_fields()
    x = np.linspace(-4, 4, 257)
    grid = gaussian_density_grid(x, 0.0, 1.0)
    eps = 0.02
    out = kernel_step(grid, eps, fields)
    f, fx, fxx = fields(0.0, x)
    a = 0.5 * fxx

    def multiplier(i):
        # int exp(-eps*(f + b*y + a*y^2)) dy via the closed Gaussian form
        return math.exp(-eps * f[i]) * gaussian_integral_closed(
            eps * eps * a[i], -fx[i], eps, 1.0
        )

    i, j = 80, 170
    got = (out.psi[i] / grid.psi[i]) / (out.psi[j] / grid.psi[j])
    want = multiplier(i) / multiplier(j)
    assert got == pytest.approx(want, rel=1e-10)


def test_exponent_modes_differ_unless_unit_curvature():
    x = np.linspace(-4, 4, 257)
    base = gaussian_density_grid(x, 0.0, 1.0)
    eps = 0.01
    half = quadratic_fields(c2=0.5)  # a = 0.5
    p_half = schrodinger_step(base, eps, half, "paper")
    r_half = schrodinger_step(base, eps, half, "rederived")
    assert np.abs(p_half.psi - r_half.psi).max() > 1e-6
    # the difference is exactly the b^2-term of the exponent: the log-ratio
    # minus eps*(b^2/(4a^2) - b^2/(4a)) is a normalization constant
    interior = slice(1, -1)
    _, fx, fxx = half(0.0, x)
    a = 0.5 * fxx
    gap = eps * (fx * fx / (4.0 * a * a) - fx * fx / (4.0 * a))
    log_ratio = np.log(p_half.psi[interior]) - np.log(r_half.psi[interior])
    shifted = log_ratio - gap[interior]
    assert shifted.max() - shifted.min() <= 1e-12

    unit = quadratic_fields(c2=1.0)  # a = 1: 4a == 4a^2
    p_unit = schrodinger_step(base, eps, unit, "paper")
    r_unit = schrodinger_step(base, eps, unit, "rederived")
    assert np.array_equal(p_unit.psi, r_unit.psi)


def test_schrodinger_zero_growth_is_identity():
    # f = b^2/(4a^2) with a = 1 makes the growth exponent vanish in both modes.
    def fields(s, x):
        b = 0.4 + 2.0 * x
        return b * b / 4.0, b, np.full_like(x, 2.0)

    x = np.linspace(-3, 3, 201)
    grid = gaussian_density_grid(x, 0.0, 0.7)
    out = schrodinger_step(grid, 0.05, fields)
    assert np.allclose(out.psi, grid.psi, atol=1e-14)


def test_mass_concentrates_at_growth_maximum():
    # E = -(x - 1)^2: pure exponential reweighting gives init * exp(S*E)
    # after elapsed weight S, whose argmax 2S/(1/sigma0^2 + 2S) drifts to the
    # growth maximizer as S grows.
    def fields(s, x):
        return (x - 1.0) ** 2, np.zeros_like(x), np.full_like(x, 2.0)

    sigma0, eps, n_steps = 0.8, 0.1, 200
    x = np.linspace(-2, 3, 501)
    grid = gaussian_density_grid(x, 0.0, sigma0)
    for _ in range(n_steps):
        grid = schrodinger_step(grid, eps, fields)
    S = n_steps * eps
    predicted = 2.0 * S / (1.0 / sigma0**2 + 2.0 * S)
    dx = x[1] - x[0]
    assert abs(x[np.argmax(grid.psi)] - predicted) <= dx
    # long-run limit: strictly closer to the growth maximum than the start
    assert abs(x[np.argmax(grid.psi)] - 1.0) < 0.05


def test_zero_gradient_equivalence():
    fields = quadratic_fields()
    x = np.linspace(-4, 4, 512)
    g_k = gaussian_density_grid(x, 0.0, 1.0)
    g_s = gaussian_density_grid(x, 0.0, 1.0)
    for _ in range(20):
        g_k = kernel_step(g_k, 0.01, fields, gradient_correction=False)
        g_s = schrodinger_step(g_s, 0.01, fields)
    assert np.abs(g_k.psi - g_s.psi).max() <= 1e-8
    assert abs(np.trapezoid(g_k.psi, g_k.x_grid) - 1.0) <= 1e-9
    assert abs(np.trapezoid(g_s.psi, g_s.x_grid) - 1.0) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(8, 200),
    lo=st.floats(-3.0, 1.0),
    width=st.floats(1.0, 6.0),
    coeffs=st.tuples(*[st.floats(-2.0, 2.0)] * 4),
    a=st.floats(0.05, 5.0),
    eps=st.floats(1e-3, 0.1),
    mode=st.sampled_from(["rederived", "paper"]),
    n_steps=st.integers(1, 3),
)
def test_kernel_equals_schrodinger_for_constant_curvature(n, lo, width, coeffs, a, eps,
                                                          mode, n_steps):
    # with the gradient term off, a constant a makes the kernel multiplier's
    # sqrt(pi/(eps*a)) a constant that normalization removes
    c0, c1, c2, c3 = coeffs

    def fields(s, x):
        return c0 + c1 * x + c2 * np.sin(x), c3 + c1 * x, np.full_like(x, 2.0 * a)

    x = np.linspace(lo, lo + width, n)
    g_k = g_s = gaussian_density_grid(x, lo + 0.5 * width, 0.25 * width)
    for _ in range(n_steps):
        g_k = kernel_step(g_k, eps, fields, mode, gradient_correction=False)
        g_s = schrodinger_step(g_s, eps, fields, mode)
        assert g_k.s == g_s.s
        np.testing.assert_allclose(g_k.psi, g_s.psi, rtol=1e-12, atol=0.0)


def test_gradient_correction_changes_output():
    fields = quadratic_fields()
    x = np.linspace(-4, 4, 257)
    grid = gaussian_density_grid(x, 0.0, 1.0)
    plain = kernel_step(grid, 0.01, fields, gradient_correction=False)
    corrected = kernel_step(grid, 0.01, fields, gradient_correction=True)
    assert np.abs(plain.psi - corrected.psi).max() > 1e-12
    assert np.all(corrected.psi >= 0.0)


def test_positivity_and_normalization_preserved():
    p = PayoffParams(theta=1.0, alpha1=0.1, alpha2=0.1, alpha3=0.1,
                     c=1.0, r=0.5, mu_bar=0.0, omega=1.0, horizon=1.0)
    model = ModelParams(a=1.0, sigma1=0.3, sigma2=0.4)
    fields = model_fields(0.2, model, p, NO_LAG)
    x = np.linspace(0.2, 3.0, 301)
    grid = gaussian_density_grid(x, 1.6, 0.35)
    for _ in range(10):
        grid = schrodinger_step(grid, 0.01, fields)
        assert np.all(grid.psi >= 0.0)
        assert abs(np.trapezoid(grid.psi, grid.x_grid) - 1.0) <= 1e-9


def test_negative_curvature_not_normalizable():
    def fields(s, x):
        fxx = np.where(x > 0.5, -1.0, 2.0)
        return np.zeros_like(x), np.zeros_like(x), fxx

    x = np.linspace(-1, 1, 101)
    grid = gaussian_density_grid(x, 0.0, 0.3)
    with pytest.raises(KernelError, match="kernel not normalizable at grid point"):
        kernel_step(grid, 0.01, fields)


def test_boundary_mass_warning():
    fields = quadratic_fields(c1=0.0, c2=0.5)
    x_wide = np.linspace(-8, 8, 301)
    wide = kernel_step(gaussian_density_grid(x_wide, 0.0, 1.0), 0.01, fields)
    assert wide.warning is None
    x_narrow = np.linspace(-1.5, 1.5, 61)
    narrow = kernel_step(gaussian_density_grid(x_narrow, 0.0, 1.0), 0.01, fields)
    assert narrow.warning is not None and "boundary mass" in narrow.warning


def test_density_grid_validation():
    x = np.linspace(0, 1, 11)
    with pytest.raises(ValueError, match="normalized grid"):
        DensityGrid(x_grid=x, psi=np.full(11, 2.0), s=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        DensityGrid(x_grid=x, psi=np.full(11, -1.0), s=0.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        DensityGrid(x_grid=x[::-1].copy(), psi=np.ones(11), s=0.0)
