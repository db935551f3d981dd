import math

import numpy as np
import pytest

from xideform.errors import DomainError, NonConvergenceError
from xideform.quadrature import (
    IntegralResult,
    QuadSpec,
    integrate_log_axis,
    oscillation_panels,
    panel_nodes,
    plan_axis,
    tensor_integrate,
)

SQRT_PI = math.sqrt(math.pi)


def test_gaussian_integral():
    res = integrate_log_axis(lambda x: np.exp(-x * x))
    assert res.value.real == pytest.approx(SQRT_PI, abs=1e-12)
    assert abs(res.value.imag) < 1e-14


def test_gauss_identity_with_linear_term():
    # integrand e^{-rho x^2 + s x} equals sqrt(pi/rho) e^{s^2/4rho}
    rho, s = 1.0, 2.0
    res = integrate_log_axis(lambda x: np.exp(-rho * x * x + s * x), x_lo=-10, x_hi=12)
    assert res.value.real == pytest.approx(SQRT_PI * math.exp(1.0), rel=1e-10)


def test_odd_integrand_vanishes():
    res = integrate_log_axis(lambda x: x * np.exp(-x * x))
    assert abs(res.value) < 1e-12


def test_complex_linear_coefficient():
    rho = 0.5
    s = 1.0 + 1.0j
    res = integrate_log_axis(lambda x: np.exp(-rho * x * x + s * x), x_lo=-12, x_hi=12)
    expected = np.sqrt(np.pi / rho) * np.exp(s * s / (4 * rho))
    assert abs(res.value - expected) < 1e-10 * abs(expected)


def test_linearity():
    spec = QuadSpec()
    f = lambda x: np.exp(-x * x)
    g = lambda x: np.exp(-2 * x * x) * x * x
    a, b = 2.0 - 1.0j, 0.7
    combo = integrate_log_axis(lambda x: a * f(x) + b * g(x), spec).value
    parts = a * integrate_log_axis(f, spec).value + b * integrate_log_axis(g, spec).value
    assert abs(combo - parts) < 2 * spec.abs_tol


def test_refinement_convergence():
    coarse_spec = QuadSpec(abs_tol=1e-8, rel_tol=1e-6)
    fine_spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-10)
    f = lambda x: np.exp(-x * x) * np.cos(7 * x)
    coarse = integrate_log_axis(f, coarse_spec)
    fine = integrate_log_axis(f, fine_spec)
    assert abs(coarse.value - fine.value) <= max(coarse.error_estimate, 1e-9)


def test_nonconvergence_carries_estimate():
    spec = QuadSpec(abs_tol=1e-14, rel_tol=1e-14, max_panels=4)
    with pytest.raises(NonConvergenceError) as exc:
        integrate_log_axis(lambda x: np.exp(-x * x) * np.cos(40 * x * x), spec)
    assert exc.value.best_value is not None
    assert exc.value.error_estimate > 0


def test_tensor_2d_product_gaussian():
    res = tensor_integrate(lambda p: np.exp(-(p**2).sum(axis=1)), d=2, spec=QuadSpec(abs_tol=1e-11, rel_tol=1e-10))
    assert res.value.real == pytest.approx(math.pi, rel=1e-10)


def test_tensor_2d_coupled_gaussian_closed_form():
    rho = np.array([[1.0, 0.3], [0.3, 1.0]])
    s = np.array([1.0, 2.0])

    def f(p):
        quad = np.einsum("ni,ij,nj->n", p, rho, p)
        return np.exp(-quad + p @ (s / 2.0))

    res = tensor_integrate(f, d=2, x_lo=-9, x_hi=11)
    det = np.linalg.det(rho)
    expected = math.sqrt(math.pi**2 / det) * math.exp(s @ np.linalg.inv(rho) @ s / 16.0)
    assert res.value.real == pytest.approx(expected, rel=1e-8)


def test_tensor_3d_diagonal():
    res = tensor_integrate(lambda p: np.exp(-(p**2).sum(axis=1)), d=3, x_lo=-6.5, x_hi=6.5)
    assert res.value.real == pytest.approx(math.pi**1.5, rel=1e-8)


def test_tensor_rejects_bad_dimension():
    with pytest.raises(DomainError):
        tensor_integrate(lambda p: np.exp(-(p**2).sum(axis=1)), d=4)


def test_plan_axis_pure_gaussian_window():
    x_lo, x_hi = plan_axis(0.0, 1.0, log_tol=30.0, theta_like=False)
    assert x_lo == pytest.approx(-x_hi)
    assert math.exp(-x_hi * x_hi) < 1e-14


def test_plan_axis_theta_window_asymmetric():
    x_lo, x_hi = plan_axis(0.25, 0.5, log_tol=30.0, theta_like=True)
    # left tail carries the t^(-1/2)/2 growth, right side dies under e^{-pi e^x}
    assert x_hi < 8.0
    assert x_lo < -6.0
    # envelope below the target at both cuts
    assert (0.25 - 0.5) * x_lo - 0.5 * x_lo**2 < -30
    assert 0.25 * x_hi - math.pi * math.exp(x_hi) < -30


def test_panel_nodes_integrate_polynomial_exactly():
    nodes, weights = panel_nodes(-1.0, 3.0, 4, 8)
    val = (weights * nodes**6).sum()
    assert val == pytest.approx((3.0**7 - (-1.0) ** 7) / 7.0, rel=1e-14)


def test_oscillation_panels_scale_with_frequency():
    assert oscillation_panels(-5, 5, 0.0) == 6
    assert oscillation_panels(-5, 5, 30.0) >= 100


def test_quadspec_validation():
    with pytest.raises(DomainError):
        QuadSpec(abs_tol=-1.0)
    assert QuadSpec.for_dimension(3).abs_tol == pytest.approx(1e-9)


def test_result_fields():
    res = integrate_log_axis(lambda x: np.exp(-x * x))
    assert isinstance(res, IntegralResult)
    assert res.evaluations > 0
    assert res.error_estimate >= 0
