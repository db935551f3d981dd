import math

import numpy as np
import pytest

from xideform import quadrature
from xideform.errors import DomainError, NonConvergenceError
from xideform.quadrature import IntegralResult, QuadSpec, _cc_weights, clenshaw_curtis, trapezoid
from xideform.theta import ThetaOperator
from xideform.xi_core import _window

SQRT_PI = math.sqrt(math.pi)


def _sums(vals):
    return vals.sum(), np.abs(vals).max(initial=0.0)


def log_axis(f, spec=None, x_lo=-9.0, x_hi=9.0, omega=0.0):
    """The trapezoid rule for f, taking an array of points, over [x_lo, x_hi]."""
    return trapezoid(lambda x: _sums(f(x)), x_lo, x_hi, omega, spec or QuadSpec())


def box(f, d, spec=None, x_lo=-9.0, x_hi=9.0):
    """The trapezoid rule for f, taking points of shape (n, d), over [x_lo, x_hi]^d."""

    def node_sums(*axes):
        grids = np.meshgrid(*axes, indexing="ij")
        return _sums(f(np.stack([g.reshape(-1) for g in grids], axis=-1)))

    return trapezoid(node_sums, [x_lo] * d, [x_hi] * d, [0.0] * d, spec or QuadSpec.for_dimension(d))


def test_gaussian_integral():
    res = log_axis(lambda x: np.exp(-x * x))
    assert res.value.real == pytest.approx(SQRT_PI, abs=1e-12)
    assert abs(res.value.imag) < 1e-14


def test_gauss_identity_with_linear_term():
    # integrand e^{-rho x^2 + s x} equals sqrt(pi/rho) e^{s^2/4rho}
    rho, s = 1.0, 2.0
    res = log_axis(lambda x: np.exp(-rho * x * x + s * x), x_lo=-10, x_hi=12)
    assert res.value.real == pytest.approx(SQRT_PI * math.exp(1.0), rel=1e-10)


def test_odd_integrand_vanishes():
    res = log_axis(lambda x: x * np.exp(-x * x))
    assert abs(res.value) < 1e-12


def test_complex_linear_coefficient():
    rho = 0.5
    s = 1.0 + 1.0j
    res = log_axis(lambda x: np.exp(-rho * x * x + s * x), x_lo=-12, x_hi=12)
    expected = np.sqrt(np.pi / rho) * np.exp(s * s / (4 * rho))
    assert abs(res.value - expected) < 1e-10 * abs(expected)


def test_linearity():
    spec = QuadSpec()
    f = lambda x: np.exp(-x * x)
    g = lambda x: np.exp(-2 * x * x) * x * x
    a, b = 2.0 - 1.0j, 0.7
    combo = log_axis(lambda x: a * f(x) + b * g(x), spec).value
    parts = a * log_axis(f, spec).value + b * log_axis(g, spec).value
    assert abs(combo - parts) < 2 * spec.abs_tol


def test_refinement_convergence():
    coarse_spec = QuadSpec(abs_tol=1e-8, rel_tol=1e-6)
    fine_spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-10)
    f = lambda x: np.exp(-x * x) * np.cos(7 * x)
    coarse = log_axis(f, coarse_spec)
    fine = log_axis(f, fine_spec)
    assert abs(coarse.value - fine.value) <= max(coarse.error_estimate, 1e-9)


def test_nonconvergence_carries_estimate(monkeypatch):
    monkeypatch.setitem(quadrature._MAX_NODES, 1, 60)
    spec = QuadSpec(abs_tol=1e-14, rel_tol=1e-14)
    with pytest.raises(NonConvergenceError) as exc:
        log_axis(lambda x: np.exp(-x * x) * np.cos(40 * x * x), spec)
    assert exc.value.best_value is not None
    assert exc.value.error_estimate > 0


def test_tensor_2d_product_gaussian():
    res = box(lambda p: np.exp(-(p**2).sum(axis=1)), d=2, spec=QuadSpec(abs_tol=1e-11, rel_tol=1e-10))
    assert res.value.real == pytest.approx(math.pi, rel=1e-10)


def test_tensor_2d_coupled_gaussian_closed_form():
    rho = np.array([[1.0, 0.3], [0.3, 1.0]])
    s = np.array([1.0, 2.0])

    def f(p):
        quad = np.einsum("ni,ij,nj->n", p, rho, p)
        return np.exp(-quad + p @ (s / 2.0))

    res = box(f, d=2, x_lo=-9, x_hi=11)
    det = np.linalg.det(rho)
    expected = math.sqrt(math.pi**2 / det) * math.exp(s @ np.linalg.inv(rho) @ s / 16.0)
    assert res.value.real == pytest.approx(expected, rel=1e-8)


def test_tensor_3d_diagonal():
    res = box(lambda p: np.exp(-(p**2).sum(axis=1)), d=3, x_lo=-6.5, x_hi=6.5)
    assert res.value.real == pytest.approx(math.pi**1.5, rel=1e-8)


def test_tensor_rejects_bad_dimension():
    with pytest.raises(DomainError):
        trapezoid(lambda *axes: (0.0, 0.0), [-1.0] * 4, [1.0] * 4, [0.0] * 4, QuadSpec())


# _window cuts where the envelope falls below e^{-lam}, lam = ln(1/min(abs_tol, 1e-10)) + 12;
# abs_tol e^{-24} gives lam = 36
LAM_36 = QuadSpec(abs_tol=math.exp(-24.0))


def test_plan_axis_pure_gaussian_window():
    x_lo, x_hi, _ = _window(None, 0.0, 1.0 + 0j, LAM_36)
    assert x_lo == pytest.approx(-x_hi)
    assert math.exp(-x_hi * x_hi) < 1e-14


def test_window_rejects_non_decaying_gaussian():
    for op in (None, ThetaOperator.plain(), ThetaOperator.delta4()):
        with pytest.raises(DomainError):
            _window(op, 0.0, 0.0 + 1j, QuadSpec())


def test_plan_axis_theta_window_asymmetric():
    x_lo, x_hi, _ = _window(ThetaOperator.plain(), 0.25, 0.5 + 0j, LAM_36)
    # left tail carries the t^(-1/2)/2 growth, right side dies under e^{-pi e^x}
    assert x_hi < 8.0
    assert x_lo < -6.0
    # envelope below the target at both cuts
    assert (0.25 - 0.5) * x_lo - 0.5 * x_lo**2 < -30
    assert 0.25 * x_hi - math.pi * math.exp(x_hi) < -30


def _plan_axis_40_iterations(lin_re, quad_re, log_tol, delta_like):
    """Reference theta window: the right cut's fixed point iterated exactly 40 times."""
    lam = max(log_tol, 8.0) + 6.0

    def gauss_cut(slope):
        return (-slope + math.sqrt(slope * slope + 4.0 * quad_re * lam)) / (2.0 * quad_re)

    def theta_cut(slope):
        x = math.log1p(lam / math.pi)
        for _ in range(40):
            x = math.log1p((lam + max(slope, 0.0) * max(x, 0.0)) / math.pi)
        return x + 1.0

    x_lo = -theta_cut(-(lin_re - 0.5)) - 1.0 if delta_like else -gauss_cut(lin_re - 0.5)
    return x_lo, min(theta_cut(lin_re), gauss_cut(-lin_re))


@pytest.mark.parametrize("delta_like", [False, True])
def test_plan_axis_matches_forty_iterations_bit_for_bit(delta_like):
    # the self-reciprocal Delta_4 kernel takes the mirrored theta cut on the left
    op = ThetaOperator.delta4() if delta_like else ThetaOperator.plain()
    for abs_tol in (1e-10, 1e-12, 1e-15, 1e-30):
        log_tol = -math.log(min(abs_tol, 1e-10)) + 6.0
        for lin_re in np.linspace(-4.0, 6.0, 41):
            for quad_re in (0.03, 0.5, 2.0):
                got = _window(op, float(lin_re), complex(quad_re), QuadSpec(abs_tol=abs_tol))[:2]
                assert got == _plan_axis_40_iterations(float(lin_re), quad_re, log_tol, delta_like)


def test_clenshaw_curtis_exact_on_polynomials_and_nested():
    for n in (32, 64):
        u = np.sin(np.pi / (2 * n) * np.arange(n + 1)) ** 2
        w = _cc_weights(n)
        for degree in range(n + 1):
            assert (w * u**degree).sum() == pytest.approx(1.0 / (degree + 1), rel=1e-14, abs=1e-15)
        # the nodes of n intervals are the even nodes of 2n intervals
        assert np.array_equal(np.sin(np.pi / (4 * n) * np.arange(2 * n + 1))[::2] ** 2, u)


def test_clenshaw_curtis_doubles_on_new_nodes_only():
    seen = []

    def node_values(u):
        seen.append(u)
        f = np.exp(60j * u) * np.stack([np.ones_like(u), u])
        return f, np.zeros(f.shape)

    res = clenshaw_curtis(node_values, QuadSpec())
    e = np.exp(60j)
    ref = np.array([(e - 1) / 60j, (e * (1 - 60j) - 1) / 3600])
    assert np.all(np.abs(res.value - ref) < 1e-12)
    assert np.all(res.error_estimate < 1e-11)
    nodes = np.concatenate(seen)
    assert len(seen) > 1 and res.evaluations == nodes.size == np.unique(nodes).size


def test_clenshaw_curtis_raises_past_the_interval_cap():
    with pytest.raises(NonConvergenceError) as info:
        clenshaw_curtis(lambda u: (np.sign(u - 1 / 3), np.zeros(u.shape)), QuadSpec())
    assert info.value.best_value == pytest.approx(1 / 3, abs=1e-3)


def test_quadspec_validation():
    with pytest.raises(DomainError):
        QuadSpec(abs_tol=-1.0)
    assert QuadSpec.for_dimension(3).abs_tol == pytest.approx(1e-9)


def test_result_fields():
    res = log_axis(lambda x: np.exp(-x * x))
    assert isinstance(res, IntegralResult)
    assert res.evaluations > 0
    assert res.error_estimate >= 0
