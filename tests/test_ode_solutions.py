import cmath
import math

import numpy as np
import pytest

from xideform.errors import DegenerateParameterError, DomainError
from xideform.funceq import IdentityId, verify
from xideform.ode_solutions import (
    _sinh_power_kernel,
    a_pm,
    c_rho,
    canonical_decomposition,
    canonical_sinh_coeff,
    chi,
    iterated_I,
    iterated_P,
    p_closed_form_1,
    segment_weighted_mellin,
    tilde_decomposition,
    vop_coefficients,
)
from xideform.theta import ThetaOperator
from xideform.xi_core import mellin, mellin_many, MellinKernel, telescope_rhs, xi

PI = math.pi


def _gauss_panels(a, b, n_panels, order):
    """Gauss-Legendre nodes and weights on n_panels equal panels of [a, b]: the independent reference rule."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = (b - a) / (2 * n_panels)
    mid = a + half * (2 * np.arange(n_panels) + 1)
    return (mid[:, None] + half * x).reshape(-1), np.tile(half * w, n_panels)


def fde1(kind, rho, alpha, z, s):
    return verify(kind, extras={"rho": rho, "alpha": alpha, "z": z, "s": s}).abs_residual


def test_fde1_both_equalities():
    assert fde1("fde1", 1.0, 4.0, 0.5, 1.5) < 1e-8
    assert fde1("fde1_reflected", 1.0, 4.0, 0.5, 1.5) < 1e-8


def test_fde1_empty_segment():
    assert fde1("fde1", 1.0, 4.0, 0.8, 0.8) < 1e-12


def test_fde1_general_alpha():
    assert fde1("fde1", 0.7, 3.0, 0.4, 1.2 + 0.3j) < 1e-8
    assert fde1("fde1_reflected", 0.7, 3.0, 0.4, 1.2 + 0.3j) < 1e-8


def test_fde1_errors():
    for kind in ("fde1", "fde1_reflected"):
        with pytest.raises(DomainError):
            fde1(kind, 1.0, 0.0, 0.5, 1.0)
    with pytest.raises(DegenerateParameterError):
        fde1("fde1_reflected", 1.0, 2.0, 0.5, 1.0)
    # alpha = 2 degenerates only the reflected form
    assert fde1("fde1", 1.0, 2.0, 0.5, 1.2) < 1e-8


def test_halpha_vanishing_at_telescope_zero():
    # z' = 1 - z with G(z) = 0 makes the weighted endpoint values equal;
    # rho = 0.1 keeps the e^{q} weight along the vertical segment in range
    rho = 0.1
    z = 0.5 + 16 * rho * PI * 1j
    assert verify("halpha_vanishing", extras={"rho": rho, "alpha": 4.0, "z": z, "z_prime": 1 - z}).abs_residual < 1e-8


def test_second_order_residual():
    for rho, alpha, s in ((0.5, 4.0, 0.7), (0.5, 2.0, 0.7), (1.0, 3.0, 1.1 + 0.4j)):
        assert verify("second_order", extras={"rho": rho, "alpha": alpha, "s": s}).abs_residual < 1e-8


def test_second_order_finite_difference():
    rho, alpha, s, h = 1.0, 4.0, 0.9, 1e-3
    q = lambda t: (-(t * t) + t) / (16 * rho)
    w = lambda t: cmath.exp(q(t)) * xi(rho, t).value
    c = 4 * alpha * rho
    fd = c * c * (w(s + h) - 2 * w(s) + w(s - h)) / h**2 - w(s)
    direct = cmath.exp(q(s)) * mellin(MellinKernel(ThetaOperator.delta(alpha), 0, rho, s / 2)).value
    assert abs(fd - direct) < 1e-5 * max(1.0, abs(direct))


def vop_reconstruction(rho, alpha, beta, z, s):
    return verify("vop_reconstruction", extras={"rho": rho, "alpha": alpha, "beta": beta, "z": z, "s": s}).abs_residual


def test_vop_reconstruction_general_beta():
    assert vop_reconstruction(1.0, 4.0, (0.0, 1.0), 0.25, 1.2) < 1e-8


def test_vop_reconstruction_complex_point():
    assert vop_reconstruction(0.5, 4.0, (0.3, 0.9), 0.5, 0.8 + 0.6j) < 1e-8


def test_vop_canonical_coefficients():
    rho = 1.0
    co = vop_coefficients(rho, 4.0, (0.5, 0.5), 0.5)
    assert abs(co.A - canonical_sinh_coeff(rho)) < 1e-9
    assert abs(co.B - cmath.exp(1 / (64 * rho)) * xi(rho, 0.5).value) < 1e-9


def test_vop_constraint():
    for beta in ((0.5, 0.5), (0.0, 1.0)):
        assert verify("vop_constraint", extras={"rho": 1.0, "beta": beta}).abs_residual < 1e-9


def test_vop_degenerate_beta():
    rho, alpha = 1.0, 4.0
    b2 = 0.0
    b1 = PI * 1j * 4 * alpha * rho * 0.5
    with pytest.raises(DegenerateParameterError):
        vop_coefficients(rho, alpha, (b1, b2), 0.5)


def test_chi_antisymmetry_and_transitivity():
    rho, phi, alpha = 0.5, 0.7, 3.0
    s, y, z = 1.2, 0.9 + 0.2j, 0.4
    a = chi(rho, phi, alpha, s, z)
    b = chi(rho, phi, alpha, z, s)
    assert abs(a + b) < 1e-12 * max(1.0, abs(a))
    via = chi(rho, phi, alpha, s, y) + chi(rho, phi, alpha, y, z)
    assert abs(a - via) < 2e-10


def test_chi_phi1_alpha4_antireflection():
    # at alpha = 4 the inhomogeneous bracket vanishes: chi(1,4,s,z) = -chi(1,4,1-s,1-z)
    rho, s, z = 0.5, 1 + 0.5j, 0.5
    a = chi(rho, 1.0, 4.0, s, z)
    b = chi(rho, 1.0, 4.0, 1 - s, 1 - z)
    assert abs(a + b) < 1e-8


def chi_transform(rho, phi, alpha, s, z):
    return verify("chi_transform", extras={"rho": rho, "phi": phi, "alpha": alpha, "s": s, "z": z}).abs_residual


def test_chi_transform_general_phi():
    assert chi_transform(0.5, 0.7, 3.0, 1.2, 0.4) < 1e-7


def test_chi_transform_phi2_branch():
    assert chi_transform(0.5, 2.0, 3.0, 1.1, 0.3) < 1e-7


def test_canonical_reconstruction():
    assert verify("canonical", rho=1.0, s=2.0).abs_residual < 1e-9
    assert verify("canonical", rho=0.5, s=1.3 + 0.4j).abs_residual < 1e-9


def test_canonical_at_half():
    dec = canonical_decomposition(1.0, 0.5)
    assert dec.integral_part == 0
    assert abs(dec.total - dec.cosh_coeff) < 1e-12


def test_canonical_integral_symmetry():
    rho, s = 1.0, 1.7
    a = canonical_decomposition(rho, s).integral_part
    b = canonical_decomposition(rho, 1 - s).integral_part
    assert abs(a - b) < 1e-9


def test_jensen_prefactor_equivalence():
    # 1/(2 rho) with the raw Jensen kernel equals 1/(16 rho) with Delta_4 Psi
    rho, s = 1.0, 1.4
    u, w = _gauss_panels(0.0, 1.0, 8, 12)
    t = 0.5 + u * (s - 0.5)
    mvals, _ = mellin_many(ThetaOperator.delta4(), rho, t / 2)
    q = (-(t**2) + t) / (16 * rho)
    kern = np.sinh((s - t) / (16 * rho)) * np.exp(q)
    via_delta4 = (w * kern * mvals).sum() * (s - 0.5) / (16 * rho)
    via_raw = (w * kern * mvals / 8.0).sum() * (s - 0.5) / (2 * rho)
    assert via_delta4 == pytest.approx(via_raw, rel=1e-14)


def test_telescope_closure_from_decomposition():
    # antisymmetric part of the decomposition reproduces the telescope right side
    rho, s = 0.5, 1.6
    w_s = canonical_decomposition(rho, s).total
    w_ref = canonical_decomposition(rho, 1 - s).total
    q = (-(s**2) + s) / (16 * rho)
    lhs = (w_s - w_ref) * math.exp(-q)
    assert abs(lhs - telescope_rhs(rho, s, 0)) < 1e-8


def test_a_pm_parity_and_reconstruction():
    rho, s = 1.0, 1.7
    ap, am = a_pm(rho, s)
    ap_ref, am_ref = a_pm(rho, 1 - s)
    assert abs(ap + ap_ref) < 1e-9
    assert abs(am - am_ref) < 1e-9
    assert abs(a_pm(rho, 0.5)[0]) == 0
    dec = canonical_decomposition(rho, s)
    arg = (0.5 - s) / (16 * rho)
    rebuilt = (canonical_sinh_coeff(rho) - ap) * cmath.sinh(arg) + (
        cmath.exp(1 / (64 * rho)) * xi(rho, 0.5).value + am
    ) * cmath.cosh(arg)
    assert abs(rebuilt - dec.total) < 1e-9


def test_tilde_decomposition_dual_path():
    assert verify("tilde", rho=1.0, s=1.3).abs_residual < 1e-8
    assert verify("tilde", rho=0.5, s=0.7 + 0.5j).abs_residual < 1e-8


def test_tilde_c_rho_realized():
    rho = 0.5
    assert abs(c_rho(rho) - (-cmath.exp(1 / (64 * rho)) * xi(rho, 0.5).value)) < 1e-10


def test_tilde_is_derivative_of_canonical():
    # 16 rho d/ds (canonical total) = tilde total, checked by central differences
    rho, s, h = 1.0, 1.3, 1e-4
    left = canonical_decomposition(rho, s - h).total
    right = canonical_decomposition(rho, s + h).total
    fd = 16 * rho * (right - left) / (2 * h)
    assert abs(fd - tilde_decomposition(rho, s).total) < 1e-5


def test_tilde_a_pm_form():
    rho, s = 1.0, 1.4
    ap, am = a_pm(rho, s)
    arg = (0.5 - s) / (16 * rho)
    k = cmath.exp(1 / (64 * rho)) * xi(rho, 0.5).value
    rebuilt = -(k + am) * cmath.sinh(arg) - (canonical_sinh_coeff(rho) - ap) * cmath.cosh(arg)
    assert abs(rebuilt - tilde_decomposition(rho, s).total) < 1e-9


def test_p1_closed_form():
    rho, s = 1.0, 1.4
    assert abs(iterated_P(rho, 1, s) - p_closed_form_1(rho, s)) < 1e-10


def test_p_i_symmetry():
    rho = 1.0
    for n in (1, 2, 3):
        s = 1.35
        assert abs(iterated_P(rho, n, s) - iterated_P(rho, n, 1 - s)) < 1e-8
        assert abs(iterated_I(rho, n, s) - iterated_I(rho, n, 1 - s)) < 1e-8


def test_p_recursion_finite_differences():
    # (id - (16 rho)^2 d^2/ds^2) P^n = -16 rho P^{n-1}
    rho = 1.0
    h = 1e-3
    for n in (1, 2, 3):
        for s in (0.9, 1.4):
            pm, p0, pp = (iterated_P(rho, n, s + k * h) for k in (-1, 0, 1))
            lhs = p0 - (16 * rho) ** 2 * (pp - 2 * p0 + pm) / h**2
            rhs = -16 * rho * iterated_P(rho, n - 1, s)
            assert abs(lhs - rhs) < 1e-5 * max(1.0, abs(rhs))


def test_expansion_n1_matches_canonical():
    rho, s = 1.0, 1.2
    assert verify(IdentityId("iterated_expansion", 1), rho=rho, s=s).abs_residual < 1e-8


def test_expansion_n2():
    # and n = 3, the same single segment pass with the K_3 kernel
    for n in (2, 3):
        for rho, s in ((1.0, 1.2), (0.5, 0.8), (1.0, 0.9 + 12j)):
            assert verify(IdentityId("iterated_expansion", n), rho=rho, s=s).abs_residual < 1e-7


def _nested_gauss_i2(rho, s, n_panels=8, order=12):
    """Reference I^2: the two nested sinh-kernel integrals on a 96 x 96 Gauss triangle."""
    u1, w1 = _gauss_panels(0.0, 1.0, n_panels, order)
    t1 = 0.5 + u1 * (s - 0.5)
    u2, w2 = _gauss_panels(0.0, 1.0, n_panels, order)
    t2 = 0.5 + np.outer(t1 - 0.5, u2)
    mvals, _ = mellin_many(ThetaOperator.delta4_power(2), rho, t2.reshape(-1) / 2)
    mvals = mvals.reshape(t2.shape)
    q2 = (-(t2 * t2) + t2) / (16 * rho)
    inner = (np.sinh((t1[:, None] - t2) / (16 * rho)) * np.exp(q2) * mvals * w2).sum(axis=1) * (t1 - 0.5)
    return (w1 * np.sinh((s - t1) / (16 * rho)) * inner).sum() * (s - 0.5)


def test_iterated_i2_matches_nested_gauss():
    for rho, s in ((1.0, 1.4), (0.6, 0.7 + 12j)):
        ref = _nested_gauss_i2(rho, s)
        assert abs(iterated_I(rho, 2, s) - ref) < 1e-12 * abs(ref)


def test_sinh_power_kernel_matches_mpmath():
    # |u| = 1e-4 and 0.056 fail for the closed forms left unguarded near u = 0
    mp = pytest.importorskip("mpmath")
    closed = {
        1: lambda u: mp.sinh(u),
        2: lambda u: (u * mp.cosh(u) - mp.sinh(u)) / 2,
        3: lambda u: ((u * u + 3) * mp.sinh(u) - 3 * u * mp.cosh(u)) / 8,
    }
    c = 16 * (0.4 + 0.1j)
    for n in (1, 2, 3):
        for r in (1e-4, 0.056, 0.999, 1.0, 1.5, 4.0):
            for phase in (0.0, 0.7, PI / 2, 2.5):
                L = r * cmath.exp(1j * phase) * c
                with mp.workdps(40):
                    ref = complex(mp.mpc(c) ** (n - 1) * closed[n](mp.mpc(L) / mp.mpc(c)))
                got = complex(_sinh_power_kernel(n, np.array([L]), c)[0])
                assert abs(got - ref) <= 1e-14 * abs(ref), (n, r, phase)


def test_msym_invariant():
    # M[(Da Psi) e](s/2) - M[(Da Psi) e]((1-s)/2)
    #   = a(a-4)/4 (M[(H4 Psi) e]((1-s)/2) + sqrt(pi/rho) e^{(s-1)^2/16rho}/2)
    rho, s = 0.8, 1.1 + 0.3j
    for alpha in (2.0, 3.0, 4.0):
        lhs = mellin(MellinKernel(ThetaOperator.delta(alpha), 0, rho, s / 2)).value
        rhs = mellin(MellinKernel(ThetaOperator.delta(alpha), 0, rho, (1 - s) / 2)).value + (
            alpha * (alpha - 4) / 4
        ) * (
            mellin(MellinKernel(ThetaOperator.h(4.0), 0, rho, (1 - s) / 2)).value
            + cmath.sqrt(PI / rho) * cmath.exp((s - 1) ** 2 / (16 * rho)) / 2
        )
        assert abs(lhs - rhs) < 1e-8


def test_decomposition_conjugate_symmetry():
    rho, s = 0.5, 1.1 + 0.7j
    a = canonical_decomposition(rho, np.conj(s)).total
    b = canonical_decomposition(rho, s).total
    assert abs(a - np.conj(b)) < 1e-10 * max(1.0, abs(b))


def test_segment_weighted_mellin_error_reported():
    res = segment_weighted_mellin(ThetaOperator.delta4(), 1.0, 0.5, 1.5, lambda t: np.ones_like(t))
    val, err = res.value, res.error_estimate
    assert err < 1e-9
    assert abs(val) > 0
    # a stacked (k, N) weight gives k integrals and k errors over the same Mellin values
    res = segment_weighted_mellin(ThetaOperator.delta4(), 1.0, 0.5, 1.5, lambda t: np.stack([np.ones_like(t), t]))
    vals, errs = res.value, res.error_estimate
    assert vals.shape == errs.shape == (2,)
    assert vals[0] == pytest.approx(val, rel=1e-15) and errs[1] < 1e-9
