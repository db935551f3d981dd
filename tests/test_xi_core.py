import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xideform import theta, xi_core
from xideform.errors import DomainError
from xideform.funceq import verify
from xideform.quadrature import QuadSpec
from xideform.theta import DEFAULT_EPS, LOG_TAIL_SPLIT, ThetaOperator, theta_values
from xideform.xi_core import (
    XiValue,
    d_rho_xi,
    gaussian_mellin,
    mellin,
    mellin_delta4,
    mellin_many,
    node_data,
    telescope_rhs,
    xi,
    xi_ds,
    xi_sum_m,
    xi_tilde,
    xi_tilde_sum_m,
)
from xideform.xi_multi import MultiXiParams, xi_d

SQRT_PI = math.sqrt(math.pi)
# Delta4 H4 = (16 D^2 + 8 D)(1 + 4 D) = 64 D^3 + 48 D^2 + 8 D
DELTA4_H4 = ThetaOperator("delta4_h4", (0j, 8, 48, 64))

# mpmath oracle values (35 digits, log-axis tanh-sinh quadrature)
XI_1_HALF = 0.14763449417748107966
XI_05_2P3I = 0.034014156339958443557 - 0.075431210438374945941j
XI_1_COMPLEX = 0.15071414984920070535 - 0.042818866427279344412j  # Xi_1(0.3+0.7i)
MD4_1_12 = 3.4199944037098501292  # M[(Delta4 Psi) e^{-ln^2}](0.6)


def test_mellin_pure_exp_sqrt_pi():
    res = gaussian_mellin(1.0, 0.0)
    assert res.value.real == pytest.approx(SQRT_PI, rel=1e-12)


def test_mellin_pure_exp_gauss_identity():
    rho, s = 0.5, 1.0 + 1.0j
    res = gaussian_mellin(rho, s)
    expected = np.sqrt(np.pi / rho) * np.exp(s * s / (4 * rho))
    assert abs(res.value - expected) <= 1e-10 * abs(expected)


def test_mellin_odd_moment_vanishes():
    res = gaussian_mellin(0.7, 0.0, 1)
    assert abs(res.value) < 1e-12


def test_mellin_kernel_validation():
    with pytest.raises(DomainError):
        gaussian_mellin(-1.0, 0.0)
    with pytest.raises(DomainError):
        gaussian_mellin(1.0, 0.0, -1)


D2 = MultiXiParams.make([[1.0, 0.2], [0.2, 0.8]], [0.4, 0.6])


@pytest.mark.parametrize("call", [
    lambda: mellin(ThetaOperator.plain(), 1.0, 0.5, -1),
    lambda: mellin_many(ThetaOperator.plain(), 1.0, [0.5], -1),
    lambda: mellin_many(ThetaOperator.plain(), 1.0, [0.5], 0.5),
    lambda: xi_ds(1.0, 0.5 + 2j, 1.5),
    lambda: gaussian_mellin(1.0, 0.0, 0.5),
    lambda: xi_d(D2, powers=[-1, 0]),
    lambda: xi_d(D2, powers=[0.5, 0]),
    lambda: xi_d(D2, powers=[1, 2, 3]),
    lambda: xi_d(D2, powers=[1]),
], ids=["mellin", "mellin_many", "mellin_many_fractional", "xi_ds_fractional", "gaussian_mellin_fractional",
        "xi_d_negative", "xi_d_fractional", "xi_d_too_many", "xi_d_too_few"])
def test_negative_log_power_is_a_domain_error(call):
    # a log power is a non-negative integer, and xi_d takes one per axis
    with pytest.raises(DomainError):
        call()


def test_xi_oracle_values():
    assert xi(1.0, 0.5).value.real == pytest.approx(XI_1_HALF, rel=1e-11)
    v = xi(0.5, 2 + 3j).value
    assert abs(v - XI_05_2P3I) < 1e-11
    v2 = xi(1.0, 0.3 + 0.7j).value
    assert abs(v2 - XI_1_COMPLEX) < 1e-11


def test_xi_positive_on_reals():
    for rho in (0.1, 0.5, 1.0, 2.0):
        for r in np.linspace(-4, 6, 21):
            assert xi(rho, float(r)).value.real > 0


def test_telescope_identity():
    rho, s = 0.5, 2 + 3j
    lhs = xi(rho, s).value - xi(rho, 1 - s).value
    rhs = telescope_rhs(rho, s, 0)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_telescope_sum_m():
    m, rho, s = 2, 0.4, 1 + 1j
    lhs = xi_sum_m(rho, s, m).value - xi_sum_m(rho, 1 - m - s, m).value
    assert abs(lhs - telescope_rhs(rho, s, m)) < 1e-9 * max(1.0, abs(telescope_rhs(rho, s, m)))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.25, 2.0), st.floats(-1.0, 2.0), st.floats(0.0, 10.0), st.sampled_from([0, 1, 2]))
def test_telescope_property(rho, re_s, im_s, m):
    s = complex(re_s, im_s)
    lhs = xi_sum_m(rho, s, m).value - xi_sum_m(rho, 1 - m - s, m).value
    rhs = telescope_rhs(rho, s, m)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_sum_m_single_term():
    v = xi_sum_m(0.7, 1.2, 0)
    assert v.value == pytest.approx(xi(0.7, 1.2).value)


@pytest.mark.parametrize("partial_sum, single, sign", [(xi_sum_m, xi, 1.0), (xi_tilde_sum_m, xi_tilde, -1.0)])
def test_partial_sums_over_an_array_are_one_batched_call(partial_sum, single, sign, monkeypatch):
    rho, m = 0.5, 2
    s = np.array([0.3, 1.1 + 2j, -0.4 + 7j, 0.5 - 3j, 2.0 + 0.5j])
    calls = []
    original = xi_core.mellin_many
    monkeypatch.setattr(xi_core, "mellin_many", lambda *a, **kw: calls.append(np.size(a[2])) or original(*a, **kw))
    batched = partial_sum(rho, s, m)
    assert calls == [s.size * (m + 1)]
    monkeypatch.undo()
    assert batched.value.shape == s.shape
    for point, value in zip(s, batched.value):
        expected = sum(sign**l * single(rho, point + l).value for l in range(m + 1))
        assert abs(value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("partial_sum", [xi_sum_m, xi_tilde_sum_m])
def test_partial_sum_at_a_scalar_is_a_scalar(partial_sum):
    assert isinstance(partial_sum(0.7, 1.2 + 0.5j, 2).value, complex)


def test_mellin_many_of_no_arguments_is_empty():
    values, err = mellin_many(ThetaOperator.plain(), 0.5, [])
    assert values.shape == (0,) and err == 0.0


def test_telescope_zero_point():
    # s = (1-m)/2 + 16 rho pi i k/(1+m), m=1, k=1
    m, rho, k = 1, 0.5, 1
    s = (1 - m) / 2 + 16 * rho * math.pi * 1j * k / (1 + m)
    diff = xi_sum_m(rho, s, m).value - xi_sum_m(rho, 1 - m - s, m).value
    assert abs(diff) < 1e-9


def test_critical_line_imaginary_part_matches_telescope():
    # Xi_rho is NOT real on the critical line: the telescope forces
    # Im Xi_rho(1/2 + iy) = -sqrt(pi/rho) e^{(1/4 - y^2)/16rho} sin(y/16rho) / 2.
    rho, y = 1.0, 2.0
    v = xi(rho, 0.5 + 1j * y).value
    expected_im = -math.sqrt(math.pi / rho) * math.exp((0.25 - y * y) / (16 * rho)) * math.sin(y / (16 * rho)) / 2
    assert v.imag == pytest.approx(expected_im, rel=1e-9)
    assert abs(v.imag) > 1e-3


def test_conjugation_symmetry():
    rho = 0.8 + 0.1j
    s = 1.1 + 0.6j
    a = xi(rho, s).value
    b = xi(np.conj(rho), np.conj(s)).value
    assert abs(np.conj(a) - b) < 1e-11 * max(1.0, abs(a))


def test_xi_tilde_dual_path():
    # the direct H_4 kernel against (1 - 2s) Xi + 16 rho d_s Xi
    rep = verify("tilde_moment", rho=1.0, s=0.3 + 0.7j)
    assert rep.abs_residual < 1e-9 * max(1.0, abs(rep.lhs))


def test_xi_tilde_zero_point():
    # alternating m=0 zero set: s = 1/2 - 8 rho pi i (2k+1), k=0
    rho = 0.5
    s = 0.5 - 8 * rho * math.pi * 1j
    val = xi_tilde_sum_m(rho, s, 0).value + xi_tilde_sum_m(rho, 1 - s, 0).value
    assert abs(val) < 1e-9


def test_xi_tilde_half_real_and_value():
    rho = 1.0
    v = xi_tilde(rho, 0.5).value
    assert abs(v.imag) < 1e-12
    assert v.real == pytest.approx(-math.sqrt(math.pi / rho) * math.exp(1 / (64 * rho)) / 2, rel=1e-10)


def test_mellin_delta4_oracle_and_symmetry():
    assert mellin_delta4(1.0, 1.2).value.real == pytest.approx(MD4_1_12, rel=1e-11)
    rho, s = 1.0, 2.0
    a = mellin_delta4(rho, s).value
    b = mellin_delta4(rho, 1 - s).value
    assert abs(a - b) < 1e-9 * max(1.0, abs(a))
    half = mellin_delta4(1.0, 0.5).value
    assert abs(half.imag) < 1e-12


def test_second_order_identity():
    assert verify("delta4_identity", rho=0.5, s=1.2).abs_residual < 1e-8
    assert verify("delta4_identity", rho=1.0, s=0.3 + 0.4j).abs_residual < 1e-8


def test_heat_residual_same_moment():
    assert verify("heat", rho=1.0, s=0.5).abs_residual < 1e-12
    assert verify("heat", rho=0.5, s=1 + 1j).abs_residual < 1e-12


def test_heat_residual_compares_independent_integrals():
    # d_rho Xi (the ln^2 moment) against d^2_s Xi from the Delta_4 kernel: not zero by algebra
    assert 0 < verify("heat", rho=0.1, s=-0.5 + 20j).abs_residual < 1e-12


def test_heat_finite_difference_cross_check():
    rho, s, h = 1.0, 1 + 1j, 1e-4
    fd_rho = (xi(rho + h, s).value - xi(rho - h, s).value) / (2 * h)
    analytic = d_rho_xi(rho, s).value
    assert abs(fd_rho - analytic) < 1e-6 * max(1.0, abs(analytic))
    fd_ss = (xi(rho, s + h).value - 2 * xi(rho, s).value + xi(rho, s - h).value) / h**2
    analytic_ss = xi_ds(rho, s, 2).value
    assert abs(fd_ss - analytic_ss) < 1e-6 * max(1.0, abs(analytic_ss))


def test_derivative_consistency_first_order():
    rho, s, h = 0.7, 0.9 + 0.2j, 1e-4
    fd = (xi(rho, s + h).value - xi(rho, s - h).value) / (2 * h)
    an = xi_ds(rho, s, 1).value
    assert abs(fd - an) < 1e-5 * max(1.0, abs(an))


def test_telescope_residual_grid():
    rhos = [0.25, 0.5, 1.0, 1.5, 2.0]
    ss = [0.3, 1.0 + 1j, 2.0, 0.5 + 2j, -0.5]
    for m in (0, 1, 2):
        for rho in rhos:
            for s in ss:
                lhs = xi_sum_m(rho, s, m).value - xi_sum_m(rho, 1 - m - s, m).value
                rhs = telescope_rhs(rho, s, m)
                assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_mellin_many_matches_single():
    rho = 0.8
    args = np.array([0.2, 0.6 + 0.3j, 1.4 - 0.2j])
    vals, err = mellin_many(ThetaOperator.plain(), rho, args)
    for k, a in enumerate(args):
        single = mellin(ThetaOperator.plain(), rho, a).value
        assert abs(vals[k] - single) < 1e-10 * max(1.0, abs(single))
    assert err < 1e-10


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("op", [ThetaOperator.plain(), ThetaOperator.h(4.0), ThetaOperator.delta4(),
                                DELTA4_H4, ThetaOperator.delta4_power(3),
                                ThetaOperator.delta(3)], ids=lambda op: op.name)
def test_node_data_left_tail_matches_the_series(op, m):
    # below LOG_TAIL_SPLIT the operator image is the closed form c1 e^{-x/2} + c2, with
    # the e^{-x/2} carried by E; on both sides of the split V e^E is the series value, up
    # to the series' own absolute truncation DEFAULT_EPS
    rho = 0.3 + 0.1j
    x = LOG_TAIL_SPLIT + np.array([-15.0, -0.5, -1e-9, 0.0, 1e-9, 0.5])
    V, E = node_data(op, x, rho, m)
    factor = x**m * np.exp(-rho * x * x)
    ref = theta_values(op, np.exp(x)) * factor
    assert np.all(np.abs(V * np.exp(E) - ref) <= 1e-14 * np.abs(ref) + DEFAULT_EPS * np.abs(factor))
    assert np.abs(V).max() < 1e3 * max(1, abs(x[0]) ** m)  # the growth is in E, not in V


def test_repeated_calls_repeat_bits_and_theta_calls(monkeypatch):
    # nothing is filled between calls: the theta table is built at import, so the same
    # sequence again, or in reverse order, gives the same bits, and the same fallback
    # theta_values calls (made here by node_data's off-grid nodes)
    sizes = []
    fallback = theta.theta_values

    def counted(op, t, *args):
        sizes.append(np.size(t))
        return fallback(op, t, *args)

    monkeypatch.setattr(theta, "theta_values", counted)
    calls = [lambda: xi(0.3, 0.5 + 14j), lambda: xi_ds(0.7, -0.4 + 3j, 2), lambda: xi_tilde(1.2, 2 + 25j),
             lambda: mellin_many(ThetaOperator.delta4(), 0.5, [0.25, 0.3 + 5j, -0.2 + 9j]),
             lambda: node_data(ThetaOperator.h(4.0), np.linspace(-4.0, 3.0, 50), 0.5)]

    def run(order):
        sizes.clear()
        out = [None] * len(calls)
        for k in order:
            out[k] = calls[k]()
        return out, list(sizes)

    (first, first_sizes), (second, second_sizes) = run(range(5)), run(range(5))
    assert first_sizes == second_sizes == [50]
    backward, _ = run(range(4, -1, -1))
    for out in (second, backward):
        assert out[:3] == first[:3]
        assert all(np.array_equal(a, b) for pair, ref in zip(out[3:], first[3:]) for a, b in zip(pair, ref))
    assert not theta._TABLE.flags.writeable


def test_quad_error_reported():
    v = xi(1.0, 0.5)
    assert isinstance(v, XiValue)
    assert 0 <= v.quad_error < 1e-9


def test_precision_warning_on_cancellation():
    from xideform.errors import PrecisionWarning

    tight = QuadSpec(abs_tol=1e-16, rel_tol=1e-15)
    with pytest.warns(PrecisionWarning):
        xi(0.5, 0.5 + 40j, tight)
