import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xideform.errors import DomainError, UnsupportedOrderError
from xideform.funceq import verify
from xideform.theta import (
    DEFAULT_EPS,
    SMALL_T,
    ThetaOperator,
    _op_polys,
    apply_theta_op,
    psi,
    term_count,
    theta_values,
)

# Frozen with mpmath at 35 digits: sum_{n<120} (-pi n^2)^k exp(-pi n^2 t).
PSI_1_0 = 0.04321740560665400728766
PSI_2_0 = 0.00186744274386954552384
PSI_1_1 = -0.1358043514016635018219
PSI_1_2 = 0.4270549773360569747764
PSI_005 = 1.736067977499789696409
DELTA4_AT_1 = 3.573575203736987552696


def direct_sum(t, k=0, terms=50):
    return sum((-math.pi * n * n) ** k * math.exp(-math.pi * n * n * t) for n in range(1, terms + 1))


def test_psi_value_against_oracle():
    assert psi(1.0, 0) == pytest.approx(PSI_1_0, rel=1e-14)
    assert psi(1.0, 0) == pytest.approx(direct_sum(1.0), rel=1e-15)
    assert psi(2.0, 0) == pytest.approx(PSI_2_0, rel=1e-14)
    assert psi(1.0, 1) == pytest.approx(PSI_1_1, rel=1e-14)
    assert psi(1.0, 2) == pytest.approx(PSI_1_2, rel=1e-14)


def test_psi_small_t_uses_reflection():
    assert psi(0.05, 0) == pytest.approx(PSI_005, rel=1e-14)


def test_psi_decays_monotonically():
    ts = np.linspace(0.1, 10.0, 60)
    vals = psi(ts, 0)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)
    assert psi(30.0, 0) < 1e-40


def test_psi_poisson_identity():
    lhs = psi(2.0, 0)
    rhs = 2**-0.5 * psi(0.5, 0) + (2**-0.5 - 1) / 2
    assert abs(lhs - rhs) < 1e-12


def test_psi_domain_and_order_errors():
    with pytest.raises(DomainError):
        psi(-1.0, 0)
    with pytest.raises(DomainError):
        psi(0.0, 0)
    with pytest.raises(UnsupportedOrderError):
        psi(1.0, 4)
    with pytest.raises(UnsupportedOrderError):
        ThetaOperator.delta4_power(4)


def test_h4_equals_psi_plus_4t_dpsi():
    for t in (0.3, 1.0, 2.5):
        termwise = apply_theta_op(ThetaOperator.h(4.0), t)
        derivative_path = psi(t, 0) + 4 * t * psi(t, 1)
        assert termwise == pytest.approx(derivative_path, rel=1e-14)


def test_delta4_equals_jensen_combination():
    for t in (0.25, 1.0, 3.0):
        termwise = apply_theta_op(ThetaOperator.delta4(), t)
        derivative_path = 8 * (2 * t**2 * psi(t, 2) + 3 * t * psi(t, 1))
        assert termwise == pytest.approx(derivative_path, rel=1e-14)
    assert apply_theta_op(ThetaOperator.delta4(), 1.0).real == pytest.approx(DELTA4_AT_1, rel=1e-14)


def test_delta4_h4_expansion():
    # Delta4 H4 = 64 t^3 d^3 + 240 t^2 d^2 + 120 t d  (composition of the two operators)
    for t in (0.5, 1.0, 2.0):
        termwise = apply_theta_op(ThetaOperator.delta4_h4(), t)
        derivative_path = 64 * t**3 * psi(t, 3) + 240 * t**2 * psi(t, 2) + 120 * t * psi(t, 1)
        assert termwise == pytest.approx(derivative_path, rel=1e-13)


def test_delta4_power_matches_euler_finite_differences():
    # independent route: Delta4 f = 16 f_xx + 8 f_x in x = ln t, applied to f = Delta4 Psi
    t0 = 1.3
    x0 = math.log(t0)
    h = 1e-2
    f = lambda x: apply_theta_op(ThetaOperator.delta4(), math.exp(x)).real
    f2, f1, f0, fm1, fm2 = (f(x0 + k * h) for k in (2, 1, 0, -1, -2))
    fx = (-f2 + 8 * f1 - 8 * fm1 + fm2) / (12 * h)
    fxx = (-f2 + 16 * f1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h**2)
    expected = 16 * fxx + 8 * fx
    direct = apply_theta_op(ThetaOperator.delta4_power(2), t0).real
    assert direct == pytest.approx(expected, rel=1e-6)


def test_h_alpha_complex():
    alpha = 2.0 + 1.0j
    t = 0.8
    termwise = apply_theta_op(ThetaOperator.h(alpha), t)
    derivative_path = psi(t, 0) + alpha * t * psi(t, 1)
    assert termwise == pytest.approx(derivative_path, rel=1e-14)


def test_h4_reflection_example():
    t = 3.0
    val = apply_theta_op(ThetaOperator.h(4.0), t)
    refl = t**-0.5 * apply_theta_op(ThetaOperator.h(4.0), 1 / t)
    assert abs(val + refl + (t**-0.5 + 1) / 2) < 1e-12


def test_delta4_reflection_example():
    t = 2.0
    val = apply_theta_op(ThetaOperator.delta4(), t)
    refl = t**-0.5 * apply_theta_op(ThetaOperator.delta4(), 1 / t)
    assert abs(val - refl) < 1e-12


def test_functional_residuals():
    assert verify("psi_inversion", extras={"t": 1.0}).abs_residual < 1e-15
    assert verify("delta4_inversion", extras={"t": 5.0}).abs_residual < 1e-12
    assert verify("delta_inversion", extras={"t": 2.0, "alpha": 2.0}).abs_residual < 1e-12
    assert verify("h4_inversion", extras={"t": 0.7}).abs_residual < 1e-12


def test_psi_reflection_residual_grid():
    for t in np.linspace(0.1, 10.0, 100):
        assert verify("psi_inversion", extras={"t": float(t)}).abs_residual < 1e-12 * (1 + t**-0.5)


def test_truncation_certificate():
    from xideform.theta import _series

    op = ThetaOperator.delta4()
    up = op.upoly()
    for t in (0.25, 1.0, 4.0):
        n = term_count(t, op.degree * 2)
        t_arr = np.array([t])
        full = _series(up, t_arr, 1e-18)[0]
        # doubling the term count must not move the value beyond eps
        n2 = np.arange(1, 2 * n + 1, dtype=float)
        u = math.pi * np.outer(n2 * n2, t_arr)
        doubled = (np.polynomial.polynomial.polyval(u, up, tensor=False) * np.exp(-u)).sum(axis=0)[0]
        assert abs(full - doubled) < 1e-18 * (1 + abs(full))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=20.0))
def test_psi_reflection_property(t):
    assert verify("psi_inversion", extras={"t": t}).abs_residual < 1e-11 * (1 + t**-0.5)


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.5, max_value=6.0))
def test_delta_alpha_reflection_property(t, alpha):
    assert verify("delta_inversion", extras={"t": t, "alpha": alpha}).abs_residual < 1e-10 * (1 + t**-0.5)


def test_vectorized_matches_scalar():
    ts = np.array([0.05, 0.19, 0.2, 0.7, 3.0])
    vec = theta_values(ThetaOperator.h(4.0), ts)
    for i, t in enumerate(ts):
        assert vec[i] == pytest.approx(apply_theta_op(ThetaOperator.h(4.0), float(t)), rel=1e-14)


def _reference_series(upoly, t):
    """_series as written with numpy's polyval, from polynomials built afresh."""
    n_terms = term_count(float(t.min()), len(upoly) - 1, DEFAULT_EPS / (1.0 + float(np.abs(upoly).sum())))
    n = np.arange(1, n_terms + 1, dtype=float)
    u = math.pi * np.outer(n * n, t)
    return (np.polynomial.polynomial.polyval(u, upoly, tensor=False) * np.exp(-u)).sum(axis=0)


@pytest.mark.parametrize("op", [
    ThetaOperator.plain(), ThetaOperator.h(4.0), ThetaOperator.delta4(),
    ThetaOperator.delta4_power(3), ThetaOperator.delta(0.7 + 0.2j),
], ids=lambda op: op.name)
def test_cached_polynomials_give_the_same_bits(op):
    t = np.exp(np.linspace(-5.0, 4.0, 200))
    big = t >= SMALL_T
    ts = t[~big]
    ref = np.empty(t.shape, dtype=complex)
    ref[big] = _reference_series(op.upoly(), t[big])
    inv_sqrt = 1.0 / np.sqrt(ts)
    c1, c2 = op.at(-0.5) / 2.0, -op.at(0.0) / 2.0
    ref[~big] = inv_sqrt * _reference_series(op.reflected().upoly(), 1.0 / ts) + c1 * inv_sqrt + c2
    theta_values(op, t)  # a second call reads the cache
    assert np.array_equal(theta_values(op, t), ref)
    up, refl, _ = _op_polys(op)
    assert not up.flags.writeable and not refl.flags.writeable
    with pytest.raises(ValueError):
        up[0] = 0.0
