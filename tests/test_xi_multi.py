import math
from dataclasses import replace

import numpy as np
import pytest

from xideform import xi_multi
from xideform.errors import DomainError, NonConvergenceError
from xideform.funceq import IdentityId, sample_convergent_rho, verify
from xideform.quadrature import QuadSpec
from xideform.theta import ThetaOperator
from xideform.xi_core import mellin, MellinKernel, mellin_many, xi
from xideform.xi_multi import (
    MultiXiParams,
    d_rho_ij_xi_d,
    heat_residual_multi,
    jensen_xi_d,
    xi_d,
)


def _gauss_panels(a, b, n_panels, order):
    """Gauss-Legendre nodes and weights on n_panels equal panels of [a, b]: the independent reference rule."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = (b - a) / (2 * n_panels)
    mid = a + half * (2 * np.arange(n_panels) + 1)
    return (mid[:, None] + half * x).reshape(-1), np.tile(half * w, n_panels)


def test_diagonal_factorization():
    rho = [[0.5, 0.0], [0.0, 1.0]]
    s = [1.0, 2.0]
    joint = xi_d(MultiXiParams.make(rho, s)).value
    product = xi(0.5, 1.0).value * xi(1.0, 2.0).value
    assert abs(joint - product) < 1e-8 * max(1.0, abs(product))


def test_swap_symmetry():
    rho = [[1.0, 0.2], [0.2, 1.0]]
    a = xi_d(MultiXiParams.make(rho, [0.7, 1.3 + 0.5j])).value
    b = xi_d(MultiXiParams.make(rho, [1.3 + 0.5j, 0.7])).value
    assert abs(a - b) < 1e-9 * max(1.0, abs(a))


def test_domination_bound_imaginary_coupling():
    rho = np.array([[0.8, 0.2j], [0.2j, 1.1]])
    s = np.array([0.9 + 0.4j, 1.2 - 0.3j])
    val = xi_d(MultiXiParams.make(rho, s)).value
    bound = xi(0.8, s[0].real).value.real * xi(1.1, s[1].real).value.real
    assert abs(val) <= bound * (1 + 1e-9)


def test_d1_reduces_to_xi():
    v = xi_d(MultiXiParams.make([[0.7]], [1.1 + 0.3j])).value
    assert abs(v - xi(0.7, 1.1 + 0.3j).value) < 1e-10


def test_d3_diagonal_factorization():
    rho = np.diag([0.5, 0.8, 1.2])
    s = [0.4, 1.0, 1.6]
    joint = xi_d(MultiXiParams.make(rho, s)).value
    product = xi(0.5, 0.4).value * xi(0.8, 1.0).value * xi(1.2, 1.6).value
    assert abs(joint - product) < 1e-7 * max(1.0, abs(product))


def test_d3_complex_block_factorization():
    # Im rho_12 != 0 enters the d = 3 sum as a pair phase; rho_13 = rho_23 = 0 splits off axis 3
    r12 = 0.25 + 0.2j
    s = [0.4 + 0.1j, 0.6 - 0.3j, 0.3 + 0.5j]
    joint = xi_d(MultiXiParams.make([[1.0, r12, 0.0], [r12, 0.9, 0.0], [0.0, 0.0, 1.2]], s)).value
    block = xi_d(MultiXiParams.make([[1.0, r12], [r12, 0.9]], s[:2])).value
    product = block * xi(1.2, s[2]).value
    assert abs(joint - product) <= 1e-14 * abs(product)


@pytest.mark.parametrize("rho,s", [
    ([[1.0, 0.2], [0.2, 0.8]], [0.4, 0.6]),
    (sample_convergent_rho(3, 3, imag_scale=0.0), [0.4, 0.6, 0.3]),
])
def test_axis_data_once_per_axis_and_parity(monkeypatch, rho, s):
    # a xi_d accepted on its first grid computes each axis's data twice: for its even
    # nodes (the first grid) and its odd nodes, whatever the parity classes using them
    calls = []
    node_data = xi_multi.node_data

    def counted(*args):
        calls.append(args)
        return node_data(*args)

    monkeypatch.setattr(xi_multi, "node_data", counted)
    xi_d(MultiXiParams.make(rho, s))
    assert len(calls) == 2 * len(s)


def test_jensen_flip_d1():
    assert verify(IdentityId("jensen_flip", 0), rho=[[1.0]], s=[0.3]).abs_residual < 1e-9


def test_jensen_flip_d2():
    assert verify(IdentityId("jensen_flip", 0), rho=[[1.0, 0.2], [0.2, 1.0]], s=[0.7, 1.1]).abs_residual < 1e-8


def test_jensen_conjugation():
    rho = np.array([[1.0, 0.2 + 0.1j], [0.2 + 0.1j, 0.9]])
    s = np.array([0.7 + 0.3j, 1.1 - 0.2j])
    a = jensen_xi_d(rho, s).value
    b = jensen_xi_d(np.conj(rho), np.conj(s)).value
    assert abs(np.conj(a) - b) < 1e-9 * max(1.0, abs(a))


def test_heat_residual_multi_same_moment():
    rho = [[1.0, 0.2], [0.2, 1.0]]
    s = [0.7, 1.1]
    assert heat_residual_multi(rho, s, 0, 0) < 1e-12
    assert heat_residual_multi(rho, s, 0, 1) < 1e-12


def test_heat_multi_finite_difference():
    rho = np.array([[1.0, 0.2], [0.2, 1.0]])
    s = [0.7, 1.1]
    h = 1e-4
    bump = np.zeros((2, 2))
    bump[0, 1] = bump[1, 0] = h
    fd = (xi_d(MultiXiParams.make(rho + bump, s)).value - xi_d(MultiXiParams.make(rho - bump, s)).value) / (2 * h)
    analytic = d_rho_ij_xi_d(rho, s, 0, 1).value
    assert abs(fd - analytic) < 1e-6 * max(1.0, abs(analytic))


def test_stall_raises_with_estimate():
    # a narrow Gaussian (rho_ii = 10) misses on the first grid of 33 x 33 nodes and
    # converges one halving later; a budget below the halved grid stops at the coarse value
    params = MultiXiParams.make([[10.0, 1.0], [1.0, 10.0]], [0.5, 0.5 + 1j])
    spec = QuadSpec.for_dimension(2)
    converged = xi_d(params, spec)
    with pytest.raises(NonConvergenceError) as exc:
        xi_d(params, replace(spec, max_nodes=2000))
    assert exc.value.error_estimate > spec.abs_tol
    assert abs(exc.value.best_value - converged.value) <= exc.value.error_estimate


def test_explicit_spec_keeps_the_budget_of_the_dimension():
    # verify and the CLI pass one spec to 1D and 3D integrals alike; this narrow
    # Gaussian needs a halving past its first grid of 33^3 nodes
    rho = [[10.0, 1.0, 0.0], [1.0, 10.0, 0.0], [0.0, 0.0, 10.0]]
    spec = QuadSpec()
    joint = xi_d(MultiXiParams.make(rho, [0.5, 0.5, 0.5]), spec)
    pair = xi_d(MultiXiParams.make([[10.0, 1.0], [1.0, 10.0]], [0.5, 0.5]), spec).value
    assert abs(joint.value - pair * xi(10.0, 0.5, spec).value) < 1e-15


def test_predicate_rejected():
    with pytest.raises(DomainError):
        xi_d(MultiXiParams.make([[1.0, 2.0], [2.0, 1.0]], [0.5, 0.5]))
    with pytest.raises(DomainError):
        MultiXiParams.make([[1.0, 0.1], [0.1, 1.0]], [0.5], "theta")
    with pytest.raises(DomainError):
        MultiXiParams.make([[1.0]], [0.5], "unknown")


def test_structured_path_vs_plain_trapezoid():
    # independent route: raw trapezoid on a dense symmetric grid, no panel logic shared
    rho = np.array([[1.0, 0.25], [0.25, 0.8]])
    s = np.array([0.9 + 0.4j, 0.6])
    xs = np.linspace(-8.0, 8.0, 1601)
    w = np.full(xs.size, xs[1] - xs[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    n = np.arange(1, 60)[:, None]
    theta = np.exp(-np.pi * n**2 * np.exp(xs)[None, :]).sum(axis=0)
    f1 = w * theta * np.exp((s[0] / 2) * xs - rho[0, 0] * xs**2)
    f2 = w * theta * np.exp((s[1] / 2) * xs - rho[1, 1] * xs**2)
    coupling = np.exp(-2 * rho[0, 1] * np.outer(xs, xs))
    brute = f1 @ coupling @ f2
    fast = xi_d(MultiXiParams.make(rho, s)).value
    assert abs(fast - brute) < 1e-9 * max(1.0, abs(brute))


def test_jensen_structured_path_vs_plain_trapezoid():
    rho = np.array([[1.0, 0.2], [0.2, 0.9]])
    s = np.array([0.7, 1.1])
    xs = np.linspace(-6.0, 6.0, 1201)
    w = np.full(xs.size, xs[1] - xs[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    t = np.exp(xs)
    n = np.arange(1, 60)[:, None]
    u = np.pi * n**2 * t[None, :]
    jensen = ((16 * u**2 - 24 * u) * np.exp(-u)).sum(axis=0)
    f1 = w * jensen * np.exp((s[0] / 2) * xs - rho[0, 0] * xs**2)
    f2 = w * jensen * np.exp((s[1] / 2) * xs - rho[1, 1] * xs**2)
    coupling = np.exp(-2 * rho[0, 1] * np.outer(xs, xs))
    brute = f1 @ coupling @ f2
    fast = jensen_xi_d(rho, s).value
    assert abs(fast - brute) < 1e-8 * max(1.0, abs(brute))


def test_mean_value_reduced_convolution():
    # M[Psi e^{-rho ln^2}](s) = int dq M[Psi e^{-gamma ln^2}](q) e^{-(q-s)^2/4(gamma-rho)}
    #                            / sqrt(4 pi (gamma - rho))        at gamma=1, rho=0.5, s=0.4
    gamma, rho, s = 1.0, 0.5, 0.4
    direct = mellin(MellinKernel(ThetaOperator.plain(), 0, rho, s)).value
    width = math.sqrt(gamma - rho)
    q_nodes, q_w = _gauss_panels(s - 14 * width, s + 14 * width, 24, 12)
    inner, _ = mellin_many(ThetaOperator.plain(), gamma, q_nodes)
    kernel = np.exp(-((q_nodes - s) ** 2) / (4 * (gamma - rho))) / math.sqrt(4 * math.pi * (gamma - rho))
    conv = (q_w * kernel * inner).sum()
    assert abs(conv - direct) < 1e-7 * max(1.0, abs(direct))
