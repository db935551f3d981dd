import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xideform.errors import DomainError, SingularMatrixError
from xideform.gaussmat import RhoMatrix, closed_form_e, marginal, rescale_class
from xideform.quadrature import QuadSpec, trapezoid

SQRT_PI = math.sqrt(math.pi)


def box(f, d, spec=None, x_lo=-9.0, x_hi=9.0):
    """The trapezoid rule for f, taking points of shape (n, d), over [x_lo, x_hi]^d."""

    def node_sums(*axes):
        grids = np.meshgrid(*axes, indexing="ij")
        vals = f(np.stack([g.reshape(-1) for g in grids], axis=-1))
        return vals.sum(), np.abs(vals).max(initial=0.0)

    return trapezoid(node_sums, [x_lo] * d, [x_hi] * d, [0.0] * d, spec or QuadSpec.for_dimension(d))


def random_convergent_rho(rng, d):
    while True:
        base = rng.normal(size=(d, d))
        sym = 0.2 * (base + base.T) / 2 + np.diag(rng.uniform(0.6, 1.6, size=d))
        im = 0.1 * (lambda b: (b + b.T) / 2)(rng.normal(size=(d, d)))
        rho = RhoMatrix.from_array(sym + 1j * im)
        if rho.convergence_ok():
            return rho


def test_closed_form_d1():
    assert closed_form_e(RhoMatrix.from_array(1.0), [0.0]) == pytest.approx(SQRT_PI, rel=1e-15)


def test_closed_form_d2_explicit():
    r11, r12, r22 = 1.0, 0.25, 0.8
    rho = RhoMatrix.from_array([[r11, r12], [r12, r22]])
    s1, s2 = 0.7 + 0.2j, -0.4
    det = r11 * r22 - r12**2
    expected = (
        math.pi
        * np.exp((r11 * s2**2 + r22 * s1**2 - 2 * r12 * s1 * s2) / (16 * det))
        / math.sqrt(det)
    )
    assert closed_form_e(rho, [s1, s2]) == pytest.approx(expected, rel=1e-14)


def minor_R(rho: RhoMatrix, i: int, k: int) -> complex:
    """The 2 x 2 principal minor R_ik = rho_ii rho_kk - rho_ik^2, the reference for the
    Schur complements of `marginal`."""
    a = rho.array()
    return complex(a[i, i] * a[k, k] - a[i, k] ** 2)


def minor_T(rho: RhoMatrix, i: int, j: int, k: int) -> complex:
    """The 2 x 2 minor T_ijk = rho_ij rho_kk - rho_ik rho_jk."""
    a = rho.array()
    return complex(a[i, j] * a[k, k] - a[i, k] * a[j, k])


def quadratic_form_minors(rho: RhoMatrix, s) -> complex:
    """d=3 s . rho^{-1} s written through the minors:

    (sum_k s_k^2 R_{ij(k)} - 2 sum_{i<j} s_i s_j T_{ij k(ij)}) / det(rho).
    """
    num = (
        s[0] ** 2 * minor_R(rho, 1, 2)
        + s[1] ** 2 * minor_R(rho, 0, 2)
        + s[2] ** 2 * minor_R(rho, 0, 1)
        - 2.0 * (s[0] * s[1] * minor_T(rho, 0, 1, 2) + s[0] * s[2] * minor_T(rho, 0, 2, 1)
                 + s[1] * s[2] * minor_T(rho, 1, 2, 0))
    )
    return complex(num / rho.det())


def test_d3_quadratic_form_minor_expansion():
    rho = RhoMatrix.from_array([[1.3, 0.2, -0.1], [0.2, 1.1, 0.15], [-0.1, 0.15, 0.9]])
    s = np.array([0.4 + 0.2j, -0.3, 0.7])
    inverse_path = s @ rho.inverse() @ s
    assert quadratic_form_minors(rho, s) == pytest.approx(inverse_path, rel=1e-13)


def test_det_d3_explicit_expansion():
    a = np.array([[1.2, 0.3, -0.2], [0.3, 0.9, 0.1], [-0.2, 0.1, 1.4]])
    rho = RhoMatrix.from_array(a)
    # cofactor expansion along the first row
    cofactors = (a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
                 - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
                 + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))
    assert rho.det() == pytest.approx(cofactors, rel=1e-13)


def principal_minors_positive(rho: RhoMatrix) -> bool:
    """The convergence inequalities as separate minors: Re rho_ii > 0, det Re rho > 0 and,
    at d = 3, each 2 x 2 principal minor of Re rho positive."""
    re = rho.array().real
    if not np.all(np.diag(re) > 0):
        return False
    if rho.d >= 2 and np.linalg.det(re) <= 0:
        return False
    return all(re[i, i] * re[j, j] - re[i, j] ** 2 > 0 for i in range(rho.d) for j in range(i + 1, rho.d))


@pytest.mark.parametrize("d", [2, 3])
def test_convergence_ok_is_the_principal_minor_criterion(d):
    # Re rho = Q diag(lam) Q^T with lam drawn positive, indefinite (one or more negative),
    # or with a smallest eigenvalue of +-1e-6 (near-singular), plus a random imaginary part
    rng = np.random.default_rng(20 + d)
    verdicts = []
    for draw in range(600):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        lam = rng.uniform(0.05, 2.0, size=d)
        if draw % 3 == 1:
            lam[: rng.integers(1, d + 1)] *= -1
        elif draw % 3 == 2:
            lam[0] = rng.choice([-1e-6, 1e-6])
        re = q @ np.diag(lam) @ q.T
        im = rng.normal(size=(d, d))
        rho = RhoMatrix.from_array((re + re.T) / 2 + 0.5j * (im + im.T))
        verdicts.append(rho.convergence_ok())
        assert verdicts[-1] == principal_minors_positive(rho), rho.array()
    assert 0 < sum(verdicts) < len(verdicts)


def test_minor_symmetries():
    # the reference minors, and the Schur complement built from them, are symmetric
    rho = RhoMatrix.from_array([[1.2, 0.3, -0.2], [0.3, 0.9, 0.1], [-0.2, 0.1, 1.4]])
    assert minor_R(rho, 0, 2) == minor_R(rho, 2, 0)
    assert minor_T(rho, 0, 1, 2) == minor_T(rho, 1, 0, 2)
    d2 = RhoMatrix.from_array([[1.0, 0.4], [0.4, 0.9]])
    assert minor_R(d2, 0, 1) == pytest.approx(d2.det())
    _, red, _ = marginal(rho, [2], np.zeros((1, 3)))
    assert red.entries[0][1] == red.entries[1][0]


def test_reduce_k_d2():
    rho = RhoMatrix.from_array([[1.0, 0.3], [0.3, 0.8]])
    _, red, _ = marginal(rho, [1], np.zeros((1, 2)))
    assert red.d == 1
    assert red.entries[0][0] == pytest.approx(rho.det() / 0.8)


def test_reduce_k_d3():
    rho = RhoMatrix.from_array([[1.2, 0.3, -0.2], [0.3, 0.9, 0.1], [-0.2, 0.1, 1.4]])
    _, red, _ = marginal(rho, [0], np.zeros((1, 3)))
    a = rho.array()
    assert red.entries[0][0] == pytest.approx(minor_R(rho, 1, 0) / a[0, 0])
    assert red.entries[1][1] == pytest.approx(minor_R(rho, 2, 0) / a[0, 0])
    assert red.entries[0][1] == pytest.approx(minor_T(rho, 1, 2, 0) / a[0, 0])


def test_reduce_k_diagonal_unchanged():
    rho = RhoMatrix.from_array(np.diag([0.5, 1.0, 2.0]))
    _, red, _ = marginal(rho, [1], np.zeros((1, 3)))
    assert np.allclose(red.array(), np.diag([0.5, 2.0]))


def test_reduce_marginalization_consistency():
    # integrating axis k out of the pure Gaussian reproduces the reduced closed form
    rho = RhoMatrix.from_array([[1.2, 0.3, -0.2], [0.3, 0.9, 0.1], [-0.2, 0.1, 1.4]])
    s = np.array([0.5, -0.2 + 0.1j, 0.8])
    k = 2
    a = rho.array()
    shifted = np.array([s[i] - s[k] * a[i, k] / a[k, k] for i in range(3) if i != k])
    g, red, s_red = marginal(rho, [k], s[None])
    assert np.allclose(s_red[0], shifted, rtol=1e-15, atol=0)
    assert g[0] == pytest.approx(np.sqrt(np.pi / a[k, k]) * np.exp(s[k] ** 2 / (16 * a[k, k])), rel=1e-15)
    lhs = closed_form_e(rho, s)
    rhs = np.sqrt(np.pi / a[k, k]) * np.exp(s[k] ** 2 / (16 * a[k, k])) * closed_form_e(red, shifted)
    assert lhs == pytest.approx(rhs, rel=1e-13)


@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), re_s=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       im_s=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_marginal_times_the_reduced_closed_form_is_the_closed_form(d, seed, re_s, im_s):
    # integrating the axes S out and then the rest gives the all-axes closed form, for
    # every nonempty proper subset S; the Schur complement of a convergent rho converges
    rho = random_convergent_rho(np.random.default_rng(seed), d)
    s = np.array([complex(x, y) for x, y in zip(re_s[:d], im_s[:d])])
    whole = closed_form_e(rho, s)
    for size in range(1, d):
        for axes in itertools.combinations(range(d), size):
            g, red, s_red = marginal(rho, axes, s[None])
            assert red.d == d - size and s_red.shape == (1, d - size)
            assert abs(g[0] * closed_form_e(red, s_red[0]) - whole) <= 1e-13 * abs(whole), axes


def test_schur_complement_is_the_minor_reduction():
    # one axis k: rho'_ii = R_ik / rho_kk, rho'_ij = T_ijk / rho_kk and s'_i = s_i - s_k rho_ik / rho_kk;
    # a pair (i, j) leaving k: rho' = det rho / R_ij and s'_k = s_k - (s_i T_kij + s_j T_kji) / R_ij
    rho = RhoMatrix.from_array([[1.2, 0.3 + 0.1j, -0.2], [0.3 + 0.1j, 0.9, 0.1 - 0.05j], [-0.2, 0.1 - 0.05j, 1.4]])
    a = rho.array()
    s = np.array([[0.5 + 0.3j, -0.2, 0.8], [0.1, 0.4 - 0.7j, -1.1]])
    for k in range(3):
        rest = [i for i in range(3) if i != k]
        _, red, shifted = marginal(rho, [k], s)
        for p, i in enumerate(rest):
            for q, j in enumerate(rest):
                ref = minor_R(rho, i, k) if i == j else minor_T(rho, i, j, k)
                assert red.entries[p][q] == pytest.approx(ref / a[k, k], rel=1e-14)
            assert np.allclose(shifted[:, p], s[:, i] - s[:, k] * a[i, k] / a[k, k], rtol=1e-14, atol=0)
    for i, j in itertools.combinations(range(3), 2):
        (k,) = {0, 1, 2} - {i, j}
        g, red, shifted = marginal(rho, (i, j), s)
        rij = minor_R(rho, i, j)
        assert red.entries[0][0] == pytest.approx(rho.det() / rij, rel=1e-14)
        ref = s[:, k] - (s[:, i] * minor_T(rho, k, i, j) + s[:, j] * minor_T(rho, k, j, i)) / rij
        assert np.allclose(shifted[:, 0], ref, rtol=1e-14, atol=0)
        quad = (a[j, j] * s[:, i] ** 2 + a[i, i] * s[:, j] ** 2 - 2 * a[i, j] * s[:, i] * s[:, j]) / rij
        assert np.allclose(g, np.pi / np.sqrt(rij) * np.exp(quad / 16), rtol=1e-14, atol=0)


def test_marginal_of_a_singular_block_is_refused():
    with pytest.raises(SingularMatrixError):
        marginal(RhoMatrix.from_array([[0.0, 0.5], [0.5, 1.0]]), [0], np.zeros((1, 2)))
    rho = RhoMatrix.from_array([[1.0, 1.0, 0.2], [1.0, 1.0, 0.3], [0.2, 0.3, 1.0]])
    with pytest.raises(SingularMatrixError):
        marginal(rho, (0, 1), np.zeros((1, 3)))
    marginal(rho, (0, 2), np.zeros((1, 3)))  # a nonsingular block of the same matrix


def test_flip_involution_and_det():
    rho = RhoMatrix.from_array([[1.2, 0.3, -0.2], [0.3, 0.9, 0.1], [-0.2, 0.1, 1.4]])
    flipped = rho.flip_k(1)
    assert np.allclose(flipped.flip_k(1).array(), rho.array())
    assert flipped.det() == pytest.approx(rho.det())
    d2 = RhoMatrix.from_array([[1.0, 0.4], [0.4, 0.9]])
    assert np.allclose(d2.flip_k(1).array(), [[1.0, -0.4], [-0.4, 0.9]])


def test_rescale_class():
    rho = RhoMatrix.from_array(1.0)
    scaled, s_new, pref = rescale_class(rho, [2.0], [2.0])
    assert scaled.entries[0][0] == pytest.approx(0.25)
    assert s_new[0] == pytest.approx(1.0)
    assert pref == pytest.approx(0.5)
    assert closed_form_e(rho, [2.0]) == pytest.approx(pref * closed_form_e(scaled, s_new), rel=1e-14)


def test_rescale_identity_and_predicate_preserved():
    rng = np.random.default_rng(3)
    rho = random_convergent_rho(rng, 3)
    s = rng.normal(size=3)
    same, s_same, pref = rescale_class(rho, s, np.ones(3))
    assert pref == 1.0
    assert np.allclose(same.array(), rho.array())
    scaled, _, _ = rescale_class(rho, s, [0.5, 2.0, 1.3])
    assert scaled.convergence_ok()


def test_errors():
    with pytest.raises(DomainError):
        RhoMatrix.from_array([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(SingularMatrixError):
        closed_form_e(RhoMatrix.from_array([[1.0, 1.0], [1.0, 1.0]]), [0, 0])
    with pytest.raises(DomainError):
        closed_form_e(RhoMatrix.from_array([[-1.0, 0.0], [0.0, 1.0]]), [0, 0])
    with pytest.raises(DomainError):
        rescale_class(RhoMatrix.from_array(1.0), [1.0], [-1.0])


@pytest.mark.parametrize("d", [2, 3])
def test_rank_deficient_rho_is_refused(d):
    # B B^T of a d x r matrix B, r < d: its computed det is exactly 0 only now and then
    # (58 of 200 draws at d = 2), so the rank, not det == 0, tells inverse and
    # closed_form_e to refuse it; half of the draws have a real B
    rng = np.random.default_rng(40 + d)
    for draw in range(200):
        r = int(rng.integers(1, d))
        b = rng.normal(size=(d, r)) + 1j * (draw % 2) * rng.normal(size=(d, r))
        a = b @ b.T
        rho = RhoMatrix.from_array((a + a.T) / 2)
        with pytest.raises(SingularMatrixError):
            rho.inverse()
        with pytest.raises(SingularMatrixError):
            closed_form_e(rho, np.ones(d))


def test_partial_marginalization_matches_quadrature():
    # integrating two axes of the 3D Gaussian at fixed x3 leaves the reduced kernel
    rho = RhoMatrix.from_array([[1.2, 0.3, -0.2], [0.3, 0.9, 0.1], [-0.2, 0.1, 1.4]])
    a = rho.array().real
    s = np.array([0.4, -0.2, 0.0])
    x3 = 0.7

    def integrand(p):
        x1, x2 = p[:, 0], p[:, 1]
        quad = a[0, 0] * x1**2 + a[1, 1] * x2**2 + 2 * a[0, 1] * x1 * x2
        cross = 2 * x3 * (a[0, 2] * x1 + a[1, 2] * x2)
        return np.exp(-quad - cross + (s[0] / 2) * x1 + (s[1] / 2) * x2)

    res = box(integrand, d=2, x_lo=-9, x_hi=9)
    det12 = a[0, 0] * a[1, 1] - a[0, 1] ** 2
    pref = (
        math.pi
        * np.exp((a[0, 0] * s[1] ** 2 + a[1, 1] * s[0] ** 2 - 2 * a[0, 1] * s[0] * s[1]) / (16 * det12))
        / math.sqrt(det12)
    )
    # reduced t3-kernel per the dimension-reduction display: multiplying back the
    # omitted e^{-rho33 x3^2} would leave exactly -(rho33 + (2 r12 r13 r23 - r11 r23^2
    # - r22 r13^2)/det12) x3^2
    red_quad = (2 * a[0, 1] * a[0, 2] * a[1, 2] - a[0, 0] * a[1, 2] ** 2 - a[1, 1] * a[0, 2] ** 2) / det12
    red_lin = (s[0] * (a[0, 1] * a[1, 2] - a[1, 1] * a[0, 2]) + s[1] * (a[0, 1] * a[0, 2] - a[0, 0] * a[1, 2])) / (
        2 * det12
    )
    expected = pref * math.exp(-red_quad * x3**2 + red_lin * x3)
    assert res.value.real == pytest.approx(expected, rel=1e-10)


def gaussian_box(a, s, spec, x_lo=-8.5, x_hi=8.5):
    """The trapezoid rule for e^{-x.a x + s.x/2} over [x_lo, x_hi]^d, d <= 3.  The Gaussian
    couples the axes in pairs only, so each node sum contracts per-axis and pair factors
    (einsum "i,j,k,ij,ik,jk->" at d = 3) and never forms the d-dimensional grid; its
    modulus figure is the mean modulus, the same contraction on the moduli."""
    d = len(s)
    pairs = list(itertools.combinations(range(d), 2))
    axes = "ijk"[:d]
    expr = ",".join([*axes, *(axes[i] + axes[j] for i, j in pairs)]) + "->"

    def node_sums(*xs):
        factors = [np.exp(-a[i, i] * x * x + s[i] / 2 * x) for i, x in enumerate(xs)]
        factors += [np.exp(-2 * a[i, j] * np.multiply.outer(xs[i], xs[j])) for i, j in pairs]
        total = np.einsum(expr, *factors, optimize="greedy")
        mass = np.einsum(expr, *map(np.abs, factors), optimize="greedy")
        return total, mass / math.prod(x.size for x in xs)

    return trapezoid(node_sums, [x_lo] * d, [x_hi] * d, [0.0] * d, spec)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_form_matches_quadrature(d):
    rng = np.random.default_rng(100 + d)
    spec = QuadSpec(abs_tol=1e-11, rel_tol=1e-10) if d < 3 else QuadSpec(abs_tol=1e-10, rel_tol=1e-9)
    draws = 7 if d < 3 else 6
    for _ in range(draws):
        rho = random_convergent_rho(rng, d)
        s = rng.normal(size=d) + 1j * 0.3 * rng.normal(size=d)
        res = gaussian_box(rho.array(), s, spec)
        expected = closed_form_e(rho, s)
        assert abs(res.value - expected) < 1e-8 * max(1.0, abs(expected))
