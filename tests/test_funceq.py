import cmath
import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xideform import funceq, xi_core, xi_multi
from xideform.errors import DegenerateParameterError, DomainError
from xideform.funceq import (
    IDENTITIES,
    IdentityId,
    candidate_zeros,
    critical_sum_rescaled,
    four_exponential_combination,
    rewrite_2d_matrix_and_args,
    rho12_special_roots,
    sample_convergent_rho,
    step4_matrix,
    verify,
    zero_scan,
)
from xideform.gaussmat import RhoMatrix, closed_form_e
from xideform.theta import ThetaOperator
from xideform.xi_core import mellin_many, xi

PI = math.pi


def test_telescope_verify_passes():
    rep = verify(IdentityId("telescope", 0), rho=0.5, s=2 + 3j)
    assert rep.passed
    assert rep.abs_residual < 1e-9 * max(1.0, abs(rep.rhs))


def test_telescope_root_vs_midpoint():
    # rho = 0.1 keeps the midpoint value well above the tolerance floor
    rho, m = 0.1, 0
    roots = candidate_zeros("telescope", rho, [0, 1], m=m)
    r0, r1 = roots
    at_root = abs(xi(rho, r1).value - xi(rho, 1 - r1).value)
    midpoint = (r0 + r1) / 2
    at_mid = abs(xi(rho, midpoint).value - xi(rho, 1 - midpoint).value)
    assert at_root < 1e-8
    assert at_mid > 10 * 1e-8


def test_candidate_zero_explicit_values():
    roots = candidate_zeros("telescope", 0.5, [-1, 0, 1], m=0)
    assert roots == [0.5 - 8j * PI, 0.5 + 0j, 0.5 + 8j * PI]


def test_result3d_sign_resolution():
    # flipping the sign of the all-shifted pure-Gaussian term breaks the identity
    from xideform.gaussmat import closed_form_e

    rho = RhoMatrix.from_array([[1.2, 0.15, -0.1], [0.15, 1.0, 0.2], [-0.1, 0.2, 0.9]])
    s = [0.9 + 0.3j, -0.2, 1.4]
    rep = verify("result3d", rho=rho, s=s, tol=1e-5)
    assert rep.passed
    flipped_term = closed_form_e(rho, [v - 1 for v in s]) / 8.0
    wrong_rhs = rep.rhs - 2 * flipped_term
    assert abs(rep.lhs - wrong_rhs) > 1e3 * rep.tolerance


def test_candidate_zero_spacing():
    rho, m = 0.7, 2
    roots = candidate_zeros("telescope", rho, range(-2, 3), m=m)
    gaps = np.diff([r.imag for r in roots])
    assert np.allclose(gaps, 16 * rho * PI / (1 + m), rtol=0, atol=1e-12)


def test_tilde_zero_family_matches_alternating_combination():
    from xideform.xi_core import xi_tilde_sum_m

    rho, m = 0.5, 0
    root = candidate_zeros("tilde", rho, [0], m=m)[0]
    assert root == pytest.approx(0.5 - 8 * rho * PI * 1j)
    val = xi_tilde_sum_m(rho, root, m).value + (-1) ** m * xi_tilde_sum_m(rho, 1 - m - root, m).value
    assert abs(val) < 1e-9


@pytest.mark.parametrize("m", [-1, -2])
@pytest.mark.parametrize("family", ["telescope", "tilde"])
def test_partial_sum_families_reject_negative_m(family, m):
    # both families are defined through Xi^m and Xi~^m, which need m >= 0; m = -1 would
    # divide by 1 + m = 0, and m = -2 would give a root of no family
    with pytest.raises(DomainError):
        candidate_zeros(family, 0.5, [0, 1], m=m)


@pytest.mark.parametrize("m", [0, 1, 3])
def test_telescope_counts_both_partial_sums(m):
    rep = verify(IdentityId("telescope", m), rho=0.5, s=2 + 3j)
    assert rep.passed and rep.evaluations == 2 * (m + 1)


def test_sk_flip_d1_is_telescope():
    rep = verify(IdentityId("sk_flip", 0), rho=[[0.6]], s=[1.2 + 0.5j])
    assert rep.passed and rep.abs_residual < 1e-9


def test_sk_flip_d2():
    rep = verify(IdentityId("sk_flip", 1), rho=[[1.0, 0.2], [0.2, 0.8]], s=[1 + 1j, 0.5])
    assert rep.passed


def test_sk_flip_d3():
    rho = sample_convergent_rho(11, 3, imag_scale=0.0)
    rep = verify(IdentityId("sk_flip", 0), rho=rho, s=[0.4, 0.7, 1.1], tol=1e-5)
    assert rep.passed


def test_fun1_and_fun11():
    rho = [[1.0, 0.2], [0.2, 0.8]]
    s = [1 + 1j, 0.5]
    rep1 = verify("fun1", rho=rho, s=s)
    rep11 = verify("fun11", rho=rho, s=s)
    assert rep1.passed and rep11.passed


def test_funcor1_root_confirmed_by_quadrature():
    rho = [[1.0, 0.1], [0.1, 1.0]]
    root = candidate_zeros("funcor1", rho, [0], branch=1)[0]
    rep = verify("funcor1", rho=rho, s=root, tol=1e-7)
    assert rep.passed


def test_funcor2_root_confirmed_by_quadrature():
    rho = [[1.0, 0.1], [0.1, 1.0]]
    root = candidate_zeros("funcor2", rho, [0], branch=1)[0]
    rep = verify("funcor2", rho=rho, s=root, tol=1e-7)
    assert rep.passed


def test_funcor_degenerate_parameters():
    with pytest.raises(DegenerateParameterError):
        candidate_zeros("funcor1", [[1.0, 1.0], [1.0, 1.0]], [0])


def test_rho12_special_roots():
    rho12, s1 = rho12_special_roots(1.0, 1, 1, 0.3, 0)
    det = 1.0 - rho12**2
    assert abs(cmath.exp(-rho12 / (8 * det)) - 1) < 1e-12
    assert abs(four_exponential_combination(1.0, rho12, s1, 0.3)) < 1e-10


def test_rho12_root_shift_property():
    base = rho12_special_roots(1.0, 2, 1, 0.3, 0)[1]
    shifted = rho12_special_roots(1.0, 2, 1, 0.3, 1)[1]
    assert shifted - base == pytest.approx(2.0 / 2)


def test_rho12_root_swap_roles():
    gamma, n, s2 = 1.0, 1, 0.3
    rho12, s1 = rho12_special_roots(gamma, n, 1, s2, 0)
    # exchanging the roles of s1 and s2 also gives a root
    assert abs(four_exponential_combination(gamma, rho12, s2, s1)) < 1e-10


def test_rho12_roots_verify_and_errors():
    rep = verify("rho12_roots", extras={"gamma": 1.0, "n": 1, "branch": 1, "s2": 0.3, "nprime": 0})
    assert rep.passed
    with pytest.raises(DomainError):
        rho12_special_roots(1.0, 0, 1, 0.3)


def test_mean_value():
    rep = verify("mean_value", rho=[[1.2, 0.1], [0.1, 1.0]], s=[0.8, 0.6], tol=1e-7)
    assert rep.passed


def test_result3d():
    rho = RhoMatrix.from_array([[1.2, 0.15, -0.1], [0.15, 1.0, 0.2], [-0.1, 0.2, 0.9]])
    rep = verify("result3d", rho=rho, s=[0.9 + 0.3j, -0.2, 1.4], tol=1e-5)
    assert rep.passed


def test_sixterm():
    rho = RhoMatrix.from_array([[1.2, 0.15, -0.1], [0.15, 1.0, 0.2], [-0.1, 0.2, 0.9]])
    rep = verify("sixterm", rho=rho, s=[0.2, 0.3, 0.4], tol=1e-5)
    assert rep.passed


# draws of sample_convergent_rho(seed, 3, imag_scale=0) whose Re rho is nearly singular
# (smallest eigenvalue 0.03 and 0.14): axis windows planned from rho_ii alone cut the
# integrand short there; s is the CLI's draw for the first seed
NEAR_SINGULAR = [(566268863, None), (1601536585, [0.43 + 0.65j, 0.83 - 0.17j, 0.13 + 0.66j])]


@pytest.mark.parametrize("seed,s", NEAR_SINGULAR)
def test_3d_identities_near_singular_real_part(seed, s):
    rho = sample_convergent_rho(seed, 3, imag_scale=0.0)
    s = np.random.default_rng(seed).uniform(0.1, 0.9, size=3) if s is None else s
    for ident in ("result3d", "sixterm", *(IdentityId("sk_flip", k) for k in range(3))):
        rep = verify(ident, rho=rho, s=s)
        assert rep.passed, f"{rep.id}: relative residual {rep.rel_residual:.2e}"


def test_3d_identities_with_complex_coupling():
    # tensor_nd's d = 3 draws are real; this one has Im rho_ij != 0 on every pair
    rho = sample_convergent_rho(5, 3, imag_scale=0.1)
    assert np.all(rho.array()[np.triu_indices(3, 1)].imag != 0)
    s = [0.4 + 0.1j, 0.6, 0.3 - 0.2j]
    for ident in ("result3d", *(IdentityId("sk_flip", k) for k in range(3))):
        rep = verify(ident, rho=rho, s=s)
        assert rep.passed, f"{rep.id}: relative residual {rep.rel_residual:.2e}"


def test_rewrite_3d_a_reduction_law():
    # off roots, the two sides differ by sqrt(pi/gamma) e^{1/64 gamma} (Xi+^2 - Xi-^2)/2
    rho, gamma, s = 0.5, 0.3, 0.4
    rep = verify("rewrite_3d_a", extras={"rho": rho, "gamma": gamma, "s": s}, tol=1e-5)
    gap = rep.lhs - rep.rhs
    plus = xi(rho, (1 + s) / 2).value
    minus = xi(rho, (1 - s) / 2).value
    predicted = math.sqrt(PI / gamma) * math.exp(1 / (64 * gamma)) / 2 * (plus**2 - minus**2)
    assert abs(gap - predicted) < 1e-6 * max(1.0, abs(predicted))
    assert not rep.passed  # s=0.4 is not a root of the squared difference


def test_rewrite_3d_a_trivial_root():
    rep = verify("rewrite_3d_a", extras={"rho": 0.5, "gamma": 0.3, "s": 0.0}, tol=1e-6)
    assert rep.passed


def test_rewrite_2d_reduction_law():
    rho, alpha, s, n = 0.5, 0.3, 0.4, 0
    rep = verify("rewrite_2d", extras={"rho": rho, "alpha": alpha, "s": s, "n": n}, tol=1e-6)
    _, _, a2, _ = rewrite_2d_matrix_and_args(rho, alpha, s, n)
    total = xi(rho, (1 + s) / 2).value + xi(rho, (1 - s) / 2).value
    predicted = -cmath.sqrt(PI / alpha) / 2 * cmath.exp(a2**2 / (16 * alpha)) * total
    assert abs((rep.lhs - rep.rhs) - predicted) < 1e-6 * max(1.0, abs(predicted))
    assert not rep.passed


def test_mobius_reduction_law():
    rho, alpha, s = 0.5, 0.3, 0.4
    rep = verify("mobius_rewrite", extras={"rho": rho, "alpha": alpha, "s": s}, tol=1e-6)
    u = alpha / rho * s
    total = xi(rho, (1 + s) / 2).value + xi(rho, (1 - s) / 2).value
    pref = cmath.sqrt(PI / alpha) / 2 * (
        cmath.exp((u - 1) ** 2 / (64 * alpha)) - cmath.exp((u + 1) ** 2 / (64 * alpha))
    )
    assert abs((rep.lhs - rep.rhs) - pref * total) < 1e-6 * max(1.0, abs(pref * total))


def test_rewrite_3d_b_off_root_fails():
    rep = verify("rewrite_3d_b", extras={"rho": 0.5, "gamma": 5e-3, "s": 5j}, tol=1e-4)
    assert not rep.passed


def test_step4_matrix_predicate():
    mat = step4_matrix(0.5, 0.3, 0.4)
    assert mat.convergence_ok()


def test_zero_scan_finds_known_roots():
    f = lambda z: np.sin(z.real)
    roots = zero_scan(f, anchor=0.5, direction=1.0, length=7.0, grid=40)
    assert len(roots) == 2
    assert roots[0].real == pytest.approx(PI, abs=1e-9)
    assert roots[1].real == pytest.approx(2 * PI, abs=1e-9)


def test_zero_scan_no_sign_change_returns_empty():
    f = lambda z: 2.0 + z.real**2
    assert zero_scan(f, 0.0, 1.0, 3.0, 15) == []


def test_zero_scan_symmetric_roots_about_anchor():
    f = lambda z: (z.real - 1.0) ** 3 - 4 * (z.real - 1.0)
    roots = zero_scan(f, anchor=1.0 - 3.0, direction=1.0, length=6.0, grid=61)
    vals = sorted(r.real - 1.0 for r in roots)
    assert vals == pytest.approx([-2.0, 0.0, 2.0], abs=1e-9)


def test_zero_scan_telescope_difference_small_rho():
    # first positive root of Xi_rho(s) - Xi_rho(1-s) on the critical line sits at
    # Im s = 16 rho pi; rho = 0.1 keeps the rescaled reduction well conditioned
    rho = 0.1
    scale = lambda tau: math.exp(tau * tau / (16 * rho))

    def f(points):
        return np.array([((xi(rho, s).value - xi(rho, 1 - s).value) / 2j).real * scale(s.imag) for s in points])

    roots = zero_scan(f, anchor=0.5 + 2j, direction=1j, length=4.5, grid=25)
    assert len(roots) >= 1
    assert roots[0].imag == pytest.approx(16 * rho * PI, abs=1e-6)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_zero_scan_raises_on_a_non_finite_value():
    # on the grid: the rescaled critical sum overflows past y of about 106 at rho 0.25
    with pytest.raises(DomainError, match="not finite at"):
        zero_scan(critical_sum_rescaled(0.25), 60, 1, 100, 400)
    # in the refinement: the first secant step lands on the pole
    with pytest.raises(DomainError, match=r"not finite at \(1\+0j\)"):
        zero_scan(lambda z: np.where(abs(z.real - 1) < 0.25, np.inf, z.real - 1), 0.0, 1.0, 2.0, 2)


def test_zero_scan_refines_with_few_evaluations():
    calls = []

    def f(z):
        calls.append(np.size(z))
        return np.sin(z.real)

    roots = zero_scan(f, anchor=0.5, direction=1.0, length=4.0, grid=40, refine_tol=1e-10)
    assert calls[0] == 40 and len(calls) - 1 <= 12  # bisection would take 31
    assert len(roots) == 1 and abs(roots[0].real - PI) <= 1e-10


def test_zero_scan_worst_case_is_twice_bisection():
    # a fivefold root defeats the secant steps; the schedule still bounds the count
    calls = []

    def f(z):
        calls.append(np.size(z))
        return (z.real - 0.1234) ** 5

    roots = zero_scan(f, anchor=0.0, direction=1.0, length=0.2, grid=2, refine_tol=1e-10)
    assert len(calls) - 1 <= 2 * math.ceil(math.log2(0.2 / 1e-10))
    assert abs(roots[0].real - 0.1234) <= 1e-10


def test_critical_sum_rescaled_scalar_and_array_agree():
    h = critical_sum_rescaled(0.5)
    ys = np.linspace(0.0, 16.0, 9)
    batched = h(ys)
    assert batched.shape == ys.shape
    for y, value in zip(ys, batched):
        single = h(float(y))
        assert isinstance(single, float)
        assert abs(single - value) <= 1e-12 * abs(value)


def test_critical_sum_rescaled_changes_sign():
    # first root of the critical-line sum factor for rho = 0.5 lies in (4, 6)
    h = critical_sum_rescaled(0.5)
    assert h(4.0) * h(6.0) < 0


def test_report_serialization_roundtrip():
    rep = verify(IdentityId("telescope", 0), rho=0.5, s=2 + 3j)
    rec = json.loads(json.dumps(rep.to_dict()))
    assert rec["id"] == "telescope(0)"
    assert rec["pass"] is True
    assert rec["lhs"] == [rep.lhs.real, rep.lhs.imag]


def test_random_draws_pass_for_2d_identities():
    for seed in range(3):
        rho = sample_convergent_rho(seed, 2)
        rng = np.random.default_rng(seed + 50)
        s = rng.normal(size=2) + 1j * 0.4 * rng.normal(size=2)
        for kind in ("fun1", "fun11"):
            rep = verify(kind, rho=rho, s=s, tol=1e-6)
            assert rep.passed, f"{kind} seed {seed}: residual {rep.abs_residual}"


def test_unknown_identity_rejected():
    with pytest.raises(DomainError):
        IdentityId("nonsense")


@pytest.mark.parametrize("seed", range(10))
def test_telescope_random_draws(seed):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.15, 2.0)
    s = rng.normal(scale=1.2) + 1j * rng.normal(scale=1.0)
    m = int(rng.integers(0, 3))
    rep = verify(IdentityId("telescope", m), rho=rho, s=s, tol=1e-9)
    assert rep.passed, f"telescope m={m} rho={rho} s={s}: {rep.abs_residual}"


@pytest.mark.parametrize("seed", range(5))
def test_sk_flip_random_draws(seed):
    rho = sample_convergent_rho(seed + 200, 2)
    rng = np.random.default_rng(seed + 300)
    s = rng.normal(scale=0.8, size=2) + 1j * 0.3 * rng.normal(size=2)
    rep = verify(IdentityId("sk_flip", int(rng.integers(0, 2))), rho=rho, s=s, tol=1e-6)
    assert rep.passed


# first imaginary-axis root y of Xi_0.5((1+iy)/2) + Xi_0.5((1-iy)/2), located by zero_scan
# as in test_criterion_11_rewrite_propositions
Y_STAR = 5.6238187039562035
RHO_2 = [[1.0, 0.2], [0.2, 0.8]]
RHO_3 = [[1.2, 0.15, -0.1], [0.15, 1.0, 0.2], [-0.1, 0.2, 0.9]]
FUNCOR_RHO = [[1.0, 0.1], [0.1, 1.0]]
TELESCOPE_ZERO = 0.5 + 16 * 0.1 * PI * 1j  # a root of Xi_0.1(s) - Xi_0.1(1 - s)
REGISTRY_CASES = {  # id: verify keywords of one passing input
    "telescope": dict(rho=0.5, s=2 + 3j, extras={"m": 1}),
    "sk_flip": dict(rho=RHO_2, s=[1 + 1j, 0.5], extras={"k": 1}),
    "fun1": dict(rho=RHO_2, s=[1 + 1j, 0.5]),
    "fun11": dict(rho=RHO_2, s=[1 + 1j, 0.5]),
    "funcor1": dict(rho=FUNCOR_RHO, s=candidate_zeros("funcor1", FUNCOR_RHO, [0])[0]),
    "funcor2": dict(rho=FUNCOR_RHO, s=candidate_zeros("funcor2", FUNCOR_RHO, [0])[0]),
    "rho12_roots": dict(extras={"gamma": 1.0, "n": 1, "s2": 0.3}),
    "mean_value": dict(rho=[[1.2, 0.1], [0.1, 1.0]], s=[0.8, 0.6]),
    "result3d": dict(rho=RHO_3, s=[0.9 + 0.3j, -0.2, 1.4]),
    "sixterm": dict(rho=RHO_3, s=[0.2, 0.3, 0.4]),
    # at the trivial root s = 0 both sides are one integral; the step-4 matrix at s = i Y_STAR
    # is convergent only for gamma below about 0.01
    "rewrite_3d_a": dict(extras={"rho": 0.5, "gamma": 5e-3, "s": 1j * Y_STAR}),
    "rewrite_3d_b": dict(extras={"rho": 0.5, "gamma": 5e-3, "s": 1j * Y_STAR}),
    "rewrite_2d": dict(extras={"rho": 0.5, "alpha": 0.01, "s": 1j * Y_STAR, "n": 0}),
    "mobius_rewrite": dict(extras={"rho": 0.5, "alpha": 0.01, "s": 1j * Y_STAR}),
    # at t = 1 both sides of an inversion law are one expression
    "psi_inversion": dict(extras={"t": 0.7}),
    "h4_inversion": dict(extras={"t": 0.7}),
    "delta4_inversion": dict(extras={"t": 5.0}),
    "delta_inversion": dict(extras={"t": 2.0, "alpha": 3.0}),
    "delta4_identity": dict(rho=1.0, s=0.3 + 0.4j),
    "heat": dict(rho=0.5, s=1 + 1j),
    "tilde_moment": dict(rho=1.0, s=0.3 + 0.7j),
    # at a real s the mirrored grids give the same node sums
    "jensen_flip": dict(rho=RHO_2, s=[0.3 + 0.2j, 0.8], extras={"k": 0}),
    "fde1": dict(extras={"rho": 0.7, "alpha": 3.0, "z": 0.4, "s": 1.2 + 0.3j}),
    "fde1_reflected": dict(extras={"rho": 0.7, "alpha": 3.0, "z": 0.4, "s": 1.2 + 0.3j}),
    "halpha_vanishing": dict(extras={"rho": 0.1, "alpha": 4.0, "z": TELESCOPE_ZERO, "z_prime": 1 - TELESCOPE_ZERO}),
    "second_order": dict(extras={"rho": 1.0, "alpha": 3.0, "s": 1.1 + 0.4j}),
    "vop_reconstruction": dict(extras={"rho": 0.5, "alpha": 4.0, "beta": (0.3, 0.9), "z": 0.5, "s": 0.8 + 0.6j}),
    "vop_constraint": dict(extras={"rho": 1.0, "beta": (0.0, 1.0)}),
    "chi_transform": dict(extras={"rho": 0.5, "phi": 0.7, "alpha": 3.0, "s": 1.2, "z": 0.4}),
    "canonical": dict(rho=0.5, s=1.3 + 0.4j),
    "tilde": dict(rho=0.5, s=0.7 + 0.5j),
    "iterated_expansion": dict(rho=1.0, s=0.9 + 12j, extras={"n": 2}),
}


# Two ids compare values that agree to rounding: vop_constraint's lhs loses m_psi by
# algebra, so it sets a quadrature against a closed form, and tilde_moment's sides agree
# to the last bits.  A single input's residual is then 0 whenever those bits happen to
# agree, so each is held to a nonzero residual at one of five inputs, the first being
# REGISTRY_CASES's; a residual that is 0 by algebra is 0 at all five.
EXACT_TO_ROUNDING = {
    "tilde_moment": [dict(rho=0.5, s=1.3 + 2j), dict(rho=0.7, s=-0.4 + 5j), dict(rho=2.0, s=0.9 + 0.1j),
                     dict(rho=0.25, s=0.5 + 10j)],
    "vop_constraint": [dict(extras={"rho": 0.5, "beta": (0.0, 1.0)}), dict(extras={"rho": 0.7, "beta": (0.3, 0.9)}),
                       dict(extras={"rho": 2.0, "beta": (0.2, 0.6)}), dict(extras={"rho": 0.3, "beta": (0.0, 1.0)})],
}


@pytest.mark.parametrize("kind", list(IDENTITIES))
def test_every_registry_identity_passes_at_its_default_tolerance(kind):
    reps = [verify(kind, **case) for case in [REGISTRY_CASES[kind], *EXACT_TO_ROUNDING.get(kind, [])]]
    for rep in reps:
        assert rep.passed, f"{rep.id}: relative residual {rep.rel_residual:.2e}"
        assert rep.tolerance == IDENTITIES[kind].tol
        json.dumps(rep.to_dict())
    # the two sides are computed apart, not one expression
    assert any(rep.abs_residual > 0 for rep in reps)


def test_wrong_matrix_dimension_is_a_domain_error():
    rho3 = [[1.2, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(DomainError):
        verify("mean_value", rho=rho3, s=[0.8, 0.6])


def test_index_on_an_identity_without_one_is_rejected():
    with pytest.raises(DomainError):
        IdentityId("fun1", 3)


def test_params_are_the_same_for_list_and_array_inputs():
    rho, s = [[1.2, 0.1], [0.1, 1.0]], [0.8, 0.6 + 0.1j]
    as_lists = verify("mean_value", rho=rho, s=s)
    as_arrays = verify("mean_value", rho=np.array(rho), s=np.array(s))
    as_matrix = verify("mean_value", rho=RhoMatrix.from_array(rho), s=tuple(s))
    assert as_lists.params == as_arrays.params == as_matrix.params
    assert as_lists.params["s"] == [[0.8, 0.0], [0.6, 0.1]]


# every id that makes a Mellin transform; rho12_roots and the inversion laws of Psi make none
EVALUATION_CASES = [pytest.param(kind, REGISTRY_CASES[kind], id=kind) for kind in IDENTITIES
                    if kind != "rho12_roots" and not kind.endswith("_inversion")] + [
    pytest.param("sk_flip", dict(rho=[[0.7 + 0.05j]], s=[0.3 + 1j], extras={"k": 0}), id="sk_flip-d1"),
    pytest.param("sk_flip", dict(rho=RHO_3, s=[0.9 + 0.3j, -0.2, 1.4], extras={"k": 2}), id="sk_flip-d3"),
]


@pytest.mark.parametrize("kind, case", EVALUATION_CASES)
def test_report_evaluations_count_the_xi_calls(kind, case, monkeypatch):
    # every transform is one xi_d call or one argument of a mellin_many call (mellin and xi make
    # one-argument calls); both are wrapped in every xideform module that holds them
    calls = []
    for owner, name, count in ((xi_core, "mellin_many", lambda a, kw: np.size(a[2] if len(a) > 2 else kw["args"])),
                               (xi_multi, "xi_d", lambda a, kw: 1)):
        original = getattr(owner, name)
        wrapper = lambda *a, _f=original, _n=count, **kw: calls.append(_n(a, kw)) or _f(*a, **kw)
        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "xideform" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    rep = verify(kind, **case)
    assert rep.evaluations == sum(calls) > 0


def test_reports_in_a_row_count_as_each_alone():
    alone = [verify(kind, **REGISTRY_CASES[kind]).evaluations for kind in ("heat", "fde1")]
    in_a_row = [verify(kind, **REGISTRY_CASES[kind]).evaluations for kind in ("heat", "fde1", "heat")]
    assert in_a_row == alone + alone[:1]


def test_transforms_outside_verify_are_not_counted():
    before = verify("tilde_moment", **REGISTRY_CASES["tilde_moment"]).evaluations
    mellin_many(ThetaOperator.plain(), 0.5, [0.3, 0.4 + 1j])
    xi(0.5, 0.3)
    assert verify("tilde_moment", **REGISTRY_CASES["tilde_moment"]).evaluations == before == 3


def test_a_check_that_raises_leaves_the_next_count_right(monkeypatch):
    def failing(rho, s, spec):
        xi(rho, s, spec)
        raise DomainError("stops after one transform")

    monkeypatch.setitem(IDENTITIES, "heat", dataclasses.replace(IDENTITIES["heat"], check=failing))
    with pytest.raises(DomainError):
        verify("heat", **REGISTRY_CASES["heat"])
    assert xi_core._TRANSFORMS.get() is None  # the failed check's count is closed
    monkeypatch.undo()
    assert verify("heat", **REGISTRY_CASES["heat"]).evaluations == 4


@pytest.mark.parametrize("kind", ["fde1", "fde1_reflected", "halpha_vanishing", "second_order", "vop_reconstruction"])
def test_zero_alpha_is_a_domain_error(kind):
    with pytest.raises(DomainError):
        verify(kind, extras={**REGISTRY_CASES[kind]["extras"], "alpha": 0.0})


@pytest.mark.parametrize("kind", ["telescope", "jensen_flip", "iterated_expansion"])
def test_report_id_names_the_index_however_it_is_given(kind):
    case = dict(REGISTRY_CASES[kind])
    name = IDENTITIES[kind].index
    index = case.pop("extras")[name]
    from_extras = verify(kind, **case, extras={name: index})
    from_id = verify(IdentityId(kind, index), **case)
    assert from_extras.id == from_id.id == f"{kind}({index})"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]),
       st.lists(st.floats(-0.5, 1.5), min_size=3, max_size=3),
       st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
# Re rho has smallest eigenvalue 0.01 in the first draw and 0.0084 in the second: flip_0 rho's
# integral converges on 0.11M and 0.19M nodes, once the windows cover the coupled slope
@example(172509, (2, 0), [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
@example(2890575879, (2, 0), [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
def test_sk_flip_property(seed, axis, re_s, im_s):
    d, k = axis
    rho = sample_convergent_rho(seed, d, imag_scale=0.1)
    s = [complex(x, y) for x, y in zip(re_s[:d], im_s[:d])]
    rep = verify(IdentityId("sk_flip", k), rho=rho, s=s)
    assert rep.passed, f"seed {seed}, k {k}, s {s}: relative residual {rep.rel_residual:.2e}"


@pytest.mark.parametrize("gamma, rho12, s1, s2", [
    (1.0, 0.2, 0.3 + 1j, 0.7),
    (0.8, 0.1 + 0.05j, 1.2 - 0.5j, -0.3 + 2j),
    (1.3, -0.4 + 0.1j, 0.5 + 3j, 0.5 - 3j),
    (0.9, 0.3j, -0.4, 1.6 + 0.2j),
])
def test_fun1_closed_part_is_the_four_exponential_combination(gamma, rho12, s1, s2):
    # fun1's Gaussian group at rho11 = rho22 = gamma is e(rho, s)/4 times the bracket whose
    # roots the rho12_roots family gives
    rho = RhoMatrix.from_array([[gamma, rho12], [rho12, gamma]])
    closed = funceq._corner_sum(rho, [s1, s2])
    ref = closed_form_e(rho, [s1, s2]) / 4 * four_exponential_combination(gamma, rho12, s1, s2)
    assert abs(closed - ref) <= 1e-13 * abs(ref)
