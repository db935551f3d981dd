"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned to the contract; nothing here is calibrated after the fact.
"""

import cmath
import math
import time

import numpy as np
import pytest

from xideform.funceq import (
    IdentityId,
    candidate_zeros,
    critical_sum_rescaled,
    sample_convergent_rho,
    verify,
    zero_scan,
)
from xideform.ode_solutions import (
    a_pm,
    canonical_decomposition,
    iterated_I,
    iterated_P,
    p_closed_form_1,
    tilde_decomposition,
)
from xideform.xi_core import (
    MellinKernel,
    d_rho_xi,
    mellin,
    telescope_rhs,
    xi,
    xi_ds,
    xi_sum_m,
)
from xideform.xi_multi import MultiXiParams, d_rho_ij_xi_d, heat_residual_multi, xi_d

PI = math.pi


@pytest.fixture(autouse=True)
def _timed(request):
    start = time.perf_counter()
    yield
    print(f"  [{request.node.name} took {time.perf_counter() - start:.1f} s]")


def report(num, label, worst, tol):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"{status} criterion {num}: {label}: worst residual {worst:.3e} (tolerance {tol:.1e})")
    assert worst <= tol, f"criterion {num} failed: {worst:.3e} > {tol:.1e}"


def test_criterion_01_gauss_identity():
    worst = 0.0
    for rho in (0.1, 0.5, 1.0, 2.0):
        for s in (0.0, 1.0, 1 + 1j, 3j):
            got = mellin(MellinKernel(None, 0, rho, s)).value
            expected = cmath.sqrt(PI / rho) * cmath.exp(s * s / (4 * rho))
            worst = max(worst, abs(got - expected) / abs(expected))
    report(1, "Gauss identity, 16 parameter pairs", worst, 1e-10)


def test_criterion_02_telescope():
    worst = 0.0
    for m in (0, 1, 2):
        for rho in (0.25, 0.5, 1.0, 1.5, 2.0):
            for s in (0.3, 1 + 1j, 2.0, 0.5 + 2j, -0.5):
                lhs = xi_sum_m(rho, s, m).value - xi_sum_m(rho, 1 - m - s, m).value
                rhs = telescope_rhs(rho, s, m)
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    zero_worst = 0.0
    rho = 0.5
    for m in (0, 1, 2):
        for root in candidate_zeros("telescope", rho, range(-2, 3), m=m):
            diff = xi_sum_m(rho, root, m).value - xi_sum_m(rho, 1 - m - root, m).value
            zero_worst = max(zero_worst, abs(diff))
    print(f"  confirmed zeros: worst |Xi-difference| {zero_worst:.3e} (tolerance 1e-08)")
    assert zero_worst < 1e-8
    report(2, "telescope identity on 5x5 grid, m in {0,1,2}", worst, 1e-9)


def test_criterion_03_heat_equation():
    points = [(1.0, 0.5), (0.5, 1 + 1j), (0.25, 2.0), (2.0, -0.5), (1.0, 0.3 + 0.8j)]
    worst_same = max(verify("heat", rho=rho, s=s).abs_residual for rho, s in points)
    worst_fd = 0.0
    h = 1e-4
    for rho, s in points:
        fd = (xi(rho + h, s).value - xi(rho - h, s).value) / (2 * h)
        worst_fd = max(worst_fd, abs(fd - d_rho_xi(rho, s).value))
        fd2 = (xi(rho, s + h).value - 2 * xi(rho, s).value + xi(rho, s - h).value) / h**2
        worst_fd = max(worst_fd, abs(fd2 - xi_ds(rho, s, 2).value))
    rho2 = [[1.0, 0.2], [0.2, 0.9]]
    s2 = [0.7, 1.1]
    worst_multi = max(heat_residual_multi(rho2, s2, 0, 0), heat_residual_multi(rho2, s2, 0, 1))
    bump = np.array([[0.0, h], [h, 0.0]])
    fd12 = (
        xi_d(MultiXiParams.make(np.array(rho2) + bump, s2)).value
        - xi_d(MultiXiParams.make(np.array(rho2) - bump, s2)).value
    ) / (2 * h)
    worst_multi_fd = abs(fd12 - d_rho_ij_xi_d(rho2, s2, 0, 1).value)
    print(f"  heat: same-moment {max(worst_same, worst_multi):.3e}, finite-diff {max(worst_fd, worst_multi_fd):.3e}")
    assert max(worst_same, worst_multi) < 1e-12
    report(3, "heat equation (1d and d=2)", max(worst_fd, worst_multi_fd), 1e-6)


def test_criterion_04_mean_value():
    triples = [
        ([[1.2, 0.1], [0.1, 1.0]], [0.8, 0.6]),
        ([[1.0, 0.0], [0.0, 1.5]], [0.5, 1.2]),
        ([[0.9, -0.2], [-0.2, 1.1]], [1.0 + 0.3j, 0.4]),
    ]
    worst = 0.0
    for rho, s in triples:
        rep = verify("mean_value", rho=rho, s=s, tol=1e-7)
        worst = max(worst, rep.abs_residual / max(1.0, abs(rep.rhs)))
    report(4, "mean-value property at 3 parameter triples", worst, 1e-7)


def test_criterion_05_2d_functional_equations():
    worst = 0.0
    for seed in range(5):
        rho = sample_convergent_rho(seed, 2)
        rng = np.random.default_rng(seed + 21)
        s = rng.normal(scale=0.8, size=2) + 1j * 0.4 * rng.normal(size=2)
        for kind in ("fun1", "fun11"):
            rep = verify(kind, rho=rho, s=s, tol=1e-6)
            worst = max(worst, rep.abs_residual / max(1.0, abs(rep.lhs), abs(rep.rhs)))
    root_worst = 0.0
    mat = [[1.0, 0.1], [0.1, 1.0]]
    for family in ("funcor1", "funcor2"):
        for branch in (1, -1):
            root = candidate_zeros(family, mat, [0], branch=branch)[0]
            rep = verify(family, rho=mat, s=root, tol=1e-7)
            root_worst = max(root_worst, rep.abs_residual / max(1.0, abs(rep.lhs), abs(rep.rhs)))
    print(f"  funcor closed-form roots: worst residual {root_worst:.3e} (tolerance 1e-07)")
    assert root_worst < 1e-7
    report(5, "2d functional equations, 5 random draws", worst, 1e-6)


def test_criterion_06_3d_identities():
    worst_r3d = 0.0
    worst_6t = 0.0
    for seed in (3, 11):
        rho = sample_convergent_rho(seed, 3, imag_scale=0.0)
        rng = np.random.default_rng(seed + 100)
        s = rng.uniform(0.1, 0.9, size=3) + 1j * 0.2 * rng.normal(size=3)
        rep = verify("result3d", rho=rho, s=s, tol=1e-5)
        worst_r3d = max(worst_r3d, rep.abs_residual / max(1.0, abs(rep.lhs), abs(rep.rhs)))
        rep6 = verify("sixterm", rho=rho, s=rng.uniform(0.1, 0.8, size=3), tol=1e-5)
        worst_6t = max(worst_6t, rep6.abs_residual / max(1.0, abs(rep6.lhs), abs(rep6.rhs)))
    print(f"  sixterm: worst residual {worst_6t:.3e} (tolerance 1e-05)")
    assert worst_6t < 1e-5
    report(6, "3d functional equation (sign-resolution test)", worst_r3d, 1e-5)


CANONICAL_POINTS = [(0.25, 1.3), (0.5, 2.0), (0.5, 0.8 + 0.6j), (1.0, 2.0), (1.0, -0.7), (1.0, 1.5 + 1j)]


def test_criterion_07_canonical_decomposition():
    worst = max(verify("canonical", rho=rho, s=s).abs_residual for rho, s in CANONICAL_POINTS)
    sym_worst = 0.0
    parity_worst = 0.0
    for rho, s in ((0.5, 1.6), (1.0, 1.7), (0.25, 0.9)):
        sym_worst = max(
            sym_worst,
            abs(canonical_decomposition(rho, s).integral_part - canonical_decomposition(rho, 1 - s).integral_part),
        )
        ap, am = a_pm(rho, s)
        ap_r, am_r = a_pm(rho, 1 - s)
        parity_worst = max(parity_worst, abs(ap + ap_r), abs(am - am_r))
    print(f"  integral symmetry {sym_worst:.3e}, a± parity {parity_worst:.3e} (tolerance 1e-09)")
    assert sym_worst < 1e-9 and parity_worst < 1e-9
    report(7, "canonical decomposition at 6 points", worst, 1e-9)


def test_criterion_08_tilde_decomposition():
    points = [(0.25, 0.8), (0.5, 1.3), (1.0, 1.3), (1.0, 0.6 + 0.5j)]
    worst = max(verify("tilde", rho=rho, s=s).abs_residual for rho, s in points)
    h = 1e-4
    rho, s = 1.0, 1.3
    fd = 16 * rho * (canonical_decomposition(rho, s + h).total - canonical_decomposition(rho, s - h).total) / (2 * h)
    link = abs(fd - tilde_decomposition(rho, s).total)
    print(f"  derivative link {link:.3e} (tolerance 1e-05)")
    assert link < 1e-5
    report(8, "tilde decomposition dual path at 4 points", worst, 1e-8)


def test_criterion_09_iterated_expansion():
    worst = max(verify(IdentityId("iterated_expansion", 2), rho=rho, s=s).abs_residual
                for rho, s in ((1.0, 1.2), (0.5, 0.8)))
    p1 = max(abs(iterated_P(rho, 1, s) - p_closed_form_1(rho, s)) for rho, s in ((1.0, 1.4), (0.5, 0.3)))
    sym = 0.0
    for n in (1, 2):
        sym = max(sym, abs(iterated_P(1.0, n, 1.35) - iterated_P(1.0, n, 1 - 1.35)))
        sym = max(sym, abs(iterated_I(1.0, n, 1.35) - iterated_I(1.0, n, 1 - 1.35)))
    print(f"  P1 closed form {p1:.3e} (tol 1e-10), P/I symmetry {sym:.3e} (tol 1e-08)")
    assert p1 < 1e-10
    assert sym < 1e-8
    report(9, "iterated expansion at n=2", worst, 1e-7)


def test_criterion_10_positivity():
    worst = -math.inf
    ok = True
    for rho in (0.1, 0.5, 1.0, 2.0):
        for r in np.linspace(-4.0, 6.0, 41):
            val = xi(rho, float(r)).value.real
            ok = ok and val > 0
            worst = max(worst, -val)
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion 10: positivity of Xi_rho on [-4, 6] x 4 deformations")
    assert ok


def test_criterion_11_rewrite_propositions():
    rho = 0.5
    # locate the first imaginary-axis root of the sum factor (also the first root of
    # the squared difference there, since the difference factor is nonzero on (0, 16pi))
    h = critical_sum_rescaled(rho)
    roots = zero_scan(lambda z: h(z.real), anchor=4.0, direction=1.0, length=2.0, grid=9)
    assert roots, "no sum-factor root found in [4, 6]"
    y_star = roots[0].real
    print(f"  sum-factor root at s = {y_star:.12f} i (bisected to 1e-10)")
    sum_val = xi(rho, (1 + 1j * y_star) / 2).value + xi(rho, (1 - 1j * y_star) / 2).value
    assert abs(sum_val) < 1e-9

    sq_diff = xi(rho, (1 + 1j * y_star) / 2).value ** 2 - xi(rho, (1 - 1j * y_star) / 2).value ** 2
    assert abs(sq_diff) < 1e-9

    # squared-difference root confirmed through the 3d-derived 2x2 rewrite (Step7 form)
    gamma = 5e-3
    rep_b = verify("rewrite_3d_b", extras={"rho": rho, "gamma": gamma, "s": 1j * y_star}, tol=1e-4)
    control_b = verify("rewrite_3d_b", extras={"rho": rho, "gamma": gamma, "s": 2j}, tol=1e-4)
    print(f"  step-7 rewrite at root: residual {rep_b.abs_residual:.3e} "
          f"(pass={rep_b.passed}); control at 2i: {control_b.abs_residual:.3e} (pass={control_b.passed})")
    assert rep_b.passed and not control_b.passed

    # sum root confirmed through the odd-shift rewrite (1+2n form)
    alpha = 0.01
    rep_c = verify("rewrite_2d", extras={"rho": rho, "alpha": alpha, "s": 1j * y_star, "n": 0}, tol=1e-6)
    control_c = verify("rewrite_2d", extras={"rho": rho, "alpha": alpha, "s": 2j, "n": 0}, tol=1e-6)
    print(f"  odd-shift rewrite at root: residual {rep_c.abs_residual:.3e} "
          f"(pass={rep_c.passed}); control at 2i: {control_c.abs_residual:.3e} (pass={control_c.passed})")
    assert rep_c.passed and not control_c.passed
    print("PASS criterion 11: rewrite propositions at located imaginary-axis roots")
