"""Catalog of the named functional equations, each as an LHS/RHS verification.

Each identity (the inversion laws of Psi, the heat and transport laws of Xi_rho, the
2D/3D functional equations) evaluates its two sides by different routes and returns a
VerificationReport.  Root families (telescope, tilde, funcor, the special rho_12 locus)
are generated in closed form and confirmed by quadrature.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateParameterError, DomainError
from .gaussmat import RhoMatrix, marginal
from .ode_solutions import (_check_rho, _chi_segment, _q, canonical_decomposition, canonical_sinh_coeff,
                            iterated_I, iterated_P, segment_weighted_mellin, tilde_decomposition, vop_coefficients)
from .quadrature import QuadSpec, trapezoid
from .theta import ThetaOperator, apply_theta_op
from .xi_core import (_TRANSFORMS, d_rho_xi, mellin, mellin_delta4, mellin_many, telescope_rhs, xi, xi_ds,
                      xi_sum_m, xi_tilde)
from .xi_multi import jensen_xi_d, MultiXiParams, xi_d

PI = math.pi


@dataclass(frozen=True)
class Identity:
    """One catalog entry: the check, its default tolerance, input shape and index.

    `inputs`, normalised and validated by `verify` before the check runs, is "scalar"
    (complex rho and s), "matrix" (a d x d RhoMatrix, d = `d` or any when None, and an
    s vector of length d), "equal_diagonal" (a 2 x 2 RhoMatrix with rho11 = rho22 and a
    complex s) or "extras" (the named `extras` alone, each declared by its default or,
    when required, by a converter that also validates: a type, `_check_rho`, `_nonzero`).
    A scalar rho passes `_check_rho`.  `index` names the IdentityId index, also read from
    extras.  The check takes the inputs and spec as keywords and returns (lhs, rhs).
    """

    check: Callable
    tol: float  # default, by the dimension of the heaviest integral
    inputs: str
    d: int | None = None
    index: str | None = None
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class IdentityId:
    kind: str
    index: int | None = None  # the value of the entry's named index (m, k)

    def __post_init__(self):
        if self.kind not in IDENTITIES:
            raise DomainError(f"unknown identity {self.kind!r}")
        if self.index is not None and IDENTITIES[self.kind].index is None:
            raise DomainError(f"{self.kind} takes no index")

    def __str__(self):
        return self.kind if self.index is None else f"{self.kind}({self.index})"


@dataclass(frozen=True)
class VerificationReport:
    id: str
    params: dict
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    passed: bool
    tolerance: float
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "params": self.params,
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "evaluations": self.evaluations,
        }


def _report(identity, params, lhs, rhs, tol, evals) -> VerificationReport:
    lhs, rhs = complex(lhs), complex(rhs)
    abs_res = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return VerificationReport(
        id=str(identity), params=params, lhs=lhs, rhs=rhs,
        abs_residual=abs_res, rel_residual=abs_res / scale,
        passed=abs_res <= max(tol, tol * scale), tolerance=tol, evaluations=evals,
    )


def _as_rho(rho) -> RhoMatrix:
    return rho if isinstance(rho, RhoMatrix) else RhoMatrix.from_array(rho)


def _xi(rho: RhoMatrix, s, spec):
    """Xi(rho, s): the 1D transform at d = 1, the d-dimensional quadrature above.  A 2-D s
    gives Xi at each of its rows, in one batched transform at d = 1."""
    rows = np.atleast_2d(np.asarray(s, dtype=complex))
    if rho.d == 1:
        values = mellin_many(ThetaOperator.plain(), rho.entries[0][0], rows[:, 0] / 2, 0, spec)[0]
    else:
        values = np.array([xi_d(MultiXiParams(rho, tuple(row), "theta"), spec).value for row in rows])
    return values if np.ndim(s) == 2 else complex(values[0])


def _corners(s, axes):
    """The rows s - c over the corners c of the unit cube on the axes, and their signs (-1)^|c|."""
    c = np.zeros((2 ** len(axes), len(s)))
    c[:, axes] = list(itertools.product((0, 1), repeat=len(axes)))
    return s - c, (-1.0) ** c.sum(axis=1)


def _flip_bracket(rho: RhoMatrix, k: int, s, spec) -> complex:
    """Xi(rho, s) - Xi(flip_k rho, s_k -> 1 - s_k): axis k of the Gaussian integrated out.

    -1/2 sum_c (-1)^c g_c Xi_rho'(s'_c) over c = 0, 1, with (g_c, rho', s'_c) the
    `marginal` of axis k at s_k - c, and Xi_rho' = 1 at d = 1.  Every single-axis reduced
    term of the catalog is one of these brackets at some flip of rho and reflection of s.
    """
    rows, signs = _corners(s, [k])
    g, red, shifted = marginal(rho, [k], rows)
    xis = 1.0 if red is None else _xi(red, shifted, spec)
    return -(signs @ (g * xis)) / 2


def _corner_sum(rho: RhoMatrix, s) -> complex:
    """2^-d sum_c (-1)^|c| e(rho, s - c) over the corners c of the unit cube: every axis
    integrated out."""
    rows, signs = _corners(s, range(rho.d))
    return signs @ marginal(rho, range(rho.d), rows)[0] / 2**rho.d


# ---------------------------------------------------------------------------
# individual identities


def _flip_difference(rho: RhoMatrix, s, spec) -> complex:
    """Xi(rho, s) - Xi(rho, 1 - s), the left side of the all-axes functional equations."""
    return _xi(rho, s, spec) - _xi(rho, [1 - v for v in s], spec)


def _verify_telescope(rho, s, m, spec):
    at_s, at_mirror = xi_sum_m(rho, [s, 1 - m - s], m, spec).value
    return at_s - at_mirror, telescope_rhs(rho, s, m)


def _verify_sk_flip(rho, s, k, spec):
    s_flip = s.copy()
    s_flip[k] = 1 - s_flip[k]
    rhs = _xi(rho.flip_k(k), s_flip, spec) + _flip_bracket(rho, k, s, spec)
    return _xi(rho, s, spec), rhs


def _verify_fun1(rho, s, spec):
    brackets = sum(_flip_bracket(rho.flip_k(k), k, np.where(np.arange(2) == k, s, 1 - s), spec) for k in range(2))
    return _flip_difference(rho, s, spec), _corner_sum(rho, s) + brackets


def _verify_fun11(rho, s, spec):
    s1, s2 = complex(s[0]), complex(s[1])
    rhs = _flip_bracket(rho, 0, [s1, s2], spec) + _flip_bracket(rho.flip_k(1), 1, [1 - s1, s2], spec)
    return _flip_difference(rho, [s1, s2], spec), rhs


def _verify_funcor1(rho, s, spec):
    rhs = 2 * _flip_bracket(rho.flip_k(0), 0, [s, 1 - s], spec)
    return _flip_difference(rho, [s, s], spec), rhs


def _verify_funcor2(rho, s, spec):
    flip = rho.flip_k(0)
    brackets = _flip_bracket(flip, 0, [1 - s, 1 - s], spec) + _flip_bracket(flip, 0, [s, s], spec)
    return 2 / np.sqrt(PI / rho.entries[0][0]) * brackets, 0.0


def four_exponential_combination(gamma, rho12, s1, s2) -> complex:
    """1 + e^{E2} - e^{E3} - e^{E4}: the inhomogeneity bracket at rho11 = rho22 = gamma."""
    gamma, rho12, s1, s2 = complex(gamma), complex(rho12), complex(s1), complex(s2)
    det = gamma * gamma - rho12 * rho12
    e2 = (2 * gamma - 2 * rho12 - 2 * gamma * s1 - 2 * gamma * s2 + 2 * rho12 * (s1 + s2)) / (16 * det)
    e3 = (gamma - 2 * gamma * s1 + 2 * rho12 * s2) / (16 * det)
    e4 = (gamma - 2 * gamma * s2 + 2 * rho12 * s1) / (16 * det)
    return 1 + cmath.exp(e2) - cmath.exp(e3) - cmath.exp(e4)


def rho12_special_roots(gamma, n: int, branch: int, s2, nprime: int = 0):
    """Coupling rho12 with e^{-rho12/(8 det)} = 1 and an s1 annihilating the bracket.

    rho12 = 1/(32 pi i n) + branch * sqrt(gamma^2 - 1/(32 pi n)^2);
    s1 = (gamma/rho12)(s2 - 1/2) + 2 n'/n.
    """
    if n == 0:
        raise DomainError("n must be a nonzero integer")
    gamma = complex(gamma)
    rho12 = 1 / (32j * PI * n) + branch * cmath.sqrt(gamma**2 - 1 / (32 * PI * n) ** 2)
    s1 = (gamma / rho12) * (complex(s2) - 0.5) + 2.0 * nprime / n
    return rho12, s1


def _verify_rho12_roots(gamma, n, s2, branch, nprime, spec):
    rho12, s1 = rho12_special_roots(gamma, n, branch, s2, nprime)
    return four_exponential_combination(gamma, rho12, s1, s2), 0.0


def _verify_mean_value(rho, s, spec):
    a = rho.array()
    r11, r22, r12 = a[0, 0], a[1, 1], a[0, 1]
    s1, s2 = complex(s[0]), complex(s[1])
    asum = r11 + r22 - 2 * r12
    if asum.real <= 0:
        raise DomainError("mean-value identity needs Re(rho11 + rho22 - 2 rho12) > 0")
    # window from the net decay of weight * inner transform, which is det/rho22
    net = (rho.det() / r22).real
    if net <= 0:
        raise DomainError("mean-value window needs Re(det/rho22) > 0")
    half = math.sqrt(41.5 / min(net, asum.real))
    center = ((s1 - s2) / 2 / (2 * asum)).real

    def node_sums(x):
        inner, _ = mellin_many(ThetaOperator.plain(), r22, s2 / 2 + 2 * (r22 - r12) * x, spec=spec)
        vals = np.exp(-asum * x**2 + (s1 - s2) / 2 * x) * inner
        return vals.sum(), np.abs(vals).max()

    outer = trapezoid(node_sums, center - half - 1, center + half + 1, abs((s1 - s2).imag) / 2,
                      spec or QuadSpec())
    arg = (s1 * r22 + s2 * r11 - (s1 + s2) * r12) / (2 * asum)
    rhs = (
        np.sqrt(PI / asum)
        * np.exp((s1 - s2) ** 2 / (16 * asum))
        * mellin(ThetaOperator.plain(), rho.det() / asum, arg, 0, spec).value
    )
    return outer.value, rhs


def _verify_result3d(rho, s, spec):
    # each pair of axes integrated out at its four corners leaves a 1D Xi over the Schur complement
    grp_c = 0j
    for pair in itertools.combinations(range(3), 2):
        rows, signs = _corners(s, pair)
        g, red, shifted = marginal(rho, pair, rows)
        grp_c += signs @ (g * _xi(red, 1 - shifted, spec)) / 4
    grp_red = sum(_flip_bracket(rho.flip_k(k), k, np.where(np.arange(3) == k, s, 1 - s), spec) for k in range(3))
    return _flip_difference(rho, s, spec), grp_c + grp_red - _corner_sum(rho, s)


def _verify_sixterm(rho, s, spec):
    s1, s2, s3 = (complex(v) for v in s)
    h = lambda *v: [(1 + x) / 2 for x in v]
    lhs = _xi(rho, h(s1, s2, s3), spec)
    # first route: flip axis 3; second route: flip axis 1 then axis 2
    rhs1 = _xi(rho.flip_k(2), h(s1, s2, -s3), spec) + _flip_bracket(rho, 2, h(s1, s2, s3), spec)
    rhs2 = (
        _xi(rho.flip_k(2), h(-s1, -s2, s3), spec)
        + _flip_bracket(rho, 0, h(s1, s2, s3), spec)
        + _flip_bracket(rho.flip_k(0), 1, h(-s1, s2, s3), spec)
    )
    # report the worse of the two displayed equalities
    worse = rhs1 if abs(lhs - rhs1) >= abs(lhs - rhs2) else rhs2
    return lhs, worse


def step4_matrix(rho, gamma, s) -> RhoMatrix:
    rho, gamma, s = complex(rho), complex(gamma), complex(s)
    return RhoMatrix.from_array([
        [rho + s**2 * gamma, s**2 * gamma, s * gamma],
        [s**2 * gamma, rho + s**2 * gamma, s * gamma],
        [s * gamma, s * gamma, gamma],
    ])


def _verify_rewrite_3d_a(rho, gamma, s, spec):
    mat = step4_matrix(rho, gamma, s)
    mat.require_convergent()
    half = [0.5, 0.5, 0.5]
    return _xi(mat, half, spec), _xi(mat.flip_k(2), half, spec)


def step7_matrix_and_args(rho, gamma, s):
    rho, gamma, s = complex(rho), complex(gamma), complex(s)
    den = rho + gamma * s**2
    mat = RhoMatrix.from_array([
        [(rho**2 + 2 * rho * gamma * s**2) / den, rho * gamma * s / den],
        [rho * gamma * s / den, rho * gamma / den],
    ])
    a_hi = (rho + 2 * gamma * s**2) / (2 * den)
    a_lo = rho / (2 * den)
    b_plus = (rho + gamma * s**2 + gamma * s) / (2 * den)
    b_minus = (rho + gamma * s**2 - gamma * s) / (2 * den)
    return mat, a_hi, a_lo, b_plus, b_minus


def _verify_rewrite_3d_b(rho, gamma, s, spec):
    mat, a_hi, a_lo, b_plus, b_minus = step7_matrix_and_args(rho, gamma, s)
    mat.require_convergent()
    flip = mat.flip_k(1)
    lhs = _xi(mat, [a_hi, b_plus], spec) - _xi(mat, [a_lo, b_minus], spec)
    rhs = _xi(flip, [a_hi, b_minus], spec) - _xi(flip, [a_lo, b_plus], spec)
    return lhs, rhs


def rewrite_2d_matrix_and_args(rho, alpha, s, n: int):
    rho, alpha, s = complex(rho), complex(alpha), complex(s)
    mat = RhoMatrix.from_array([[rho + alpha * s**2, alpha * s], [alpha * s, alpha]])
    a1 = (1 - 16j * PI * (1 + 2 * n) * alpha * s) / 2
    a2 = (1 - 16j * PI * (1 + 2 * n) * alpha) / 2
    b2 = (1 + 16j * PI * (1 + 2 * n) * alpha) / 2
    return mat, a1, a2, b2


def _verify_rewrite_2d(rho, alpha, s, n, spec):
    mat, a1, a2, b2 = rewrite_2d_matrix_and_args(rho, alpha, s, n)
    mat.require_convergent()
    # stated premise: Re(alpha s) < sqrt(Re alpha * Re(rho + alpha s^2)), taken on real parts
    a = mat.array()
    if (alpha * s).real >= math.sqrt(a[1, 1].real * a[0, 0].real):
        raise DomainError("premise Re(alpha s) < sqrt(Re alpha Re(rho + alpha s^2)) fails")
    return _xi(mat, [a1, a2], spec), _xi(mat.flip_k(1), [a1, b2], spec)


def _verify_mobius(rho, alpha, s, spec):
    mat = RhoMatrix.from_array([[rho + alpha * s**2, alpha * s], [alpha * s, alpha]])
    mat.require_convergent()
    flip = mat.flip_k(1)
    u = alpha / rho
    lhs = rhs = 0j
    for i in (0, 1):
        sgn = (-1.0) ** i
        c1 = (1 + sgn * u * s**2) / 2
        c2 = (1 + sgn * u * s) / 2
        c2f = (1 - sgn * u * s) / 2
        lhs += sgn * _xi(mat, [c1, c2], spec)
        rhs += sgn * _xi(flip, [c1, c2f], spec)
    return lhs, rhs


def _theta_at(op: ThetaOperator, t: float):
    """((op Psi)(t), (op Psi)(1/t), t^(-1/2)) at t > 0."""
    if t <= 0:
        raise DomainError("t must be positive")
    return apply_theta_op(op, t), apply_theta_op(op, 1.0 / t), 1.0 / math.sqrt(t)


def _verify_psi_inversion(t, spec):
    """Psi(t) = t^(-1/2) Psi(1/t) + (t^(-1/2) - 1)/2."""
    at, inv, r = _theta_at(ThetaOperator.plain(), t)
    return at, r * inv + (r - 1.0) / 2.0


def _verify_h4_inversion(t, spec):
    """(H4 Psi)(t) = -t^(-1/2) (H4 Psi)(1/t) - (t^(-1/2) + 1)/2."""
    at, inv, r = _theta_at(ThetaOperator.h(4.0), t)
    return at, -r * inv - (r + 1.0) / 2.0


def _verify_delta4_inversion(t, spec):
    """(D4 Psi)(t) = t^(-1/2) (D4 Psi)(1/t)."""
    at, inv, r = _theta_at(ThetaOperator.delta4(), t)
    return at, r * inv


def _verify_delta_inversion(t, alpha, spec):
    """(Da Psi)(t) = t^(-1/2) [(Da Psi)(1/t) + a(a-4)/4 ((H4 Psi)(1/t) + 1/2)]."""
    at, inv, r = _theta_at(ThetaOperator.delta(alpha), t)
    return at, r * (inv + alpha * (alpha - 4.0) / 4.0 * (apply_theta_op(ThetaOperator.h(4.0), 1.0 / t) + 0.5))


def _delta4_lower_terms(rho: complex, s: complex, spec) -> complex:
    """M[(Delta_4 Psi) e](s/2) - (4s(s-1) - 32 rho) Xi - 32 rho (1-2s) Xi', which the
    second-order identification equates with (16 rho)^2 Xi''."""
    return (
        mellin_delta4(rho, s, spec).value
        - (4 * s * (s - 1) - 32 * rho) * xi(rho, s, spec).value
        - 32 * rho * (1 - 2 * s) * xi_ds(rho, s, 1, spec).value
    )


def _verify_delta4_identity(rho, s, spec):
    """M[(Delta_4 Psi) e](s/2) = (4s(s-1) - 32 rho) Xi + 32 rho (1-2s) Xi' + (16 rho)^2 Xi''."""
    return _delta4_lower_terms(rho, s, spec), (16 * rho) ** 2 * xi_ds(rho, s, 2, spec).value


def _verify_heat(rho, s, spec):
    """d_rho Xi = -4 d^2_s Xi: the ln^2 log moment against d^2_s Xi from the Delta_4 identification."""
    return d_rho_xi(rho, s, spec).value, -(4 * _delta4_lower_terms(rho, s, spec) / (16 * rho) ** 2)


def _verify_tilde_moment(rho, s, spec):
    """Xi~_rho(s) = (1 - 2s) Xi_rho(s) + 16 rho d_s Xi_rho(s): the H_4 kernel against two moments."""
    rhs = (1 - 2 * s) * xi(rho, s, spec).value + 16 * rho * xi_ds(rho, s, 1, spec).value
    return xi_tilde(rho, s, spec).value, rhs


def _verify_jensen_flip(rho, s, k, spec):
    """xi(rho, s) = xi(flip_k rho, s_k -> 1 - s_k) for the Jensen kernel: Delta_4 Psi has no boundary term."""
    s_flip = s.copy()
    s_flip[k] = 1 - s_flip[k]
    return jensen_xi_d(rho, s, spec).value, jensen_xi_d(rho.flip_k(k), s_flip, spec).value


def _w(rho, alpha, s, spec) -> complex:
    """W(s) = e^{q(s)} Xi_rho(s), q(s) = (-s^2 + (4/alpha) s)/16rho, the transported Xi."""
    return cmath.exp(_q(rho, alpha, s)) * xi(rho, s, spec).value


def _h_segment(rho, alpha, z, s, spec):
    """int_z^s e^{q(t)} M[(H_alpha Psi) e](t/2) dt, the first-order law's integral."""
    return segment_weighted_mellin(ThetaOperator.h(alpha), rho, z, s, lambda t: np.exp(_q(rho, alpha, t)), spec).value


def _verify_fde1(rho, alpha, z, s, spec):
    """4 alpha rho (W(s) - W(z)) = int_z^s e^q M[(H_alpha Psi) e](t/2) dt."""
    return _w(rho, alpha, s, spec), _w(rho, alpha, z, spec) + _h_segment(rho, alpha, z, s, spec) / (4 * alpha * rho)


def _verify_fde1_reflected(rho, alpha, z, s, spec):
    """fde1 with its integral reflected onto 1-z .. 1-s at the operator index alpha/(alpha/2 - 1),
    plus a closed boundary term; alpha = 2 degenerates the index."""
    if alpha == 2:
        raise DegenerateParameterError("alpha = 2 degenerates the reflected operator index")
    alpha_t = alpha / (alpha / 2 - 1)
    boundary = lambda x: (cmath.sqrt(PI / rho) / 2) * (
        cmath.exp((1 - (4 / alpha) * (alpha / 2 - 1) * x) / (16 * rho)) - cmath.exp((4 / alpha) * x / (16 * rho)))
    seg = _h_segment(rho, alpha_t, 1 - z, 1 - s, spec)
    rhs = (_w(rho, alpha, z, spec) + boundary(s) - boundary(z)
           + cmath.exp((4 / alpha - 1) / (16 * rho)) * (alpha / 2 - 1) / (4 * alpha * rho) * seg)
    return _w(rho, alpha, s, spec), rhs


def _verify_halpha_vanishing(rho, alpha, z, z_prime, spec):
    """int_z^{z'} e^q M[(H_alpha Psi) e](t/2) dt = 0 where W(z) = W(z')."""
    return _h_segment(rho, alpha, z, z_prime, spec), 0.0


def _verify_second_order(rho, alpha, s, spec):
    """((4 alpha rho)^2 d^2/ds^2 - id) W = e^q M[(Delta_alpha Psi) e](s/2), with e^q cancelled
    and the derivatives expanded analytically onto log-moment kernels."""
    c = 4 * alpha * rho
    qp = (-2 * s + 4 / alpha) / (16 * rho)
    qpp = -1 / (8 * rho)
    xi0 = xi(rho, s, spec).value
    m1 = mellin(ThetaOperator.plain(), rho, s / 2, 1, spec).value / 2
    m2 = mellin(ThetaOperator.plain(), rho, s / 2, 2, spec).value / 4
    lhs = (c * c * (qpp + qp * qp) - 1) * xi0 + 2 * c * c * qp * m1 + c * c * m2
    return lhs, mellin(ThetaOperator.delta(alpha), rho, s / 2, 0, spec).value


def _verify_vop_reconstruction(rho, alpha, beta, z, s, spec):
    """A sinh((b1-s)/c) + B cosh((b2-s)/c) + (1/c) int_z^s sinh((s-t)/c) e^q M[(Delta_alpha Psi) e](t/2) dt
    = W(s), c = 4 alpha rho, with A, B the variation-of-parameters coefficients at z."""
    c = 4 * alpha * rho
    co = vop_coefficients(rho, alpha, beta, z, spec)
    seg = segment_weighted_mellin(ThetaOperator.delta(alpha), rho, z, s,
                                  lambda t: np.sinh((s - t) / c) * np.exp(_q(rho, alpha, t)), spec)
    total = co.A * cmath.sinh((co.beta[0] - s) / c) + co.B * cmath.cosh((co.beta[1] - s) / c) + seg.value / c
    return total, _w(rho, alpha, s, spec)


def _verify_vop_constraint(rho, beta, spec):
    """A (e^{(b1-1)/16rho} + e^{-b1/16rho}) + B (e^{(b2-1)/16rho} - e^{-b2/16rho}) = sqrt(pi/rho) at
    alpha = 4, z = 1/2: the telescope identity closing the coefficients."""
    co = vop_coefficients(rho, 4.0, beta, 0.5, spec)
    b1, b2 = co.beta
    lhs = (co.A * (cmath.exp((b1 - 1) / (16 * rho)) + cmath.exp(-b1 / (16 * rho)))
           + co.B * (cmath.exp((b2 - 1) / (16 * rho)) - cmath.exp(-b2 / (16 * rho))))
    return lhs, cmath.sqrt(PI / rho)


def _verify_chi_transform(rho, phi, alpha, s, z, spec):
    """The reflection law of chi sending (phi, s, z) to (2 - phi, 1 - s, 1 - z)."""
    lhs = _chi_segment(ThetaOperator.delta(alpha), rho, phi, s, z, spec)
    main = _chi_segment(ThetaOperator.delta(alpha), rho, 2 - phi, 1 - s, 1 - z, spec)
    h4_int = _chi_segment(ThetaOperator.h(4.0), rho, 2 - phi, 1 - s, 1 - z, spec)
    if phi == 2:
        bracket = (1 - s) - (1 - z)
    else:
        bracket = (16 * rho / (2 - phi)) * (
            cmath.exp((2 - phi) * (1 - s) / (16 * rho)) - cmath.exp((2 - phi) * (1 - z) / (16 * rho)))
    rhs = -cmath.exp((phi - 1) / (16 * rho)) * (
        main + (alpha * (alpha - 4) / 4) * (h4_int + cmath.sqrt(PI / rho) / 2 * bracket))
    return lhs, rhs


def _verify_canonical(rho, s, spec):
    """W(s) at alpha = 4 from its canonical sinh/cosh/Delta_4-integral decomposition."""
    dec = canonical_decomposition(rho, s, spec)
    return dec.total, _w(rho, 4.0, s, spec)


def _verify_tilde(rho, s, spec):
    """e^q Xi~_rho(s) at alpha = 4 from the tilde decomposition (cosh kernel)."""
    dec = tilde_decomposition(rho, s, spec)
    return dec.total, cmath.exp(_q(rho, 4.0, s)) * xi_tilde(rho, s, spec).value


def _verify_iterated_expansion(rho, s, n, spec):
    """W(s) = sinh coeff sinh(u) + e^{1/64rho} sum_{i<n} M[(Delta_4^i Psi) e](1/4) P^i(s)/(16rho)^i
    + I^n(s)/(16rho)^n at alpha = 4, u = (1/2 - s)/16rho."""
    total = canonical_sinh_coeff(rho) * cmath.sinh((0.5 - s) / (16 * rho))
    weight = cmath.exp(1 / (64 * rho))
    for i in range(n):
        m_val = mellin(ThetaOperator.delta4_power(i), rho, 0.25, 0, spec).value
        total += weight * m_val * iterated_P(rho, i, s) / (16 * rho) ** i
    total += iterated_I(rho, n, s, spec) / (16 * rho) ** n
    return _w(rho, 4.0, s, spec), total


def _nonzero(alpha) -> complex:
    alpha = complex(alpha)
    if alpha == 0:
        raise DomainError("alpha must be nonzero")
    return alpha


_REWRITE_3D = {"rho": complex, "gamma": complex, "s": complex}
_TRANSPORT = {"rho": _check_rho, "alpha": _nonzero, "z": complex, "s": complex}

IDENTITIES: dict[str, Identity] = {
    "telescope": Identity(_verify_telescope, 1e-9, "scalar", index="m"),
    "sk_flip": Identity(_verify_sk_flip, 1e-6, "matrix", index="k"),
    "fun1": Identity(_verify_fun1, 1e-6, "matrix", d=2),
    "fun11": Identity(_verify_fun11, 1e-6, "matrix", d=2),
    "funcor1": Identity(_verify_funcor1, 1e-7, "equal_diagonal"),
    "funcor2": Identity(_verify_funcor2, 1e-7, "equal_diagonal"),
    "rho12_roots": Identity(_verify_rho12_roots, 1e-10, "extras", extras={
        "gamma": complex, "n": int, "s2": complex, "branch": 1, "nprime": 0}),
    "mean_value": Identity(_verify_mean_value, 1e-7, "matrix", d=2),
    "result3d": Identity(_verify_result3d, 1e-5, "matrix", d=3),
    "sixterm": Identity(_verify_sixterm, 1e-5, "matrix", d=3),
    "rewrite_3d_a": Identity(_verify_rewrite_3d_a, 1e-5, "extras", extras=_REWRITE_3D),
    "rewrite_3d_b": Identity(_verify_rewrite_3d_b, 1e-4, "extras", extras=_REWRITE_3D),
    "rewrite_2d": Identity(_verify_rewrite_2d, 1e-6, "extras", extras={
        "rho": complex, "alpha": complex, "s": complex, "n": 0}),
    "mobius_rewrite": Identity(_verify_mobius, 1e-6, "extras", extras={
        "rho": complex, "alpha": complex, "s": complex}),
    "psi_inversion": Identity(_verify_psi_inversion, 1e-12, "extras", extras={"t": float}),
    "h4_inversion": Identity(_verify_h4_inversion, 1e-12, "extras", extras={"t": float}),
    "delta4_inversion": Identity(_verify_delta4_inversion, 1e-12, "extras", extras={"t": float}),
    "delta_inversion": Identity(_verify_delta_inversion, 1e-10, "extras", extras={"t": float, "alpha": complex}),
    "delta4_identity": Identity(_verify_delta4_identity, 1e-8, "scalar"),
    "heat": Identity(_verify_heat, 1e-12, "scalar"),
    "tilde_moment": Identity(_verify_tilde_moment, 1e-9, "scalar"),
    "jensen_flip": Identity(_verify_jensen_flip, 1e-8, "matrix", index="k"),
    "fde1": Identity(_verify_fde1, 1e-8, "extras", extras=_TRANSPORT),
    "fde1_reflected": Identity(_verify_fde1_reflected, 1e-8, "extras", extras=_TRANSPORT),
    "halpha_vanishing": Identity(_verify_halpha_vanishing, 1e-8, "extras", extras={
        "rho": _check_rho, "alpha": _nonzero, "z": complex, "z_prime": complex}),
    "second_order": Identity(_verify_second_order, 1e-8, "extras", extras={
        "rho": _check_rho, "alpha": _nonzero, "s": complex}),
    "vop_reconstruction": Identity(_verify_vop_reconstruction, 1e-8, "extras", extras={
        "rho": _check_rho, "alpha": _nonzero, "beta": tuple, "z": complex, "s": complex}),
    "vop_constraint": Identity(_verify_vop_constraint, 1e-9, "extras", extras={"rho": _check_rho, "beta": tuple}),
    "chi_transform": Identity(_verify_chi_transform, 1e-7, "extras", extras={
        "rho": _check_rho, "phi": complex, "alpha": complex, "s": complex, "z": complex}),
    "canonical": Identity(_verify_canonical, 1e-9, "scalar"),
    "tilde": Identity(_verify_tilde, 1e-8, "scalar"),
    "iterated_expansion": Identity(_verify_iterated_expansion, 1e-7, "scalar", index="n"),
}


def _inputs(ident: IdentityId, entry: Identity, rho, s, extras: dict) -> dict:
    """The check's keyword inputs, normalised and validated against the entry's shape."""
    kind, out = ident.kind, {}
    if entry.index:
        out[entry.index] = int(extras.pop(entry.index, 0) if ident.index is None else ident.index)
    unknown = set(extras) - set(entry.extras)
    if unknown:
        raise DomainError(f"{kind} takes no extras {sorted(unknown)}")
    if entry.inputs == "extras":
        for name, decl in entry.extras.items():
            if callable(decl) and name not in extras:
                raise DomainError(f"{kind} needs the extra {name!r}")
            out[name] = (decl if callable(decl) else type(decl))(extras.get(name, decl))
        return out
    if rho is None or s is None:
        raise DomainError(f"{kind} needs rho and s")
    if entry.inputs == "scalar":
        return {"rho": _check_rho(rho), "s": complex(s), **out}
    rho = _as_rho(rho)
    d = 2 if entry.inputs == "equal_diagonal" else entry.d
    if d is not None and rho.d != d:
        raise DomainError(f"{kind} is a d={d} identity")
    if entry.inputs == "equal_diagonal":
        if rho.entries[0][0] != rho.entries[1][1]:
            raise DomainError(f"{kind} needs a symmetric 2x2 matrix with rho11 = rho22")
        s = complex(s)
    else:
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        if s.shape != (rho.d,):
            raise DomainError(f"{kind} needs an s vector of length {rho.d}, got shape {s.shape}")
        if entry.index and not 0 <= out[entry.index] < rho.d:
            raise DomainError(f"{kind} needs 0 <= {entry.index} < d = {rho.d}")
    rho.require_convergent()
    return {"rho": rho, "s": s, **out}


def _json(value):
    """An input as JSON numbers: complex as [re, im], vectors and matrices as lists."""
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    z = np.asarray(value.array() if isinstance(value, RhoMatrix) else value, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).tolist()


def verify(identity, rho=None, s=None, extras=None, tol=None, spec=None) -> VerificationReport:
    """Evaluate both sides of a named identity and build the report.

    The inputs are checked against the identity's `IDENTITIES` entry (DomainError on
    a wrong shape); the report's params hold them normalised, as JSON numbers, and its
    id names the index the check ran with.  `evaluations` is the count of Mellin
    transforms that `xi_core` made while the check ran.
    """
    ident = identity if isinstance(identity, IdentityId) else IdentityId(identity)
    entry = IDENTITIES[ident.kind]
    inputs = _inputs(ident, entry, rho, s, dict(extras or {}))
    if entry.index:
        ident = IdentityId(ident.kind, inputs[entry.index])
    tally = [0]
    token = _TRANSFORMS.set(tally)
    try:
        lhs, rhs = entry.check(**inputs, spec=spec)
    finally:
        _TRANSFORMS.reset(token)
    params = {name: _json(value) for name, value in inputs.items()}
    return _report(ident, params, lhs, rhs, entry.tol if tol is None else tol, tally[0])


# ---------------------------------------------------------------------------
# closed-form root families


def candidate_zeros(family: str, rho, k_range, m: int = 0, branch: int = 1):
    """Closed-form roots: telescope / tilde ladders, funcor1 / funcor2 log-branches."""
    ks = list(k_range)
    if family in ("telescope", "tilde") and m < 0:
        raise DomainError(f"the {family} family needs m >= 0, got {m}")
    if family == "telescope":
        rho = complex(rho)
        return [(1 - m) / 2 + 16 * rho * PI * 1j * k / (1 + m) for k in ks]
    if family == "tilde":
        rho = complex(rho)
        return [(1 - m) / 2 + 16 * rho * PI * 1j * (-0.5 + k / (1 + m)) for k in ks]
    if family in ("funcor1", "funcor2"):
        a = _as_rho(rho).array()
        r11, r12 = a[0, 0], a[0, 1]
        det = r11 * r11 - r12 * r12
        sign = -1.0 if family == "funcor1" else 1.0
        denom = r11 - r12 if family == "funcor1" else r11 + r12
        if denom == 0:
            raise DegenerateParameterError("rho11 = -+rho12 degenerates the root family")
        inner = 1 - cmath.exp(sign * r12 / (8 * det))
        sqrt_inner = cmath.sqrt(inner)
        if 1 + branch * sqrt_inner == 0:
            raise DegenerateParameterError("log branch argument vanishes")
        log_term = cmath.log(1 + branch * sqrt_inner)
        base = 0.5 + sign * r12 / (2 * denom)
        return [base - 8 * det / denom * (2j * PI * k + log_term) for k in ks]
    raise DomainError(f"unknown zero family {family!r}")


def zero_scan(f, anchor, direction, length, grid: int, refine_tol: float = 1e-10):
    """Bracket sign changes of the real-valued reduction of f along a ray and refine them.

    f maps an array of points anchor + u * direction, u in [0, length], to an array of
    values whose real parts are the symmetry-reduced real quantity.  The `grid`
    bracketing points are evaluated in one call; each bracket is then refined one point
    per call by Illinois regula falsi until it is no wider than refine_tol or f vanishes
    (`_refine`).  Returns one point in the complex plane per sign change, inside its
    final bracket; empty list when no sign change is found.  A non-finite value of f
    raises DomainError naming the point: no sign change can be read from it.
    """
    anchor, direction = complex(anchor), complex(direction)

    def reduced(points):
        vals = np.real(f(points))
        bad = ~np.isfinite(vals)
        if bad.any():
            raise DomainError(f"zero_scan: f is not finite at {complex(points[bad][0])}")
        return vals

    us = np.linspace(0.0, float(length), int(grid))
    vals = reduced(anchor + us * direction)
    at = lambda u: float(reduced(np.array([anchor + u * direction]))[0])
    roots = []
    for i in range(len(us) - 1):
        if vals[i] == 0.0:
            roots.append(anchor + us[i] * direction)
        elif vals[i] * vals[i + 1] < 0.0:
            u = _refine(at, us[i], us[i + 1], vals[i], vals[i + 1], refine_tol / abs(direction))
            roots.append(anchor + u * direction)
    return roots


def _refine(g, a, b, fa, fb, width_tol):
    """A sign change of g in [a, b], fa = g(a) and fb = g(b) of opposite signs, by
    Illinois regula falsi: the secant step keeps the bracket, and an end kept twice in
    a row has its weight halved so that the other end moves too.  A secant step stays
    width_tol / 2 inside the bracket, so an iterate stalled at the rounding floor of g
    still steps across the root.  Once the evaluations left would not cover bisecting
    down to width_tol, every step bisects, so at most twice bisection's count is spent.
    Stops when the bracket is no wider than width_tol or g vanishes; returns the secant
    point of the final bracket."""
    wa = wb = 1.0
    moved = None
    budget = 2 * math.ceil(math.log2((b - a) / width_tol))
    while b - a > width_tol:
        if b - a > width_tol * 2.0 ** (budget - 1):
            x = (a + b) / 2
        else:
            x = a - wa * fa * (b - a) / (wb * fb - wa * fa)
            x = min(max(x, a + width_tol / 2), b - width_tol / 2)
        budget -= 1
        fx = g(x)
        if (fx < 0.0) == (fa < 0.0):
            a, fa, wa, wb = x, fx, 1.0, wb / 2 if moved == "a" else wb
            moved = "a"
        else:
            b, fb, wb, wa = x, fx, 1.0, wa / 2 if moved == "b" else wa
            moved = "b"
        if fx == 0.0:
            break
    return a - fa * (b - a) / (fb - fa)


def critical_sum_rescaled(rho, spec=None):
    """y -> [Xi_rho((1+iy)/2) + Xi_rho((1-iy)/2)] e^{y^2/64rho}: O(1) on the scan line.

    Roots of the sum factor of Xi^2((1+s)/2) - Xi^2((1-s)/2) on s = iy, with the
    Gaussian decay removed so the refinement stays well conditioned.  y is a scalar or
    an array, evaluated in one batched transform; a scalar gives a scalar.
    """
    rho = float(rho)

    def f(y):
        ys = np.atleast_1d(np.real(y))
        vals, _ = mellin_many(ThetaOperator.plain(), rho, (0.5 + 0.5j * ys) / 2, 0, spec)
        out = 2.0 * vals.real * np.exp(ys * ys / (64 * rho))
        return out if np.ndim(y) else float(out[0])

    return f


def sample_convergent_rho(seed: int, d: int, imag_scale: float = 0.1) -> RhoMatrix:
    """Deterministic random draw satisfying the convergence inequalities."""
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        base = rng.normal(size=(d, d))
        sym = 0.25 * (base + base.T) / 2 + np.diag(rng.uniform(0.6, 1.5, size=d))
        im = imag_scale * (lambda b: (b + b.T) / 2)(rng.normal(size=(d, d)))
        np.fill_diagonal(im, 0.0)
        rho = RhoMatrix.from_array(sym + 1j * im)
        if rho.convergence_ok():
            return rho
    raise DomainError("failed to draw a convergent rho")
