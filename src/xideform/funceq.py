"""Catalog of the named functional equations, each as an LHS/RHS verification.

Every identity evaluates both sides independently (multidimensional quadrature on
one side, lower-dimensional values plus Gaussian closed forms on the other) and
returns a VerificationReport.  Root families (telescope, tilde, funcor, the special
rho_12 locus) are generated in closed form and confirmed by quadrature.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateParameterError, DomainError
from .gaussmat import RhoMatrix, closed_form_e
from .quadrature import QuadSpec, trapezoid
from .theta import ThetaOperator
from .xi_core import mellin, MellinKernel, mellin_many, telescope_rhs, xi, xi_sum_m
from .xi_multi import MultiXiParams, xi_d

PI = math.pi


@dataclass(frozen=True)
class Identity:
    """One catalog entry: the check, its default tolerance, input shape and index.

    `inputs`, normalised and validated by `verify` before the check runs, is "scalar"
    (complex rho and s), "matrix" (a d x d RhoMatrix, d = `d` or any when None, and an
    s vector of length d), "equal_diagonal" (a 2 x 2 RhoMatrix with rho11 = rho22 and a
    complex s) or "extras" (the named `extras` alone, each declared by its type when
    required or by its default).  `index` names the IdentityId index, also read from
    extras.  The check takes the inputs and spec as keywords, returns (lhs, rhs, evaluations).
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

    def params_hash(self) -> str:
        blob = json.dumps(self.params, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def csv_row(self) -> list:
        return [self.id, self.params_hash(), repr(self.abs_residual), repr(self.rel_residual),
                "true" if self.passed else "false"]


def write_reports(reports, path, fmt="json"):
    """Serialize reports: one JSON record per line, or CSV summary rows."""
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            for r in reports:
                fh.write(json.dumps(r.to_dict()) + "\n")
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "params_hash", "abs_residual", "rel_residual", "pass"])
            for r in reports:
                writer.writerow(r.csv_row())
    else:
        raise DomainError(f"unknown format {fmt!r}")


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


def _xi2(rho2: RhoMatrix, s, spec) -> complex:
    return xi_d(MultiXiParams(rho2, tuple(complex(v) for v in s), "theta"), spec).value


# ---------------------------------------------------------------------------
# individual identities


def _flip_difference(rho: RhoMatrix, s, spec) -> complex:
    """Xi(rho, s) - Xi(rho, 1 - s), the left side of the all-axes functional equations."""
    return (
        xi_d(MultiXiParams.make(rho, s), spec).value
        - xi_d(MultiXiParams.make(rho, [1 - v for v in s]), spec).value
    )


def _reduced_pair(r, det, x, arg_shifted, arg, spec) -> complex:
    """sqrt(pi)/(2 sqrt r) [e^{(x-1)^2/16r} Xi_{det/r}(arg_shifted) - e^{x^2/16r} Xi_{det/r}(arg)]:
    one axis of a 2D Gaussian integrated out at the two shifts x - 1 and x."""
    return (np.sqrt(PI) / (2 * np.sqrt(r))) * (
        np.exp((x - 1) ** 2 / (16 * r)) * xi(det / r, arg_shifted, spec).value
        - np.exp(x**2 / (16 * r)) * xi(det / r, arg, spec).value
    )


def _verify_telescope(rho, s, m, spec):
    lhs = xi_sum_m(rho, s, m, spec).value - xi_sum_m(rho, 1 - m - s, m, spec).value
    return lhs, telescope_rhs(rho, s, m), 2 * (m + 1)


def _verify_sk_flip(rho, s, k, spec):
    d = rho.d
    a = rho.array()
    lhs = xi_d(MultiXiParams.make(rho, s), spec).value if d > 1 else xi(a[0, 0], s[0], spec).value
    s_flip = s.copy()
    s_flip[k] = 1 - s_flip[k]
    main = (
        xi_d(MultiXiParams.make(rho.flip_k(k), s_flip), spec).value
        if d > 1 else xi(a[0, 0], s_flip[0], spec).value
    )
    rkk = a[k, k]
    pref = np.sqrt(np.pi / rkk) / 2

    def reduced_xi(shift):
        if d == 1:
            return 1.0
        args = [s[i] - shift * a[i, k] / rkk for i in range(d) if i != k]
        red = rho.reduce_k(k)
        if d == 2:
            return xi(red.array()[0, 0], args[0], spec).value
        return _xi2(red, args, spec)

    rhs = main + pref * (
        np.exp((s[k] - 1) ** 2 / (16 * rkk)) * reduced_xi(s[k] - 1)
        - np.exp(s[k] ** 2 / (16 * rkk)) * reduced_xi(s[k])
    )
    return lhs, rhs, 2 * d + 2


def _fun_groups(a, det, s1, s2, spec):
    """The two reduced-Xi brackets shared by the 2D functional equations."""
    r11, r22, r12 = a[0, 0], a[1, 1], a[0, 1]
    g22 = _reduced_pair(r22, det, s2, 1 - s1 - (r12 / r22) * (1 - s2), 1 - s1 + (r12 / r22) * s2, spec)
    g11 = _reduced_pair(r11, det, s1, 1 - s2 - (r12 / r11) * (1 - s1), 1 - s2 + (r12 / r11) * s1, spec)
    return g11, g22


def _verify_fun1(rho, s, spec):
    a = rho.array()
    s1, s2 = complex(s[0]), complex(s[1])
    det = rho.det()
    lhs = _flip_difference(rho, [s1, s2], spec)
    r11, r22, r12 = a[0, 0], a[1, 1], a[0, 1]
    pref = PI * np.exp((r22 * s1**2 + r11 * s2**2 - 2 * r12 * s1 * s2) / (16 * det)) / (4 * np.sqrt(det))
    bracket = (
        1
        + np.exp((r11 + r22 - 2 * r12 - 2 * r22 * s1 - 2 * r11 * s2 + 2 * r12 * (s1 + s2)) / (16 * det))
        - np.exp((r22 - 2 * r22 * s1 + 2 * r12 * s2) / (16 * det))
        - np.exp((r11 - 2 * r11 * s2 + 2 * r12 * s1) / (16 * det))
    )
    g11, g22 = _fun_groups(a, det, s1, s2, spec)
    return lhs, pref * bracket + g22 + g11, 6


def _verify_fun11(rho, s, spec):
    a = rho.array()
    s1, s2 = complex(s[0]), complex(s[1])
    det = rho.det()
    lhs = _flip_difference(rho, [s1, s2], spec)
    r11, r12 = a[0, 0], a[0, 1]
    f11 = _reduced_pair(r11, det, s1, s2 + (r12 / r11) * (1 - s1), s2 - (r12 / r11) * s1, spec)
    _, g22 = _fun_groups(a, det, s1, s2, spec)
    return lhs, f11 + g22, 6


def _verify_funcor1(rho, s, spec):
    a = rho.array()
    det = rho.det()
    r11, r12 = a[0, 0], a[0, 1]
    lhs = _flip_difference(rho, [s, s], spec)
    rhs = 2 * _reduced_pair(r11, det, s, 1 - s - (r12 / r11) * (1 - s), 1 - s + (r12 / r11) * s, spec)
    return lhs, rhs, 4


def _verify_funcor2(rho, s, spec):
    a = rho.array()
    det = rho.det()
    r11, r12 = a[0, 0], a[0, 1]
    dr = det / r11
    lhs = (
        np.exp(s**2 / (16 * r11)) * xi(dr, 1 - s - (r12 / r11) * s, spec).value
        - np.exp((1 - s) ** 2 / (16 * r11)) * xi(dr, 1 - s + (r12 / r11) * (1 - s), spec).value
        + np.exp((s - 1) ** 2 / (16 * r11)) * xi(dr, s - (r12 / r11) * (1 - s), spec).value
        - np.exp(s**2 / (16 * r11)) * xi(dr, s + (r12 / r11) * s, spec).value
    )
    return lhs, 0.0, 4


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
    return four_exponential_combination(gamma, rho12, s1, s2), 0.0, 0


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

    lhs = trapezoid(node_sums, center - half - 1, center + half + 1, abs((s1 - s2).imag) / 2,
                    spec or QuadSpec()).value
    arg = (s1 * r22 + s2 * r11 - (s1 + s2) * r12) / (2 * asum)
    rhs = (
        np.sqrt(PI / asum)
        * np.exp((s1 - s2) ** 2 / (16 * asum))
        * mellin(MellinKernel(ThetaOperator.plain(), 0, rho.det() / asum, arg), spec).value
    )
    return lhs, rhs, 2


_PAIR_FOR_K = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def _c_term(rho: RhoMatrix, k: int, x, y, z, spec) -> complex:
    """Closed 2D reduction times a 1D Xi; the minor shift enters with + sign."""
    a = rho.array()
    i, j = _PAIR_FOR_K[k]
    rij = rho.minor_R(i, j)
    tkij = rho.minor_T(k, i, j)
    tkji = rho.minor_T(k, j, i)
    pref = np.exp((a[j, j] * x**2 + a[i, i] * y**2 - 2 * a[i, j] * x * y) / (16 * rij)) / np.sqrt(rij)
    return pref * xi(rho.det() / rij, 1 - z + (x * tkij + y * tkji) / rij, spec).value


def _verify_result3d(rho, s, spec):
    a = rho.array()
    s1, s2, s3 = (complex(v) for v in s)
    lhs = _flip_difference(rho, [s1, s2, s3], spec)
    e = lambda p, q, r: closed_form_e(rho, [p, q, r])
    grp_exp = (1.0 / 8.0) * (
        e(s1, s2 - 1, s3) - e(s1 - 1, s2, s3 - 1) + e(s1 - 1, s2, s3) - e(s1 - 1, s2 - 1, s3)
        + e(s1 - 1, s2 - 1, s3 - 1) - e(s1, s2, s3) + e(s1, s2, s3 - 1) - e(s1, s2 - 1, s3 - 1)
    )
    C = lambda k, x, y, z: _c_term(rho, k, x, y, z, spec)
    grp_c = (PI / 4.0) * (
        C(2, s1, s2, s3) - C(2, s1, s2 - 1, s3) + C(2, s1 - 1, s2 - 1, s3) - C(2, s1 - 1, s2, s3)
        + C(1, s1, s3, s2) - C(1, s1, s3 - 1, s2) + C(1, s1 - 1, s3 - 1, s2) - C(1, s1 - 1, s3, s2)
        + C(0, s2, s3, s1) - C(0, s2, s3 - 1, s1) + C(0, s2 - 1, s3 - 1, s1) - C(0, s2 - 1, s3, s1)
    )
    grp_red = 0j
    svec = [s1, s2, s3]
    for k in range(3):
        rkk = a[k, k]
        red = rho.reduce_k(k)
        others = [i for i in range(3) if i != k]
        for shift, sign in ((svec[k] - 1, 1.0), (svec[k], -1.0)):
            args = [1 - svec[i] + shift * a[i, k] / rkk for i in others]
            grp_red += sign * np.exp(shift**2 / (16 * rkk)) / np.sqrt(rkk) * _xi2(red, args, spec)
    grp_red *= np.sqrt(PI) / 2.0
    return lhs, grp_exp + grp_c + grp_red, 20


def _verify_sixterm(rho, s, spec):
    s1, s2, s3 = (complex(v) for v in s)
    h = lambda v: (1 + v) / 2
    lhs = xi_d(MultiXiParams.make(rho, [h(s1), h(s2), h(s3)]), spec).value

    def bracket(mat, k, sk, xs):
        """Axis k of mat integrated out: the reduced 2D pair at the shifts 1 - sk and
        -(1 + sk), xs being the arguments of the other two axes."""
        b = mat.array()
        rkk = b[k, k]
        col = [b[i, k] for i in range(3) if i != k]
        pref = (np.sqrt(PI) / 2) * np.exp((1 + sk**2) / (64 * rkk)) / np.sqrt(rkk)
        plus = np.exp(-sk / (32 * rkk))
        minus = np.exp(sk / (32 * rkk))
        args_p = [h(x + (1 - sk) * c / rkk) for x, c in zip(xs, col)]
        args_m = [h(x - (1 + sk) * c / rkk) for x, c in zip(xs, col)]
        red = mat.reduce_k(k)
        return pref * (plus * _xi2(red, args_p, spec) - minus * _xi2(red, args_m, spec))

    # first route: flip axis 3; second route: flip axis 1 then axis 2
    rhs1 = xi_d(MultiXiParams.make(rho.flip_k(2), [h(s1), h(s2), h(-s3)]), spec).value + bracket(
        rho, 2, s3, [s1, s2])
    rhs2 = (
        xi_d(MultiXiParams.make(rho.flip_k(2), [h(-s1), h(-s2), h(s3)]), spec).value
        + bracket(rho, 0, s1, [s2, s3])
        + bracket(rho.flip_k(0), 1, s2, [-s1, s3])
    )
    # report the worse of the two displayed equalities
    worse = rhs1 if abs(lhs - rhs1) >= abs(lhs - rhs2) else rhs2
    return lhs, worse, 9


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
    lhs = xi_d(MultiXiParams.make(mat, half), spec).value
    rhs = xi_d(MultiXiParams.make(mat.flip_k(2), half), spec).value
    return lhs, rhs, 2


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
    lhs = (
        xi_d(MultiXiParams.make(mat, [a_hi, b_plus]), spec).value
        - xi_d(MultiXiParams.make(mat, [a_lo, b_minus]), spec).value
    )
    rhs = (
        xi_d(MultiXiParams.make(flip, [a_hi, b_minus]), spec).value
        - xi_d(MultiXiParams.make(flip, [a_lo, b_plus]), spec).value
    )
    return lhs, rhs, 4


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
    lhs = xi_d(MultiXiParams.make(mat, [a1, a2]), spec).value
    rhs = xi_d(MultiXiParams.make(mat.flip_k(1), [a1, b2]), spec).value
    return lhs, rhs, 2


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
        lhs += sgn * xi_d(MultiXiParams.make(mat, [c1, c2]), spec).value
        rhs += sgn * xi_d(MultiXiParams.make(flip, [c1, c2f]), spec).value
    return lhs, rhs, 4


_REWRITE_3D = {"rho": complex, "gamma": complex, "s": complex}

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
            if isinstance(decl, type) and name not in extras:
                raise DomainError(f"{kind} needs the extra {name!r}")
            out[name] = (decl if isinstance(decl, type) else type(decl))(extras.get(name, decl))
        return out
    if rho is None or s is None:
        raise DomainError(f"{kind} needs rho and s")
    if entry.inputs == "scalar":
        return {"rho": complex(rho), "s": complex(s), **out}
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
    if isinstance(value, int):
        return value
    z = np.asarray(value.array() if isinstance(value, RhoMatrix) else value, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).tolist()


def verify(identity, rho=None, s=None, extras=None, tol=None, spec=None) -> VerificationReport:
    """Evaluate both sides of a named identity and build the report.

    The inputs are checked against the identity's `IDENTITIES` entry (DomainError on
    a wrong shape); the report's params hold them normalised, as JSON numbers.
    """
    ident = identity if isinstance(identity, IdentityId) else IdentityId(identity)
    entry = IDENTITIES[ident.kind]
    inputs = _inputs(ident, entry, rho, s, dict(extras or {}))
    lhs, rhs, evals = entry.check(**inputs, spec=spec)
    params = {name: _json(value) for name, value in inputs.items()}
    return _report(ident, params, lhs, rhs, entry.tol if tol is None else tol, evals)


# ---------------------------------------------------------------------------
# closed-form root families


def candidate_zeros(family: str, rho, k_range, m: int = 0, rho_mat=None, branch: int = 1):
    """Closed-form roots: telescope / tilde ladders, funcor1 / funcor2 log-branches."""
    ks = list(k_range)
    if family == "telescope":
        rho = complex(rho)
        return [(1 - m) / 2 + 16 * rho * PI * 1j * k / (1 + m) for k in ks]
    if family == "tilde":
        rho = complex(rho)
        return [(1 - m) / 2 + 16 * rho * PI * 1j * (-0.5 + k / (1 + m)) for k in ks]
    if family in ("funcor1", "funcor2"):
        a = _as_rho(rho_mat if rho_mat is not None else rho).array()
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
