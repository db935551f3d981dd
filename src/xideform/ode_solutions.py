"""First/second-order transport of the deformed family and its hyperbolic decompositions.

With W_alpha(s) = e^{q(s)} Xi_rho(s), q(s) = (-s^2 + (4/alpha) s)/(16 rho):

  4 alpha rho W'(s) = e^{q(s)} M[(H_alpha Psi) e](s/2)                     (first order)
  (id - (4 alpha rho)^2 d^2/ds^2) W = -e^{q} M[(Delta_alpha Psi) e](s/2)   (second order)

so variation of parameters writes W as a sinh/cosh pair plus a sinh-kernel integral.
At alpha = 4, beta = (1/2, 1/2), z = 1/2 the coefficients close against the
telescope identity into the canonical normalisation

  sinh coeff = e^{1/(32 rho)} sqrt(pi/rho) / 2,   cosh coeff = e^{1/(64 rho)} Xi_rho(1/2).

Each of these laws is checked as a `funceq.IDENTITIES` entry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParameterError, DomainError
from .quadrature import IntegralResult, QuadSpec, clenshaw_curtis
from .theta import ThetaOperator
from .xi_core import mellin, mellin_many, xi

PI = math.pi


def _q(rho, alpha, s):
    return (-(s * s) + (4.0 / alpha) * s) / (16 * rho)


def _check_rho(rho):
    rho = complex(rho)
    if rho.real <= 0:
        raise DomainError("Re(rho) must be positive")
    return rho


@dataclass(frozen=True)
class VopCoefficients:
    A: complex
    B: complex
    beta: tuple
    alpha: complex
    z: complex
    rho: complex


@dataclass(frozen=True)
class DecompositionResult:
    sinh_coeff: complex
    cosh_coeff: complex
    integral_part: complex
    total: complex
    quad_error: float


def segment_weighted_mellin(op: ThetaOperator, rho, z, s, weight, spec: QuadSpec | None = None) -> IntegralResult:
    """int_z^s weight(t) M[(op Psi) e^{-rho ln^2}](t/2) dt along the straight segment.

    weight is a vectorized callable of the contour points; it may return a stacked
    (k, N) array, giving k integrals (and k errors) over one set of Mellin values.
    The nested Clenshaw-Curtis rule evaluates each level's new points in one mellin_many
    call; the error is its last doubling's difference plus the rounding floor plus the
    Mellin bound weighted by |weight|.
    """
    z, s = complex(z), complex(s)
    if z == s:
        zero = np.zeros(np.shape(weight(np.array([z])))[:-1], dtype=complex)[()]
        return IntegralResult(zero, abs(zero), 0)
    spec = spec or QuadSpec()

    def node_values(u):
        t = z + u * (s - z)
        mvals, m_err = mellin_many(op, rho, t / 2, spec=spec)
        wt = weight(t) * (s - z)
        return wt * mvals, m_err * np.abs(wt)

    return clenshaw_curtis(node_values, spec)


def _check_beta(rho, alpha, beta):
    b1, b2 = complex(beta[0]), complex(beta[1])
    step = PI * 1j * 4 * complex(alpha) * complex(rho)
    ratio = (b1 - b2) / step - 0.5
    dist = abs(ratio - round(ratio.real)) * abs(step)
    if dist < 1e-8:
        raise DegenerateParameterError("beta1 - beta2 on the degenerate lattice pi i 4 alpha rho (1/2 + Z)")
    return b1, b2


def vop_coefficients(rho, alpha, beta, z, spec: QuadSpec | None = None) -> VopCoefficients:
    """A, B from the 2x2 hyperbolic system at the anchor z."""
    rho = _check_rho(rho)
    alpha = complex(alpha)
    b1, b2 = _check_beta(rho, alpha, beta)
    z = complex(z)
    c = 4 * alpha * rho
    den = cmath.cosh((b2 - b1) / c)
    if abs(den) < 1e-12:
        raise DegenerateParameterError("cosh((beta2 - beta1)/4 alpha rho) vanishes")
    m_psi = xi(rho, z, spec).value
    m_h = mellin(ThetaOperator.h(alpha), rho, z / 2, 0, spec).value
    pref = cmath.exp(_q(rho, alpha, z)) / den
    A = pref * (cmath.sinh((b2 - z) / c) * (-m_psi) - cmath.cosh((b2 - z) / c) * m_h)
    B = pref * (cmath.cosh((b1 - z) / c) * m_psi + cmath.sinh((b1 - z) / c) * m_h)
    return VopCoefficients(A, B, (b1, b2), alpha, z, rho)


def _chi_segment(op: ThetaOperator, rho: complex, phi: complex, s, z, spec) -> complex:
    """int_z^s e^{(-t^2 + phi t)/16rho} M[(op Psi) e](t/2) dt: chi's integral for any operator."""
    return segment_weighted_mellin(op, rho, z, s, lambda t: np.exp((-(t * t) + phi * t) / (16 * rho)), spec).value


def chi(rho, phi, alpha, s, z, spec: QuadSpec | None = None) -> complex:
    """chi_rho(phi, alpha, s, z) = int_z^s e^{(-t^2 + phi t)/16rho} M[(Delta_alpha Psi) e](t/2) dt."""
    return _chi_segment(ThetaOperator.delta(complex(alpha)), _check_rho(rho), complex(phi), s, z, spec)


def canonical_sinh_coeff(rho) -> complex:
    return cmath.exp(1 / (32 * complex(rho))) * cmath.sqrt(PI / complex(rho)) / 2


def _decomposition(rho, s, kernel, sinh_c, cosh_c, spec) -> DecompositionResult:
    """sinh_c sinh(u) + cosh_c cosh(u) + (1/16rho) int_{1/2}^s kernel((s-t)/16rho) e^{q(t)}
    M[(D4 Psi) e](t/2) dt, u = (1/2-s)/16rho, kernel np.sinh or np.cosh."""
    arg = (0.5 - s) / (16 * rho)
    res = segment_weighted_mellin(
        ThetaOperator.delta4(), rho, 0.5, s,
        lambda t: kernel((s - t) / (16 * rho)) * np.exp(_q(rho, 4.0, t)), spec,
    )
    integral_part = res.value / (16 * rho)
    total = sinh_c * cmath.sinh(arg) + cosh_c * cmath.cosh(arg) + integral_part
    return DecompositionResult(sinh_c, cosh_c, integral_part, total, abs(res.error_estimate) / abs(16 * rho))


def canonical_decomposition(rho, s, spec: QuadSpec | None = None) -> DecompositionResult:
    """e^{(-s^2+s)/16rho} Xi_rho(s) split into sinh/cosh parts and the Delta_4 integral."""
    rho = _check_rho(rho)
    return _decomposition(rho, complex(s), np.sinh, canonical_sinh_coeff(rho),
                          cmath.exp(1 / (64 * rho)) * xi(rho, 0.5, spec).value, spec)


def a_pm(rho, s, spec: QuadSpec | None = None):
    """a±(s) = (1/32rho) int_{1/2}^s (e^{(1/2-t)/16rho} ± e^{(t-1/2)/16rho}) e^{q(t)} M[(D4 Psi) e](t/2) dt."""
    rho = _check_rho(rho)
    s = complex(s)
    signs = np.array([[1.0], [-1.0]])
    vals = segment_weighted_mellin(
        ThetaOperator.delta4(), rho, 0.5, s,
        lambda t: (np.exp((0.5 - t) / (16 * rho)) + signs * np.exp((t - 0.5) / (16 * rho)))
        * np.exp(_q(rho, 4.0, t)),
        spec,
    ).value
    return tuple(vals / (32 * rho))


def tilde_decomposition(rho, s, spec: QuadSpec | None = None) -> DecompositionResult:
    """e^{(-s^2+s)/16rho} Xi~_rho(s) with cosh kernel and sinh coefficient C_rho (`c_rho`)."""
    rho = _check_rho(rho)
    return _decomposition(rho, complex(s), np.cosh, c_rho(rho, spec), -canonical_sinh_coeff(rho), spec)


def c_rho(rho, spec: QuadSpec | None = None) -> complex:
    """The tilde decomposition's sinh coefficient, C_rho = -e^{1/64rho} Xi_rho(1/2)."""
    rho = _check_rho(rho)
    return -cmath.exp(1 / (64 * rho)) * xi(rho, 0.5, spec).value


def _sinh_power_kernel(n: int, L, c):
    """K_n(L) = c^{n-1} k_n(L/c), the n-fold convolution of sinh(./c) with itself; k_n, the inverse
    Laplace transform of 1/(p^2-1)^n, is sinh u, (u cosh u - sinh u)/2, ((u^2+3) sinh u - 3u cosh u)/8.
    These cancel near 0 (k_3 is O(u^5) from O(u) terms; at |u| = 1 still 1e-14 off), so |u| < 2
    takes the series k_n(u) = sum_k C(n+k-1, k) u^{2n+2k-1} / (2n+2k-1)!."""
    u = L / c
    if n == 1:
        return np.sinh(u)
    sh, ch = np.sinh(u), np.cosh(u)
    closed = (u * ch - sh) / 2 if n == 2 else ((u * u + 3) * sh - 3 * u * ch) / 8
    small = np.abs(u) < 2
    u2 = np.where(small, u * u, 0)
    series = 0
    for k in reversed(range(14)):
        series = series * u2 + math.comb(n + k - 1, k) / math.factorial(2 * n + 2 * k - 1)
    return c ** (n - 1) * np.where(small, series * u ** (2 * n - 1), closed)


def iterated_P(rho, n: int, s) -> complex:
    """P^n(s) = int_{1/2}^s sinh((s-t)/16rho) P^{n-1}(t) dt, P^0(s) = cosh((1/2-s)/16rho); in closed
    form L K_n(L)/(2n), L = s - 1/2, with the sinh-convolution kernel K_n (a series near L = 0)."""
    rho = _check_rho(rho)
    s = complex(s)
    if n < 0 or n > 3:
        raise DomainError("P^n supported for 0 <= n <= 3")
    if n == 0:
        return cmath.cosh((0.5 - s) / (16 * rho))
    L = s - 0.5
    return complex(L * _sinh_power_kernel(n, L, 16 * rho) / (2 * n))


def iterated_I(rho, n: int, s, spec: QuadSpec | None = None) -> complex:
    """I^n: n nested sinh kernels ending in e^{q(t)} M[(Delta_4^n Psi) e](t/2), integrated in exchanged
    order as int_{1/2}^s K_n(s-t) e^{q(t)} M[...](t/2) dt with the closed-form sinh-convolution kernel
    K_n (a series near t = s): one segment pass for every n."""
    rho = _check_rho(rho)
    s = complex(s)
    if n < 1 or n > 3:
        raise DomainError("I^n supported for 1 <= n <= 3")
    return segment_weighted_mellin(
        ThetaOperator.delta4_power(n), rho, 0.5, s,
        lambda t: _sinh_power_kernel(n, s - t, 16 * rho) * np.exp(_q(rho, 4.0, t)), spec,
    ).value


def _verify_alias(kind: str, *names):
    """funceq.verify(kind, ...).abs_residual with the replaced helper's positional inputs.  Only perfbench's
    segments cases call these five: delete them with the next benchmark change, which calls verify."""
    def residual(*args) -> float:
        from .funceq import IDENTITIES, verify  # funceq imports this module
        inputs = dict(zip(names, args, strict=True))
        scalar = {name: inputs.pop(name) for name in ("rho", "s")} if IDENTITIES[kind].inputs == "scalar" else {}
        return verify(kind, **scalar, extras=inputs).abs_residual
    return residual


canonical_residual = _verify_alias("canonical", "rho", "s")
tilde_residual = _verify_alias("tilde", "rho", "s")
vop_reconstruction_residual = _verify_alias("vop_reconstruction", "rho", "alpha", "beta", "z", "s")
chi_transform_residual = _verify_alias("chi_transform", "rho", "phi", "alpha", "s", "z")
iterated_expansion_residual = _verify_alias("iterated_expansion", "rho", "n", "s")
