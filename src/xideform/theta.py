"""Theta sum Psi(t) = sum_{n>=1} exp(-pi n^2 t) and first-order/Jensen operators on it.

Every supported operator is a polynomial in the Euler operator D = t d/dt, so it acts
termwise on the series: D maps exp(-u) (u = pi n^2 t) to -u exp(-u), hence any operator
turns each term into p(u) exp(-u) for a fixed polynomial p.  This gives exact evaluation
of arbitrary compositions (H_alpha, Delta_alpha = H_alpha^2 - id, powers of Delta_4)
with a single certified truncation rule.

Small t is routed through the inversion t -> 1/t.  Conjugating a D-polynomial q(D)
through the half-power reflection (Jf)(t) = t^(-1/2) f(1/t) gives q(-(D + 1/2)), and
q(D) applied to the inhomogeneity (t^(-1/2) - 1)/2 is (q(-1/2) t^(-1/2) - q(0))/2, so
the reflected evaluation stays inside the same termwise machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnsupportedOrderError

PI = math.pi

# Below this point the series for Psi(t) converges slowly; evaluate at 1/t instead.
SMALL_T = 0.2

# Default absolute tail tolerance for the truncated series.
DEFAULT_EPS = 1e-18

# Far-left log-axis threshold: for x = ln t < LOG_TAIL_SPLIT the reflected series part
# is below 1e-180 (about e^{-pi e^5} times the operator's polynomial; 1.6e-182 for
# delta4^3), far below DEFAULT_EPS, and the operator value is its two-term closed form.
LOG_TAIL_SPLIT = -5.0


def _poly_mul(p, q):
    return np.convolve(p, q)


def _poly_add(p, q):
    n = max(len(p), len(q))
    out = np.zeros(n, dtype=complex)
    out[: len(p)] += p
    out[: len(q)] += q
    return out


def _poly_compose_linear(p, a, b):
    """p(a*X + b) for a polynomial p given by ascending coefficients."""
    out = np.zeros(1, dtype=complex)
    lin = np.array([b, a], dtype=complex)
    power = np.ones(1, dtype=complex)
    for c in p:
        out = _poly_add(out, c * power)
        power = _poly_mul(power, lin)
    return out


def _poly_trim(p):
    p = np.asarray(p, dtype=complex)
    nz = np.nonzero(np.abs(p) > 0)[0]
    return p[: nz[-1] + 1] if nz.size else np.zeros(1, dtype=complex)


@dataclass(frozen=True)
class ThetaOperator:
    """Operator acting on the theta sum, stored as a polynomial in D = t d/dt.

    `dpoly` holds ascending coefficients: dpoly[k] multiplies D^k.
    """

    name: str
    dpoly: tuple

    @staticmethod
    def plain() -> "ThetaOperator":
        return ThetaOperator("psi", (1.0 + 0j,))

    @staticmethod
    def h(alpha) -> "ThetaOperator":
        # H_alpha = id + alpha t d/dt
        return ThetaOperator(f"h({alpha})", (1.0 + 0j, complex(alpha)))

    @staticmethod
    def delta(alpha) -> "ThetaOperator":
        # Delta_alpha = H_alpha^2 - id = alpha^2 D^2 + 2 alpha D
        a = complex(alpha)
        return ThetaOperator(f"delta({alpha})", (0j, 2 * a, a * a))

    @staticmethod
    def delta4() -> "ThetaOperator":
        return ThetaOperator("delta4", (0j, 8.0 + 0j, 16.0 + 0j))

    @staticmethod
    def delta4_h4() -> "ThetaOperator":
        # (16 D^2 + 8 D)(1 + 4 D) = 64 D^3 + 48 D^2 + 8 D
        return ThetaOperator("delta4_h4", (0j, 8.0 + 0j, 48.0 + 0j, 64.0 + 0j))

    @staticmethod
    def delta4_power(n: int) -> "ThetaOperator":
        if n < 0 or n > 3:
            raise UnsupportedOrderError(f"delta4 power {n} not supported (0 <= n <= 3)")
        p = np.array([1.0 + 0j])
        d4 = np.array([0j, 8.0 + 0j, 16.0 + 0j])
        for _ in range(n):
            p = _poly_mul(p, d4)
        return ThetaOperator(f"delta4^{n}", tuple(_poly_trim(p)))

    @property
    def degree(self) -> int:
        return len(self.dpoly) - 1

    def upoly(self) -> np.ndarray:
        """Termwise polynomial p with (op e^{-u})(u) = p(u) e^{-u}, u = pi n^2 t."""
        acc = np.zeros(1, dtype=complex)
        cur = np.ones(1, dtype=complex)  # D^0 applied to 1
        for k, c in enumerate(self.dpoly):
            if k > 0:
                # D[q(u) e^-u] = u (q'(u) - q(u)) e^-u
                dq = np.polynomial.polynomial.polyder(cur) if len(cur) > 1 else np.zeros(1)
                diff = _poly_add(dq, -cur)
                cur = np.concatenate(([0j], diff))
            acc = _poly_add(acc, c * cur)
        return _poly_trim(acc)

    def reflected(self) -> "ThetaOperator":
        """Conjugate through (Jf)(t) = t^(-1/2) f(1/t):  q(D) J = J q(-(D+1/2))."""
        return ThetaOperator(
            self.name + "~", tuple(_poly_trim(_poly_compose_linear(np.array(self.dpoly), -1.0, -0.5)))
        )

    def at(self, x) -> complex:
        """The scalar q(x); used for the inhomogeneity images q(-1/2), q(0)."""
        return complex(np.polynomial.polynomial.polyval(x, np.array(self.dpoly)))

    def left_tail_coeffs(self):
        """(c1, c2) with (op Psi)(t) = c1 t^(-1/2) + c2 exactly for t below ~e^-5."""
        return _op_polys(self)[2]


def term_count(t_min: float, weight_degree: int, eps: float = DEFAULT_EPS) -> int:
    """Smallest N whose geometric-domination tail bound is below eps.

    The omitted terms of sum_n (pi n^2 t)^k e^{-pi n^2 t} beyond N are bounded by
    (pi N^2 t)^k e^{-pi N^2 t} / (1 - e^{-pi (2N+1) t}).
    """
    if t_min <= 0:
        raise DomainError(f"t must be positive, got {t_min}")
    k = max(0, weight_degree)
    n = 1
    while n < 4000:
        u = PI * n * n * t_min
        tail = (u**k) * math.exp(-min(u, 745.0)) / max(1e-300, -math.expm1(-PI * (2 * n + 1) * t_min))
        if tail <= eps:
            return n
        n += 1
    return n


def _series(upoly: np.ndarray, t: np.ndarray, eps: float) -> np.ndarray:
    """sum_n p(pi n^2 t) e^{-pi n^2 t} over the truncated range, vectorized in t."""
    if t.size == 0:
        return np.zeros(0, dtype=complex)
    scale = 1.0 + float(np.abs(upoly).sum())
    n_terms = term_count(float(t.min()), len(upoly) - 1, eps / scale)
    n = np.arange(1, n_terms + 1, dtype=float)
    u = PI * np.outer(n * n, t)
    # Horner's rule, as numpy's polyval evaluates it, without its per-call set-up
    p = upoly[-1] + u * 0
    for c in upoly[-2::-1]:
        p = c + p * u
    return (p * np.exp(-u)).sum(axis=0)


@lru_cache(maxsize=64)
def _op_polys(op: ThetaOperator):
    """(upoly, reflected upoly, left-tail coefficients) of op, built once per operator
    value: the constructors return a fresh instance on every call, so the cache is keyed
    by value, not held on the instance.  The arrays are shared, hence read-only."""
    up, refl = op.upoly(), op.reflected().upoly()
    up.flags.writeable = refl.flags.writeable = False
    return up, refl, (op.at(-0.5) / 2.0, -op.at(0.0) / 2.0)


def theta_values(op: ThetaOperator, t, eps: float = DEFAULT_EPS) -> np.ndarray:
    """(op Psi)(t) for an array of positive t, with small-t inversion."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t <= 0.0):
        raise DomainError("theta operators require t > 0")
    out = np.empty(t.shape, dtype=complex)
    up, refl, (c1, c2) = _op_polys(op)
    big = t >= SMALL_T
    if big.any():
        out[big] = _series(up, t[big], eps)
    if (~big).any():
        ts = t[~big]
        inv_sqrt = 1.0 / np.sqrt(ts)
        out[~big] = inv_sqrt * _series(refl, 1.0 / ts, eps) + c1 * inv_sqrt + c2
    return out


# D-polynomials converting t^k psi^(k) to the Euler basis: t psi' = D psi,
# t^2 psi'' = (D^2 - D) psi, t^3 psi''' = (D^3 - 3 D^2 + 2 D) psi.
_DERIV_DPOLY = {
    0: (1.0 + 0j,),
    1: (0j, 1.0 + 0j),
    2: (0j, -1.0 + 0j, 1.0 + 0j),
    3: (0j, 2.0 + 0j, -3.0 + 0j, 1.0 + 0j),
}


def psi(t, deriv_order: int = 0, eps: float = DEFAULT_EPS):
    """d^k/dt^k Psi(t) = sum_n (-pi n^2)^k e^{-pi n^2 t}, truncated below eps.

    Supports 0 <= deriv_order <= 3; higher derivatives are only reachable through
    the composed operators (delta4_power), which never need them individually.
    """
    if deriv_order not in _DERIV_DPOLY:
        raise UnsupportedOrderError(f"deriv_order {deriv_order} not supported (0..3)")
    scalar = np.isscalar(t)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    op = ThetaOperator("deriv", _DERIV_DPOLY[deriv_order])
    vals = theta_values(op, t_arr, eps).real / t_arr**deriv_order
    return float(vals[0]) if scalar else vals


def apply_theta_op(op: ThetaOperator, t, eps: float = DEFAULT_EPS):
    """(op Psi)(t); termwise on the series with the shared certified truncation."""
    scalar = np.isscalar(t)
    vals = theta_values(op, t, eps)
    return complex(vals[0]) if scalar else vals
