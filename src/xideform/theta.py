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

A table built at import holds (D^k Psi)(e^x), k = 0..6, at x = LOG_TAIL_SPLIT + j 2^-8 up to 8, as
t^(-1/2) (D^k Psi)(1/t) where t < SMALL_T.  `log_values` reads an operator's values on anchored grids
of step 2^-8 or coarser from its rows, and sums the series (`theta_values`) at any other nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

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

# The table's grid, x = LOG_TAIL_SPLIT + j 2^-8 up to x = 8, and its columns D^0 .. D^6
_TABLE_STEP, _TABLE_COLS = 2.0**-8, 7
_TABLE_X = LOG_TAIL_SPLIT + _TABLE_STEP * np.arange(int((8.0 - LOG_TAIL_SPLIT) / _TABLE_STEP) + 1)

# u, the reflection's argument -(X + 1/2), and Delta_4 = 16 D^2 + 8 D
_X, _REFLECT, _DELTA4 = Polynomial([0, 1]), Polynomial([-0.5, -1]), Polynomial([0j, 8, 16])


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
    def delta4_power(n: int) -> "ThetaOperator":
        if n < 0 or n > 3:
            raise UnsupportedOrderError(f"delta4 power {n} not supported (0 <= n <= 3)")
        return ThetaOperator(f"delta4^{n}", tuple((_DELTA4**n).coef))

    def upoly(self) -> np.ndarray:
        """Termwise polynomial p with (op e^{-u})(u) = p(u) e^{-u}, u = pi n^2 t."""
        acc, cur = Polynomial([0j]), Polynomial([1 + 0j])  # cur: D^k applied to e^-u
        for c in self.dpoly:
            acc, cur = acc + c * cur, _X * (cur.deriv() - cur)  # D[q e^-u] = u (q' - q) e^-u
        return acc.trim().coef

    def reflected(self) -> "ThetaOperator":
        """Conjugate through (Jf)(t) = t^(-1/2) f(1/t):  q(D) J = J q(-(D+1/2))."""
        return ThetaOperator(self.name + "~", tuple(Polynomial(self.dpoly)(_REFLECT).trim().coef))

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
    """sum_n p(pi n^2 t) e^{-pi n^2 t} over the truncated range, vectorized in t (at t[:, None], per column of p)."""
    if t.size == 0:
        return np.zeros(0, dtype=complex)
    scale = 1.0 + float(np.abs(upoly).sum())
    n_terms = term_count(float(t.min()), len(upoly) - 1, eps / scale)
    n = np.arange(1, n_terms + 1, dtype=float)
    u = PI * np.multiply.outer(n * n, t)
    # Horner's rule, as numpy's polyval evaluates it, without its per-call set-up
    p = upoly[-1] + u * 0
    for c in upoly[-2::-1]:
        p = c + p * u
    return (p * np.exp(-u)).sum(axis=0)


def _basis_table():
    """The read-only table and its count of reflected rows: one `_series` call over all columns per
    unit of x (a block's truncation suits its own smallest t), in long double where the platform has
    it, as in double D^6's cancelling polynomial puts delta4^3 5.8e-13 of its value off at x = -1.08."""
    t = np.exp(_TABLE_X.astype(np.longdouble))
    left = t < SMALL_T
    basis, cur = np.zeros((_TABLE_COLS, _TABLE_COLS)), Polynomial([1.0])
    for k in range(_TABLE_COLS):  # column k: the u-polynomial of D^k, as in upoly
        basis[: k + 1, k], cur = cur.coef, _X * (cur.deriv() - cur)
    rows = np.concatenate([_series(basis, b[:, None], DEFAULT_EPS) for b in np.array_split(np.where(left, 1 / t, t), 13)])
    rows[left] /= np.sqrt(t[left])[:, None]
    rows = rows.astype(float)
    rows.flags.writeable = False
    return rows, int(left.sum())


_TABLE, _TABLE_LEFT = _basis_table()


@lru_cache(maxsize=64)
def _op_polys(op: ThetaOperator):
    """(upoly, reflected upoly, left-tail coefficients, (dpoly, reflected dpoly)) of op, built
    once per operator value: the constructors return a fresh instance on every call, so
    the cache is keyed by value, not held on the instance.  The arrays are read-only."""
    refl = op.reflected()
    arrays = [op.upoly(), refl.upoly(), np.array(op.dpoly, dtype=complex), np.array(refl.dpoly, dtype=complex)]
    for arr in arrays:
        arr.flags.writeable = False
    return arrays[0], arrays[1], (op.at(-0.5) / 2.0, -op.at(0.0) / 2.0), tuple(arrays[2:])


def theta_values(op: ThetaOperator, t) -> np.ndarray:
    """(op Psi)(t) for an array of positive t, with small-t inversion."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t <= 0.0):
        raise DomainError("theta operators require t > 0")
    out = np.empty(t.shape, dtype=complex)
    up, refl, (c1, c2), _ = _op_polys(op)
    big = t >= SMALL_T
    if big.any():
        out[big] = _series(up, t[big], DEFAULT_EPS)
    if (~big).any():
        ts = t[~big]
        inv_sqrt = 1.0 / np.sqrt(ts)
        out[~big] = inv_sqrt * _series(refl, 1.0 / ts, DEFAULT_EPS) + c1 * inv_sqrt + c2
    return out


def log_values(op: ThetaOperator, x) -> np.ndarray:
    """(op Psi)(e^x) at real nodes x >= LOG_TAIL_SPLIT: the table's rows times op's
    D-coefficients (on the left, its reflection's, plus c1 e^{-x/2} + c2) when x is an
    ascending progression on the table grid and op fits the table, else theta_values."""
    x = np.asarray(x, dtype=float)
    _, _, (c1, c2), (dp, rp) = _op_polys(op)
    first = (x[0] - LOG_TAIL_SPLIT) / _TABLE_STEP if x.size else -1.0
    stride = (x[-1] - x[0]) / (_TABLE_STEP * (x.size - 1)) if x.size > 1 else 1.0
    if dp.size <= _TABLE_COLS and first >= 0 and first.is_integer() and stride >= 1 and stride.is_integer():
        rows = slice(int(first), int(first) + int(stride) * (x.size - 1) + 1, int(stride))
        if np.array_equal(_TABLE_X[rows], x):  # a slice past the table's end is too short
            k = int(np.searchsorted(x, _TABLE_X[_TABLE_LEFT]))  # nodes left of ln SMALL_T
            left = _TABLE[rows][:k, : rp.size] @ rp + c1 * np.exp(-0.5 * x[:k]) + c2
            return np.concatenate([left, _TABLE[rows][k:, : dp.size] @ dp])
    return theta_values(op, np.exp(x))


def psi(t, deriv_order: int = 0):
    """d^k/dt^k Psi(t) = sum_n (-pi n^2)^k e^{-pi n^2 t}, truncated below DEFAULT_EPS.

    Supports 0 <= deriv_order <= 3; higher derivatives are only reachable through
    the composed operators (delta4_power), which never need them individually.
    """
    if deriv_order not in range(4):
        raise UnsupportedOrderError(f"deriv_order {deriv_order} not supported (0..3)")
    scalar = np.isscalar(t)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    # t^k psi^(k) = D (D - 1) ... (D - k + 1) psi: the falling factorial in D = t d/dt
    op = ThetaOperator("deriv", tuple(np.polynomial.polynomial.polyfromroots(range(deriv_order)) + 0j))
    vals = theta_values(op, t_arr).real / t_arr**deriv_order
    return float(vals[0]) if scalar else vals


def apply_theta_op(op: ThetaOperator, t):
    """(op Psi)(t); termwise on the series with the shared certified truncation."""
    scalar = np.isscalar(t)
    vals = theta_values(op, t)
    return complex(vals[0]) if scalar else vals
