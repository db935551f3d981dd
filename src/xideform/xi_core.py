"""One-dimensional deformed family: Xi_rho(s) and its operator/log-moment relatives.

Everything is a Mellin transform M[f](a) = int_0^inf dt/t t^a f(t) evaluated on the
log axis x = ln t, where it becomes a Gaussian-weighted integral.  One function,
`node_data`, builds that integrand, (op Psi)(e^x) x^m e^{-rho x^2} = V e^E with the
theta sum's left-tail growth carried by E; `mellin_many` (one engine for every theta
kernel: `mellin` is its one-argument form) and `xi_multi.xi_d` add their linear
exponents to E, and both count the transforms they make in `_TRANSFORMS`.
s-derivatives are exact log-moment kernels (each d/ds inserts x/2), never finite
differences.
"""

from __future__ import annotations

import math
import warnings
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionWarning
from .quadrature import QuadSpec, trapezoid
from .theta import LOG_TAIL_SPLIT, ThetaOperator, log_values

# Largest real exponent we allow inside exp() before declaring the evaluation
# out of double-precision range.
_EXP_LIMIT = 705.0

# Cancellation ratio (integrand peak mass / |result|) beyond which a PrecisionWarning
# is emitted: the absolute floor is then about 1e-16 * ratio.
_CANCEL_LIMIT = 1e12


# Mellin transforms made in this context: a one-element list that `mellin_many` adds its
# argument count to and `xi_multi.xi_d` one, set by a caller that reads the count
# (`funceq.verify`); None, the default, counts nothing.
_TRANSFORMS: ContextVar[list | None] = ContextVar("transforms", default=None)


@dataclass(frozen=True)
class XiValue:
    """value is an array for a partial sum taken over an array of points."""

    value: complex
    quad_error: float

    def __complex__(self):
        return complex(self.value)


def _count_transforms(n: int):
    tally = _TRANSFORMS.get()
    if tally is not None:
        tally[0] += n


def _log_power(m) -> int:
    """m, a power of ln t, as an int; DomainError unless it is a non-negative integer."""
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise DomainError(f"log powers must be non-negative integers, got {m!r}")
    return int(m)


def _check_range(top: float) -> float:
    """top, the largest real exponent about to be exponentiated; DomainError past _EXP_LIMIT."""
    if top > _EXP_LIMIT:
        raise DomainError(f"integrand magnitude exp({top:.1f}) exceeds double range")
    return top


def _checked_exp(z):
    re = np.real(z)
    _check_range(float(np.max(re)) if np.size(re) else 0.0)
    return np.exp(z)


def node_data(op: ThetaOperator, x, rho, m: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(V, E) with (op Psi)(e^x) x^m e^{-rho x^2} = V e^E at the real nodes x.

    E carries the Gaussian and, below LOG_TAIL_SPLIT, the e^{-x/2} growth of the theta
    sum, whose operator image is exactly c1 e^{-x/2} + c2 there; so V stays O(1), and a
    caller adds its linear exponent a x to E before anything is exponentiated.  This is
    the one place the log-axis theta integrand is built.
    """
    x = np.asarray(x, dtype=float)
    E = -complex(rho) * x * x
    V = np.empty(x.shape, dtype=complex)
    right = x >= LOG_TAIL_SPLIT
    if right.any():
        V[right] = log_values(op, x[right])
    if not right.all():
        c1, c2 = op.left_tail_coeffs()
        xl = x[~right]
        V[~right] = c1 + c2 * np.exp(xl / 2.0)
        E[~right] -= xl / 2.0
    if m:
        V *= x**m
    return V, E


def _window(op: ThetaOperator | None, lin, rho: complex, spec: QuadSpec):
    """Window [x_lo, x_hi] and oscillation frequency of (op Psi)(e^x) e^{b x - rho x^2}
    (op None: e^{b x - rho x^2} alone) for every linear coefficient b in lin; the window
    is their hull.  Each cut is where the envelope falls below e^{-lam}, lam =
    ln(1/min(abs_tol, 1e-10)) + 12: the Gaussian's on both sides for op None.  A theta
    sum dies like e^{-pi e^x} on the right; on the left it grows like e^{-x/2}, unless
    the kernel is self-reciprocal (its left-tail coefficients vanish) and dies like
    e^{-pi e^{-x}}.
    """
    q = rho.real
    if q <= 0:
        raise DomainError("Gaussian coefficient must have positive real part")
    lam = -math.log(min(spec.abs_tol, 1e-10)) + 12.0

    def gauss_cut(slope):
        # decay exponent slope*x - q*x^2 going left: solve -slope X - q X^2 = -lam
        return (-slope + math.sqrt(slope * slope + 4.0 * q * lam)) / (2.0 * q)

    def theta_cut(slope):
        # right side: slope*x - pi e^x = -lam, iterate (up to 40 times); once an
        # iterate repeats, every later one equals it, so stopping there changes no bit
        x = math.log1p(lam / math.pi)
        for _ in range(40):
            x, prev = math.log1p((lam + max(slope, 0.0) * max(x, 0.0)) / math.pi), x
            if x == prev:
                break
        return x + 1.0

    def cuts(b):
        if op is None:
            return -gauss_cut(b), gauss_cut(-b)
        if any(op.left_tail_coeffs()):
            x_lo = -gauss_cut(b - 0.5)
        else:  # mirror of the right-side theta cut
            x_lo = -theta_cut(0.5 - b) - 1.0
        return x_lo, min(theta_cut(b), gauss_cut(-b))

    lin = np.atleast_1d(lin)
    windows = [cuts(b) for b in {float(lin.real.min()), float(lin.real.max())}]  # once for one argument
    x_lo, x_hi = min(w[0] for w in windows), max(w[1] for w in windows)
    omega = float(np.abs(lin.imag).max()) + 2.0 * abs(rho.imag) * max(abs(x_lo), abs(x_hi))
    return x_lo, x_hi, omega


def _warn_cancellation(mass, value, spec: QuadSpec):
    """One PrecisionWarning, naming the worst ratio, when for some component the
    integrand's peak mass both dwarfs the result (ratio above _CANCEL_LIMIT) and puts
    the double-precision floor 1e-16 * mass above abs_tol."""
    mass = np.asarray(mass)
    flagged = 1e-16 * mass > spec.abs_tol
    if not flagged.any():  # spares the common case the rest of the array work
        return
    size = np.maximum(np.abs(value), 1e-300)
    flagged &= mass > _CANCEL_LIMIT * size
    if np.any(flagged):
        warnings.warn(
            f"cancellation ratio {np.max((mass / size)[flagged]):.2e} exceeds 1e12; "
            "absolute accuracy limited",
            PrecisionWarning,
            stacklevel=3,
        )


def gaussian_mellin(rho, a, m: int = 0, spec: QuadSpec | None = None) -> XiValue:
    """M[ln^m exp(-rho ln^2)](a), the pure-exp kernel, by the log-axis trapezoid rule.

    The kernel is entire, so the path is shifted through the Gaussian saddle
    Im(a/2rho); this removes the e^{i Im(a) x} cancellation and keeps the result
    accurate relative to its own (possibly tiny) scale.
    """
    spec = spec or QuadSpec()
    rho, a, m = complex(rho), complex(a), _log_power(m)
    if rho.real <= 0:
        raise DomainError("gaussian_mellin needs Re(rho) > 0")
    z = 1j * (a / (2 * rho)).imag

    def node_sums(x):
        vals = (x + z) ** m * np.exp(a * (x + z) - rho * (x + z) ** 2)
        return vals.sum(), np.abs(vals).max(initial=0.0)

    res = trapezoid(node_sums, *_window(None, a - 2 * rho * z, rho, spec), spec)
    _warn_cancellation(res.peak_mass, res.value, spec)
    return XiValue(complex(res.value), float(res.error_estimate))


def mellin(op: ThetaOperator, rho, a, m: int = 0, spec: QuadSpec | None = None) -> XiValue:
    """M[(op Psi) ln^m exp(-rho ln^2)](a): `mellin_many` at one argument."""
    values, err = mellin_many(op, rho, a, m, spec)
    return XiValue(complex(values[0]), err)


def mellin_many(op: ThetaOperator, rho, args, m: int = 0,
                spec: QuadSpec | None = None) -> tuple[np.ndarray, float]:
    """M[(op Psi) ln^m exp(-rho ln^2)](a_k) for a whole array of arguments a_k.

    The log-axis trapezoid rule on one grid planned for the hull of the arguments:
    `node_data` gives (V, E) once per node array, and each argument's node sum is the
    row exp(a_k x + E) @ V, so exp never overflows where the Gaussian rescues the
    product.  The peak modulus exp(max(Re(a_k x + E) + log|V|)) sets each argument's
    rounding floor.  Every argument meets the spec's tolerance or NonConvergenceError is
    raised, and arguments whose cancellation limits the absolute accuracy raise one
    PrecisionWarning.  Returns (values, error bound), the bound being the largest
    per-argument estimate; no arguments give (an empty array, 0.0).
    """
    m = _log_power(m)
    spec = spec or QuadSpec()
    rho = complex(rho)
    args = np.atleast_1d(np.asarray(args, dtype=complex))
    _count_transforms(args.size)
    if not args.size:
        return np.empty(0, dtype=complex), 0.0

    def node_sums(x):
        V, E = node_data(op, x, rho, m)
        logv = np.log(np.maximum(np.abs(V), 1e-300))  # a vanishing V counts as 1e-300
        sums = np.empty(args.shape, dtype=complex)
        peaks = np.empty(args.shape)
        for start in range(0, args.size, 256):
            expo = args[start : start + 256, None] * x + E
            sums[start : start + 256] = _checked_exp(expo) @ V
            peaks[start : start + 256] = np.exp((expo.real + logv).max(axis=1, initial=-np.inf))
        return sums, peaks

    res = trapezoid(node_sums, *_window(op, args, rho, spec), spec)
    _warn_cancellation(res.peak_mass, res.value, spec)
    return res.value, float(np.max(res.error_estimate))


def xi(rho, s, spec: QuadSpec | None = None) -> XiValue:
    """Xi_rho(s) = M[Psi exp(-rho ln^2)](s/2)."""
    return mellin(ThetaOperator.plain(), rho, complex(s) / 2, 0, spec)


def xi_ds(rho, s, order: int = 1, spec: QuadSpec | None = None) -> XiValue:
    """d^order/ds^order Xi_rho(s), exact log-moment kernel (factor (x/2)^order)."""
    base = mellin(ThetaOperator.plain(), rho, complex(s) / 2, order, spec)
    return XiValue(base.value / 2**order, base.quad_error / 2**order)


def xi_tilde(rho, s, spec: QuadSpec | None = None) -> XiValue:
    """Xi~_rho(s) = M[(H_4 Psi) exp(-rho ln^2)](s/2) (direct operator kernel)."""
    return mellin(ThetaOperator.h(4.0), rho, complex(s) / 2, 0, spec)


def _partial_sums(op: ThetaOperator, alternating: bool, rho, s, m: int, spec: QuadSpec | None) -> XiValue:
    """sum_{l=0..m} (+-1)^l M[(op Psi) exp(-rho ln^2)]((s_k + l)/2) for a scalar s or each
    s_k of an array, from one `mellin_many` call over every s_k + l; the error bound is
    m + 1 times the call's."""
    if m < 0:
        raise DomainError("m must be >= 0")
    s = np.asarray(s, dtype=complex)
    shifts = np.arange(m + 1)
    values, err = mellin_many(op, rho, (shifts[:, None] + s.reshape(-1)).reshape(-1) / 2, 0, spec)
    signs = (-1.0) ** shifts if alternating else np.ones(m + 1)
    sums = (signs @ values.reshape(m + 1, s.size)).reshape(s.shape)
    return XiValue(sums if s.ndim else complex(sums), (m + 1) * err)


def xi_sum_m(rho, s, m: int, spec: QuadSpec | None = None) -> XiValue:
    """Xi^m_rho(s) = sum_{l=0..m} Xi_rho(s + l), at a scalar s or elementwise over an array."""
    return _partial_sums(ThetaOperator.plain(), False, rho, s, m, spec)


def xi_tilde_sum_m(rho, s, m: int, spec: QuadSpec | None = None) -> XiValue:
    """Alternating sum sum_{l=0..m} (-1)^l Xi~_rho(s + l), at a scalar s or over an array."""
    return _partial_sums(ThetaOperator.h(4.0), True, rho, s, m, spec)


def telescope_rhs(rho, s, m: int = 0) -> complex:
    """Closed form of Xi^m_rho(s) - Xi^m_rho(1-m-s)."""
    rho, s = complex(rho), complex(s)
    return np.sqrt(np.pi / rho) * (np.exp((s - 1) ** 2 / (16 * rho)) - np.exp((s + m) ** 2 / (16 * rho))) / 2


def mellin_delta4(rho, s, spec: QuadSpec | None = None) -> XiValue:
    """M[(Delta_4 Psi) exp(-rho ln^2)](s/2)."""
    return mellin(ThetaOperator.delta4(), rho, complex(s) / 2, 0, spec)


def d_rho_xi(rho, s, spec: QuadSpec | None = None) -> XiValue:
    """d/drho Xi_rho(s) = -M[Psi ln^2 exp(-rho ln^2)](s/2)."""
    base = mellin(ThetaOperator.plain(), rho, complex(s) / 2, 2, spec)
    return XiValue(-base.value, base.quad_error)
