"""One-dimensional deformed family: Xi_rho(s) and its operator/log-moment relatives.

Everything is a Mellin transform M[f](a) = int_0^inf dt/t t^a f(t) evaluated on the
log axis x = ln t, where it becomes a Gaussian-weighted integral.  s-derivatives are
exact log-moment kernels (each d/ds inserts x/2), never finite differences.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionWarning
from .quadrature import QuadSpec, integrate_log_axis, plan_axis, trapezoid
from .theta import LOG_TAIL_SPLIT, ThetaOperator, theta_values

# Largest real exponent we allow inside exp() before declaring the evaluation
# out of double-precision range.
_EXP_LIMIT = 705.0

# Cancellation ratio (integrand peak mass / |result|) beyond which a PrecisionWarning
# is emitted: the absolute floor is then about 1e-16 * ratio.
_CANCEL_LIMIT = 1e12


@dataclass(frozen=True)
class MellinKernel:
    """Integrand spec for M[(op Psi) * ln^m * exp(-rho ln^2)](argument).

    theta_op None means a pure exp kernel (no theta factor).
    """

    theta_op: ThetaOperator | None
    log_power: int
    gaussian_coeff: complex
    argument: complex

    def __post_init__(self):
        if complex(self.gaussian_coeff).real <= 0:
            raise DomainError("Re(gaussian_coeff) must be positive")
        if self.log_power < 0:
            raise DomainError("log_power must be >= 0")


@dataclass(frozen=True)
class XiValue:
    value: complex
    quad_error: float

    def __complex__(self):
        return complex(self.value)


def _checked_exp(z):
    re = np.real(z)
    top = float(np.max(re)) if np.size(re) else 0.0
    if top > _EXP_LIMIT:
        raise DomainError(f"integrand magnitude exp({top:.1f}) exceeds double range")
    return np.exp(z)


def kernel_values(op: ThetaOperator | None, x, a, rho, m: int = 0) -> np.ndarray:
    """(op Psi)(e^x) x^m e^{a x - rho x^2}, stable down to very negative x.

    For x below the far-left threshold the operator image of the theta sum is exactly
    c1 e^{-x/2} + c2, and the product is formed by combining exponents first.
    """
    x = np.asarray(x, dtype=float)
    a = complex(a)
    rho = complex(rho)
    out = np.empty(x.shape, dtype=complex)
    powm = x**m if m else 1.0
    if op is None:
        out[...] = _checked_exp(a * x - rho * x * x)
        return out * powm
    right = x >= LOG_TAIL_SPLIT
    if right.any():
        xr = x[right]
        out[right] = theta_values(op, np.exp(xr)) * _checked_exp(a * xr - rho * xr * xr)
    if (~right).any():
        xl = x[~right]
        c1, c2 = op.left_tail_coeffs()
        vals = np.zeros(xl.shape, dtype=complex)
        if c1 != 0:
            vals += c1 * _checked_exp((a - 0.5) * xl - rho * xl * xl)
        if c2 != 0:
            vals += c2 * _checked_exp(a * xl - rho * xl * xl)
        out[~right] = vals
    return out * powm


def _window(op: ThetaOperator | None, lin, rho: complex, spec: QuadSpec):
    """Window [x_lo, x_hi] and oscillation frequency of (op Psi)(e^x) e^{b x - rho x^2}
    for every linear coefficient b in lin (the window is their hull)."""
    lin = np.atleast_1d(lin)
    tol_log = -math.log(min(spec.abs_tol, 1e-10)) + 6.0
    delta_like = op is not None and not any(op.left_tail_coeffs())
    windows = [plan_axis(re, rho.real, tol_log, theta_like=op is not None, delta_like=delta_like)
               for re in (float(lin.real.min()), float(lin.real.max()))]
    x_lo, x_hi = min(w[0] for w in windows), max(w[1] for w in windows)
    omega = float(np.abs(lin.imag).max()) + 2.0 * abs(rho.imag) * max(abs(x_lo), abs(x_hi))
    return x_lo, x_hi, omega


def mellin(kernel: MellinKernel, spec: QuadSpec | None = None) -> XiValue:
    """Evaluate the kernel's Mellin transform by the log-axis trapezoid rule.

    Pure-exp kernels are entire, so their path is shifted through the Gaussian
    saddle Im(a/2rho); this removes the e^{i Im(a) x} cancellation and keeps the
    result accurate relative to its own (possibly tiny) scale.
    """
    spec = spec or QuadSpec()
    op, m = kernel.theta_op, kernel.log_power
    a, rho = complex(kernel.argument), complex(kernel.gaussian_coeff)
    if op is None:
        z = 1j * (a / (2 * rho)).imag
        lin = a - 2 * rho * z
        f = lambda x: (x + z) ** m * np.exp(a * (x + z) - rho * (x + z) ** 2)
    else:
        lin = a
        f = lambda x: kernel_values(op, x, a, rho, m)
    res = integrate_log_axis(f, spec, *_window(op, lin, rho, spec))
    mass = res.peak_mass
    if 1e-16 * mass > spec.abs_tol and mass > _CANCEL_LIMIT * max(abs(res.value), 1e-300):
        warnings.warn(
            f"cancellation ratio {mass / max(abs(res.value), 1e-300):.2e} exceeds 1e12; "
            "absolute accuracy limited",
            PrecisionWarning,
            stacklevel=2,
        )
    return XiValue(res.value, res.error_estimate)


def mellin_many(op: ThetaOperator | None, rho, args, m: int = 0,
                spec: QuadSpec | None = None) -> tuple[np.ndarray, float]:
    """M[(op Psi) ln^m exp(-rho ln^2)](a_k) for a whole array of arguments a_k.

    The same trapezoid rule as `mellin`, on one grid planned for the hull of the
    arguments: the kernel values are shared and each node sum is a matrix product.
    Every argument meets the spec's tolerance or NonConvergenceError is raised.
    Returns (values, error bound), the bound being the largest per-argument estimate.
    """
    spec = spec or QuadSpec()
    rho = complex(rho)
    args = np.atleast_1d(np.asarray(args, dtype=complex))

    def node_sums(x):
        base = kernel_values(op, x, 0.0, rho, m)
        # fold the damped base's magnitude into the exponent so exp(a x) never
        # overflows where the Gaussian would have rescued the product; magnitudes
        # below the subnormal range contribute nothing and divide unsafely
        mag = np.abs(base)
        ok = mag > 1e-280
        logmag = np.where(ok, np.log(np.maximum(mag, 1e-300)), -np.inf)
        phase = np.where(ok, base / np.where(ok, mag, 1.0), 0.0)
        sums = np.empty(args.shape, dtype=complex)
        peaks = np.empty(args.shape)
        for start in range(0, args.size, 256):
            expo = np.outer(args[start : start + 256], x) + logmag
            sums[start : start + 256] = _checked_exp(expo) @ phase
            peaks[start : start + 256] = np.exp(expo.real.max(axis=1, initial=-np.inf))
        return sums, peaks

    res = trapezoid(node_sums, *_window(op, args, rho, spec), spec)
    return res.value, float(np.max(res.error_estimate))


def xi(rho, s, spec: QuadSpec | None = None) -> XiValue:
    """Xi_rho(s) = M[Psi exp(-rho ln^2)](s/2)."""
    return mellin(MellinKernel(ThetaOperator.plain(), 0, complex(rho), complex(s) / 2), spec)


def xi_ds(rho, s, order: int = 1, spec: QuadSpec | None = None) -> XiValue:
    """d^order/ds^order Xi_rho(s), exact log-moment kernel (factor (x/2)^order)."""
    base = mellin(MellinKernel(ThetaOperator.plain(), order, complex(rho), complex(s) / 2), spec)
    return XiValue(base.value / 2**order, base.quad_error / 2**order)


def xi_tilde(rho, s, spec: QuadSpec | None = None) -> XiValue:
    """Xi~_rho(s) = M[(H_4 Psi) exp(-rho ln^2)](s/2) (direct operator kernel)."""
    return mellin(MellinKernel(ThetaOperator.h(4.0), 0, complex(rho), complex(s) / 2), spec)


def xi_tilde_moment_path(rho, s, spec: QuadSpec | None = None) -> XiValue:
    """(1 - 2s) Xi_rho(s) + 16 rho d_s Xi_rho(s); the cross-check route."""
    rho, s = complex(rho), complex(s)
    base = xi(rho, s, spec)
    der = xi_ds(rho, s, 1, spec)
    return XiValue((1 - 2 * s) * base.value + 16 * rho * der.value,
                   abs(1 - 2 * s) * base.quad_error + abs(16 * rho) * der.quad_error)


def xi_sum_m(rho, s, m: int, spec: QuadSpec | None = None) -> XiValue:
    """Xi^m_rho(s) = sum_{l=0..m} Xi_rho(s + l)."""
    if m < 0:
        raise DomainError("m must be >= 0")
    vals = [xi(rho, complex(s) + l, spec) for l in range(m + 1)]
    return XiValue(sum(v.value for v in vals), sum(v.quad_error for v in vals))


def xi_tilde_sum_m(rho, s, m: int, spec: QuadSpec | None = None) -> XiValue:
    """Alternating sum sum_{l=0..m} (-1)^l Xi~_rho(s + l)."""
    if m < 0:
        raise DomainError("m must be >= 0")
    vals = [xi_tilde(rho, complex(s) + l, spec) for l in range(m + 1)]
    return XiValue(sum((-1) ** l * v.value for l, v in enumerate(vals)),
                   sum(v.quad_error for v in vals))


def telescope_rhs(rho, s, m: int = 0) -> complex:
    """Closed form of Xi^m_rho(s) - Xi^m_rho(1-m-s)."""
    rho, s = complex(rho), complex(s)
    return np.sqrt(np.pi / rho) * (np.exp((s - 1) ** 2 / (16 * rho)) - np.exp((s + m) ** 2 / (16 * rho))) / 2


def mellin_delta4(rho, s, spec: QuadSpec | None = None) -> XiValue:
    """M[(Delta_4 Psi) exp(-rho ln^2)](s/2)."""
    return mellin(MellinKernel(ThetaOperator.delta4(), 0, complex(rho), complex(s) / 2), spec)


def delta4_identity_residual(rho, s, spec: QuadSpec | None = None) -> float:
    """Residual of the second-order identification

    M[(Delta_4 Psi) e](s/2) = (4s(s-1) - 32 rho) Xi + 32 rho (1-2s) Xi' + (16 rho)^2 Xi''.
    """
    rho, s = complex(rho), complex(s)
    lhs = mellin_delta4(rho, s, spec).value
    rhs = (
        (4 * s * (s - 1) - 32 * rho) * xi(rho, s, spec).value
        + 32 * rho * (1 - 2 * s) * xi_ds(rho, s, 1, spec).value
        + (16 * rho) ** 2 * xi_ds(rho, s, 2, spec).value
    )
    return abs(lhs - rhs)


def d_rho_xi(rho, s, spec: QuadSpec | None = None) -> XiValue:
    """d/drho Xi_rho(s) = -M[Psi ln^2 exp(-rho ln^2)](s/2)."""
    base = mellin(MellinKernel(ThetaOperator.plain(), 2, complex(rho), complex(s) / 2), spec)
    return XiValue(-base.value, base.quad_error)


def heat_residual(rho, s, spec: QuadSpec | None = None) -> float:
    """|d_rho Xi + 4 d^2_s Xi|; both sides are the same log moment."""
    a = d_rho_xi(rho, s, spec)
    b = xi_ds(rho, s, 2, spec)
    return abs(a.value + 4 * b.value)
