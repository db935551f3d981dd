"""Quadrature: the log-axis trapezoid rule for every integral over a truncated line (the
Mellin integrals in d <= 3 dimensions), a nested Clenshaw-Curtis rule for s-segments.

Every log-axis integrand here, (op Psi)(e^x) x^m e^{a x - rho x^2} along each axis,
possibly coupled across axes by e^{-2 rho_ij x_i x_j}, is analytic in the strip
|Im x| < pi/2 and decays like a Gaussian at both ends, so the trapezoid rule converges
geometrically in 1/h along every axis.  By Poisson summation its error at step h is
the sum of the aliases M(a + 2 pi i k / h), k != 0, so the step is set by the
oscillation frequency and the tolerance, and the difference to the half-resolution
sum on the all-even subgrid is a free error estimate.  The Clenshaw-Curtis rule nests
the same way, its error taken from the last doubling (Trefethen, SIAM Review 50, 2008).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonConvergenceError

# relative rounding of a double-precision sum, applied to its largest term
_ROUNDING = 1e-16
# node budget of the trapezoid rule at d = 1, 2, 3.
# At d >= 2 it admits the grids of a nearly singular Re rho (0.19M nodes at d = 2 for a
# smallest eigenvalue of 0.0084, 10.2M at d = 3 for one of 0.03); the benchmark's grids
# converge on fewer than 10k and 0.61M nodes.
_MAX_NODES = {1: 60000, 2: 10**7, 3: 10**7}
# intervals of the first and of the last Clenshaw-Curtis level on an s-segment
_CC_START, _CC_MAX_INTERVALS = 32, 4096


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances of the quadrature rules.  The trapezoid rule's node budget is set by
    the dimension of the integral (`_MAX_NODES`), so one spec serves the 1D and the
    d = 3 integrals of an identity alike."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("QuadSpec tolerances must be positive")

    @staticmethod
    def for_dimension(d: int) -> "QuadSpec":
        if d >= 3:
            return QuadSpec(abs_tol=1e-9, rel_tol=1e-7)
        return QuadSpec()


@dataclass(frozen=True)
class IntegralResult:
    """value, error_estimate and peak_mass are arrays when the integrand is vector-valued.

    peak_mass is the largest integrand modulus times the volume of the box.
    """

    value: complex
    error_estimate: float
    evaluations: int
    peak_mass: float = 0.0


def trapezoid(node_sums, x_lo, x_hi, omega, spec: QuadSpec) -> IntegralResult:
    """Trapezoid rule on the anchored grid x_j = j h_i along each axis i of the box
    prod_i [x_lo_i, x_hi_i], halving every h_i as needed.

    x_lo, x_hi and omega are scalars (d = 1) or per-axis sequences (d <= 3).  node_sums(x_1,
    ..., x_d) returns (sum of the integrand over the tensor product of the node arrays,
    largest modulus there), both scalars or both arrays over the integrand's
    components.  The first step along axis i is h_i = 2^-ceil(log2((omega_i + c) / pi))
    with c = (2/pi) ln(1/abs_tol): the transform decays like e^{-pi |Im a| / 2} along
    the strip, so the nearest alias, 2 pi / h_i above the oscillation frequency
    omega_i, is below abs_tol even at step 2 h_i.  The error estimate is |T_h - T_2h|
    plus a rounding floor, 1e-16 times the largest term times the volume; T_2h is the
    sum over the all-even subgrid already held.  h is halved, evaluating only the
    2^d - 1 parity classes of new nodes (the odd nodes at d = 1), until the estimate
    is within max(abs_tol, rel_tol |T_h|, rounding floor) for every component;
    NonConvergenceError is raised once the next grid would pass the node budget.  At
    d >= 2 the classes with an even axis receive the previous grid's own node arrays,
    so node_sums can reuse per-axis data it computed for them.
    """
    x_lo, x_hi, omega = ([float(v)] if np.isscalar(v) else [float(u) for u in v] for v in (x_lo, x_hi, omega))
    d = len(x_lo)
    if d not in _MAX_NODES:
        raise DomainError("the trapezoid rule supports d in {1, 2, 3}")
    volume = math.prod(hi - lo for lo, hi in zip(x_lo, x_hi))
    c = 2.0 / math.pi * math.log(1.0 / spec.abs_tol)
    h = [2.0 ** -math.ceil(math.log2((om + c) / math.pi)) for om in omega]
    parities = list(itertools.product((0, 1), repeat=d))[1:]

    def nodes(i, offset):
        step = 2 * h[i]
        return offset + step * np.arange(math.ceil((x_lo[i] - offset) / step),
                                         math.floor((x_hi[i] - offset) / step) + 1)

    grid = [nodes(i, 0.0) for i in range(d)]
    s_even, peak = node_sums(*grid)
    evals = math.prod(x.size for x in grid)
    while True:
        # the even nodes of a halving are the previous grid, passed as the same arrays,
        # so every class with an odd axis is new (at d = 1 only the odd nodes are needed)
        parts = [(grid[i], nodes(i, h[i])) for i in range(d)]
        s_new = 0.0
        for parity in parities:
            axes = [parts[i][p] for i, p in enumerate(parity)]
            if all(x.size for x in axes):
                s, p = node_sums(*axes)
                s_new, peak = s_new + s, np.maximum(peak, p)
                evals += math.prod(x.size for x in axes)
        cell = math.prod(h)
        t_h = cell * (s_even + s_new)
        err = np.abs(t_h - 2**d * cell * s_even)
        floor = _ROUNDING * peak * volume
        if np.all(err <= np.maximum(np.maximum(spec.abs_tol, spec.rel_tol * np.abs(t_h)), floor)):
            return IntegralResult(t_h, err + floor, evals, peak * volume)
        if 2**d * evals > _MAX_NODES[d]:
            raise NonConvergenceError(
                f"trapezoid rule did not converge at step {min(h):.3g} "
                f"(err={float(np.max(err)):.3g}, nodes={evals})",
                best_value=t_h,
                error_estimate=float(np.max(err)),
            )
        s_even, h = s_even + s_new, [step / 2 for step in h]
        grid = [nodes(i, 0.0) for i in range(d)]


@lru_cache(maxsize=16)
def _cc_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights of the nodes sin^2(pi k / 2n), k = 0..n, on [0, 1] (n even),
    as one inverse FFT (Waldvogel, BIT 46, 2006)."""
    odd = np.arange(1, n, 2)
    v = np.concatenate([2.0 / (odd * (odd - 2.0)), [1.0 / odd[-1]], np.zeros(n - odd.size)])
    g = np.full(n, -1.0)
    g[n // 2] += 2 * n
    w = np.fft.ifft(-v[:-1] - v[:0:-1] + g / (n * n - 1.0)).real
    w = np.append(w, w[0]) / 2.0
    w.flags.writeable = False  # one cached array serves every caller
    return w


def clenshaw_curtis(node_values, spec: QuadSpec) -> IntegralResult:
    """Nested Clenshaw-Curtis rule on [0, 1] with n = 32, 64, ... intervals.

    node_values(u) returns (f, f_err): the integrand at the nodes u, shape (..., len(u))
    for a vector-valued integrand, and the values' absolute errors, of the same shape.
    The nodes of n intervals are u_k = sin^2(pi k / 2n), k = 0..n, and its even nodes are
    those of n/2 intervals, so |I_n - I_{n/2}| costs nothing and a doubling evaluates
    only the n new odd nodes, in one call.  n doubles until that difference is within
    max(abs_tol, rel_tol |I_n|, rounding floor) for every component, the floor being
    1e-16 sum_k w_k |f_k|; the error estimate is the difference plus the floor plus
    sum_k w_k f_err_k.  NonConvergenceError is raised past _CC_MAX_INTERVALS.
    """
    n = _CC_START
    f, f_err = node_values(np.sin(np.pi / (2 * n) * np.arange(n + 1)) ** 2)
    while True:
        w = _cc_weights(n)
        value, mass = f @ w, np.abs(f) @ w
        err = np.abs(value - f[..., ::2] @ _cc_weights(n // 2))
        floor = _ROUNDING * mass
        if np.all(err <= np.maximum(np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value)), floor)):
            return IntegralResult(value, err + floor + f_err @ w, f.shape[-1], mass)
        if n >= _CC_MAX_INTERVALS:
            raise NonConvergenceError(
                f"Clenshaw-Curtis rule did not converge at {n} intervals (err={float(np.max(err)):.3g})",
                best_value=value,
                error_estimate=float(np.max(err)),
            )
        n *= 2
        new, new_err = node_values(np.sin(np.pi / (2 * n) * np.arange(1, n, 2)) ** 2)
        # the previous level's nodes are the even nodes of the new one
        odd = np.arange(1, f.shape[-1])
        f, f_err = np.insert(f, odd, new, axis=-1), np.insert(f_err, odd, new_err, axis=-1)
