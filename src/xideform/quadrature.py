"""Quadrature: the log-axis trapezoid rule for Mellin integrals, tensor cubes (d <= 3).

Every 1D log-axis integrand here, (op Psi)(e^x) x^m e^{a x - rho x^2}, is analytic in
the strip |Im x| < pi/2 and decays like a Gaussian at both ends, so the trapezoid rule
converges geometrically in 1/h.  By Poisson summation its error at step h is the sum
of the aliases M(a + 2 pi i k / h), k != 0, so the step is set by the oscillation
frequency and the tolerance, and the difference to the half-resolution sum on the
even nodes is a free error estimate.  Tensor integrals use per-axis Gauss-Legendre
panels at two orders; the order difference is the error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonConvergenceError

# relative rounding of a double-precision sum, applied to its largest term
_ROUNDING = 1e-16


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and budget for the quadrature rules."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    trunc_radius: float = 9.0
    max_panels: int = 4000
    panel_order: int = 15

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.trunc_radius <= 0:
            raise DomainError("QuadSpec tolerances and radius must be positive")

    @staticmethod
    def for_dimension(d: int) -> "QuadSpec":
        if d >= 3:
            return QuadSpec(abs_tol=1e-9, rel_tol=1e-7)
        return QuadSpec()


@dataclass(frozen=True)
class IntegralResult:
    """value, error_estimate and peak_mass are arrays when the integrand is vector-valued.

    peak_mass, the largest integrand modulus times the window width, is tracked by the
    log-axis rule only.
    """

    value: complex
    error_estimate: float
    evaluations: int
    peak_mass: float = 0.0


def trapezoid(node_sums, x_lo: float, x_hi: float, omega: float, spec: QuadSpec) -> IntegralResult:
    """Trapezoid rule on the anchored grid x_j = j h inside [x_lo, x_hi], halving h as needed.

    node_sums(x) returns (sum of the integrand over the nodes x, largest modulus among
    them), both scalars or both arrays over the integrand's components.  The first
    step is h = 2^-ceil(log2((omega + c) / pi)) with c = (2/pi) ln(1/abs_tol): the
    transform decays like e^{-pi |Im a| / 2} along the strip, so the nearest alias,
    2 pi / h above the oscillation frequency omega, is below abs_tol even at step 2h.
    The error estimate is |T_h - T_2h| plus a rounding floor, 1e-16 times the
    largest term times the window.  h is halved, evaluating only the new odd nodes,
    until the estimate is within max(abs_tol, rel_tol |T_h|, rounding floor) for every
    component; NonConvergenceError is raised once the next grid would pass
    max_panels * panel_order nodes.
    """
    width = x_hi - x_lo
    c = 2.0 / math.pi * math.log(1.0 / spec.abs_tol)
    h = 2.0 ** -math.ceil(math.log2((omega + c) / math.pi))

    def nodes(step, offset):
        return offset + step * np.arange(math.ceil((x_lo - offset) / step), math.floor((x_hi - offset) / step) + 1)

    grid = nodes(2 * h, 0.0)
    s_even, peak = node_sums(grid)
    evals = grid.size
    while True:
        odd = nodes(2 * h, h)
        s_odd, p_odd = node_sums(odd)
        peak = np.maximum(peak, p_odd)
        evals += odd.size
        t_h = h * (s_even + s_odd)
        err = np.abs(t_h - 2 * h * s_even)
        floor = _ROUNDING * peak * width
        if np.all(err <= np.maximum(np.maximum(spec.abs_tol, spec.rel_tol * np.abs(t_h)), floor)):
            return IntegralResult(t_h, err + floor, evals, peak * width)
        if 2 * evals > spec.max_panels * spec.panel_order:
            raise NonConvergenceError(
                f"log-axis trapezoid did not converge at step {h:.3g} "
                f"(err={float(np.max(err)):.3g}, nodes={evals})",
                best_value=t_h,
                error_estimate=float(np.max(err)),
            )
        s_even, h = s_even + s_odd, h / 2


def integrate_log_axis(integrand, spec: QuadSpec | None = None, x_lo: float | None = None,
                       x_hi: float | None = None, omega: float = 0.0) -> IntegralResult:
    """Integrate a complex-valued integrand over the truncated log axis [x_lo, x_hi].

    The integrand must accept a numpy array of real points; omega is its oscillation
    frequency on the window.  Defaults to the symmetric window [-trunc_radius, trunc_radius].
    """
    spec = spec or QuadSpec()
    a = -spec.trunc_radius if x_lo is None else x_lo
    b = spec.trunc_radius if x_hi is None else x_hi
    if not b > a:
        raise DomainError("empty integration window")

    def node_sums(x):
        vals = np.asarray(integrand(x), dtype=complex)
        return complex(vals.sum()), float(np.abs(vals).max(initial=0.0))

    res = trapezoid(node_sums, a, b, omega, spec)
    return IntegralResult(complex(res.value), float(res.error_estimate), res.evaluations, float(res.peak_mass))


@lru_cache(maxsize=64)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(a: float, b: float, n_panels: int, order: int):
    """Gauss-Legendre nodes/weights on n_panels equal panels spanning [a, b]."""
    x, w = _leggauss(order)
    edges = np.linspace(a, b, n_panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1] - edges[0]) / 2.0
    nodes = (mid[:, None] + half * x[None, :]).reshape(-1)
    weights = np.broadcast_to(half * w[None, :], (n_panels, order)).reshape(-1)
    return nodes, weights.copy()


def plan_axis(lin_re: float, quad_re: float, log_tol: float, theta_like: bool = True,
              delta_like: bool = False) -> tuple[float, float]:
    """Truncation window [x_lo, x_hi] for integrands e^{a x - rho x^2} * kernel(e^x).

    lin_re is Re(a); quad_re is Re(rho) > 0.  Theta-bearing kernels grow like
    e^{-x/2}/2 to the left and die like e^{-pi e^x} to the right; delta-like
    (self-reciprocal) kernels die superexponentially on both sides.
    """
    if quad_re <= 0:
        raise DomainError("Gaussian coefficient must have positive real part")
    lam = max(log_tol, 8.0) + 6.0

    def gauss_cut(slope):
        # decay exponent slope*x - quad_re*x^2 going left: solve -slope X - c X^2 = -lam
        return (-slope + math.sqrt(slope * slope + 4.0 * quad_re * lam)) / (2.0 * quad_re)

    def theta_cut(slope):
        # right side: slope*x - pi e^x = -lam, iterate
        x = math.log1p(lam / math.pi)
        for _ in range(40):
            x = math.log1p((lam + max(slope, 0.0) * max(x, 0.0)) / math.pi)
        return x + 1.0

    if not theta_like:
        x_lo = -gauss_cut(lin_re)
        x_hi = gauss_cut(-lin_re)
        return x_lo, x_hi
    left_slope = lin_re - 0.5
    if delta_like:
        # mirror of the right-side theta cut, driven by e^{-pi e^{-x}}
        x_lo = -theta_cut(-(lin_re - 0.5)) - 1.0
    else:
        x_lo = -gauss_cut(left_slope)
    x_hi = min(theta_cut(lin_re), gauss_cut(-lin_re))
    return x_lo, x_hi


def oscillation_panels(x_lo: float, x_hi: float, omega: float, base: int = 6) -> int:
    """Panel count so each panel holds at most ~3 radians of phase."""
    width = x_hi - x_lo
    return int(max(base, math.ceil(width * (omega + 0.5) / 3.0)))


def tensor_integrate(integrand, d: int, spec: QuadSpec | None = None,
                     x_lo=None, x_hi=None, panels: int | None = None) -> IntegralResult:
    """Nested quadrature of a vectorized integrand over the truncated cube [-X, X]^d.

    The integrand must accept an array of shape (npoints, d) and return complex values.
    Error is estimated from two Gauss-Legendre orders on the same panel decomposition;
    panels double (up to the budget) until the estimate passes the tolerances.
    """
    spec = spec or QuadSpec.for_dimension(d)
    if d not in (1, 2, 3):
        raise DomainError("tensor_integrate supports d in {1, 2, 3}")
    lo = np.full(d, -spec.trunc_radius) if x_lo is None else np.broadcast_to(np.asarray(x_lo, float), (d,))
    hi = np.full(d, spec.trunc_radius) if x_hi is None else np.broadcast_to(np.asarray(x_hi, float), (d,))
    n_panels = panels or max(4, int(math.ceil((hi - lo).max() / 2.0)))

    def evaluate(order, n_pan):
        axes = [panel_nodes(lo[i], hi[i], n_pan, order) for i in range(d)]
        grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
        vals = np.asarray(integrand(pts), dtype=complex)
        wgrid = axes[0][1]
        for i in range(1, d):
            wgrid = np.multiply.outer(wgrid, axes[i][1])
        return complex((vals.reshape(wgrid.shape) * wgrid).sum()), pts.shape[0]

    evals = 0
    while True:
        hi_order = spec.panel_order
        lo_order = max(4, hi_order - 5)
        v_hi, n1 = evaluate(hi_order, n_panels)
        v_lo, n2 = evaluate(lo_order, n_panels)
        evals += n1 + n2
        err = abs(v_hi - v_lo)
        if err <= max(spec.abs_tol, spec.rel_tol * abs(v_hi)):
            return IntegralResult(v_hi, err, evals)
        if n_panels * 2 > max(8, spec.max_panels // (10 ** (d - 1))):
            raise NonConvergenceError(
                f"tensor quadrature stalled at {n_panels} panels/axis (err={err:.3g})",
                best_value=v_hi,
                error_estimate=err,
            )
        n_panels *= 2
