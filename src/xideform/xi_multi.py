"""Multidimensional integrals Xi(rho, s) and the Jensen variant xi(rho, s), d <= 3.

The integrand factorizes per axis up to the off-diagonal coupling
exp(-2 sum_{i<j} rho_ij x_i x_j), so evaluation splits into per-axis node data
(a bounded complex part and a real log-magnitude exponent, to survive the
t^{-1/2}/2 growth of the theta sum far on the left) combined through the coupling
matrix.  Error comes from repeating the product rule at two Gauss orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError
from .gaussmat import RhoMatrix
from .quadrature import QuadSpec, oscillation_panels, panel_nodes, plan_axis
from .theta import LOG_TAIL_SPLIT, ThetaOperator, theta_values
from .xi_core import _EXP_LIMIT, XiValue


@dataclass(frozen=True)
class MultiXiParams:
    """Parameter bundle for the d-dimensional family."""

    rho: RhoMatrix
    s: tuple
    variant: str = "theta"  # "theta" (Psi per axis) or "jensen" (Delta4 Psi per axis)

    def __post_init__(self):
        if self.variant not in ("theta", "jensen"):
            raise DomainError(f"unknown variant {self.variant!r}")
        if len(self.s) != self.rho.d:
            raise DomainError("s must have length d")

    @staticmethod
    def make(rho, s, variant="theta") -> "MultiXiParams":
        mat = rho if isinstance(rho, RhoMatrix) else RhoMatrix.from_array(rho)
        return MultiXiParams(mat, tuple(complex(v) for v in np.atleast_1d(s)), variant)


def _axis_operator(variant: str) -> ThetaOperator:
    return ThetaOperator.plain() if variant == "theta" else ThetaOperator.delta4()


def _axis_data(op: ThetaOperator, x, w, a, rho_ii, power: int):
    """(V, E): axis factor = V * exp(E) with V bounded complex, E real.

    Factor is w * (op Psi)(e^x) * x^power * exp(a x - rho_ii x^2).
    """
    a = complex(a)
    rho_ii = complex(rho_ii)
    g = a * x - rho_ii * x * x
    V = np.empty(x.shape, dtype=complex)
    E = np.empty(x.shape, dtype=float)
    right = x >= LOG_TAIL_SPLIT
    if right.any():
        th = theta_values(op, np.exp(x[right]))
        V[right] = th
        E[right] = 0.0
    if (~right).any():
        c1, c2 = op.left_tail_coeffs()
        xl = x[~right]
        V[~right] = c1 + c2 * np.exp(xl / 2.0)
        E[~right] = -xl / 2.0
    V = V * w * np.exp(1j * g.imag) * (x**power if power else 1.0)
    E = E + g.real
    return V, E


def _axis_plan(op: ThetaOperator, a, rho_re, tol_log):
    c1, c2 = op.left_tail_coeffs()
    delta_like = abs(c1) + abs(c2) == 0.0
    return plan_axis(complex(a).real, rho_re, tol_log, theta_like=True, delta_like=delta_like)


def xi_d(params: MultiXiParams, spec: QuadSpec | None = None, powers=None) -> XiValue:
    """Tensor quadrature of prod_i t_i^{s_i/2} K(t_i) exp(-sum rho_ij ln t_i ln t_j).

    K is Psi (theta variant) or Delta_4 Psi (jensen).  `powers` optionally inserts
    prod_i (ln t_i)^{p_i} for the log-moment (heat-equation) integrals.
    """
    rho = params.rho
    rho.require_convergent()
    d = rho.d
    spec = spec or QuadSpec.for_dimension(d)
    a = rho.array()
    s = np.array(params.s, dtype=complex)
    powers = tuple(powers) if powers is not None else (0,) * d
    op = _axis_operator(params.variant)
    tol_log = -math.log(min(spec.abs_tol, 1e-9)) + 8.0

    windows = [_axis_plan(op, s[i] / 2, a[i, i].real, tol_log) for i in range(d)]
    spans = [hi - lo for lo, hi in windows]
    omegas = []
    for i in range(d):
        xmax_i = max(abs(windows[i][0]), abs(windows[i][1]))
        om = abs(s[i].imag) / 2 + 2 * abs(a[i, i].imag) * xmax_i
        for j in range(d):
            if j != i:
                om += 2 * abs(a[i, j].imag) * max(abs(windows[j][0]), abs(windows[j][1]))
        omegas.append(om)
    panel_counts = [oscillation_panels(*windows[i], omegas[i], base=max(4, int(spans[i] / 2.5))) for i in range(d)]

    def assemble(order):
        axes = []
        for i in range(d):
            xi_nodes, wi = panel_nodes(windows[i][0], windows[i][1], panel_counts[i], order)
            V, E = _axis_data(op, xi_nodes, wi, s[i] / 2, a[i, i], powers[i])
            axes.append((xi_nodes, V, E))
        if d == 1:
            x1, V1, E1 = axes[0]
            _check_peak(E1.max())
            return complex((V1 * np.exp(E1)).sum())
        if d == 2:
            (x1, V1, E1), (x2, V2, E2) = axes
            C = -2 * a[0, 1] * np.outer(x1, x2)
            _check_peak(E1.max() + E2.max() + C.real.max())
            M = np.exp(E1[:, None] + E2[None, :] + C)
            return complex(V1 @ M @ V2)
        (x1, V1, E1), (x2, V2, E2), (x3, V3, E3) = axes
        C23 = -2 * a[1, 2] * np.outer(x2, x3)
        base = E2[:, None] + E3[None, :] + C23
        _check_peak(E1.max() + float(base.real.max()) + 2 * (abs(a[0, 1]) + abs(a[0, 2])) *
                    max(abs(x1).max() * abs(x2).max(), abs(x1).max() * abs(x3).max()))
        r12 = -2 * a[0, 1] * x2
        r13 = -2 * a[0, 2] * x3
        total = 0j
        for j in range(x1.size):
            M = np.exp(base + (E1[j] + x1[j] * r12)[:, None] + (x1[j] * r13)[None, :])
            total += V1[j] * (V2 @ M @ V3)
        return complex(total)

    order_hi = 12
    order_lo = 8
    attempts = 0
    while True:
        v_hi = assemble(order_hi)
        v_lo = assemble(order_lo)
        err = abs(v_hi - v_lo)
        if err <= max(spec.abs_tol, spec.rel_tol * abs(v_hi)):
            return XiValue(v_hi, err)
        attempts += 1
        if attempts > 2:
            raise NonConvergenceError(
                f"xi_d stalled (err={err:.3g}, panels={panel_counts})",
                best_value=v_hi, error_estimate=err,
            )
        panel_counts = [2 * p for p in panel_counts]


def _check_peak(top: float):
    if top > _EXP_LIMIT:
        raise DomainError(f"tensor integrand magnitude exp({top:.0f}) exceeds double range")


def jensen_xi_d(rho, s, spec: QuadSpec | None = None) -> XiValue:
    return xi_d(MultiXiParams.make(rho, s, "jensen"), spec)


def jensen_flip_residual(rho, s, k: int, spec: QuadSpec | None = None) -> float:
    """|xi(rho, s) - xi(flip_k rho, s with s_k -> 1-s_k)|; Delta_4 Psi kills the boundary."""
    params = MultiXiParams.make(rho, s, "jensen")
    s_flipped = list(params.s)
    s_flipped[k] = 1 - s_flipped[k]
    flipped = MultiXiParams.make(params.rho.flip_k(k), s_flipped, "jensen")
    return abs(xi_d(params, spec).value - xi_d(flipped, spec).value)


def heat_residual_multi(rho, s, i: int, j: int, spec: QuadSpec | None = None) -> float:
    """|d_rho_ij Xi + 8/(1+delta_ij) d^2_{s_i s_j} Xi|, both as one log-moment integral.

    d_rho_ij inserts -(2 - delta_ij) x_i x_j, the s-derivatives insert x_i x_j / 4.
    """
    params = MultiXiParams.make(rho, s, "theta")
    d = params.rho.d
    powers = [0] * d
    powers[i] += 1
    powers[j] += 1
    moment = xi_d(params, spec, powers=powers).value
    delta = 1.0 if i == j else 0.0
    lhs = -(2.0 - delta) * moment
    rhs = (8.0 / (1.0 + delta)) * moment / 4.0
    return abs(lhs + rhs)


def d_rho_ij_xi_d(rho, s, i: int, j: int, spec: QuadSpec | None = None) -> XiValue:
    """d/d rho_ij of Xi(rho, s) as a log-moment integral (for cross-checks)."""
    params = MultiXiParams.make(rho, s, "theta")
    powers = [0] * params.rho.d
    powers[i] += 1
    powers[j] += 1
    base = xi_d(params, spec, powers=powers)
    scale = 1.0 if i == j else 2.0
    return XiValue(-scale * base.value, scale * base.quad_error)
