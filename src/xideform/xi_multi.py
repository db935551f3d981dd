"""Multidimensional integrals Xi(rho, s) and the Jensen variant xi(rho, s), d <= 3.

The integrand factorizes per axis up to the off-diagonal coupling
exp(-2 sum_{i<j} rho_ij x_i x_j).  Each axis contributes `xi_core.node_data` times
e^{s_i x / 2} in polar form (a phase and a real log-magnitude, to survive the
t^{-1/2}/2 growth of the theta sum far on the left), and the node sums of the
shared log-axis trapezoid rule contract them through the coupling: a matrix product
at d = 2, one tensor contraction at d = 3.  The exponent tensor is real, built from Re rho_ij; an imaginary coupling
enters as the pair phase factors exp(-2i Im rho_ij x_i x_j), each over two axes,
multiplied in after the exponential.  The rule's |T_h - T_2h| is the error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gaussmat import RhoMatrix
from .quadrature import QuadSpec, trapezoid
from .theta import ThetaOperator
from .xi_core import XiValue, _check_range, _count_transforms, _log_power, _window, node_data


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


def _polar(values, exponent):
    """(phase, logmag) with values * e^exponent = phase * e^logmag and |phase| = 1, or 0
    where the value is below the subnormal range (it contributes nothing there and
    divides unsafely)."""
    mag = np.abs(values)
    ok = mag > 1e-280
    phase = np.where(ok, values / np.where(ok, mag, 1.0), 0.0)
    return phase, exponent + np.where(ok, np.log(np.maximum(mag, 1e-300)), -np.inf)


def xi_d(params: MultiXiParams, spec: QuadSpec | None = None, powers=None) -> XiValue:
    """The trapezoid rule for prod_i t_i^{s_i/2} K(t_i) exp(-sum rho_ij ln t_i ln t_j).

    K is Psi (theta variant) or Delta_4 Psi (jensen).  `powers` optionally inserts
    prod_i (ln t_i)^{p_i} for the log-moment (heat-equation) integrals; it must hold d
    non-negative integers (DomainError).  Axis i is planned like a 1D integral whose
    Gaussian is the marginal one, 1/((Re rho)^-1)_ii, whose window also covers the
    left-tail slope that the coupling leaves on it, and whose frequency includes the
    coupling's 2 |Im rho_ij| max|x_j|.
    """
    rho = params.rho
    d = rho.d
    powers = (0,) * d if powers is None else tuple(map(_log_power, powers))
    if len(powers) != d:
        raise DomainError(f"powers has length {len(powers)}, expected d = {d}")
    rho.require_convergent()
    _count_transforms(1)
    spec = spec or QuadSpec.for_dimension(d)
    a = rho.array()
    s = np.array(params.s, dtype=complex)
    op = _axis_operator(params.variant)
    inverse = np.linalg.inv(a.real)
    marginal = 1.0 / np.diag(inverse)
    # coupled left-tail slope (R^-1 b)_i / (R^-1)_ii, R = Re rho, b_j = (Re s_j - 1)/2, plus the 1/2 _window removes
    coupled = inverse @ ((s.real - 1) / 2) * marginal + 0.5 + 0.5j * s.imag
    plans = [_window(op, [s[i] / 2, coupled[i]], complex(marginal[i], a[i, i].imag), spec) for i in range(d)]
    reach = [max(abs(lo), abs(hi)) for lo, hi, _ in plans]
    omega = [om + sum(2 * abs(a[i, j].imag) * reach[j] for j in range(d) if j != i)
             for i, (_, _, om) in enumerate(plans)]

    held = {}

    def axis_data(j, x):
        # a grid's node array reaches 2^(d-1) parity classes, and the next halving as
        # its even nodes; holding the array keeps its id from being reused
        if (j, id(x)) not in held:
            V, E = node_data(op, x, a[j, j], powers[j])
            g = s[j] / 2 * x + E
            held[j, id(x)] = x, _polar(V * np.exp(1j * g.imag), g.real)
        return held[j, id(x)][1]

    def node_sums(*xs):
        # axis j of the tensor product runs along dimension j; its couplings to the
        # earlier axes join its own exponent, so only two additions span all d axes
        along = [x.reshape((-1,) + (1,) * (d - 1 - j)) for j, x in enumerate(xs)]
        phases, twists, expo = [], [], 0.0
        for j in range(d):
            phase, term = axis_data(j, xs[j])
            term = term.reshape(along[j].shape)
            for i in range(j):
                if a[i, j].real:
                    term = term - 2 * a[i, j].real * along[i] * along[j]
                if a[i, j].imag:
                    twists.append(np.exp(-2j * a[i, j].imag * along[i] * along[j]))
            phases.append(phase)
            expo = expo + term
        top = _check_range(float(np.max(expo)))
        # on reals (a small fraction of the cost of a complex exp), in place: expo is a fresh sum
        total = np.exp(expo, out=expo)
        for twist in twists:
            total = total * twist
        for phase in reversed(phases):
            # a real tensor meets the complex phases as two real products, not one cast
            total = total @ phase if np.iscomplexobj(total) else total @ phase.real + 1j * (total @ phase.imag)
        return complex(total), math.exp(top)

    res = trapezoid(node_sums, [p[0] for p in plans], [p[1] for p in plans], omega, spec)
    return XiValue(complex(res.value), float(res.error_estimate))


def jensen_xi_d(rho, s, spec: QuadSpec | None = None) -> XiValue:
    return xi_d(MultiXiParams.make(rho, s, "jensen"), spec)


def _pair_powers(d: int, i: int, j: int) -> list:
    """The powers that insert ln t_i ln t_j; DomainError unless i and j are axes, in range(d)."""
    if i not in range(d) or j not in range(d):
        raise DomainError(f"axes ({i}, {j}) must lie in range({d})")
    return [(a == i) + (a == j) for a in range(d)]


def heat_residual_multi(rho, s, i: int, j: int, spec: QuadSpec | None = None) -> float:
    """|d_rho_ij Xi + 8/(1+delta_ij) d^2_{s_i s_j} Xi|, both as one log-moment integral.

    d_rho_ij inserts -(2 - delta_ij) x_i x_j, the s-derivatives insert x_i x_j / 4, so
    the residual is zero by algebra: there is no independent route to d^2_{s_i s_j} Xi
    at 1e-12 yet (a central finite difference in rho_ij agrees to about 1e-6).
    """
    params = MultiXiParams.make(rho, s, "theta")
    moment = xi_d(params, spec, powers=_pair_powers(params.rho.d, i, j)).value
    delta = 1.0 if i == j else 0.0
    lhs = -(2.0 - delta) * moment
    rhs = (8.0 / (1.0 + delta)) * moment / 4.0
    return abs(lhs + rhs)


def d_rho_ij_xi_d(rho, s, i: int, j: int, spec: QuadSpec | None = None) -> XiValue:
    """d/d rho_ij of Xi(rho, s) as a log-moment integral (for cross-checks)."""
    params = MultiXiParams.make(rho, s, "theta")
    base = xi_d(params, spec, powers=_pair_powers(params.rho.d, i, j))
    scale = 1.0 if i == j else 2.0
    return XiValue(-scale * base.value, scale * base.quad_error)
