"""Symmetric complex coupling matrices rho (d <= 3) and the Gaussian integrals over them.

One function, `marginal`, integrates a set S of axes out of the Gaussian
e^{-x.rho x + s.x/2}: a factor, the Schur complement of rho_SS on the remaining axes
and the shifted arguments there.  The closed form e(rho, s) is its all-axes case, and
every reduced term of the functional equations (`funceq`) is one of its partial cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMatrixError


@dataclass(frozen=True)
class RhoMatrix:
    """Symmetric d x d complex matrix, d in {1, 2, 3}."""

    entries: tuple

    @staticmethod
    def from_array(a) -> "RhoMatrix":
        a = np.asarray(a, dtype=complex)
        if a.ndim == 0:
            a = a.reshape(1, 1)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (1, 2, 3):
            raise DomainError(f"rho must be square with d in 1..3, got shape {a.shape}")
        if not np.array_equal(a, a.T):
            raise DomainError("rho must be exactly symmetric")
        return RhoMatrix(tuple(map(tuple, a)))

    @property
    def d(self) -> int:
        return len(self.entries)

    def array(self) -> np.ndarray:
        return np.array(self.entries, dtype=complex)

    def det(self) -> complex:
        return complex(np.linalg.det(self.array()))

    def convergence_ok(self) -> bool:
        """Whether Re rho is positive definite (every principal minor positive): the
        Cholesky factorisation of Re rho exists."""
        try:
            np.linalg.cholesky(self.array().real)
        except np.linalg.LinAlgError:
            return False
        return True

    def require_convergent(self):
        if not self.convergence_ok():
            raise DomainError("rho violates the convergence inequalities")

    def flip_k(self, k: int) -> "RhoMatrix":
        """Negate the off-diagonal entries in row/column k (an involution)."""
        sign = np.ones(self.d)
        sign[k] = -1.0
        return RhoMatrix.from_array(sign[:, None] * self.array() * sign)

    def inverse(self) -> np.ndarray:
        """rho^{-1}; SingularMatrixError when its numerical rank (numpy's SVD test) is below d."""
        a = self.array()
        if np.linalg.matrix_rank(a) < self.d:
            raise SingularMatrixError("rho is singular")
        return np.linalg.inv(a)


def marginal(rho: RhoMatrix, axes, s):
    """The axes S of e^{-x.rho x + s.x/2} integrated out, at each row of s (shape (n, d)).

    With A = rho_SS and B = rho_SR over the remaining axes R, returns (g, rho', s'):
    the factors g = sqrt(pi^|S| / det A) e^{s_S A^-1 s_S / 16} (principal root), shape
    (n,); the Schur complement rho' = rho_RR - B^T A^-1 B, None when R is empty; and the
    shifted arguments s' = s_R - B^T A^-1 s_S, shape (n, |R|).  So the integral over
    the axes S is g e^{-x_R.rho' x_R + s'.x_R/2}.  SingularMatrixError when A is
    singular; the convergence of the integral is the caller's to check.
    """
    k = len(axes)
    order = [*axes, *(i for i in range(rho.d) if i not in axes)]  # the axes S first
    a = rho.array().take(order, 0).take(order, 1)
    s = np.asarray(s, dtype=complex).take(order, 1)
    block, coupling, s_int = a[:k, :k], a[:k, k:], s[:, :k]
    try:
        inv = np.linalg.inv(block)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(f"rho is singular on the axes {list(axes)}") from None
    g = np.sqrt(np.pi**k / np.linalg.det(block)) * np.exp(np.einsum("ni,ij,nj->n", s_int, inv, s_int) / 16.0)
    if k == rho.d:
        return g, None, s[:, k:]
    solved = inv @ coupling
    schur = a[k:, k:] - coupling.T @ solved
    # symmetrised: rounding may leave B^T A^-1 B off symmetric, and a RhoMatrix must be exactly so
    return g, RhoMatrix.from_array((schur + schur.T) / 2), s[:, k:] - s_int @ solved


def closed_form_e(rho: RhoMatrix, s) -> complex:
    """e(rho, s) = sqrt(pi^d / det rho) exp(s . rho^{-1} s / 16), principal root: `marginal`
    over every axis."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if s.size != rho.d:
        raise DomainError(f"s has length {s.size}, expected {rho.d}")
    rho.inverse()  # a singular rho is refused before the convergence test
    rho.require_convergent()
    return complex(marginal(rho, range(rho.d), s[None])[0][0])


def rescale_class(rho: RhoMatrix, s, lam):
    """Representative (rho', s') of the scaling class and the matching prefactor.

    s'_i = s_i / lam_i, rho'_kl = rho_kl / (lam_k lam_l), prefactor = 1/prod(lam),
    so that e(rho, s) = prefactor * e(rho', s').
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.size != rho.d or np.any(lam <= 0):
        raise DomainError("lam must be a positive vector of length d")
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    scaled = rho.array() / np.outer(lam, lam)
    return RhoMatrix.from_array(scaled), s / lam, float(1.0 / lam.prod())
