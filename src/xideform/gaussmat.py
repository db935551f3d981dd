"""Symmetric complex coupling matrices rho (d <= 3): minors, reductions, Gaussian closed forms.

The 2x2 sub-determinants R_ik = rho_ii rho_kk - rho_ik^2 and
T_ijk = rho_ij rho_kk - rho_ik rho_jk drive both the dimension reduction
(integrating out one axis of the Gaussian coupling) and the explicit closed forms.
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

    def minor_R(self, i: int, k: int) -> complex:
        a = self.array()
        return complex(a[i, i] * a[k, k] - a[i, k] ** 2)

    def minor_T(self, i: int, j: int, k: int) -> complex:
        a = self.array()
        return complex(a[i, j] * a[k, k] - a[i, k] * a[j, k])

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

    def reduce_k(self, k: int) -> "RhoMatrix":
        """Delete row/column k; rho_ii -> R_ik/rho_kk, rho_ij -> T_ijk/rho_kk."""
        if self.d < 2:
            raise DomainError("reduce_k needs d >= 2")
        a = self.array()
        if a[k, k] == 0:
            raise SingularMatrixError("rho_kk = 0 in reduce_k")
        idx = [i for i in range(self.d) if i != k]
        out = np.empty((self.d - 1, self.d - 1), dtype=complex)
        for p, i in enumerate(idx):
            for q, j in enumerate(idx):
                out[p, q] = self.minor_R(i, k) / a[k, k] if i == j else self.minor_T(i, j, k) / a[k, k]
        return RhoMatrix.from_array(out)

    def flip_k(self, k: int) -> "RhoMatrix":
        """Negate the off-diagonal entries in row/column k (an involution)."""
        a = self.array()
        for i in range(self.d):
            if i != k:
                a[i, k] = -a[i, k]
                a[k, i] = -a[k, i]
        return RhoMatrix.from_array(a)

    def inverse(self) -> np.ndarray:
        """rho^{-1}; SingularMatrixError when its numerical rank (numpy's SVD test) is below d."""
        a = self.array()
        if np.linalg.matrix_rank(a) < self.d:
            raise SingularMatrixError("rho is singular")
        return np.linalg.inv(a)


def closed_form_e(rho: RhoMatrix, s) -> complex:
    """e(rho, s) = sqrt(pi^d / det rho) exp(s . rho^{-1} s / 16), principal root."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if s.size != rho.d:
        raise DomainError(f"s has length {s.size}, expected {rho.d}")
    inv = rho.inverse()  # a singular rho is refused before the convergence test
    rho.require_convergent()
    return complex(np.sqrt(np.pi**rho.d / rho.det()) * np.exp(s @ inv @ s / 16.0))


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
