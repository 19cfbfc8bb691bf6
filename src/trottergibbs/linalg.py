"""Dense spectral kernels: validated exp/log of Hermitian and unitary matrices.

Everything here works through explicit spectral decompositions rather than
Pade-style approximants, so eigenvalues and eigenvectors stay available to
callers and branch-cut handling in the matrix logarithm is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
BRANCH_GAP = 1e-8


class ToleranceError(ValueError):
    """An input matrix failed a structural tolerance check."""


class BranchCutError(ValueError):
    """A unitary has an eigenphase too close to the -pi branch cut."""


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; the workhorse for closeness checks."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(a, 2))


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return max_abs(a - a.conj().T) <= tol


def is_unitary(a: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    eye = np.eye(a.shape[0])
    return max_abs(a.conj().T @ a - eye) <= tol


def assert_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL, what: str = "matrix"):
    dev = max_abs(a - a.conj().T)
    if dev > tol:
        raise ToleranceError(f"{what} is not Hermitian: deviation {dev:.3e} > {tol:.3e}")


def assert_unitary(a: np.ndarray, tol: float = UNITARY_TOL, what: str = "matrix"):
    dev = max_abs(a.conj().T @ a - np.eye(a.shape[0]))
    if dev > tol:
        raise ToleranceError(f"{what} is not unitary: deviation {dev:.3e} > {tol:.3e}")


@dataclass
class SpectralDecomposition:
    """Eigenvalues and an orthonormal eigenbasis of a normal matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns are eigenvectors

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def apply(self, fvals: np.ndarray) -> np.ndarray:
        """V diag(fvals) V^dag for a function evaluated on the eigenvalues."""
        v = self.eigenvectors
        return (v * fvals) @ v.conj().T

    def check(self, original: np.ndarray, tol: float = RECONSTRUCTION_TOL):
        dev = max_abs(self.reconstruct() - original)
        if dev > tol:
            raise ToleranceError(
                f"spectral reconstruction off by {dev:.3e} > {tol:.3e}"
            )


def eigh_decompose(h: np.ndarray, tol: float = HERMITIAN_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix (checked)."""
    assert_hermitian(h, tol)
    vals, vecs = np.linalg.eigh(h)
    dec = SpectralDecomposition(vals, vecs)
    dec.check(h)
    return dec


def unitary_decompose(u: np.ndarray, tol: float = UNITARY_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a unitary matrix (checked).

    Uses a complex Schur decomposition: for a normal matrix the Schur factor
    is diagonal and the basis is orthonormal even with degenerate
    eigenvalues, which plain nonsymmetric eig does not guarantee.
    """
    assert_unitary(u, tol)
    t, z = scipy.linalg.schur(u, output="complex")
    dec = SpectralDecomposition(np.diag(t).copy(), z)
    dec.check(u)
    return dec


def matrix_exp(h: np.ndarray, scalar: complex = 1.0, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """exp(scalar * h) for Hermitian h via eigendecomposition."""
    dec = eigh_decompose(h, tol)
    return dec.apply(np.exp(scalar * dec.eigenvalues))


def _principal_phases(
    eigenvalues: np.ndarray,
    tol: float = UNITARY_TOL,
    branch_gap: float = BRANCH_GAP,
) -> np.ndarray:
    """Eigenphases in (-pi, pi] of eigenvalues that must lie on the unit circle.

    Any eigenphase within ``branch_gap`` of the -pi cut is rejected, because
    the principal branch is discontinuous there.
    """
    mods = np.abs(eigenvalues)
    if max_abs(mods - 1.0) > max(tol, 1e-10):
        raise ToleranceError("eigenvalues are not on the unit circle")
    phases = np.angle(eigenvalues)
    if np.any(np.pi - np.abs(phases) < branch_gap):
        worst = float(np.min(np.pi - np.abs(phases)))
        raise BranchCutError(
            f"eigenphase within {worst:.3e} of the -pi branch cut (gap {branch_gap:.0e})"
        )
    return phases


def unitary_eigenphases(
    u: np.ndarray,
    tol: float = UNITARY_TOL,
    branch_gap: float = BRANCH_GAP,
) -> np.ndarray:
    """Principal eigenphases of a unitary; no eigenvectors are formed.

    The eigenvalues of a normal matrix are well conditioned, so plain
    ``eigvals`` gives them to rounding even where eigenvectors would not be.
    """
    assert_unitary(u, tol)
    return _principal_phases(np.linalg.eigvals(u), tol, branch_gap)


def matrix_log_unitary(
    u: np.ndarray,
    tol: float = UNITARY_TOL,
    branch_gap: float = BRANCH_GAP,
) -> np.ndarray:
    """Principal logarithm of a unitary: anti-Hermitian L with exp(L) = u.

    Eigenphases are taken in (-pi, pi] by ``_principal_phases``, which
    rejects any within ``branch_gap`` of the cut: the log would be
    meaningless downstream.
    """
    dec = unitary_decompose(u, tol)
    phases = _principal_phases(dec.eigenvalues, tol, branch_gap)
    log_u = dec.apply(1j * phases)
    # Principal log of a unitary is anti-Hermitian; enforce it exactly.
    log_u = 0.5 * (log_u - log_u.conj().T)
    dev = max_abs(scipy.linalg.expm(log_u) - u)
    if dev > 1e-9:
        raise ToleranceError(f"log round-trip failed: exp(log u) off by {dev:.3e}")
    return log_u


def hermitian_part(a: np.ndarray, max_discard: float | None = None, what: str = "matrix") -> np.ndarray:
    """(a + a^dag)/2, optionally asserting the discarded part is small."""
    herm = 0.5 * (a + a.conj().T)
    if max_discard is not None:
        dev = max_abs(a - herm)
        if dev > max_discard:
            raise ToleranceError(
                f"anti-Hermitian part of {what} is {dev:.3e} > {max_discard:.3e}"
            )
    return herm


def unitary_power(u: np.ndarray, k: int) -> np.ndarray:
    """u**k for integer k, using the adjoint for negative powers."""
    if k < 0:
        return np.linalg.matrix_power(u.conj().T, -k)
    return np.linalg.matrix_power(u, k)
