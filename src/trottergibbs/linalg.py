"""Dense spectral kernels: checked decompositions, eigenphases and unitary logs.

Everything here works through explicit spectral decompositions rather than
Pade-style approximants, so eigenvalues and eigenvectors stay available to
callers and branch-cut handling in the matrix logarithm is explicit.
Eigenphases come from the general ``eigvals`` (``unitary_eigenphases``) or,
for a stack of unitary blocks whose phases are bounded away from the cut,
from one Hermitian eigensolve of their Cayley transforms
(``cayley_eigenphases``).

SciPy is imported only inside ``unitary_decompose``, which
``matrix_log_unitary`` calls: the pipeline never calls either, so
importing the package does not load it.
"""

from __future__ import annotations

import math

import numpy as np

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
DISCARD_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
BRANCH_GAP = 1e-8
# Largest ||C|| = max |tan(phi / 2)| that ``cayley_eigenphases`` takes: its
# phases are good to about n eps (1 + ||C||^2), against n eps for eigvals.
CAYLEY_NORM_CAP = 10.0


class ToleranceError(ValueError):
    """An input matrix failed a structural tolerance check."""


class BranchCutError(ValueError):
    """A unitary has an eigenphase too close to the -pi branch cut."""


def read_only(a, dtype=None) -> np.ndarray:
    """A read-only copy of ``a`` for a frozen value to hold; ``a`` itself stays writable."""
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; the workhorse for closeness checks."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(a, 2))


def assert_hermitian(a: np.ndarray, what: str = "matrix"):
    dev = max_abs(a - a.conj().T)
    if dev > HERMITIAN_TOL:
        raise ToleranceError(f"{what} is not Hermitian: deviation {dev:.3e} > {HERMITIAN_TOL:.3e}")


def assert_unitary(a: np.ndarray, what: str = "matrix"):
    """Checks one matrix, or each matrix of a stack along the leading axes."""
    dev = max_abs(np.swapaxes(a, -1, -2).conj() @ a - np.eye(a.shape[-1]))
    if dev > UNITARY_TOL:
        raise ToleranceError(f"{what} is not unitary: deviation {dev:.3e} > {UNITARY_TOL:.3e}")


def spectral_apply(eigenvectors: np.ndarray, fvals: np.ndarray) -> np.ndarray:
    """V diag(fvals) V^dag for a function evaluated on the eigenvalues of V's columns."""
    return (eigenvectors * fvals) @ eigenvectors.conj().T


def _checked(eigenvalues, eigenvectors, original) -> tuple[np.ndarray, np.ndarray]:
    dev = max_abs(spectral_apply(eigenvectors, eigenvalues) - original)
    if dev > RECONSTRUCTION_TOL:
        raise ToleranceError(f"spectral reconstruction off by {dev:.3e} > {RECONSTRUCTION_TOL:.3e}")
    return eigenvalues, eigenvectors


def eigh_decompose(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors (columns) of a Hermitian matrix, checked."""
    assert_hermitian(h)
    return _checked(*np.linalg.eigh(h), h)


def unitary_decompose(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors (columns) of a unitary matrix, checked.

    Uses a complex Schur decomposition: for a normal matrix the Schur factor
    is diagonal and the basis is orthonormal even with degenerate
    eigenvalues, which plain nonsymmetric eig does not guarantee.  The
    eigenvalues are copied off the diagonal, so they do not keep the Schur
    factor alive.
    """
    import scipy.linalg

    assert_unitary(u)
    t, z = scipy.linalg.schur(u, output="complex")
    return _checked(np.diag(t).copy(), z, u)


def _principal_phases(eigenvalues: np.ndarray) -> np.ndarray:
    """Eigenphases in (-pi, pi] of eigenvalues that must lie on the unit circle.

    Any eigenphase within BRANCH_GAP of the -pi cut is rejected, because
    the principal branch is discontinuous there.
    """
    mods = np.abs(eigenvalues)
    if max_abs(mods - 1.0) > UNITARY_TOL:
        raise ToleranceError("eigenvalues are not on the unit circle")
    phases = np.angle(eigenvalues)
    if np.any(np.pi - np.abs(phases) < BRANCH_GAP):
        worst = float(np.min(np.pi - np.abs(phases)))
        raise BranchCutError(
            f"eigenphase within {worst:.3e} of the -pi branch cut (gap {BRANCH_GAP:.0e})"
        )
    return phases


def unitary_eigenphases(u: np.ndarray) -> np.ndarray:
    """Principal eigenphases of a unitary; no eigenvectors are formed.

    The eigenvalues of a normal matrix are well conditioned, so plain
    ``eigvals`` gives them to rounding even where eigenvectors would not be.
    """
    assert_unitary(u)
    return _principal_phases(np.linalg.eigvals(u))


def cayley_eigenphases(blocks: np.ndarray, phase_bound: float) -> np.ndarray:
    """Principal eigenphases of each block of a (n_blocks, size, size) unitary stack.

    U is normal, so (I + U)^-1 commutes with I - U and one batched solve
    gives the Cayley transform C = i (I + U)^-1 (I - U): Hermitian, with
    eigenvalue tan(phi / 2) where U has e^{i phi}.  The phases are
    2 arctan(eigvalsh(C)), in block order, with no general eigensolver.

    Rounding in C grows like 1 + ||C||^2 = 1 / cos^2(phi / 2).  A stack
    whose a-priori bound ``phase_bound`` on |phi| lets ||C|| pass
    CAYLEY_NORM_CAP, or whose realized ||C|| does, goes block by block
    through ``unitary_eigenphases`` instead, which also makes the
    branch-cut refusal: every phase this route returns is within
    2 arctan(CAYLEY_NORM_CAP) < pi - BRANCH_GAP of 0.  Each block is
    checked unitary, and C Hermitian within DISCARD_TOL.
    """
    if phase_bound <= 2.0 * math.atan(CAYLEY_NORM_CAP):
        assert_unitary(blocks, "unitary block")
        eye = np.eye(blocks.shape[-1])
        cayley = 1j * np.linalg.solve(eye + blocks, eye - blocks)
        tangents = np.linalg.eigvalsh(cayley).ravel()
        if max_abs(tangents) <= CAYLEY_NORM_CAP:
            dev = max_abs(cayley - np.swapaxes(cayley, -1, -2).conj())
            if dev > DISCARD_TOL:
                raise ToleranceError(
                    f"Cayley transform is not Hermitian: deviation {dev:.3e} > {DISCARD_TOL:.3e}"
                )
            return 2.0 * np.arctan(tangents)
    return np.concatenate([unitary_eigenphases(block) for block in blocks])


def matrix_log_unitary(u: np.ndarray) -> np.ndarray:
    """Principal logarithm of a unitary: anti-Hermitian L with exp(L) = u.

    Eigenphases are taken in (-pi, pi] by ``_principal_phases``, which
    rejects any within BRANCH_GAP of the cut: the log would be
    meaningless downstream.  exp(L) = V diag(e^{i phi}) V^dag needs no
    round trip: ``unitary_decompose`` checks V diag(lambda) V^dag
    within RECONSTRUCTION_TOL of u entrywise, and |e^{i phi_j} - lambda_j|
    = ||lambda_j| - 1| <= UNITARY_TOL, so exp(L) is within
    RECONSTRUCTION_TOL + UNITARY_TOL (2e-10) of u per entry, up to the
    rounding of the Schur basis.
    """
    vals, vecs = unitary_decompose(u)
    log_u = spectral_apply(vecs, 1j * _principal_phases(vals))
    # Principal log of a unitary is anti-Hermitian; enforce it exactly.
    return 0.5 * (log_u - log_u.conj().T)


def hermitian_part(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """(a + a^dag)/2, asserting the discarded anti-Hermitian part is within DISCARD_TOL."""
    herm = 0.5 * (a + a.conj().T)
    dev = max_abs(a - herm)
    if dev > DISCARD_TOL:
        raise ToleranceError(f"anti-Hermitian part of {what} is {dev:.3e} > {DISCARD_TOL:.3e}")
    return herm
