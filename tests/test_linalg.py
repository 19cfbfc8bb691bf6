"""Tests for dense spectral helpers: exp, principal log, decompositions."""

import numpy as np
import pytest
import scipy.linalg

from trottergibbs.gqsp import GqspAngles, LaurentPoly
from trottergibbs.linalg import (
    BranchCutError,
    ToleranceError,
    assert_hermitian,
    assert_unitary,
    eigh_decompose,
    hermitian_part,
    matrix_log_unitary,
    max_abs,
    spectral_apply,
    spectral_norm,
    unitary_decompose,
)
from trottergibbs.lwf import FourierApprox, TaylorSeries

Z = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def matrix_exp(h: np.ndarray, scalar: complex = 1.0) -> np.ndarray:
    """exp(scalar * h) for Hermitian h through the checked eigendecomposition."""
    vals, vecs = eigh_decompose(h)
    return spectral_apply(vecs, np.exp(scalar * vals))


def test_matrix_exp_pauli_z_quarter_turn():
    u = matrix_exp(Z, 1j * np.pi / 2)
    assert np.allclose(u, np.diag([1j, -1j]), atol=1e-14)


def test_matrix_exp_zero_scalar():
    h = random_hermitian(np.random.default_rng(0), 5)
    assert np.allclose(matrix_exp(h, 0.0), np.eye(5), atol=1e-14)


def test_matrix_exp_imaginary_scalar_is_unitary():
    rng = np.random.default_rng(1)
    for _ in range(10):
        h = random_hermitian(rng, 6)
        u = matrix_exp(h, 1j * rng.uniform(-3, 3))
        assert_unitary(u)


def test_matrix_exp_rejects_nonhermitian():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ToleranceError):
        matrix_exp(a, 1j)


def test_matrix_log_identity():
    assert max_abs(matrix_log_unitary(np.eye(4, dtype=complex))) < 1e-14


def test_matrix_log_diagonal_phases():
    u = np.diag(np.exp(1j * np.array([0.3, -0.7])))
    log_u = matrix_log_unitary(u)
    assert np.allclose(log_u, np.diag(1j * np.array([0.3, -0.7])), atol=1e-12)


def test_matrix_log_round_trip_recovers_generator():
    rng = np.random.default_rng(2)
    for _ in range(12):
        h = random_hermitian(rng, 5)
        t = rng.uniform(0.05, 0.5) / max(spectral_norm(h), 1e-12)
        u = matrix_exp(h, 1j * t)
        recovered = matrix_log_unitary(u) / (1j * t)
        assert max_abs(hermitian_part(recovered) - h) < 1e-9


def test_matrix_log_is_antihermitian():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 4)
    log_u = matrix_log_unitary(matrix_exp(h, 0.2j))
    assert max_abs(log_u + log_u.conj().T) < 1e-14


def test_matrix_log_branch_cut_guard():
    u = np.diag([np.exp(1j * (np.pi - 1e-9)), 1.0])
    with pytest.raises(BranchCutError):
        matrix_log_unitary(u)


def test_matrix_log_rejects_nonunitary():
    with pytest.raises(ToleranceError):
        matrix_log_unitary(np.diag([2.0, 1.0]).astype(complex))


def test_eigh_decompose_reconstructs():
    rng = np.random.default_rng(4)
    for _ in range(8):
        h = random_hermitian(rng, 6)
        vals, vecs = eigh_decompose(h)
        assert max_abs(spectral_apply(vecs, vals) - h) < 1e-10
        # Functional calculus against direct expm.
        got = spectral_apply(vecs, np.exp(-vals))
        want = scipy.linalg.expm(-h)
        assert max_abs(got - want) < 1e-9


def test_unitary_decompose_eigenvalues_on_circle():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 5)
    vals, _ = unitary_decompose(matrix_exp(h, 0.7j))
    assert max_abs(np.abs(vals) - 1.0) < 1e-10


@pytest.mark.parametrize(
    "build, names",
    [
        (lambda a, b: TaylorSeries(1.0, a), ["coeffs"]),
        (lambda a, b: FourierApprox(1.0, 0.5, 1, a, 1e-3), ["c"]),
        (lambda a, b: LaurentPoly(1, a), ["c"]),
        (lambda a, b: GqspAngles(a, b, 0.0), ["theta", "phi"]),
    ],
    ids=["TaylorSeries", "FourierApprox", "LaurentPoly", "GqspAngles"],
)
def test_frozen_values_hold_read_only_copies(build, names):
    a, b = np.array([0.3, 0.0, 0.3]), np.array([0.1, 0.2, 0.3])
    value = build(a, b)
    for name in names:
        with pytest.raises(ValueError, match="read-only"):
            getattr(value, name)[0] = 0.5
    # The caller's arrays stay writable, and a write there does not reach the value.
    a[0] = b[0] = 0.5
    assert all(getattr(value, name)[0] != 0.5 for name in names)


@pytest.mark.parametrize("decompose", [eigh_decompose, unitary_decompose])
def test_decomposed_eigenvalues_own_their_memory(decompose):
    vals, _ = decompose(Z)
    assert vals.base is None  # not a view that keeps the Schur factor alive


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(6)
    for _ in range(8):
        h = random_hermitian(rng, 5)
        assert np.isclose(spectral_norm(h), np.linalg.norm(h, 2), atol=1e-12)


def test_hermitian_part_guard():
    # The discarded anti-Hermitian part may be at most DISCARD_TOL = 1e-10.
    a = np.array([[0.0, 1.0 + 1e-11], [1.0, 0.0]], dtype=complex)
    assert np.allclose(hermitian_part(a), np.array([[0, 1], [1, 0]]))
    with pytest.raises(ToleranceError, match="anti-Hermitian part of test input"):
        hermitian_part(a + np.array([[0.0, 1e-9], [0.0, 0.0]]), what="test input")


def test_assertion_helpers():
    assert_hermitian(Z, what="pauli z")
    assert_unitary(np.diag([1j, -1j]), what="phase gate")
    with pytest.raises(ToleranceError):
        assert_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), what="jordan block")
    with pytest.raises(ToleranceError):
        assert_unitary(2 * np.eye(2, dtype=complex), what="scaled identity")
