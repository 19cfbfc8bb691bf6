"""Tests for dense spectral helpers: exp, principal log, decompositions, eigenphases."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from trottergibbs.linalg import (
    BRANCH_GAP,
    CAYLEY_NORM_CAP,
    BranchCutError,
    ToleranceError,
    assert_hermitian,
    assert_unitary,
    cayley_eigenphases,
    eigh_decompose,
    hermitian_part,
    matrix_log_unitary,
    max_abs,
    spectral_apply,
    spectral_norm,
    unitary_decompose,
    unitary_eigenphases,
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
        (lambda a: TaylorSeries(1.0, a), ["coeffs"]),
        (lambda a: FourierApprox(1.0, 0.5, 1, a, 1e-3), ["c"]),
    ],
    ids=["TaylorSeries", "FourierApprox"],
)
def test_frozen_values_hold_read_only_copies(build, names):
    a = np.array([0.3, 0.0, 0.3])
    value = build(a)
    for name in names:
        with pytest.raises(ValueError, match="read-only"):
            getattr(value, name)[0] = 0.5
    # The caller's array stays writable, and a write there does not reach the value.
    a[0] = 0.5
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


# Largest phase the Cayley route takes: ||C|| = tan(phi / 2) = CAYLEY_NORM_CAP.
CAYLEY_PHASE_MAX = 2.0 * math.atan(CAYLEY_NORM_CAP)


def unitary_stack(seed: int, phases: np.ndarray) -> np.ndarray:
    """Blocks Q diag(e^{i phi}) Q^dag with Haar-like Q, one row of ``phases`` per block."""
    rng = np.random.default_rng(seed)
    n_blocks, size = phases.shape
    shape = (n_blocks, size, size)
    q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return (q * np.exp(1j * phases)[:, None, :]) @ np.swapaxes(q, -1, -2).conj()


@st.composite
def phase_stacks(draw, top):
    """(seed, phases) for 1-3 blocks of 1-24 rows, |phi| <= top, some of them at top."""
    n_blocks = draw(st.integers(1, 3))
    size = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phases = rng.uniform(-top, top, (n_blocks, size))
    edge = draw(st.integers(0, size))  # entries pushed to the edge of the range
    phases[:, :edge] = np.sign(phases[:, :edge] + 0.5) * top
    return draw(st.integers(0, 2**32 - 1)), phases


@settings(max_examples=60, deadline=None)
@given(phase_stacks(top=CAYLEY_PHASE_MAX))
def test_cayley_eigenphases_match_eigvals_within_the_conditioning_bound(stack):
    # Each phase is good to about n eps (1 + ||C||^2), ||C|| = max |tan(phi / 2)|;
    # eigvals adds its own n eps.
    seed, phases = stack
    blocks = unitary_stack(seed, phases)
    got = np.sort(cayley_eigenphases(blocks, float(np.max(np.abs(phases)))))
    want = np.sort(np.angle(np.linalg.eigvals(blocks)).ravel())
    norm = float(np.max(np.abs(np.tan(phases / 2))))
    bound = 4 * phases.shape[1] * np.finfo(float).eps * (1 + norm**2)
    assert np.max(np.abs(got - want)) <= bound
    assert np.max(np.abs(got - np.sort(phases.ravel()))) <= bound


@settings(max_examples=40, deadline=None)
@given(
    phase_stacks(top=math.pi - BRANCH_GAP / 2),
    st.floats(CAYLEY_PHASE_MAX, math.pi, exclude_min=True),
)
def test_a_bound_past_the_cap_takes_the_eigvals_route_per_block(stack, phase_bound):
    # Phases up to the branch gap and beyond: the stack goes block by block
    # through unitary_eigenphases, so its answer, or its refusal, is that one's.
    seed, phases = stack
    blocks = unitary_stack(seed, phases)
    try:
        want = np.concatenate([unitary_eigenphases(block) for block in blocks])
    except BranchCutError:
        assert np.max(np.abs(phases)) > math.pi - 2 * BRANCH_GAP
        with pytest.raises(BranchCutError):
            cayley_eigenphases(blocks, phase_bound)
        return
    assert cayley_eigenphases(blocks, phase_bound).tobytes() == want.tobytes()


def test_a_bound_that_does_not_hold_falls_back_to_eigvals():
    # The bound claims the Cayley route, but one phase is at 3.0, where
    # ||C|| = 14.1 > CAYLEY_NORM_CAP: the realized norm sends the stack to eigvals.
    phases = np.array([[0.1, -0.2, 3.0, 0.4], [0.5, 0.0, -0.3, 1.0]])
    blocks = unitary_stack(3, phases)
    want = np.concatenate([unitary_eigenphases(block) for block in blocks])
    assert cayley_eigenphases(blocks, 0.5).tobytes() == want.tobytes()


def test_cayley_route_refuses_branch_cut_and_non_unitary_blocks():
    near_cut = unitary_stack(5, np.array([[0.2, math.pi - BRANCH_GAP / 10, -1.0]]))
    with pytest.raises(BranchCutError):
        cayley_eigenphases(near_cut, math.pi)
    scaled = 1.001 * unitary_stack(5, np.array([[0.2, 0.3], [0.1, -0.4]]))
    with pytest.raises(ToleranceError, match="not unitary"):
        cayley_eigenphases(scaled, 0.4)
