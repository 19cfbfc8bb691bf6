"""Tests for the Pauli-string algebra: products, commutation, dense forms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trottergibbs.paulis import (
    DENSE_QUBIT_CAP,
    VALID_PHASES,
    DimensionCapError,
    PauliString,
    parity_signs,
    pauli_commutes,
    pauli_masks,
    pauli_multiply,
    pauli_trace,
    to_dense,
)

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

LETTERS = "IXYZ"


def dense_oracle(p: PauliString) -> np.ndarray:
    """Independent Kronecker build, qubit 0 as the first factor."""
    m = np.array([[p.phase]], dtype=complex)
    for ch in p.letters:
        m = np.kron(m, SINGLE[ch])
    return m


@st.composite
def phased_strings(draw, max_qubits=5):
    n = draw(st.integers(1, max_qubits))
    letters = draw(st.text(alphabet=LETTERS, min_size=n, max_size=n))
    return PauliString(n, letters, draw(st.sampled_from(VALID_PHASES)))


def random_string(rng: np.random.Generator, n: int) -> PauliString:
    letters = "".join(rng.choice(list(LETTERS)) for _ in range(n))
    phase = rng.choice([1, -1, 1j, -1j])
    return PauliString(n, letters, complex(phase))


def test_multiply_x_times_y_is_iz():
    x = PauliString.from_label("X")
    y = PauliString.from_label("Y")
    prod = pauli_multiply(x, y)
    assert prod.letters == "Z"
    assert prod.phase == 1j


def test_multiply_two_qubit_example():
    a = PauliString.from_label("XI")
    b = PauliString.from_label("YI")
    prod = pauli_multiply(a, b)
    assert prod.letters == "ZI"
    assert prod.phase == 1j


def test_multiply_self_gives_identity():
    rng = np.random.default_rng(101)
    for _ in range(30):
        p = random_string(rng, 4)
        sq = pauli_multiply(p, p)
        assert sq.letters == "IIII"
        # phase^2 times letter self-products, always +1 for +/-1 phases,
        # -1 for +/-i phases.
        expected = p.phase * p.phase
        assert sq.phase == expected


def test_multiply_unsigned_involution():
    rng = np.random.default_rng(102)
    for _ in range(30):
        p = random_string(rng, 5).unsigned()
        sq = pauli_multiply(p, p)
        assert sq == PauliString.identity(5)


def test_multiply_matches_dense_products():
    rng = np.random.default_rng(103)
    for _ in range(40):
        a = random_string(rng, 4)
        b = random_string(rng, 4)
        lhs = dense_oracle(pauli_multiply(a, b))
        rhs = dense_oracle(a) @ dense_oracle(b)
        assert np.array_equal(lhs, rhs)


def test_multiply_size_mismatch():
    with pytest.raises(ValueError):
        pauli_multiply(PauliString.from_label("X"), PauliString.from_label("XX"))


def test_commutes_examples():
    assert pauli_commutes(PauliString.from_label("XX"), PauliString.from_label("ZZ"))
    assert not pauli_commutes(PauliString.from_label("XI"), PauliString.from_label("ZI"))


def test_commutes_matches_dense_commutator():
    rng = np.random.default_rng(104)
    for _ in range(60):
        a = random_string(rng, 5).unsigned()
        b = random_string(rng, 5).unsigned()
        da, db = dense_oracle(a), dense_oracle(b)
        comm = da @ db - db @ da
        assert pauli_commutes(a, b) == (np.max(np.abs(comm)) == 0.0)


def test_commutes_exhaustive_two_qubits():
    labels = [x + y for x in LETTERS for y in LETTERS]
    for la in labels:
        for lb in labels:
            a = PauliString.from_label(la)
            b = PauliString.from_label(lb)
            da, db = dense_oracle(a), dense_oracle(b)
            comm = da @ db - db @ da
            assert pauli_commutes(a, b) == (np.max(np.abs(comm)) == 0.0)


def test_commutes_ignores_phase():
    a = PauliString.from_label("XY", phase=1j)
    b = PauliString.from_label("XY", phase=-1)
    assert pauli_commutes(a, b)


def test_to_dense_identity():
    assert np.array_equal(to_dense(PauliString.identity(2)), np.eye(4))


def test_to_dense_zx():
    got = to_dense(PauliString.from_label("ZX"))
    expected = np.kron(SINGLE["Z"], SINGLE["X"])
    assert np.array_equal(got, expected)


def test_to_dense_phase():
    got = to_dense(PauliString.from_label("Y", phase=1j))
    expected = 1j * SINGLE["Y"]
    assert np.array_equal(got, expected)


def test_to_dense_random_against_oracle():
    rng = np.random.default_rng(105)
    for _ in range(25):
        p = random_string(rng, 6)
        assert np.array_equal(to_dense(p), dense_oracle(p))


def test_to_dense_cap():
    with pytest.raises(DimensionCapError):
        to_dense(PauliString.identity(DENSE_QUBIT_CAP + 1))
    # A raised cap admits the same string.
    m = to_dense(PauliString.identity(13), cap=13)
    assert m.shape == (2**13, 2**13)


def test_trace_identity_and_nonidentity():
    assert pauli_trace(PauliString.identity(3)) == 8
    assert pauli_trace(PauliString.from_label("IXI")) == 0
    rng = np.random.default_rng(106)
    for _ in range(20):
        p = random_string(rng, 4)
        expected = p.phase * 16 if p.weight == 0 else 0
        assert pauli_trace(p) == expected
        assert np.isclose(np.trace(dense_oracle(p)), expected)


def test_weight():
    assert PauliString.identity(4).weight == 0
    assert PauliString.from_label("XIYZ").weight == 3


def test_invalid_letters_and_phase():
    with pytest.raises(ValueError):
        PauliString(2, "XQ")
    with pytest.raises(ValueError):
        PauliString(2, "XX", phase=0.5 + 0.5j)
    with pytest.raises(ValueError):
        PauliString(3, "XX")


def test_parity_signs_match_popcount():
    for n in range(6):
        want = [(-1.0) ** bin(m).count("1") for m in range(2**n)]
        assert parity_signs(n).tolist() == want


@given(phased_strings())
def test_signed_permutation_is_exactly_to_dense(p):
    # P|b> = q (-1)^{|b & z|} |b ^ x>: one signed entry per column.
    x, z, q = pauli_masks(p)
    basis = np.arange(2**p.n_qubits)
    mat = np.zeros((basis.size, basis.size), dtype=complex)
    mat[basis ^ x, basis] = q * parity_signs(p.n_qubits)[basis & z]
    assert np.array_equal(mat, to_dense(p))
