"""Tests for the Pauli-string algebra: products, commutation, bitmask action."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trottergibbs.paulis import (
    DENSE_QUBIT_CAP,
    VALID_PHASES,
    DimensionCapError,
    PauliString,
    check_dense_cap,
    parity_signs,
    pauli_commutes,
    pauli_masks,
    pauli_multiply,
)

from oracles import SINGLE, to_dense

LETTERS = "IXYZ"


def unsigned(p: PauliString) -> PauliString:
    """The same string with phase +1."""
    return PauliString(p.n_qubits, p.letters)


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
        p = unsigned(random_string(rng, 5))
        sq = pauli_multiply(p, p)
        assert sq == PauliString.identity(5)


def test_multiply_matches_dense_products():
    rng = np.random.default_rng(103)
    for _ in range(40):
        a = random_string(rng, 4)
        b = random_string(rng, 4)
        lhs = to_dense(pauli_multiply(a, b))
        rhs = to_dense(a) @ to_dense(b)
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
        a = unsigned(random_string(rng, 5))
        b = unsigned(random_string(rng, 5))
        da, db = to_dense(a), to_dense(b)
        comm = da @ db - db @ da
        assert pauli_commutes(a, b) == (np.max(np.abs(comm)) == 0.0)


def test_commutes_exhaustive_two_qubits():
    labels = [x + y for x in LETTERS for y in LETTERS]
    for la in labels:
        for lb in labels:
            a = PauliString.from_label(la)
            b = PauliString.from_label(lb)
            da, db = to_dense(a), to_dense(b)
            comm = da @ db - db @ da
            assert pauli_commutes(a, b) == (np.max(np.abs(comm)) == 0.0)


def test_commutes_ignores_phase():
    a = PauliString(2, "XY", 1j)
    b = PauliString(2, "XY", -1)
    assert pauli_commutes(a, b)


def test_to_dense_identity():
    assert np.array_equal(to_dense(PauliString.identity(2)), np.eye(4))


def test_to_dense_zx():
    got = to_dense(PauliString.from_label("ZX"))
    expected = np.kron(SINGLE["Z"], SINGLE["X"])
    assert np.array_equal(got, expected)


def test_to_dense_phase():
    got = to_dense(PauliString(1, "Y", 1j))
    expected = 1j * SINGLE["Y"]
    assert np.array_equal(got, expected)


def test_to_dense_random_against_oracle():
    # Entry (r, c) of a tensor product is the phase times the product of
    # the single-site entries at the bits of r and c, qubit 0 the top bit.
    rng = np.random.default_rng(105)
    n = 6
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    for _ in range(25):
        p = random_string(rng, n)
        want = np.full((2**n, 2**n), p.phase)
        for site, ch in enumerate(p.letters):
            want = want * SINGLE[ch][bits[:, site][:, None], bits[:, site][None, :]]
        assert np.array_equal(to_dense(p), want)


def test_dense_cap():
    check_dense_cap(DENSE_QUBIT_CAP)
    with pytest.raises(DimensionCapError):
        check_dense_cap(DENSE_QUBIT_CAP + 1)


def test_trace_identity_and_nonidentity():
    assert np.trace(to_dense(PauliString.identity(3))) == 8
    assert np.trace(to_dense(PauliString.from_label("IXI"))) == 0
    rng = np.random.default_rng(106)
    for _ in range(20):
        p = random_string(rng, 4)
        expected = p.phase * 16 if p.letters == "IIII" else 0
        assert np.trace(to_dense(p)) == expected


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
