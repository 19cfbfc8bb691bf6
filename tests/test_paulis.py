"""Tests for the Pauli-string algebra: products, commutation, bitmask action,
and the time-reversal string of a model."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trottergibbs.paulis import (
    DENSE_QUBIT_CAP,
    DimensionCapError,
    PauliString,
    check_dense_cap,
    parity_signs,
    pauli_commutes,
    time_reversal_string,
)
from trottergibbs.syk import build_syk_hamiltonian, sample_syk

from oracles import SINGLE, letters, pauli_multiply, to_dense

LETTERS = "IXYZ"


@st.composite
def string_lists(draw, size=1, max_qubits=5):
    """``size`` strings on one qubit count, masks drawn freely."""
    n = draw(st.integers(1, max_qubits))
    masks = st.integers(0, 2**n - 1)
    return [PauliString(n, draw(masks), draw(masks)) for _ in range(size)]


def random_string(rng: np.random.Generator, n: int) -> PauliString:
    x, z = (int(m) for m in rng.integers(2**n, size=2))
    return PauliString(n, x, z)


def label_masks(label: str, phase: int) -> tuple[int, int, int]:
    """(x, z, phase) of i^phase times the string spelled ``label``."""
    p = PauliString.from_label(label)
    return p.x, p.z, phase


def test_multiply_x_times_y_is_iz():
    prod = pauli_multiply(PauliString.from_label("X"), PauliString.from_label("Y"))
    assert prod == label_masks("Z", 1)


def test_multiply_two_qubit_example():
    prod = pauli_multiply(PauliString.from_label("XI"), PauliString.from_label("YI"))
    assert prod == label_masks("ZI", 1)


def test_multiply_self_gives_identity():
    # (i^k P)^2 = i^2k, since every letter squares to I.
    rng = np.random.default_rng(101)
    for _ in range(30):
        p, k = random_string(rng, 4), int(rng.integers(4))
        assert pauli_multiply(p, p, (k, k)) == (0, 0, 2 * k % 4)


def test_multiply_unsigned_involution():
    rng = np.random.default_rng(102)
    for _ in range(30):
        p = random_string(rng, 5)
        assert pauli_multiply(p, p) == (0, 0, 0)


@given(string_lists(size=2), st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_multiply_matches_dense_products(strings, phases):
    # Every string is Hermitian; the product's phase is tracked on the masks.
    a, b = strings
    x, z, k = pauli_multiply(a, b, phases)
    want = to_dense(a, phases[0]) @ to_dense(b, phases[1])
    assert np.array_equal(to_dense(PauliString(a.n_qubits, x, z), k), want)
    assert np.array_equal(to_dense(a), to_dense(a).conj().T)


@given(st.data())
def test_from_label_round_trips_the_spelling(data):
    (p,) = data.draw(string_lists())
    assert PauliString.from_label(letters(p)) == p
    label = data.draw(st.text(alphabet=LETTERS, min_size=1, max_size=6))
    assert letters(PauliString.from_label(label)) == label


def test_multiply_size_mismatch():
    with pytest.raises(ValueError):
        pauli_multiply(PauliString.from_label("X"), PauliString.from_label("XX"))


def test_commutes_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch: 1 vs 2"):
        pauli_commutes(PauliString.from_label("X"), PauliString.from_label("XX"))


def test_commutes_examples():
    assert pauli_commutes(PauliString.from_label("XX"), PauliString.from_label("ZZ"))
    assert not pauli_commutes(PauliString.from_label("XI"), PauliString.from_label("ZI"))


@given(string_lists(size=2))
def test_commutes_matches_dense_commutator(strings):
    da, db = (to_dense(p) for p in strings)
    assert pauli_commutes(*strings) == np.array_equal(da @ db, db @ da)


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
    # A phase is a scalar: i^ka P and i^kb Q commute exactly when P and Q do.
    for la, lb in (("XY", "XY"), ("XI", "ZI")):
        a, b = PauliString.from_label(la), PauliString.from_label(lb)
        for ka, kb in itertools.product(range(4), repeat=2):
            da, db = to_dense(a, ka), to_dense(b, kb)
            assert pauli_commutes(a, b) == np.array_equal(da @ db, db @ da)


def test_to_dense_identity():
    assert np.array_equal(to_dense(PauliString(2, 0, 0)), np.eye(4))


def test_to_dense_zx():
    got = to_dense(PauliString.from_label("ZX"))
    expected = np.kron(SINGLE["Z"], SINGLE["X"])
    assert np.array_equal(got, expected)


def test_to_dense_phase():
    got = to_dense(PauliString.from_label("Y"), 1)
    expected = 1j * SINGLE["Y"]
    assert np.array_equal(got, expected)


def test_to_dense_random_against_oracle():
    # Entry (r, c) of a tensor product is the phase times the product of
    # the single-site entries at the bits of r and c, qubit 0 the top bit.
    rng = np.random.default_rng(105)
    n = 6
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    for _ in range(25):
        p, k = random_string(rng, n), int(rng.integers(4))
        want = np.full((2**n, 2**n), (1, 1j, -1, -1j)[k])
        for site, ch in enumerate(letters(p)):
            want = want * SINGLE[ch][bits[:, site][:, None], bits[:, site][None, :]]
        assert np.array_equal(to_dense(p, k), want)


def test_dense_cap():
    check_dense_cap(DENSE_QUBIT_CAP)
    with pytest.raises(DimensionCapError):
        check_dense_cap(DENSE_QUBIT_CAP + 1)


def test_trace_identity_and_nonidentity():
    assert np.trace(to_dense(PauliString(3, 0, 0))) == 8
    assert np.trace(to_dense(PauliString.from_label("IXI"))) == 0
    rng = np.random.default_rng(106)
    for _ in range(20):
        p, k = random_string(rng, 2), int(rng.integers(4))
        expected = (1, 1j, -1, -1j)[k] * 4 if p.x == p.z == 0 else 0
        assert np.trace(to_dense(p, k)) == expected


def test_invalid_letters_and_masks():
    with pytest.raises(ValueError, match="letters"):
        PauliString.from_label("XQ")
    for x, z in ((4, 0), (0, 4), (-1, 0), (1.0, 0)):
        with pytest.raises(ValueError, match="masks"):
            PauliString(2, x, z)


def test_parity_signs_match_popcount():
    for n in range(6):
        want = [(-1.0) ** bin(m).count("1") for m in range(2**n)]
        assert parity_signs(n).tolist() == want


@given(string_lists())
def test_signed_permutation_is_exactly_to_dense(strings):
    # P|b> = q (-1)^{|b & z|} |b ^ x>: one signed entry per column.
    (p,) = strings
    basis = np.arange(2**p.n_qubits)
    mat = np.zeros((basis.size, basis.size), dtype=complex)
    mat[basis ^ p.x, basis] = p.q * parity_signs(p.n_qubits)[basis & p.z]
    assert np.array_equal(mat, to_dense(p))


def reverses_every_term(v: PauliString, terms: list[PauliString]) -> bool:
    """V P V^dag = conj(P) for every term, on dense matrices."""
    dense = to_dense(v)
    return all(
        np.array_equal(dense @ to_dense(p) @ dense.conj().T, to_dense(p).conj()) for p in terms
    )


@given(st.integers(1, 3), st.booleans(), st.data())
def test_time_reversal_string_is_found_exactly_when_one_exists(n, keeps, data):
    # Parity-keeping models draw only labels with an even number of X/Y
    # letters; the others draw from every label.  A returned V must reverse
    # every term; None must mean that no string of the 4^n does.
    labels = ["".join(t) for t in itertools.product(LETTERS, repeat=n)][1:]
    if keeps:
        labels = [label for label in labels if sum(ch in "XY" for ch in label) % 2 == 0]
    picked = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=6, unique=True))
    terms = [PauliString.from_label(label) for label in picked]
    x = np.array([p.x for p in terms])
    z = np.array([p.z for p in terms])
    found = time_reversal_string(n, x, z)
    if found is None:
        assert not any(
            reverses_every_term(PauliString(n, vx, vz), terms)
            for vx, vz in itertools.product(range(2**n), repeat=2)
        )
    else:
        assert reverses_every_term(PauliString(n, *found), terms)


def test_time_reversal_string_is_none_for_x_y_and_z():
    # Only V = I keeps X and Z, and it keeps Y too.
    x, z = np.array([1, 1, 0]), np.array([0, 1, 1])
    assert time_reversal_string(1, x, z) is None


@given(st.sampled_from(range(8, 17, 2)), st.integers(0, 2**32 - 1))
def test_every_syk_draw_has_the_particle_hole_string(n_majorana, seed):
    # The particle-hole operator flips every qubit: vx is all ones.  Each
    # term must commute with V exactly when it is real (an even Y count).
    h = build_syk_hamiltonian(sample_syk(n_majorana, seed))
    vx, vz = h.time_reversal
    assert vx == 2**h.n_qubits - 1
    v = PauliString(h.n_qubits, vx, vz)
    assert all(pauli_commutes(v, p) == ((p.x & p.z).bit_count() % 2 == 0) for _, p in h.terms)
