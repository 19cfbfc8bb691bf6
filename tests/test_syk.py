"""Tests for the four-body random-coupling model and its qubit encoding."""

import math
import numbers

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trottergibbs import syk
from trottergibbs.cli import build_model
from trottergibbs.linalg import max_abs, spectral_norm
from trottergibbs.paulis import PauliString, multiply_masks, parity_signs, pauli_commutes
from trottergibbs.syk import (
    TERM_CHUNK,
    HamiltonianTerms,
    build_syk_hamiltonian,
    group_commuting,
    jordan_wigner_majorana,
    normalize_one_norm,
    sample_syk,
)

from oracles import commuting_runs, letter_masks, letter_syk_terms, to_dense

# Frozen regression values for the bundled reference instance (n=8, seed=7).
REFERENCE_N_TERMS = 70
REFERENCE_GROUPS = 8
REFERENCE_SCALE = 0.01373721163593696


def majorana_dense(index: int, n_majorana: int) -> np.ndarray:
    coef, p = jordan_wigner_majorana(index, n_majorana)
    return coef * to_dense(p)


def test_sample_counts():
    assert len(sample_syk(4, seed=0).couplings) == 1
    assert len(sample_syk(8, seed=0).couplings) == math.comb(8, 4)
    assert len(sample_syk(8, seed=0).couplings) == REFERENCE_N_TERMS


def test_sample_reproducible():
    a = sample_syk(8, seed=42)
    b = sample_syk(8, seed=42)
    assert a.couplings == b.couplings
    c = sample_syk(8, seed=43)
    assert a.couplings != c.couplings


def test_sample_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sample_syk(5, seed=0)
    with pytest.raises(ValueError):
        sample_syk(2, seed=0)


def test_sample_variance_scaling():
    # Var J = 3! / n^3; check the empirical variance across seeds.
    draws = [list(sample_syk(8, seed=s).couplings.values()) for s in range(40)]
    flat = np.concatenate(draws)
    target = math.factorial(3) / 8**3
    assert abs(np.var(flat) / target - 1.0) < 0.1


def test_jordan_wigner_examples():
    coef, p = jordan_wigner_majorana(1, 2)
    assert coef == pytest.approx(1 / math.sqrt(2))
    assert p == PauliString.from_label("X")
    coef, p = jordan_wigner_majorana(2, 2)
    assert p == PauliString.from_label("Y")
    coef, p = jordan_wigner_majorana(3, 4)
    assert p == PauliString.from_label("ZX")
    coef, p = jordan_wigner_majorana(4, 4)
    assert p == PauliString.from_label("ZY")


def test_normalize_refuses_a_zero_model():
    zero = HamiltonianTerms(2, [(0.0, PauliString.from_label("XZ"))])
    with pytest.raises(ValueError, match="cannot normalize a zero Hamiltonian"):
        normalize_one_norm(zero)


def test_jordan_wigner_range():
    with pytest.raises(ValueError):
        jordan_wigner_majorana(0, 4)
    with pytest.raises(ValueError):
        jordan_wigner_majorana(5, 4)


def test_jordan_wigner_anticommutation():
    # {gamma_i, gamma_j} = delta_ij with the 1/sqrt(2) normalization.
    n = 6
    gammas = [majorana_dense(i, n) for i in range(1, n + 1)]
    dim = 2 ** (n // 2)
    for i in range(n):
        for j in range(n):
            anti = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
            expected = np.eye(dim) if i == j else np.zeros((dim, dim))
            assert max_abs(anti - expected) < 1e-12


def test_build_single_term_matches_majorana_product():
    c = sample_syk(4, seed=3)
    ((idx, j),) = c.couplings.items()
    h = build_syk_hamiltonian(c)
    assert h.n_qubits == 2
    assert h.n_terms == 1
    g = [majorana_dense(i, 4) for i in idx]
    oracle = j / (4 * math.factorial(4)) * (g[0] @ g[1] @ g[2] @ g[3])
    assert max_abs(h.dense() - oracle) < 1e-14


def test_build_dense_matches_sum_of_majorana_products():
    c = sample_syk(8, seed=5)
    h = build_syk_hamiltonian(c)
    dim = 2**4
    oracle = np.zeros((dim, dim), dtype=complex)
    gammas = {i: majorana_dense(i, 8) for i in range(1, 9)}
    prefactor = 1.0 / (4 * math.factorial(4))
    for (i, j, k, l), coupling in c.couplings.items():
        oracle += prefactor * coupling * gammas[i] @ gammas[j] @ gammas[k] @ gammas[l]
    assert max_abs(h.dense() - oracle) < 1e-12
    assert max_abs(h.dense() - h.dense().conj().T) < 1e-12


@pytest.mark.parametrize("n_majorana", [4, 6, 8, 10, 12, 14, 16])
def test_build_matches_per_coupling_reference(n_majorana):
    for seed in (0, 7, 31):
        c = sample_syk(n_majorana, seed=seed)
        want = [(v, PauliString.from_label(label)) for v, label in letter_syk_terms(c)]
        assert build_syk_hamiltonian(c).terms == tuple(want)


# A parity-breaking pauli model (odd X/Y counts) with every Y count mod 4.
PAULI_SPEC = {
    "kind": "pauli",
    "n_qubits": 3,
    "terms": [[0.3, "XIZ"], [-0.7, "YYZ"], [0.2, "ZYI"], [0.125, "IIY"], [-1e-9, "YYY"]],
}


@pytest.mark.parametrize(
    "spec",
    [{"kind": "syk", "n_majorana": n, "seed": 7, "one_norm": None} for n in (8, 12, 16)]
    + [PAULI_SPEC],
    ids=["syk-8", "syk-12", "syk-16", "pauli"],
)
def test_masks_and_coefficients_are_byte_equal_to_the_letter_reference(spec):
    # The bytes include the signs of zero parts of q, which reach the
    # stage factors of every product formula.
    h = build_model(spec)
    if spec["kind"] == "syk":
        want = letter_masks(letter_syk_terms(sample_syk(spec["n_majorana"], seed=spec["seed"])))
    else:
        want = letter_masks(spec["terms"])
    got = (*h.pauli_masks, np.array([c for c, _ in h.terms]))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_masks_and_terms_are_read_only():
    # Every formula and dense() read the kept masks, so a write through them
    # would change the model while its terms stay the same.
    h = build_syk_hamiltonian(sample_syk(8, seed=7))
    for array in h.pauli_masks:
        with pytest.raises(ValueError, match="read-only"):
            array[0] *= -1
    with pytest.raises(TypeError):
        h.terms[0] = (50.0, h.terms[0][1])
    assert HamiltonianTerms(h.n_qubits, list(h.terms)) == h


@given(st.integers(0, 3))
def test_build_refuses_an_odd_phase(k):
    # Giving g_1's masks the phase i^k gives every product that holds it i^k too.
    c = sample_syk(6, seed=2)
    plain = build_syk_hamiltonian(c)
    _, g1 = jordan_wigner_majorana(1, c.n_majorana)

    def phased(a, b):
        return multiply_masks(a, (g1.x, g1.z, k) if b == (g1.x, g1.z, 0) else b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(syk, "multiply_masks", phased)
        if k % 2:
            with pytest.raises(ValueError, match="not Hermitian"):
                build_syk_hamiltonian(c)
            return
        h = build_syk_hamiltonian(c)
    # Every coupling gives its own string here, so terms follow the couplings.
    assert len(c.couplings) == plain.n_terms == h.n_terms
    for idx, (cp, sp), (ch, sh) in zip(c.couplings, plain.terms, h.terms):
        assert sh == sp
        assert ch == (-cp if k == 2 and 1 in idx else cp)


def test_build_term_coefficients_are_real():
    h = build_syk_hamiltonian(sample_syk(8, seed=9))
    assert all(type(coef) is float for coef, _ in h.terms)


@pytest.mark.parametrize("coeff", [0.5 + 0j, np.complex128(0.5), "0.5", None])
def test_model_refuses_a_coefficient_that_is_not_real(coeff):
    # A complex coefficient, even with imaginary part 0, used to fail inside
    # math.sin mid-formula.  test_apply_formula_refuses_non_hermitian_terms
    # covers imaginary ones.
    z, x = PauliString.from_label("Z"), PauliString.from_label("X")
    with pytest.raises(ValueError, match="is not real"):
        HamiltonianTerms(1, [(0.5, z), (coeff, x)])


def test_model_refuses_a_string_on_another_qubit_count():
    # "XI" on a 3-qubit model would act as X on qubit 1, not qubit 0.
    with pytest.raises(ValueError, match="not on the model's 3 qubits"):
        HamiltonianTerms(3, [(0.5, PauliString.from_label("XI"))])
    # Any numbers.Real is a coefficient: numpy floats and ints too.
    xiz = PauliString.from_label("XIZ")
    HamiltonianTerms(3, [(np.float64(0.5), xiz), (2, PauliString(3, 0, 0))])


@st.composite
def any_terms(draw):
    """A qubit count and terms of any number type, most strings on that count."""
    n_qubits = draw(st.integers(1, 3))
    number = st.one_of(
        st.floats(-10.0, 10.0),
        st.integers(-3, 3),
        st.complex_numbers(max_magnitude=10.0, allow_nan=False),
    )
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.sampled_from([n_qubits] * 3 + [n_qubits % 3 + 1]))
        masks = st.integers(0, 2**n - 1)
        terms.append((draw(number), PauliString(n, draw(masks), draw(masks))))
    return n_qubits, terms


@given(any_terms())
def test_every_model_accepted_has_a_hermitian_dense(drawn):
    n_qubits, terms = drawn
    fits = all(isinstance(c, numbers.Real) and p.n_qubits == n_qubits for c, p in terms)
    if not fits:
        with pytest.raises(ValueError):
            HamiltonianTerms(n_qubits, terms)
        return
    dense = HamiltonianTerms(n_qubits, terms).dense()
    assert np.array_equal(dense, dense.conj().T)


def test_normalize_one_norm():
    h = build_syk_hamiltonian(sample_syk(8, seed=7))
    hn, scale = normalize_one_norm(h)
    assert hn.one_norm == pytest.approx(1.0, abs=1e-12)
    assert scale == pytest.approx(h.one_norm, rel=1e-12)
    assert scale == pytest.approx(REFERENCE_SCALE, rel=1e-9)
    # Rescaling is exact per term.
    for (ca, pa), (cb, pb) in zip(h.terms, hn.terms):
        assert pa == pb
        assert ca == pytest.approx(cb * scale, rel=1e-12)


def test_normalized_spectral_norm_at_most_one():
    for seed in (1, 2, 3):
        for n in (4, 6, 8):
            hn, _ = normalize_one_norm(build_syk_hamiltonian(sample_syk(n, seed=seed)))
            assert spectral_norm(hn.dense()) <= 1.0 + 1e-12


def test_normalize_identity_when_already_unit():
    h = build_syk_hamiltonian(sample_syk(8, seed=7))
    hn, _ = normalize_one_norm(h)
    hn2, scale2 = normalize_one_norm(hn)
    assert scale2 == pytest.approx(1.0, abs=1e-12)
    assert max_abs(hn.dense() - hn2.dense()) < 1e-14


def test_group_commuting_all_commuting_single_group():
    terms = [(0.5, PauliString.from_label("ZZ")), (0.25, PauliString.from_label("ZI"))]
    h = HamiltonianTerms(2, terms)
    g = group_commuting(h)
    assert g.terms == h.terms
    assert commuting_runs(g) == [[0, 1]]


def test_group_commuting_splits_anticommuting():
    terms = [
        (1.0, PauliString.from_label("XI")),
        (1.0, PauliString.from_label("ZI")),
        (1.0, PauliString.from_label("IX")),
    ]
    g = group_commuting(HamiltonianTerms(2, terms))
    assert g.terms == (terms[0], terms[2], terms[1])
    assert commuting_runs(g) == [[0, 1], [2]]


def test_group_commuting_is_valid_partition():
    # The reordered model is a permutation of the terms, groups are runs of
    # mutually commuting terms, and each run keeps the original index order.
    for seed in (11, 12, 13):
        h = build_syk_hamiltonian(sample_syk(8, seed=seed))
        g = group_commuting(h)
        position = {s: i for i, (_, s) in enumerate(h.terms)}
        assert sorted(position[s] for _, s in g.terms) == list(range(h.n_terms))
        assert all(h.terms[position[s]] == (c, s) for c, s in g.terms)
        for run in commuting_runs(g):
            indices = [position[g.terms[i][1]] for i in run]
            assert indices == sorted(indices)
            for a in run:
                for b in run:
                    assert pauli_commutes(g.terms[a][1], g.terms[b][1])


def test_group_commuting_reference_count():
    h = build_syk_hamiltonian(sample_syk(8, seed=7))
    runs = commuting_runs(group_commuting(h))
    assert len(runs) == REFERENCE_GROUPS
    assert len(runs) < h.n_terms


def test_group_sum_matches_full_hamiltonian():
    h = build_syk_hamiltonian(sample_syk(8, seed=7))
    g = group_commuting(h)
    total = np.zeros_like(h.dense())
    for run in commuting_runs(g):
        total = total + HamiltonianTerms(g.n_qubits, [g.terms[i] for i in run]).dense()
    assert max_abs(total - h.dense()) < 1e-12
    assert max_abs(g.dense() - h.dense()) < 1e-12


def kron_sum(h):
    """The dense sum as it was first written: one Kronecker product per term."""
    mat = np.zeros((2**h.n_qubits, 2**h.n_qubits), dtype=complex)
    for coeff, string in h.terms:
        mat += coeff * to_dense(string)
    return mat


@st.composite
def term_lists(draw):
    n = draw(st.integers(1, 4))
    masks = st.integers(0, 2**n - 1)
    term = st.tuples(
        st.floats(-10.0, 10.0, allow_nan=False),
        st.builds(PauliString, st.just(n), masks, masks),
    )
    return HamiltonianTerms(n, draw(st.lists(term, min_size=1, max_size=8)))


@given(term_lists())
def test_dense_is_bit_identical_to_kron_sum(h):
    assert h.dense().tobytes() == kron_sum(h).tobytes()


def test_dense_of_empty_model_is_zero():
    assert np.array_equal(HamiltonianTerms(2, []).dense(), np.zeros((4, 4)))


def test_dense_is_bit_identical_to_kron_sum_on_syk():
    h = build_syk_hamiltonian(sample_syk(10, seed=3))
    assert h.dense().tobytes() == kron_sum(h).tobytes()


def per_term_dense(h):
    """The signed-permutation scatter one term at a time, in term order."""
    dim = 2**h.n_qubits
    basis = np.arange(dim)
    signs = parity_signs(h.n_qubits)
    mat = np.zeros((dim, dim), dtype=complex)
    for (coeff, _), x, z, q in zip(h.terms, *h.pauli_masks):
        mat[basis ^ x, basis] += coeff * (q * signs[basis & z])
    return mat


def test_dense_is_bit_identical_to_per_term_scatter_past_one_chunk():
    h = build_syk_hamiltonian(sample_syk(12, seed=1))
    assert h.n_terms == 495 > TERM_CHUNK
    assert h.dense().tobytes() == per_term_dense(h).tobytes()


def test_dense_adds_a_repeated_label_in_term_order():
    # Coefficients of mixed magnitude make the sum depend on its order, and
    # the repeats straddle a chunk boundary.
    rng = np.random.default_rng(5)
    labels = ["XY", "ZZ", "XY", "YI", "XY"]
    terms = [
        (float(rng.normal() * 10.0 ** rng.integers(-8, 8)), PauliString.from_label(labels[k % 5]))
        for k in range(2 * TERM_CHUNK + 3)
    ]
    h = HamiltonianTerms(2, terms)
    got = h.dense()
    assert got.tobytes() == per_term_dense(h).tobytes()
    shuffled = HamiltonianTerms(2, terms[::-1])
    assert not np.array_equal(shuffled.dense(), got)  # the order shows in the bits
