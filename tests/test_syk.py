"""Tests for the four-body random-coupling model and its qubit encoding."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trottergibbs.linalg import max_abs, spectral_norm
from trottergibbs.paulis import VALID_PHASES, PauliString, pauli_commutes, to_dense
from trottergibbs.syk import (
    HamiltonianTerms,
    VarianceRule,
    build_syk_hamiltonian,
    from_json,
    group_commuting,
    jordan_wigner_majorana,
    normalize_one_norm,
    sample_syk,
    to_json,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

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
    # Var J = 3! j^2 / n^3; check the empirical variance across seeds.
    rule = VarianceRule(j=2.0)
    draws = [
        list(sample_syk(8, seed=s, rule=rule).couplings.values()) for s in range(40)
    ]
    flat = np.concatenate(draws)
    target = rule.variance(8)
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


def test_build_term_coefficients_are_real():
    h = build_syk_hamiltonian(sample_syk(8, seed=9))
    for coef, p in h.terms:
        assert abs(coef.imag) < 1e-14
        assert p.phase == 1


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
    assert len(g.groups) == 1


def test_group_commuting_splits_anticommuting():
    terms = [
        (1.0, PauliString.from_label("XI")),
        (1.0, PauliString.from_label("ZI")),
        (1.0, PauliString.from_label("IX")),
    ]
    g = group_commuting(HamiltonianTerms(2, terms))
    assert len(g.groups) == 2


def test_group_commuting_is_valid_partition():
    for seed in (11, 12, 13):
        h = build_syk_hamiltonian(sample_syk(8, seed=seed))
        g = group_commuting(h)
        seen = sorted(i for grp in g.groups for i in grp)
        assert seen == list(range(h.n_terms))
        for grp in g.groups:
            for a in grp:
                for b in grp:
                    assert pauli_commutes(h.terms[a][1], h.terms[b][1])


def test_group_commuting_reference_count():
    h = build_syk_hamiltonian(sample_syk(8, seed=7))
    g = group_commuting(h)
    assert len(g.groups) == REFERENCE_GROUPS
    assert len(g.groups) < h.n_terms


def test_group_sum_matches_full_hamiltonian():
    h = group_commuting(build_syk_hamiltonian(sample_syk(8, seed=7)))
    total = np.zeros_like(h.dense())
    for group in h.groups:
        total = total + HamiltonianTerms(h.n_qubits, [h.terms[i] for i in group]).dense()
    assert max_abs(total - h.dense()) < 1e-12


def test_json_round_trip():
    h = group_commuting(build_syk_hamiltonian(sample_syk(8, seed=7)))
    h2 = from_json(to_json(h))
    assert h2.n_qubits == h.n_qubits
    assert h2.groups == h.groups
    assert h2.terms == h.terms
    assert max_abs(h.dense() - h2.dense()) == 0.0


def kron_sum(h):
    """The dense sum as it was first written: one Kronecker product per term."""
    mat = np.zeros((2**h.n_qubits, 2**h.n_qubits), dtype=complex)
    for coeff, string in h.terms:
        mat += coeff * to_dense(string)
    return mat


@st.composite
def term_lists(draw):
    n = draw(st.integers(1, 4))
    term = st.tuples(
        st.floats(-10.0, 10.0, allow_nan=False),
        st.text(alphabet="IXYZ", min_size=n, max_size=n),
        st.sampled_from(VALID_PHASES),
    )
    terms = draw(st.lists(term, min_size=1, max_size=8))
    return HamiltonianTerms(n, [(c, PauliString(n, s, q)) for c, s, q in terms])


@given(term_lists())
def test_dense_is_bit_identical_to_kron_sum(h):
    assert h.dense().tobytes() == kron_sum(h).tobytes()


def test_dense_of_empty_model_is_zero():
    assert np.array_equal(HamiltonianTerms(2, []).dense(), np.zeros((4, 4)))


def test_dense_is_bit_identical_to_kron_sum_on_syk():
    h = build_syk_hamiltonian(sample_syk(10, seed=3))
    assert h.dense().tobytes() == kron_sum(h).tobytes()
