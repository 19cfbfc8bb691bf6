"""Tests for product formulas, effective generators, and order fitting."""

import gc
import hashlib
import itertools
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trottergibbs import syk, trotter
from trottergibbs.cli import build_model
from trottergibbs.linalg import BranchCutError, cayley_eigenphases, max_abs, spectral_norm
from trottergibbs.paulis import PauliString, parity_signs, pauli_commutes
from trottergibbs.syk import (
    HamiltonianTerms,
    build_syk_hamiltonian,
    group_commuting,
    normalize_one_norm,
    sample_syk,
)
from trottergibbs.trotter import (
    apply_formula,
    check_order,
    effective_hamiltonian,
    node_spectrum,
    stage_count,
    stage_weight,
    suzuki_u,
    trotter_error_norm,
)

from oracles import (
    commuting_runs,
    fit_slope,
    pauli_model,
    random_pauli_model,
    suzuki_stages,
    to_dense,
)


def product_oracle(h, t, order):
    """Left-to-right product of the flat circuit's stage exponentials, built independently."""
    mats = [c * to_dense(p) for c, p in h.terms]
    u = np.eye(2**h.n_qubits, dtype=complex)
    for idx, frac in suzuki_stages(h.n_terms, order):
        u = u @ scipy.linalg.expm(1j * mats[idx] * frac * t)
    return u


@st.composite
def small_models(draw, max_terms=5, coeff=0.5):
    """A random Pauli model (distinct non-identity labels, |c| <= coeff)."""
    n = draw(st.integers(1, 3))
    n_terms = draw(st.integers(1, min(max_terms, 4**n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.choice(4**n - 1, size=n_terms, replace=False) + 1
    terms = [
        (
            float(rng.uniform(-coeff, coeff)),
            PauliString.from_label("".join("IXYZ"[(v >> 2 * q) & 3] for q in range(n))),
        )
        for v in labels
    ]
    return HamiltonianTerms(n, terms)


@st.composite
def parity_models(draw, max_terms=5, coeff=0.5):
    """A random Pauli model, and whether it keeps fermion parity.

    A parity-keeping model has only labels with an even number of X/Y
    letters; a parity-breaking one has at least one label with an odd number.
    """
    n = draw(st.integers(1, 4))
    labels = ["".join(t) for t in itertools.product("IXYZ", repeat=n)][1:]
    odd = [label for label in labels if sum(ch in "XY" for ch in label) % 2]
    keeps = draw(st.booleans())
    if keeps:
        even = [label for label in labels if label not in odd]
        picked = draw(
            st.lists(st.sampled_from(even), min_size=1, max_size=max_terms, unique=True)
        )
    else:
        first = draw(st.sampled_from(odd))
        rest = [label for label in labels if label != first]
        picked = [first] + draw(
            st.lists(st.sampled_from(rest), max_size=max_terms - 1, unique=True)
        )
    coeffs = draw(
        st.lists(st.floats(-coeff, coeff), min_size=len(picked), max_size=len(picked))
    )
    terms = [(c, PauliString.from_label(label)) for c, label in zip(coeffs, picked)]
    return HamiltonianTerms(n, terms), keeps


def test_suzuki_u_values():
    assert suzuki_u(2) == pytest.approx(0.4144907717943757, abs=1e-12)
    assert suzuki_u(3) == pytest.approx(0.3730658277332728, abs=1e-12)


def test_suzuki_u_partition_of_unity():
    for l in (2, 3, 4):
        u = suzuki_u(l)
        assert 4 * u + (1 - 4 * u) == pytest.approx(1.0, abs=1e-15)
        assert 0 < u < 0.5


def test_node_spectrum_refuses_a_zero_step():
    with pytest.raises(ValueError, match="tau must be nonzero"):
        node_spectrum(pauli_model(["Z"], [1.0]), 0.0, 2)


def test_suzuki_u_domain():
    with pytest.raises(ValueError):
        suzuki_u(1)


def test_build_plan_first_order():
    assert stage_count(1, 3) == 3
    assert suzuki_stages(3, 1) == ((0, 1.0), (1, 1.0), (2, 1.0))


def test_build_plan_second_order_palindrome():
    stages = suzuki_stages(2, 2)
    assert stages == ((0, 0.5), (1, 0.5), (1, 0.5), (0, 0.5))
    idx = [i for i, _ in stages]
    assert idx == idx[::-1]


def test_build_plan_stage_counts():
    # The closed form counts the flat circuit's stages.
    for n_terms in (2, 3, 5):
        assert stage_count(1, n_terms) == n_terms
        assert stage_count(2, n_terms) == 2 * n_terms
        assert stage_count(4, n_terms) == 10 * n_terms
        assert stage_count(6, n_terms) == 50 * n_terms
        for order in (1, 2, 4, 6, 8):
            assert stage_count(order, n_terms) == len(suzuki_stages(n_terms, order))


def test_build_plan_fourth_order_fractions():
    u = suzuki_u(2)
    # Five second-order blocks scaled by (u, u, 1-4u, u, u).
    fracs = sorted({round(f, 14) for _, f in suzuki_stages(2, 4)})
    expected = sorted({round(v, 14) for v in (0.5 * u, 0.5 * (1 - 4 * u))})
    assert fracs == expected


def fraction_sums(n_terms, order):
    """Per-term sums of the flat circuit's stage fractions; each must be 1."""
    sums = np.zeros(n_terms)
    for idx, frac in suzuki_stages(n_terms, order):
        sums[idx] += frac
    return sums


def test_build_plan_fraction_sums_to_one():
    for order in (1, 2, 4, 6):
        for n_terms in (2, 4):
            sums = fraction_sums(n_terms, order)
            assert np.allclose(sums, 1.0, atol=1e-12)


def test_build_plan_rejects_bad_orders():
    for order in (3, 0, -2):
        with pytest.raises(ValueError, match=f"order must be 1 or even, got {order}"):
            check_order(order)
    with pytest.raises(ValueError, match="order must be 1 or even, got 3"):
        apply_formula(pauli_model(["XI", "IZ"], [0.2, 0.3]), 0.3, 3)
    for order in (1, 2, 4, 6):
        check_order(order)


def test_apply_formula_single_term_is_exact():
    h = pauli_model(["ZZ"], [0.7])
    for order in (1, 2, 4):
        u = apply_formula(h, 0.9, order)
        exact = scipy.linalg.expm(1j * 0.9 * h.dense())
        assert max_abs(u - exact) < 1e-12


def test_apply_formula_zero_time():
    h = pauli_model(["XI", "ZZ"], [0.3, 0.4])
    u = apply_formula(h, 0.0, 2)
    assert max_abs(u - np.eye(4)) < 1e-14


def test_apply_formula_commuting_terms_exact():
    h = pauli_model(["ZI", "ZZ"], [0.8, -0.5])
    exact = scipy.linalg.expm(1j * 0.6 * h.dense())
    for order in (1, 2, 4):
        u = apply_formula(h, 0.6, order)
        assert max_abs(u - exact) < 1e-10


def test_apply_formula_matches_stage_product_oracle():
    rng = np.random.default_rng(21)
    for _ in range(6):
        h = random_pauli_model(rng, 3, 4, scale=1.0)
        t = rng.uniform(-0.5, 0.5)
        assert max_abs(apply_formula(h, t, 2) - product_oracle(h, t, 2)) < 1e-12


def test_apply_formula_unitary():
    rng = np.random.default_rng(22)
    h = random_pauli_model(rng, 3, 5, scale=1.0)
    for order in (1, 2, 4):
        u = apply_formula(h, 0.37, order)
        assert max_abs(u @ u.conj().T - np.eye(8)) < 1e-10


def test_apply_formula_even_order_time_reversal():
    # S_p(-t) = S_p(t)^dag for even p.
    rng = np.random.default_rng(23)
    h = random_pauli_model(rng, 2, 3, scale=1.0)
    for order in (2, 4):
        fwd = apply_formula(h, 0.41, order)
        bwd = apply_formula(h, -0.41, order)
        assert max_abs(bwd - fwd.conj().T) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    parity_models(),
    st.sampled_from((1, 2, 4, 6)),
    st.booleans(),
    st.floats(-0.6, 0.6, allow_nan=False),
)
def test_apply_formula_matches_product_oracle_property(model, order, reorder, t):
    # Parity-keeping models run the two-block kernel, the others one block.
    # Orders 4 and 6 run the recursion with reuse; the oracle multiplies
    # the flat stage list.  A reordered model is the same check on another
    # term order.
    h, keeps = model
    if reorder:
        h = group_commuting(h)
    got = apply_formula(h, t, order)
    assert max_abs(got - product_oracle(h, t, order)) < 1e-12
    if keeps:
        parity = np.array([bin(b).count("1") % 2 for b in range(2**h.n_qubits)])
        assert np.all(got[parity[:, None] != parity[None, :]] == 0.0)


SYK8 = normalize_one_norm(build_syk_hamiltonian(sample_syk(8, seed=7)))[0]


def per_stage_loop(loop, stages, t, start, runs=None):
    """``trotter._stage_loop`` with each stage building its own row index and factor.

    Every stage is its own pass over the array, whatever ``runs`` says.
    """
    coeffs, shifted, q, row_signs, states, n_blocks = loop
    size = states.size // n_blocks
    rows = np.arange(states.size)
    if start is None:
        ut = np.tile(np.eye(size, dtype=complex), (n_blocks, 1))
    else:
        ut = start.reshape(states.size, size).copy()
    for j, frac in stages:
        angle = frac * t * coeffs[j]
        mixed = ut[rows ^ shifted[j]]
        mixed *= (1j * math.sin(angle) * q[j] * row_signs[j])[:, None]
        ut *= math.cos(angle)
        ut += mixed
    return ut.reshape(n_blocks, size, size)


@settings(max_examples=60, deadline=None)
@given(
    parity_models(max_terms=40),
    st.sampled_from((1, 2, 4, 6)),
    st.sampled_from((1, 3, trotter.STAGE_CHUNK)),
    st.floats(-0.6, 0.6, allow_nan=False),
)
@example((SYK8, True), 2, trotter.STAGE_CHUNK, 0.3)
@example((SYK8, True), 4, trotter.STAGE_CHUNK, -0.45)
def test_apply_formula_is_bit_identical_to_the_per_stage_loop(model, order, chunk, t):
    # Parity-keeping models run two blocks, the others one; orders 4 and 6
    # run stage loops on a start matrix.  Up to 80 stages per loop (140 for
    # SYK-8 at order 2) put stage counts on both sides of a chunk boundary.
    h, _ = model
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trotter, "_stage_loop", per_stage_loop)
        want = apply_formula(h, t, order)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trotter, "STAGE_CHUNK", chunk)
        got = apply_formula(h, t, order)
    assert got.tobytes() == want.tobytes()


# sha256 of apply_formula(h, tau, order).tobytes(), recorded before the stage
# gather became ``take``.  The goldens are 4-qubit runs; the 6-qubit SYK-12
# model is the size the benchmark solves.
SYK12 = {"kind": "syk", "n_majorana": 12, "seed": 7, "one_norm": 1.0}
SYK8_DOC = {**SYK12, "n_majorana": 8}
FORMULA_DIGESTS = [
    (SYK12, 2, 0.3, "db67bf75b8a070d55a551c66ca0fa760c4a9859c5d57c7fabb8ae3c7ec1142c6"),
    (SYK12, 2, -0.7, "e4fbd42ecbcf3cabcc9226233d928a9098b6be06ac14b53a7281e350e26dc07d"),
    (SYK12, 4, 0.3, "17e537c9a1a5268a9b564d0c167eaf0951110711464d4d8dfa3ad16c77d498a3"),
    (SYK12, 4, -0.7, "c7921670c67e3b024addf2d00f682b0d0a98807f0106c28dabf9b6d036e3cbf5"),
    (SYK8_DOC, 2, 0.3, "7cb886cca4926c3f0292e9874ffc528b08e60a7da338907a523e487777c84468"),
]


@pytest.mark.parametrize(
    "doc, order, tau, digest",
    FORMULA_DIGESTS,
    ids=[f"syk{d['n_majorana']}-order{p}-tau{t}" for d, p, t, _ in FORMULA_DIGESTS],
)
def test_apply_formula_bits_are_pinned(doc, order, tau, digest):
    u = apply_formula(build_model(doc), tau, order)
    assert hashlib.sha256(u.tobytes()).hexdigest() == digest


@settings(max_examples=40, deadline=None)
@given(parity_models(), st.floats(-0.6, 0.6, allow_nan=False))
@example((SYK8, True), 0.3)
def test_order1_on_reordered_model_is_product_of_group_exponentials(model, t):
    # Applying a commuting group's members one after another is the exact
    # exponential of their sum, so order 1 on the reordered model is the
    # product over groups of expm(i t sum_{j in g} c_j P_j).
    h = group_commuting(model[0])
    mats = [c * to_dense(p) for c, p in h.terms]
    want = np.eye(2**h.n_qubits, dtype=complex)
    for run in commuting_runs(h):
        want = want @ scipy.linalg.expm(1j * t * sum(mats[j] for j in run))
    assert max_abs(apply_formula(h, t, 1) - want) < 1e-12


@pytest.mark.parametrize("order, share", [(1, 1.0), (2, 1.0), (4, 2 / 5), (6, 4 / 25)])
def test_recursion_runs_a_share_of_the_flat_stages(monkeypatch, order, share):
    # S_2l reuses its outer factor: 2^(l-1) order-2 stage loops instead of
    # the 5^(l-1) order-2 blocks of the circuit that stage_count counts.
    stage_loop = trotter._stage_loop
    updates = []

    def counted(loop, stages, t, start):
        updates.append(len(stages))
        return stage_loop(loop, stages, t, start)

    monkeypatch.setattr(trotter, "_stage_loop", counted)
    h = random_pauli_model(np.random.default_rng(29), 3, 4, scale=0.3)
    apply_formula(h, 0.4, order)
    assert sum(updates) == share * stage_count(order, h.n_terms)
    assert len(updates) == 2 ** max(0, order // 2 - 1)


# Stated bound on the fold's rounding: folded and unfolded blocks, and their
# eigenphases, agree within FOLD_ULPS_PER_STAGE * stage_count * eps.  The
# largest ratio seen was 0.3 (3000 random models of 1-4 qubits) and 0.085
# (SYK-8 to SYK-16 at orders 2, 4 and 6).
FOLD_ULPS_PER_STAGE = 1.0


def fold_bound(h, order):
    return FOLD_ULPS_PER_STAGE * stage_count(order, h.n_terms) * np.finfo(float).eps


def folded_and_unfolded(h, t, order):
    """apply_formula's blocks with every block size on the fold's side of the gate, and not."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trotter, "CAYLEY_MIN_ROWS", 1)
        folded = apply_formula(h, t, order, blocks=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trotter, "CAYLEY_MIN_ROWS", 2**h.n_qubits + 1)
        unfolded = apply_formula(h, t, order, blocks=True)
    assert np.array_equal(folded[1], unfolded[1])
    return folded[0], unfolded[0]


SYK10 = normalize_one_norm(build_syk_hamiltonian(sample_syk(10, seed=7)))[0]
SYK12_MODEL = normalize_one_norm(build_syk_hamiltonian(sample_syk(12, seed=7)))[0]
ONE_BLOCK = pauli_model(["YII", "IYI", "IIY", "XZX"], [0.3, -0.2, 0.25, 0.1])
# One parity block, a time-reversal string, and a run of 3 equal x masks when x-sorted.
ONE_BLOCK_RUNS = pauli_model(
    ["ZYX", "XZZ", "ZYZ", "IYY", "IIZ", "ZXY"], [-0.38, 0.14, 0.34, 0.26, 0.31, 0.13]
)


@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize(
    "h, n_blocks, swaps",
    [(SYK8, 2, False), (SYK10, 2, True), (ONE_BLOCK, 1, False)],
    ids=["syk8-parity-blocks", "syk10-odd-sectors-swap", "one-block"],
)
def test_folded_leaf_matches_the_stage_loop(h, n_blocks, swaps, order):
    # SYK-10 has 5 qubits, so V's vx (all ones) flips parity and each block
    # of the fold reads the other sector's block.
    vx, _ = h.time_reversal
    assert n_blocks == 1 or swaps == bool(vx.bit_count() % 2)
    for t in (0.3, -0.7):
        folded, unfolded = folded_and_unfolded(h, t, order)
        assert folded.shape[0] == n_blocks
        assert max_abs(folded - unfolded) <= fold_bound(h, order)


@settings(max_examples=60, deadline=None)
@given(parity_models(max_terms=12), st.sampled_from((2, 4, 6)), st.floats(-0.6, 0.6))
@example((pauli_model(["X", "Y", "Z"], [0.3, -0.2, 0.4]), False), 2, 0.5)
def test_fold_stays_within_its_bound_and_leaves_a_model_without_v_alone(model, order, t):
    h, _ = model
    folded, unfolded = folded_and_unfolded(h, t, order)
    if h.time_reversal is None:
        assert folded.tobytes() == unfolded.tobytes()
    else:
        assert max_abs(folded - unfolded) <= fold_bound(h, order)


def x_sorted(h):
    """The same terms stably sorted by x mask: each x class is one run of the stage list."""
    return HamiltonianTerms(h.n_qubits, sorted(h.terms, key=lambda term: term[1].x))


def run_lengths(h):
    return [len(list(run)) for _, run in itertools.groupby(h.pauli_masks[0].tolist())]


def fused_and_per_stage(h, t, order):
    """apply_formula's folded blocks from the fused stage loop, and one pass per stage."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trotter, "CAYLEY_MIN_ROWS", 1)
        fused = apply_formula(h, t, order, blocks=True)
        patch.setattr(trotter, "_stage_loop", per_stage_loop)
        per_stage = apply_formula(h, t, order, blocks=True)
    assert np.array_equal(fused[1], per_stage[1])
    return fused[0], per_stage[0]


# The largest ratio of |fused - per stage| to the fold's bound was 0.061
# (SYK-8 to SYK-16 seed 7, SYK order and x-sorted, orders 2, 4 and 6 up
# to SYK-12 and order 2 above, t in 0.3, -0.9 and 2.5).
@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize("by_x", [False, True], ids=["syk-order", "x-sorted"])
@pytest.mark.parametrize(
    "h", [SYK8, SYK10, SYK12_MODEL], ids=["syk8", "syk10-odd-sectors-swap", "syk12"]
)
def test_fused_runs_stay_within_the_fold_bound(h, by_x, order):
    # SYK order has runs of up to 4 equal x masks; sorting by x makes each
    # x class one run, about 9 to 16 stages long on average.
    if by_x:
        h = x_sorted(h)
    assert max(run_lengths(h)) == (16 if by_x else 4)
    for t in (0.3, -0.9, 2.5):
        fused, per_stage = fused_and_per_stage(h, t, order)
        assert max_abs(fused - per_stage) <= fold_bound(h, order)


def interleaved(h):
    """The same terms dealt round-robin over their x classes, so adjacent x masks differ."""
    rank = {}
    keyed = []
    for term in h.terms:
        x = term[1].x
        rank[x] = rank.get(x, -1) + 1
        keyed.append(((rank[x], x), term))
    return HamiltonianTerms(h.n_qubits, [term for _, term in sorted(keyed, key=lambda k: k[0])])


ARRANGEMENTS = {"term-order": lambda h: h, "x-sorted": x_sorted, "interleaved": interleaved}


@settings(max_examples=80, deadline=None)
@given(
    parity_models(max_terms=40),
    st.sampled_from((2, 4, 6)),
    st.sampled_from(sorted(ARRANGEMENTS)),
    st.floats(-0.6, 0.6, allow_nan=False),
)
@example((ONE_BLOCK_RUNS, False), 4, "x-sorted", 0.5)
@example((SYK10, True), 4, "x-sorted", -0.45)
@example((SYK10, True), 2, "interleaved", 0.3)
@example((SYK12_MODEL, True), 4, "interleaved", -0.45)
def test_fused_runs_match_the_per_stage_loop_property(model, order, arrangement, t):
    # Parity-keeping models run two blocks, the others one.  A model without
    # a time-reversal string is not folded, so it is not fused either; when
    # the merged half list has no repeated adjacent x mask (SYK-12 dealt
    # over its x classes) every run has one stage, which scales by its
    # scalar cos.  Both give the bits of one pass per stage.  SYK-10 dealt
    # the same way fuses runs of 2 once merged.
    h = ARRANGEMENTS[arrangement](model[0])
    fused, per_stage = fused_and_per_stage(h, t, order)
    if h.time_reversal is None or max(h.stage_schedule.runs, default=1) == 1:
        assert fused.tobytes() == per_stage.tobytes()
    else:
        assert max_abs(fused - per_stage) <= fold_bound(h, order)


@settings(max_examples=80, deadline=None)
@given(
    parity_models(max_terms=40),
    st.sampled_from((2, 4, 6)),
    st.sampled_from(sorted(ARRANGEMENTS)),
    st.floats(-0.6, 0.6, allow_nan=False),
)
@example((ONE_BLOCK_RUNS, False), 6, "interleaved", -0.45)
@example((SYK8, True), 4, "term-order", 0.5)
@example((SYK10, True), 2, "interleaved", 0.3)
def test_stage_schedule_merges_only_commuting_terms_property(model, order, arrangement, t):
    # The merged order is a permutation that swaps only commuting terms, so
    # its product is the unfolded term-order product; its runs are the
    # maximal runs of equal shifted x; the row signs are the ones each stage
    # would compute.  Parity-free models run one block, parity-keeping ones
    # two, and odd qubit counts (SYK-10 among them) swap V's sectors.
    h = ARRANGEMENTS[arrangement](model[0])
    plan = h.stage_schedule
    x, z, _ = h.pauli_masks
    assert plan.n_blocks == 1 + model[1]
    assert sorted(plan.order) == list(range(h.n_terms))
    place = {j: k for k, j in enumerate(plan.order)}
    for i, j in itertools.combinations(range(h.n_terms), 2):
        if place[i] > place[j]:
            assert pauli_commutes(h.terms[i][1], h.terms[j][1])
    assert np.array_equal(plan.shifted, x >> (plan.n_blocks - 1))
    keys = plan.shifted[list(plan.order)].tolist()
    assert plan.runs.tolist() == [len(list(run)) for _, run in itertools.groupby(keys)]
    assert plan.row_signs.dtype == np.int8
    assert np.array_equal(plan.row_signs, parity_signs(h.n_qubits)[plan.states & z[:, None]])
    folded, unfolded = folded_and_unfolded(h, t, order)
    assert max_abs(folded - unfolded) <= fold_bound(h, order)


@pytest.mark.parametrize("n_majorana, runs, merged", [(12, 246, 187), (16, 927, 641)])
def test_stage_schedule_run_counts_are_pinned(n_majorana, runs, merged):
    # SYK term order, and the half list after the commuting merge.
    h = build_model({**SYK12, "n_majorana": n_majorana})
    assert len(run_lengths(h)) == runs
    assert h.stage_schedule.runs.size == merged
    assert h.stage_schedule.runs.sum() == h.n_terms


def test_stage_schedule_is_built_once_per_model_and_not_at_construction(monkeypatch):
    # Built inside the solve, on the first formula, so the benchmark's model
    # setup does none of the solve's work; every later formula reuses it.
    builds = []
    build = syk.build_stage_schedule

    def counted(h):
        builds.append(h)
        return build(h)

    monkeypatch.setattr(syk, "build_stage_schedule", counted)
    h = build_model(SYK12)
    assert not builds and "stage_schedule" not in vars(h)
    for tau in (0.3, 0.7):
        node_spectrum(h, tau, 4)
    assert len(builds) == 1 and builds[0] is h


@pytest.mark.parametrize(
    "n_majorana, order, share, runs",
    [(12, 2, 1 / 2, 187), (12, 4, 1 / 5, 2 * 187), (16, 2, 1 / 2, 641)],
    ids=["12-2-0.5", "12-4-0.2", "16-2-0.5"],
)
def test_node_spectrum_folds_each_order2_leaf(monkeypatch, n_majorana, order, share, runs):
    # From CAYLEY_MIN_ROWS rows up, a node runs Gamma stages per order-2 leaf
    # instead of 2 Gamma, and passes over the array once per run of equal x
    # masks in the commuting-merged half list (187 of the 495 SYK-12 stages,
    # 641 of 1820 at SYK-16); its eigenphases stay within the fold's bound of
    # the unfolded blocks' phases.  A pass is one row gather, ``take`` on the
    # d x d/2 array.
    stage_loop = trotter._stage_loop
    stages = []

    def counted(loop, leaf, *args):
        stages.append(len(leaf))
        return stage_loop(loop, leaf, *args)

    h = build_model({**SYK12, "n_majorana": n_majorana})
    tau = 0.7
    gathers = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") == "take":
            if getattr(arg.__self__, "shape", None) == (2**h.n_qubits, 2**h.n_qubits // 2):
                gathers.append(1)

    monkeypatch.setattr(trotter, "_stage_loop", counted)
    sys.setprofile(profile)
    try:
        got = node_spectrum(h, tau, order)
    finally:
        sys.setprofile(None)
    assert sum(stages) == share * stage_count(order, h.n_terms)
    assert len(gathers) == runs
    monkeypatch.setattr(trotter, "CAYLEY_MIN_ROWS", 2**h.n_qubits)
    unfolded, _ = apply_formula(h, tau, order, blocks=True)
    want = np.sort(cayley_eigenphases(unfolded, trotter.phase_bound(h, tau, order)))
    assert np.max(np.abs(got * tau - want)) <= fold_bound(h, order)


def test_apply_formula_leaves_no_reference_cycles():
    # The dense route at 4 qubits, and the folded, fused blocks at 6.
    calls = [
        (build_syk_hamiltonian(sample_syk(n_majorana, seed=3)), blocks)
        for n_majorana, blocks in ((8, False), (12, True))
    ]
    for h, blocks in calls:
        apply_formula(h, 0.2, 2, blocks=blocks)  # fill the model's lazily built masks
    gc.collect()
    gc.disable()
    try:
        for (h, blocks), order in itertools.product(calls, (2, 4)):
            apply_formula(h, 0.2, order, blocks=blocks)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=40, deadline=None)
@given(
    small_models(),
    st.sampled_from((1, 2, 4)),
    st.floats(0.2, 1.0),
    st.sampled_from((1.0, -1.0)),
)
def test_node_spectrum_matches_effective_hamiltonian(h, order, s, sign):
    # |tau| * one-norm * stage_weight stays below 2.4, well inside the branch.
    tau = sign * s * 0.4
    got = node_spectrum(h, tau, order)
    assert np.max(np.abs(got - np.linalg.eigvalsh(effective_hamiltonian(h, tau, order)))) < 1e-10


@pytest.mark.parametrize("n_majorana, dense", [(8, True), (12, False)])
def test_node_spectrum_routes_by_block_size(monkeypatch, n_majorana, dense):
    # 4-qubit nodes (16-row blocks) keep eigvals on the scattered dense
    # unitary, bit for bit the goldens' route; 6-qubit nodes (32-row blocks)
    # and up form no dense matrix and call no general eigensolver.
    calls = []
    for module, name in ((trotter, "_scatter"), (np.linalg, "eigvals")):
        real = getattr(module, name)

        def counted(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    h = build_model({**SYK12, "n_majorana": n_majorana})
    got = node_spectrum(h, 0.3, 2)
    assert calls == (["_scatter", "eigvals"] if dense else [])
    want = np.sort(np.angle(np.linalg.eigvals(apply_formula(h, 0.3, 2)))) / 0.3
    assert np.max(np.abs(got - want)) < 1e-13


def test_node_spectrum_refuses_branch_cut():
    h = pauli_model(["ZI", "IZ"], [math.pi / 2, math.pi / 2])
    with pytest.raises(BranchCutError):
        node_spectrum(h, 1.0, 2)


@given(st.integers(0, 3))
def test_apply_formula_refuses_non_hermitian_terms(k):
    # i^k 0.5 X is Hermitian exactly for even k.  Its sign lives in the
    # coefficient, so -X (k = 2) runs like any term; an imaginary
    # coefficient is refused when the model is built.
    coeff = 0.5 * (1, 1j, -1, -1j)[k]
    if k % 2:
        with pytest.raises(ValueError, match="is not real"):
            HamiltonianTerms(1, [(coeff, PauliString.from_label("X"))])
        return
    h = HamiltonianTerms(1, [(coeff.real, PauliString.from_label("X"))])
    assert max_abs(apply_formula(h, 0.3, 2) - product_oracle(h, 0.3, 2)) < 1e-14


def test_stage_weight_is_absolute_fraction_sum():
    for order in (1, 2, 4, 6):
        want = sum(abs(f) for _, f in suzuki_stages(1, order))
        assert stage_weight(order) == pytest.approx(want, rel=1e-13)
    assert stage_weight(4) == pytest.approx(8 * suzuki_u(2) - 1, rel=1e-15)


def test_effective_hamiltonian_single_term():
    h = pauli_model(["XX"], [0.6])
    assert max_abs(effective_hamiltonian(h, 0.2, 2) - h.dense()) < 1e-10


def test_effective_hamiltonian_exp_reconstructs_formula():
    rng = np.random.default_rng(25)
    h = random_pauli_model(rng, 3, 4, scale=0.3)
    tau = 0.17
    u = scipy.linalg.expm(1j * effective_hamiltonian(h, tau, 2) * tau)
    assert max_abs(u - apply_formula(h, tau, 2)) < 1e-9


def test_effective_hamiltonian_even_order_is_even_in_tau():
    rng = np.random.default_rng(26)
    h = random_pauli_model(rng, 2, 3, scale=0.4)
    plus = effective_hamiltonian(h, 0.3, 2)
    minus = effective_hamiltonian(h, -0.3, 2)
    assert max_abs(plus - minus) < 1e-10


def test_effective_hamiltonian_rejects_zero_tau():
    h = pauli_model(["XI", "IZ"], [0.2, 0.3])
    with pytest.raises(ValueError):
        effective_hamiltonian(h, 0.0, 2)


def test_effective_hamiltonian_branch_cut_at_large_tau():
    # Commuting terms make the formula exact, so eigenphases land exactly
    # on +/-(pi) when tau * eigenvalue does.
    h = pauli_model(["ZI", "IZ"], [math.pi / 2, math.pi / 2])
    with pytest.raises(BranchCutError):
        effective_hamiltonian(h, 1.0, 2)


def test_error_norm_commuting_is_zero():
    h = pauli_model(["ZI", "ZZ"], [0.8, -0.5])
    for order in (1, 2):
        err = trotter_error_norm(h, 0.3, order)
        assert err < 1e-10


def test_error_norm_slopes_match_order():
    from trottergibbs.paulis import pauli_commutes

    rng = np.random.default_rng(27)
    taus = np.geomspace(3e-3, 3e-2, 5)
    done = 0
    while done < 3:
        h = random_pauli_model(rng, 3, 2, scale=1.0)
        if pauli_commutes(h.terms[0][1], h.terms[1][1]):
            continue  # commuting draws have no formula error to fit
        done += 1
        for order, tol in ((1, 0.1), (2, 0.1)):
            errs = [trotter_error_norm(h, t, order) for t in taus]
            assert abs(fit_slope(np.log(taus), np.log(errs)) - order) < tol


def fit_alpha(h, p, tau_grid, slope_tol=0.2):
    """Least-squares commutator constant in ||H_eff - H|| = alpha |tau|^p / (p+1)!.

    Rejects grids whose log-log slope strays more than ``slope_tol`` from
    the order, since alpha is only meaningful in the asymptotic regime.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size < 4:
        raise ValueError("need at least 4 grid points")
    errors = np.array([trotter_error_norm(h, tau, p) for tau in tau_grid])
    if np.any(errors <= 0.0):
        raise ValueError("zero Trotter error on the grid; model may be commuting")
    slope = np.polyfit(np.log(np.abs(tau_grid)), np.log(errors), 1)[0]
    if abs(slope - p) > slope_tol:
        raise ValueError(
            f"non-asymptotic grid: log-log slope {slope:.3f} deviates from p={p} "
            f"by more than {slope_tol}"
        )
    basis = np.abs(tau_grid) ** p / math.factorial(p + 1)
    return float(np.dot(errors, basis) / np.dot(basis, basis))


def test_fit_alpha_commuting_is_tiny():
    h = pauli_model(["ZI", "IZ"], [0.7, 0.4])
    alpha = fit_alpha(h, 1, np.geomspace(1e-3, 1e-2, 4), slope_tol=2.0)
    assert alpha < 1e-6


def test_fit_alpha_first_order_matches_commutator():
    # Leading error of S_1 is (tau/2)||[H1, H2]||, so alpha ~ ||[H1, H2]||
    # in the normalization ||L|| = alpha tau^p / (p+1)!.
    h = pauli_model(["XX", "ZI"], [1.0, 1.0])
    m1, m2 = (c * to_dense(p) for c, p in h.terms)
    comm = spectral_norm(m1 @ m2 - m2 @ m1)
    alpha = fit_alpha(h, 1, np.geomspace(1e-3, 1e-2, 5))
    assert abs(alpha - comm) / comm < 0.25


def test_fit_alpha_stable_across_decades():
    rng = np.random.default_rng(28)
    h = random_pauli_model(rng, 3, 3, scale=1.0)
    a1 = fit_alpha(h, 2, np.geomspace(1e-3, 1e-2, 4))
    a2 = fit_alpha(h, 2, np.geomspace(1e-2, 1e-1, 4))
    assert abs(a1 - a2) / a1 < 0.1


def test_fit_alpha_rejects_nonasymptotic_grid():
    h = pauli_model(["XX", "ZI"], [1.0, 1.0])
    with pytest.raises(ValueError):
        fit_alpha(h, 1, np.array([1.5, 2.0, 2.5]))
