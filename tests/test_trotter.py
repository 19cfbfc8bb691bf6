"""Tests for product formulas, effective generators, and order fitting."""

import gc
import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trottergibbs import trotter
from trottergibbs.cli import build_model
from trottergibbs.linalg import BranchCutError, max_abs, spectral_norm
from trottergibbs.paulis import PauliString, pauli_commutes
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


def per_stage_loop(loop, stages, t, start):
    """``trotter._stage_loop`` with each stage building its own row index and factor."""
    coeffs, shifted, z, q, signs, states, n_blocks = loop
    size = states.size // n_blocks
    rows = np.arange(states.size)
    if start is None:
        ut = np.tile(np.eye(size, dtype=complex), (n_blocks, 1))
    else:
        ut = start.reshape(states.size, size).copy()
    for j, frac in stages:
        angle = frac * t * coeffs[j]
        mixed = ut[rows ^ shifted[j]]
        mixed *= (1j * math.sin(angle) * q[j] * signs[states & z[j]])[:, None]
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


def test_apply_formula_leaves_no_reference_cycles():
    h = build_syk_hamiltonian(sample_syk(8, seed=3))
    apply_formula(h, 0.2, 2)  # fill the model's lazily built masks
    gc.collect()
    gc.disable()
    try:
        for order in (2, 4):
            apply_formula(h, 0.2, order)
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
    # i^k X is Hermitian exactly for even k; -X (k = 2) runs like any term.
    h = HamiltonianTerms(1, [(0.5, replace(PauliString.from_label("X"), phase=k))])
    if k % 2:
        with pytest.raises(ValueError, match="Hermitian"):
            apply_formula(h, 0.3, 2)
    else:
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
