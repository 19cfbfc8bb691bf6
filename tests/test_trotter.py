"""Tests for product formulas, effective generators, and order fitting."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from trottergibbs.linalg import BranchCutError, max_abs, spectral_norm
from trottergibbs.paulis import PauliString
from trottergibbs.syk import (
    HamiltonianTerms,
    build_syk_hamiltonian,
    group_commuting,
    sample_syk,
)
from trottergibbs.trotter import (
    apply_formula,
    build_plan,
    effective_hamiltonian,
    fit_alpha,
    node_spectrum,
    stage_weight,
    suzuki_u,
    trotter_error_norm,
)


def two_term_model(labels, coeffs):
    n = len(labels[0])
    terms = [(c, PauliString.from_label(s)) for c, s in zip(coeffs, labels)]
    return HamiltonianTerms(n, terms)


def random_model(rng, n_qubits, n_terms, scale=1.0):
    letters = "IXYZ"
    terms = []
    seen = set()
    while len(terms) < n_terms:
        label = "".join(rng.choice(list(letters)) for _ in range(n_qubits))
        if label == "I" * n_qubits or label in seen:
            continue
        seen.add(label)
        terms.append((float(rng.normal(0, scale)), PauliString.from_label(label)))
    return HamiltonianTerms(n_qubits, terms)


def product_oracle(h, t, plan, grouped=False):
    """Left-to-right product of stage exponentials, built independently."""
    mats = [c * _dense(p) for c, p in h.terms]
    if grouped:
        mats = [sum(mats[i] for i in group) for group in h.groups]
    u = np.eye(2**h.n_qubits, dtype=complex)
    for idx, frac in plan.stages:
        u = u @ scipy.linalg.expm(1j * mats[idx] * frac * t)
    return u


def _dense(p):
    single = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    m = np.array([[p.phase]], dtype=complex)
    for ch in p.letters:
        m = np.kron(m, single[ch])
    return m


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
    return group_commuting(HamiltonianTerms(n, terms))


def log_log_slope(taus, errs):
    return float(np.polyfit(np.log(taus), np.log(errs), 1)[0])


def test_suzuki_u_values():
    assert suzuki_u(2) == pytest.approx(0.4144907717943757, abs=1e-12)
    assert suzuki_u(3) == pytest.approx(0.3730658277332728, abs=1e-12)


def test_suzuki_u_partition_of_unity():
    for l in (2, 3, 4):
        u = suzuki_u(l)
        assert 4 * u + (1 - 4 * u) == pytest.approx(1.0, abs=1e-15)
        assert 0 < u < 0.5


def test_suzuki_u_domain():
    with pytest.raises(ValueError):
        suzuki_u(1)


def test_build_plan_first_order():
    plan = build_plan(3, 1)
    assert plan.stages == ((0, 1.0), (1, 1.0), (2, 1.0))
    assert plan.n_stages == 3


def test_build_plan_second_order_palindrome():
    plan = build_plan(2, 2)
    assert plan.stages == ((0, 0.5), (1, 0.5), (1, 0.5), (0, 0.5))
    idx = [i for i, _ in plan.stages]
    assert idx == idx[::-1]


def test_build_plan_stage_counts():
    for n_terms in (2, 3, 5):
        assert build_plan(n_terms, 1).n_stages == n_terms
        assert build_plan(n_terms, 2).n_stages == 2 * n_terms
        assert build_plan(n_terms, 4).n_stages == 10 * n_terms
        assert build_plan(n_terms, 6).n_stages == 50 * n_terms


def test_build_plan_fourth_order_fractions():
    plan = build_plan(2, 4)
    u = suzuki_u(2)
    # Five second-order blocks scaled by (u, u, 1-4u, u, u).
    fracs = sorted({round(f, 14) for _, f in plan.stages})
    expected = sorted({round(v, 14) for v in (0.5 * u, 0.5 * (1 - 4 * u))})
    assert fracs == expected


def test_build_plan_fraction_sums_to_one():
    for order in (1, 2, 4, 6):
        for n_terms in (2, 4):
            sums = build_plan(n_terms, order).fraction_sums()
            assert np.allclose(sums, 1.0, atol=1e-12)


def test_build_plan_rejects_bad_orders():
    with pytest.raises(ValueError):
        build_plan(2, 3)
    with pytest.raises(ValueError):
        build_plan(2, 0)
    with pytest.raises(ValueError):
        build_plan(0, 2)


def test_apply_formula_single_term_is_exact():
    h = two_term_model(["ZZ"], [0.7])
    for order in (1, 2, 4):
        plan = build_plan(1, order)
        u = apply_formula(h, 0.9, plan)
        exact = scipy.linalg.expm(1j * 0.9 * h.dense())
        assert max_abs(u - exact) < 1e-12


def test_apply_formula_zero_time():
    h = two_term_model(["XI", "ZZ"], [0.3, 0.4])
    u = apply_formula(h, 0.0, build_plan(2, 2))
    assert max_abs(u - np.eye(4)) < 1e-14


def test_apply_formula_commuting_terms_exact():
    h = two_term_model(["ZI", "ZZ"], [0.8, -0.5])
    exact = scipy.linalg.expm(1j * 0.6 * h.dense())
    for order in (1, 2, 4):
        u = apply_formula(h, 0.6, build_plan(2, order))
        assert max_abs(u - exact) < 1e-10


def test_apply_formula_matches_stage_product_oracle():
    rng = np.random.default_rng(21)
    for _ in range(6):
        h = random_model(rng, 3, 4)
        plan = build_plan(4, 2)
        t = rng.uniform(-0.5, 0.5)
        assert max_abs(apply_formula(h, t, plan) - product_oracle(h, t, plan)) < 1e-12


def test_apply_formula_unitary():
    rng = np.random.default_rng(22)
    h = random_model(rng, 3, 5)
    for order in (1, 2, 4):
        u = apply_formula(h, 0.37, build_plan(5, order))
        assert max_abs(u @ u.conj().T - np.eye(8)) < 1e-10


def test_apply_formula_even_order_time_reversal():
    # S_p(-t) = S_p(t)^dag for even p.
    rng = np.random.default_rng(23)
    h = random_model(rng, 2, 3)
    for order in (2, 4):
        plan = build_plan(3, order)
        fwd = apply_formula(h, 0.41, plan)
        bwd = apply_formula(h, -0.41, plan)
        assert max_abs(bwd - fwd.conj().T) < 1e-12


def test_apply_formula_grouped_matches_ungrouped_limit():
    # Grouped stages exponentiate commuting sums exactly; on a model whose
    # groups are singletons the two paths agree stage by stage.
    rng = np.random.default_rng(24)
    h = random_model(rng, 2, 2)
    from trottergibbs.syk import group_commuting

    hg = group_commuting(h)
    n_units = len(hg.groups)
    plan = build_plan(n_units, 2)
    ug = apply_formula(hg, 0.3, plan, grouped=True)
    exact = scipy.linalg.expm(1j * 0.3 * h.dense())
    # Second-order error bound, just a sanity envelope here.
    assert max_abs(ug - exact) < 0.1
    assert max_abs(ug @ ug.conj().T - np.eye(4)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    small_models(),
    st.sampled_from((1, 2, 4)),
    st.booleans(),
    st.floats(-0.6, 0.6, allow_nan=False),
)
def test_apply_formula_matches_product_oracle_property(h, order, grouped, t):
    n_units = len(h.groups) if grouped else h.n_terms
    plan = build_plan(n_units, order)
    got = apply_formula(h, t, plan, grouped=grouped)
    assert max_abs(got - product_oracle(h, t, plan, grouped=grouped)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    small_models(),
    st.sampled_from((1, 2, 4)),
    st.floats(0.2, 1.0),
    st.sampled_from((1.0, -1.0)),
)
def test_node_spectrum_matches_effective_hamiltonian(h, order, s, sign):
    # |tau| * one-norm * stage_weight stays below 2.4, well inside the branch.
    plan = build_plan(h.n_terms, order)
    got = node_spectrum(h, sign * s, 0.4, plan)
    eff = effective_hamiltonian(h, sign * s, 0.4, plan)
    assert np.max(np.abs(got - np.linalg.eigvalsh(eff.matrix))) < 1e-10


def test_node_spectrum_refuses_branch_cut():
    h = two_term_model(["ZI", "IZ"], [math.pi / 2, math.pi / 2])
    with pytest.raises(BranchCutError):
        node_spectrum(h, 1.0, 1.0, build_plan(2, 2))


def test_apply_formula_refuses_non_hermitian_terms():
    h = HamiltonianTerms(1, [(0.5, PauliString(1, "X", 1j))])
    with pytest.raises(ValueError, match="Hermitian"):
        apply_formula(h, 0.3, build_plan(1, 2))


def test_stage_weight_is_absolute_fraction_sum():
    for order in (1, 2, 4, 6):
        plan = build_plan(1, order)
        want = sum(abs(f) for _, f in plan.stages)
        assert stage_weight(order) == pytest.approx(want, rel=1e-13)
    assert stage_weight(4) == pytest.approx(8 * suzuki_u(2) - 1, rel=1e-15)


def test_effective_hamiltonian_single_term():
    h = two_term_model(["XX"], [0.6])
    eff = effective_hamiltonian(h, 1.0, 0.2, build_plan(1, 2))
    assert max_abs(eff.matrix - h.dense()) < 1e-10
    assert eff.tau == pytest.approx(0.2)


def test_effective_hamiltonian_exp_reconstructs_formula():
    rng = np.random.default_rng(25)
    h = random_model(rng, 3, 4, scale=0.3)
    plan = build_plan(4, 2)
    tau = 0.17
    eff = effective_hamiltonian(h, 1.0, tau, plan)
    u = scipy.linalg.expm(1j * eff.matrix * tau)
    assert max_abs(u - apply_formula(h, tau, plan)) < 1e-9


def test_effective_hamiltonian_even_order_is_even_in_tau():
    rng = np.random.default_rng(26)
    h = random_model(rng, 2, 3, scale=0.4)
    plan = build_plan(3, 2)
    plus = effective_hamiltonian(h, 1.0, 0.3, plan)
    minus = effective_hamiltonian(h, -1.0, 0.3, plan)
    assert max_abs(plus.matrix - minus.matrix) < 1e-10


def test_effective_hamiltonian_rejects_zero_tau():
    h = two_term_model(["XI", "IZ"], [0.2, 0.3])
    with pytest.raises(ValueError):
        effective_hamiltonian(h, 0.0, 0.5, build_plan(2, 2))


def test_effective_hamiltonian_branch_cut_at_large_tau():
    # Commuting terms make the formula exact, so eigenphases land exactly
    # on +/-(pi) when tau * eigenvalue does.
    h = two_term_model(["ZI", "IZ"], [math.pi / 2, math.pi / 2])
    with pytest.raises(BranchCutError):
        effective_hamiltonian(h, 1.0, 1.0, build_plan(2, 2))


def test_error_norm_commuting_is_zero():
    h = two_term_model(["ZI", "ZZ"], [0.8, -0.5])
    for order in (1, 2):
        err = trotter_error_norm(h, 0.3, build_plan(2, order))
        assert err < 1e-10


def test_error_norm_slopes_match_order():
    from trottergibbs.paulis import pauli_commutes

    rng = np.random.default_rng(27)
    taus = np.geomspace(3e-3, 3e-2, 5)
    done = 0
    while done < 3:
        h = random_model(rng, 3, 2, scale=1.0)
        if pauli_commutes(h.terms[0][1], h.terms[1][1]):
            continue  # commuting draws have no formula error to fit
        done += 1
        for order, tol in ((1, 0.1), (2, 0.1)):
            plan = build_plan(2, order)
            errs = [trotter_error_norm(h, t, plan) for t in taus]
            assert abs(log_log_slope(taus, errs) - order) < tol


def test_fit_alpha_commuting_is_tiny():
    h = two_term_model(["ZI", "IZ"], [0.7, 0.4])
    alpha = fit_alpha(h, build_plan(2, 1), np.geomspace(1e-3, 1e-2, 4), slope_tol=2.0)
    assert alpha < 1e-6


def test_fit_alpha_first_order_matches_commutator():
    # Leading error of S_1 is (tau/2)||[H1, H2]||, so alpha ~ ||[H1, H2]||
    # in the normalization ||L|| = alpha tau^p / (p+1)!.
    h = two_term_model(["XX", "ZI"], [1.0, 1.0])
    m1, m2 = (c * _dense(p) for c, p in h.terms)
    comm = spectral_norm(m1 @ m2 - m2 @ m1)
    alpha = fit_alpha(h, build_plan(2, 1), np.geomspace(1e-3, 1e-2, 5))
    assert abs(alpha - comm) / comm < 0.25


def test_fit_alpha_stable_across_decades():
    rng = np.random.default_rng(28)
    h = random_model(rng, 3, 3, scale=1.0)
    plan = build_plan(3, 2)
    a1 = fit_alpha(h, plan, np.geomspace(1e-3, 1e-2, 4))
    a2 = fit_alpha(h, plan, np.geomspace(1e-2, 1e-1, 4))
    assert abs(a1 - a2) / a1 < 0.1


def test_fit_alpha_rejects_nonasymptotic_grid():
    h = two_term_model(["XX", "ZI"], [1.0, 1.0])
    with pytest.raises(ValueError):
        fit_alpha(h, build_plan(2, 1), np.array([1.5, 2.0, 2.5]))
