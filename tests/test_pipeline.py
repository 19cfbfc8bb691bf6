"""Tests for the end-to-end partition estimate and its cost accounting."""

import json
import math

import numpy as np
import pytest

from trottergibbs import pipeline, trotter
from trottergibbs.cheb import cheb_grid, exact_partition
from trottergibbs.paulis import PauliString
from trottergibbs.pipeline import (
    NODE_SUM_CONSTANT,
    PartitionResult,
    PipelineConfig,
    PipelineError,
    ancilla_savings,
    cost_model,
    node_inverse_sum,
    run_pipeline,
    trace_bound_check,
)
from trottergibbs.syk import (
    HamiltonianTerms,
    build_syk_hamiltonian,
    group_commuting,
    normalize_one_norm,
    sample_syk,
)
from trottergibbs.thermal import EstimationSchedule
from trottergibbs.trotter import build_plan

# Frozen convergence fixture: n=8 seed=11, beta=2, p=2, t=1, exact mode.
RATE_FIXTURE = {2: 3.703948e-05, 4: 3.824680e-09}


def syk_model(n, seed):
    return normalize_one_norm(build_syk_hamiltonian(sample_syk(n, seed=seed)))[0]


def random_pauli_model(rng, n_qubits, n_terms, scale=0.4):
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


def test_config_validation():
    model = syk_model(4, seed=1)
    with pytest.raises(ValueError):
        PipelineConfig(model=model, beta=-1.0)
    with pytest.raises(ValueError):
        PipelineConfig(model=model, beta=1.0, base_step=4.0)
    with pytest.raises(ValueError):
        PipelineConfig(model=model, beta=1.0, m_cheb=1)
    with pytest.raises(ValueError):
        PipelineConfig(model=model, beta=1.0, m_cheb=5)
    with pytest.raises(ValueError):
        PipelineConfig(model=model, beta=1.0, mode="teleport")
    with pytest.raises(ValueError):
        PipelineConfig(model=model, beta=1.0, eps_stat=0.0)


def test_config_refuses_branch_wrap():
    # S_2 phases are bounded by |s_k| t ||H||_1; the outer node of M = 2
    # sits at cos(pi/4), so with one-norm 2 the bound crosses pi near t = 2.22.
    model = HamiltonianTerms(1, [(2.0, PauliString.from_label("Z"))])
    PipelineConfig(model=model, beta=1.0, m_cheb=2, base_step=2.2)
    with pytest.raises(ValueError, match="branch bound"):
        PipelineConfig(model=model, beta=1.0, m_cheb=2, base_step=2.25)
    # Order 4 weighs each term by 8 u_2 - 1 (about 2.32).
    PipelineConfig(model=model, beta=1.0, m_cheb=2, base_step=0.9, order=4)
    with pytest.raises(ValueError, match="branch bound"):
        PipelineConfig(model=model, beta=1.0, m_cheb=2, base_step=1.0, order=4)


def test_config_refuses_strong_coupling_syk():
    # One-norm 64 at base step 1 used to run and return 1.08e6 against an
    # exact 4.37e13: the eigenphases wrapped without landing near the cut.
    h = build_syk_hamiltonian(sample_syk(8, seed=7))
    model = HamiltonianTerms(h.n_qubits, [(c * 64.0 / h.one_norm, s) for c, s in h.terms])
    with pytest.raises(ValueError, match="branch bound"):
        PipelineConfig(model=model, beta=2.0, base_step=1.0, m_cheb=4)


def test_single_term_model_is_exact():
    # One term: the product formula is the evolution itself, so every node
    # trace equals the true Gibbs trace and the extrapolation is exact.
    model = HamiltonianTerms(2, [(0.6, PauliString.from_label("ZZ"))])
    cfg = PipelineConfig(model=model, beta=1.5, m_cheb=4, mode="exact")
    res = run_pipeline(cfg)
    want = exact_partition(model, 1.5)
    assert res.extrapolated == pytest.approx(want, abs=1e-12)
    assert res.eps_cheb_realized < 1e-12
    for rec in res.nodes:
        assert rec.z_exact == pytest.approx(want, rel=1e-12)


def test_exact_mode_error_shrinks_with_nodes():
    model = syk_model(8, seed=11)
    z_ref = exact_partition(model, 2.0)
    errs = {}
    for m in (2, 4):
        cfg = PipelineConfig(
            model=model, beta=2.0, m_cheb=m, order=2, base_step=1.0, mode="exact"
        )
        res = run_pipeline(cfg)
        errs[m] = abs(res.extrapolated - z_ref)
        assert errs[m] == pytest.approx(RATE_FIXTURE[m], rel=1e-4)
    assert errs[2] / errs[4] > 1.5


def test_node_records_are_complete_and_ordered():
    model = syk_model(4, seed=2)
    cfg = PipelineConfig(model=model, beta=1.0, m_cheb=6, mode="exact", seed=3)
    res = run_pipeline(cfg)
    assert isinstance(res, PartitionResult)
    assert [r.index for r in res.nodes] == list(range(1, 7))
    grid = cheb_grid(6)
    for rec, s, d in zip(res.nodes, grid.nodes, grid.weights):
        assert rec.s_k == pytest.approx(float(s), abs=1e-15)
        assert rec.d_k == pytest.approx(float(d), abs=1e-15)
        assert rec.z_hat == pytest.approx(rec.p0_hat * math.exp(1.0), rel=1e-12)
        assert rec.depth == 0 and rec.queries == 0  # diagonalized directly


def test_node_seeds_differ_and_are_stable():
    model = syk_model(4, seed=2)
    cfg = PipelineConfig(model=model, beta=1.0, m_cheb=4, mode="exact", seed=9)
    res1 = run_pipeline(cfg)
    res2 = run_pipeline(cfg)
    seeds = [r.seed for r in res1.nodes]
    assert len(set(seeds)) == len(seeds)
    assert seeds == [r.seed for r in res2.nodes]


def test_gqsp_mode_tracks_exact_mode():
    model = syk_model(8, seed=4)
    kw = dict(model=model, beta=1.0, m_cheb=4, order=2, base_step=0.3)
    exact = run_pipeline(PipelineConfig(mode="exact", **kw))
    synth = run_pipeline(PipelineConfig(mode="gqsp", eps_qsp=1e-6, **kw))
    for re_, rs in zip(exact.nodes, synth.nodes):
        assert abs(rs.p0_hat - re_.p0_exact) < 1e-4
        assert rs.depth > 0
        # Query-count rounding perturbs the realized inverse temperature
        # in either direction, but only mildly.
        assert abs(rs.beta_k - 1.0) < 0.25
    assert abs(synth.extrapolated - exact.extrapolated) < 1e-3


def test_sampled_mode_error_within_propagated_budget():
    model = syk_model(4, seed=5)
    grid = cheb_grid(4)
    eps = 0.05
    hits = 0
    trials = 60
    for trial in range(trials):
        cfg = PipelineConfig(
            model=model, beta=1.0, m_cheb=4, mode="sampled", eps_stat=eps, seed=trial
        )
        res = run_pipeline(cfg)
        # Per-node |p0_hat - p0| <= (2 a0 + eps) eps when the amplitude
        # lands within eps, amplified by e^beta and the weight sizes.
        budget = sum(
            abs(r.d_k) * math.exp(1.0) * (2.0 * math.sqrt(r.p0_exact) + eps) * eps
            for r in res.nodes
        )
        if abs(res.extrapolated - res.extrapolated_exact) <= budget:
            hits += 1
    assert hits >= int(0.9 * trials)


def test_sampled_mode_deterministic_per_seed():
    model = syk_model(4, seed=5)
    cfg = PipelineConfig(model=model, beta=1.0, m_cheb=4, mode="sampled", seed=42)
    a = run_pipeline(cfg)
    b = run_pipeline(cfg)
    assert a.extrapolated == b.extrapolated
    assert [r.p0_hat for r in a.nodes] == [r.p0_hat for r in b.nodes]
    c = run_pipeline(
        PipelineConfig(model=model, beta=1.0, m_cheb=4, mode="sampled", seed=43)
    )
    assert any(
        ra.p0_hat != rc.p0_hat for ra, rc in zip(a.nodes, c.nodes)
    )


@pytest.mark.parametrize(
    "order, mode, m_cheb",
    [(2, "exact", 4), (4, "exact", 6), (2, "sampled", 4), (2, "gqsp", 4), (1, "exact", 4)],
)
def test_mirror_nodes_share_one_formula(monkeypatch, order, mode, m_cheb):
    calls = {"formula": 0, "boltz": 0}
    apply_formula, build_u_boltz = trotter.apply_formula, pipeline.build_u_boltz

    def counted_formula(*args, **kwargs):
        calls["formula"] += 1
        return apply_formula(*args, **kwargs)

    def counted_boltz(*args, **kwargs):
        calls["boltz"] += 1
        return build_u_boltz(*args, **kwargs)

    monkeypatch.setattr(trotter, "apply_formula", counted_formula)
    monkeypatch.setattr(pipeline, "build_u_boltz", counted_boltz)
    model = syk_model(8, seed=4)
    cfg = PipelineConfig(model=model, beta=1.0, m_cheb=m_cheb, order=order, mode=mode)
    res = run_pipeline(cfg)
    fold = order % 2 == 0
    assert calls["formula"] == (m_cheb // 2 if fold else m_cheb)
    assert calls["boltz"] == (m_cheb // 2 if mode == "gqsp" else 0)
    shared = ("p0_exact", "z_exact", "beta_k", "depth", "diagnostics")
    if mode != "sampled":
        shared += ("p0_hat", "z_hat")
    for k in range(m_cheb // 2):
        pos, neg = res.nodes[k], res.nodes[m_cheb - 1 - k]
        assert pos.s_k == pytest.approx(-neg.s_k, abs=1e-15)
        assert pos.seed != neg.seed
        if fold:
            assert all(getattr(pos, name) == getattr(neg, name) for name in shared)
        else:
            assert pos.p0_exact != neg.p0_exact  # S_1(-t) is not S_1(t)^dag
    if mode == "sampled":
        assert len({r.p0_hat for r in res.nodes}) == m_cheb


def test_unconverged_estimate_names_the_node():
    model = syk_model(4, seed=5)
    cfg = PipelineConfig(
        model=model,
        beta=1.0,
        m_cheb=2,
        mode="sampled",
        schedule=EstimationSchedule(max_rounds=1),
    )
    with pytest.raises(PipelineError, match=r"node \d+ \(s_k=.*unconverged after 1 rounds"):
        run_pipeline(cfg)


def test_pipeline_error_names_the_failing_node():
    # A base step too coarse for the Fourier window fails inside the node
    # loop; the error must say which node.
    model = syk_model(4, seed=1)
    cfg = PipelineConfig(
        model=model, beta=4.0, m_cheb=2, mode="gqsp", base_step=3.0
    )
    with pytest.raises(PipelineError, match=r"node \d+ \(s_k="):
        run_pipeline(cfg)


def test_grouped_mode_runs_and_converges():
    model = group_commuting(build_syk_hamiltonian(sample_syk(8, seed=7)))
    model, _ = normalize_one_norm(model)
    cfg = PipelineConfig(
        model=model, beta=1.0, m_cheb=4, mode="exact", grouped=True, base_step=0.5
    )
    res = run_pipeline(cfg)
    assert res.eps_cheb_realized < 1e-6


def test_grouped_mode_requires_groups():
    model = syk_model(4, seed=1)  # no grouping attached
    cfg = PipelineConfig(model=model, beta=1.0, m_cheb=2, mode="exact", grouped=True)
    with pytest.raises(PipelineError, match="commuting groups"):
        run_pipeline(cfg)


def test_json_node_lines():
    model = syk_model(4, seed=2)
    res = run_pipeline(PipelineConfig(model=model, beta=1.0, m_cheb=2, mode="exact"))
    lines = res.node_json_lines().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) == {"s_k", "beta_k", "mode", "p0_exact", "p0_hat", "queries", "seed"}


def test_trace_bound_holds_on_random_models():
    rng = np.random.default_rng(71)
    taus = np.geomspace(0.05, 0.4, 4)
    for order in (1, 2):
        for _ in range(3):
            h = random_pauli_model(rng, 3, 4)
            rows = trace_bound_check(h, beta=1.5, order=order, tau_grid=taus)
            assert len(rows) == len(taus)
            for row in rows:
                assert row["lhs"] <= row["rhs"] * (1.0 + 1e-12)
                assert 0.0 < row["tightness"] <= 1.0 + 1e-12


def test_trace_bound_commuting_is_equality():
    terms = [
        (0.7, PauliString.from_label("ZII")),
        (-0.4, PauliString.from_label("IZI")),
        (0.2, PauliString.from_label("ZZZ")),
    ]
    h = HamiltonianTerms(3, terms)
    rows = trace_bound_check(h, beta=2.0, order=2, tau_grid=[0.1, 0.3])
    for row in rows:
        assert row["error_norm"] < 1e-10
        assert abs(row["tightness"] - 1.0) < 1e-10


def test_ancilla_savings_values():
    assert ancilla_savings(4) == 0
    assert ancilla_savings(8) == 7
    assert ancilla_savings(12) == 9
    assert ancilla_savings(16) == 11
    with pytest.raises(ValueError):
        ancilla_savings(7)
    with pytest.raises(ValueError):
        ancilla_savings(2)


def test_node_inverse_sum_two_nodes():
    # Both nodes sit at +/- sqrt(2)/2, so the sum is 2 sqrt(2).
    assert node_inverse_sum(2) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_node_sum_identity_even_orders():
    for m in range(2, 65, 2):
        ratio = node_inverse_sum(m) / (m * math.log(m))
        assert ratio <= NODE_SUM_CONSTANT, f"m={m}"


def test_cost_model_contents():
    model = syk_model(4, seed=2)
    cfg = PipelineConfig(model=model, beta=1.0, m_cheb=4, order=2, base_step=0.25)
    grid = cheb_grid(4)
    cost = cost_model(cfg, grid, [3, 5, 5, 3])
    assert cost["stage_factor"] == 25.0
    want0 = 3 * 25.0 / (0.25 * abs(grid.nodes[0]))
    assert cost["depth_per_node"][0] == pytest.approx(want0, rel=1e-12)
    assert cost["node_sum_ratio_max"] <= NODE_SUM_CONSTANT
    assert cost["node_sum_ratio_max"] == max(
        node_inverse_sum(m) / (m * math.log(m)) for m in range(2, 65, 2)
    )
    assert cost["total_cost"] > 0
    with pytest.raises(ValueError):
        cost_model(cfg, grid, [1, 2, 3])


def test_cost_scaling_in_order():
    # Lifting p from 2 to 4 multiplies the per-node stage count by five
    # (the recursion inserts five second-order blocks) and the analytic
    # depth factor 5^p by twenty-five.
    assert build_plan(3, 4).n_stages == 5 * build_plan(3, 2).n_stages
    model = syk_model(4, seed=2)
    grid = cheb_grid(2)
    cost2 = cost_model(
        PipelineConfig(model=model, beta=1.0, m_cheb=2, order=2), grid, [1, 1]
    )
    cost4 = cost_model(
        PipelineConfig(model=model, beta=1.0, m_cheb=2, order=4), grid, [1, 1]
    )
    assert cost4["stage_factor"] / cost2["stage_factor"] == 25.0
