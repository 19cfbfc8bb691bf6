"""Tests for the end-to-end partition estimate and its cost accounting."""

import math
import sys
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trottergibbs import cheb, gqsp, lwf, pipeline, thermal, trotter
from trottergibbs.cheb import cheb_grid, exact_partition
from trottergibbs.cli import build_model
from trottergibbs.pipeline import (
    PIPELINE_MODES,
    PartitionResult,
    PipelineConfig,
    PipelineError,
    ancilla_savings,
    cost_model,
    node_inverse_sum,
    run_pipeline,
)
from trottergibbs.syk import (
    HamiltonianTerms,
    build_syk_hamiltonian,
    group_commuting,
    normalize_one_norm,
    sample_syk,
)
from trottergibbs.trotter import effective_hamiltonian, stage_count

from oracles import build_u_boltz, pauli_model, random_pauli_model, trace_bound_check

# Sigma 1/|s_k| stays below this multiple of M log M for every even M in
# [2, 64]; the worst ratio is at M = 2 where the sum is 2 sqrt(2).
NODE_SUM_CONSTANT = 2.5

# Frozen convergence fixture: n=8 seed=11, beta=2, p=2, t=1, exact mode.
RATE_FIXTURE = {2: 3.703948e-05, 4: 3.824680e-09}


def syk_model(n, seed):
    return normalize_one_norm(build_syk_hamiltonian(sample_syk(n, seed=seed)))[0]


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


@pytest.mark.parametrize(
    "beta", [math.nan, math.inf, 1e6, math.nextafter(math.log(sys.float_info.max), math.inf)]
)
def test_config_refuses_beta_without_finite_shift(beta):
    # Each node trace is scaled by e^beta: 1e6 used to fail with a bare
    # OverflowError after the nodes ran, and NaN or inf ran through to NaN results.
    with pytest.raises(ValueError, match="e\\^beta finite"):
        PipelineConfig(model=syk_model(4, seed=1), beta=beta)


def test_config_accepts_the_largest_beta_with_finite_shift():
    beta = math.log(sys.float_info.max)
    assert math.isfinite(math.exp(beta))
    assert PipelineConfig(model=syk_model(4, seed=1), beta=beta).beta == beta


def test_config_refuses_branch_wrap():
    # S_2 phases are bounded by |s_k| t ||H||_1; the outer node of M = 2
    # sits at cos(pi/4), so with one-norm 2 the bound crosses pi near t = 2.22.
    model = pauli_model(["Z"], [2.0])
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


@pytest.mark.parametrize("mode", ["gqsp", "ideal-w"])
def test_config_refuses_beta_without_fourier_window(mode):
    # delta' = 1/beta shifts the spectrum by x0 = delta'/(1 + delta'), which
    # leaves no room below the edge gap for any 0 < beta <= 1/19.
    model = syk_model(4, seed=1)
    with pytest.raises(ValueError, match="no Fourier window"):
        PipelineConfig(model=model, beta=0.05, mode=mode)
    PipelineConfig(model=model, beta=0.0, mode=mode)
    PipelineConfig(model=model, beta=0.06, mode=mode)
    for other in ("exact", "sampled"):
        PipelineConfig(model=model, beta=0.05, mode=other)


def test_single_term_model_is_exact():
    # One term: the product formula is the evolution itself, so every node
    # trace equals the true Gibbs trace and the extrapolation is exact.
    model = pauli_model(["ZZ"], [0.6])
    cfg = PipelineConfig(model=model, beta=1.5, m_cheb=4, mode="exact")
    res = run_pipeline(cfg)
    want = exact_partition(model, 1.5)
    assert res.extrapolated == pytest.approx(want, abs=1e-12)
    assert abs(res.extrapolated_exact - want) < 1e-12
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
    grid = cheb_grid(6)
    for rec, s, d in zip(res.nodes, grid.nodes, grid.weights, strict=True):
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
        # The eigenphases of S_p and the oracle's H_eff spectrum agree.
        assert rs.p0_exact == pytest.approx(re_.p0_exact, rel=1e-14)
        assert abs(rs.p0_hat - re_.p0_exact) < 1e-4
        assert rs.depth > 0
        # Query-count rounding perturbs the realized inverse temperature
        # in either direction, but only mildly.
        assert abs(rs.beta_k - 1.0) < 0.25
    assert abs(synth.extrapolated - exact.extrapolated) < 1e-3


def test_block_node_reads_one_spectrum(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module, name in (
        (pipeline, "effective_hamiltonian"),
        (trotter, "effective_hamiltonian"),
        (gqsp, "gqsp_apply"),
        (pipeline, "node_spectrum"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    cfg = PipelineConfig(model=syk_model(8, seed=4), beta=1.0, m_cheb=4, order=2, mode="gqsp")
    run_pipeline(cfg)
    # One spectrum per mirror pair; no H_eff, eigenbasis or dense circuit.
    assert calls == ["node_spectrum"] * 2


@pytest.mark.parametrize("mode", thermal.MODES)
def test_block_node_matches_dense_reference(mode):
    # Each node's p0_hat equals Tr(B^dag B)/N of the dense block built from
    # the matrix H_eff of the same node.
    model = syk_model(8, seed=4)
    cfg = PipelineConfig(model=model, beta=1.0, m_cheb=4, order=2, mode=mode)
    res = run_pipeline(cfg)
    for rec in res.nodes:
        tau = rec.s_k * cfg.base_step
        eff = effective_hamiltonian(model, tau, cfg.order)
        oracle = build_u_boltz(eff, tau, cfg.beta, mode=mode, eps_qsp=cfg.eps_qsp)
        b = oracle.normalized_block
        dense = float(np.real(np.trace(b.conj().T @ b)) / b.shape[0])
        assert rec.p0_hat == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("mode", thermal.MODES)
def test_block_modes_at_beta_zero_return_one(mode):
    cfg = PipelineConfig(model=syk_model(8, seed=4), beta=0.0, m_cheb=4, mode=mode)
    res = run_pipeline(cfg)
    assert res.extrapolated == 1.0
    for rec in res.nodes:
        assert rec.p0_hat == 1.0 and rec.depth == 0
        assert rec.diagnostics == {"block_deviation": 0.0, "fourier_m": 0, "q": 0}


@pytest.mark.parametrize("mode, q_min", [("gqsp", 1), ("ideal-w", 0)])
def test_block_modes_on_a_zero_spectrum(mode, q_min):
    # Every eigenphase of S_p(tau) is 0, so no eigenvalue caps the signal
    # time: gqsp rounds t*/|tau| to q >= 1 steps as on any spectrum, and
    # ideal-w stays in continuous time at t* with q = 0, one step a power.
    h = build_syk_hamiltonian(sample_syk(8, seed=7))
    model = HamiltonianTerms(h.n_qubits, [(0.0, s) for _, s in h.terms])
    cfg = PipelineConfig(model=model, beta=1.0, mode=mode)
    res = run_pipeline(cfg)
    assert abs(res.extrapolated - 1.0) <= cfg.eps_qsp
    t_star = math.pi / (2.0 * (1.0 + 1.0 / cfg.beta))
    for rec in res.nodes:
        q = max(q_min, round(t_star / abs(rec.s_k * cfg.base_step))) if q_min else 0
        assert rec.diagnostics["q"] == q
        steps = max(1, q) * (2 * rec.diagnostics["fourier_m"] + 1)
        assert rec.depth == stage_count(cfg.order, model.n_terms) * steps


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
    apply_formula, boltzmann_oracle = trotter.apply_formula, pipeline.boltzmann_oracle

    def counted_formula(*args, **kwargs):
        calls["formula"] += 1
        return apply_formula(*args, **kwargs)

    def counted_boltz(*args, **kwargs):
        calls["boltz"] += 1
        return boltzmann_oracle(*args, **kwargs)

    monkeypatch.setattr(trotter, "apply_formula", counted_formula)
    monkeypatch.setattr(pipeline, "boltzmann_oracle", counted_boltz)
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
        assert all(r.diagnostics == {"ae_clamped": False} for r in res.nodes)


def test_beta_sweep_reuses_spectra_of_one_model(monkeypatch):
    calls = {"formula": 0, "eigh": 0}
    apply_formula, eigh_decompose = trotter.apply_formula, cheb.eigh_decompose

    def counted_formula(*args, **kwargs):
        calls["formula"] += 1
        return apply_formula(*args, **kwargs)

    def counted_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh_decompose(*args, **kwargs)

    monkeypatch.setattr(trotter, "apply_formula", counted_formula)
    monkeypatch.setattr(cheb, "eigh_decompose", counted_eigh)
    model = syk_model(8, seed=4)
    m_cheb = 4
    betas = (1.0, 2.0, 4.0)
    sweep = [run_pipeline(PipelineConfig(model=model, beta=beta, m_cheb=m_cheb)) for beta in betas]
    assert calls == {"formula": m_cheb // 2, "eigh": 0}
    references = [exact_partition(model, beta) for beta in betas]
    assert calls == {"formula": m_cheb // 2, "eigh": 1}
    assert len(set(references)) == 3

    s_1 = float(cheb_grid(m_cheb).nodes[0])
    spectrum = trotter.node_spectrum(model, s_1 * 0.3, 2)
    assert calls["formula"] == m_cheb // 2
    with pytest.raises(ValueError):
        spectrum[0] = 0.0

    # A derived model is a new instance: it recomputes, it does not inherit.
    # A reordered model is a different product formula, so only its oracle
    # must agree.
    for derived, same in (
        (normalize_one_norm(model)[0], "extrapolated"),
        (group_commuting(model), "oracle"),
    ):
        before = dict(calls)
        res = run_pipeline(PipelineConfig(model=derived, beta=1.0, m_cheb=m_cheb))
        got = {"extrapolated": res.extrapolated, "oracle": exact_partition(derived, 1.0)}
        assert calls["formula"] == before["formula"] + m_cheb // 2
        assert calls["eigh"] == before["eigh"] + 1
        want = {"extrapolated": sweep[0].extrapolated, "oracle": references[0]}
        assert got[same] == pytest.approx(want[same], rel=1e-12)


def test_spectra_of_one_model_are_kept_per_order(monkeypatch):
    # An order-4 run after an order-2 sweep builds its own formulas; the kept
    # order-2 spectra at the same steps must not stand in for them.
    calls = []
    apply_formula = trotter.apply_formula

    def counted_formula(h, t, order, **kwargs):
        calls.append(order)
        return apply_formula(h, t, order, **kwargs)

    monkeypatch.setattr(trotter, "apply_formula", counted_formula)
    model = syk_model(8, seed=4)
    for beta in (1.0, 2.0):
        run_pipeline(PipelineConfig(model=model, beta=beta, order=2))
    assert calls == [2, 2]
    res = run_pipeline(PipelineConfig(model=model, beta=1.0, order=4))
    assert calls == [2, 2, 4, 4]
    fresh = run_pipeline(PipelineConfig(model=syk_model(8, seed=4), beta=1.0, order=4))
    assert [r.z_exact for r in res.nodes] == [r.z_exact for r in fresh.nodes]
    assert res.extrapolated == fresh.extrapolated


def test_model_config_and_result_refuse_changes_after_construction():
    # Spectra kept on a model and checks made by a config hold only for values
    # that never change: each change fails where it is made, and a changed
    # model is a new instance with its own answer.
    model = build_model({"kind": "syk", "n_majorana": 8, "seed": 7, "one_norm": 1.0})
    cfg = PipelineConfig(model=model, beta=1.0, base_step=0.3)
    res = run_pipeline(cfg)
    assert res.extrapolated == 1.0118728812316071
    coeff, string = model.terms[0]
    with pytest.raises(TypeError):
        model.terms[0] = (50 * coeff, string)
    for obj, name, value in [
        (model, "terms", ()),
        (cfg, "m_cheb", 3),
        (cfg, "base_step", 10.0),
        (cfg, "beta", 800.0),
        (res, "extrapolated", 0.0),
        (res.nodes[0], "z_hat", 0.0),
    ]:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, value)
    assert run_pipeline(cfg).extrapolated == res.extrapolated
    changed = HamiltonianTerms(model.n_qubits, [(50 * coeff, string), *model.terms[1:]])
    fresh = run_pipeline(PipelineConfig(model=changed, beta=1.0, base_step=0.3))
    assert fresh.extrapolated == 1.0118717474157157


def _bits(model: HamiltonianTerms, run: dict) -> list[str]:
    res = run_pipeline(PipelineConfig(model=model, **run))
    reference = exact_partition(model, run["beta"])
    return [float.hex(v) for v in (res.extrapolated, reference, *(r.z_hat for r in res.nodes))]


_runs = st.fixed_dictionaries(
    {
        "beta": st.floats(0.5, 4.0),
        "base_step": st.sampled_from([0.2, 0.3, 1.0]),
        "order": st.sampled_from([1, 2, 4]),
        "mode": st.sampled_from(PIPELINE_MODES),
        "m_cheb": st.sampled_from([2, 4]),
    }
)


@settings(max_examples=20, deadline=None)
@given(st.lists(_runs, min_size=2, max_size=4))
def test_results_on_one_model_do_not_depend_on_earlier_runs(runs):
    # Spectra and reference eigenvalues kept from earlier runs on the model
    # give the same bits as a fresh model, whatever those runs were.
    model = syk_model(8, seed=7)
    for run in runs:
        assert _bits(model, run) == _bits(syk_model(8, seed=7), run)


@pytest.mark.parametrize("mode", ["exact", "gqsp", "ideal-w", "sampled"])
def test_solve_builds_no_dense_hamiltonian(monkeypatch, mode):
    # The nodes come from product-formula spectra alone: neither the dense H
    # nor the reference that diagonalizes it is touched, and the bits are
    # those of an unguarded run.
    def run():
        cfg = PipelineConfig(model=syk_model(8, seed=7), beta=1.0, mode=mode, seed=5)
        res = run_pipeline(cfg)
        values = [res.extrapolated, res.extrapolated_exact]
        values += [v for r in res.nodes for v in (r.z_exact, r.z_hat)]
        return [float.hex(v) for v in values]

    def refuse(*args, **kwargs):
        raise AssertionError("the solve reached the dense reference")

    want = run()
    monkeypatch.setattr(HamiltonianTerms, "dense", refuse)
    monkeypatch.setattr(cheb, "exact_partition", refuse)
    assert run() == want


def test_zero_term_model_is_the_zero_hamiltonian():
    model = HamiltonianTerms(2, [])
    res = run_pipeline(PipelineConfig(model=model, beta=1.0))
    assert res.extrapolated == exact_partition(model, 1.0) == 1.0


def test_order4_depth_and_cost_count_the_flat_circuit():
    # The formula is simulated by the recursion with reuse, but depth and
    # cost still count every stage of the flat order-4 circuit (700 stages
    # here).  Values pinned from the flat stage loop; total_cost reads the
    # node values Z_k, which move at rounding.
    model = syk_model(8, seed=7)
    res = run_pipeline(PipelineConfig(model=model, beta=1.0, order=4, mode="gqsp"))
    assert stage_count(4, model.n_terms) == 700
    assert [r.depth for r in res.nodes] == [371700, 867300, 867300, 371700]
    assert [r.diagnostics["q"] for r in res.nodes] == [3, 7, 7, 3]
    assert all(r.diagnostics["fourier_m"] == 88 for r in res.nodes)
    cost = dict(res.cost)
    assert cost.pop("total_cost") == pytest.approx(201574936230.6867, rel=1e-12)
    assert cost == {
        "order": 4,
        "base_step": 0.3,
        "stage_factor": 625.0,
        "depth_per_node": [
            838177460.1014225, 4721591914.322005, 4721591914.322006, 838177460.1014225
        ],
        "node_inverse_sum": 7.391036260090294,
        "node_sum_ratio_max": 2.040278893193579,
        "total_queries": 0,
    }


def test_gqsp_run_never_evaluates_the_fourier_series(monkeypatch):
    # The node is gated on block_deviation; the window certificate's grid
    # evaluation stays off the node path.
    calls = []
    for name in ("sup_error", "reconstruct"):
        real = getattr(lwf.FourierApprox, name)

        def counted(self, *args, _name=name, _real=real):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(lwf.FourierApprox, name, counted)
    for mode in thermal.MODES:
        cfg = PipelineConfig(model=syk_model(8, seed=4), beta=1.0, m_cheb=4, mode=mode)
        assert run_pipeline(cfg).nodes[0].diagnostics["fourier_m"] > 0
    assert calls == []


def test_gqsp_run_computes_no_binomial_tail_row(monkeypatch):
    # binomial_dropped is computed only when read, and a node never reads it:
    # every row block _assemble lays out is a block of frequency rows.
    tails, rows = [], []
    real_dropped, real_blocks = lwf._binomial_dropped, lwf._row_blocks

    def dropped(*args):
        tails.append(args)
        return real_dropped(*args)

    def blocks(width):
        rows.append(len(width))
        return real_blocks(width)

    monkeypatch.setattr(lwf, "_binomial_dropped", dropped)
    monkeypatch.setattr(lwf, "_row_blocks", blocks)
    cfg = PipelineConfig(model=syk_model(8, seed=4), beta=1.0, m_cheb=4, mode="gqsp")
    res = run_pipeline(cfg)
    assert tails == []
    # One Fourier target per mirror pair of nodes, each laying out its 2M + 1 frequency rows.
    assert len(rows) == cfg.m_cheb // 2
    assert set(rows) <= {2 * r.diagnostics["fourier_m"] + 1 for r in res.nodes}
    # The counter sees the tail where it is read.
    assert lwf.gibbs_fourier(1.0, 0.5, 1e-3).binomial_dropped > 0.0
    assert len(tails) == 1


def test_block_past_eps_qsp_names_the_node(shrunk_fourier):
    cfg = PipelineConfig(model=syk_model(8, seed=4), beta=1.0, m_cheb=4, mode="gqsp")
    with pytest.raises(PipelineError, match=r"node \d+ \(s_k=.*block_deviation .* exceeds eps_qsp"):
        run_pipeline(cfg)


def test_unconverged_estimate_names_the_node(monkeypatch):
    monkeypatch.setattr(thermal, "MAX_ROUNDS", 1)
    model = syk_model(4, seed=5)
    cfg = PipelineConfig(model=model, beta=1.0, m_cheb=2, mode="sampled")
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_node_trace_names_the_node():
    # ||H|| = 2.5 at beta 700: Tr e^{-beta H_eff}/N is e^1750, past the
    # largest float.  It used to fail unnamed in the cost ledger.
    model = pauli_model(["Z", "X"], [2.0, 1.5])
    cfg = PipelineConfig(model=model, beta=700.0, m_cheb=2, mode="exact", base_step=0.01)
    with pytest.raises(PipelineError, match=r"node 1 \(s_k=\+0\.707107\): "):
        run_pipeline(cfg)


def test_non_finite_extrapolation_names_the_stage(monkeypatch):
    # The reference's refusal lives in the CLI (test_cli.py); the library
    # refuses an extrapolated value that is not finite.
    monkeypatch.setattr(pipeline, "interpolate_to_zero", lambda *args: math.inf)
    cfg = PipelineConfig(model=syk_model(4, seed=2), beta=1.0, m_cheb=2, mode="exact")
    with pytest.raises(PipelineError, match=r"^extrapolation: estimate inf or exact inf is not "):
        run_pipeline(cfg)


def test_grouped_mode_runs_and_converges():
    model = group_commuting(build_syk_hamiltonian(sample_syk(8, seed=7)))
    model, _ = normalize_one_norm(model)
    cfg = PipelineConfig(model=model, beta=1.0, m_cheb=4, mode="exact", base_step=0.5)
    res = run_pipeline(cfg)
    assert abs(res.extrapolated_exact - exact_partition(model, 1.0)) < 1e-6


def test_trace_bound_holds_on_random_models():
    rng = np.random.default_rng(71)
    taus = np.geomspace(0.05, 0.4, 4)
    for order in (1, 2):
        for _ in range(3):
            h = random_pauli_model(rng, 3, 4, scale=0.4)
            rows = trace_bound_check(h, beta=1.5, order=order, tau_grid=taus)
            assert len(rows) == len(taus)
            for row in rows:
                assert row["lhs"] <= row["rhs"] * (1.0 + 1e-12)
                assert 0.0 < row["tightness"] <= 1.0 + 1e-12


def test_trace_bound_holds_on_reordered_model():
    # A model from group_commuting is checked like any other: the plan
    # counts its terms, one stage each.
    h = group_commuting(syk_model(8, seed=7))
    taus = [0.1, 0.2, 0.3]
    rows = trace_bound_check(h, beta=1.0, order=2, tau_grid=taus)
    assert [row["tau"] for row in rows] == taus
    for row in rows:
        assert row["error_norm"] > 0.0
        assert 0.0 < row["tightness"] <= 1.0 + 1e-12


def test_trace_bound_commuting_is_equality():
    h = pauli_model(["ZII", "IZI", "ZZZ"], [0.7, -0.4, 0.2])
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
    assert node_inverse_sum(cheb_grid(2)) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_node_sum_identity_even_orders():
    for m in range(2, 65, 2):
        ratio = node_inverse_sum(cheb_grid(m)) / (m * math.log(m))
        assert ratio <= NODE_SUM_CONSTANT, f"m={m}"


def test_cost_model_contents():
    model = syk_model(4, seed=2)
    cfg = PipelineConfig(model=model, beta=1.0, m_cheb=4, order=2, base_step=0.25)
    grid = cheb_grid(4)
    cost = cost_model(cfg, grid, [3, 5, 5, 3], np.ones(4))
    assert cost["stage_factor"] == 25.0
    want0 = 3 * 25.0 / (0.25 * abs(grid.nodes[0]))
    assert cost["depth_per_node"][0] == pytest.approx(want0, rel=1e-12)
    assert cost["node_sum_ratio_max"] <= NODE_SUM_CONSTANT
    assert cost["node_sum_ratio_max"] == max(
        node_inverse_sum(cheb_grid(m)) / (m * math.log(m)) for m in range(2, 65, 2)
    )
    assert cost["total_cost"] > 0
    with pytest.raises(ValueError):
        cost_model(cfg, grid, [1, 2, 3], np.ones(3))


def test_cost_scaling_in_order():
    # Lifting p from 2 to 4 multiplies the per-node stage count by five
    # (the recursion inserts five second-order blocks) and the analytic
    # depth factor 5^p by twenty-five.
    assert stage_count(4, 3) == 5 * stage_count(2, 3)
    model = syk_model(4, seed=2)
    grid = cheb_grid(2)
    cost2 = cost_model(
        PipelineConfig(model=model, beta=1.0, m_cheb=2, order=2), grid, [1, 1], np.ones(2)
    )
    cost4 = cost_model(
        PipelineConfig(model=model, beta=1.0, m_cheb=2, order=4), grid, [1, 1], np.ones(2)
    )
    assert cost4["stage_factor"] / cost2["stage_factor"] == 25.0
