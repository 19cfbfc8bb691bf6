"""Tests for the Boltzmann block, trace states, and amplitude estimation."""

import math

import numpy as np
import pytest

from trottergibbs.linalg import max_abs
from trottergibbs.syk import build_syk_hamiltonian, normalize_one_norm, sample_syk
from trottergibbs.thermal import (
    BoltzmannOracle,
    EstimationSchedule,
    OracleError,
    amplitude_circuit,
    amplitude_estimate,
    beta_correction,
    build_u_boltz,
    exact_p0,
    good_state_probability,
    gqsp_plan_for,
    grover_amplitude,
    grover_operator,
    householder_prepare,
    qubit_ledger,
    thermofield_double,
)
from trottergibbs.trotter import EffectiveHamiltonian, build_plan, effective_hamiltonian


def syk_effective(n_majorana, beta_seed, tau=0.3, order=2):
    h, _ = normalize_one_norm(build_syk_hamiltonian(sample_syk(n_majorana, seed=beta_seed)))
    plan = build_plan(h.n_terms, order)
    return effective_hamiltonian(h, 1.0, tau, plan)


def random_effective(rng, dim, tau=0.3, order=2):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (a + a.conj().T)
    h /= np.linalg.norm(h, 2) * 1.5
    return EffectiveHamiltonian(h, tau, order)


def test_thermofield_single_qubit():
    tfd = thermofield_double(1)
    want = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    assert np.allclose(tfd.vector, want, atol=1e-15)


def test_thermofield_norm_and_reduced_state():
    tfd = thermofield_double(2)
    assert np.linalg.norm(tfd.vector) == pytest.approx(1.0, abs=1e-15)
    dim = tfd.dim
    psi = tfd.vector.reshape(dim, dim)
    # Tracing out either register leaves the maximally mixed state.
    rho_a = psi @ psi.conj().T
    assert max_abs(rho_a - np.eye(dim) / dim) < 1e-14


def test_thermofield_transfers_operators_to_trace():
    # <TFD| (O x I) |TFD> = Tr(O)/N: the defining trace property.
    rng = np.random.default_rng(51)
    tfd = thermofield_double(2)
    dim = tfd.dim
    o = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    big = np.kron(o, np.eye(dim))
    got = tfd.vector.conj() @ big @ tfd.vector
    assert abs(got - np.trace(o) / dim) < 1e-12


def test_thermofield_cap():
    with pytest.raises(ValueError):
        thermofield_double(7)  # 14 > default cap of 12
    with pytest.raises(ValueError):
        thermofield_double(0)


def test_beta_correction_integer_queries_exact():
    # 1/(s t) = 2 exactly: no rounding, beta unchanged.
    assert beta_correction(3.0, 1.0, 0.5) == pytest.approx(3.0, abs=1e-15)


def test_beta_correction_rounds_up():
    # s t = 0.3 -> ceil(10/3) = 4 queries -> beta * 1.2.
    got = beta_correction(2.0, 1.0, 0.3)
    assert got == pytest.approx(2.0 * 4.0 * 0.3, rel=1e-12)


def test_beta_correction_ratio_bounds():
    rng = np.random.default_rng(52)
    for _ in range(200):
        beta = float(rng.uniform(0.1, 8.0))
        s = float(rng.uniform(0.05, 1.0)) * (1 if rng.random() < 0.5 else -1)
        t = float(rng.uniform(0.05, 1.0))
        ratio = beta_correction(beta, s, t) / beta
        assert 1.0 - 1e-12 <= ratio <= 1.0 + abs(s) * t + 1e-12


def test_beta_correction_domain():
    with pytest.raises(ValueError):
        beta_correction(1.0, 0.0, 0.3)
    with pytest.raises(ValueError):
        beta_correction(1.0, 0.5, 0.0)


def test_build_u_boltz_beta_zero_identity_all_modes():
    eff = syk_effective(4, beta_seed=1)
    for mode in ("exact", "gqsp", "ideal-w"):
        oracle = build_u_boltz(eff, 0.0, mode=mode)
        assert max_abs(oracle.normalized_block - np.eye(eff.matrix.shape[0])) < 1e-12
        assert oracle.scale == 1.0


def test_build_u_boltz_exact_matches_eigen_oracle():
    eff = syk_effective(8, beta_seed=2)
    beta = 1.5
    oracle = build_u_boltz(eff, beta, mode="exact")
    vals, vecs = np.linalg.eigh(eff.matrix)
    want = (vecs * np.exp(-beta * (vals + 1.0) / 2.0)) @ vecs.conj().T
    assert max_abs(oracle.block - want) < 1e-12
    assert oracle.scale == 1.0


def test_build_u_boltz_block_is_subnormalized_and_embedded():
    eff = syk_effective(8, beta_seed=3)
    for mode in ("exact", "gqsp"):
        oracle = build_u_boltz(eff, 1.0, mode=mode)
        svals = np.linalg.svd(oracle.block, compute_uv=False)
        assert svals.max() <= 1.0 + 1e-9
        dim = oracle.block.shape[0]
        assert max_abs(oracle.unitary[:dim, :dim] - oracle.block) < 1e-12
        u = oracle.unitary
        assert max_abs(u @ u.conj().T - np.eye(u.shape[0])) < 1e-9


def test_build_u_boltz_gqsp_tracks_exact_block():
    for beta in (1.0, 2.0):
        for seed in (4, 5):
            eff = syk_effective(8, beta_seed=seed)
            eps = 1e-6
            oracle = build_u_boltz(eff, beta, mode="gqsp", eps_qsp=eps)
            vals, vecs = np.linalg.eigh(eff.matrix)
            want = (vecs * np.exp(-beta * (vals + 1.0) / 2.0)) @ vecs.conj().T
            assert max_abs(oracle.normalized_block - want) <= eps + 1e-8


def test_build_u_boltz_ideal_w_isolates_rounding():
    eff = syk_effective(8, beta_seed=6)
    ideal = build_u_boltz(eff, 2.0, mode="ideal-w", eps_qsp=1e-6)
    # Continuous signal time: no beta rescaling.
    assert ideal.beta_k == pytest.approx(2.0, rel=1e-12)
    assert ideal.diagnostics["block_deviation"] <= 1e-6 + 1e-8


def test_build_u_boltz_gqsp_beta_k_reflects_rounding():
    eff = syk_effective(8, beta_seed=6)
    oracle = build_u_boltz(eff, 2.0, mode="gqsp")
    # Integer query counts perturb the realized inverse temperature by at
    # most the rounding ratio; the block itself still targets beta.
    assert abs(oracle.beta_k - 2.0) < 0.5
    assert oracle.beta_k > 0
    assert oracle.diagnostics["q"] >= 1


def test_build_u_boltz_rejects_bad_input():
    eff = syk_effective(4, beta_seed=1)
    with pytest.raises(ValueError):
        build_u_boltz(eff, -1.0)
    with pytest.raises(ValueError):
        build_u_boltz(eff, 1.0, mode="unknown")


def test_build_u_boltz_coarse_step_fails():
    # A base step too coarse for the requested window cannot place the
    # spectrum inside the Fourier domain.
    eff = syk_effective(4, beta_seed=1, tau=3.0)
    with pytest.raises(OracleError):
        build_u_boltz(eff, 4.0, mode="gqsp", base_step=3.0)


def test_gqsp_plan_certificate_window():
    eff = syk_effective(8, beta_seed=7)
    plan = gqsp_plan_for(eff, 2.0)
    assert 0.0 < plan.delta_cert <= 1.0
    assert plan.max_edge <= 1.0 - plan.delta_cert + 1e-12
    assert plan.q >= 1
    assert plan.eps_lwf > 0


def test_exact_p0_trivial_values():
    dim = 8
    values = exact_p0(np.zeros((dim, dim)), 1.0)
    assert values.p0 == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert values.z_over_n == pytest.approx(1.0, abs=1e-15)
    zero_beta = exact_p0(np.zeros((dim, dim)), 0.0)
    assert zero_beta.p0 == 1.0
    assert zero_beta.z_over_n == 1.0


def test_exact_p0_shift_identity():
    rng = np.random.default_rng(53)
    for _ in range(10):
        eff = random_effective(rng, 8)
        beta = float(rng.uniform(0.1, 4.0))
        values = exact_p0(eff, beta)
        assert values.p0 == pytest.approx(
            values.z_over_n * math.exp(-beta), rel=1e-12
        )
        assert values.shift_factor == pytest.approx(math.exp(-beta), rel=1e-15)


def test_householder_prepare_sends_e0_to_target():
    rng = np.random.default_rng(54)
    for _ in range(10):
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        u = householder_prepare(v)
        assert max_abs(u @ u.T - np.eye(8)) < 1e-12
        assert np.max(np.abs(u[:, 0] - v)) < 1e-12
    with pytest.raises(ValueError):
        householder_prepare(np.ones(4))


def test_amplitude_circuit_projection_equals_p0():
    # The probability of the block ancilla reading 0 after the preparation
    # circuit is exactly the normalized shifted trace.
    eff = syk_effective(4, beta_seed=8)
    beta = 1.3
    oracle = build_u_boltz(eff, beta, mode="exact")
    a = amplitude_circuit(oracle)
    want = exact_p0(eff, beta).p0
    assert good_state_probability(a) == pytest.approx(want, abs=1e-12)


def test_grover_operator_unitary():
    eff = syk_effective(4, beta_seed=9)
    oracle = build_u_boltz(eff, 0.8, mode="exact")
    a = amplitude_circuit(oracle)
    q = grover_operator(a)
    assert max_abs(q @ q.conj().T - np.eye(q.shape[0])) < 1e-10


def test_grover_amplitude_reads_sqrt_p0():
    rng = np.random.default_rng(55)
    for seed in (10, 11, 12):
        eff = syk_effective(4, beta_seed=seed)
        beta = float(rng.uniform(0.3, 2.0))
        oracle = build_u_boltz(eff, beta, mode="exact")
        a = amplitude_circuit(oracle)
        q = grover_operator(a)
        amp = grover_amplitude(q, a)
        assert abs(amp - math.sqrt(exact_p0(eff, beta).p0)) <= 1e-8


def test_grover_beta_zero_good_subspace_is_stationary():
    # With p0 = 1 the prepared state lies entirely in the good subspace and
    # Q acts on it as a phase.
    eff = syk_effective(4, beta_seed=13)
    oracle = build_u_boltz(eff, 0.0, mode="exact")
    a = amplitude_circuit(oracle)
    q = grover_operator(a)
    psi = a[:, 0]
    overlap = abs(psi.conj() @ (q @ psi))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_amplitude_estimate_endpoints():
    zero = amplitude_estimate(0.0, 0.05, seed=1)
    assert zero.p0_hat == 0.0
    one = amplitude_estimate(1.0, 0.05, seed=2)
    assert one.p0_hat == 1.0


def test_amplitude_estimate_hits_tolerance():
    hits = 0
    trials = 100
    for seed in range(trials):
        est = amplitude_estimate(0.25, 0.1, seed=seed)
        if abs(est.a0_hat - 0.5) <= 0.1:
            hits += 1
    assert hits >= 95


def test_amplitude_estimate_queries_grow_with_precision():
    med = {}
    for eps in (0.1, 0.025):
        med[eps] = float(
            np.median([amplitude_estimate(0.3, eps, seed=s).queries for s in range(30)])
        )
    assert med[0.025] > med[0.1]


def test_amplitude_estimate_reports_schedule():
    est = amplitude_estimate(0.4, 0.05, seed=7, schedule=EstimationSchedule(alpha=0.02))
    assert est.confidence == pytest.approx(0.98)
    assert est.rounds >= 1
    assert est.queries > 0
    assert 0.0 <= est.p0_hat <= 1.0


def test_amplitude_estimate_flags_exhausted_rounds():
    assert amplitude_estimate(0.3, 0.01, seed=4).converged
    est = amplitude_estimate(0.3, 0.01, seed=4, schedule=EstimationSchedule(max_rounds=1))
    assert est.rounds == 1
    assert not est.converged


def test_exact_p0_accepts_a_spectrum():
    rng = np.random.default_rng(9)
    eff = random_effective(rng, 8)
    vals = np.linalg.eigvalsh(eff.matrix)
    assert exact_p0(vals, 1.3) == exact_p0(eff, 1.3)


def test_amplitude_estimate_domain():
    with pytest.raises(ValueError):
        amplitude_estimate(1.5, 0.05, seed=0)
    with pytest.raises(ValueError):
        amplitude_estimate(0.5, 0.0, seed=0)
    with pytest.raises(ValueError):
        EstimationSchedule(shots=0)


def test_qubit_ledger_widths():
    for n in (4, 8):
        ledger = qubit_ledger(n)
        assert ledger["system"] == n
        assert ledger["trace_copy"] == n
        assert ledger["gqsp_ancilla"] == 1
        assert ledger["estimation_ancilla"] == 1
        assert ledger["total"] == 2 * n + 2
