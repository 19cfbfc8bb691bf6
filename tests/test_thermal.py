"""Tests for the Boltzmann block, trace states, and amplitude estimation.

The dense circuit model of the trace reading lives here: the thermofield
double on registers (A, B), its Householder preparation, the exact
Boltzmann block completed to a unitary on (C, A), and the Grover operator
whose eigenphases carry sqrt(p0).  Register order is (C, A, B).
"""

import math
from dataclasses import FrozenInstanceError, dataclass
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trottergibbs import gqsp, thermal
from trottergibbs.linalg import (
    ToleranceError,
    assert_unitary,
    eigh_decompose,
    max_abs,
    spectral_apply,
)
from trottergibbs.lwf import ApproximationError, gibbs_fourier
from trottergibbs.paulis import PauliString
from trottergibbs.syk import (
    HamiltonianTerms,
    build_syk_hamiltonian,
    normalize_one_norm,
    sample_syk,
)
from trottergibbs.thermal import (
    EPS_FLOOR,
    MODES,
    EstimationSchedule,
    OracleError,
    amplitude_estimate,
    boltzmann_oracle,
    exact_p0,
)
from trottergibbs.trotter import node_spectrum

from oracles import build_u_boltz, qubit_ledger, syk_effective


def random_effective(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (a + a.conj().T)
    h /= np.linalg.norm(h, 2) * 1.5
    return h


@dataclass(frozen=True)
class ThermofieldState:
    """Infinite-temperature thermofield double on registers (A, B)."""

    n: int
    vector: np.ndarray

    @property
    def dim(self) -> int:
        return 2**self.n


def thermofield_double(n: int) -> ThermofieldState:
    """(1/sqrt(N)) sum_i |i>_A |i>_B with N = 2**n."""
    dim = 2**n
    vec = np.zeros(dim * dim)
    vec[np.arange(dim) * dim + np.arange(dim)] = 1.0 / math.sqrt(dim)
    return ThermofieldState(n, vec)


def householder_prepare(target: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix sending e_0 to the (real) target vector."""
    target = np.asarray(target, dtype=float)
    if abs(float(np.linalg.norm(target)) - 1.0) > 1e-12:
        raise ValueError("state-preparation target must be normalized")
    u = -target.copy()
    u[0] += 1.0
    nsq = float(np.dot(u, u))
    if nsq < 1e-24:
        return np.eye(target.shape[0])
    return np.eye(target.shape[0]) - 2.0 * np.outer(u, u) / nsq


def exact_boltzmann_unitary(h_eff: np.ndarray, beta: float) -> np.ndarray:
    """Unitary [[B, -S], [S, B]] with B = e^{-beta(H_eff+1)/2}, S = sqrt(I - B^2).

    B's eigenvalues are clipped to [0, 1]: a normalized SYK H_eff can reach
    -1 - 2e-16, which puts them a rounding error above 1.
    """
    vals, vecs = eigh_decompose(h_eff)
    b_vals = np.clip(np.exp(-beta * (vals + 1.0) / 2.0), 0.0, 1.0)
    b = spectral_apply(vecs, b_vals)
    s = spectral_apply(vecs, np.sqrt(1.0 - b_vals**2))
    return np.block([[b, -s], [s, b]])


def amplitude_circuit(boltz_unitary: np.ndarray) -> np.ndarray:
    """State-preparation unitary A on (C, A, B): prepare TFD, apply U_boltz."""
    dim = boltz_unitary.shape[0] // 2
    tfd = thermofield_double(int(round(math.log2(dim))))
    prep = np.kron(np.eye(2), householder_prepare(tfd.vector))
    # kron nests (C, A) outer and B inner, matching the register order.
    return np.kron(boltz_unitary, np.eye(dim)) @ prep


def good_state_probability(a_circuit: np.ndarray) -> float:
    """Probability of the block ancilla C reading 0 after A|0...0>."""
    half = a_circuit.shape[0] // 2
    return float(np.sum(np.abs(a_circuit[:half, 0]) ** 2))


def grover_operator(a_circuit: np.ndarray) -> np.ndarray:
    """Q = -A S_0 A^dag S_chi with S_0 about |0...0> and S_chi about C=0."""
    assert_unitary(a_circuit)
    dim_total = a_circuit.shape[0]
    s0 = np.eye(dim_total, dtype=complex)
    s0[0, 0] = -1.0
    chi = np.ones(dim_total)
    chi[: dim_total // 2] = -1.0
    return -a_circuit @ s0 @ a_circuit.conj().T @ np.diag(chi)


def grover_amplitude(q_op: np.ndarray, a_circuit: np.ndarray, tol: float = 1e-8) -> float:
    """Amplitude sin(theta_a) read off Q's eigenphases on the A|0> subspace."""
    vals, vecs = np.linalg.eig(q_op)
    weights = np.abs(vecs.conj().T @ a_circuit[:, 0]) ** 2
    phases = np.abs(np.angle(vals[weights > tol]))
    return float(np.mean(np.sin(phases / 2.0)))


def spectrum(eff: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(eff)


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


def test_build_u_boltz_beta_zero_identity_all_modes():
    eff = syk_effective(4, beta_seed=1)
    for mode in MODES:
        oracle = build_u_boltz(eff, 0.3, 0.0, mode=mode)
        assert max_abs(oracle.normalized_block - np.eye(eff.shape[0])) < 1e-12
        assert oracle.scale == 1.0
        # No circuit is built.
        assert oracle.diagnostics == {
            "q": 0, "fourier_m": 0, "trotter_steps": 0, "block_deviation": 0.0
        }


def test_boltzmann_oracle_fields_cannot_be_reassigned():
    eff = syk_effective(4, beta_seed=1)
    oracle = build_u_boltz(eff, 0.3, 1.0)
    plain = boltzmann_oracle(spectrum(eff), 0.3, 1.0, "gqsp", eps_qsp=1e-6)
    for target, name in ((plain, "scale"), (oracle, "basis")):
        with pytest.raises(FrozenInstanceError):
            setattr(target, name, None)


def test_build_u_boltz_block_is_subnormalized_and_embedded():
    eff = syk_effective(8, beta_seed=3)
    for mode in MODES:
        oracle = build_u_boltz(eff, 0.3, 1.0, mode=mode)
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
            oracle = build_u_boltz(eff, 0.3, beta, mode="gqsp", eps_qsp=eps)
            vals, vecs = np.linalg.eigh(eff)
            want = (vecs * np.exp(-beta * (vals + 1.0) / 2.0)) @ vecs.conj().T
            assert max_abs(oracle.normalized_block - want) <= eps + 1e-8


@pytest.mark.parametrize("mode", MODES)
def test_block_deviation_is_the_operator_norm_gap(mode):
    # Criterion 4's models: the per-eigenphase gap stays within eps_qsp and
    # bounds the element-wise deviation of the dense block from above.
    eps_qsp = 1e-6
    for n in (4, 8):
        eff = syk_effective(n, beta_seed=7)
        vals, vecs = np.linalg.eigh(eff)
        for beta in (1.0, 2.0):
            oracle = build_u_boltz(eff, 0.3, beta, mode=mode, eps_qsp=eps_qsp)
            want = (vecs * np.exp(-beta * (vals + 1.0) / 2.0)) @ vecs.conj().T
            dense = max_abs(oracle.normalized_block - want)
            gap = oracle.diagnostics["block_deviation"]
            assert dense <= gap <= eps_qsp


def test_build_u_boltz_ideal_w_isolates_rounding():
    eff = syk_effective(8, beta_seed=6)
    ideal = build_u_boltz(eff, 0.3, 2.0, mode="ideal-w", eps_qsp=1e-6)
    # Continuous signal time: no beta rescaling.
    assert ideal.beta_k == pytest.approx(2.0, rel=1e-12)
    assert ideal.diagnostics["block_deviation"] <= 1e-6 + 1e-8


def test_build_u_boltz_gqsp_beta_k_reflects_rounding():
    eff = syk_effective(8, beta_seed=6)
    oracle = build_u_boltz(eff, 0.3, 2.0, mode="gqsp")
    # Integer query counts perturb the realized inverse temperature by at
    # most the rounding ratio; the block itself still targets beta.
    assert abs(oracle.beta_k - 2.0) < 0.5
    assert oracle.beta_k > 0
    assert oracle.diagnostics["q"] >= 1


@pytest.mark.parametrize("mode", MODES)
def test_trotter_steps_count_the_circuit(mode):
    # 2M+1 powers of W = S_p^q; continuous time (ideal-w, q = 0) counts as
    # one step per power, so only beta = 0 reports no steps.
    diag = build_u_boltz(syk_effective(8, beta_seed=6), 0.3, 2.0, mode=mode).diagnostics
    assert (diag["q"] == 0) == (mode == "ideal-w")
    assert diag["trotter_steps"] == max(1, diag["q"]) * (2 * diag["fourier_m"] + 1)


def test_build_u_boltz_rejects_bad_input():
    eff = syk_effective(4, beta_seed=1)
    with pytest.raises(ValueError):
        build_u_boltz(eff, 0.3, -1.0)
    # NaN used to pass "beta < 0" and end in "cannot convert float NaN to integer".
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        build_u_boltz(eff, 0.3, math.nan)
    with pytest.raises(ValueError):
        build_u_boltz(eff, 0.3, 1.0, mode="unknown")
    with pytest.raises(ValueError):
        build_u_boltz(eff, 0.3, 1.0, mode="exact")


def test_build_u_boltz_coarse_step_fails():
    # A base step too coarse for the requested window cannot place the
    # spectrum inside the Fourier domain.
    eff = syk_effective(4, beta_seed=1, tau=3.0)
    with pytest.raises(OracleError):
        build_u_boltz(eff, 3.0, 4.0, mode="gqsp")


@pytest.mark.parametrize("mode", MODES)
def test_block_past_eps_qsp_is_refused(mode, shrunk_fourier):
    # Coefficients spoiled after assembly never meet the window certificate
    # on this path, so the gate on the node's own eigenvalues must catch them.
    eff = syk_effective(8, beta_seed=7)
    with pytest.raises(OracleError, match=r"block_deviation \S+ exceeds eps_qsp 1\.000e-06"):
        build_u_boltz(eff, 0.3, 1.0, mode=mode, eps_qsp=1e-6)
    # Within a looser budget the same block is accepted.
    oracle = build_u_boltz(eff, 0.3, 1.0, mode=mode, eps_qsp=1e-3)
    assert 1e-6 < oracle.diagnostics["block_deviation"] <= 1e-3


def test_cell_past_unit_norm_fails_the_unitarity_check(monkeypatch):
    # |b| = 1 + 1e-6 breaks subnormalization; the unitarity check refuses it
    # (C^dag C - I has a 2e-6 entry), before any gate on the block's accuracy.
    real = thermal.gqsp_cells

    def spoiled(*args):
        cells = real(*args)
        cells[0] = np.diag([1.0 + 1e-6, 1.0])
        return cells

    monkeypatch.setattr(thermal, "gqsp_cells", spoiled)
    with pytest.raises(ToleranceError, match="Boltzmann cell is not unitary"):
        build_u_boltz(syk_effective(4, beta_seed=1), 0.3, 1.0, mode="gqsp")


def test_nan_block_is_refused(monkeypatch):
    # A NaN cell fails the unitarity check, whose NaN deviation used to pass
    # it; without that check the gate on block_deviation still refuses it.
    real = thermal.gqsp_cells

    def spoiled(*args):
        cells = real(*args)
        cells[0] = np.nan
        return cells

    monkeypatch.setattr(thermal, "gqsp_cells", spoiled)
    with pytest.raises(ToleranceError, match="Boltzmann cell is not unitary: deviation nan"):
        build_u_boltz(syk_effective(4, beta_seed=1), 0.3, 1.0, mode="gqsp")
    monkeypatch.setattr(thermal, "assert_unitary", lambda *args, **kwargs: None)
    with pytest.raises(OracleError, match="block_deviation nan exceeds eps_qsp"):
        build_u_boltz(syk_effective(4, beta_seed=1), 0.3, 1.0, mode="gqsp")


@pytest.mark.parametrize("mode", MODES)
def test_p0_is_the_trace_of_the_normalized_block(mode):
    oracle = build_u_boltz(syk_effective(8, beta_seed=7), 0.3, 1.0, mode=mode)
    b = oracle.normalized_block
    assert oracle.p0 == pytest.approx(float(np.trace(b.conj().T @ b).real) / b.shape[0], rel=1e-12)


def small_model(kind, seed):
    """A one-norm-1 SYK draw on 2-4 qubits or a random Pauli sum on 1-3 qubits."""
    if kind == "syk":
        n_majorana = 4 + 2 * (seed % 3)
        return normalize_one_norm(build_syk_hamiltonian(sample_syk(n_majorana, seed=seed)))[0]
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    labels = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(1 + seed % 4)]
    terms = [(float(rng.normal()), PauliString.from_label(l)) for l in labels if l != "I" * n]
    assume(terms)
    return normalize_one_norm(HamiltonianTerms(n, terms))[0]


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["syk", "pauli"]),
    st.integers(0, 2**16),
    st.floats(1.0, 8.0),
    st.sampled_from([1e-3, 1e-4, 1e-6]),
    st.sampled_from(MODES),
    st.sampled_from([2, 4]),
    st.floats(0.05, 1.0),
)
def test_gate_never_refuses_a_certified_target_property(kind, seed, beta, eps_qsp, mode, order, s):
    # Wherever the node's own Fourier target passes the window certificate,
    # its block meets eps_qsp on the node's eigenvalues.  The target is the
    # one the oracle builds, recorded rather than built twice.
    model = small_model(kind, seed)
    tau = 0.3 * s
    spectrum = node_spectrum(model, tau, order)
    targets = []

    def recording(*args):
        targets.append(gibbs_fourier(*args))
        return targets[-1]

    with mock.patch.object(thermal, "gibbs_fourier", recording):
        try:
            oracle = boltzmann_oracle(spectrum, tau, beta, mode, eps_qsp=eps_qsp)
            deviation = oracle.diagnostics["block_deviation"]
        except OracleError:
            deviation = math.inf
        except ApproximationError:
            pass  # no target was built: the Taylor or arcsin budget is out of reach
    assume(targets)  # an empty list also means the spectrum left no Fourier window
    try:
        targets[0].certify()
    except ApproximationError:
        assume(False)
    assert deviation <= eps_qsp


@pytest.mark.parametrize("mode", MODES)
def test_oracle_refuses_beta_without_fourier_window(mode):
    # delta' = 1/beta shifts the spectrum by x0 = 1/(1 + beta), which leaves
    # no room below the edge gap for any 0 < beta <= EDGE_GAP/(1 - EDGE_GAP).
    bound = thermal.EDGE_GAP / (1.0 - thermal.EDGE_GAP)
    assert bound == pytest.approx(1 / 19, rel=1e-15)
    refusal = rf"no Fourier window at beta=0\.05: .* a block needs beta > {bound:.6g}"
    with pytest.raises(OracleError, match=refusal):
        boltzmann_oracle(np.array([-0.5, 0.5]), 0.3, 0.05, mode, eps_qsp=1e-6)
    assert thermal.fourier_window(0.06)[1] > 0.0


def test_gqsp_plan_certificate_window():
    eff = syk_effective(8, beta_seed=7)
    plan = build_u_boltz(eff, 0.3, 2.0).diagnostics
    assert 0.0 < plan["delta_cert"] <= 1.0
    assert plan["max_edge"] <= 1.0 - plan["delta_cert"] + 1e-12
    assert plan["q"] >= 1
    assert plan["eps_lwf"] > 0


def test_gqsp_diagnostics_hold_every_plan_field():
    spec = spectrum(syk_effective(8, beta_seed=7))
    diagnostics = boltzmann_oracle(spec, 0.3, 2.0, "gqsp", eps_qsp=1e-6).diagnostics
    plan = thermal._gqsp_plan(0.3, 2.0, spec, "gqsp", 1e-6)
    assert list(diagnostics)[: len(plan)] == list(plan)
    assert {key: diagnostics[key] for key in plan} == plan


@pytest.mark.parametrize("tau", [0.3, -0.1, 5.0])
def test_plan_on_a_zero_spectrum_reports_the_time_it_runs(tau):
    # No eigenvalue caps q, so gqsp's time is the q |tau| that W = S_p(tau)^q
    # runs; it once reported t* with q = 1.  ideal-w keeps t* with q = 0.
    t_star = math.pi / 4.0  # beta = 1
    plan = thermal._gqsp_plan(tau, 1.0, np.zeros(4), "gqsp", 1e-6)
    assert plan["q"] == max(1, round(t_star / abs(tau)))
    assert plan["time"] == plan["q"] * abs(tau)
    plan = thermal._gqsp_plan(tau, 1.0, np.zeros(4), "ideal-w", 1e-6)
    assert (plan["q"], plan["time"]) == (0, t_star)


def test_gqsp_target_reads_the_circle_twice(monkeypatch):
    # |P|, which holds the admissibility check, and |Q| on the completion's
    # grid; no residual is recomputed after the peeling.
    calls = []
    real = gqsp._circle_values

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(gqsp, "_circle_values", counting)
    boltzmann_oracle(spectrum(syk_effective(8, beta_seed=6)), 0.3, 2.0, "gqsp", eps_qsp=1e-6)
    assert len(calls) == 2


def test_boltzmann_scale_underflow_is_refused_by_name():
    # A wide spectrum caps the signal time, so beta_f(1 + x0) outgrows
    # beta/2 and e^(beta/2 - beta_f(1 + x0)) underflows to 0 at beta 700.
    with pytest.raises(OracleError, match=r"scale .* = 0\.000e\+00 at beta=700\.0, beta_f="):
        boltzmann_oracle(np.array([-3.0, 3.0]), 0.01, 700.0, "gqsp", eps_qsp=1e-6)


def test_boltzmann_scale_overflow_is_refused_by_name():
    # Past the CLI's beta cap the exponent beta/2 - beta_f(1 + x0) = 714 overflows
    # math.exp; this used to raise a bare OverflowError.
    with pytest.raises(
        OracleError, match=r"= e\^714\.34 = inf at beta=3000\.0, beta_f=785\.398 "
    ):
        boltzmann_oracle(np.array([-0.1, 0.1]), 3.0, 3000.0, "gqsp", eps_qsp=1e-6)


def test_exact_p0_trivial_values():
    dim = 8
    p0, z_over_n = exact_p0(np.zeros(dim), 1.0)
    assert p0 == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert z_over_n == pytest.approx(1.0, abs=1e-15)
    assert exact_p0(np.zeros(dim), 0.0) == (1.0, 1.0)


def test_exact_p0_shift_identity():
    rng = np.random.default_rng(53)
    for _ in range(10):
        eff = random_effective(rng, 8)
        beta = float(rng.uniform(0.1, 4.0))
        p0, z_over_n = exact_p0(spectrum(eff), beta)
        assert p0 == pytest.approx(z_over_n * math.exp(-beta), rel=1e-12)


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
    a = amplitude_circuit(exact_boltzmann_unitary(eff, beta))
    want, _ = exact_p0(spectrum(eff), beta)
    assert good_state_probability(a) == pytest.approx(want, abs=1e-12)


def test_grover_operator_unitary():
    eff = syk_effective(4, beta_seed=9)
    a = amplitude_circuit(exact_boltzmann_unitary(eff, 0.8))
    q = grover_operator(a)
    assert max_abs(q @ q.conj().T - np.eye(q.shape[0])) < 1e-10


def test_grover_amplitude_reads_sqrt_p0():
    rng = np.random.default_rng(55)
    for seed in (10, 11, 12):
        eff = syk_effective(4, beta_seed=seed)
        beta = float(rng.uniform(0.3, 2.0))
        a = amplitude_circuit(exact_boltzmann_unitary(eff, beta))
        q = grover_operator(a)
        amp = grover_amplitude(q, a)
        assert abs(amp - math.sqrt(exact_p0(spectrum(eff), beta)[0])) <= 1e-8


def test_grover_beta_zero_good_subspace_is_stationary():
    # With p0 = 1 the prepared state lies entirely in the good subspace and
    # Q acts on it as a phase.
    eff = syk_effective(4, beta_seed=13)
    a = amplitude_circuit(exact_boltzmann_unitary(eff, 0.0))
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
    # A smaller failure probability widens every interval, so it costs queries.
    queries = {
        alpha: [
            amplitude_estimate(0.4, 0.05, seed=s, schedule=EstimationSchedule(alpha)).queries
            for s in range(30)
        ]
        for alpha in (1e-3, 0.05)
    }
    assert np.median(queries[1e-3]) > np.median(queries[0.05])  # 944 against 624
    assert min(queries[1e-3]) >= max(queries[0.05])
    assert est.rounds >= 1
    assert est.queries > 0
    assert 0.0 <= est.p0_hat <= 1.0


def test_amplitude_estimate_flags_exhausted_rounds(monkeypatch):
    assert amplitude_estimate(0.3, 0.01, seed=4).converged
    monkeypatch.setattr(thermal, "MAX_ROUNDS", 1)
    est = amplitude_estimate(0.3, 0.01, seed=4)
    assert est.rounds == 1
    assert not est.converged


@pytest.mark.parametrize("p0_true, a0_hat", [(0.0, 0.0), (1.0, 1.0)])
def test_amplitude_estimate_marks_clamped_outcomes(p0_true, a0_hat):
    # Every shot misses at p0 = 0 and hits at p0 = 1; the estimate is then
    # set to the end of the range, not read off the interval.
    est = amplitude_estimate(p0_true, 0.01, seed=4)
    assert est.clamped
    assert est.a0_hat == a0_hat
    assert est.rounds >= 1
    assert not amplitude_estimate(0.3, 0.01, seed=4).clamped


def test_exact_p0_accepts_a_spectrum():
    rng = np.random.default_rng(9)
    eff = random_effective(rng, 8)
    gibbs = scipy.linalg.expm(-1.3 * (eff + np.eye(8)))
    assert exact_p0(spectrum(eff), 1.3)[0] == pytest.approx(
        float(np.trace(gibbs).real) / 8, rel=1e-12
    )
    with pytest.raises(ValueError):
        exact_p0(eff, 1.3)


def test_amplitude_estimate_domain():
    with pytest.raises(ValueError):
        amplitude_estimate(1.5, 0.05, seed=0)
    with pytest.raises(ValueError):
        amplitude_estimate(0.5, 0.0, seed=0)
    # The candidate scan of _find_next_k grows like 1/eps; EPS_FLOOR bounds it.
    with pytest.raises(ValueError, match=r"eps must lie in \[1e-06, 1\)"):
        amplitude_estimate(0.5, 1e-7, seed=0)
    assert amplitude_estimate(9.3e-11, EPS_FLOOR, seed=1).converged
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError, match="alpha must lie in"):
            EstimationSchedule(alpha=alpha)


def test_qubit_ledger_widths():
    for n in (4, 8):
        ledger = qubit_ledger(n)
        assert ledger["system"] == n
        assert ledger["trace_copy"] == n
        assert ledger["gqsp_ancilla"] == 1
        assert ledger["estimation_ancilla"] == 1
        assert ledger["total"] == 2 * n + 2
