"""Thermofield-double trace evaluation and amplitude estimation.

The partition function is probed through the infinite-temperature
thermofield double: for any operator B on the system register,
<TFD| (B (x) I) |TFD> = Tr(B)/N.  A subnormalized block operator
carrying e^{-beta(H_eff + 1)/2} turns that trace into the success
probability of a single ancilla, which iterative amplitude estimation
then reads out quadratically faster than direct sampling.

Register order is (C, A, B): the block ancilla C is the outermost
tensor factor, the system register A next, and the trace copy B
innermost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gqsp import LaurentPoly, extract_block, gqsp_apply, synthesize_laurent
from .linalg import (
    assert_unitary,
    eigh_decompose,
    spectral_norm,
    unitary_power,
)
from .lwf import gibbs_fourier
from .trotter import EffectiveHamiltonian

DIAG_TOL = 1e-12
SUBNORMALIZATION_TOL = 1e-9
EXACT_BLOCK_TOL = 1e-12
DEFAULT_EDGE_GAP = 0.05
COEF_RESCALE = 1.0 - 1e-6

MODES = ("exact", "gqsp", "ideal-w")


class OracleError(ValueError):
    """Raised when a Boltzmann oracle cannot be realized as requested."""


@dataclass(frozen=True)
class ThermofieldState:
    """Infinite-temperature thermofield double on registers (A, B)."""

    n: int
    vector: np.ndarray

    def __post_init__(self):
        norm = float(np.linalg.norm(self.vector))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"thermofield state norm {norm!r} != 1")

    @property
    def dim(self) -> int:
        return 2**self.n


def thermofield_double(n: int, cap: int = 12) -> ThermofieldState:
    """(1/sqrt(N)) sum_i |i>_A |i>_B with N = 2**n."""
    if n < 1:
        raise ValueError("need at least one system qubit")
    if 2 * n > cap:
        raise ValueError(f"thermofield register 2*{n} exceeds the dense cap {cap}")
    dim = 2**n
    vec = np.zeros(dim * dim)
    vec[np.arange(dim) * dim + np.arange(dim)] = 1.0 / math.sqrt(dim)
    return ThermofieldState(n, vec)


def beta_correction(beta: float, s_k: float, t: float) -> float:
    """Integer-query correction beta_k = beta * ceil(1/(s_k t)) / (1/(s_k t)).

    Rounding 1/(s_k t) up to an integer query count slightly inflates the
    inverse temperature instead of truncating the evolution; for s_k < 0
    the floor plays the ceiling's role so the factor stays >= 1.
    """
    if s_k == 0.0:
        raise ValueError("s_k = 0 has no finite query count")
    if t <= 0.0:
        raise ValueError("base step t must be positive")
    inv = 1.0 / (s_k * t)
    queries = math.ceil(inv) if s_k > 0 else math.floor(inv)
    return beta * queries / inv


@dataclass
class GqspPlan:
    """Derived parameters mapping spec(H_eff) into the Fourier window."""

    q: int  # integer power of the base step (0 means continuous time)
    time: float  # total signal time T; q * tau in integer mode
    beta_f: float  # inverse temperature handed to the Fourier builder
    x0: float  # spectral shift delta'/(1 + delta')
    delta_prime: float
    delta_cert: float  # window margin used for the certificate
    eps_lwf: float  # Fourier error budget after scale amplification
    scale: float  # known classical factor multiplying the target block
    beta_k: float  # beta rescaled by the time-rounding ratio
    max_edge: float


def _gqsp_plan(
    h_eff: EffectiveHamiltonian,
    beta: float,
    eigenvalues: np.ndarray,
    mode: str,
    eps_qsp: float,
    delta_prime: float | None,
    edge_gap: float,
) -> GqspPlan:
    lam_min = float(np.min(eigenvalues))
    lam_max = float(np.max(eigenvalues))
    radius = max(abs(lam_min), abs(lam_max))
    dp = (1.0 / beta) if delta_prime is None else float(delta_prime)
    if dp <= 0.0:
        raise OracleError("spectral shift delta' must be positive")
    x0 = dp / (1.0 + dp)
    t_star = math.pi / (2.0 * (1.0 + dp))
    budget = 1.0 - edge_gap - x0
    if budget <= 0.0:
        raise OracleError(
            f"shift delta'={dp} leaves no window below the edge gap {edge_gap}"
        )
    if radius == 0.0:
        t_sig = t_star
        q = 1
    elif mode == "ideal-w":
        t_sig = min(t_star, math.pi * budget / (2.0 * radius))
        q = 0
    else:
        tau = abs(h_eff.tau)
        q_cap = math.floor(math.pi * budget / (2.0 * tau * radius))
        if q_cap < 1:
            raise OracleError(
                f"base step tau={h_eff.tau} too coarse: even one application "
                f"overshoots the Fourier window (|spec| <= {radius:.3f})"
            )
        q = max(1, min(round(t_star / tau), q_cap))
        t_sig = q * tau
    beta_f = beta * math.pi / (4.0 * t_sig)
    slope = 2.0 * t_sig / math.pi
    edges = (x0 + slope * lam_max, x0 + slope * lam_min)
    max_edge = max(abs(edges[0]), abs(edges[1]))
    if max_edge > 1.0 - edge_gap + 1e-12:
        raise OracleError(
            f"mapped spectrum edge {max_edge:.6f} breaches the gap {edge_gap}"
        )
    delta_cert = min(1.0, 1.0 / beta, 1.0 - max_edge)
    scale = COEF_RESCALE * math.exp(beta / 2.0 - beta_f * (1.0 + x0))
    eps_lwf = 0.9 * eps_qsp * scale / COEF_RESCALE
    return GqspPlan(
        q=q,
        time=t_sig,
        beta_f=beta_f,
        x0=x0,
        delta_prime=dp,
        delta_cert=delta_cert,
        eps_lwf=eps_lwf,
        scale=scale,
        beta_k=beta * (t_star / t_sig),
        max_edge=max_edge,
    )


@dataclass
class BoltzmannOracle:
    """Subnormalized block operator on the (C, A) registers.

    ``block`` is the realized A-register operator sitting in the C=0
    corner of ``unitary``; it equals ``scale`` times e^{-beta(H_eff+1)/2}
    up to the mode's approximation error.  ``scale`` is a known classical
    factor (1 in exact mode) divided out downstream.
    """

    mode: str
    beta: float
    s_node: float
    base_step: float
    order: int
    beta_k: float
    block: np.ndarray
    scale: float
    unitary: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def normalized_block(self) -> np.ndarray:
        return self.block / self.scale

    def check(self):
        top = float(np.max(np.linalg.svd(self.block, compute_uv=False)))
        if top > 1.0 + SUBNORMALIZATION_TOL:
            raise OracleError(f"block singular value {top!r} breaks subnormalization")
        assert_unitary(self.unitary)
        dim = self.block.shape[0]
        corner = self.unitary[:dim, :dim]
        if np.max(np.abs(corner - self.block)) > 1e-12:
            raise OracleError("unitary corner disagrees with the stored block")


def _complete_contraction(b: np.ndarray) -> np.ndarray:
    """Unitary [[B, -S], [S, B]] for Hermitian contraction B, S = sqrt(I-B^2)."""
    dec = eigh_decompose(b)
    vals = np.clip(dec.eigenvalues, -1.0, 1.0)
    s = dec.apply(np.sqrt(1.0 - vals**2))
    top = np.hstack([b, -s])
    bot = np.hstack([s, b])
    u = np.vstack([top, bot])
    assert_unitary(u)
    return u


def build_u_boltz(
    h_eff: EffectiveHamiltonian,
    beta: float,
    mode: str = "exact",
    *,
    eps_qsp: float = 1e-6,
    delta_prime: float | None = None,
    edge_gap: float = DEFAULT_EDGE_GAP,
    s_node: float = 1.0,
    base_step: float | None = None,
) -> BoltzmannOracle:
    """Realize the Boltzmann block for H_eff at inverse temperature beta.

    exact    -- matrix exponential of the shifted generator, completed to a
                unitary directly.
    gqsp     -- Fourier polynomial of W = S_p(tau)^q evaluated through the
                rotation circuit; q is rounded to an integer and the
                residual folded into the Fourier inverse temperature.
    ideal-w  -- same pipeline but with the signal time left continuous,
                isolating the Fourier approximation error from rounding.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    h = h_eff.matrix
    dim = h.shape[0]
    step = h_eff.tau if base_step is None else base_step
    if beta == 0.0:
        block = np.eye(dim, dtype=complex)
        unitary = np.eye(2 * dim, dtype=complex)
        # A zero-temperature-free block is the identity in every mode.
        oracle = BoltzmannOracle(
            mode, beta, s_node, step, h_eff.order, beta, block, 1.0, unitary
        )
        oracle.check()
        return oracle

    dec = eigh_decompose(h)
    exact_block = dec.apply(np.exp(-beta * (dec.eigenvalues + 1.0) / 2.0))

    if mode == "exact":
        unitary = _complete_contraction(exact_block)
        oracle = BoltzmannOracle(
            mode,
            beta,
            s_node,
            step,
            h_eff.order,
            beta,
            exact_block,
            1.0,
            unitary,
        )
        oracle.check()
        return oracle

    plan = _gqsp_plan(h_eff, beta, dec.eigenvalues, mode, eps_qsp, delta_prime, edge_gap)
    fa = gibbs_fourier(plan.beta_f, plan.delta_cert, plan.eps_lwf)
    ms = np.arange(-fa.M, fa.M + 1)
    coefs = fa.c * np.exp(1j * math.pi * ms * plan.x0 / 2.0) * COEF_RESCALE
    target = LaurentPoly(fa.M, coefs)
    angles = synthesize_laurent(target)

    w = dec.apply(np.exp(1j * plan.time * dec.eigenvalues))
    circuit = gqsp_apply(angles, w)
    # The monomial shift z^M is undone by M inverse signal applications on
    # the C=0 branch, keeping the whole operator unitary.
    w_back = unitary_power(w.conj().T, fa.M)
    undo = np.block(
        [
            [w_back, np.zeros((dim, dim))],
            [np.zeros((dim, dim)), np.eye(dim)],
        ]
    )
    unitary = undo @ circuit
    block = unitary[:dim, :dim]

    oracle = BoltzmannOracle(
        mode,
        beta,
        s_node,
        step,
        h_eff.order,
        plan.beta_k,
        block,
        plan.scale,
        unitary,
        diagnostics={
            "q": plan.q,
            "time": plan.time,
            "beta_f": plan.beta_f,
            "x0": plan.x0,
            "delta_prime": plan.delta_prime,
            "delta_cert": plan.delta_cert,
            "eps_lwf": plan.eps_lwf,
            "eps_qsp": eps_qsp,
            "max_edge": plan.max_edge,
            "fourier_m": fa.M,
            "block_deviation": float(
                np.max(np.abs(block / plan.scale - exact_block))
            ),
        },
    )
    oracle.check()
    return oracle


def gqsp_plan_for(
    h_eff: EffectiveHamiltonian,
    beta: float,
    *,
    eps_qsp: float = 1e-6,
    delta_prime: float | None = None,
    edge_gap: float = DEFAULT_EDGE_GAP,
    mode: str = "gqsp",
) -> GqspPlan:
    """Parameter plan only (no circuit); used for cost accounting."""
    dec = eigh_decompose(h_eff.matrix)
    return _gqsp_plan(h_eff, beta, dec.eigenvalues, mode, eps_qsp, delta_prime, edge_gap)


@dataclass(frozen=True)
class TraceValues:
    """Shifted and unshifted normalized traces of the Gibbs operator."""

    p0: float  # Tr(e^{-beta(H_eff+1)})/N
    z_over_n: float  # Tr(e^{-beta H_eff})/N = e^{beta} * p0
    shift_factor: float  # e^{-beta}, the known classical factor


def exact_p0(h_eff: EffectiveHamiltonian | np.ndarray, beta: float) -> TraceValues:
    """Normalized Gibbs trace of H_eff, in both shift conventions.

    Takes the effective Hamiltonian, its matrix, or (a 1-D array) its
    eigenvalues.
    """
    h = h_eff.matrix if isinstance(h_eff, EffectiveHamiltonian) else np.asarray(h_eff)
    vals = h if h.ndim == 1 else np.linalg.eigvalsh(h)
    n = h.shape[0]
    p0 = float(np.sum(np.exp(-beta * (vals + 1.0))) / n)
    z = float(np.sum(np.exp(-beta * vals)) / n)
    return TraceValues(p0, z, math.exp(-beta))


def householder_prepare(target: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix sending e_0 to the (real) target vector."""
    target = np.asarray(target, dtype=float)
    norm = float(np.linalg.norm(target))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError("state-preparation target must be normalized")
    dim = target.shape[0]
    u = -target.copy()
    u[0] += 1.0
    nsq = float(np.dot(u, u))
    if nsq < 1e-24:
        return np.eye(dim)
    return np.eye(dim) - 2.0 * np.outer(u, u) / nsq


def amplitude_circuit(oracle: BoltzmannOracle) -> np.ndarray:
    """State-preparation unitary A on (C, A, B): prepare TFD, apply U_boltz."""
    dim = oracle.block.shape[0]
    n = int(round(math.log2(dim)))
    if 2**n != dim:
        raise ValueError("oracle dimension is not a power of two")
    tfd = thermofield_double(n, cap=2 * n)
    v_prep = householder_prepare(tfd.vector)
    prep = np.kron(np.eye(2), v_prep)
    # kron nests (C, A) outer and B inner, matching the register order.
    boltz = np.kron(oracle.unitary, np.eye(dim))
    return boltz @ prep


def good_state_probability(a_circuit: np.ndarray) -> float:
    """Probability of the block ancilla C reading 0 after A|0...0>."""
    dim_total = a_circuit.shape[0]
    state = a_circuit[:, 0]
    half = dim_total // 2
    return float(np.sum(np.abs(state[:half]) ** 2))


def grover_operator(a_circuit: np.ndarray) -> np.ndarray:
    """Q = -A S_0 A^dag S_chi with S_0 about |0...0> and S_chi about C=0."""
    assert_unitary(a_circuit)
    dim_total = a_circuit.shape[0]
    half = dim_total // 2
    s0 = np.eye(dim_total, dtype=complex)
    s0[0, 0] = -1.0
    chi = np.ones(dim_total)
    chi[:half] = -1.0
    s_chi = np.diag(chi).astype(complex)
    return -a_circuit @ s0 @ a_circuit.conj().T @ s_chi


def grover_amplitude(q_op: np.ndarray, a_circuit: np.ndarray, tol: float = 1e-8) -> float:
    """Amplitude sin(theta_a) read off Q's eigenphases on the A|0> subspace."""
    vals, vecs = np.linalg.eig(q_op)
    psi = a_circuit[:, 0]
    weights = np.abs(vecs.conj().T @ psi) ** 2
    phases = np.abs(np.angle(vals[weights > tol]))
    if phases.size == 0:
        raise ValueError("initial state has no support on Q's spectrum")
    return float(np.mean(np.sin(phases / 2.0)))


@dataclass
class EstimationSchedule:
    """Knobs of the iterative estimation loop."""

    shots: int = 32
    alpha: float = 0.05
    ratio: float = 2.0
    max_rounds: int = 100_000

    def __post_init__(self):
        if self.shots < 1 or not 0.0 < self.alpha < 1.0 or self.ratio <= 1.0:
            raise ValueError("invalid estimation schedule")


@dataclass
class TraceEstimate:
    """Outcome of a simulated amplitude-estimation run."""

    p0_hat: float
    a0_hat: float
    eps: float
    queries: int
    seed: int
    rounds: int
    confidence: float
    converged: bool  # False when max_rounds ran out before the interval closed


def _find_next_k(
    k: int, up: bool, theta_l: float, theta_u: float, ratio: float
) -> tuple[int, bool]:
    """Largest admissible amplification keeping K*(theta interval) in one semicircle."""
    width = theta_u - theta_l
    if width <= 0.0:
        return k, up
    k_cur = 4 * k + 2
    k_max_num = int(math.floor(math.pi / width))
    k_next = ((k_max_num - 2) // 4) * 4 + 2
    while k_next >= ratio * k_cur:
        om_l = (k_next * theta_l) % (2.0 * math.pi)
        om_u = (k_next * theta_u) % (2.0 * math.pi)
        if om_u >= om_l:
            if om_u <= math.pi:
                return (k_next - 2) // 4, True
            if om_l >= math.pi:
                return (k_next - 2) // 4, False
        k_next -= 4
    return k, up


def amplitude_estimate(
    p0_true: float,
    eps: float,
    seed: int,
    schedule: EstimationSchedule | None = None,
) -> TraceEstimate:
    """Simulated iterative amplitude estimation of a0 = sqrt(p0).

    Measurement outcomes of the k-fold amplified circuit are Bernoulli
    draws with success probability sin^2((2k+1) theta_a); the returned
    estimate lands within eps of a0 with confidence 1 - alpha.  Queries
    count oracle applications: 2k+1 per shot of the k-times-amplified
    circuit.
    """
    if not 0.0 <= p0_true <= 1.0:
        raise ValueError("p0 must lie in [0, 1]")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    sched = schedule or EstimationSchedule()
    rng = np.random.default_rng(seed)
    theta_true = math.asin(min(1.0, math.sqrt(p0_true)))

    theta_l, theta_u = 0.0, math.pi / 2.0
    k, up = 0, True
    pooled: dict[int, list[int]] = {}
    queries = 0
    rounds = 0
    total_shots = 0
    total_hits = 0
    # Union-bound budget over the geometric ladder of amplification levels.
    levels = max(1, math.ceil(math.log2(math.pi / (4.0 * eps))) + 1)
    alpha_i = sched.alpha / (2.0 * levels)

    while math.sin(theta_u) - math.sin(theta_l) > 2.0 * eps:
        if rounds >= sched.max_rounds:
            break  # reported through TraceEstimate.converged
        k, up = _find_next_k(k, up, theta_l, theta_u, sched.ratio)
        p_shot = math.sin((2 * k + 1) * theta_true) ** 2
        hits = int(rng.binomial(sched.shots, p_shot))
        bucket = pooled.setdefault(k, [0, 0])
        bucket[0] += sched.shots
        bucket[1] += hits
        queries += sched.shots * (2 * k + 1)
        total_shots += sched.shots
        total_hits += hits
        rounds += 1

        n_pool, s_pool = bucket
        p_hat = s_pool / n_pool
        half = math.sqrt(math.log(2.0 / alpha_i) / (2.0 * n_pool))
        p_lo = max(0.0, p_hat - half)
        p_hi = min(1.0, p_hat + half)
        big_k = 4 * k + 2
        c_lo, c_hi = 1.0 - 2.0 * p_hi, 1.0 - 2.0 * p_lo
        if up:
            om_lo, om_hi = math.acos(c_hi), math.acos(c_lo)
        else:
            om_lo, om_hi = (
                2.0 * math.pi - math.acos(c_lo),
                2.0 * math.pi - math.acos(c_hi),
            )
        period = math.floor(big_k * theta_l / (2.0 * math.pi))
        lo = (2.0 * math.pi * period + om_lo) / big_k
        hi = (2.0 * math.pi * period + om_hi) / big_k
        theta_l = min(max(theta_l, lo), math.pi / 2.0)
        theta_u = max(min(theta_u, hi), theta_l)

    a_lo, a_hi = math.sin(theta_l), math.sin(theta_u)
    converged = a_hi - a_lo <= 2.0 * eps
    a0_hat = 0.5 * (a_lo + a_hi)
    if total_hits == 0:
        a0_hat = 0.0
    elif total_hits == total_shots:
        a0_hat = 1.0
    return TraceEstimate(
        p0_hat=a0_hat**2,
        a0_hat=a0_hat,
        eps=eps,
        queries=queries,
        seed=seed,
        rounds=rounds,
        confidence=1.0 - sched.alpha,
        converged=converged,
    )


def qubit_ledger(n: int) -> dict:
    """Simulated register widths: system, trace copy, and two ancillas."""
    return {
        "system": n,
        "trace_copy": n,
        "gqsp_ancilla": 1,
        "estimation_ancilla": 1,
        "total": 2 * n + 2,
    }
