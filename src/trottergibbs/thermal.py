"""Boltzmann block synthesis and amplitude estimation.

The partition function is probed through the infinite-temperature
thermofield double: for any operator B on the system register,
<TFD| (B (x) I) |TFD> = Tr(B)/N.  A subnormalized block operator
carrying e^{-beta(H_eff + 1)/2} turns that trace into the success
probability of a single ancilla, which iterative amplitude estimation
then reads out quadratically faster than direct sampling.  Only the
block's cells and the estimate are simulated here.  The dense block, its
unitary and the thermofield circuit that ties them together are built in
the test suite (``tests/oracles.py``, ``tests/test_thermal.py``).

The block is built on W = S_p(tau)^q, which shares its eigenvectors with
H_eff, so the rotation circuit splits into one 2x2 ancilla cell per
eigenvalue and a node needs only the spectrum of H_eff.

Register order is (C, A, B): the block ancilla C is the outermost
tensor factor, the system register A next, and the trace copy B
innermost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gqsp import gqsp_cells, synthesize_laurent
from .linalg import assert_unitary
from .lwf import gibbs_fourier

EDGE_GAP = 0.05
COEF_RESCALE = 1.0 - 1e-6
SHOTS = 32  # shots per round of amplitude estimation
LADDER_RATIO = 2.0  # least growth of the amplification between rounds
# Finest estimate: _find_next_k scans up to pi/(16 eps) candidates a round.
EPS_FLOOR = 1e-6
MAX_ROUNDS = 100_000  # rounds of amplitude estimation before it reports unconverged

MODES = ("gqsp", "ideal-w")


class OracleError(ValueError):
    """Raised when a Boltzmann oracle cannot be realized as requested."""


def fourier_window(beta: float) -> tuple[float, float]:
    """Spectral shift x0 = delta'/(1 + delta'), delta' = 1/beta, and its window budget.

    The budget 1 - EDGE_GAP - x0 is the room left for the mapped spectrum.
    It is <= 0 for every 0 < beta <= EDGE_GAP/(1 - EDGE_GAP), where no block
    exists and OracleError is raised.
    """
    dp = 1.0 / beta
    x0 = dp / (1.0 + dp)
    budget = 1.0 - EDGE_GAP - x0
    if budget <= 0.0:
        bound = EDGE_GAP / (1.0 - EDGE_GAP)
        raise OracleError(
            f"no Fourier window at beta={beta!r}: the shift x0={x0:.6g} leaves no room "
            f"below the edge gap {EDGE_GAP}; a block needs beta > {bound:.6g}"
        )
    return x0, budget


def _gqsp_plan(
    tau: float,
    beta: float,
    eigenvalues: np.ndarray,
    mode: str,
    eps_qsp: float,
) -> dict:
    """Derived parameters mapping spec(H_eff) into the Fourier window.

    The dict opens the oracle's diagnostics: ``q``, the integer power of
    the base step (0 in continuous time); ``time``, the total signal time
    T, q * |tau| in integer mode; ``beta_f``, the inverse temperature handed
    to the Fourier builder; ``x0``, the spectral shift of ``fourier_window``;
    ``delta_cert``, the window margin handed to the Fourier builder;
    ``eps_lwf``, the Fourier error budget after scale amplification;
    ``scale``, the known classical factor multiplying the target block;
    ``beta_k``, beta rescaled by the time-rounding ratio; and ``max_edge``,
    the largest magnitude of the mapped spectrum.
    """
    lam_min = float(np.min(eigenvalues))
    lam_max = float(np.max(eigenvalues))
    radius = max(abs(lam_min), abs(lam_max))
    dp = 1.0 / beta
    x0, budget = fourier_window(beta)
    t_star = math.pi / (2.0 * (1.0 + dp))
    # On a zero spectrum no eigenvalue limits the signal time.
    if mode == "ideal-w":
        t_sig = min(t_star, math.pi * budget / (2.0 * radius)) if radius else t_star
        q = 0
    else:
        step = abs(tau)
        q_cap = math.floor(math.pi * budget / (2.0 * step * radius)) if radius else math.inf
        if q_cap < 1:
            raise OracleError(
                f"base step tau={tau} too coarse: even one application "
                f"overshoots the Fourier window (|spec| <= {radius:.3f})"
            )
        q = max(1, min(round(t_star / step), q_cap))
        t_sig = q * step
    beta_f = beta * math.pi / (4.0 * t_sig)
    slope = 2.0 * t_sig / math.pi
    max_edge = max(abs(x0 + slope * lam_max), abs(x0 + slope * lam_min))
    if max_edge > 1.0 - EDGE_GAP + 1e-12:
        raise OracleError(
            f"mapped spectrum edge {max_edge:.6f} breaches the gap {EDGE_GAP}"
        )
    delta_cert = min(1.0, 1.0 / beta, 1.0 - max_edge)
    exponent = beta / 2.0 - beta_f * (1.0 + x0)
    try:
        scale = COEF_RESCALE * math.exp(exponent)
    except OverflowError:
        scale = math.inf
    eps_lwf = 0.9 * eps_qsp * scale / COEF_RESCALE
    if not 0.0 < eps_lwf < 1.0:  # also refuses a scale of 0 or inf, and NaN
        raise OracleError(
            f"Boltzmann scale e^(beta/2 - beta_f (1 + x0)) = e^{exponent:.6g} = {scale:.3e} "
            f"at beta={beta!r}, beta_f={beta_f:.6g} puts the Fourier budget "
            f"eps_lwf={eps_lwf:.3e} outside (0, 1)"
        )
    return {
        "q": q,
        "time": t_sig,
        "beta_f": beta_f,
        "x0": x0,
        "delta_cert": delta_cert,
        "eps_lwf": eps_lwf,
        "scale": scale,
        "beta_k": beta * (t_star / t_sig),
        "max_edge": max_edge,
    }


@dataclass(frozen=True)
class BoltzmannOracle:
    """Subnormalized block operator on the (C, A) registers, per eigenvalue.

    ``cells[j]`` is the 2x2 ancilla unitary the circuit applies on the
    eigenvector of H_eff with eigenvalue lambda_j, entry j of the spectrum
    the oracle was built from.  Its C=0 entry b_j is ``scale``
    e^{-beta(lambda_j+1)/2} up to the Fourier error; ``scale`` is a known
    classical factor divided out downstream.
    """

    beta_k: float
    scale: float
    cells: np.ndarray  # shape (N, 2, 2)
    diagnostics: dict

    @property
    def p0(self) -> float:
        """Tr(B^dag B)/N of the normalized block: the mean of |b_j|^2 / scale^2."""
        return float(np.mean(np.abs(self.cells[:, 0, 0]) ** 2)) / self.scale**2


def boltzmann_oracle(
    spectrum: np.ndarray,
    tau: float,
    beta: float,
    mode: str,
    *,
    eps_qsp: float,
) -> BoltzmannOracle:
    """Realize the Boltzmann block from the spectrum of H_eff at step tau.

    gqsp     -- Fourier polynomial of W = S_p(tau)^q evaluated through the
                rotation circuit; q is rounded to an integer and the
                residual folded into the Fourier inverse temperature.
    ideal-w  -- same pipeline but with the signal time left continuous,
                isolating the Fourier approximation error from rounding.

    The circuit is evaluated on each eigenphase of W.  ``block_deviation``
    is max_j |b_j/scale - e^{-beta(lambda_j+1)/2}|, the operator-norm gap
    that ``eps_qsp`` budgets; a block past it raises OracleError.
    ``trotter_steps`` counts the product-formula steps S_p(tau) the circuit
    applies: 2M+1 powers of W, each q steps (one in continuous time, where
    q = 0).  At beta = 0 the block is the identity and no circuit is built:
    the diagnostics then report q = 0, fourier_m = 0, trotter_steps = 0 and
    block_deviation 0.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    spectrum = np.asarray(spectrum)
    if beta == 0.0:
        beta_k, scale = beta, 1.0
        cells = np.tile(np.eye(2, dtype=complex), (spectrum.size, 1, 1))
        diagnostics = {"q": 0, "fourier_m": 0, "trotter_steps": 0, "block_deviation": 0.0}
    else:
        diagnostics = _gqsp_plan(tau, beta, spectrum, mode, eps_qsp)
        beta_k, scale = diagnostics["beta_k"], diagnostics["scale"]
        fa = gibbs_fourier(diagnostics["beta_f"], diagnostics["delta_cert"], diagnostics["eps_lwf"])
        ms = np.arange(-fa.M, fa.M + 1)
        coefs = fa.c * np.exp(1j * math.pi * ms * diagnostics["x0"] / 2.0) * COEF_RESCALE
        angles = synthesize_laurent(coefs)
        cells = gqsp_cells(angles, diagnostics["time"] * spectrum, fa.M)
        gap = cells[:, 0, 0] / scale - np.exp(-beta * (spectrum + 1.0) / 2.0)
        diagnostics.update(
            fourier_m=fa.M,
            trotter_steps=max(1, diagnostics["q"]) * (2 * fa.M + 1),
            block_deviation=float(np.max(np.abs(gap))),
        )
    # Unitary cells keep the normal block subnormalized: |b_j| <= 1 + 5e-11.
    assert_unitary(cells, what="Boltzmann cell")
    if not (deviation := diagnostics["block_deviation"]) <= eps_qsp:  # NaN is refused too
        raise OracleError(f"block_deviation {deviation:.3e} exceeds eps_qsp {eps_qsp:.3e}")
    return BoltzmannOracle(beta_k, scale, cells, diagnostics)


def exact_p0(spectrum: np.ndarray, beta: float) -> tuple[float, float]:
    """Normalized Gibbs traces of H_eff from its eigenvalues, in both shift conventions.

    Returns p0 = Tr(e^{-beta(H_eff+1)})/N and Z/N = Tr(e^{-beta H_eff})/N = e^beta p0.
    """
    vals = np.asarray(spectrum)
    if vals.ndim != 1:
        raise ValueError("exact_p0 takes the 1-D spectrum of H_eff")
    n = vals.shape[0]
    # An overflow gives inf, which run_pipeline refuses by name.
    with np.errstate(over="ignore"):
        p0 = float(np.sum(np.exp(-beta * (vals + 1.0))) / n)
        z = float(np.sum(np.exp(-beta * vals)) / n)
    return p0, z


@dataclass(frozen=True)
class EstimationSchedule:
    """Knob of the iterative estimation loop: its failure probability."""

    alpha: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")


@dataclass(frozen=True)
class TraceEstimate:
    """Outcome of a simulated amplitude-estimation run."""

    p0_hat: float
    a0_hat: float
    queries: int
    rounds: int
    converged: bool  # False when MAX_ROUNDS ran out before the interval closed
    clamped: bool  # True when every shot missed or every shot hit: a0_hat is set to 0 or 1


def _find_next_k(k: int, up: bool, theta_l: float, theta_u: float) -> tuple[int, bool]:
    """Largest admissible amplification keeping K*(theta interval) in one semicircle."""
    width = theta_u - theta_l
    if width <= 0.0:
        return k, up
    k_cur = 4 * k + 2
    k_max_num = int(math.floor(math.pi / width))
    k_next = ((k_max_num - 2) // 4) * 4 + 2
    while k_next >= LADDER_RATIO * k_cur:
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
    if not EPS_FLOOR <= eps < 1.0:
        raise ValueError(f"eps must lie in [{EPS_FLOOR:g}, 1), got {eps!r}")
    sched = schedule or EstimationSchedule()
    rng = np.random.default_rng(seed)
    theta_true = math.asin(min(1.0, math.sqrt(p0_true)))

    theta_l, theta_u = 0.0, math.pi / 2.0
    k, up = 0, True
    pooled: dict[int, list[int]] = {}
    queries = 0
    rounds = 0
    total_hits = 0
    # Union-bound budget over the geometric ladder of amplification levels.
    levels = max(1, math.ceil(math.log2(math.pi / (4.0 * eps))) + 1)
    alpha_i = sched.alpha / (2.0 * levels)

    while math.sin(theta_u) - math.sin(theta_l) > 2.0 * eps:
        if rounds >= MAX_ROUNDS:
            break  # reported through TraceEstimate.converged
        k, up = _find_next_k(k, up, theta_l, theta_u)
        p_shot = math.sin((2 * k + 1) * theta_true) ** 2
        hits = int(rng.binomial(SHOTS, p_shot))
        bucket = pooled.setdefault(k, [0, 0])
        bucket[0] += SHOTS
        bucket[1] += hits
        queries += SHOTS * (2 * k + 1)
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
    clamped = total_hits in (0, rounds * SHOTS)
    if clamped:
        a0_hat = float(total_hits > 0)
    return TraceEstimate(
        p0_hat=a0_hat**2,
        a0_hat=a0_hat,
        queries=queries,
        rounds=rounds,
        converged=converged,
        clamped=clamped,
    )

