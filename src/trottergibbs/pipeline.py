"""End-to-end partition-function driver.

Each Chebyshev node s_k gets its own effective Hamiltonian at step
s_k * t; the rescaled traces Z(beta, s_k)/N are evaluated (exactly,
through the synthesized block, or by simulated amplitude estimation) and
extrapolated to s = 0.  Even-order formulas give the mirror nodes s_k and
-s_k the same effective Hamiltonian.  At order 1 a model with a
time-reversal string V gives them the same spectrum: S_1(-t) =
V conj(S_1(t)) V^dag, so H_eff(-t) = V conj(H_eff(t)) V^dag.  Either way
each mirror pair shares one spectrum and one Boltzmann oracle.  The
ancilla savings and the analytic cost model live here too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cheb import ChebGrid, cheb_grid, interpolate_to_zero
from .linalg import BRANCH_GAP
from .seeding import split_seed
from .syk import HamiltonianTerms
from .thermal import (
    EPS_FLOOR,
    MODES,
    EstimationSchedule,
    amplitude_estimate,
    boltzmann_oracle,
    exact_p0,
    fourier_window,
)
from .trotter import (  # noqa: F401  (effective_hamiltonian: perfbench probes it here)
    check_order,
    effective_hamiltonian,
    node_spectrum,
    phase_bound,
    stage_count,
)

PIPELINE_MODES = ("exact", *MODES, "sampled")


class PipelineError(RuntimeError):
    """A node evaluation failed; the message names the node."""


@dataclass(frozen=True)
class PipelineConfig:
    """Inputs of one end-to-end run.

    ``mode`` selects how node traces are obtained: "exact" reads the
    eigenphases of the product formula S_p(s_k t), "gqsp" and "ideal-w"
    read the synthesized Boltzmann block, "sampled" draws simulated
    estimation outcomes around the exact value.
    """

    model: HamiltonianTerms
    beta: float
    order: int = 2
    base_step: float = 0.3
    m_cheb: int = 4
    eps_qsp: float = 1e-6
    eps_cheb: float = 1e-4
    eps_stat: float = 0.05
    mode: str = "exact"
    seed: int = 0
    schedule: EstimationSchedule | None = None

    def __post_init__(self):
        # Node traces are scaled by e^beta, which must stay a finite float.
        if not 0.0 <= self.beta <= math.log(np.finfo(float).max):
            raise ValueError(f"beta must be nonnegative with e^beta finite, got {self.beta!r}")
        if not 0.0 < self.base_step <= math.pi:
            raise ValueError("base step t must lie in (0, pi]")
        if self.m_cheb < 2:
            raise ValueError("m_cheb must be at least 2")
        if self.m_cheb % 2:
            raise ValueError(
                "m_cheb must be even: an odd order places a node at s = 0, "
                "where no Trotter circuit exists"
            )
        for name in ("eps_qsp", "eps_cheb", "eps_stat"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
        if self.mode not in PIPELINE_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {PIPELINE_MODES}"
            )
        check_order(self.order)
        if self.mode == "sampled" and self.eps_stat < EPS_FLOOR:
            raise ValueError(
                f"eps_stat {self.eps_stat!r} is below thermal.EPS_FLOOR = {EPS_FLOOR:g}, "
                "the finest amplitude estimate"
            )
        if self.mode in MODES and self.beta > 0.0:
            fourier_window(self.beta)  # raises OracleError, a ValueError, where no block exists
        # Every eigenphase of S_p(s t) is at most |s| t ||H||_1 w_p; past
        # pi - BRANCH_GAP it may wrap around the principal branch unseen.
        bound = phase_bound(
            self.model, math.cos(math.pi / (2 * self.m_cheb)) * self.base_step, self.order
        )
        if bound >= math.pi - BRANCH_GAP:
            raise ValueError(
                f"branch bound: max|s_k| * base_step * one_norm * w_p = "
                f"{bound:.6g} >= pi - {BRANCH_GAP:.0e}; eigenphases of the "
                "product formula could wrap past the principal branch"
            )


@dataclass(frozen=True)
class NodeRecord:
    """One node's trace evaluation, in both shift conventions.

    ``depth`` counts elementary Trotter stages of the realized circuit,
    the formula's stages times the oracle's ``trotter_steps``; it is 0 for
    nodes evaluated by direct diagonalization and for beta = 0, where the
    block is the identity and no circuit exists.
    ``diagnostics`` holds ``block_deviation``, ``fourier_m`` and ``q`` in
    the block modes, and in sampled mode ``ae_clamped``: whether the
    estimate was set to 0 or 1 because every shot missed or every shot hit.
    """

    s_k: float
    d_k: float
    beta_k: float
    p0_exact: float
    p0_hat: float
    z_exact: float
    z_hat: float
    depth: int
    queries: int
    seed: int
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PartitionResult:
    """Extrapolated partition estimate with per-node diagnostics."""

    nodes: tuple[NodeRecord, ...]
    extrapolated: float
    extrapolated_exact: float
    cost: dict


def _node_fields(cfg: PipelineConfig, s: float) -> dict:
    """The record fields node s shares with its mirror -s (see ``run_pipeline``).

    Every mode reads its node from one spectrum, the eigenphases of
    S_p(s t); no H_eff, matrix log or dense circuit is formed.  The block
    modes evaluate their circuit on the same eigenvalues, one 2x2 cell each,
    and read p0_hat off the block.
    """
    tau = s * cfg.base_step
    spectrum = node_spectrum(cfg.model, tau, cfg.order)
    p0, z_over_n = exact_p0(spectrum, cfg.beta)
    fields = {"p0_exact": p0, "z_exact": z_over_n}
    if cfg.mode in MODES:
        oracle = boltzmann_oracle(spectrum, tau, cfg.beta, cfg.mode, eps_qsp=cfg.eps_qsp)
        keys = ("block_deviation", "fourier_m", "q")
        return {
            **fields,
            "beta_k": oracle.beta_k,
            "p0_hat": oracle.p0,
            "depth": stage_count(cfg.order, cfg.model.n_terms)
            * oracle.diagnostics["trotter_steps"],
            "diagnostics": {key: oracle.diagnostics[key] for key in keys},
        }
    return {**fields, "beta_k": cfg.beta, "p0_hat": p0, "depth": 0, "diagnostics": {}}


def run_pipeline(cfg: PipelineConfig) -> PartitionResult:
    """Evaluate all node traces in one pass and extrapolate to the zero-step limit.

    For even orders, and at order 1 on a model with a time-reversal string,
    node M-1-k mirrors node k and reuses its fields; the pair is matched by
    index, since the two cosines need not be exact negatives in floating
    point.  Sampled mode still draws each node's estimate with its own
    seed.  Failures carry the offending node, or the stage, in the message;
    a trace, extrapolation or cost that is not a finite float is one.
    """
    grid = cheb_grid(cfg.m_cheb)
    shift = math.exp(cfg.beta)
    mirrored = cfg.order % 2 == 0 or cfg.model.time_reversal is not None
    shared: list[dict] = []
    nodes: list[NodeRecord] = []
    for k, s_k in enumerate(grid.nodes.tolist()):
        mirror = cfg.m_cheb - 1 - k
        seed_k = split_seed(cfg.seed, "node", k)
        try:
            if mirrored and mirror < k:
                shared.append(shared[mirror])
            else:
                shared.append(_node_fields(cfg, s_k))
            record = {**shared[k], "queries": 0}
            if cfg.mode == "sampled":
                est = amplitude_estimate(
                    record["p0_exact"], cfg.eps_stat, seed=seed_k, schedule=cfg.schedule
                )
                if not est.converged:
                    raise RuntimeError(
                        f"amplitude estimation stopped unconverged after {est.rounds} rounds"
                    )
                record.update(
                    p0_hat=est.p0_hat, queries=est.queries, diagnostics={"ae_clamped": est.clamped}
                )
            record["z_hat"] = record["p0_hat"] * shift
            if not (math.isfinite(record["z_exact"]) and math.isfinite(record["z_hat"])):
                raise OverflowError(f"trace Z/N is not a finite float at beta={cfg.beta!r}")
        except Exception as err:
            raise PipelineError(f"node {k + 1} (s_k={s_k:+.6f}): {err}") from err
        nodes.append(NodeRecord(s_k=s_k, d_k=float(grid.weights[k]), seed=seed_k, **record))

    z_hat = np.array([r.z_hat for r in nodes])
    z_exact = np.array([r.z_exact for r in nodes])
    extrapolated = interpolate_to_zero(z_hat, grid)
    extrapolated_exact = interpolate_to_zero(z_exact, grid)
    if not (math.isfinite(extrapolated) and math.isfinite(extrapolated_exact)):
        raise PipelineError(
            f"extrapolation: estimate {extrapolated!r} or exact {extrapolated_exact!r} "
            "is not a finite float"
        )
    cost = cost_model(cfg, grid, [r.depth for r in nodes], z_exact)
    cost["total_queries"] = int(sum(r.queries for r in nodes))
    return PartitionResult(
        nodes=tuple(nodes),
        extrapolated=extrapolated,
        extrapolated_exact=extrapolated_exact,
        cost=cost,
    )


def ancilla_savings(n_majorana: int) -> int:
    """Selection-register width a block-encoding would need: ceil(log2 C(n, 4)).

    The interpolation circuit keeps a single rotation ancilla instead, so
    this is the number of qubits saved.  Computed in integers: a float log2
    rounds C(n, 4) just above a power of two down to it once n passes ~1e14.
    """
    if n_majorana < 4 or n_majorana % 2:
        raise ValueError("n_majorana must be an even integer >= 4")
    return (math.comb(n_majorana, 4) - 1).bit_length()


def node_inverse_sum(grid: ChebGrid) -> float:
    """Sigma_k 1/|s_k| over the grid's first-kind Chebyshev nodes."""
    return float(np.sum(1.0 / np.abs(grid.nodes)))


@functools.cache
def _node_sum_ratio_max() -> float:
    """Worst Sigma 1/|s_k| / (M log M) over even M in [2, 64], computed once.

    Odd M are left out: they have a node at s = 0 and the sum diverges.
    """
    return max(node_inverse_sum(cheb_grid(m)) / (m * math.log(m)) for m in range(2, 65, 2))


def cost_model(cfg: PipelineConfig, grid: ChebGrid, m_k: list[int], z_nodes: np.ndarray) -> dict:
    """Analytic cost ledger for one run.

    Per-node depth follows M_k 5^p / (t |s_k|); the aggregate expression
    is (5^p/t) max_k(M_k sqrt(Z_k/N)/eps) M_cheb log M_cheb, with leading
    constant 1.  The ledger also reports the worst ratio of
    Sigma 1/|s_k| to M log M over even M in [2, 64]: the node-sum identity
    the total depth rests on, whose constant the test suite checks.
    """
    p = cfg.order
    t = cfg.base_step
    stage_factor = 5.0**p
    m_arr = np.asarray(m_k, dtype=float)
    if m_arr.shape != (grid.m_cheb,):
        raise ValueError("need one M_k per node")
    depth_per_node = m_arr * stage_factor / (t * np.abs(grid.nodes))
    z_arr = np.clip(np.asarray(z_nodes, dtype=float), 0.0, None)
    query_factor = m_arr * np.sqrt(z_arr) / cfg.eps_stat
    log_m = math.log(grid.m_cheb)
    total = stage_factor / t * float(np.max(query_factor))
    total *= grid.m_cheb * max(log_m, math.log(2.0))
    if not math.isfinite(total):
        raise PipelineError(f"cost ledger: total cost {total!r} is not finite")
    return {
        "order": p,
        "base_step": t,
        "stage_factor": stage_factor,
        "depth_per_node": depth_per_node.tolist(),
        "node_inverse_sum": node_inverse_sum(grid),
        "node_sum_ratio_max": _node_sum_ratio_max(),
        "total_cost": total,
    }
