"""End-to-end partition-function driver.

Each Chebyshev node s_k gets its own effective Hamiltonian at step
s_k * t; the rescaled traces Z(beta, s_k)/N are evaluated (exactly,
through the synthesized block, or by simulated amplitude estimation) and
extrapolated to s = 0.  Even-order formulas give the mirror nodes s_k and
-s_k the same effective Hamiltonian, so each mirror pair shares one
spectrum and one Boltzmann oracle.  The trace bound, the ancilla ledger,
and the analytic cost model live here too.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cheb import ChebGrid, cheb_grid, exact_partition, interpolate_to_zero
from .linalg import BRANCH_GAP, spectral_norm
from .seeding import split_seed
from .syk import HamiltonianTerms
from .thermal import (
    BoltzmannOracle,
    EstimationSchedule,
    TraceValues,
    amplitude_estimate,
    build_u_boltz,
    exact_p0,
)
from .trotter import (
    FormulaPlan,
    build_plan,
    effective_hamiltonian,
    node_spectrum,
    stage_weight,
)

PIPELINE_MODES = ("exact", "gqsp", "ideal-w", "sampled")
EXTRAPOLATION_TOL = 1e-14
TRACE_BOUND_SLACK = 1e-10

# Sigma 1/|s_k| stays below this multiple of M log M for every M in
# [2, 64]; the worst ratio is at M = 2 where the sum is 2 sqrt(2).
NODE_SUM_CONSTANT = 2.5


class PipelineError(RuntimeError):
    """A node evaluation failed; the message names the node."""


@dataclass
class PipelineConfig:
    """Inputs of one end-to-end run.

    ``mode`` selects how node traces are obtained: "exact" diagonalizes
    the effective Hamiltonian, "gqsp" and "ideal-w" read the synthesized
    Boltzmann block, "sampled" draws simulated estimation outcomes around
    the exact value.
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
    grouped: bool = False
    schedule: EstimationSchedule | None = None

    def __post_init__(self):
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
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
        # Every eigenphase of S_p(s t) is at most |s| t ||H||_1 w_p; past
        # pi - BRANCH_GAP it may wrap around the principal branch unseen.
        phase_bound = (
            math.cos(math.pi / (2 * self.m_cheb))
            * self.base_step
            * self.model.one_norm
            * stage_weight(self.order)
        )
        if phase_bound >= math.pi - BRANCH_GAP:
            raise ValueError(
                f"branch bound: max|s_k| * base_step * one_norm * w_p = "
                f"{phase_bound:.6g} >= pi - {BRANCH_GAP:.0e}; eigenphases of the "
                "product formula could wrap past the principal branch"
            )


@dataclass
class NodeRecord:
    """One node's trace evaluation, in both shift conventions.

    ``depth`` counts elementary Trotter stages of the realized circuit;
    it is 0 for nodes evaluated by direct diagonalization.
    """

    index: int
    s_k: float
    d_k: float
    beta_k: float
    mode: str
    p0_exact: float
    p0_hat: float
    z_exact: float
    z_hat: float
    depth: int
    queries: int
    seed: int
    diagnostics: dict = field(default_factory=dict)

    def json_record(self) -> dict:
        return {
            "s_k": self.s_k,
            "beta_k": self.beta_k,
            "mode": self.mode,
            "p0_exact": self.p0_exact,
            "p0_hat": self.p0_hat,
            "queries": self.queries,
            "seed": self.seed,
        }


@dataclass
class PartitionResult:
    """Extrapolated partition estimate with per-node diagnostics."""

    beta: float
    mode: str
    m_cheb: int
    nodes: list[NodeRecord]
    extrapolated: float
    extrapolated_exact: float
    oracle: float
    eps_cheb_realized: float
    cost: dict

    def node_json_lines(self) -> str:
        return "\n".join(json.dumps(r.json_record()) for r in self.nodes)


def _stage_depth(n_stages: int, plan_q: int, fourier_m: int) -> int:
    """Trotter stages of one synthesized block: (2M+1) powers of W = S_p^q."""
    return n_stages * plan_q * (2 * fourier_m + 1)


def _node_traces(
    cfg: PipelineConfig, plan: FormulaPlan, s: float
) -> tuple[TraceValues, BoltzmannOracle | None]:
    """Exact node traces at s, plus the Boltzmann oracle in gqsp/ideal-w mode.

    Exact and sampled runs need only the eigenphases of S_p(s t); the
    synthesized block needs the effective Hamiltonian as a matrix.
    """
    if cfg.mode in ("gqsp", "ideal-w"):
        h_eff = effective_hamiltonian(
            cfg.model, s, cfg.base_step, plan, grouped=cfg.grouped
        )
        oracle = build_u_boltz(
            h_eff,
            cfg.beta,
            mode=cfg.mode,
            eps_qsp=cfg.eps_qsp,
            s_node=s,
            base_step=cfg.base_step,
        )
        return exact_p0(h_eff, cfg.beta), oracle
    spectrum = node_spectrum(cfg.model, s, cfg.base_step, plan, grouped=cfg.grouped)
    return exact_p0(spectrum, cfg.beta), None


def run_pipeline(cfg: PipelineConfig) -> PartitionResult:
    """Evaluate all node traces and extrapolate to the zero-step limit.

    Nodes are visited in descending |s_k| (cheapest circuits first) and
    aggregated by node index, so the result does not depend on evaluation
    order.  For even orders node M-1-k mirrors node k; the pair is matched
    by index, since the two cosines need not be exact negatives in floating
    point.  Sampled mode still draws each node's estimate with its own
    seed.  Failures carry the offending node in the message.
    """
    grid = cheb_grid(cfg.m_cheb)
    if cfg.grouped:
        if not cfg.model.groups:
            raise PipelineError("grouped mode requires a model with commuting groups")
        n_units = len(cfg.model.groups)
    else:
        n_units = cfg.model.n_terms
    plan = build_plan(n_units, cfg.order)
    fold = cfg.order % 2 == 0
    evaluated: dict[int, tuple[TraceValues, BoltzmannOracle | None]] = {}
    records: list[NodeRecord | None] = [None] * cfg.m_cheb
    shift = math.exp(cfg.beta)

    for k in np.argsort(-np.abs(grid.nodes), kind="stable"):
        k = int(k)
        s_k = float(grid.nodes[k])
        seed_k = split_seed(cfg.seed, "node", k)
        source = min(k, cfg.m_cheb - 1 - k) if fold else k
        try:
            if source not in evaluated:
                evaluated[source] = _node_traces(cfg, plan, float(grid.nodes[source]))
            tv, oracle = evaluated[source]
            beta_k = cfg.beta
            p0_hat = tv.p0
            depth = 0
            queries = 0
            diagnostics: dict = {}
            if oracle is not None:
                b = oracle.normalized_block
                p0_hat = float(np.real(np.trace(b.conj().T @ b)) / b.shape[0])
                beta_k = oracle.beta_k
                depth = _stage_depth(
                    plan.n_stages,
                    max(1, oracle.diagnostics["q"]),
                    oracle.diagnostics["fourier_m"],
                )
                diagnostics = {
                    "block_deviation": oracle.diagnostics["block_deviation"],
                    "fourier_m": oracle.diagnostics["fourier_m"],
                    "q": oracle.diagnostics["q"],
                }
            elif cfg.mode == "sampled":
                est = amplitude_estimate(
                    tv.p0, cfg.eps_stat, seed=seed_k, schedule=cfg.schedule
                )
                if not est.converged:
                    raise PipelineError(
                        f"node {k + 1} (s_k={s_k:+.6f}): amplitude estimation "
                        f"stopped unconverged after {est.rounds} rounds"
                    )
                p0_hat = est.p0_hat
                queries = est.queries
        except PipelineError:
            raise
        except Exception as err:
            raise PipelineError(f"node {k + 1} (s_k={s_k:+.6f}): {err}") from err
        records[k] = NodeRecord(
            index=k + 1,
            s_k=s_k,
            d_k=float(grid.weights[k]),
            beta_k=beta_k,
            mode=cfg.mode,
            p0_exact=tv.p0,
            p0_hat=p0_hat,
            z_exact=tv.z_over_n,
            z_hat=p0_hat * shift,
            depth=depth,
            queries=queries,
            seed=seed_k,
            diagnostics=diagnostics,
        )

    nodes = [r for r in records if r is not None]
    z_hat = np.array([r.z_hat for r in nodes])
    z_exact = np.array([r.z_exact for r in nodes])
    extrapolated = interpolate_to_zero(z_hat, grid)
    extrapolated_exact = interpolate_to_zero(z_exact, grid)
    if abs(extrapolated - float(np.dot(grid.weights, z_hat))) > EXTRAPOLATION_TOL:
        raise PipelineError("extrapolation drifted from the weighted node sum")
    oracle_value = exact_partition(cfg.model, cfg.beta)
    cost = cost_model(cfg, grid, [r.depth for r in nodes], z_exact)
    cost["total_queries"] = int(sum(r.queries for r in nodes))
    return PartitionResult(
        beta=cfg.beta,
        mode=cfg.mode,
        m_cheb=cfg.m_cheb,
        nodes=nodes,
        extrapolated=extrapolated,
        extrapolated_exact=extrapolated_exact,
        oracle=oracle_value,
        eps_cheb_realized=abs(extrapolated_exact - oracle_value),
        cost=cost,
    )


def trace_bound_check(
    h: HamiltonianTerms,
    beta: float,
    order: int,
    tau_grid,
    grouped: bool = False,
) -> list[dict]:
    """Per-tau check |Tr e^{-beta H_eff}|/N <= e^{beta ||H_eff - H||} Z(beta)/N.

    The effective Hamiltonian is a norm-||L|| perturbation of H, so every
    eigenvalue moves by at most ||L|| and the trace gains at most e^{beta
    ||L||}; commuting models have L = 0 and saturate the bound exactly.
    Each row carries (tau, lhs, rhs, error norm, tightness ratio); a
    violated inequality raises.
    """
    plan = build_plan(h.n_terms, order)
    h_dense = h.dense()
    z_ref = exact_partition(h_dense, beta)
    rows = []
    for tau in np.asarray(tau_grid, dtype=float):
        eff = effective_hamiltonian(h, 1.0, float(tau), plan, grouped=grouped)
        err_norm = spectral_norm(eff.matrix - h_dense)
        lhs = abs(exact_partition(eff.matrix, beta))
        rhs = math.exp(beta * err_norm) * z_ref
        if lhs > rhs * (1.0 + TRACE_BOUND_SLACK):
            raise PipelineError(
                f"trace bound violated at tau={tau}: {lhs!r} > {rhs!r}"
            )
        rows.append(
            {
                "tau": float(tau),
                "lhs": lhs,
                "rhs": rhs,
                "error_norm": err_norm,
                "tightness": lhs / rhs,
            }
        )
    return rows


def ancilla_savings(n_majorana: int) -> int:
    """Selection-register width a block-encoding would need: ceil(log2 C(n, 4)).

    The interpolation circuit keeps a single rotation ancilla instead, so
    this is the number of qubits saved.
    """
    if n_majorana < 4 or n_majorana % 2:
        raise ValueError("n_majorana must be an even integer >= 4")
    return math.ceil(math.log2(math.comb(n_majorana, 4)))


def node_inverse_sum(m_cheb: int) -> float:
    """Sigma_k 1/|s_k| over the first-kind Chebyshev nodes."""
    grid = cheb_grid(m_cheb)
    return float(np.sum(1.0 / np.abs(grid.nodes)))


@functools.cache
def _node_sum_ratio_max() -> float:
    """Worst Sigma 1/|s_k| / (M log M) over even M in [2, 64], checked once.

    Odd M are left out: they have a node at s = 0 and the sum diverges.
    """
    ratios = []
    for m in range(2, 65, 2):
        ratio = node_inverse_sum(m) / (m * math.log(m))
        if ratio > NODE_SUM_CONSTANT:
            raise PipelineError(f"node-sum identity fails at M={m}: ratio {ratio:.3f}")
        ratios.append(ratio)
    return max(ratios)


def cost_model(
    cfg: PipelineConfig,
    grid: ChebGrid,
    m_k: list[int],
    z_nodes=None,
    constant: float = 1.0,
) -> dict:
    """Analytic cost ledger for one run.

    Per-node depth follows M_k 5^p / (t |s_k|); the aggregate expression
    is (5^p/t) max_k(M_k sqrt(Z_k/N)/eps) M_cheb log M_cheb with the
    leading constant exposed.  The ledger also verifies, once per process,
    that Sigma 1/|s_k| stays below NODE_SUM_CONSTANT * M log M across
    M in [2, 64], the node-sum identity the total depth rests on.
    """
    p = cfg.order
    t = cfg.base_step
    stage_factor = 5.0**p
    m_arr = np.asarray(m_k, dtype=float)
    if m_arr.shape != (grid.m_cheb,):
        raise ValueError("need one M_k per node")
    depth_per_node = constant * m_arr * stage_factor / (t * np.abs(grid.nodes))
    if z_nodes is None:
        z_arr = np.ones(grid.m_cheb)
    else:
        z_arr = np.clip(np.asarray(z_nodes, dtype=float), 0.0, None)
    query_factor = m_arr * np.sqrt(z_arr) / cfg.eps_stat
    log_m = math.log(grid.m_cheb)
    total = constant * stage_factor / t * float(np.max(query_factor))
    total *= grid.m_cheb * max(log_m, math.log(2.0))
    return {
        "order": p,
        "base_step": t,
        "stage_factor": stage_factor,
        "depth_per_node": depth_per_node.tolist(),
        "node_inverse_sum": node_inverse_sum(grid.m_cheb),
        "node_sum_ratio_max": _node_sum_ratio_max(),
        "total_cost": total,
    }
