"""Benchmark workloads: which SYK draws are solved, and how.

Every input is derived from the benchmark's ``--seed`` argument here; the
program only ever receives the generated models and configs.  A pass is
one unit of timed work (all solves of one workload); pass ``i`` uses its
own draws, so no model or node repeats across passes and a cross-solve
cache can only pay off inside a pass, where the workload means it to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 1
# Not used while the benchmark was written; quote it for a gain claim.
HELD_OUT_SEED = 20260917

# A sampled solve's node estimates each land within eps_stat of the
# amplitude sqrt(p0) with confidence 1 - ae_alpha.  With p0 near e^-beta
# and the m_cheb = 4 extrapolation weights that is at most a few eps_stat
# of relative error in Z, so ten times eps_stat bounds a correct solve.
STAT_MULTIPLE = 10.0


@dataclass(frozen=True)
class Workload:
    """One model family and solve schedule.

    ``betas`` are solved in order on every draw of a pass; ``n_draws``
    independent draws make up one pass.
    """

    n_majorana: int
    n_draws: int
    betas: tuple[float, ...]
    mode: str
    order: int
    m_cheb: int = 4
    base_step: float = 0.3
    eps_qsp: float = 1e-6
    eps_cheb: float = 1e-4
    eps_stat: float = 0.05
    ae_alpha: float = 0.05

    def tolerance(self) -> float:
        """Relative error a solve may show against the dense reference."""
        tol = self.eps_cheb
        if self.mode == "gqsp":
            tol += self.eps_qsp
        if self.mode == "sampled":
            tol += STAT_MULTIPLE * self.eps_stat
        return tol


WORKLOADS = {
    "sweep-exact-syk12": Workload(
        n_majorana=12,
        n_draws=1,
        betas=(1.0, 2.0, 4.0),
        mode="exact",
        order=2,
    ),
    "order4-sampled-syk12": Workload(
        n_majorana=12,
        n_draws=1,
        betas=(1.0,),
        mode="sampled",
        order=4,
        eps_stat=1e-3,
        # At the default 0.05, about 1 estimate in 2500 misses its interval
        # by up to 40 eps_stat, which fails the accuracy gate.
        ae_alpha=1e-3,
    ),
    "disorder-gqsp-syk8": Workload(
        n_majorana=8,
        n_draws=8,
        betas=(4.0,),
        mode="gqsp",
        order=2,
    ),
    # Not listed in BENCHMARK.json: the smoke test's tiny end-to-end run.
    "smoke-syk8": Workload(
        n_majorana=8,
        n_draws=1,
        betas=(1.0,),
        mode="exact",
        order=2,
        m_cheb=2,
    ),
}


def derive_seed(seed: int, *labels) -> int:
    """Independent 63-bit seed for the stream named by ``labels``."""
    h = hashlib.sha256(str(int(seed)).encode())
    for label in labels:
        h.update(b"/" + str(label).encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1


def model_docs(name: str, seed: int, pass_index: int) -> list[dict]:
    """CLI model documents of one pass, normalized to one-norm 1."""
    wl = WORKLOADS[name]
    return [
        {
            "kind": "syk",
            "n_majorana": wl.n_majorana,
            "seed": derive_seed(seed, name, pass_index, "draw", j),
            "one_norm": 1.0,
        }
        for j in range(wl.n_draws)
    ]


def estimator_seed(seed: int, name: str, pass_index: int, solve: int) -> int:
    """Seed of the simulated amplitude-estimation outcomes of one solve."""
    return derive_seed(seed, name, pass_index, "estimator", solve)
