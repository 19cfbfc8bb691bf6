"""Suzuki product formulas and the effective Hamiltonians they generate.

A product formula of order p applied for time t is a sequence of stages
(term index, fraction) with

    S_1(t) = prod_g exp(i H_g t)
    S_2(t) = S_1(t/2) S_1(-t/2)^dag
    S_2l(t) = S_{2l-2}(u_l t)^2 S_{2l-2}((1-4u_l)t) S_{2l-2}(u_l t)^2,

where u_l = (4 - 4^(1/(2l-1)))^(-1).  The effective Hamiltonian is the
principal log of the realized unitary divided by (i t); its distance from H
shrinks as O(|t|^p).

Each stage exp(i theta c P) = cos(theta c) I + i sin(theta c) P acts on
the running product as a signed permutation of its columns, so a formula
costs O(d^2) per stage and never forms a term matrix.  Even-order
formulas are symmetric, S_p(-t) = S_p(t)^dag, so H_eff(-t) = H_eff(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (  # noqa: F401  (eigh_decompose: perfbench probes it here)
    eigh_decompose,
    hermitian_part,
    matrix_log_unitary,
    spectral_norm,
    unitary_eigenphases,
)
from .paulis import check_dense_cap, parity_signs
from .syk import HamiltonianTerms


def suzuki_u(l: int) -> float:
    """Recursion coefficient u_l for lifting order 2l-2 to order 2l."""
    if l < 2:
        raise ValueError("u_l is defined for l >= 2")
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * l - 1)))


@dataclass(frozen=True)
class FormulaPlan:
    """Stage list of a product formula: tuples of (term index, fraction)."""

    order: int
    n_terms: int
    stages: tuple[tuple[int, float], ...]

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def fraction_sums(self) -> np.ndarray:
        """Per-term sums of stage fractions; each must be 1."""
        sums = np.zeros(self.n_terms)
        for idx, frac in self.stages:
            sums[idx] += frac
        return sums


def build_plan(n_terms: int, order: int) -> FormulaPlan:
    """Stage list for the given order (1, 2, or any even order)."""
    if n_terms < 1:
        raise ValueError("need at least one term")
    if order < 1 or (order > 1 and order % 2):
        raise ValueError(f"order must be 1 or even, got {order}")
    forward = [(g, 1.0) for g in range(n_terms)]
    if order == 1:
        return FormulaPlan(1, n_terms, tuple(forward))
    # S_2: forward halves then reversed halves (midpoint left unmerged so the
    # stage count identities stay exact).
    stages = [(g, 0.5) for g in range(n_terms)]
    stages += [(g, 0.5) for g in reversed(range(n_terms))]
    for l in range(2, order // 2 + 1):
        u = suzuki_u(l)
        outer = [(g, f * u) for g, f in stages]
        middle = [(g, f * (1.0 - 4.0 * u)) for g, f in stages]
        stages = outer + outer + middle + outer + outer
    return FormulaPlan(order, n_terms, tuple(stages))


def stage_weight(order: int) -> float:
    """Sum of |stage fraction| per term: 1 for orders 1 and 2, prod (8 u_l - 1) above.

    ``stage_weight(p) * |t| * ||H||_1`` bounds every eigenphase of S_p(t).
    """
    weight = 1.0
    for l in range(2, order // 2 + 1):
        weight *= 8.0 * suzuki_u(l) - 1.0
    return weight


def apply_formula(
    h: HamiltonianTerms,
    t: float,
    plan: FormulaPlan,
    grouped: bool = False,
) -> np.ndarray:
    """Dense unitary of the product formula at time t.

    Stages are multiplied left to right: the first stage is the leftmost
    factor.  Right-multiplying U by cos(a) I + i sin(a) P mixes column b
    of U with column b ^ x, signed by P's entry; the loop keeps U
    transposed so that those columns are contiguous rows.  In grouped mode
    each stage generator is a whole commuting group, exponentiated exactly
    by applying its members one after another.
    """
    if grouped and h.groups is None:
        raise ValueError("no commuting groups present; run group_commuting first")
    units = h.groups if grouped else [[j] for j in range(h.n_terms)]
    if plan.n_terms != len(units):
        raise ValueError(
            f"plan built for {plan.n_terms} stage generators, model has {len(units)}"
        )
    check_dense_cap(h.n_qubits)
    if any(s.phase.imag for _, s in h.terms):
        raise ValueError("every term must be Hermitian (string phase +1 or -1)")
    x, z, q = h.pauli_masks
    coeffs = [c for c, _ in h.terms]
    basis = np.arange(2**h.n_qubits)
    signs = parity_signs(h.n_qubits)
    ut = np.eye(basis.size, dtype=complex)
    for idx, frac in plan.stages:
        for j in units[idx]:
            angle = frac * t * coeffs[j]
            mixed = ut[basis ^ x[j]]
            mixed *= (1j * math.sin(angle) * q[j] * signs[basis & z[j]])[:, None]
            ut *= math.cos(angle)
            ut += mixed
    return ut.T.copy()


@dataclass
class EffectiveHamiltonian:
    """H_eff = log(S_p(tau)) / (i tau), symmetrized and checked."""

    matrix: np.ndarray
    tau: float
    order: int


def effective_hamiltonian(
    h: HamiltonianTerms,
    s: float,
    t: float,
    plan: FormulaPlan,
    grouped: bool = False,
) -> EffectiveHamiltonian:
    """Effective Hamiltonian of the formula at tau = s * t.

    The principal log is safe as long as all eigenphases of S_p(tau) stay
    off the -pi cut; with one-norm <= 1 models and |tau| < pi that holds
    with margin.
    """
    tau = s * t
    if tau == 0.0:
        raise ValueError("tau = s*t must be nonzero")
    u = apply_formula(h, tau, plan, grouped=grouped)
    log_u = matrix_log_unitary(u)
    h_eff = log_u / (1j * tau)
    h_eff = hermitian_part(h_eff, max_discard=1e-10, what="effective Hamiltonian")
    return EffectiveHamiltonian(h_eff, tau, plan.order)


def node_spectrum(
    h: HamiltonianTerms,
    s: float,
    t: float,
    plan: FormulaPlan,
    grouped: bool = False,
) -> np.ndarray:
    """Sorted eigenvalues of H_eff at tau = s * t, without forming H_eff.

    They are the principal eigenphases of S_p(tau) divided by tau, under
    the same unitarity, unit-circle and branch-cut checks as
    ``effective_hamiltonian``.
    """
    tau = s * t
    if tau == 0.0:
        raise ValueError("tau = s*t must be nonzero")
    u = apply_formula(h, tau, plan, grouped=grouped)
    return np.sort(unitary_eigenphases(u) / tau)


def trotter_error_norm(
    h: HamiltonianTerms,
    tau: float,
    plan: FormulaPlan,
    grouped: bool = False,
) -> float:
    """Spectral norm of H_eff(tau) - H."""
    eff = effective_hamiltonian(h, 1.0, tau, plan, grouped=grouped)
    return spectral_norm(eff.matrix - h.dense())


def fit_alpha(
    h: HamiltonianTerms,
    plan: FormulaPlan,
    tau_grid: np.ndarray,
    slope_tol: float = 0.2,
    grouped: bool = False,
) -> float:
    """Least-squares commutator constant in ||H_eff - H|| = alpha |tau|^p / (p+1)!.

    Rejects grids whose log-log slope strays more than ``slope_tol`` from
    the order, since alpha is only meaningful in the asymptotic regime.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size < 4:
        raise ValueError("need at least 4 grid points")
    p = plan.order
    errors = np.array([trotter_error_norm(h, tau, plan, grouped=grouped) for tau in tau_grid])
    if np.any(errors <= 0.0):
        raise ValueError("zero Trotter error on the grid; model may be commuting")
    slope = np.polyfit(np.log(np.abs(tau_grid)), np.log(errors), 1)[0]
    if abs(slope - p) > slope_tol:
        raise ValueError(
            f"non-asymptotic grid: log-log slope {slope:.3f} deviates from p={p} "
            f"by more than {slope_tol}"
        )
    basis = np.abs(tau_grid) ** p / math.factorial(p + 1)
    return float(np.dot(errors, basis) / np.dot(basis, basis))
