"""Dense reference oracles for criteria 3, 4, 8 and 9, and helpers several test modules share.

The library evaluates each node from the spectrum of its product formula
alone; the dense circuits, blocks and registers here are what the tests
hold it against.  So are the flat Suzuki stage list, the arcsin powers and
the dense-matrix partition function, which the library no longer forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from trottergibbs.gqsp import GqspAngles, LaurentPoly, gqsp_apply
from trottergibbs.linalg import eigh_decompose, spectral_norm
from trottergibbs.lwf import ARCSIN_CAP, _arcsin_base
from trottergibbs.paulis import PauliString, pauli_commutes
from trottergibbs.pipeline import PipelineError
from trottergibbs.syk import HamiltonianTerms, build_syk_hamiltonian, normalize_one_norm, sample_syk
from trottergibbs.thermal import BoltzmannOracle, boltzmann_oracle
from trottergibbs.trotter import EffectiveHamiltonian, build_plan, effective_hamiltonian, suzuki_u

TRACE_BOUND_SLACK = 1e-10

CIRCLE = np.exp(2j * np.pi * np.arange(4096) / 4096)

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def suzuki_stages(n_terms: int, order: int) -> tuple[tuple[int, float], ...]:
    """Flat stage list (term index, fraction) of the order-p Suzuki circuit."""
    forward = [(g, 1.0) for g in range(n_terms)]
    if order == 1:
        return tuple(forward)
    # S_2: forward halves then reversed halves (midpoint left unmerged so the
    # stage count identities stay exact).
    stages = [(g, 0.5) for g in range(n_terms)]
    stages += [(g, 0.5) for g in reversed(range(n_terms))]
    for l in range(2, order // 2 + 1):
        u = suzuki_u(l)
        outer = [(g, f * u) for g, f in stages]
        middle = [(g, f * (1.0 - 4.0 * u)) for g, f in stages]
        stages = outer + outer + middle + outer + outer
    return tuple(stages)


def arcsin_series(k: int, order: int) -> np.ndarray:
    """Coefficients b_l of ((2/pi) arcsin(y))^k up to y^order.

    Built by repeated Cauchy products of the arcsin series with itself;
    all coefficients are nonnegative and sum to at most 1.
    """
    if k < 0 or order < 0:
        raise ValueError("k and order must be >= 0")
    base = _arcsin_base(max(order, ARCSIN_CAP))[: order + 1]
    out = np.zeros(order + 1)
    out[0] = 1.0
    for _ in range(k):
        out = np.convolve(out, base)[: order + 1]
    return out


def dense_partition(h: np.ndarray, beta: float) -> float:
    """Tr(exp(-beta H)) / N of a dense Hermitian matrix, by diagonalization."""
    vals = eigh_decompose(np.asarray(h)).eigenvalues
    return float(np.mean(np.exp(-beta * vals)))


def direct_poly_apply(p: LaurentPoly, u: np.ndarray) -> np.ndarray:
    """sum_m c_m U^m evaluated with explicit matrix powers."""
    dim = u.shape[0]
    out = p.c[p.M] * np.eye(dim, dtype=complex)
    fwd = np.eye(dim, dtype=complex)
    bwd = np.eye(dim, dtype=complex)
    udag = u.conj().T
    for m in range(1, p.M + 1):
        fwd = fwd @ u
        bwd = bwd @ udag
        out += p.c[p.M + m] * fwd + p.c[p.M - m] * bwd
    return out


def extract_block(full: np.ndarray) -> np.ndarray:
    """Top-left (ancilla 0 -> 0) block."""
    dim = full.shape[0] // 2
    return full[:dim, :dim]


def verify_block(angles: GqspAngles, u: np.ndarray, p: LaurentPoly) -> float:
    """Max elementwise gap between the circuit block and U^M sum_m c_m U^m."""
    block = extract_block(gqsp_apply(angles, u))
    target = np.linalg.matrix_power(u, p.M) @ direct_poly_apply(p, u)
    return float(np.max(np.abs(block - target)))


@dataclass(frozen=True)
class DenseBoltzmannOracle(BoltzmannOracle):
    """The oracle with H_eff's eigenvectors as the columns of ``basis``.

    ``unitary`` and its C=0 corner ``block`` are the cells rotated into the
    computational basis.
    """

    basis: np.ndarray

    @property
    def unitary(self) -> np.ndarray:
        v, c = self.basis, self.cells
        return np.block([[(v * c[:, r, k]) @ v.conj().T for k in (0, 1)] for r in (0, 1)])

    @property
    def block(self) -> np.ndarray:
        return (self.basis * self.cells[:, 0, 0]) @ self.basis.conj().T

    @property
    def normalized_block(self) -> np.ndarray:
        return self.block / self.scale


def build_u_boltz(
    h_eff: EffectiveHamiltonian,
    beta: float,
    mode: str = "gqsp",
    *,
    eps_qsp: float = 1e-6,
) -> DenseBoltzmannOracle:
    """``boltzmann_oracle`` on H_eff as a matrix; its eigenvectors become the ``basis``."""
    dec = eigh_decompose(h_eff.matrix)
    oracle = boltzmann_oracle(dec.eigenvalues, h_eff.tau, beta, mode, eps_qsp=eps_qsp)
    return DenseBoltzmannOracle(**vars(oracle), basis=dec.eigenvectors)


def qubit_ledger(n: int) -> dict:
    """Simulated register widths: system, trace copy, and two ancillas."""
    return {
        "system": n,
        "trace_copy": n,
        "gqsp_ancilla": 1,
        "estimation_ancilla": 1,
        "total": 2 * n + 2,
    }


def trace_bound_check(
    h: HamiltonianTerms, beta: float, order: int, tau_grid
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
    z_ref = dense_partition(h_dense, beta)
    rows = []
    for tau in np.asarray(tau_grid, dtype=float):
        eff = effective_hamiltonian(h, 1.0, float(tau), plan)
        err_norm = spectral_norm(eff.matrix - h_dense)
        lhs = abs(dense_partition(eff.matrix, beta))
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


def haar_unitary(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def to_dense(p: PauliString) -> np.ndarray:
    """Kronecker oracle: one factor per letter, qubit 0 first, phase included."""
    mat = np.array([[p.phase]], dtype=complex)
    for ch in p.letters:
        mat = np.kron(mat, SINGLE[ch])
    return mat


def random_pauli_model(rng, n_qubits, n_terms, scale):
    """Distinct non-identity labels drawn letter by letter, N(0, scale) coefficients."""
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


def commuting_runs(h):
    """Term indices split into maximal runs of mutually commuting terms."""
    runs = []
    for j, (_, string) in enumerate(h.terms):
        if runs and all(pauli_commutes(string, h.terms[i][1]) for i in runs[-1]):
            runs[-1].append(j)
        else:
            runs.append([j])
    return runs


def pauli_model(labels, coeffs):
    n = len(labels[0])
    terms = [(c, PauliString.from_label(s)) for c, s in zip(coeffs, labels)]
    return HamiltonianTerms(n, terms)


def syk_effective(n_majorana, beta_seed, tau=0.3, order=2):
    h, _ = normalize_one_norm(build_syk_hamiltonian(sample_syk(n_majorana, seed=beta_seed)))
    plan = build_plan(h.n_terms, order)
    return effective_hamiltonian(h, 1.0, tau, plan)


def random_laurent(rng, m, head=0.9):
    c = rng.standard_normal(2 * m + 1) + 1j * rng.standard_normal(2 * m + 1)
    vals = np.polynomial.polynomial.polyval(CIRCLE, c)
    return LaurentPoly(m, c * head / np.max(np.abs(vals)))


def fit_slope(xs, ys):
    return float(np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0])
