"""Dense reference oracles for criteria 3, 4, 8 and 9, and helpers several test modules share.

The library evaluates each node from the spectrum of its product formula
alone; the dense circuits, blocks and registers here are what the tests
hold it against.  So are the flat Suzuki stage list, the arcsin powers,
the plain doubling search over arcsin orders, the completion residual and
the dense-matrix partition function, which the library no longer forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from trottergibbs.gqsp import (
    ADMISSIBLE_SLACK,
    COMPLETION_TOL,
    CompletionError,
    _circle_values,
    complete_polynomial,
    gqsp_apply,
)
from trottergibbs.linalg import eigh_decompose, spectral_norm
from trottergibbs.lwf import (
    ARCSIN_CAP,
    ARCSIN_START,
    ApproximationError,
    _arcsin_base,
    _arcsin_pass,
)
from trottergibbs.paulis import PauliString, multiply_masks, pauli_commutes
from trottergibbs.pipeline import PipelineError
from trottergibbs.syk import HamiltonianTerms, build_syk_hamiltonian, normalize_one_norm, sample_syk
from trottergibbs.thermal import BoltzmannOracle, boltzmann_oracle
from trottergibbs.trotter import effective_hamiltonian, suzuki_u

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
    base = _arcsin_base()[: order + 1]
    out = np.zeros(order + 1)
    out[0] = 1.0
    for _ in range(k):
        out = np.convolve(out, base)[: order + 1]
    return out


def choose_arcsin_order_reference(ts, delta: float, eps: float):
    """``lwf._choose_arcsin_order`` without the tail bound: one pass per order, doubling."""
    order = ARCSIN_START
    while True:
        combined, tail = _arcsin_pass(ts, delta, order)
        if tail < eps / 8.0:
            return order, combined, tail
        if order >= ARCSIN_CAP:
            raise ApproximationError(
                f"arcsin truncation at L={order} cannot reach eps={eps:.3e}",
                split={"arcsin_tail": tail},
            )
        order *= 2


def dense_partition(h: np.ndarray, beta: float) -> float:
    """Tr(exp(-beta H)) / N of a dense Hermitian matrix, by diagonalization."""
    vals, _ = eigh_decompose(np.asarray(h))
    return float(np.mean(np.exp(-beta * vals)))


def direct_poly_apply(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_{m=-M}^{M} c[m + M] U^m evaluated with explicit matrix powers."""
    c = np.asarray(c, dtype=complex)
    big_m = len(c) // 2
    dim = u.shape[0]
    out = c[big_m] * np.eye(dim, dtype=complex)
    fwd = np.eye(dim, dtype=complex)
    bwd = np.eye(dim, dtype=complex)
    udag = u.conj().T
    for m in range(1, big_m + 1):
        fwd = fwd @ u
        bwd = bwd @ udag
        out += c[big_m + m] * fwd + c[big_m - m] * bwd
    return out


def completion_reference(p_coefs: np.ndarray) -> np.ndarray:
    """``gqsp.complete_polynomial`` with a fresh array for every grid step.

    The library's version reuses its grid buffers in place; the tests hold it
    to this one byte for byte.
    """
    p_coefs = np.asarray(p_coefs, dtype=complex)
    d = len(p_coefs) - 1
    grid = 1 << max(13, (8 * (d + 1) - 1).bit_length())
    p_abs = np.abs(_circle_values(p_coefs, grid))
    if float(np.max(p_abs)) > 1.0 + ADMISSIBLE_SLACK:
        raise ValueError("not admissible")
    p_sq = p_abs**2
    g = 1.0 - p_sq
    g_max = float(np.max(g))
    if g_max <= 4.0 * ADMISSIBLE_SLACK:
        return np.zeros(d + 1, dtype=complex)
    if float(np.min(g)) <= 0.0:
        raise CompletionError("|P| reaches 1 on the unit circle")
    cepstrum = np.fft.ifft(np.log(g))
    analytic = np.zeros(grid, dtype=complex)
    analytic[0] = 0.5 * cepstrum[0]
    analytic[1 : grid // 2] = cepstrum[1 : grid // 2]
    outer_vals = np.exp(np.fft.fft(analytic))
    outer = np.fft.ifft(outer_vals)
    q_coefs = np.conj(outer[d::-1])
    residual = float(np.max(np.abs(p_sq + np.abs(_circle_values(q_coefs, grid)) ** 2 - 1.0)))
    if residual > COMPLETION_TOL:
        raise CompletionError(f"factorization residual {residual:.3e}")
    return q_coefs


def completion_residual(c: np.ndarray) -> float:
    """max ||P|^2 + |Q|^2 - 1| on the circle samples, Q the library's completion of ``c``.

    The samples are the 4096 points of CIRCLE, or the next power of two that
    holds every coefficient: an FFT shorter than the coefficients would crop them.
    """
    q_coefs = complete_polynomial(c)
    n = max(len(CIRCLE), 1 << (len(c) - 1).bit_length())
    residual = np.abs(_circle_values(c, n)) ** 2 + np.abs(_circle_values(q_coefs, n)) ** 2 - 1.0
    return float(np.max(np.abs(residual)))


def extract_block(full: np.ndarray) -> np.ndarray:
    """Top-left (ancilla 0 -> 0) block."""
    dim = full.shape[0] // 2
    return full[:dim, :dim]


def verify_block(angles: tuple, u: np.ndarray, c: np.ndarray) -> float:
    """Max elementwise gap between the circuit block and U^M sum_m c[m + M] U^m."""
    block = extract_block(gqsp_apply(angles, u))
    target = np.linalg.matrix_power(u, len(c) // 2) @ direct_poly_apply(c, u)
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
    h_eff: np.ndarray,
    tau: float,
    beta: float,
    mode: str = "gqsp",
    *,
    eps_qsp: float = 1e-6,
) -> DenseBoltzmannOracle:
    """``boltzmann_oracle`` on the matrix H_eff at step tau.

    The eigenvectors of H_eff become the ``basis``.
    """
    vals, vecs = eigh_decompose(h_eff)
    oracle = boltzmann_oracle(vals, tau, beta, mode, eps_qsp=eps_qsp)
    return DenseBoltzmannOracle(**vars(oracle), basis=vecs)


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
    h_dense = h.dense()
    z_ref = dense_partition(h_dense, beta)
    rows = []
    for tau in np.asarray(tau_grid, dtype=float):
        h_eff = effective_hamiltonian(h, float(tau), order)
        err_norm = spectral_norm(h_eff - h_dense)
        lhs = abs(dense_partition(h_eff, beta))
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


def pauli_multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product of two strings of one size, through the library's ``multiply_masks``."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"size mismatch: {a.n_qubits} vs {b.n_qubits}")
    return PauliString(a.n_qubits, *multiply_masks((a.x, a.z, a.phase), (b.x, b.z, b.phase)))


def letters(p: PauliString) -> str:
    """The string's spelling over "IXYZ", qubit 0 first, read off its masks."""
    bits = range(p.n_qubits - 1, -1, -1)
    return "".join("IXZY"[(p.x >> k & 1) + 2 * (p.z >> k & 1)] for k in bits)


def to_dense(p: PauliString) -> np.ndarray:
    """Kronecker oracle: one factor per letter, qubit 0 first, phase i^k included."""
    mat = np.array([[(1, 1j, -1, -1j)[p.phase]]], dtype=complex)
    for ch in letters(p):
        mat = np.kron(mat, SINGLE[ch])
    return mat


# Single-qubit products a b = phase c, read off the matrices: (a, b) -> (phase, c).
LETTER_PRODUCTS = {
    (a, b): next(
        (ph, c)
        for c in "IXYZ"
        for ph in (1, 1j, -1, -1j)
        if np.array_equal(SINGLE[a] @ SINGLE[b], ph * SINGLE[c])
    )
    for a in "IXYZ"
    for b in "IXYZ"
}


def letter_syk_terms(c) -> list[tuple[float, str]]:
    """SYK terms as (coefficient, label), multiplied letter by letter with complex phases.

    A reference for ``build_syk_hamiltonian`` that shares none of its
    bitmask algebra: the same Jordan-Wigner strings, floating-point
    products and merge, done on letters.
    """
    n = c.n_majorana // 2
    prefactor = 1.0 / (4.0 * math.factorial(4))
    merged = {}
    for idx, coupling in c.couplings.items():
        coeff, phase, label = prefactor * coupling, 1 + 0j, "I" * n
        for i in idx:
            site = (i - 1) // 2
            gamma = "Z" * site + "XY"[1 - i % 2] + "I" * (n - site - 1)
            coeff *= 1.0 / math.sqrt(2.0)
            products = [LETTER_PRODUCTS[a, b] for a, b in zip(label, gamma)]
            phase *= math.prod(ph for ph, _ in products)
            label = "".join(ch for _, ch in products)
        coeff *= phase.real
        merged[label] = merged.get(label, 0.0) + coeff
    return [(v, label) for label, v in merged.items() if v != 0.0]


def letter_masks(terms: list[tuple[float, str]]) -> tuple[np.ndarray, ...]:
    """x, z, q and coefficient arrays of (coefficient, label) terms, spelled letter by letter.

    q = (1+0j) (1, 1j, -1, -1j)[n_Y % 4] is the library's letter-based
    formula for a string of phase +1; its bytes pin the signed zeros.
    """
    labels = [label for _, label in terms]
    return (
        np.array([int(s.translate(str.maketrans("IXYZ", "0110")), 2) for s in labels], np.int64),
        np.array([int(s.translate(str.maketrans("IXYZ", "0011")), 2) for s in labels], np.int64),
        np.array([(1 + 0j) * (1, 1j, -1, -1j)[s.count("Y") % 4] for s in labels], complex),
        np.array([c for c, _ in terms]),
    )


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
    """H_eff at step tau of a one-norm-1 SYK draw."""
    h, _ = normalize_one_norm(build_syk_hamiltonian(sample_syk(n_majorana, seed=beta_seed)))
    return effective_hamiltonian(h, tau, order)


def random_laurent(rng, m, head=0.9):
    """2m + 1 random Laurent coefficients, scaled so that max |P| on CIRCLE is ``head``."""
    c = rng.standard_normal(2 * m + 1) + 1j * rng.standard_normal(2 * m + 1)
    vals = np.polynomial.polynomial.polyval(CIRCLE, c)
    return c * head / np.max(np.abs(vals))


def fit_slope(xs, ys):
    return float(np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0])
