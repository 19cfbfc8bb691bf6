"""SYK Hamiltonians as sums of Pauli strings.

The model is a four-body Majorana Hamiltonian with Gaussian couplings,

    H = 1/(4 * 4!) * sum_{i<j<k<l} J_ijkl g_i g_j g_k g_l,

mapped to qubits by the Jordan-Wigner encoding

    g_{2k-1} = (1/sqrt 2) Z_1 ... Z_{k-1} X_k,
    g_{2k}   = (1/sqrt 2) Z_1 ... Z_{k-1} Y_k,

so that {g_i, g_j} = delta_ij.  Each four-Majorana product collapses to a
single Pauli string with a real coefficient, and coefficients are usually
rescaled so the one-norm is 1 before any product-formula work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .paulis import (
    DENSE_QUBIT_CAP,
    PauliString,
    check_dense_cap,
    parity_signs,
    pauli_commutes,
    pauli_masks,
    pauli_multiply,
)


@dataclass(frozen=True)
class VarianceRule:
    """Coupling variance convention: Var J = 3! J^2 / n^3."""

    name: str = "standard"
    j: float = 1.0

    def variance(self, n_majorana: int) -> float:
        return math.factorial(3) * self.j**2 / n_majorana**3


@dataclass
class SykCouplings:
    """Antisymmetric couplings, stored once per ordered index tuple i<j<k<l."""

    n_majorana: int
    couplings: dict[tuple[int, int, int, int], float]
    seed: int | None = None
    rule: VarianceRule = field(default_factory=VarianceRule)


def sample_syk(n_majorana: int, seed: int, rule: VarianceRule | None = None) -> SykCouplings:
    """Draw i.i.d. Gaussian couplings for every ordered 4-tuple.

    Tuples are enumerated lexicographically, so a fixed seed gives the same
    couplings on every platform.
    """
    if n_majorana < 4 or n_majorana % 2:
        raise ValueError("n_majorana must be an even integer >= 4")
    rule = rule or VarianceRule()
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(rule.variance(n_majorana))
    couplings = {
        idx: float(rng.normal(0.0, sigma))
        for idx in combinations(range(1, n_majorana + 1), 4)
    }
    return SykCouplings(n_majorana, couplings, seed=seed, rule=rule)


def jordan_wigner_majorana(index: int, n_majorana: int) -> tuple[float, PauliString]:
    """Majorana operator g_index as (coefficient, PauliString).

    The coefficient is 1/sqrt(2), which makes {g_i, g_j} = delta_ij.
    """
    if not 1 <= index <= n_majorana:
        raise ValueError(f"index {index} out of range 1..{n_majorana}")
    n_qubits = n_majorana // 2
    site = (index + 1) // 2  # 1-based qubit the operator lands on
    tail = "X" if index % 2 else "Y"
    letters = "Z" * (site - 1) + tail + "I" * (n_qubits - site)
    return 1.0 / math.sqrt(2.0), PauliString(n_qubits, letters)


@dataclass
class HamiltonianTerms:
    """A Hamiltonian as a list of (real coefficient, phase-free Pauli string).

    ``groups`` optionally partitions term indices into mutually commuting
    sets; ``group_commuting`` fills it in.  ``pauli_masks`` is derived
    from ``terms`` on first use and kept on the instance.
    """

    n_qubits: int
    terms: list[tuple[float, PauliString]]
    groups: list[list[int]] | None = None
    provenance: dict | None = None

    @property
    def one_norm(self) -> float:
        return float(sum(abs(c) for c, _ in self.terms))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @cached_property
    def pauli_masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-term x masks, z masks and phases; see ``paulis.pauli_masks``."""
        masks = [pauli_masks(s) for _, s in self.terms]
        return (
            np.array([m[0] for m in masks], dtype=np.int64),
            np.array([m[1] for m in masks], dtype=np.int64),
            np.array([m[2] for m in masks], dtype=complex),
        )

    def dense(self, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
        """Sum of c P scattered term by term, one entry per column per term."""
        check_dense_cap(self.n_qubits, cap)
        dim = 2**self.n_qubits
        basis = np.arange(dim)
        signs = parity_signs(self.n_qubits)
        mat = np.zeros((dim, dim), dtype=complex)
        for (coeff, _), x, z, q in zip(self.terms, *self.pauli_masks):
            mat[basis ^ x, basis] += coeff * (q * signs[basis & z])
        return mat


def build_syk_hamiltonian(c: SykCouplings) -> HamiltonianTerms:
    """Reduce every four-Majorana product to one Pauli term and merge.

    The product of four distinct Majoranas is Hermitian, so each reduced
    string carries a real coefficient; the 1/(4*4!) prefactor and the four
    1/sqrt(2) factors are folded into it.
    """
    n_qubits = c.n_majorana // 2
    prefactor = 1.0 / (4.0 * math.factorial(4))
    merged: dict[str, float] = {}
    for (i, j, k, l), jval in c.couplings.items():
        coeff = prefactor * jval
        string = PauliString.identity(n_qubits)
        for idx in (i, j, k, l):
            w, gamma = jordan_wigner_majorana(idx, c.n_majorana)
            coeff *= w
            string = pauli_multiply(string, gamma)
        if abs(string.phase.imag) > 1e-12:
            raise ValueError(f"four-Majorana product {i,j,k,l} is not Hermitian")
        coeff *= string.phase.real
        merged[string.letters] = merged.get(string.letters, 0.0) + coeff
    terms = [
        (coeff, PauliString(n_qubits, letters))
        for letters, coeff in merged.items()
        if coeff != 0.0
    ]
    provenance = {"model": "syk", "n_majorana": c.n_majorana, "seed": c.seed}
    return HamiltonianTerms(n_qubits, terms, provenance=provenance)


def normalize_one_norm(h: HamiltonianTerms) -> tuple[HamiltonianTerms, float]:
    """Scale coefficients so the one-norm is exactly 1.

    Returns (scaled model, scale).  Partition functions transfer as
    Z_original(beta) = Z_scaled(beta * scale).
    """
    scale = h.one_norm
    if scale == 0.0:
        raise ValueError("cannot normalize a zero Hamiltonian")
    terms = [(c / scale, s) for c, s in h.terms]
    out = HamiltonianTerms(h.n_qubits, terms, groups=h.groups, provenance=h.provenance)
    return out, scale


def group_commuting(h: HamiltonianTerms) -> HamiltonianTerms:
    """Greedy first-fit partition of terms into mutually commuting groups."""
    groups: list[list[int]] = []
    for idx, (_, string) in enumerate(h.terms):
        for group in groups:
            if all(pauli_commutes(string, h.terms[i][1]) for i in group):
                group.append(idx)
                break
        else:
            groups.append([idx])
    return HamiltonianTerms(h.n_qubits, list(h.terms), groups=groups, provenance=h.provenance)


def to_json(h: HamiltonianTerms) -> str:
    """Serialize with full float round-trip fidelity."""
    doc = {
        "n_qubits": h.n_qubits,
        "terms": [{"coeff": c, "pauli": s.letters} for c, s in h.terms],
        "groups": h.groups,
        "provenance": h.provenance,
    }
    return json.dumps(doc, sort_keys=True)


def from_json(text: str) -> HamiltonianTerms:
    doc = json.loads(text)
    terms = [
        (float(t["coeff"]), PauliString(doc["n_qubits"], t["pauli"]))
        for t in doc["terms"]
    ]
    return HamiltonianTerms(
        doc["n_qubits"], terms, groups=doc.get("groups"), provenance=doc.get("provenance")
    )
