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

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .paulis import (
    PauliString,
    check_dense_cap,
    multiply_masks,
    parity_signs,
    pauli_commutes,
    time_reversal_string,
)

# Terms per chunk of the dense scatter: 24 * TERM_CHUNK * d bytes of
# entries and row indices, 0.4 MB at 8 qubits.  The stage schedule's row
# signs are built as many terms at a time, through 8 * TERM_CHUNK * d bytes
# of masked states.
TERM_CHUNK = 64


@dataclass(frozen=True)
class SykCouplings:
    """Antisymmetric couplings, stored once per ordered index tuple i<j<k<l."""

    n_majorana: int
    couplings: dict[tuple[int, int, int, int], float]


def sample_syk(n_majorana: int, seed: int) -> SykCouplings:
    """Draw i.i.d. Gaussian couplings for every ordered 4-tuple, Var J = 3!/n^3.

    Tuples are enumerated lexicographically, so a fixed seed gives the same
    couplings on every platform.
    """
    if n_majorana < 4 or n_majorana % 2:
        raise ValueError("n_majorana must be an even integer >= 4")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(math.factorial(3) / n_majorana**3)
    tuples = list(combinations(range(1, n_majorana + 1), 4))
    # One draw of the whole array takes the same stream as one draw per tuple.
    couplings = dict(zip(tuples, rng.normal(0.0, sigma, size=len(tuples)).tolist()))
    return SykCouplings(n_majorana, couplings)


def jordan_wigner_majorana(index: int, n_majorana: int) -> tuple[float, PauliString]:
    """Majorana operator g_index as (coefficient, PauliString).

    The string is Z on every qubit before site (index + 1) // 2 and X (odd
    index) or Y (even index) on it, built as bitmasks.  The coefficient is
    1/sqrt(2), which makes {g_i, g_j} = delta_ij.
    """
    if not 1 <= index <= n_majorana:
        raise ValueError(f"index {index} out of range 1..{n_majorana}")
    n_qubits = n_majorana // 2
    bit = 1 << (n_qubits - (index + 1) // 2)  # the site's bit; qubit 0 is the top bit
    z = (1 << n_qubits) - 2 * bit + (0 if index % 2 else bit)
    return 1.0 / math.sqrt(2.0), PauliString(n_qubits, bit, z)


@dataclass(frozen=True)
class StageSchedule:
    """What every stage loop on one model reads, built once per model.

    When every x mask has even popcount, every term keeps the fermion
    parity of b, so a formula splits into ``n_blocks`` = 2 parity blocks,
    stored stacked with the even states first; otherwise there is one
    block.  ``states`` is the basis state of each stacked row, ``shifted``
    each term's x mask shifted right by ``n_blocks - 1`` (within a sector
    b is fixed by b >> 1), and ``row_signs`` the (n_terms, d) int8 table of
    (-1)^{|b & z|} for every term on those states: 5 MB at 10 qubits.

    ``order`` is the half-list term order in which each term has slid back
    past the terms it commutes with into the nearest earlier run of its
    shifted x mask (``merged_order``), and ``runs`` the lengths of that
    order's maximal runs of equal shifted x.  The swaps exchange commuting
    exponentials only, so the product of a stage list in ``order`` is the
    same unitary as in term order, with the same circuit.  In SYK term
    order the merge takes the runs of a half list from 246 to 187 at 6
    qubits, 927 to 641 at 8 and 2492 to 1623 at 10.
    """

    n_blocks: int
    states: np.ndarray
    shifted: np.ndarray
    row_signs: np.ndarray
    order: tuple[int, ...]
    runs: np.ndarray


@dataclass(frozen=True)
class HamiltonianTerms:
    """A Hamiltonian as a tuple of (real coefficient, Pauli string) terms.

    The tuple order is the stage order of every product formula built on
    the model; the constructor takes any sequence and refuses a coefficient
    that is not ``numbers.Real`` or a string on another qubit count.  Data
    derived from ``terms`` is computed on first use and kept on the
    instance, read-only: ``pauli_masks``, the strings' fields stacked as
    arrays, ``time_reversal``, ``stage_schedule``, and through ``kept`` the
    node spectra and reference eigenvalues.
    """

    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...]
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = tuple(self.terms)
        for coeff, string in terms:
            if not isinstance(coeff, numbers.Real):
                raise ValueError(f"coefficient {coeff!r} of {string} is not real")
            if string.n_qubits != self.n_qubits:
                raise ValueError(f"{string} is not on the model's {self.n_qubits} qubits")
        object.__setattr__(self, "terms", terms)

    @property
    def one_norm(self) -> float:
        return float(sum(abs(c) for c, _ in self.terms))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @cached_property
    def pauli_masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-term x masks, z masks and q, with P|b> = q (-1)^{|b & z|} |b ^ x>."""
        strings = [s for _, s in self.terms]
        masks = (
            np.array([s.x for s in strings], dtype=np.int64),
            np.array([s.z for s in strings], dtype=np.int64),
            np.array([s.q for s in strings], dtype=complex),
        )
        for array in masks:
            array.flags.writeable = False
        return masks

    @cached_property
    def time_reversal(self) -> tuple[int, int] | None:
        """Masks (vx, vz) of a string V with V P V^dag = conj(P) for every term, or None.

        Every SYK draw has one: the particle-hole operator, with vx all ones.
        """
        x, z, _ = self.pauli_masks
        return time_reversal_string(self.n_qubits, x, z)

    @cached_property
    def stage_schedule(self) -> StageSchedule:
        """Blocks, row signs and merged half-list order of every stage loop (``StageSchedule``)."""
        return build_stage_schedule(self)

    def kept(self, key, compute) -> np.ndarray:
        """``compute()`` on the first call with ``key``, then the same read-only array."""
        value = self._kept.get(key)
        if value is None:
            value = compute()
            value.flags.writeable = False
            self._kept[key] = value
        return value

    def dense(self) -> np.ndarray:
        """Sum of c P: one entry per column per term, scattered TERM_CHUNK terms at a time.

        ``np.add.at`` adds each chunk's entries in term order, so every
        entry is the same term-order sum as a term-by-term scatter.
        """
        check_dense_cap(self.n_qubits)
        dim = 2**self.n_qubits
        basis = np.arange(dim)
        signs = parity_signs(self.n_qubits)
        mat = np.zeros((dim, dim), dtype=complex)
        coeffs = np.array([c for c, _ in self.terms])
        x, z, q = self.pauli_masks
        for first in range(0, self.n_terms, TERM_CHUNK):
            part = slice(first, first + TERM_CHUNK)
            values = coeffs[part, None] * (q[part, None] * signs[basis & z[part, None]])
            np.add.at(mat, (basis ^ x[part, None], basis), values)
        return mat


def build_stage_schedule(h: HamiltonianTerms) -> StageSchedule:
    """The model's ``StageSchedule``: row signs TERM_CHUNK terms at a time, then the merge."""
    x, z, _ = h.pauli_masks
    signs = parity_signs(h.n_qubits)
    split = int(h.n_qubits > 0 and np.all(signs[x] > 0))
    states = np.argsort(-signs, kind="stable") if split else np.arange(signs.size)
    small = signs.astype(np.int8)
    row_signs = np.empty((h.n_terms, states.size), dtype=np.int8)
    for first in range(0, h.n_terms, TERM_CHUNK):
        part = slice(first, first + TERM_CHUNK)
        row_signs[part] = small[states & z[part, None]]
    shifted = x >> split
    order = merged_order(shifted.tolist(), x.tolist(), z.tolist())
    runs = np.diff(np.flatnonzero(np.diff(shifted[list(order)], prepend=-1, append=-1)))
    for array in (states, shifted, row_signs, runs):
        array.flags.writeable = False
    return StageSchedule(1 + split, states, shifted, row_signs, order, runs)


def merged_order(keys: list[int], x: list[int], z: list[int]) -> tuple[int, ...]:
    """Term order in which each term joins the nearest earlier run of its key it can reach.

    Terms are taken in index order.  Term j walks back over the runs built
    so far, past every run all of whose terms commute with P_j, and joins
    the first run with its key at its end; it stops at a run holding a term
    it does not commute with, and then starts a new run.  So j only passes
    terms it commutes with, and adjacent runs have different keys.  A run
    keeps its x mask and its terms' z masks: P_j commutes with P_m of x
    mask x_r when |x_j & z_m| and |z_j & x_r| have the same parity.
    """
    runs: list[tuple[int, int, list[int], list[int]]] = []
    for j, (key, xj, zj) in enumerate(zip(keys, x, z)):
        for run in reversed(runs):
            run_key, run_x, run_z, members = run
            if run_key == key:
                run_z.append(zj)
                members.append(j)
                break
            parity = (zj & run_x).bit_count() & 1
            if any((xj & zm).bit_count() & 1 != parity for zm in run_z):
                runs.append((key, xj, [zj], [j]))
                break
        else:
            runs.append((key, xj, [zj], [j]))
    return tuple(j for *_, members in runs for j in members)


def build_syk_hamiltonian(c: SykCouplings) -> HamiltonianTerms:
    """Reduce every four-Majorana product to one Pauli term and merge.

    The product of four distinct Majoranas is Hermitian, so each reduced
    string carries a real coefficient; the 1/(4*4!) prefactor and the four
    1/sqrt(2) factors are folded into it.  Each Majorana's Jordan-Wigner
    string is built once, as its (x, z, phase 0) masks, and the products are
    folded on those integers; only the merged terms become strings.
    """
    n_qubits = c.n_majorana // 2
    prefactor = 1.0 / (4.0 * math.factorial(4))
    strings = [jordan_wigner_majorana(idx, c.n_majorana) for idx in range(1, c.n_majorana + 1)]
    majoranas = [(w, (s.x, s.z, 0)) for w, s in strings]
    merged: dict[tuple[int, int], float] = {}
    for (i, j, k, l), jval in c.couplings.items():
        coeff = prefactor * jval
        product = (0, 0, 0)
        for idx in (i, j, k, l):
            w, gamma = majoranas[idx - 1]
            coeff *= w
            product = multiply_masks(product, gamma)
        x, z, phase = product
        if phase % 2:
            raise ValueError(f"four-Majorana product {i,j,k,l} is not Hermitian")
        coeff *= 1.0 - phase  # i^0 or i^2: exactly +1.0 or -1.0
        merged[x, z] = merged.get((x, z), 0.0) + coeff
    terms = [(coeff, PauliString(n_qubits, *key)) for key, coeff in merged.items() if coeff != 0.0]
    return HamiltonianTerms(n_qubits, terms)


def normalize_one_norm(h: HamiltonianTerms) -> tuple[HamiltonianTerms, float]:
    """Scale coefficients so the one-norm is exactly 1.

    Returns (scaled model, scale).  Partition functions transfer as
    Z_original(beta) = Z_scaled(beta * scale).
    """
    scale = h.one_norm
    if scale == 0.0:
        raise ValueError("cannot normalize a zero Hamiltonian")
    terms = [(c / scale, s) for c, s in h.terms]
    return HamiltonianTerms(h.n_qubits, terms), scale


def group_commuting(h: HamiltonianTerms) -> HamiltonianTerms:
    """The same terms reordered group by group.

    Groups come from a greedy first-fit partition into mutually commuting
    sets, each keeping the original index order.  A product formula applies
    a group's members one after another, which is the exact exponential of
    their sum.  Splitting the result into maximal mutually commuting runs
    recovers the groups: each group's first term failed to join the group
    before it.
    """
    groups: list[list[tuple[float, PauliString]]] = []
    for term in h.terms:
        for group in groups:
            if all(pauli_commutes(term[1], s) for _, s in group):
                group.append(term)
                break
        else:
            groups.append([term])
    terms = [term for group in groups for term in group]
    return HamiltonianTerms(h.n_qubits, terms)
