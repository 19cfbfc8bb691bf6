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
the running product as a signed permutation of its columns, so a stage
costs O(d^2) and never forms a term matrix; d^2/2 when every term keeps
fermion parity, since only the two parity blocks are stored.  The row
indices and factors of STAGE_CHUNK stages are built together, so a stage
makes four numpy calls, its row gather a ``take``.  Orders 1 and 2 are
one such stage loop.  Above that the recursion is evaluated with reuse:
S_{2l-2}(u_l t) is built once and squared, so an order-2l formula costs
2^(l-1) order-2 stage loops plus a few block matmuls per recursion level,
where the circuit it stands for has 5^(l-1) order-2 blocks,
2 Gamma 5^(l-1) stages over Gamma terms (``stage_count``, which node depth
counts).  Even-order formulas are symmetric, S_p(-t) = S_p(t)^dag, so
H_eff(-t) = H_eff(t).

A node of the interpolation needs only the eigenphases of S_p(t), which
``node_spectrum`` reads off the blocks without the dense scatter: through
the Hermitian Cayley kernel from CAYLEY_MIN_ROWS rows per block up, through
``eigvals`` on the dense unitary below.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (  # noqa: F401  (eigh_decompose: perfbench probes it here)
    cayley_eigenphases,
    eigh_decompose,
    hermitian_part,
    matrix_log_unitary,
    spectral_norm,
    unitary_eigenphases,
)
from .paulis import check_dense_cap, parity_signs
from .syk import HamiltonianTerms

# Stages per chunk of precomputed row indices and factors: with int64
# indices and complex factors a chunk holds 24 * STAGE_CHUNK * d bytes,
# about 100 KB at 6 qubits and 1.5 MB at 10.
STAGE_CHUNK = 64

# Node spectra of blocks with fewer rows come from eigvals on the scattered
# dense unitary, the route every 4-qubit golden was made on; from this size
# (6-qubit SYK) up, from ``cayley_eigenphases`` on the blocks themselves.
CAYLEY_MIN_ROWS = 32


def suzuki_u(l: int) -> float:
    """Recursion coefficient u_l for lifting order 2l-2 to order 2l."""
    if l < 2:
        raise ValueError("u_l is defined for l >= 2")
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * l - 1)))


def check_order(order: int) -> None:
    """Refuse a formula order other than 1 or even."""
    if order < 1 or (order > 1 and order % 2):
        raise ValueError(f"order must be 1 or even, got {order}")


def stage_count(order: int, n_terms: int) -> int:
    """Stages of the circuit: Gamma at order 1, 2 Gamma 5^(l-1) at order 2l."""
    if order == 1:
        return n_terms
    return 2 * n_terms * 5 ** (order // 2 - 1)


def stage_weight(order: int) -> float:
    """Sum of |stage fraction| per term: 1 for orders 1 and 2, prod (8 u_l - 1) above.

    ``stage_weight(p) * |t| * ||H||_1`` bounds every eigenphase of S_p(t).
    """
    weight = 1.0
    for l in range(2, order // 2 + 1):
        weight *= 8.0 * suzuki_u(l) - 1.0
    return weight


def phase_bound(h: HamiltonianTerms, t: float, order: int) -> float:
    """|t| ||H||_1 w_p: no eigenphase of S_p(t) is larger in magnitude."""
    return abs(t) * h.one_norm * stage_weight(order)


def apply_formula(h: HamiltonianTerms, t: float, order: int, *, blocks: bool = False):
    """Dense unitary of the product formula at time t.

    Stages are multiplied left to right: the first stage is the leftmost
    factor.  The stage order is the term order of ``h``; a model from
    ``syk.group_commuting`` applies each commuting group's members one
    after another, which is the group's exact exponential.

    Orders 1 and 2 run their stage list in one stage loop (``_stage_loop``):
    every term at fraction 1, or every term at 1/2 forward and then in
    reverse (the midpoint left unmerged).  Order 2l >= 4 runs the Suzuki
    recursion with reuse (``_suzuki_blocks``) on the order-2 list: 2^(l-1)
    order-2 stage loops and a few block matmuls per level, instead of the
    5^(l-1) order-2 blocks of the flat circuit.  It agrees with the flat
    product to rounding.

    When every x mask has even popcount (every SYK term does), each term
    keeps the fermion parity of b, so U is block-diagonal in the even and
    odd popcount sectors.  The loop then holds only the two d/2 x d/2
    blocks, stacked as a d x d/2 array with the even states first.  Within
    a sector b is fixed by b >> 1, so row i mixes with row i ^ (x >> 1).
    Any parity-flipping term leaves one block of size d.

    With ``blocks`` the dense scatter is skipped: the result is the
    (n_blocks, size, size) stack of U^T's blocks and the (n_blocks, size)
    basis states of their rows, which is all ``node_spectrum`` needs.
    """
    check_order(order)
    check_dense_cap(h.n_qubits)
    if not all(s.hermitian for _, s in h.terms):
        raise ValueError("every term must be Hermitian (string phase +1 or -1)")
    x, z, q = h.pauli_masks
    signs = parity_signs(h.n_qubits)
    split = int(h.n_qubits > 0 and np.all(signs[x] > 0))
    states = np.argsort(-signs, kind="stable") if split else np.arange(signs.size)
    loop = ([c for c, _ in h.terms], x >> split, z, q, signs, states, 1 + split)
    if order == 1:
        leaf = [(g, 1.0) for g in range(h.n_terms)]
    else:
        half = [(g, 0.5) for g in range(h.n_terms)]
        leaf = half + half[::-1]
    ut = _suzuki_blocks(loop, leaf, order, t, None)
    rows = states.reshape(1 + split, -1)
    return (ut, rows) if blocks else _scatter(ut, rows)


def _scatter(ut: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Dense U from the stack of its transposed blocks and their rows' basis states."""
    # Row r of block k holds entries (rows[k, r], rows[k, c]) of U^T.
    u = np.zeros((rows.size, rows.size), dtype=complex)
    u[rows[:, None, :], rows[:, :, None]] = ut
    return u


def _suzuki_blocks(
    loop: tuple, leaf: list, order: int, t: float, start: np.ndarray | None
) -> np.ndarray:
    """Blocks of S_order(t)^T @ start, start None standing for the identity.

    S_2l(t) = O^2 M O^2 with O = S_{2l-2}(u_l t) and M = S_{2l-2}((1-4u_l)t),
    so S_2l(t)^T = Q M^T Q with Q = (O^T)^2: O is built once and squared,
    and M's stages run on Q @ start.  Orders 1 and 2 run ``leaf``.  A
    module-level function, so the recursion leaves no reference cycle.
    """
    if order <= 2:
        return _stage_loop(loop, leaf, t, start)
    u = suzuki_u(order // 2)
    outer = _suzuki_blocks(loop, leaf, order - 2, u * t, None)
    square = outer @ outer
    middle = square if start is None else square @ start
    return square @ _suzuki_blocks(loop, leaf, order - 2, (1.0 - 4.0 * u) * t, middle)


def _stage_loop(loop: tuple, stages: list, t: float, start: np.ndarray | None) -> np.ndarray:
    """Blocks of S(t)^T @ start for one stage list S, start None the identity.

    Right-multiplying U by cos(a) I + i sin(a) P mixes column b of U with
    column b ^ x, signed by P's entry; the loop keeps U transposed so that
    those columns are contiguous rows.  ``loop`` holds the term
    coefficients, shifted x masks, z masks, phases, parity signs, the basis
    state of each stacked row and the number of blocks.

    The stages run in chunks of ``STAGE_CHUNK``.  Each chunk's row indices
    b ^ x and factors i sin(a) q (-1)^{|b & z|} are built in a few
    vectorized calls, with sin and cos from ``math``; a stage itself is
    then one gather, two scalings and one sum.  Every element goes through
    the same operations, in the same order, as in a loop that builds each
    stage's vectors on its own, so the result is the same bit for bit.

    The gather is ``ut.take(index, 0)``: it copies the same rows as
    ``ut[index]`` with less overhead per call.  Per SYK order-2 stage on one
    BLAS thread, fancy indexing -> ``take``: 3.1 -> 2.4 us at 4 qubits and
    7.2 -> 6.4 us at 6; at 8 the gather alone goes 12.4 -> 11.4 us of a
    65 us stage, and at 10 it stays at 490 us, bound by memory traffic.
    """
    coeffs, shifted, z, q, signs, states, n_blocks = loop
    size = states.size // n_blocks
    rows = np.arange(states.size)
    if start is None:
        ut = np.tile(np.eye(size, dtype=complex), (n_blocks, 1))
    else:
        ut = start.reshape(states.size, size).copy()
    for first in range(0, len(stages), STAGE_CHUNK):
        chunk = stages[first : first + STAGE_CHUNK]
        js = [j for j, _ in chunk]
        angles = [frac * t * coeffs[j] for j, frac in chunk]
        sines = np.array([math.sin(angle) for angle in angles])
        gathers = rows ^ shifted[js][:, None]
        factors = (1j * sines * q[js])[:, None] * signs[states & z[js][:, None]]
        for index, factor, angle in zip(gathers, factors[:, :, None], angles):
            mixed = ut.take(index, 0)
            mixed *= factor
            ut *= math.cos(angle)
            ut += mixed
    return ut.reshape(n_blocks, size, size)


def effective_hamiltonian(h: HamiltonianTerms, tau: float, order: int) -> np.ndarray:
    """H_eff = log(S_p(tau)) / (i tau), symmetrized and checked.

    The principal log is safe as long as all eigenphases of S_p(tau) stay
    off the -pi cut; with one-norm <= 1 models and |tau| < pi that holds
    with margin.
    """
    if tau == 0.0:
        raise ValueError("tau must be nonzero")
    log_u = matrix_log_unitary(apply_formula(h, tau, order))
    return hermitian_part(log_u / (1j * tau), what="effective Hamiltonian")


def node_spectrum(h: HamiltonianTerms, tau: float, order: int) -> np.ndarray:
    """Sorted eigenvalues of H_eff at step tau, without forming H_eff.

    They are the principal eigenphases of S_p(tau) divided by tau, read
    off the formula's blocks.  Blocks of CAYLEY_MIN_ROWS rows or more go
    through ``cayley_eigenphases`` with the a-priori ``phase_bound``;
    smaller ones are scattered into the dense unitary
    for ``unitary_eigenphases``.  Either route checks unitarity and
    refuses a phase within BRANCH_GAP of the cut.  The spectrum does not
    depend on beta, so it is kept on ``h`` under (tau, order) and returned
    read-only: a beta sweep on one model builds each formula once.
    """
    if tau == 0.0:
        raise ValueError("tau must be nonzero")

    def compute() -> np.ndarray:
        ut, rows = apply_formula(h, tau, order, blocks=True)
        if ut.shape[-1] < CAYLEY_MIN_ROWS:
            phases = unitary_eigenphases(_scatter(ut, rows))
        else:
            phases = cayley_eigenphases(ut, phase_bound(h, tau, order))
        return np.sort(phases / tau)

    return h.kept((tau, order), compute)


def trotter_error_norm(h: HamiltonianTerms, tau: float, order: int) -> float:
    """Spectral norm of H_eff(tau) - H."""
    return spectral_norm(effective_hamiltonian(h, tau, order) - h.dense())
