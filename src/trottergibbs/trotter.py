"""Suzuki product formulas and the effective Hamiltonians they generate.

A product formula of order p applied for time t is a sequence of stages,
each a term at a fraction of t, with

    S_1(t) = prod_g exp(i H_g t)
    S_2(t) = S_1(t/2) S_1(-t/2)^dag
    S_2l(t) = S_{2l-2}(u_l t)^2 S_{2l-2}((1-4u_l)t) S_{2l-2}(u_l t)^2,

where u_l = (4 - 4^(1/(2l-1)))^(-1).  The effective Hamiltonian is the
principal log of the realized unitary divided by (i t); its distance from H
shrinks as O(|t|^p).

Each stage exp(i theta c P) = cos(theta c) I + i sin(theta c) P acts on
the running product as a signed permutation of its columns, so a stage
costs O(d^2) and never forms a term matrix; d^2/2 when every term keeps
fermion parity, since only the two parity blocks are stored.  A stage
reads its term from the model's one plan (``HamiltonianTerms.stage_schedule``).
The row indices and factors of STAGE_CHUNK stages are built together, so
a stage makes four numpy calls, its row gather a ``take``; on the folded
route below, a run of consecutive stages that share an x mask makes those
four calls once.  Orders 1 and 2 are one such stage loop.  Above that the
recursion is evaluated with reuse: S_{2l-2}(u_l t) is built once and
squared, so an order-2l formula costs 2^(l-1) order-2 stage loops plus a
few block matmuls per recursion level, where the circuit it stands for
has 5^(l-1) order-2 blocks, 2 Gamma 5^(l-1) stages over Gamma terms
(``stage_count``, which node depth counts).  Even-order formulas are
symmetric, S_p(-t) = S_p(t)^dag, so H_eff(-t) = H_eff(t).

A node of the interpolation needs only the eigenphases of S_p(t), which
``node_spectrum`` reads off the blocks without the dense scatter: through
the Hermitian Cayley kernel from CAYLEY_MIN_ROWS rows per block up, through
``eigvals`` on the dense unitary below.

On that Cayley route each order-2 leaf runs half its stages.  Many models,
every SYK draw among them, have a time-reversal string: a Pauli string V
with V P V^dag = conj(P) for every term (``HamiltonianTerms.time_reversal``;
for SYK the particle-hole operator, vx all ones).  The antiunitary V conj
then commutes with every term, so S_1(-t/2) = V conj(A) V^dag with
A = S_1(t/2), and S_2(t) = A V A^T V^dag: Gamma stages, one signed
permutation of A's blocks and one block matmul instead of 2 Gamma stages
(``_folded_leaf``).  The folded half list also runs in the plan's merged
order (``StageSchedule.merged``), the same product with commuting terms
swapped, and passes over the array once per run of equal x masks rather
than once per stage: from SYK term order that is 187 passes for 495
stages at 6 qubits and 641 for 1820 at 8.  The dense result, blocks under
CAYLEY_MIN_ROWS rows, order 1 and models without V keep the full stage
list in term order, one pass per stage, so their bits are the flat loop's.
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
from .syk import HamiltonianTerms, StageSchedule

# Runs of stages per chunk of precomputed row indices and factors: with
# int64 indices, complex factors and the int8 row signs they are built from
# a chunk holds 25 * STAGE_CHUNK * d bytes, about 100 KB at 6 qubits and
# 1.6 MB at 10; the (D, E) pairs of its fused runs and their indices at
# most twice that again.
STAGE_CHUNK = 64

# Node spectra of blocks with fewer rows come from eigvals on the scattered
# dense unitary, the route every 4-qubit golden was made on; from this size
# (6-qubit SYK) up, from ``cayley_eigenphases`` on the blocks themselves,
# which ``apply_formula`` builds with folded order-2 leaves.
CAYLEY_MIN_ROWS = 32

# Largest formula order: order 2l runs 2^(l-1) order-2 loops, l - 1 weight factors.
MAX_ORDER = 20


def suzuki_u(l: int) -> float:
    """Recursion coefficient u_l for lifting order 2l-2 to order 2l."""
    if l < 2:
        raise ValueError("u_l is defined for l >= 2")
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * l - 1)))


def check_order(order: int) -> None:
    """Refuse a formula order other than 1 or even, or above MAX_ORDER."""
    if order < 1 or (order > 1 and order % 2):
        raise ValueError(f"order must be 1 or even, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"order must be <= {MAX_ORDER}, got {order}")


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

    The loop holds U's blocks as the model's plan stacks them: two d/2 x d/2
    parity blocks when every term keeps fermion parity (``StageSchedule``).

    With ``blocks`` the dense scatter is skipped: the result is the
    (n_blocks, size, size) stack of U^T's blocks and the (n_blocks, size)
    basis states of their rows, which is all ``node_spectrum`` needs.
    Blocks of CAYLEY_MIN_ROWS rows or more, at order 2 and up, on a model
    with a time-reversal string, are built with each order-2 leaf folded
    from its first half (``_folded_leaf``), in the plan's merged order,
    whose runs of equal x masks are fused into one pass each; they agree
    with the full stage list to rounding.
    """
    check_order(order)
    check_dense_cap(h.n_qubits)
    plan = h.stage_schedule
    rows = plan.states.reshape(plan.n_blocks, -1)
    terms, runs, fold = np.arange(h.n_terms), None, None
    if blocks and order > 1 and rows.shape[1] >= CAYLEY_MIN_ROWS and h.time_reversal is not None:
        vx, vz = h.time_reversal
        split = plan.n_blocks - 1
        swap = np.arange(plan.n_blocks) ^ (split * vx.bit_count() % 2)
        perm = np.arange(rows.shape[1]) ^ (vx >> split)
        fold = (swap, perm, parity_signs(h.n_qubits)[rows & vz])
        terms, runs = plan.merged
    elif order > 1:
        terms = np.concatenate([terms, terms[::-1]])
    ut = _suzuki_blocks(plan, (terms, 1.0 if order == 1 else 0.5, runs), fold, order, t, None)
    return (ut, rows) if blocks else _scatter(ut, rows)


def _scatter(ut: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Dense U from the stack of its transposed blocks and their rows' basis states."""
    # Row r of block k holds entries (rows[k, r], rows[k, c]) of U^T.
    u = np.zeros((rows.size, rows.size), dtype=complex)
    u[rows[:, None, :], rows[:, :, None]] = ut
    return u


def _suzuki_blocks(
    plan: StageSchedule,
    leaf: tuple,
    fold: tuple | None,
    order: int,
    t: float,
    start: np.ndarray | None,
) -> np.ndarray:
    """Blocks of S_order(t)^T @ start, start None standing for the identity.

    S_2l(t) = O^2 M O^2 with O = S_{2l-2}(u_l t) and M = S_{2l-2}((1-4u_l)t),
    so S_2l(t)^T = Q M^T Q with Q = (O^T)^2: O is built once and squared,
    and M's stages run on Q @ start.  Orders 1 and 2 run ``leaf``
    (``_stage_loop``), or with ``fold`` the order-2 leaf from its first half
    (``_folded_leaf``).  A module-level function, so the
    recursion leaves no reference cycle.
    """
    if order <= 2:
        if fold is None:
            return _stage_loop(plan, leaf, t, start)
        return _folded_leaf(plan, leaf, fold, t, start)
    u = suzuki_u(order // 2)
    outer = _suzuki_blocks(plan, leaf, fold, order - 2, u * t, None)
    square = outer @ outer
    middle = square if start is None else square @ start
    return square @ _suzuki_blocks(plan, leaf, fold, order - 2, (1.0 - 4.0 * u) * t, middle)


def _folded_leaf(
    plan: StageSchedule, half: tuple, fold: tuple, t: float, start: np.ndarray | None
) -> np.ndarray:
    """Blocks of S_2(t)^T @ start from the Gamma stages of A = S_1(t/2) alone.

    With V P V^dag = conj(P) for every term, S_1(-t/2) = V conj(A) V^dag,
    so S_2(t) = A V A^T V^dag and S_2(t)^T = conj(V) A V^T A^T.  V maps the
    basis state b to +-|b ^ vx>, so W = conj(V) A V^T has entries
    W[a, c] = s(a) s(c) A[a ^ vx, c ^ vx] with s(b) = (-1)^{|b & vz|}: a
    signed permutation of A^T's transposed blocks, ``fold`` holding the
    block each block reads (the other parity sector when |vx| is odd), the
    row permutation r -> r ^ (vx >> split) within a block and each row's
    sign.  One block matmul W @ A^T finishes the leaf.  ``half`` is A's
    terms in the plan's merged order at fraction 1/2 with that order's
    runs, and its stage loop fuses each run of equal x masks into one
    pass, within rounding of the unfused term-order loop.
    """
    swap, perm, signs = fold
    at = _stage_loop(plan, half, t, None)
    w = np.swapaxes(at, 1, 2)[np.ix_(swap, perm, perm)]
    w *= signs[:, :, None]
    w *= signs[:, None, :]
    out = w @ at
    return out if start is None else out @ start


def _stage_loop(
    plan: StageSchedule, leaf: tuple, t: float, start: np.ndarray | None
) -> np.ndarray:
    """Blocks of S(t)^T @ start for one stage list S, start None the identity.

    ``leaf`` is (js, frac, runs): stage k applies term js[k] at angle
    a = (frac t) c_j.  Right-multiplying U by cos(a) I + i sin(a) P mixes
    column b of U with column b ^ x, signed by P's entry; the loop keeps U
    transposed so that those columns are contiguous rows.

    ``runs`` splits the stage list into runs of consecutive stages that
    share a shifted x mask; None makes every stage its own run.  A run maps
    every row r to the same partner r ^ x, so its product is one update
    U <- D U + E U[r ^ x] with per-row vectors D and E.  Starting from the
    first stage's cos and row factors, each further stage with cos c and
    row factors f folds in as D <- c D + f E[r ^ x], E <- c E + f D[r ^ x].

    The runs go in chunks of ``STAGE_CHUNK``.  Each chunk's row indices
    r ^ x and first-stage factors i sin(a) q (-1)^{|b & z|} are built in a
    few vectorized calls, with sin and cos from ``math`` and the signs
    gathered from the table.  The D and E of the chunk's longer runs are
    built together, one flat ``take`` of the stacked (D, E) pairs per
    position in a run, up to the longest run (4 in SYK order); the runs
    are sorted longest first so that the live ones at each position are a
    prefix.  A run itself is then one gather, two scalings and one sum on
    the array; a run of one stage scales by its scalar cos.  So with
    ``runs`` None every element goes through the same operations, in the
    same order, as in a loop that builds each stage's vectors on its own,
    and the result is the same bit for bit; a fused run agrees with its
    stages applied one by one to rounding.

    The gather is ``ut.take(index, 0)``, the rows of ``ut[index]`` with less
    overhead per call: 2.4 against 3.1 us per SYK stage at 4 qubits, 6.4
    against 7.2 at 6, and the same 490 us at 10, bound by memory traffic.
    """
    js, frac, runs = leaf
    shifted, q, row_signs = plan.shifted, plan.q, plan.row_signs
    rows = np.arange(plan.states.size)
    size = rows.size // plan.n_blocks
    if start is None:
        ut = np.tile(np.eye(size, dtype=complex), (plan.n_blocks, 1))
    else:
        ut = start.reshape(rows.size, size).copy()
    angles = ((frac * t) * plan.coeffs[js]).tolist()
    sines = np.array([math.sin(angle) for angle in angles])
    cosines = np.array([math.cos(angle) for angle in angles])
    lengths = np.ones(js.size, dtype=int) if runs is None else runs
    heads = np.cumsum(lengths) - lengths
    for first in range(0, heads.size, STAGE_CHUNK):
        head, length = heads[first : first + STAGE_CHUNK], lengths[first : first + STAGE_CHUNK]
        gathers = rows ^ shifted[js[head]][:, None]
        factors = (1j * sines[head] * q[js[head]])[:, None] * row_signs[js[head]]
        scales = cosines[head].tolist()
        fused = np.flatnonzero(length > 1)
        if fused.size:
            # Longest runs first, so that the runs still live at a position are a prefix.
            fused = fused[np.argsort(-length[fused], kind="stable")]
            at, lf = head[fused], length[fused]
            pairs = np.empty((fused.size, 2, rows.size), dtype=complex)
            pairs[:, 0] = cosines[at][:, None]
            pairs[:, 1] = factors[fused]
            # Flat indices of E[r ^ x] and D[r ^ x] in the stacked (D, E) pairs.
            swap = gathers[fused][:, None, :] + (
                (2 * np.arange(fused.size)[:, None, None] + [[1], [0]]) * rows.size
            )
            for p in range(1, lf[0]):
                live = at[: np.count_nonzero(lf > p)] + p
                mixed = pairs.take(swap[: live.size])
                mixed *= (1j * sines[live] * q[js[live]])[:, None, None] * row_signs[js[live], None]
                part = pairs[: live.size]
                part *= cosines[live][:, None, None]
                part += mixed
            factors[fused] = pairs[:, 1]
            for r, scale in zip(fused.tolist(), pairs[:, 0, :, None]):
                scales[r] = scale
        for index, factor, scale in zip(gathers, factors[:, :, None], scales):
            mixed = ut.take(index, 0)
            mixed *= factor
            ut *= scale
            ut += mixed
    return ut.reshape(plan.n_blocks, size, size)


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
