"""Chebyshev extrapolation of rescaled traces to the zero-step limit.

Node values Z(beta, s)/N are analytic in the rescaling parameter s, so an
interpolating polynomial on first-kind Chebyshev nodes converges toward
s = 0 geometrically in the number of nodes.  This module owns the node
grid and extrapolation weights and the dense diagonalization oracle that
every comparison test calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import eigh_decompose
from .syk import HamiltonianTerms

CLOSED_FORM_TOL = 1e-10


@dataclass(frozen=True)
class ChebGrid:
    """First-kind Chebyshev nodes with weights extrapolating to s = 0."""

    m_cheb: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.m_cheb < 1:
            raise ValueError("m_cheb must be a positive integer")
        if self.nodes.shape != (self.m_cheb,) or self.weights.shape != (self.m_cheb,):
            raise ValueError("nodes/weights must both have length m_cheb")


def node_angles(m_cheb: int) -> np.ndarray:
    """Angles (2k-1)pi/(2M) for k = 1..M; nodes are their cosines."""
    k = np.arange(1, m_cheb + 1, dtype=float)
    return (2.0 * k - 1.0) * math.pi / (2.0 * m_cheb)


def basis_matrix(m_cheb: int) -> np.ndarray:
    """Orthonormal Chebyshev basis u_j sampled on the nodes, shape (M, M).

    Row j holds u_j(s_k): u_0 = 1/sqrt(M) and u_j = sqrt(2/M) T_j for
    j >= 1, which makes the rows orthonormal under the plain sum over
    nodes (no weight function needed on this grid).
    """
    theta = node_angles(m_cheb)
    j = np.arange(m_cheb, dtype=float)
    mat = np.cos(np.outer(j, theta)) * math.sqrt(2.0 / m_cheb)
    mat[0, :] = 1.0 / math.sqrt(m_cheb)
    return mat


def _basis_at_zero(m_cheb: int) -> np.ndarray:
    """u_j(0) exactly: T_j(0) vanishes for odd j and alternates for even."""
    j = np.arange(m_cheb)
    tj = np.where(j % 2 == 0, np.where(j % 4 == 0, 1.0, -1.0), 0.0)
    vals = tj * math.sqrt(2.0 / m_cheb)
    vals[0] = 1.0 / math.sqrt(m_cheb)
    return vals


def cheb_grid(m_cheb: int) -> ChebGrid:
    """Nodes cos((2k-1)pi/(2M)) and extrapolation weights d_k.

    The weights come from discrete orthonormality: expanding f in the
    sampled basis and evaluating the expansion at zero collapses to
    d_k = sum_j u_j(0) u_j(s_k), with no coefficient estimation step.
    For even M the same numbers have a closed form
    (-1)^(k + M/2) tan((2k-1)pi/(2M)) / M, checked here; odd M has no
    such form, which is why the orthonormality route is primary.
    """
    if m_cheb < 1:
        raise ValueError("m_cheb must be a positive integer")
    theta = node_angles(m_cheb)
    nodes = np.cos(theta)
    weights = _basis_at_zero(m_cheb) @ basis_matrix(m_cheb)
    if m_cheb % 2 == 0:
        k = np.arange(1, m_cheb + 1)
        sign = np.where((k + m_cheb // 2) % 2 == 0, 1.0, -1.0)
        closed = sign * np.tan(theta) / m_cheb
        drift = float(np.max(np.abs(weights - closed)))
        if drift > CLOSED_FORM_TOL:
            raise ValueError(f"weight closed form disagrees by {drift:.3e}")
    return ChebGrid(m_cheb, nodes, weights)


def interpolate_to_zero(values: np.ndarray, grid: ChebGrid) -> float:
    """Weighted node sum sum_k d_k f(s_k), the extrapolated value at s = 0.

    Exact (to rounding) whenever f is a polynomial of degree < M.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.m_cheb,):
        raise ValueError(
            f"expected {grid.m_cheb} node values, got shape {values.shape}"
        )
    return float(np.dot(grid.weights, values))


def exact_partition(h: HamiltonianTerms, beta: float) -> float:
    """Tr(exp(-beta H)) / N by dense diagonalization.

    The ground-truth oracle: every estimated or extrapolated partition
    value in the tests is compared against this number.  The eigenvalues
    are kept on ``h``, so a beta sweep diagonalizes once.
    """
    vals = h.kept("reference", lambda: eigh_decompose(h.dense())[0])
    return float(np.mean(np.exp(-beta * vals)))
