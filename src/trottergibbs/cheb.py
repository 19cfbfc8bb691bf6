"""Chebyshev extrapolation of rescaled traces to the zero-step limit.

Node values Z(beta, s)/N are analytic in the rescaling parameter s, so an
interpolating polynomial on first-kind Chebyshev nodes converges toward
s = 0 geometrically in the number of nodes.  This module owns the node
grid and extrapolation weights, the Bernstein-ellipse error bound, the
order formula and order/step/radius schedule, and the dense
diagonalization oracle that every comparison test calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import eigh_decompose
from .syk import HamiltonianTerms

WEIGHT_SUM_TOL = 1e-12
ORTHO_TOL = 1e-10
CLOSED_FORM_TOL = 1e-10
MIN_NODES = 2

# Below beta = 1 the schedule formulas degenerate (the radius exponent
# divides by log_5 beta), so a fixed floor takes over.
SCHEDULE_FLOOR = (2, 0.5, 2.0)


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


def rho_from_radius(r: float) -> float:
    """Bernstein-ellipse parameter of a disc of radius r: rho = r + sqrt(r^2 - 1).

    The disc of analyticity with radius r around the interpolation
    interval contains the ellipse with this rho; r = 1 collapses it onto
    the interval itself and the error bound downstream rejects it.
    """
    if r < 1.0:
        raise ValueError("disc radius must be at least 1")
    return r + math.sqrt(r * r - 1.0)


def bernstein_bound(c: float, rho: float, m_cheb: int) -> float:
    """Sup-norm interpolation error bound 4 C rho^-(M-1) / (rho - 1).

    C bounds |f| on the Bernstein ellipse with parameter rho > 1.
    """
    if c <= 0.0:
        raise ValueError("ellipse bound C must be positive")
    if rho <= 1.0:
        raise ValueError("rho must exceed 1; the degenerate ellipse has no interior")
    return 4.0 * c * rho ** (-(m_cheb - 1)) / (rho - 1.0)


def mcheb_size(
    beta: float,
    alpha: float,
    r: float,
    t: float,
    p: int,
    eps_cheb: float,
    z_ratio: float = 1.0,
    constant: float = 1.0,
) -> int:
    """Interpolation order meeting eps_cheb given the step-error model.

    M = constant * (log(z_ratio / eps_cheb) + beta alpha (r t)^p / p!) / log r,
    rounded up and clamped to at least MIN_NODES.  The log term is clamped
    at zero from below: when the target already exceeds the trace ratio no
    nodes are needed for that part of the budget.  The leading constant is
    a calibration knob, default 1.
    """
    if r <= 1.0:
        raise ValueError("disc radius r must exceed 1")
    if eps_cheb <= 0.0:
        raise ValueError("eps_cheb must be positive")
    log_term = max(0.0, math.log(z_ratio / eps_cheb))
    tail = beta * alpha * (r * t) ** p / math.factorial(p)
    m = math.ceil(constant * (log_term + tail) / math.log(r))
    return max(MIN_NODES, m)


def scaling_schedule(beta: float) -> tuple[int, float, float]:
    """Order p, base step t, and disc radius r as functions of beta.

    p tracks sqrt(log_5 beta) rounded to the nearest even order (floor 2),
    t = exp(-sqrt(log beta * log 5)), r = exp(1/sqrt(log_5 beta)).  At
    beta = 5 this lands on (2, 1/5, e).  For beta <= 1 the exponents
    degenerate, so the fixed floor (2, 0.5, 2.0) applies instead.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if beta <= 1.0:
        return SCHEDULE_FLOOR
    x = math.log(beta) / math.log(5.0)
    p = max(2, 2 * round(math.sqrt(x) / 2.0))
    t = math.exp(-math.sqrt(math.log(beta) * math.log(5.0)))
    r = math.exp(1.0 / math.sqrt(x))
    return p, t, r


def exact_partition(h: HamiltonianTerms | np.ndarray, beta: float) -> float:
    """Tr(exp(-beta H)) / N by dense diagonalization.

    The ground-truth oracle: every estimated or extrapolated partition
    value in the tests is compared against this number.  The eigenvalues
    of a ``HamiltonianTerms`` are kept on it, so a beta sweep diagonalizes
    once.
    """
    if isinstance(h, HamiltonianTerms):
        vals = h.kept("reference", lambda: eigh_decompose(h.dense()).eigenvalues)
    else:
        vals = eigh_decompose(np.asarray(h)).eigenvalues
    return float(np.mean(np.exp(-beta * vals)))
