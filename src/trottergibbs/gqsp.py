"""Generalized quantum signal processing on a unitary.

Given a polynomial P with |P(z)| <= 1 on the unit circle, an interleaving
of single-ancilla rotations

    R(theta, phi, lam) = [[exp(i(lam+phi)) cos(theta), exp(i phi) sin(theta)],
                          [exp(i lam) sin(theta),      -cos(theta)]]

with the ancilla-controlled signal operator A = |0><0| x U + |1><1| x I
realizes P(U) in the ancilla-0 block.  Laurent targets (negative powers)
are handled by multiplying through by z^M and undoing the shift with U^-M
afterwards.

The angle synthesis needs a completion Q with |P|^2 + |Q|^2 = 1 on the
circle; it is constructed by FFT-based spectral factorization of
1 - |P|^2, taking the factor whose roots all lie inside the disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import read_only

ADMISSIBLE_SLACK = 1e-9
CIRCLE_SAMPLES = 4096
COMPLETION_TOL = 1e-8


class CompletionError(ValueError):
    """Spectral factorization is degenerate: |P| = 1 somewhere on the circle."""


class SynthesisError(ValueError):
    """Angle peeling hit an unstable (vanishing leading coefficient) step."""


def _circle_values(coefs: np.ndarray, n: int = CIRCLE_SAMPLES) -> np.ndarray:
    """Polynomial values on n evenly spaced points of the unit circle."""
    return np.fft.fft(coefs, n)


@dataclass(frozen=True)
class LaurentPoly:
    """sum_{m=-M}^{M} c_m z^m with |values| <= 1 on the unit circle."""

    M: int
    c: np.ndarray  # complex, index m + M

    def __post_init__(self):
        object.__setattr__(self, "c", read_only(self.c, complex))
        if self.c.shape != (2 * self.M + 1,):
            raise ValueError(f"need {2 * self.M + 1} coefficients, got {self.c.shape}")
        worst = float(np.max(np.abs(_circle_values(self.c))))
        if worst > 1.0 + ADMISSIBLE_SLACK:
            raise ValueError(f"not admissible: max |P| on circle = {worst:.12f} > 1")


def rotation(theta, phi, lam=0.0) -> np.ndarray:
    """The SU(2)-style interleaving rotation; array angles broadcast to shape (..., 2, 2)."""
    theta, phi, lam = np.broadcast_arrays(theta, phi, lam)
    cos, sin = np.cos(theta), np.sin(theta)
    entries = [np.exp(1j * (lam + phi)) * cos, np.exp(1j * phi) * sin, np.exp(1j * lam) * sin]
    return np.stack([*entries, -cos], axis=-1).reshape(theta.shape + (2, 2))


def complete_polynomial(p_coefs: np.ndarray) -> np.ndarray:
    """Complementary Q with |P(z)|^2 + |Q(z)|^2 = 1 on the unit circle.

    Spectral (Fejer-Riesz) factorization of G = 1 - |P|^2 by the cepstral
    route: exponentiating the analytic half of log G on a fine FFT grid
    yields the outer factor, whose conjugate reversal is the factor with
    all roots inside the disk.  That convention keeps Q's leading
    coefficient of order one, which the angle peeling needs.  No
    polynomial root-finding is involved, so the construction stays
    accurate at degrees in the thousands.
    """
    p_coefs = np.asarray(p_coefs, dtype=complex)
    d = len(p_coefs) - 1
    grid = 1 << max(13, (8 * (d + 1) - 1).bit_length())
    p_sq = np.abs(_circle_values(p_coefs, grid))
    np.square(p_sq, out=p_sq)
    g = 1.0 - p_sq
    g_max = float(np.max(g))
    if g_max <= 4.0 * ADMISSIBLE_SLACK:
        # |P| = 1 identically (a pure monomial): Q vanishes.
        return np.zeros(d + 1, dtype=complex)
    if float(np.min(g)) <= 0.0:
        raise CompletionError(
            "|P| reaches 1 on the unit circle; rescale P by (1 - 1e-6) before completing"
        )
    # The ufuncs write into the grid arrays they read, and each FFT's input is
    # dropped once it is used: ``g`` holds log G, then |Q|^2 and the residual.
    cepstrum = np.fft.ifft(np.log(g, out=g))
    cepstrum[0] = 0.5 * cepstrum[0]
    cepstrum[grid // 2 :] = 0.0  # keep the analytic half
    outer_vals = np.fft.fft(cepstrum)
    del cepstrum
    np.exp(outer_vals, out=outer_vals)
    outer = np.fft.ifft(outer_vals)
    del outer_vals
    spill = float(np.max(np.abs(outer[d + 1 : grid - d])))
    q_coefs = np.conj(outer[d::-1])
    del outer
    q_sq = np.abs(_circle_values(q_coefs, grid), out=g)
    np.square(q_sq, out=q_sq)
    q_sq += p_sq
    q_sq -= 1.0
    residual = float(np.max(np.abs(q_sq, out=q_sq)))
    if residual > COMPLETION_TOL:
        raise CompletionError(
            f"factorization residual {residual:.3e} exceeds {COMPLETION_TOL:.1e} "
            f"(coefficient spill {spill:.3e}); the target grazes the circle"
        )
    return q_coefs


@dataclass(frozen=True)
class GqspAngles:
    """Rotation angles realizing a degree-d polynomial of the signal unitary."""

    theta: np.ndarray
    phi: np.ndarray
    lam: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "theta", read_only(self.theta, float))
        object.__setattr__(self, "phi", read_only(self.phi, float))

    @property
    def degree(self) -> int:
        return len(self.theta) - 1


def synthesize_angles(p_coefs: np.ndarray, q_coefs: np.ndarray) -> GqspAngles:
    """Layer-peel (P, Q) into rotation angles.

    Peels the top degree of the coefficient matrix S = [P; Q] one rotation
    at a time: theta from the magnitudes of the leading pair, phi from
    their relative phase, and lam from the final degree-0 remainder.
    """
    p_row, q_row = (np.asarray(v, dtype=complex) for v in (p_coefs, q_coefs))
    if p_row.shape != q_row.shape:
        raise ValueError("P and Q must share a coefficient length")
    # Strip exactly-padded top degrees (e.g. a completion of lower degree).
    # Only exact zeros: a tiny leading coefficient still fixes a rotation.
    while len(p_row) > 1 and p_row[-1] == 0 and q_row[-1] == 0:
        p_row, q_row = p_row[:-1], q_row[:-1]
    d = len(p_row) - 1
    theta = np.zeros(d + 1)
    phi = np.zeros(d + 1)
    lam = 0.0
    for step in range(d, -1, -1):
        a, b = complex(p_row[step]), complex(q_row[step])
        if a == 0 and b == 0:
            raise SynthesisError(
                f"peeling unstable at degree {step}: leading coefficients vanish"
            )
        theta[step] = math.atan2(abs(b), abs(a))
        # Relative phase; the completion can leave |b| astronomically small
        # (products of in-disk roots), but its phase is still exact, so no
        # magnitude threshold here.  angle(0) == 0 keeps exact zeros benign.
        phi[step] = math.atan2(a.imag, a.real) - math.atan2(b.imag, b.real)
        if step == 0:
            lam = math.atan2(b.imag, b.real)
            break
        # The rows of R(theta, phi)^dag [P; Q], shifted: row 0 drops its
        # lowest degree and row 1 its top degree, which now vanishes.
        cos, sin = math.cos(theta[step]), math.sin(theta[step])
        turn = complex(math.cos(phi[step]), -math.sin(phi[step]))  # exp(-i phi)
        p_row, q_row = (turn * cos * p_row[1:] + sin * q_row[1:],
                        turn * sin * p_row[:-1] - cos * q_row[:-1])
    return GqspAngles(theta, phi, lam)


def gqsp_apply(angles: GqspAngles, u: np.ndarray) -> np.ndarray:
    """Dense (2 dim x 2 dim) unitary of the interleaved rotation circuit.

    The ancilla is the first tensor factor; A applies U on the ancilla-0
    branch and the identity on the ancilla-1 branch.
    """
    dim = u.shape[0]
    eye = np.eye(dim, dtype=complex)
    signal = np.block(
        [[u, np.zeros((dim, dim))], [np.zeros((dim, dim)), eye]]
    )
    full = np.kron(rotation(angles.theta[0], angles.phi[0], angles.lam), eye)
    for j in range(1, angles.degree + 1):
        full = np.kron(rotation(angles.theta[j], angles.phi[j]), eye) @ signal @ full
    return full


def gqsp_cells(angles: GqspAngles, phases: np.ndarray, shift: int) -> np.ndarray:
    """The ``gqsp_apply`` circuit on each eigenvector of a normal signal unitary.

    On the eigenvector with eigenvalue z = e^{i phase}, A acts on the ancilla
    as diag(z, 1): the circuit is one 2x2 product R_d diag(z, 1) ... R_0.
    All cells are folded at once as one 2 x 2N row pair X, X[r, 2j+k] =
    cell_j[r, k]: each degree scales row 0 by z and left-multiplies by R.
    The ancilla-0 row is then multiplied by z^-shift, undoing the monomial
    shift of a Laurent target.  Returns a C-contiguous (len(phases), 2, 2).
    """
    phases = np.asarray(phases, dtype=float)
    n = len(phases)
    z2 = np.repeat(np.exp(1j * phases), 2)
    rots = rotation(angles.theta, angles.phi, np.r_[angles.lam, np.zeros(angles.degree)])
    x = np.tile(rots[0], (1, n))
    for r in rots[1:]:
        x[0] *= z2
        x = r @ x
    x[0] *= np.repeat(np.exp(-1j * shift * phases), 2)
    return np.ascontiguousarray(x.reshape(2, n, 2).transpose(1, 0, 2))


def synthesize_laurent(p: LaurentPoly) -> GqspAngles:
    """Angles for a Laurent target: shift to plain powers, complete, peel.

    The coefficients of z^M P(z) in ascending powers are exactly ``p.c``.
    """
    q_coefs = complete_polynomial(p.c)
    angles = synthesize_angles(p.c, q_coefs)
    residual = np.abs(_circle_values(p.c)) ** 2 + np.abs(_circle_values(q_coefs)) ** 2 - 1.0
    return replace(angles, diagnostics={"completion_residual": float(np.max(np.abs(residual)))})

