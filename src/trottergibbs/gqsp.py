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
from dataclasses import dataclass

import numpy as np

from .linalg import read_only

ADMISSIBLE_SLACK = 1e-9
CIRCLE_SAMPLES = 4096
COMPLETION_TOL = 1e-8


class CompletionError(ValueError):
    """Spectral factorization is degenerate: |P| = 1 somewhere on the circle."""


class SynthesisError(ValueError):
    """Angle peeling hit an unstable (vanishing leading coefficient) step."""


def _circle_values(coefs: np.ndarray, n: int | None = None) -> np.ndarray:
    """Polynomial values on n evenly spaced points of the unit circle.

    By default n is CIRCLE_SAMPLES, or the next power of two that holds every
    coefficient: an FFT shorter than the coefficients would crop them.
    """
    if n is None:
        n = max(CIRCLE_SAMPLES, 1 << (len(coefs) - 1).bit_length())
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
    d = len(p_row) - 1
    while d > 0 and p_row[d] == 0 and q_row[d] == 0:
        d -= 1
    s = np.stack([p_row[: d + 1], q_row[: d + 1]])  # [P; Q], peeled in place
    # shifted[k, r] = row r of S read k degrees lower: s[r, 1:] for k = 0, s[r, :-1] for k = 1.
    shifted = np.lib.stride_tricks.as_strided(s[:, 1:], (2, 2, d), (-s.strides[1], *s.strides))
    mix = np.empty((2, 2, 1), dtype=complex)  # R(theta, phi)^dag, each row against its shift
    entries = mix.reshape(4)
    theta = np.zeros(d + 1)
    phi = np.zeros(d + 1)
    lam = 0.0
    for step in range(d, -1, -1):
        a, b = s[:, step].tolist()
        if a == 0 and b == 0:
            raise SynthesisError(
                f"peeling unstable at degree {step}: leading coefficients vanish"
            )
        theta[step] = angle = math.atan2(abs(b), abs(a))
        # Relative phase; the completion can leave |b| astronomically small
        # (products of in-disk roots), but its phase is still exact, so no
        # magnitude threshold here.  angle(0) == 0 keeps exact zeros benign.
        phi[step] = phase = math.atan2(a.imag, a.real) - math.atan2(b.imag, b.real)
        if step == 0:
            lam = math.atan2(b.imag, b.real)
            break
        # The rows of R(theta, phi)^dag [P; Q], shifted: row 0 drops its
        # lowest degree and row 1 its top degree, which now vanishes.
        cos, sin = math.cos(angle), math.sin(angle)
        turn = complex(math.cos(phase), -math.sin(phase))  # exp(-i phi)
        entries[0], entries[1], entries[2], entries[3] = turn * cos, sin, turn * sin, -cos
        mixed = mix * shifted[:, :, :step]
        np.add(mixed[:, 0], mixed[:, 1], out=s[:, :step])
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
    as diag(z, 1): the circuit is one 2x2 product F_d ... F_1 F_0 of the
    factors F_j = R_j diag(z, 1), with F_0 = R_0.  The factors of every
    eigenvalue are laid out at once, entry first, and multiplied as a
    balanced pairwise tree: each level takes elementwise 2x2 products of
    adjacent factors, an odd last factor moving up unpaired, so about
    log2(d) levels replace one product per degree.  The ancilla-0 row is
    then multiplied by z^-shift, undoing the monomial shift of a Laurent
    target.  Returns a C-contiguous (len(phases), 2, 2).
    """
    phases = np.asarray(phases, dtype=float)
    z = np.exp(1j * phases)
    r = rotation(angles.theta, angles.phi, np.r_[angles.lam, np.zeros(angles.degree)])
    r = r.transpose(1, 2, 0)  # r[:, :, j] = R_j
    count, half = r.shape[2], r.shape[2] // 2
    later, earlier = r[:, :, 1::2, None], r[:, :, : 2 * half : 2, None]
    # The first level, f[:, :, i] = F_2i+1 F_2i on each eigenvalue, from scalars:
    # R' diag(z, 1) R = A z + B, with A[r, c] = R'[r, 0] R[0, c] and B[r, c] = R'[r, 1] R[1, c].
    f = np.empty((2, 2, count - half, len(z)), dtype=complex)
    np.multiply(later[:, :1] * earlier[0], z, out=f[:, :, :half])
    f[:, :, :half] += later[:, 1:] * earlier[1]
    f[:, :, half:] = r[:, :, 2 * half :, None]
    f[:, 0, 1:] *= z  # the diag(z, 1) on the right of every factor but F_0 = R_0
    while (count := f.shape[2]) > 1:
        half = count // 2
        later, earlier = f[:, :, 1::2], f[:, :, : 2 * half : 2]
        up = np.empty((2, 2, count - half, len(z)), dtype=complex)
        np.multiply(later[:, :1], earlier[0], out=up[:, :, :half])
        up[:, :, :half] += later[:, 1:] * earlier[1]
        up[:, :, half:] = f[:, :, 2 * half :]
        f = up
    cells = f[:, :, 0]
    cells[0] *= np.exp(-1j * shift * phases)
    return np.ascontiguousarray(cells.transpose(2, 0, 1))


def synthesize_laurent(p: LaurentPoly) -> GqspAngles:
    """Angles for a Laurent target: shift to plain powers, complete, peel.

    The coefficients of z^M P(z) in ascending powers are exactly ``p.c``.
    ``complete_polynomial`` has already checked |P|^2 + |Q|^2 = 1 on its
    own grid, so no residual is recomputed here.
    """
    return synthesize_angles(p.c, complete_polynomial(p.c))

