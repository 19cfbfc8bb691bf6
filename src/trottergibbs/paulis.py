"""Pauli strings as bitmasks: products, commutation and their action.

A Pauli string is a tensor product of single-qubit operators from
{I, X, Y, Z}, so it is Hermitian and -P is a negative coefficient.  The
phases {+1, +i, -1, -i} of products are tracked by ``multiply_masks`` on
(x, z, phase) integers, which makes strings a convenient carrier for
fermionic operators after a Jordan-Wigner transformation.

A string is held in the symplectic form (Aaronson & Gottesman, PRA 70,
052328, 2004): bitmasks x (X or Y sites) and z (Z or Y sites), qubit 0
the top bit.  On computational basis states it acts as a signed
permutation, P|b> = q (-1)^{|b & z|} |b ^ x>, with q = i^{|x & z|}
because Y = iXZ.  That action is all the product-formula kernel and the
dense sums need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LETTERS = "IXYZ"

# i^k for k = 0..3.  Every real part is +0.0; a literal -1j has real part
# -0.0, which would change the bytes of the q arrays.
_POWERS_OF_I = (1 + 0j, 1j, -1 + 0j, 0 - 1j)

DENSE_QUBIT_CAP = 12


class DimensionCapError(ValueError):
    """Raised when a dense materialization would exceed the qubit cap."""


@dataclass(frozen=True)
class PauliString:
    """A tensor product of Pauli letters, Hermitian and with no phase of its own.

    Bit n_qubits-1-j of ``x`` is set when qubit j carries X or Y, and the
    same bit of ``z`` when it carries Z or Y.
    """

    n_qubits: int
    x: int
    z: int

    def __post_init__(self):
        width = 1 << self.n_qubits
        if not all(isinstance(m, int) and 0 <= m < width for m in (self.x, self.z)):
            raise ValueError(f"masks x={self.x!r}, z={self.z!r} are not ints in [0, {width})")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """The string spelled over "IXYZ", qubit 0 first."""
        if any(ch not in LETTERS for ch in label):
            raise ValueError(f"invalid Pauli letters {label!r}")
        x = z = 0
        for ch in label:
            x = (x << 1) | (ch in "XY")
            z = (z << 1) | (ch in "ZY")
        return cls(len(label), x, z)

    @property
    def q(self) -> complex:
        """The root of unity in P|b> = q (-1)^{|b & z|} |b ^ x>."""
        return _POWERS_OF_I[(self.x & self.z).bit_count() % 4]


def multiply_masks(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """(x, z, phase) of the product of two strings given as (x, z, phase), phases tracked exactly.

    Moving Z^{z_a} past X^{x_b} gives (-1)^{|z_a & x_b|}; the Y counts
    |x & z| convert between the letters and X^x Z^z.
    """
    (ax, az, ap), (bx, bz, bp) = a, b
    x, z = ax ^ bx, az ^ bz
    ys = (ax & az).bit_count() + (bx & bz).bit_count() - (x & z).bit_count()
    return x, z, (ap + bp + ys + 2 * (az & bx).bit_count()) % 4


def pauli_commutes(a: PauliString, b: PauliString) -> bool:
    """True iff the strings commute: |x_a & z_b| + |z_a & x_b| is even."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"size mismatch: {a.n_qubits} vs {b.n_qubits}")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def time_reversal_string(n_qubits: int, x: np.ndarray, z: np.ndarray) -> tuple[int, int] | None:
    """Masks (vx, vz) of a string V with V P V^dag = conj(P) for every term (x, z), or None.

    conj(P) = (-1)^{|x & z|} P, since only Y is imaginary, and
    V P V^dag = (-1)^{|vx & z| + |vz & x|} P.  So V solves one GF(2)
    equation per term in the 2n unknown bits of (vx, vz); with real
    coefficients the antiunitary V conj then commutes with every term.
    Gaussian elimination runs on the 2n-bit rows (z, x) and back-substitutes
    with every free bit 0.  The candidate is then checked on every term with
    the ``parity_signs`` table, which is also how an inconsistent system
    shows: it is None exactly when no such V exists.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for px, pz in set(zip(x.tolist(), z.tolist())):
        row, rhs = (pz << n_qubits) | px, (px & pz).bit_count() & 1
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = (row, rhs)
                break
            row, rhs = row ^ pivots[top][0], rhs ^ pivots[top][1]
    v = 0
    for top in sorted(pivots):
        row, rhs = pivots[top]
        v |= (rhs ^ (row & v).bit_count() & 1) << top
    vx, vz = v >> n_qubits, v & ((1 << n_qubits) - 1)
    signs = parity_signs(n_qubits)
    return (vx, vz) if np.array_equal(signs[vx & z] * signs[vz & x], signs[x & z]) else None


def check_dense_cap(n_qubits: int) -> None:
    """Refuse to materialize more than DENSE_QUBIT_CAP qubits, keeping memory at desk scale."""
    if n_qubits > DENSE_QUBIT_CAP:
        raise DimensionCapError(f"{n_qubits} qubits exceeds dense cap of {DENSE_QUBIT_CAP}")


def parity_signs(n_qubits: int) -> np.ndarray:
    """(-1)^popcount(m) for every m in [0, 2^n), as floats.

    Built by doubling (the top bit flips the sign), so it needs no
    popcount primitive.
    """
    signs = np.ones(1)
    for _ in range(n_qubits):
        signs = np.concatenate([signs, -signs])
    return signs
