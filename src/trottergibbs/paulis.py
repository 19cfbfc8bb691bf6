"""Phased Pauli strings: products, commutation and their bitmask action.

A Pauli string is a tensor product of single-qubit operators from
{I, X, Y, Z} together with a phase from {+1, -1, +i, -i}.  Products of
strings stay in this set, which is what makes them a convenient carrier
for fermionic operators after a Jordan-Wigner transformation.

On computational basis states a string acts as a signed permutation,
P|b> = q (-1)^{|b & z|} |b ^ x>, with bitmasks x (X or Y sites) and
z (Z or Y sites) and a fourth root of unity q; qubit 0 is the top bit.
That action is all the product-formula kernel and the dense sums need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LETTERS = "IXYZ"

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

VALID_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)

# Single-qubit products: _MUL[(a, b)] = (phase, letter) with a*b = phase*letter.
_MUL = {}
for _a in LETTERS:
    for _b in LETTERS:
        _prod = PAULI_MATS[_a] @ PAULI_MATS[_b]
        for _ph in VALID_PHASES:
            for _c in LETTERS:
                if np.allclose(_prod, _ph * PAULI_MATS[_c]):
                    _MUL[(_a, _b)] = (_ph, _c)
del _a, _b, _c, _ph, _prod

DENSE_QUBIT_CAP = 12


class DimensionCapError(ValueError):
    """Raised when a dense materialization would exceed the qubit cap."""


@dataclass(frozen=True)
class PauliString:
    """A phase times a tensor product of Pauli letters.

    ``letters`` is a string over "IXYZ" of length ``n_qubits``; qubit 0 is
    the leftmost letter and the first Kronecker factor.
    """

    n_qubits: int
    letters: str
    phase: complex = 1 + 0j

    def __post_init__(self):
        if len(self.letters) != self.n_qubits:
            raise ValueError(
                f"letters {self.letters!r} does not match n_qubits={self.n_qubits}"
            )
        if any(ch not in LETTERS for ch in self.letters):
            raise ValueError(f"invalid Pauli letters {self.letters!r}")
        ph = complex(self.phase)
        if not any(abs(ph - v) < 1e-12 for v in VALID_PHASES):
            raise ValueError(f"phase {self.phase!r} is not a fourth root of unity")
        # Snap to the exact root of unity so equality and hashing behave.
        object.__setattr__(
            self, "phase", min(VALID_PHASES, key=lambda v: abs(ph - v))
        )

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, "I" * n_qubits)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        return cls(len(label), label)


def pauli_multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product of two Pauli strings, phases tracked exactly."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"size mismatch: {a.n_qubits} vs {b.n_qubits}")
    phase = a.phase * b.phase
    out = []
    for la, lb in zip(a.letters, b.letters):
        ph, lc = _MUL[(la, lb)]
        phase *= ph
        out.append(lc)
    return PauliString(a.n_qubits, "".join(out), phase)


def pauli_commutes(a: PauliString, b: PauliString) -> bool:
    """True iff the strings commute.

    Two Pauli strings commute exactly when the number of sites where both
    act non-trivially with different letters is even.  Phases never matter.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"size mismatch: {a.n_qubits} vs {b.n_qubits}")
    clashes = sum(
        1
        for la, lb in zip(a.letters, b.letters)
        if la != "I" and lb != "I" and la != lb
    )
    return clashes % 2 == 0


def check_dense_cap(n_qubits: int) -> None:
    """Refuse to materialize more than DENSE_QUBIT_CAP qubits, keeping memory at desk scale."""
    if n_qubits > DENSE_QUBIT_CAP:
        raise DimensionCapError(f"{n_qubits} qubits exceeds dense cap of {DENSE_QUBIT_CAP}")


def pauli_masks(p: PauliString) -> tuple[int, int, complex]:
    """Bitmasks (x, z) and phase q with P|b> = q (-1)^{|b & z|} |b ^ x>.

    Y = iXZ, so q is the string's phase times i^(number of Y sites).
    """
    x = z = n_y = 0
    for ch in p.letters:
        x = (x << 1) | (ch in "XY")
        z = (z << 1) | (ch in "ZY")
        n_y += ch == "Y"
    return x, z, p.phase * (1, 1j, -1, -1j)[n_y % 4]


def parity_signs(n_qubits: int) -> np.ndarray:
    """(-1)^popcount(m) for every m in [0, 2^n), as floats.

    Built by doubling (the top bit flips the sign), so it needs no
    popcount primitive.
    """
    signs = np.ones(1)
    for _ in range(n_qubits):
        signs = np.concatenate([signs, -signs])
    return signs
