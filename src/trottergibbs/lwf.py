"""Low-weight Fourier approximation of the Boltzmann factor.

The target is f(x) = exp(-beta (x+1)) on [-1+delta, 1-delta].  Starting
from the Taylor coefficients a_k = exp(-beta) (-beta)^k / k!, each monomial
x^k is rewritten through x = (2/pi) arcsin(sin(pi x / 2)):

    x^k = sum_l b_l^k sin^l(pi x / 2),

and sin^l is expanded into exponentials, keeping only frequencies |m| <= M:

    f(x) ~ sum_{m=-M}^{M} c_m exp(i pi m x / 2).

The payoff is the one-norm bound ||c||_1 <= ||a||_1, which certifies the
coefficients as an admissible polynomial target for unitary processing on
the whole unit circle, not just on the approximation window.

Each arcsin order tried, doubled until the window tail is below eps/8,
costs one pass that yields both B_l = sum_k a_k b_l^k and that tail.  The
pass forms each power b^k from the last by one Cauchy product with the
arcsin series, itself a slice of one series kept up to ARCSIN_CAP.  The
collapse to frequencies then reads one log-factorial table.  That table,
log n! for n = 0..ARCSIN_CAP, is built once per process in scalar Python
from Cephes' ``lgam`` recurrence, which matches SciPy's ``gammaln`` bit for
bit on these integers; the coefficients depend on those last bits, and the
module needs nothing beyond NumPy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

LN2 = math.log(2.0)
ARCSIN_START = 64  # first arcsin order tried; doubled up to ARCSIN_CAP
ARCSIN_CAP = 4096
CERT_GRID = 1000  # window points on which FourierApprox.certify checks the series


# Cephes lgam: Stirling correction polynomial for 13 <= x < 1000, highest power first.
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LOG_SQRT_2PI = 0.91893853320467274178


def _lgam(x: float) -> float:
    """log Gamma(x) at an integer x >= 1, by Cephes' ``lgam`` with ``math.log``.

    This is the branch SciPy's ``gammaln`` takes at positive integers, so the
    bits agree.  ``math.lgamma`` differs from it in the last bit on many
    integers, and numpy's ``log`` may differ from libm's.
    """
    if x < 13.0:
        return math.log(math.factorial(int(x) - 1))
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    poly = 0.0
    for a in _LGAM_A:
        poly = poly * p + a
    return q + poly / x


@functools.lru_cache(maxsize=2)
def _log_factorials(order: int) -> np.ndarray:
    """Read-only table of log n!, n = 0..order; callers pass max(order, ARCSIN_CAP)."""
    table = np.array([_lgam(n + 1.0) for n in range(order + 1)])
    table.flags.writeable = False
    return table


class ApproximationError(ValueError):
    """Requested accuracy is unattainable; carries the error split."""

    def __init__(self, message: str, split: dict | None = None):
        super().__init__(message)
        self.split = split or {}


@dataclass
class TaylorSeries:
    """Truncated Taylor expansion of exp(-beta (x+1)) around 0."""

    beta: float
    coeffs: np.ndarray  # a_k = exp(-beta) (-beta)^k / k!, k = 0..K

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def one_norm(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    @property
    def tail_bound(self) -> float:
        """l1 mass beyond order K; the full series has one-norm exactly 1."""
        return max(0.0, 1.0 - self.one_norm)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coeffs)


def gibbs_taylor(beta: float, order: int) -> TaylorSeries:
    """Taylor coefficients of exp(-beta (x+1)) up to the given order."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = np.empty(order + 1)
    coeffs[0] = math.exp(-beta)
    for k in range(1, order + 1):
        coeffs[k] = coeffs[k - 1] * (-beta) / k
    return TaylorSeries(beta, coeffs)


def taylor_order(beta: float, eps: float) -> int:
    """Smallest K with exp(-beta) beta^(K+1) / (K+1)! < eps / 8.

    The leading-term rule only bounds the tail once the terms are actually
    decaying (K >= beta), so the true l1 tail is required to be under the
    same budget as well.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    k = 0
    term = math.exp(-beta) * beta  # order K=0 bound: term for k=1
    partial = math.exp(-beta)
    while term >= eps / 8.0 or 1.0 - partial >= eps / 8.0:
        k += 1
        partial += term
        term *= beta / (k + 1)
        if k > 10_000:
            raise ApproximationError("Taylor order does not converge")
    return k


@functools.lru_cache(maxsize=2)
def _arcsin_base(order: int) -> np.ndarray:
    """Read-only series of (2/pi) arcsin(y) up to y^order; every order tried slices it.

    The odd coefficient of y^(2j+1) is (2/pi) C(2j, j) / (4^j (2j+1)).  Its
    log reads log (2j)! and log j! from the ``_log_factorials`` table;
    ``math.log`` and ``math.exp`` stay per element, since numpy's may differ
    from them in the last bit.
    """
    log_fact = _log_factorials(order)
    j = np.arange((order + 1) // 2)
    odd = 2 * j + 1
    log_c = log_fact[2 * j] - 2 * log_fact[j] - j * 2 * LN2 - [math.log(v) for v in odd]
    base = np.zeros(order + 1)
    base[1::2] = [(2.0 / math.pi) * math.exp(v) for v in log_c]
    base.flags.writeable = False
    return base


def lwf_order(one_norm_a: float, delta: float, eps: float) -> int:
    """Fourier cutoff M = max(2 ceil(ln(4 ||a||_1 / eps) / delta), 0)."""
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if one_norm_a <= 0:
        raise ValueError("one_norm_a must be positive")
    return max(2 * math.ceil(math.log(4.0 * one_norm_a / eps) / delta), 0)


@dataclass
class FourierApprox:
    """Assembled coefficients c_m, m = -M..M, and the a-priori error split."""

    beta: float
    delta: float
    M: int
    c: np.ndarray  # complex, index m + M
    eps: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def one_norm(self) -> float:
        return float(np.sum(np.abs(self.c)))

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        """sum_m c_m exp(i pi m x / 2), from one (x.size, 2M+1) table filled in place.

        Frequencies 0..M are exponentiated into the right half; the left half
        takes their conjugates, which are exactly the columns of -m.
        """
        x = np.asarray(x, dtype=float).ravel()
        m = self.M
        table = np.empty((len(x), 2 * m + 1), dtype=complex)
        np.exp(1j * ((math.pi / 2.0) * np.outer(x, np.arange(m + 1))), out=table[:, m:])
        np.conjugate(table[:, : m : -1], out=table[:, :m])
        return table @ self.c

    def sup_error(self, grid_size: int = CERT_GRID) -> float:
        grid = np.linspace(-1.0 + self.delta, 1.0 - self.delta, grid_size)
        return float(np.max(np.abs(np.exp(-self.beta * (grid + 1.0)) - self.reconstruct(grid))))

    def certify(self) -> float:
        """Sup error on CERT_GRID window points; past eps, ApproximationError with the split."""
        sup_err = self.sup_error()
        if sup_err > self.eps:
            raise ApproximationError(
                f"certificate failed: grid error {sup_err:.3e} > eps {self.eps:.3e}",
                split={**self.diagnostics, "grid_sup_error": sup_err},
            )
        return sup_err


def _arcsin_pass(ts: TaylorSeries, delta: float, order: int) -> tuple[np.ndarray, float]:
    """One sweep over the arcsin powers (b^k)_l, k = 1..K, truncated at y^order.

    Returns B_l = sum_k a_k b_l^k, the y-series of f pulled through arcsin,
    and the l1 mass the truncation leaves behind on the window, where
    y <= y_max = cos(pi delta / 2) and ((2/pi) arcsin(y_max))^k = (1 - delta)^k.
    """
    base = _arcsin_base(max(order, ARCSIN_CAP))[: order + 1]
    damp = math.cos(math.pi * delta / 2.0) ** np.arange(order + 1)
    acc = np.zeros(order + 1)
    acc[0] = 1.0
    combined = ts.coeffs[0] * acc
    tail = 0.0
    full = 1.0
    for k in range(1, len(ts.coeffs)):
        acc = np.convolve(acc, base)[: order + 1]
        combined = combined + ts.coeffs[k] * acc
        full *= 1.0 - delta
        tail += abs(ts.coeffs[k]) * max(0.0, full - float(np.dot(acc, damp)))
    return combined, tail


def _choose_arcsin_order(
    ts: TaylorSeries, delta: float, eps: float
) -> tuple[int, np.ndarray, float]:
    """Double the arcsin order until its tail is below eps/8: (order, B_l, tail)."""
    order = ARCSIN_START
    while True:
        combined, tail = _arcsin_pass(ts, delta, order)
        if tail < eps / 8.0:
            return order, combined, tail
        if order >= ARCSIN_CAP:
            raise ApproximationError(
                f"arcsin truncation at L={order} cannot reach eps={eps:.3e}",
                split={"arcsin_tail": tail},
            )
        order *= 2


def _row_sums(pad: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum of the first lengths[r] entries of each row r of ``pad``.

    Rows of equal length are summed together along axis 1, which runs the
    same pairwise tree as a 1-D ``.sum()`` on each row's prefix.
    """
    by_length = np.argsort(lengths)
    sorted_lengths = lengths[by_length]
    starts = np.flatnonzero(np.diff(sorted_lengths, prepend=-1)).tolist()
    out = np.empty(len(lengths), dtype=pad.dtype)
    for start, end in zip(starts, starts[1:] + [len(lengths)]):
        rows = by_length[start:end]
        out[rows] = pad[rows, : sorted_lengths[start]].sum(axis=1)
    return out


def _assemble(combined: np.ndarray, m_cut: int) -> tuple[np.ndarray, float]:
    """Collapse the triple sum to coefficients c_m, |m| <= m_cut.

    For fixed l the frequency is m = 2j - l with binomial index j, so each
    (l, m) pair contributes B_l i^l (-1)^j binom(l, j) / 2^l.  The pairs are
    laid out padded, one row per frequency with l = |m| + 2k ascending along
    the row.  One stable sort of the +inf-padded magnitudes orders every run
    by ascending magnitude, to control round-off, and runs of equal length
    are summed together.  Returns the coefficients and the l1 mass dropped
    outside the window.
    """
    order = len(combined) - 1
    log_fact = _log_factorials(max(order, ARCSIN_CAP))
    i_pow = np.array([1, 1j, -1, -1j])  # exact powers of i

    def pmf(l, j):  # binom(l, j) / 2^l
        return np.exp(log_fact[l] - log_fact[j] - log_fact[l - j] - l * LN2)

    # Entry k of the row of frequency m has l = |m| + 2k.  Row sums of the sorted
    # rows and a sequential `cumsum` over the tails give the bits of a loop per frequency.
    keep = np.abs(np.arange(-m_cut, m_cut + 1))[:, None] + 2 * np.arange(order // 2 + 1) <= order
    run, k = np.nonzero(keep)
    m = run - m_cut
    lsub = np.abs(m) + 2 * k
    j = (lsub + m) // 2
    signs = np.where(j % 2 == 0, 1.0, -1.0)
    vals = combined[lsub] * i_pow[lsub % 4] * signs * pmf(lsub, j)
    pad = np.zeros(keep.shape, dtype=complex)
    pad[keep] = vals
    mag = np.full(keep.shape, np.inf)
    mag[keep] = np.abs(vals)
    pad = np.take_along_axis(pad, np.argsort(mag, axis=1, kind="stable"), axis=1)
    c = _row_sums(pad, keep.sum(axis=1))
    # l1 mass of the dropped binomial tails, j <= (l - m_cut - 1) // 2, for the error report.
    ls = np.arange(m_cut + 1, order + 1)
    keep = np.arange((order - m_cut + 1) // 2) <= ((ls - m_cut - 1) // 2)[:, None]
    row, j = np.nonzero(keep)
    pad = np.zeros(keep.shape)
    pad[keep] = pmf(ls[row], j)
    tails = _row_sums(pad, keep.sum(axis=1))
    dropped = np.cumsum(np.concatenate([[0.0], 2.0 * np.abs(combined[ls]) * tails]))[-1]
    return c, float(dropped)


def lwf_coefficients(ts: TaylorSeries, delta: float, eps: float) -> FourierApprox:
    """Assemble the Fourier coefficients; ``FourierApprox.certify`` checks them on the window.

    Raises ApproximationError, with the Taylor/arcsin error split, when the
    requested eps is out of reach for the given Taylor order or arcsin cap,
    or when the assembled one-norm exceeds the Taylor one-norm.
    """
    m_cut = lwf_order(ts.one_norm, delta, eps)
    taylor_tail = ts.tail_bound
    if taylor_tail >= eps / 4.0:
        raise ApproximationError(
            f"Taylor tail {taylor_tail:.3e} >= eps/4 = {eps / 4.0:.3e}; "
            "increase the Taylor order",
            split={"taylor_tail": taylor_tail, "eps": eps},
        )
    order, combined, arcsin_tail = _choose_arcsin_order(ts, delta, eps)
    c, dropped = _assemble(combined, m_cut)
    approx = FourierApprox(ts.beta, delta, m_cut, c, eps)
    approx.diagnostics = {
        "taylor_order": ts.order,
        "arcsin_order": order,
        "taylor_tail": taylor_tail,
        "arcsin_tail": arcsin_tail,
        "binomial_dropped": dropped,
    }
    if approx.one_norm > ts.one_norm + 1e-12:
        raise ApproximationError(
            f"one-norm grew: ||c||_1 = {approx.one_norm:.6f} > ||a||_1 = {ts.one_norm:.6f}"
        )
    return approx


def gibbs_fourier(beta: float, delta: float, eps: float) -> FourierApprox:
    """One-call construction: size the Taylor order, then assemble."""
    ts = gibbs_taylor(beta, taylor_order(beta, eps))
    return lwf_coefficients(ts, delta, eps)
