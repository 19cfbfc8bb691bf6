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
arcsin series, itself a slice of one series kept up to ARCSIN_CAP.  A
lower bound on every order's tail, from partial sums of that series and a
closed form past the cap, is computed first: orders it proves too short
run no pass, and a budget that even ARCSIN_CAP cannot meet is refused
before any.  The collapse to frequencies then reads one log-factorial
table.  That table, log n! for n = 0..ARCSIN_CAP, is built once per
process in scalar Python from Cephes' ``lgam`` recurrence, which matches
SciPy's ``gammaln`` bit for bit on these integers; the coefficients
depend on those last bits, and the module needs nothing beyond NumPy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import read_only

LN2 = math.log(2.0)
ARCSIN_START = 64  # first arcsin order tried; doubled up to ARCSIN_CAP
ARCSIN_CAP = 4096
ARCSIN_ORDERS = tuple(ARCSIN_START << i for i in range((ARCSIN_CAP // ARCSIN_START).bit_length()))
ARCSIN_REL_ERR = 2e-11  # bound on |b_l / exact - 1| over the _arcsin_base entries; a test checks it
TAIL_SLACK = 1e-6  # relative cut that keeps a floating tail sum below the exact one
UNIT_ROUNDOFF = 2.0**-53
CERT_GRID = 1000  # window points on which FourierApprox.certify checks the series
ROW_CHUNK = 32  # frequency rows _assemble lays out at once


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


@functools.cache
def _log_factorials() -> np.ndarray:
    """Read-only table of log n!, n = 0..ARCSIN_CAP."""
    table = np.array([_lgam(n + 1.0) for n in range(ARCSIN_CAP + 1)])
    table.flags.writeable = False
    return table


class ApproximationError(ValueError):
    """Requested accuracy is unattainable; carries the error split."""

    def __init__(self, message: str, split: dict | None = None):
        super().__init__(message)
        self.split = split or {}


@dataclass(frozen=True)
class TaylorSeries:
    """Truncated Taylor expansion of exp(-beta (x+1)) around 0."""

    beta: float
    coeffs: np.ndarray  # a_k = exp(-beta) (-beta)^k / k!, k = 0..K

    def __post_init__(self):
        object.__setattr__(self, "coeffs", read_only(self.coeffs, float))

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


@functools.cache
def _arcsin_base() -> np.ndarray:
    """Read-only series of (2/pi) arcsin(y) up to y^ARCSIN_CAP; every order tried slices it.

    The odd coefficient of y^(2j+1) is (2/pi) C(2j, j) / (4^j (2j+1)).  Its
    log reads log (2j)! and log j! from the ``_log_factorials`` table;
    ``math.log`` and ``math.exp`` stay per element, since numpy's may differ
    from them in the last bit.
    """
    log_fact = _log_factorials()
    j = np.arange((ARCSIN_CAP + 1) // 2)
    odd = 2 * j + 1
    log_c = log_fact[2 * j] - 2 * log_fact[j] - j * 2 * LN2 - [math.log(v) for v in odd]
    base = np.zeros(ARCSIN_CAP + 1)
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


@dataclass(frozen=True)
class FourierApprox:
    """Assembled coefficients c_m, m = -M..M, and the a-priori error split."""

    beta: float
    delta: float
    M: int
    c: np.ndarray  # complex, index m + M
    eps: float
    diagnostics: dict = field(default_factory=dict)
    series: np.ndarray | None = None  # the y-series B_l that c was collapsed from, if known

    def __post_init__(self):
        object.__setattr__(self, "c", read_only(self.c, complex))
        if self.series is not None:
            object.__setattr__(self, "series", read_only(self.series, float))

    @property
    def one_norm(self) -> float:
        return float(np.sum(np.abs(self.c)))

    @property
    def binomial_dropped(self) -> float | None:
        """l1 mass the window |m| <= M drops from the binomial collapse; None without ``series``.

        No node reads it, so it is computed on each read, not with the coefficients.
        """
        return None if self.series is None else _binomial_dropped(self.series, self.M)

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        """sum_m c_m exp(i pi m x / 2), in balanced chunks of at most CERT_GRID points.

        Each chunk fills one (points, 2M+1) table in place: frequencies 0..M
        are exponentiated into the right half, and the left half takes their
        conjugates, which are exactly the columns of -m.  Memory is then
        bounded at any grid size, and the values are those of one whole
        table: each point is its own row of ``table @ c``.  Balanced chunks
        leave no one-row chunk behind, which numpy would run as a dot
        product with other bits than a matrix-vector row.
        """
        x = np.asarray(x, dtype=float).ravel()
        m = self.M
        chunks = []
        for part in np.array_split(x, max(1, -(-len(x) // CERT_GRID))):
            table = np.empty((len(part), 2 * m + 1), dtype=complex)
            np.exp(1j * ((math.pi / 2.0) * np.outer(part, np.arange(m + 1))), out=table[:, m:])
            np.conjugate(table[:, : m : -1], out=table[:, :m])
            chunks.append(table @ self.c)
        return np.concatenate(chunks)

    def sup_error(self, grid_size: int = CERT_GRID) -> float:
        grid = np.linspace(-1.0 + self.delta, 1.0 - self.delta, grid_size)
        return float(np.max(np.abs(np.exp(-self.beta * (grid + 1.0)) - self.reconstruct(grid))))

    def certify(self) -> float:
        """Sup error on CERT_GRID window points; past eps, ApproximationError with the split."""
        sup_err = self.sup_error()
        if sup_err > self.eps:
            raise ApproximationError(
                f"certificate failed: grid error {sup_err:.3e} > eps {self.eps:.3e}",
                split={**self.diagnostics, "binomial_dropped": self.binomial_dropped,
                       "grid_sup_error": sup_err},
            )
        return sup_err


def _arcsin_pass(ts: TaylorSeries, delta: float, order: int) -> tuple[np.ndarray, float]:
    """One sweep over the arcsin powers (b^k)_l, k = 1..K, truncated at y^order.

    Returns B_l = sum_k a_k b_l^k, the y-series of f pulled through arcsin,
    and the l1 mass the truncation leaves behind on the window, where
    y <= y_max = cos(pi delta / 2) and ((2/pi) arcsin(y_max))^k = (1 - delta)^k.
    """
    base = _arcsin_base()[: order + 1]
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


def _arcsin_tail_bounds(ts: TaylorSeries, delta: float) -> dict[int, float]:
    """Lower bound on the tail ``_arcsin_pass(ts, delta, L)`` reports, per order L in ARCSIN_ORDERS.

    At y = cos(pi delta / 2), f = (2/pi) arcsin has f(y) = 1 - delta.  Its
    coefficients are nonnegative and start at y^1, so every product in
    trunc_L(f^k) has all k factors of degree <= L - k + 1: trunc_L(f^k) <=
    f_(L-k+1)^k, with f_n = f - t_n the truncation at y^n.  The pass's
    exact tail is then at least LB(L) = sum_k |a_k| ((1 - delta)^k -
    g_k^k)^+ for any g_k >= f_(L-k+1)(y), and g_k = f(y) - t_(L-k+1) is
    bounded above through ``math.asin`` and a lower bound on each t_n: the
    suffix of ``_arcsin_base`` past y^n plus, past ARCSIN_CAP, the integral
    of y^(2x+1) / (pi (2 + 1/J) x^(3/2)) from J = (ARCSIN_CAP + 1) // 2,
    which C(2j, j)/4^j >= 1/(2 sqrt j) puts below the terms in y^(2j+1),
    j >= J.  The tail sums give up TAIL_SLACK of themselves to rounding.

    From LB(L) the bound subtracts what rounding can take off the pass's
    tail.  Each Cauchy product sums at most L + 1 nonnegative terms, so the
    computed b^k and its window value sit within a relative (k + 1)(L + 1)u,
    plus k ARCSIN_REL_ERR from the base, of the exact ones, with u the unit
    roundoff; the (1 - delta)^k products, the final sum and LB's own
    arithmetic add (k + K + 8)u.  Twice sum_k |a_k| (k + 1)((L + 3)u +
    ARCSIN_REL_ERR) + 4 (K + 8)u covers all of it.
    """
    y = math.cos(math.pi * delta / 2.0)
    odd = np.full(len(_arcsin_base()) // 2, y * y)  # y^l at odd l = 2j + 1 <= ARCSIN_CAP
    odd[0] = y
    np.cumprod(odd, out=odd)
    odd *= _arcsin_base()[1::2]
    j_cap = len(odd)
    rate = -2.0 * math.log(y)  # y^(2x) = e^(-rate x)
    z = rate * j_cap
    if z > 700.0:  # e^-z underflows; the integral is below every other rounding here
        integral = 0.0
    else:  # int_J^inf e^(-rate x) x^(-3/2) dx, in closed form
        integral = 2.0 * math.exp(-z) / math.sqrt(j_cap)
        integral -= 2.0 * math.sqrt(math.pi * rate) * math.erfc(math.sqrt(z))
    past_cap = y * max(integral, 0.0) / (math.pi * (2.0 + 1.0 / j_cap))
    suffix = np.zeros(j_cap + 1)  # suffix[j]: the terms from l = 2j + 1 on
    np.cumsum(odd[::-1], out=suffix[-2::-1])
    suffix += past_cap
    suffix *= 1.0 - TAIL_SLACK  # suffix[(n + 1) // 2] <= t_n
    f_hi = (2.0 / math.pi) * math.asin(y) * (1.0 + 16.0 * UNIT_ROUNDOFF)

    # One row per order L, one column per Taylor power k.
    orders = np.array(ARCSIN_ORDERS)
    weights = np.abs(ts.coeffs[1:])
    k = np.arange(1, len(ts.coeffs))
    g = np.maximum(f_hi - suffix[np.maximum((orders[:, None] - k + 2) // 2, 0)], 0.0)
    lb = np.maximum((1.0 - delta) ** k - g**k, 0.0) @ weights
    drift = float(np.dot(k + 1, weights))
    rounding = 2.0 * drift * ((orders + 3) * UNIT_ROUNDOFF + ARCSIN_REL_ERR)
    rounding += 4.0 * (len(ts.coeffs) + 7) * UNIT_ROUNDOFF
    return dict(zip(ARCSIN_ORDERS, np.maximum(lb - rounding, 0.0).tolist()))


def _choose_arcsin_order(
    ts: TaylorSeries, delta: float, eps: float
) -> tuple[int, np.ndarray, float]:
    """Double the arcsin order until its tail is below eps/8: (order, B_l, tail).

    An order whose ``_arcsin_tail_bounds`` entry reaches eps/8 would fail its
    pass, so it is skipped, and when ARCSIN_CAP's does the budget is refused
    before any pass runs.  The order returned is the one plain doubling
    returns, from the same pass.
    """
    refusal = f"arcsin truncation at L={ARCSIN_CAP} cannot reach eps={eps:.3e}"
    bounds = _arcsin_tail_bounds(ts, delta)
    if bounds[ARCSIN_CAP] >= eps / 8.0:
        raise ApproximationError(refusal, split={"arcsin_tail_bound": bounds[ARCSIN_CAP]})
    for order, bound in bounds.items():
        if bound < eps / 8.0:
            combined, tail = _arcsin_pass(ts, delta, order)
            if tail < eps / 8.0:
                return order, combined, tail
    raise ApproximationError(refusal, split={"arcsin_tail": tail})


def _row_sums(pad: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum of the first lengths[r] entries of each row r of ``pad``.

    Each run of adjacent rows of equal length is summed together along axis
    1, which runs the same pairwise tree as a 1-D ``.sum()`` on each row's
    prefix.
    """
    starts = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist(), len(lengths)]
    out = np.empty(len(lengths), dtype=pad.dtype)
    for start, end in zip(starts, starts[1:]):
        out[start:end] = pad[start:end, : lengths[start]].sum(axis=1)
    return out


def _row_blocks(width: np.ndarray):
    """(rows, keep, run, col) per ROW_CHUNK rows; keep marks each row's first width entries."""
    for start in range(0, len(width), ROW_CHUNK):
        rows = slice(start, start + ROW_CHUNK)
        keep = np.arange(width[rows].max()) < width[rows, None]
        yield (rows, keep, *np.nonzero(keep))


def _pmf(l: np.ndarray, j: np.ndarray) -> np.ndarray:
    """binom(l, j) / 2^l from the log-factorial table."""
    log_fact = _log_factorials()
    return np.exp(log_fact[l] - log_fact[j] - log_fact[l - j] - l * LN2)


def _assemble(combined: np.ndarray, m_cut: int) -> np.ndarray:
    """Collapse the triple sum to coefficients c_m, |m| <= m_cut.

    For fixed l the frequency is m = 2j - l with binomial index j, so each
    (l, m) pair contributes B_l i^l (-1)^j binom(l, j) / 2^l.  The row of
    frequency m holds its pairs with l = |m| + 2k ascending, and rows are
    laid out ROW_CHUNK at a time, padded to the widest row of the block, so
    transient memory is O(ROW_CHUNK L).  One stable sort of the
    +inf-padded magnitudes orders every row by ascending magnitude, to
    control round-off, and rows of equal length are summed together.
    """
    order = len(combined) - 1
    i_pow = np.array([1, 1j, -1, -1j])  # exact powers of i

    # Entry k of the row of frequency m has l = |m| + 2k <= order.  Row sums of the sorted
    # rows give the bits of a loop per frequency.  Rows go in |m| order, 0, 1, -1, 2, -2, ...:
    # the width falls with |m|, so the (up to four) rows of each width are adjacent, each
    # block pads over few widths, and `_row_sums` sums each run of them as one slice.
    freqs = np.zeros(2 * m_cut + 1, dtype=int)
    freqs[1::2] = np.arange(1, m_cut + 1)
    freqs[2::2] = -freqs[1::2]
    width = np.maximum((order - np.abs(freqs)) // 2 + 1, 0)
    c = np.empty(len(freqs), dtype=complex)
    for rows, keep, run, k in _row_blocks(width):
        m = freqs[rows][run]
        lsub = np.abs(m) + 2 * k
        j = (lsub + m) // 2
        signs = np.where(j % 2 == 0, 1.0, -1.0)
        vals = combined[lsub] * i_pow[lsub % 4] * signs * _pmf(lsub, j)
        pad = np.zeros(keep.shape, dtype=complex)
        pad[keep] = vals
        mag = np.full(keep.shape, np.inf)
        mag[keep] = np.abs(vals)
        pad = np.take_along_axis(pad, np.argsort(mag, axis=1, kind="stable"), axis=1)
        c[freqs[rows] + m_cut] = _row_sums(pad, width[rows])
    return c


def _binomial_dropped(combined: np.ndarray, m_cut: int) -> float:
    """l1 mass of the binomial tails j <= (l - m_cut - 1) // 2 that frequencies past m_cut drop.

    Tail rows, one per l > m_cut, are laid out and summed as ``_assemble``
    lays out its frequency rows, and a sequential ``cumsum`` adds them up:
    the bits of a loop over l.
    """
    order = len(combined) - 1
    ls = np.arange(m_cut + 1, order + 1)
    width = (ls - m_cut + 1) // 2
    tails = np.empty(len(ls))
    for rows, keep, run, j in _row_blocks(width):
        pad = np.zeros(keep.shape)
        pad[keep] = _pmf(ls[rows][run], j)
        tails[rows] = _row_sums(pad, width[rows])
    return float(np.cumsum(np.concatenate([[0.0], 2.0 * np.abs(combined[ls]) * tails]))[-1])


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
    diagnostics = {
        "taylor_order": ts.order,
        "arcsin_order": order,
        "taylor_tail": taylor_tail,
        "arcsin_tail": arcsin_tail,
    }
    c = _assemble(combined, m_cut)
    approx = FourierApprox(ts.beta, delta, m_cut, c, eps, diagnostics, series=combined)
    if approx.one_norm > ts.one_norm + 1e-12:
        raise ApproximationError(
            f"one-norm grew: ||c||_1 = {approx.one_norm:.6f} > ||a||_1 = {ts.one_norm:.6f}"
        )
    return approx


def gibbs_fourier(beta: float, delta: float, eps: float) -> FourierApprox:
    """One-call construction: size the Taylor order, then assemble."""
    ts = gibbs_taylor(beta, taylor_order(beta, eps))
    return lwf_coefficients(ts, delta, eps)
