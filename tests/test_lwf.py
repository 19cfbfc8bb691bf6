"""Tests for the Fourier approximation of the shifted Gibbs weight.

The target function is f(x) = exp(-beta (x+1)) on [-1+delta, 1-delta];
the approximation is a trigonometric series sum_m c_m exp(i pi m x / 2).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from trottergibbs import lwf
from trottergibbs.lwf import (
    ARCSIN_CAP,
    CERT_GRID,
    LN2,
    ApproximationError,
    FourierApprox,
    _arcsin_pass,
    _assemble,
    _choose_arcsin_order,
    gibbs_fourier,
    gibbs_taylor,
    lwf_coefficients,
    lwf_order,
    taylor_order,
)

from oracles import arcsin_series, fit_slope


def assemble_reference(combined, m_cut):
    """``_assemble`` as one loop per frequency: the kernel the flat-array version replaced.

    Its log-factorials come from SciPy's ``gammaln``, not from the module's table.
    """
    order = len(combined) - 1
    ls = np.arange(order + 1)
    log_fact = gammaln(ls + 1)
    i_pow = np.array([1, 1j, -1, -1j])
    c = np.zeros(2 * m_cut + 1, dtype=complex)
    dropped = 0.0

    def pmf(l, j):
        return np.exp(log_fact[l] - log_fact[j] - log_fact[l - j] - l * LN2)

    for m in range(-m_cut, m_cut + 1):
        lsub = ls[(ls >= abs(m)) & ((ls - m) % 2 == 0)]
        if lsub.size == 0:
            continue
        j = (lsub + m) // 2
        signs = np.where(j % 2 == 0, 1.0, -1.0)
        vals = combined[lsub] * i_pow[lsub % 4] * signs * pmf(lsub, j)
        vals = vals[np.argsort(np.abs(vals))]
        c[m + m_cut] = np.sum(vals)
    for l in range(m_cut + 1, order + 1):
        j = np.arange(0, (l - m_cut - 1) // 2 + 1)
        dropped += 2.0 * abs(combined[l]) * float(np.sum(pmf(l, j)))
    return c, dropped


def reconstruct_reference(approx, x):
    """``FourierApprox.reconstruct`` with one exponential per grid point and frequency."""
    frequencies = np.arange(-approx.M, approx.M + 1)
    phases = np.exp(1j * (math.pi / 2.0) * np.outer(x, frequencies))
    return phases @ approx.c


def truncation_scan(ts, delta, m_list, grid_size=1000, floor_eps=1e-12):
    """Best-achievable sup error for each frequency cutoff in ``m_list``.

    Coefficients are assembled once with a window wide enough for the
    largest requested cutoff, then truncated, so the scan isolates the
    cutoff's contribution from the Taylor and arcsin budgets.
    """
    if not m_list or any(m < 0 for m in m_list):
        raise ValueError("m_list must be non-empty with nonnegative entries")
    m_full = max(m_list)
    _, combined, _ = _choose_arcsin_order(ts, delta, floor_eps)
    c_full, _ = _assemble(combined, m_full)
    grid = np.linspace(-1.0 + delta, 1.0 - delta, grid_size)
    target = np.exp(-ts.beta * (grid + 1.0))
    out = []
    for m in m_list:
        c = c_full[m_full - m : m_full + m + 1]
        phases = np.exp(1j * (math.pi / 2.0) * np.outer(grid, np.arange(-m, m + 1)))
        out.append((m, float(np.max(np.abs(target - phases @ c)))))
    return out


def test_taylor_first_coefficients():
    ts = gibbs_taylor(1.0, 3)
    assert ts.coeffs[0] == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert ts.coeffs[1] == pytest.approx(-math.exp(-1.0), abs=1e-15)
    assert ts.coeffs[2] == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-15)


def test_taylor_one_norm_approaches_one():
    # |a_k| = exp(-beta) beta^k / k! sums to 1 over all k.
    norms = [gibbs_taylor(2.0, k).one_norm for k in (2, 6, 12, 24)]
    assert all(n1 <= n2 + 1e-15 for n1, n2 in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(1.0, abs=1e-12)
    assert gibbs_taylor(2.0, 24).tail_bound < 1e-12


def test_taylor_evaluate_matches_target():
    ts = gibbs_taylor(1.5, 40)
    xs = np.linspace(-1, 1, 11)
    assert np.max(np.abs(ts.evaluate(xs) - np.exp(-1.5 * (xs + 1)))) < 1e-12


def test_taylor_order_example():
    assert taylor_order(2.0, 1e-3) == 9


def test_taylor_order_tail_actually_small():
    for beta in (0.5, 1.0, 4.0, 8.0):
        for eps in (1e-2, 1e-4):
            k = taylor_order(beta, eps)
            assert gibbs_taylor(beta, k).tail_bound < eps / 4


def test_gibbs_taylor_domain():
    with pytest.raises(ValueError):
        gibbs_taylor(-1.0, 4)
    with pytest.raises(ValueError):
        gibbs_taylor(1.0, -1)


def test_arcsin_series_power_zero():
    b = arcsin_series(0, 6)
    assert b[0] == 1.0
    assert np.all(b[1:] == 0.0)


def test_arcsin_series_power_one():
    b = arcsin_series(1, 5)
    assert b[0] == 0.0
    assert b[1] == pytest.approx(2.0 / math.pi, abs=1e-15)
    assert b[2] == 0.0
    assert b[3] == pytest.approx(1.0 / (3.0 * math.pi), abs=1e-15)


def test_arcsin_series_numeric_check():
    # Partial sums converge to ((2/pi) arcsin y)^k inside |y| < 1.
    y = 0.3
    for k in (1, 2, 3):
        b = arcsin_series(k, 60)
        val = float(np.polynomial.polynomial.polyval(y, b))
        want = (2.0 / math.pi * math.asin(y)) ** k
        assert val == pytest.approx(want, abs=1e-12)


def test_arcsin_series_mass_at_most_one():
    # At y=1 the power equals 1, so nonnegative coefficients sum below 1.
    for k in (1, 2, 5):
        b = arcsin_series(k, 80)
        assert np.all(b >= 0)
        assert b.sum() <= 1.0 + 1e-12


def test_lwf_order_example():
    assert lwf_order(1.0, 0.1, 0.04) == 94


def test_lwf_order_clamps_at_zero():
    assert lwf_order(0.2, 0.1, 0.9) == 0


def test_lwf_order_scales_inverse_delta():
    m1 = lwf_order(1.0, 0.2, 1e-4)
    m2 = lwf_order(1.0, 0.1, 1e-4)
    assert abs(m2 / m1 - 2.0) < 0.05


def test_lwf_order_domain():
    with pytest.raises(ValueError):
        lwf_order(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        lwf_order(1.0, 0.1, 1.5)
    with pytest.raises(ValueError):
        lwf_order(0.0, 0.1, 0.1)


def test_fourier_beta_zero_is_constant_series():
    f = gibbs_fourier(0.0, 0.5, 1e-3)
    assert f.c[f.M] == pytest.approx(1.0, abs=1e-12)
    assert f.one_norm == pytest.approx(1.0, abs=1e-12)
    assert f.sup_error() == pytest.approx(0.0, abs=1e-12)


def test_fourier_meets_requested_error():
    f = gibbs_fourier(1.0, 0.5, 1e-3)
    assert f.sup_error(1000) <= 1e-3


def test_fourier_one_norm_bounded_by_taylor_norm():
    for beta in (0.5, 1.0, 2.0, 4.0):
        f = gibbs_fourier(beta, 1.0 / max(beta, 1.0), 1e-4)
        assert f.one_norm <= 1.0 + 1e-12


def test_fourier_reconstruction_is_real_on_grid():
    f = gibbs_fourier(2.0, 0.5, 1e-4)
    xs = np.linspace(-0.5, 0.5, 101)
    assert np.max(np.abs(f.reconstruct(xs).imag)) < 1e-4


def test_fourier_certificates_across_beta():
    for beta in (1.0, 2.0, 4.0, 8.0):
        f = gibbs_fourier(beta, 1.0 / beta, 1e-4)
        assert f.sup_error(1000) <= 1e-4, f"beta={beta}"


def test_certify_returns_the_window_sup_error():
    f = gibbs_fourier(4.0, 0.25, 1e-6)
    assert f.certify() == f.sup_error(CERT_GRID) <= 1e-6
    # Assembly leaves the check to certify: the split carries no grid error.
    assert "grid_sup_error" not in f.diagnostics


def test_certify_refuses_a_series_past_eps_with_the_split():
    f = gibbs_fourier(2.0, 0.5, 1e-6)
    f.c[f.M] += 1e-5
    with pytest.raises(ApproximationError, match="certificate failed") as exc_info:
        f.certify()
    split = exc_info.value.split
    assert split["grid_sup_error"] == f.sup_error() > 1e-6
    assert split["taylor_tail"] == f.diagnostics["taylor_tail"]


def test_lwf_coefficients_reports_budget_split_on_failure():
    with pytest.raises(ApproximationError) as exc_info:
        lwf_coefficients(gibbs_taylor(4.0, 2), 0.25, 1e-8)
    assert getattr(exc_info.value, "split", None)
    assert "taylor" in str(exc_info.value).lower()


def test_truncation_scan_monotone():
    scan = truncation_scan(gibbs_taylor(1.0, 30), 0.5, [4, 8, 16, 32])
    errs = [e for _, e in scan]
    assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))


def test_truncation_scan_geometric_rate_matches_delta():
    # Truncation error decays like exp(-M delta / 2): the log-slope halves
    # when delta halves.
    ts = gibbs_taylor(1.0, 40)
    ms = [8, 16, 24, 32, 40]
    slopes = {}
    for delta in (0.5, 0.25):
        scan = truncation_scan(ts, delta, ms)
        slopes[delta] = -fit_slope(ms, [math.log(e) for _, e in scan])
        assert slopes[delta] == pytest.approx(delta / 2.0, rel=0.35)
    ratio = slopes[0.5] / slopes[0.25]
    assert abs(ratio - 2.0) < 0.5


def test_truncation_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        truncation_scan(gibbs_taylor(1.0, 10), 0.5, [])
    with pytest.raises(ValueError):
        truncation_scan(gibbs_taylor(1.0, 10), 0.5, [-1, 4])


def test_fourier_approx_dataclass_fields():
    f = gibbs_fourier(1.0, 0.5, 1e-3)
    assert isinstance(f, FourierApprox)
    assert len(f.c) == 2 * f.M + 1
    assert f.beta == 1.0 and f.delta == 0.5
    assert f.eps == 1e-3


def counting(monkeypatch, name):
    """Replace lwf.<name> by a wrapper that counts its calls."""
    calls = []
    real = getattr(lwf, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lwf, name, wrapper)
    return calls


def test_one_arcsin_pass_per_order_tried(monkeypatch):
    # Orders 64, 128 and 256 are tried; the last pass also feeds the
    # coefficients and the arcsin_tail diagnostic.
    calls = counting(monkeypatch, "_arcsin_pass")
    f = gibbs_fourier(4.0, 0.25, 1e-6)
    assert f.diagnostics["arcsin_order"] == 256
    assert [order for *_, order in calls] == [64, 128, 256]


def test_arcsin_cap_error_reports_the_last_pass(monkeypatch):
    ts = gibbs_taylor(2.0, taylor_order(2.0, 1e-9))
    calls = counting(monkeypatch, "_arcsin_pass")
    with pytest.raises(ApproximationError) as exc_info:
        lwf_coefficients(ts, 0.02, 1e-9)
    assert [order for *_, order in calls] == [64 * 2**i for i in range(7)]
    assert exc_info.value.split["arcsin_tail"] == _arcsin_pass(ts, 0.02, ARCSIN_CAP)[1]


def test_factorial_table_is_scipy_gammaln_to_the_bit():
    # Entry n is log n! = gammaln(n + 1): every integer 1..ARCSIN_CAP + 1.
    table = lwf._log_factorials(ARCSIN_CAP)
    want = gammaln(np.arange(1, ARCSIN_CAP + 2, dtype=float))
    assert table.tobytes() == want.tobytes()
    assert not table.flags.writeable
    # A larger order grows the table past the cap, on the same recurrence.
    wide = lwf._log_factorials(2 * ARCSIN_CAP)
    assert wide.tobytes() == gammaln(np.arange(1, 2 * ARCSIN_CAP + 2, dtype=float)).tobytes()


def test_factorial_table_is_built_once_per_process(monkeypatch):
    _, combined, _ = _choose_arcsin_order(gibbs_taylor(2.0, 20), 0.5, 1e-6)
    lwf._log_factorials.cache_clear()
    lwf._arcsin_base.cache_clear()
    calls = counting(monkeypatch, "_lgam")
    c, dropped = _assemble(combined, 12)
    _assemble(combined, 20)
    _choose_arcsin_order(gibbs_taylor(3.0, 30), 0.25, 1e-6)  # rebuilds the arcsin base
    # One entry per n = 0..ARCSIN_CAP, for the first _assemble only.
    assert len(calls) == ARCSIN_CAP + 1
    assert lwf._log_factorials.cache_info().misses == 1
    assert len(c) == 25 and dropped > 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.0, 10.0, exclude_min=True),
    st.floats(0.1, 1.0),
    st.floats(1e-8, 1e-2),
    st.sampled_from([64, 128, 256, 512, 1024]),
)
def test_assemble_and_reconstruct_match_loop_references_bit_for_bit(beta, delta, eps, order):
    # Flat-array _assemble and the half-exponential reconstruct against the
    # per-frequency loops they replaced: every byte of c, dropped and the
    # certificate-grid values.  The Taylor order and window are sized as
    # gibbs_fourier sizes them; the arcsin order is drawn, so that orders
    # the doubling rarely reaches are covered too.
    ts = gibbs_taylor(beta, taylor_order(beta, eps))
    m_cut = lwf_order(ts.one_norm, delta, eps)
    combined, _ = _arcsin_pass(ts, delta, order)
    c, dropped = _assemble(combined, m_cut)
    c_ref, dropped_ref = assemble_reference(combined, m_cut)
    assert c.tobytes() == c_ref.tobytes()
    assert dropped == dropped_ref
    approx = FourierApprox(beta, delta, m_cut, c, eps)
    grid = np.linspace(-1.0 + delta, 1.0 - delta, CERT_GRID)
    assert approx.reconstruct(grid).tobytes() == reconstruct_reference(approx, grid).tobytes()


@pytest.mark.parametrize("order", [64, 256, 1024])
@pytest.mark.parametrize("m_cut", [0, 1, 40, 200, 1100])
def test_assemble_matches_loop_reference_at_every_window(order, m_cut):
    # Windows narrower and wider than the arcsin order, including m_cut >= order
    # (no dropped tail, empty frequency runs) and m_cut = 0 (one run).
    combined, _ = _arcsin_pass(gibbs_taylor(3.0, 40), 0.3, order)
    c, dropped = _assemble(combined, m_cut)
    c_ref, dropped_ref = assemble_reference(combined, m_cut)
    assert c.tobytes() == c_ref.tobytes()
    assert dropped == dropped_ref


def test_assemble_matches_loop_reference_at_the_arcsin_cap():
    # Only an arcsin order of ARCSIN_CAP reads the last entry of the table.
    combined, _ = _arcsin_pass(gibbs_taylor(3.0, 20), 0.3, ARCSIN_CAP)
    for m_cut in (0, 200):
        c, dropped = _assemble(combined, m_cut)
        c_ref, dropped_ref = assemble_reference(combined, m_cut)
        assert c.tobytes() == c_ref.tobytes()
        assert dropped == dropped_ref


@pytest.mark.parametrize("order", [0, 1, 2, 7, 64, 129])
def test_assemble_matches_loop_reference_with_every_run_length(order):
    # m_cut = order puts runs of every length 1..order//2+1 into one call, and
    # m_cut = order + 7 adds rows of length 0; odd orders pair the lengths
    # differently from the powers of two the arcsin doubling produces.
    rng = np.random.default_rng(order)
    combined = rng.standard_normal(order + 1) * np.exp(-0.05 * np.arange(order + 1))
    for m_cut, shortest in ((order, 1), (order + 7, 0)):
        lengths = {len(range(abs(m), order + 1, 2)) for m in range(-m_cut, m_cut + 1)}
        assert lengths == set(range(shortest, order // 2 + 2))
        c, dropped = _assemble(combined, m_cut)
        c_ref, dropped_ref = assemble_reference(combined, m_cut)
        assert c.tobytes() == c_ref.tobytes()
        assert dropped == dropped_ref


def sup_error_reference(approx, grid_size):
    grid = np.linspace(-1.0 + approx.delta, 1.0 - approx.delta, grid_size)
    target = np.exp(-approx.beta * (grid + 1.0))
    return float(np.max(np.abs(target - reconstruct_reference(approx, grid))))


@pytest.mark.parametrize("grid_size", [2, 999, 1000, 1001])
@pytest.mark.parametrize(
    "make",
    [
        lambda: gibbs_fourier(2.0, 0.5, 1e-6),
        lambda: gibbs_fourier(4.0, 0.25, 1e-6),
        # M = 0: the conjugate half of the table has zero width.
        lambda: FourierApprox(1.0, 0.5, 0, np.array([0.3 - 0.2j]), 1e-3),
    ],
    ids=["beta2", "beta4", "M0"],
)
def test_certificate_matches_dense_reference_bit_for_bit(make, grid_size):
    # The CLI writes sup_error to the lwf-convergence CSV, so the certificate
    # itself is pinned, not only reconstruct on the default grid.
    approx = make()
    grid = np.linspace(-1.0 + approx.delta, 1.0 - approx.delta, grid_size)
    want = reconstruct_reference(approx, grid)
    assert approx.reconstruct(grid).tobytes() == want.tobytes()
    assert approx.sup_error(grid_size) == sup_error_reference(approx, grid_size)
    # Like np.outer in the reference, any input shape is read flattened.
    assert approx.reconstruct(grid.reshape(-1, 1)).tobytes() == want.tobytes()
    assert approx.reconstruct(grid[0]).tobytes() == reconstruct_reference(approx, grid[0]).tobytes()
