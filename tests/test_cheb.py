"""Tests for Chebyshev interpolation to zero and its error bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trottergibbs.cheb import (
    basis_matrix,
    cheb_grid,
    exact_partition,
    interpolate_to_zero,
    node_angles,
)
from trottergibbs.syk import build_syk_hamiltonian, normalize_one_norm, sample_syk

from oracles import dense_partition

# Frozen regression value for the bundled reference instance (n=8, seed=7).
REFERENCE_Z_BETA2 = 1.0482918981949414


def polyfit_extrapolation(f, m):
    """Independent oracle: fit the unique degree-(M-1) interpolant, read 0."""
    g = cheb_grid(m)
    coeffs = np.polynomial.polynomial.polyfit(g.nodes, f(g.nodes), m - 1)
    return float(np.polynomial.polynomial.polyval(0.0, coeffs))


def test_single_node_grid():
    g = cheb_grid(1)
    assert g.nodes == pytest.approx([0.0], abs=1e-16)
    assert g.weights == pytest.approx([1.0], abs=1e-15)


def test_two_node_grid_values():
    g = cheb_grid(2)
    root = math.sqrt(2) / 2
    assert np.allclose(sorted(g.nodes), [-root, root], atol=1e-15)
    assert np.allclose(g.weights, [0.5, 0.5], atol=1e-15)


def test_nodes_are_chebyshev_roots_descending():
    for m in (3, 8, 17):
        g = cheb_grid(m)
        want = np.cos((2 * np.arange(1, m + 1) - 1) * np.pi / (2 * m))
        assert np.allclose(g.nodes, want, atol=1e-15)
        assert np.all(np.diff(g.nodes) < 0)


def test_weights_sum_to_one():
    for m in range(1, 33):
        g = cheb_grid(m)
        assert abs(g.weights.sum() - 1.0) < 1e-12, f"m={m}"


def test_basis_matrix_orthonormal():
    for m in (2, 8, 16, 32):
        u = basis_matrix(m)
        gram = u @ u.T
        assert np.max(np.abs(gram - np.eye(m))) < 1e-10, f"m={m}"


def test_closed_form_weights_even_orders():
    # d_k = (-1)^(k + M/2) tan(theta_k) / M for even M; the constructor
    # cross-checks this internally, so building the grid is the assertion.
    for m in range(2, 34, 2):
        g = cheb_grid(m)
        k = np.arange(1, m + 1)
        theta = node_angles(m)
        closed = np.where((k + m // 2) % 2 == 0, 1.0, -1.0) * np.tan(theta) / m
        assert np.max(np.abs(g.weights - closed)) < 1e-10, f"m={m}"


def test_monomial_extrapolation_exact():
    # Interpolation is exact on polynomials of degree < M, so the weights
    # must reproduce the monomial value at 0 (1 for s^0, else 0).
    for m in range(1, 17):
        g = cheb_grid(m)
        for deg in range(m):
            got = float(g.weights @ g.nodes**deg)
            want = 1.0 if deg == 0 else 0.0
            assert abs(got - want) < 1e-12, f"m={m} deg={deg}"


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 16).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=m),
        )
    )
)
def test_extrapolation_is_exact_on_polynomials_property(case):
    # A polynomial of degree < M is its own interpolant, so the weighted
    # node sum returns its constant coefficient up to rounding.  Below the
    # smallest normal float rounding is absolute, hence the 1e-300 floor.
    m, coeffs = case
    g = cheb_grid(m)
    values = np.polynomial.polynomial.polyval(g.nodes, coeffs)
    got = interpolate_to_zero(values, g)
    assert abs(got - coeffs[0]) <= 1e-12 * float(np.sum(np.abs(coeffs))) + 1e-300


def test_constant_function_extrapolates_exactly():
    g = cheb_grid(6)
    assert interpolate_to_zero(np.full(6, 3.25), g) == pytest.approx(3.25, abs=1e-12)


def test_square_function_three_nodes():
    g = cheb_grid(3)
    assert interpolate_to_zero(g.nodes**2, g) == pytest.approx(0.0, abs=1e-14)


def test_interpolate_matches_polyfit_oracle():
    rng = np.random.default_rng(61)
    for m in (4, 8, 11):
        g = cheb_grid(m)
        vals = rng.standard_normal(m)
        coeffs = np.polynomial.polynomial.polyfit(g.nodes, vals, m - 1)
        want = float(np.polynomial.polynomial.polyval(0.0, coeffs))
        assert interpolate_to_zero(vals, g) == pytest.approx(want, abs=1e-10)


def test_cos_extrapolation_error_is_aliasing_limited():
    # The M=8 interpolant of cos carries the f's Chebyshev coefficients
    # beyond degree 7 as aliasing error, about 2 J_8(1) ~ 1.9e-7: the
    # weights must reproduce the interpolant (checked against an
    # independent fit), not beat it.
    g = cheb_grid(8)
    got = interpolate_to_zero(np.cos(g.nodes), g)
    oracle = polyfit_extrapolation(np.cos, 8)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert 1.5e-7 < abs(got - 1.0) < 2.2e-7
    # Four more nodes push an entire function's error down five decades.
    g12 = cheb_grid(12)
    assert abs(interpolate_to_zero(np.cos(g12.nodes), g12) - 1.0) < 2e-12


def test_exp_extrapolation_converges_geometrically():
    errs = []
    for m in (4, 6, 8, 10):
        g = cheb_grid(m)
        errs.append(abs(interpolate_to_zero(np.exp(-2.0 * g.nodes), g) - 1.0))
    assert all(a / b > 3.0 for a, b in zip(errs, errs[1:]))


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        cheb_grid(0)
    with pytest.raises(ValueError):
        interpolate_to_zero(np.ones(3), cheb_grid(4))


def bernstein_bound(c: float, rho: float, m_cheb: int) -> float:
    """Sup-norm interpolation error bound 4 C rho^-(M-1) / (rho - 1).

    C bounds |f| on the Bernstein ellipse with parameter rho > 1.
    """
    if c <= 0.0:
        raise ValueError("ellipse bound C must be positive")
    if rho <= 1.0:
        raise ValueError("rho must exceed 1; the degenerate ellipse has no interior")
    return 4.0 * c * rho ** (-(m_cheb - 1)) / (rho - 1.0)


def test_bernstein_bound_value():
    assert bernstein_bound(1.0, 2.0, 11) == pytest.approx(0.00390625, abs=1e-15)
    with pytest.raises(ValueError):
        bernstein_bound(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        bernstein_bound(0.0, 2.0, 4)


def test_bernstein_bound_dominates_observed_error():
    # f(s) = exp(-beta s) is entire; on the ellipse with parameter rho its
    # modulus is at most exp(beta (rho + 1/rho) / 2).
    beta = 2.0
    for rho in (2.0, 4.0):
        c = math.exp(beta * (rho + 1.0 / rho) / 2.0)
        for m in (4, 8, 12):
            g = cheb_grid(m)
            err = abs(interpolate_to_zero(np.exp(-beta * g.nodes), g) - 1.0)
            assert err <= bernstein_bound(c, rho, m), f"rho={rho} m={m}"


def test_exact_partition_trivial_values():
    assert dense_partition(np.zeros((4, 4)), 3.0) == pytest.approx(1.0, abs=1e-15)
    z = np.diag([1.0, -1.0]).astype(complex)
    assert dense_partition(z, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-14)


def test_exact_partition_accepts_terms_and_matches_dense():
    h, _ = normalize_one_norm(build_syk_hamiltonian(sample_syk(8, seed=7)))
    via_terms = exact_partition(h, 2.0)
    via_dense = dense_partition(h.dense(), 2.0)
    assert via_terms == pytest.approx(via_dense, rel=1e-14)
    assert via_terms == pytest.approx(REFERENCE_Z_BETA2, rel=1e-12)
