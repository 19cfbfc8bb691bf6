"""Tests for Laurent-polynomial block synthesis on a signal unitary."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trottergibbs.gqsp import (
    ADMISSIBLE_SLACK,
    CompletionError,
    SynthesisError,
    complete_polynomial,
    gqsp_apply,
    gqsp_cells,
    rotation,
    synthesize_angles,
    synthesize_laurent,
)
from trottergibbs.linalg import max_abs
from trottergibbs.lwf import gibbs_fourier

from oracles import (
    CIRCLE,
    completion_reference,
    completion_residual,
    direct_poly_apply,
    extract_block,
    haar_unitary,
    random_laurent,
    verify_block,
)

def circle_values(coefs):
    return np.polynomial.polynomial.polyval(CIRCLE, np.asarray(coefs, complex))


def peel_reference(p_coefs, q_coefs):
    """``synthesize_angles`` as one 2x2 rotation matmul per degree: the kernel the row peeling replaced."""
    s = np.vstack([np.asarray(p_coefs, complex), np.asarray(q_coefs, complex)])
    while s.shape[1] > 1 and np.all(s[:, -1] == 0):
        s = s[:, :-1]
    d = s.shape[1] - 1
    theta = np.zeros(d + 1)
    phi = np.zeros(d + 1)
    lam = 0.0
    for step in range(d, -1, -1):
        a, b = s[0, step], s[1, step]
        if math.hypot(abs(a), abs(b)) == 0.0:
            raise SynthesisError(f"peeling unstable at degree {step}")
        theta[step] = math.atan2(abs(b), abs(a))
        phi[step] = float(np.angle(a)) - float(np.angle(b))
        if step == 0:
            lam = float(np.angle(b))
            break
        s = rotation(theta[step], phi[step]).conj().T @ s
        s = np.vstack([s[0, 1 : step + 1], s[1, 0:step]])
    return theta, phi, lam


def cells_reference(angles, phases, shift):
    """``gqsp_cells`` as a batched (N, 2, 2) matmul per degree: the fold the 2 x 2N row pair replaced."""
    phases = np.asarray(phases, dtype=float)[:, None]
    z = np.exp(1j * phases)
    theta, phi, lam = angles
    rots = rotation(theta, phi, np.r_[lam, np.zeros(len(theta) - 1)])
    cells = np.tile(rots[0], (len(z), 1, 1))
    for r in rots[1:]:
        cells[:, 0, :] *= z
        cells = r @ cells
    cells[:, 0, :] *= np.exp(-1j * shift * phases)
    return cells


def angle_gap(a, b):
    """Largest gap between two angle arrays, modulo 2 pi."""
    return float(np.max(np.abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b)))))))


def test_rotation_at_zero_angles():
    assert np.allclose(rotation(0.0, 0.0, 0.0), np.diag([1.0, -1.0]), atol=1e-15)


def test_rotation_quarter_turn_is_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(rotation(math.pi / 2, 0.0, 0.0), x, atol=1e-15)


def test_rotation_unitary():
    rng = np.random.default_rng(31)
    for _ in range(20):
        r = rotation(*rng.uniform(-math.pi, math.pi, size=3))
        assert max_abs(r @ r.conj().T - np.eye(2)) < 1e-14


def test_rotation_of_arrays_is_rotation_of_each_entry():
    rng = np.random.default_rng(38)
    theta = rng.uniform(-math.pi, math.pi, size=(3, 5))
    phi = rng.uniform(-math.pi, math.pi, size=5)
    lam = rng.uniform(-math.pi, math.pi, size=(3, 1))
    rots = rotation(theta, phi, lam)
    assert rots.shape == (3, 5, 2, 2)
    for i in range(3):
        for j in range(5):
            assert np.array_equal(rots[i, j], rotation(theta[i, j], phi[j], lam[i, 0]))
    assert rotation(0.3, 0.4).shape == (2, 2)


def circle_block(c):
    """Diagonal of the synthesized block on a signal with eigenvalues on the circle."""
    angles = synthesize_laurent(c)
    z = CIRCLE[::256]
    return angles, np.diag(extract_block(gqsp_apply(angles, np.diag(z)))), z


def test_monomial_shift_constant():
    _, block, z = circle_block([0.5])
    assert np.max(np.abs(block - 0.5)) < 1e-12


def test_monomial_shift_symmetric_pair():
    # z^M P(z) = 0.45 + 0.45 z^2: the coefficient array read as plain powers.
    _, block, z = circle_block([0.45, 0.0, 0.45])
    assert np.max(np.abs(block - z * (0.45 / z + 0.45 * z))) < 1e-10


def test_monomial_shift_preserves_circle_values():
    rng = np.random.default_rng(32)
    for _ in range(10):
        m = int(rng.integers(1, 6))
        c = random_laurent(rng, m)
        _, block, z = circle_block(c)
        freqs = np.arange(-m, m + 1)
        want = (z**m) * (z[:, None] ** freqs @ c)
        assert np.max(np.abs(block - want)) < 1e-9


def test_synthesis_rejects_p_and_q_of_different_lengths():
    with pytest.raises(ValueError, match="P and Q must share a coefficient length"):
        synthesize_angles(np.array([0.5, 0.0]), np.array([0.5, 0.0, 0.0]))


def test_laurent_rejects_inadmissible():
    # |P(1)| = 3: the completion refuses it, and so the Laurent synthesis.
    for synthesize in (complete_polynomial, synthesize_laurent):
        with pytest.raises(ValueError, match=r"not admissible: max \|P\| on circle = 3\.0"):
            synthesize([1.0, 1.0, 1.0])


def test_laurent_rejects_a_top_coefficient_past_the_circle_samples():
    # 2M + 1 = 4201 coefficients exceed 4096 circle samples; |P| = 2 everywhere
    # through the top one alone, which a 4096-point FFT would crop away.  The
    # completion's grid, at least 8 (2M + 1) points, holds it.
    c = np.zeros(4201, dtype=complex)
    c[-1] = 2.0
    for synthesize in (complete_polynomial, synthesize_laurent):
        with pytest.raises(ValueError, match="not admissible"):
            synthesize(c)


def test_completion_refuses_a_modulus_past_one_before_its_monomial_shortcut():
    # |P| = 1.01 everywhere: 1 - |P|^2 is constant, which the |P| = 1
    # shortcut once read as a vanishing Q, and a NaN coefficient once
    # completed to a NaN Q.  Within the slack, |P| = 1 still completes to Q = 0.
    with pytest.raises(ValueError, match=r"not admissible: max \|P\| on circle = 1\.01"):
        complete_polynomial([1.01])
    with pytest.raises(ValueError, match=r"not admissible: max \|P\| on circle = nan"):
        synthesize_laurent([0.1, math.nan, 0.1])
    assert np.all(complete_polynomial([1.0 + 0.5 * ADMISSIBLE_SLACK]) == 0)


def test_completion_residual_reads_every_coefficient_past_the_circle_samples():
    # P = 0.3 (z^-2100 + z^2100): on a cropped grid neither P nor its
    # completion has its top coefficient, and the residual read 0.9.
    c = np.zeros(4201, dtype=complex)
    c[0] = c[-1] = 0.3
    synthesize_laurent(c)
    assert completion_residual(c) <= 1e-9


@pytest.mark.parametrize("degree", [2, 262, 1000, 2000])
def test_completion_is_byte_identical_to_the_out_of_place_reference(degree):
    # The in-place grid buffers run the same ufuncs on the same values.
    # Degree 2000 takes the next grid size, 16384 points.
    rng = np.random.default_rng(degree)
    m = degree // 2
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    c *= np.exp(-np.abs(np.arange(-m, m + 1)) / 20.0)
    c *= 0.9 / np.max(np.abs(np.fft.fft(c, 1 << 16)))
    assert complete_polynomial(c).tobytes() == completion_reference(c).tobytes()


def test_complete_pure_monomial_gives_zero():
    q = complete_polynomial(np.array([0.0, 1.0]))
    assert np.all(q == 0)


def test_complete_constant_half():
    q = complete_polynomial(np.array([0.5 + 0j]))
    assert len(q) == 1
    assert abs(q[0]) == pytest.approx(math.sqrt(3) / 2, abs=1e-10)


def test_complete_random_targets_residual():
    rng = np.random.default_rng(33)
    for _ in range(10):
        m = int(rng.integers(1, 9))
        coefs = random_laurent(rng, m)
        q = complete_polynomial(coefs)
        res = np.abs(circle_values(coefs)) ** 2 + np.abs(circle_values(q)) ** 2 - 1.0
        assert np.max(np.abs(res)) <= 1e-9


def test_complete_grazing_target_raises():
    # P(z) = (1 + z)/2 attains |P(1)| = 1, so 1 - |P|^2 has a circle zero.
    with pytest.raises(CompletionError):
        complete_polynomial(np.array([0.5, 0.5]))


def test_synthesize_identity_signal_polynomial():
    # P(z) = z with Q = 0: the circuit block must equal U itself.
    angles = synthesize_angles(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    theta, phi, _ = angles
    assert len(theta) == len(phi) == 2
    assert np.allclose(theta, 0.0, atol=1e-12)
    rng = np.random.default_rng(34)
    u = haar_unitary(rng, 4)
    block = extract_block(gqsp_apply(angles, u))
    assert max_abs(block - u) < 1e-12


def test_synthesize_constant_target():
    c = 0.5
    q = complete_polynomial(np.array([c + 0j]))
    angles = synthesize_angles(np.array([c + 0j]), q)
    assert len(angles[0]) == 1
    u = haar_unitary(np.random.default_rng(35), 3)
    block = extract_block(gqsp_apply(angles, u))
    assert max_abs(block - c * np.eye(3)) < 1e-12


def test_synthesize_angle_count_matches_degree():
    rng = np.random.default_rng(36)
    theta, phi, _ = synthesize_laurent(random_laurent(rng, 4))
    # 2M+1 rotations interleave 2M signal applications.
    assert len(theta) == 2 * 4 + 1
    assert len(phi) == len(theta)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 150))
@example(seed=1, m=130)
@example(seed=2, m=150)
def test_synthesize_angles_matches_matmul_peeling(seed, m):
    # Random admissible targets up to degree 300 (the disorder workload
    # reaches about 260): row peeling and the 2x2-matmul reference agree.
    c = random_laurent(np.random.default_rng(seed), m)
    q = complete_polynomial(c)
    (theta, phi, lam), want = synthesize_angles(c, q), peel_reference(c, q)
    assert len(theta) == len(phi) == len(want[0])
    assert np.max(np.abs(theta - want[0])) <= 1e-12
    assert angle_gap(phi, want[1]) <= 1e-12
    assert angle_gap(lam, want[2]) <= 1e-12


@pytest.mark.parametrize("beta, delta, eps", [(4.0, 0.25, 1e-6), (8.0, 0.125, 1e-8)])
def test_synthesize_angles_matches_matmul_peeling_on_gibbs_targets(beta, delta, eps):
    # A Gibbs target's completion has leading coefficients whose phase is
    # rounding noise, so single angles may differ at 1e-10; the circuits the
    # two angle sets build agree.
    f = gibbs_fourier(beta, delta, eps)
    q = complete_polynomial(f.c)
    got, want = synthesize_angles(f.c, q), peel_reference(f.c, q)
    assert len(got[0]) == len(want[0]) == 2 * f.M + 1
    phases = np.linspace(-math.pi, math.pi, 257)
    assert max_abs(gqsp_cells(got, phases, f.M) - gqsp_cells(want, phases, f.M)) <= 1e-12


@pytest.mark.parametrize("length", [1, 2, 5])
def test_synthesize_angles_refuses_vanishing_leading_pair(length):
    zeros = np.zeros(length, dtype=complex)
    with pytest.raises(SynthesisError):
        synthesize_angles(zeros, zeros)
    with pytest.raises(SynthesisError):
        peel_reference(zeros, zeros)


def test_gqsp_apply_unitary():
    rng = np.random.default_rng(37)
    angles = synthesize_laurent(random_laurent(rng, 3))
    u = haar_unitary(rng, 4)
    full = gqsp_apply(angles, u)
    assert max_abs(full @ full.conj().T - np.eye(8)) < 1e-10


def test_gqsp_apply_degree_zero_is_single_rotation():
    angles = np.array([0.3]), np.array([0.4]), 0.2
    u = haar_unitary(np.random.default_rng(38), 3)
    full = gqsp_apply(angles, u)
    assert max_abs(full - np.kron(rotation(0.3, 0.4, 0.2), np.eye(3))) < 1e-14


def test_extract_block_shape():
    full = np.arange(36, dtype=complex).reshape(6, 6)
    blk = extract_block(full)
    assert blk.shape == (3, 3)
    assert np.array_equal(blk, full[:3, :3])


def test_direct_poly_apply_identity_and_signal():
    u = haar_unitary(np.random.default_rng(39), 4)
    ident = direct_poly_apply([1.0], u)
    assert max_abs(ident - np.eye(4)) < 1e-14
    shifted = direct_poly_apply([0.0, 0.0, 1.0], u)
    assert max_abs(shifted - u) < 1e-14


def test_direct_poly_apply_matches_eigen_functional_calculus():
    rng = np.random.default_rng(40)
    phases = rng.uniform(-math.pi / 2, math.pi / 2, size=5)
    u = np.diag(np.exp(1j * phases))
    c = random_laurent(rng, 4)
    got = np.diag(direct_poly_apply(c, u))
    freqs = np.arange(-4, 4 + 1)
    want = np.exp(1j * np.outer(phases, freqs)) @ c
    assert np.max(np.abs(got - want)) < 1e-12


def test_verify_block_random_targets():
    rng = np.random.default_rng(41)
    for trial in range(10):
        m = int(rng.integers(1, 9))
        dim = int(rng.integers(2, 9))
        c = random_laurent(rng, m)
        angles = synthesize_laurent(c)
        u = haar_unitary(rng, dim)
        assert verify_block(angles, u, c) <= 1e-8, f"trial {trial}"


def test_verify_block_detects_corruption():
    rng = np.random.default_rng(42)
    c = random_laurent(rng, 3)
    theta, phi, lam = angles = synthesize_laurent(c)
    u = haar_unitary(rng, 4)
    baseline = verify_block(angles, u, c)
    theta = theta.copy()
    theta[1] += 0.05
    assert verify_block((theta, phi, lam), u, c) > max(1e-3, 10 * baseline)


def test_synthesize_laurent_diagnostics():
    c = random_laurent(np.random.default_rng(43), 2)
    theta, _, _ = synthesize_laurent(c)
    assert len(theta) == len(c)
    assert completion_residual(c) <= 1e-9


def test_lwf_coefficients_drive_block_to_gibbs_weight():
    # End-to-end: a Fourier approximation of exp(-beta (x+1)) applied as a
    # Laurent polynomial of the diagonal signal exp(i pi x / 2) reproduces
    # the scalar function on the spectrum.
    beta, delta, eps = 1.0, 0.5, 1e-4
    f = gibbs_fourier(beta, delta, eps)
    xs = np.linspace(-1 + delta, 1 - delta, 7)
    u = np.diag(np.exp(1j * math.pi * xs / 2.0))
    block = direct_poly_apply(f.c, u)
    want = np.exp(-beta * (xs + 1.0))
    assert np.max(np.abs(np.diag(block) - want)) < eps


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.one_of(st.integers(1, 8), st.integers(100, 130)),
    st.integers(1, 8),
)
@example(seed=3, m=130, dim=8)
def test_cells_match_dense_circuit_in_eigenbasis(seed, m, dim):
    # W = V diag(z) V^dag: the dense circuit with its shift undone, seen in
    # the eigenbasis V, is diag(cells[:, r, c]) in each ancilla block, and
    # the C=0 entries are the Laurent target on the eigenvalues.
    rng = np.random.default_rng(seed)
    coefs = random_laurent(rng, m)
    angles = synthesize_laurent(coefs)
    phases = rng.uniform(-math.pi, math.pi, size=dim)
    z = np.exp(1j * phases)
    v = haar_unitary(rng, dim)
    w = (v * z) @ v.conj().T
    undo = np.eye(2 * dim, dtype=complex)
    undo[:dim, :dim] = np.linalg.matrix_power(w.conj().T, m)
    dense = undo @ gqsp_apply(angles, w)
    cells = gqsp_cells(angles, phases, m)
    for r in (0, 1):
        for c in (0, 1):
            part = dense[r * dim : (r + 1) * dim, c * dim : (c + 1) * dim]
            rotated = v.conj().T @ part @ v
            assert max_abs(rotated - np.diag(cells[:, r, c])) <= 1e-12
    laurent = np.polynomial.polynomial.polyval(z, coefs) * z ** (-m)
    assert max_abs(cells[:, 0, 0] - laurent) <= 1e-12


@pytest.mark.parametrize("n", [0, 1, 16])
@pytest.mark.parametrize("degree", [0, 1, 2, 127, 128, 129, 260, 264])
def test_cells_match_batched_fold_reference(degree, n):
    # The balanced pairwise product against the per-degree batched matmul
    # fold, on random angles; 260 and 264 are degrees of the disorder
    # workload, and 2, 127, 128, 129 and 264 leave an odd factor count, to
    # be carried up unpaired, at one or several levels of the tree.
    rng = np.random.default_rng(1000 * degree + n)
    angles = (
        rng.uniform(0, math.pi, degree + 1),
        rng.uniform(-math.pi, math.pi, degree + 1),
        float(rng.uniform(-math.pi, math.pi)),
    )
    phases = rng.uniform(-math.pi, math.pi, n)
    cells = gqsp_cells(angles, phases, degree // 2)
    assert cells.shape == (n, 2, 2)
    assert cells.flags.c_contiguous
    assert max_abs(cells - cells_reference(angles, phases, degree // 2)) <= 1e-14
