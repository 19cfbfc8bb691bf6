"""Acceptance gate: ten end-to-end checks over the whole package.

Each test exercises one headline claim at its stated tolerance and emits a
single pass/fail line through the ``criterion_report`` fixture; the lines
are echoed in the terminal summary.
"""

import json
import math

import numpy as np

from trottergibbs.cheb import basis_matrix, cheb_grid, exact_partition, node_angles
from trottergibbs.cli import main as cli_main
from trottergibbs.gqsp import synthesize_laurent
from trottergibbs.lwf import gibbs_fourier
from trottergibbs.pipeline import PipelineConfig, ancilla_savings, run_pipeline
from trottergibbs.syk import HamiltonianTerms, build_syk_hamiltonian, normalize_one_norm, sample_syk
from trottergibbs.thermal import amplitude_estimate
from trottergibbs.trotter import trotter_error_norm

from oracles import (
    build_u_boltz,
    completion_residual,
    fit_slope,
    haar_unitary,
    pauli_model,
    qubit_ledger,
    random_laurent,
    random_pauli_model,
    syk_effective,
    trace_bound_check,
    verify_block,
)


def _r2(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    return 1.0 - float(resid @ resid) / float(total @ total)


def _syk_rescaled(n, seed, one_norm):
    h = build_syk_hamiltonian(sample_syk(n, seed=seed))
    factor = one_norm / h.one_norm
    return HamiltonianTerms(h.n_qubits, [(c * factor, s) for c, s in h.terms])


def test_criterion_01_trotter_order_law(criterion_report):
    # Fitted log-log slopes of ||H_eff(tau) - H|| must match the formula
    # order: within 0.1 for p in {1, 2} and 0.2 for p = 4.  Strong
    # couplings keep the p = 4 signal above the eigensolver noise floor.
    taus = np.geomspace(1e-3, 1e-1, 7)
    syk = _syk_rescaled(8, seed=7, one_norm=64.0)
    rng = np.random.default_rng(5)
    labels = ["XZI", "IYX", "ZIY", "XXZ", "IZZ"]
    rand3 = pauli_model(labels, [float(rng.normal(0.0, 2.0)) for _ in labels])
    failures = []
    slopes = {}
    try:
        for name, model in (("syk8", syk), ("rand3", rand3)):
            for order, tol in ((1, 0.1), (2, 0.1), (4, 0.2)):
                errs = [trotter_error_norm(model, float(t), order) for t in taus]
                s = fit_slope(np.log(taus), np.log(errs))
                slopes[f"{name}/p{order}"] = round(s, 3)
                if abs(s - order) > tol:
                    failures.append(f"{name} p={order}: slope {s:.3f}")
        ok = not failures
        details = f"order-law slopes {slopes}" if ok else "; ".join(failures)
    except Exception as err:  # pragma: no cover - defensive reporting
        ok, details = False, f"error: {err}"
    criterion_report(1, ok, details)
    assert ok, details


def test_criterion_02_fourier_certificate_and_scaling(criterion_report):
    # For beta in {1, 2, 4, 8} with delta = 1/beta: every assembled series
    # meets its sup-error certificate on a 1000-point grid, the frequency
    # cutoff grows linearly in ln(1/eps) with R^2 >= 0.95, and doubling
    # beta doubles the slope within 25%.
    betas = [1.0, 2.0, 4.0, 8.0]
    eps_grid = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    failures = []
    slopes = {}
    try:
        log_inv = np.log(1.0 / np.asarray(eps_grid))
        for beta in betas:
            ms = []
            for eps in eps_grid:
                fa = gibbs_fourier(beta, 1.0 / beta, eps)
                sup = fa.sup_error(1000)
                if sup > eps:
                    failures.append(f"beta={beta} eps={eps:.0e}: sup {sup:.2e}")
                ms.append(fa.M)
            r2 = _r2(log_inv, ms)
            slopes[beta] = fit_slope(log_inv, ms)
            if r2 < 0.95:
                failures.append(f"beta={beta}: R^2 {r2:.3f}")
        for lo, hi in ((1.0, 2.0), (2.0, 4.0), (4.0, 8.0)):
            ratio = slopes[hi] / slopes[lo]
            if abs(ratio - 2.0) > 0.5:
                failures.append(f"slope ratio {lo}->{hi}: {ratio:.3f}")
        ok = not failures
        details = (
            "certified on grid; slope ratios "
            + ", ".join(f"{slopes[b * 2] / slopes[b]:.3f}" for b in (1.0, 2.0, 4.0))
            if ok
            else "; ".join(failures)
        )
    except Exception as err:
        ok, details = False, f"error: {err}"
    criterion_report(2, ok, details)
    assert ok, details


def test_criterion_03_block_synthesis_fidelity(criterion_report):
    # Fifty random admissible Laurent targets (M <= 8) against random
    # unitaries (dim <= 16): circuit block within 1e-8 of the target
    # polynomial, completion residual within 1e-9 on 4096 circle samples.
    rng = np.random.default_rng(303)
    worst_block, worst_completion = 0.0, 0.0
    failures = []
    try:
        for trial in range(50):
            m = int(rng.integers(1, 9))
            dim = int(rng.integers(2, 17))
            target = random_laurent(rng, m)
            angles = synthesize_laurent(target)
            u = haar_unitary(rng, dim)
            res_block = verify_block(angles, u, target)
            res_comp = completion_residual(target)
            worst_block = max(worst_block, res_block)
            worst_completion = max(worst_completion, res_comp)
            if res_block > 1e-8 or res_comp > 1e-9:
                failures.append(
                    f"trial {trial} (M={m}, dim={dim}): block {res_block:.2e}, "
                    f"completion {res_comp:.2e}"
                )
        ok = not failures
        details = (
            f"50 targets; worst block gap {worst_block:.2e}, "
            f"worst completion residual {worst_completion:.2e}"
            if ok
            else "; ".join(failures[:3])
        )
    except Exception as err:
        ok, details = False, f"error: {err}"
    criterion_report(3, ok, details)
    assert ok, details


def test_criterion_04_boltzmann_block_accuracy(criterion_report):
    # The synthesized Boltzmann block tracks the exact shifted exponential
    # within eps_qsp + 1e-8 for beta in {1, 2} on n in {4, 8} models.
    eps_qsp = 1e-6
    failures = []
    worst = 0.0
    try:
        for n in (4, 8):
            eff = syk_effective(n, beta_seed=7)
            vals, vecs = np.linalg.eigh(eff)
            for beta in (1.0, 2.0):
                oracle = build_u_boltz(eff, 0.3, beta, mode="gqsp", eps_qsp=eps_qsp)
                want = (vecs * np.exp(-beta * (vals + 1.0) / 2.0)) @ vecs.conj().T
                dev = float(np.max(np.abs(oracle.normalized_block - want)))
                worst = max(worst, dev)
                if dev > eps_qsp + 1e-8:
                    failures.append(f"n={n} beta={beta}: deviation {dev:.2e}")
        ok = not failures
        details = (
            f"blocks within budget; worst deviation {worst:.2e} <= {eps_qsp + 1e-8:.2e}"
            if ok
            else "; ".join(failures)
        )
    except Exception as err:
        ok, details = False, f"error: {err}"
    criterion_report(4, ok, details)
    assert ok, details


def test_criterion_05_node_weight_identities(criterion_report):
    # Weight normalization (1e-12), monomial exactness below the node count
    # (1e-12), the even-order closed form (1e-10), and basis orthonormality
    # (1e-10).
    failures = []
    try:
        for m in range(1, 17):
            g = cheb_grid(m)
            if abs(g.weights.sum() - 1.0) > 1e-12:
                failures.append(f"weight sum m={m}")
            for deg in range(m):
                want = 1.0 if deg == 0 else 0.0
                if abs(float(g.weights @ g.nodes**deg) - want) > 1e-12:
                    failures.append(f"monomial m={m} deg={deg}")
        for m in range(2, 34, 2):
            g = cheb_grid(m)
            k = np.arange(1, m + 1)
            closed = (
                np.where((k + m // 2) % 2 == 0, 1.0, -1.0) * np.tan(node_angles(m)) / m
            )
            if np.max(np.abs(g.weights - closed)) > 1e-10:
                failures.append(f"closed form m={m}")
        for m in (2, 8, 16, 32):
            gram = basis_matrix(m) @ basis_matrix(m).T
            if np.max(np.abs(gram - np.eye(m))) > 1e-10:
                failures.append(f"orthonormality m={m}")
        ok = not failures
        details = (
            "weight sums, monomial exactness, closed form, orthonormality all hold"
            if ok
            else "; ".join(failures[:4])
        )
    except Exception as err:
        ok, details = False, f"error: {err}"
    criterion_report(5, ok, details)
    assert ok, details


def test_criterion_06_end_to_end_convergence(criterion_report):
    # Exact-trace pipeline on the n=8 model at beta=2, order 2, base step 1:
    # extrapolation error shrinks by at least 1.5x per node-count step, is
    # below 1e-6 at M=8, and the first three errors follow a geometric law.
    failures = []
    try:
        model, _ = normalize_one_norm(build_syk_hamiltonian(sample_syk(8, seed=11)))
        z_ref = exact_partition(model, 2.0)
        ms = [2, 4, 6, 8]
        errs = []
        for m in ms:
            cfg = PipelineConfig(
                model=model, beta=2.0, m_cheb=m, order=2, base_step=1.0, mode="exact"
            )
            errs.append(abs(run_pipeline(cfg).extrapolated - z_ref))
        for a, b, m in zip(errs, errs[1:], ms[1:]):
            if a / b < 1.5:
                failures.append(f"M={m}: improvement {a / b:.2f}x < 1.5x")
        if errs[-1] > 1e-6:
            failures.append(f"M=8 error {errs[-1]:.2e} > 1e-6")
        # Geometric envelope C rho^-M fitted on the pre-floor points.
        log_e = np.log(errs[:3])
        rho_hat = math.exp(-fit_slope(ms[:3], log_e))
        r2 = _r2(ms[:3], log_e)
        if rho_hat < 1.5:
            failures.append(f"fitted rate {rho_hat:.2f} < 1.5")
        if r2 < 0.9:
            failures.append(f"geometric fit R^2 {r2:.3f} < 0.9")
        ok = not failures
        details = (
            f"errors {['%.2e' % e for e in errs]}, fitted rate {rho_hat:.1f}/node, "
            f"R^2 {r2:.3f}"
            if ok
            else "; ".join(failures)
        )
    except Exception as err:
        ok, details = False, f"error: {err}"
    criterion_report(6, ok, details)
    assert ok, details


def test_criterion_07_estimation_accuracy_and_cost(criterion_report):
    # 200 seeded estimation runs at eps=0.05 for each p0 in {0.1, 0.25,
    # 0.5} land within eps of sqrt(p0) at least 95% of the time, and the
    # median query count scales as 1/eps^(1.0 +/- 0.2).
    failures = []
    try:
        rates = {}
        for p0 in (0.1, 0.25, 0.5):
            hits = 0
            for seed in range(200):
                est = amplitude_estimate(p0, 0.05, seed=seed)
                if abs(est.a0_hat - math.sqrt(p0)) <= 0.05:
                    hits += 1
            rates[p0] = hits
            if hits < 190:
                failures.append(f"p0={p0}: {hits}/200 hits")
        eps_grid = [0.1, 0.05, 0.025, 0.0125]
        medians = [
            float(
                np.median(
                    [amplitude_estimate(0.3, eps, seed=s).queries for s in range(60)]
                )
            )
            for eps in eps_grid
        ]
        exponent = fit_slope(np.log(1.0 / np.asarray(eps_grid)), np.log(medians))
        if not 0.8 <= exponent <= 1.2:
            failures.append(f"query exponent {exponent:.3f} outside [0.8, 1.2]")
        ok = not failures
        details = (
            f"hit rates {rates} /200, query exponent {exponent:.3f}"
            if ok
            else "; ".join(failures)
        )
    except Exception as err:
        ok, details = False, f"error: {err}"
    criterion_report(7, ok, details)
    assert ok, details


def test_criterion_08_register_ledger(criterion_report):
    # One rotation ancilla replaces the ceil(log2 C(n,4)) selection
    # register, and the simulated width is exactly 2n + 2.
    expected = {8: 7, 10: 8, 12: 9, 14: 10, 16: 11}
    failures = []
    try:
        for n, saved in expected.items():
            got = ancilla_savings(n)
            if got != saved:
                failures.append(f"n={n}: saved {got} != {saved}")
            ledger = qubit_ledger(n // 2)
            if ledger["gqsp_ancilla"] != 1 or ledger["estimation_ancilla"] != 1:
                failures.append(f"n={n}: method ancillas {ledger}")
            if ledger["total"] != 2 * (n // 2) + 2:
                failures.append(f"n={n}: total {ledger['total']}")
        ok = not failures
        details = (
            f"saved qubits {expected}, one rotation ancilla, width 2n+2"
            if ok
            else "; ".join(failures)
        )
    except Exception as err:
        ok, details = False, f"error: {err}"
    criterion_report(8, ok, details)
    assert ok, details


def test_criterion_09_perturbed_trace_bound(criterion_report):
    # |Tr exp(-beta H_eff)|/N <= exp(beta ||H_eff - H||) Z(beta)/N on
    # random models for p in {1, 2}; commuting models saturate it exactly.
    rng = np.random.default_rng(909)
    failures = []
    worst_tightness = 0.0
    try:
        taus = np.geomspace(0.05, 0.4, 4)
        for order in (1, 2):
            for _ in range(3):
                h = random_pauli_model(rng, 3, 4, scale=0.5)
                for beta in (0.5, 2.0):
                    rows = trace_bound_check(h, beta=beta, order=order, tau_grid=taus)
                    for row in rows:
                        if row["lhs"] > row["rhs"] * (1 + 1e-12):
                            failures.append(
                                f"p={order} beta={beta} tau={row['tau']:.3f}"
                            )
                        worst_tightness = max(worst_tightness, row["tightness"])
        commuting = pauli_model(["ZII", "IZI", "ZZZ"], [0.7, -0.4, 0.2])
        for row in trace_bound_check(commuting, beta=2.0, order=2, tau_grid=[0.1, 0.3]):
            if abs(row["tightness"] - 1.0) > 1e-10:
                failures.append(f"commuting tightness {row['tightness']!r}")
        ok = not failures
        details = (
            f"bound holds for p in (1, 2); commuting case saturates to 1e-10 "
            f"(max tightness {worst_tightness:.6f})"
            if ok
            else "; ".join(failures[:4])
        )
    except Exception as err:
        ok, details = False, f"error: {err}"
    criterion_report(9, ok, details)
    assert ok, details


def test_criterion_10_artifact_determinism(criterion_report, tmp_path, capsys):
    # The same config document and seed produce byte-identical result,
    # node-table, and node-stream artifacts across independent runs.  The
    # bits are promised per numerical environment: the same numpy, BLAS and
    # BLAS thread count.  From 8 qubits up, np.linalg.eigvals on the
    # product-formula unitary moves node values by 1-2 ulp between one and
    # two BLAS threads; this 4-qubit document, like every golden, is
    # identical across thread counts.
    doc = {
        "beta": 1.0,
        "m_cheb": 4,
        "mode": "sampled",
        "seed": 5,
        "model": {"kind": "syk", "n_majorana": 8, "seed": 7, "one_norm": 1.0},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    names = ("pipeline_result.json", "pipeline_nodes.csv", "pipeline_nodes.jsonl")
    failures = []
    try:
        outs = []
        for sub in ("run_a", "run_b"):
            out = tmp_path / sub
            rc = cli_main(
                ["pipeline", "--config", str(cfg_path), "--out", str(out)]
            )
            capsys.readouterr()
            if rc != 0:
                failures.append(f"{sub}: exit code {rc}")
            outs.append(out)
        if not failures:
            for name in names:
                if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                    failures.append(f"{name} differs between runs")
        ok = not failures
        details = (
            "repeated runs byte-identical across "
            + ", ".join(names)
            if ok
            else "; ".join(failures)
        )
    except Exception as err:
        ok, details = False, f"error: {err}"
    criterion_report(10, ok, details)
    assert ok, details
