"""Tests for the command-line entry point and its artifact contracts."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from trottergibbs import cli, lwf
from trottergibbs.cli import (
    COMMANDS,
    MODEL_SCHEMAS,
    SCHEMAS,
    main,
    validate_config,
    write_manifest,
)
from trottergibbs.lwf import CERT_GRID, FourierApprox, gibbs_fourier
from trottergibbs.pipeline import PIPELINE_MODES

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden"
PINNED_ARTIFACTS = ("pipeline_result.json", "pipeline_nodes.csv", "pipeline_nodes.jsonl")

# Frozen regression value for the default pipeline document
# (bundled n=8 seed=7 model, beta=2, four nodes, exact mode).
DEFAULT_PIPELINE_EXTRAPOLATED = 1.0482918959463607
DEFAULT_PIPELINE_ORACLE = 1.0482918981949414


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(out[-1])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


_numbers = st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e3))
_model_docs = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("syk")},
        optional={
            "n_majorana": st.integers(2, 8).map(lambda k: 2 * k),
            "seed": st.integers(0, 2**31),
            "one_norm": _numbers,
        },
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("pauli"),
            "n_qubits": st.just(2),
            "terms": st.lists(
                st.tuples(
                    st.one_of(st.floats(-1.0, 1.0), st.integers(-3, 3)),
                    st.sampled_from(["XI", "ZZ", "YX"]),
                ).map(list),
                min_size=1,
                max_size=3,
            ),
        }
    ),
)
_pipeline_docs = st.fixed_dictionaries(
    {},
    optional={
        "model": _model_docs,
        "beta": _numbers,
        "order": st.sampled_from([1, 2, 4, 6]),
        "base_step": _numbers,
        "m_cheb": st.integers(2, 64),
        "eps_qsp": st.floats(1e-12, 0.5),
        "eps_cheb": st.floats(1e-12, 0.5),
        "eps_stat": st.floats(1e-12, 0.5),
        "mode": st.sampled_from(PIPELINE_MODES),
        "seed": st.integers(0, 2**63 - 1),
    },
)


def _config_sha256(cfg):
    with tempfile.TemporaryDirectory() as out:
        manifest = write_manifest(Path(out), "pipeline", cfg, [])
        return json.loads(manifest.read_text())["config_sha256"]


@settings(max_examples=100, deadline=None)
@given(_pipeline_docs, st.randoms(use_true_random=False))
def test_pipeline_config_round_trips_and_hashes_by_value(doc, rnd):
    schema = SCHEMAS["pipeline"]
    cfg = validate_config(doc, schema, "pipeline")
    again = validate_config(json.loads(json.dumps(doc)), schema, "pipeline")
    assert json.dumps(again, sort_keys=True) == json.dumps(cfg, sort_keys=True)
    # The same config spelled differently: keys shuffled, defaults left out or
    # given as null, whole numbers spelled as int or float, at top level and
    # in the model (pauli coefficients too).  It must hash to the same digest.
    other = _respell(cfg, schema, rnd)
    if other.get("model") is not None:
        model = other["model"]
        other["model"] = _respell(model, MODEL_SCHEMAS[model["kind"]], rnd)
        if "terms" in model:
            other["model"]["terms"] = [[_spell(c, rnd), label] for c, label in model["terms"]]
    other_cfg = validate_config(other, schema, "pipeline")
    assert json.dumps(other_cfg, sort_keys=True) == json.dumps(cfg, sort_keys=True)
    assert _config_sha256(other_cfg) == _config_sha256(cfg)


def _spell(value, rnd):
    """A whole float spelled as an int half of the time (-0.0 has no int spelling)."""
    whole = isinstance(value, float) and value.is_integer()
    if whole and str(float(int(value))) == str(value) and rnd.random() < 0.5:
        return int(value)
    return value


def _respell(cfg, schema, rnd):
    """``cfg`` with keys shuffled, defaults left out or null, numbers respelled."""
    keys = list(cfg)
    rnd.shuffle(keys)
    other = {}
    for key in keys:
        if json.dumps(cfg[key]) == json.dumps(schema[key][1]) and rnd.random() < 0.5:
            if rnd.random() < 0.5:
                other[key] = None
            continue
        other[key] = _spell(cfg[key], rnd)
    return other


def test_qubits_saved_default_table(tmp_path, capsys):
    out = tmp_path / "runs"
    rc, summary = run_cli(capsys, "qubits-saved", "--out", str(out))
    assert rc == 0
    assert summary["artifacts"] == ["qubits_saved.csv"]
    header, rows = read_csv(out / "qubits_saved.csv")
    assert header == ["n_majorana", "gamma", "saved", "this_method_ancillas"]
    table = {int(r[0]): (int(r[1]), int(r[2]), int(r[3])) for r in rows}
    assert table[8] == (70, 7, 1)
    assert table[10] == (210, 8, 1)
    assert table[12] == (495, 9, 1)
    assert table[14] == (1001, 10, 1)
    assert table[16] == (1820, 11, 1)


def test_manifest_digests_match_artifacts(tmp_path, capsys):
    out = tmp_path / "runs"
    rc, _ = run_cli(capsys, "qubits-saved", "--out", str(out))
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "qubits-saved"
    assert manifest["format_version"] == 1
    for item in manifest["artifacts"]:
        digest = hashlib.sha256((out / item["path"]).read_bytes()).hexdigest()
        assert digest == item["sha256"]


def test_pipeline_default_regression(tmp_path, capsys):
    out = tmp_path / "runs"
    rc, _ = run_cli(capsys, "pipeline", "--out", str(out))
    assert rc == 0
    payload = json.loads((out / "pipeline_result.json").read_text())
    assert abs(payload["extrapolated"] - DEFAULT_PIPELINE_EXTRAPOLATED) < 1e-10
    assert abs(payload["oracle"] - DEFAULT_PIPELINE_ORACLE) < 1e-10
    assert payload["eps_cheb_realized"] < 1e-6


def test_pipeline_node_artifacts(tmp_path, capsys):
    out = tmp_path / "runs"
    rc, summary = run_cli(capsys, "pipeline", "--out", str(out))
    assert rc == 0
    assert summary["artifacts"] == [
        "pipeline_result.json",
        "pipeline_nodes.csv",
        "pipeline_nodes.jsonl",
    ]
    header, rows = read_csv(out / "pipeline_nodes.csv")
    assert header == ["s_k", "d_k", "z_node_exact", "z_node_hat", "depth", "queries"]
    assert len(rows) == 4
    # 17-significant-digit floats round-trip exactly.
    for row in rows:
        assert float(row[0]) == float(format(float(row[0]), ".17g"))
    jsonl = (out / "pipeline_nodes.jsonl").read_text().strip().splitlines()
    assert len(jsonl) == 4
    first = json.loads(jsonl[0])
    assert set(first) == {"s_k", "beta_k", "mode", "p0_exact", "p0_hat", "queries", "seed"}


def test_pipeline_determinism_byte_identical(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {"beta": 1.0, "m_cheb": 4, "mode": "sampled", "seed": 5,
         "model": {"kind": "syk", "n_majorana": 8, "seed": 7, "one_norm": 1.0}},
    )
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc, _ = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(out))
        assert rc == 0
        outs.append(out)
    for name in ("pipeline_result.json", "pipeline_nodes.csv", "pipeline_nodes.jsonl"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_pipeline_seed_override_changes_samples(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {"beta": 1.0, "m_cheb": 2, "mode": "sampled", "seed": 5,
         "model": {"kind": "syk", "n_majorana": 4, "seed": 1}},
    )
    results = {}
    for label, extra in (("doc", []), ("same", ["--seed", "5"]), ("other", ["--seed", "6"])):
        out = tmp_path / label
        rc, _ = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(out), *extra)
        assert rc == 0
        results[label] = json.loads((out / "pipeline_result.json").read_text())
    assert results["doc"]["extrapolated"] == results["same"]["extrapolated"]
    assert results["other"]["extrapolated"] != results["doc"]["extrapolated"]


def test_pipeline_mode_override(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {"beta": 1.0, "m_cheb": 2, "mode": "exact",
         "model": {"kind": "syk", "n_majorana": 4, "seed": 1}},
    )
    out = tmp_path / "runs"
    rc, _ = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(out), "--mode", "sampled")
    assert rc == 0
    payload = json.loads((out / "pipeline_result.json").read_text())
    assert payload["mode"] == "sampled"


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"beta": 1.0, "turbo": True})
    rc, payload = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(tmp_path / "r"))
    assert rc == 2
    assert payload["error"]["type"] == "config"
    assert "turbo" in payload["error"]["message"]


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, payload = run_cli(capsys, "pipeline", "--config", str(path), "--out", str(tmp_path / "r"))
    assert rc == 2
    assert payload["error"]["type"] == "config"


def test_missing_config_file(tmp_path, capsys):
    rc, payload = run_cli(
        capsys, "pipeline", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r")
    )
    assert rc == 2
    assert payload["error"]["type"] == "config"


def test_invalid_parameter_value_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {"m_cheb": 3, "model": {"kind": "syk", "n_majorana": 4, "seed": 1}},
    )
    rc, payload = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(tmp_path / "r"))
    assert rc == 2
    assert payload["error"]["type"] == "config"


def test_branch_wrap_is_config_error(tmp_path, capsys):
    # Used to exit 0 with extrapolated 1.08e6 against an oracle of 4.37e13.
    cfg = write_config(
        tmp_path, "cfg.json", {"model": {"kind": "syk", "n_majorana": 8, "one_norm": 64}}
    )
    rc, payload = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(tmp_path / "r"))
    assert rc == 2
    assert payload["error"]["type"] == "config"
    assert "branch bound" in payload["error"]["message"]
    assert not (tmp_path / "r" / "pipeline_result.json").exists()


def test_numeric_failure_exit_code(tmp_path, capsys):
    # Validation passes but the Fourier window cannot hold the spectrum:
    # a stage failure, not a config error.
    cfg = write_config(
        tmp_path, "cfg.json",
        {"beta": 4.0, "m_cheb": 2, "mode": "gqsp", "base_step": 3.0,
         "model": {"kind": "syk", "n_majorana": 4, "seed": 1, "one_norm": 1.0}},
    )
    rc, payload = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(tmp_path / "r"))
    assert rc == 3
    assert payload["error"]["type"] == "PipelineError"
    assert "node" in payload["error"]["message"]


def test_beta_without_fourier_window_is_config_error(tmp_path, capsys):
    # Used to exit 3 from node 1 with "shift delta'=20.0 leaves no window".
    cfg = write_config(tmp_path, "cfg.json", {"beta": 0.05, "mode": "gqsp"})
    rc, payload = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(tmp_path / "r"))
    assert rc == 2
    assert payload["error"]["type"] == "config"
    assert "no Fourier window" in payload["error"]["message"]


def test_beta_with_overflowing_shift_is_config_error(tmp_path, capsys):
    # Used to exit 3 with a bare "OverflowError: math range error".
    cfg = write_config(tmp_path, "cfg.json", {"beta": 1e6})
    out = tmp_path / "r"
    rc, payload = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert payload["error"]["type"] == "config"
    assert "e^beta finite" in payload["error"]["message"]
    assert not out.exists()


def test_block_past_eps_qsp_exits_3_naming_the_node(tmp_path, capsys, shrunk_fourier):
    # Coefficients spoiled after assembly reach the block; the gate on
    # block_deviation refuses the node and nothing is written.
    out = tmp_path / "r"
    rc, payload = run_cli(
        capsys, "pipeline", "--config", str(CONFIG_DIR / "pipeline_gqsp.json"), "--out", str(out)
    )
    assert rc == 3
    assert payload["error"]["type"] == "PipelineError"
    assert payload["error"]["message"].startswith("node ")
    assert "exceeds eps_qsp 1.000e-06" in payload["error"]["message"]
    assert not out.exists()


def test_boltzmann_scale_past_the_fourier_budget_exits_3_naming_it(tmp_path, capsys):
    # At beta 700 the rounded signal time leaves beta_f < beta/2, so the
    # scale grows to 1.7e8 and eps_lwf to 150; this used to exit with the
    # Taylor builder's bare "eps must be in (0, 1)".
    doc = json.loads((CONFIG_DIR / "pipeline_gqsp.json").read_text())
    cfg = write_config(tmp_path, "cfg.json", {**doc, "beta": 700.0, "base_step": 0.3})
    out = tmp_path / "r"
    rc, payload = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(out))
    assert rc == 3
    message = payload["error"]["message"]
    assert message.startswith("node 1 (s_k=")
    for name in ("Boltzmann scale", "beta=700.0", "beta_f=", "eps_lwf="):
        assert name in message
    assert not out.exists()


def test_unreachable_arcsin_budget_exits_3_before_any_arcsin_pass(tmp_path, capsys, monkeypatch):
    # ideal-w at beta 700 asks the Fourier builder for eps 3.1e-21 on a
    # window of delta 1.4e-3.  The tail bound at the arcsin cap refuses it
    # before any pass; the seven passes up to the cap used to take over a second.
    calls = []
    real = lwf._arcsin_pass
    monkeypatch.setattr(lwf, "_arcsin_pass", lambda *args: calls.append(args) or real(*args))
    doc = {"model": {"kind": "pauli", "n_qubits": 1, "terms": [[1.0, "Z"]]}, "mode": "ideal-w",
           "beta": 700.0, "eps_qsp": 1e-12, "base_step": 0.41, "order": 2, "m_cheb": 6}
    cfg = write_config(tmp_path, "cfg.json", doc)
    out = tmp_path / "r"
    rc, payload = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(out))
    assert rc == 3
    node, reason = payload["error"]["message"].split(": ", 1)
    assert node.startswith("node 1 (s_k=")
    assert reason.startswith("arcsin truncation at L=4096 cannot reach eps=")
    assert calls == []
    assert not out.exists()


def test_non_finite_total_cost_exits_3_naming_the_ledger(tmp_path, capsys):
    # Used to exit 0 with "total_cost": Infinity in pipeline_result.json.
    cfg = write_config(
        tmp_path, "cfg.json",
        {"mode": "gqsp", "beta": 1.0, "base_step": 0.3, "order": 4, "eps_stat": 1e-300},
    )
    out = tmp_path / "r"
    rc, payload = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(out))
    assert rc == 3
    assert payload["error"]["type"] == "PipelineError"
    assert payload["error"]["message"].startswith("cost ledger: total cost inf")
    assert not out.exists()


def test_non_finite_reference_exits_3_naming_the_stage(tmp_path, capsys, monkeypatch):
    # The dense reference is computed by the command, not by the solve, and
    # refused there with the message the solve used to raise.
    monkeypatch.setattr(cli, "exact_partition", lambda *args: math.inf)
    cfg = write_config(tmp_path, "cfg.json", {"mode": "exact", "beta": 1.0, "m_cheb": 2})
    out = tmp_path / "r"
    rc, payload = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(out))
    assert rc == 3
    assert payload["error"]["type"] == "PipelineError"
    assert payload["error"]["message"] == (
        "extrapolation: estimate 1.0118635866435772, exact 1.0118635866435772, reference inf "
        "or the gap between the last two is not a finite float"
    )
    assert not out.exists()


def test_write_json_refuses_a_non_finite_number_before_opening_the_file(tmp_path):
    path = tmp_path / "result.json"
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.write_json(path, {"nested": [1.0, value]})
        assert not path.exists()


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_write_csv_refuses_an_unwritable_value_before_opening_the_file(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=r"^table\.csv: Exceeds the limit"):
        cli.write_csv(path, ["n"], [(8,), (10**5000,)])
    assert not path.exists()


def test_zero_one_norm_is_the_zero_hamiltonian(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json", {"model": {"kind": "syk", "n_majorana": 8, "one_norm": 0.0}}
    )
    out = tmp_path / "r"
    rc, _ = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(out))
    assert rc == 0
    result = json.loads((out / "pipeline_result.json").read_text())
    assert result["oracle"] == 1.0  # Tr e^0 / N
    assert result["extrapolated"] == pytest.approx(1.0, abs=1e-15)


def test_block_mode_at_beta_zero_exits_zero(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json", {"beta": 0.0, "mode": "gqsp", "base_step": 0.3}
    )
    out = tmp_path / "r"
    rc, _ = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(out))
    assert rc == 0
    assert json.loads((out / "pipeline_result.json").read_text())["extrapolated"] == 1.0


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_runs(path, tmp_path, capsys):
    # configs/<command>_<variant>.json, with the command's dashes as underscores.
    command = next(c for c in COMMANDS if path.stem.replace("_", "-").startswith(c))
    rc, _ = run_cli(capsys, command, "--config", str(path), "--out", str(tmp_path))
    assert rc == 0


def _parsed(name, text):
    if name.endswith(".json"):
        return json.loads(text)
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    return list(csv.reader(text.splitlines()))


def _assert_close(got, want, rel):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for key in want:
            _assert_close(got[key], want[key], rel)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_close(g, w, rel)
    elif isinstance(want, float) or (isinstance(want, str) and got != want):
        # CSV cells are strings: unequal ones must still parse to close numbers.
        assert float(got) == pytest.approx(float(want), rel=rel, abs=0.0)
    else:
        assert got == want


@pytest.mark.parametrize(
    "config, exact",
    [("pipeline_exact", True), ("pipeline_sampled", True), ("pipeline_gqsp", False)],
)
def test_pipeline_matches_golden_artifacts(config, exact, tmp_path, capsys):
    # tests/golden/<config>/ pins the artifacts of configs/<config>.json.
    # Exact and sampled runs reproduce them byte for byte; the synthesized
    # block's last digits depend on how the circuit is evaluated, so gqsp
    # numbers are compared at 1e-12 relative.
    path = CONFIG_DIR / f"{config}.json"
    rc, _ = run_cli(capsys, "pipeline", "--config", str(path), "--out", str(tmp_path))
    assert rc == 0
    for name in PINNED_ARTIFACTS:
        got = (tmp_path / name).read_bytes()
        want = (GOLDEN / config / name).read_bytes()
        if exact:
            assert got == want, name
        else:
            _assert_close(_parsed(name, got.decode()), _parsed(name, want.decode()), 1e-12)


def test_lwf_convergence_matches_golden_artifacts(tmp_path, capsys):
    # tests/golden/lwf_convergence/ pins configs/lwf_convergence.json byte
    # for byte: beta 1-8 and eps down to 1e-6 reach arcsin orders 64-1024.
    path = CONFIG_DIR / "lwf_convergence.json"
    rc, _ = run_cli(capsys, "lwf-convergence", "--config", str(path), "--out", str(tmp_path))
    assert rc == 0
    for name in ("lwf_convergence.csv", "lwf_fits.json"):
        got = (tmp_path / name).read_bytes()
        assert got == (GOLDEN / "lwf_convergence" / name).read_bytes(), name


@pytest.mark.parametrize(
    "command, config, names",
    [
        ("trotter-order", "trotter_order", ("trotter_errors.csv", "trotter_fits.json")),
        ("qubits-saved", "qubits_saved", ("qubits_saved.csv",)),
    ],
)
def test_command_matches_golden_artifacts(command, config, names, tmp_path, capsys):
    # tests/golden/<config>/ pins configs/<config>.json byte for byte;
    # trotter-order runs through the Schur decomposition of linalg.
    path = CONFIG_DIR / f"{config}.json"
    rc, _ = run_cli(capsys, command, "--config", str(path), "--out", str(tmp_path))
    assert rc == 0
    for name in names:
        got = (tmp_path / name).read_bytes()
        assert got == (GOLDEN / config / name).read_bytes(), name


def count_sup_error_calls(monkeypatch):
    """Wrap FourierApprox.sup_error so that each call records its grid size."""
    calls = []
    real = FourierApprox.sup_error

    def counted(self, grid_size=CERT_GRID):
        calls.append(grid_size)
        return real(self, grid_size)

    monkeypatch.setattr(FourierApprox, "sup_error", counted)
    return calls


def test_lwf_convergence_reuses_the_certificate_on_its_grid(tmp_path, capsys, monkeypatch):
    # At grid_points == CERT_GRID the CSV takes the error that certify
    # measured on that grid: one sup_error per target (20), not two.
    calls = count_sup_error_calls(monkeypatch)
    path = CONFIG_DIR / "lwf_convergence.json"
    rc, _ = run_cli(capsys, "lwf-convergence", "--config", str(path), "--out", str(tmp_path))
    assert rc == 0
    assert calls == [CERT_GRID] * 20


def test_lwf_convergence_other_grid_evaluates_its_own_error(tmp_path, capsys, monkeypatch):
    calls = count_sup_error_calls(monkeypatch)
    betas, eps_grid = [1.0, 2.0], [1e-2, 1e-3]
    doc = {"betas": betas, "eps_grid": eps_grid, "grid_points": 999, "include_taylor": False}
    cfg = write_config(tmp_path, "cfg.json", doc)
    rc, _ = run_cli(capsys, "lwf-convergence", "--config", cfg, "--out", str(tmp_path / "r"))
    assert rc == 0
    assert calls == [CERT_GRID, 999] * 4
    _, rows = read_csv(tmp_path / "r" / "lwf_convergence.csv")
    monkeypatch.undo()
    want = [gibbs_fourier(b, 1.0 / b, e).sup_error(999) for b in betas for e in eps_grid]
    assert [float(row[3]) for row in rows] == want


def test_lwf_convergence_artifacts(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {"betas": [1.0, 2.0], "eps_grid": [1e-2, 1e-3, 1e-4]},
    )
    out = tmp_path / "runs"
    rc, _ = run_cli(capsys, "lwf-convergence", "--config", cfg, "--out", str(out))
    assert rc == 0
    header, rows = read_csv(out / "lwf_convergence.csv")
    assert header == ["expansion_type", "beta", "m_or_k", "sup_error"]
    assert all(len(r) == 4 for r in rows)
    assert {r[0] for r in rows} == {"taylor", "lwf"}
    # Errors fall as the budget tightens, for both expansions.
    by_kind = {}
    for kind, beta, _, sup in rows:
        by_kind.setdefault((kind, beta), []).append(float(sup))
    for series in by_kind.values():
        assert all(a >= b - 1e-15 for a, b in zip(series, series[1:]))
    fits = json.loads((out / "lwf_fits.json").read_text())["fits"]
    lwf_fits = {f["beta"]: f for f in fits if f["expansion_type"] == "lwf"}
    for beta, fit in lwf_fits.items():
        assert fit["slope"] > 0
        assert fit["r2"] >= 0.95
    # Doubling beta doubles the frequency cost per decade of accuracy.
    ratio = lwf_fits[2.0]["slope"] / lwf_fits[1.0]["slope"]
    assert abs(ratio - 2.0) < 0.5
    # The two expansions scale differently; their fitted slopes must not
    # be confusable.
    taylor_fits = {f["beta"]: f for f in fits if f["expansion_type"] == "taylor"}
    for beta in (1.0, 2.0):
        assert abs(taylor_fits[beta]["slope"] - lwf_fits[beta]["slope"]) > 1.0


@pytest.mark.parametrize("key", ["betas", "eps_grid"])
@pytest.mark.parametrize("entry", ["a", True, None, [1.0]], ids=repr)
def test_number_list_entry_of_another_type_is_config_error(key, entry, tmp_path, capsys):
    # ["a"] used to exit 3 from inside the command; [true] ran as 1.0.
    cfg = write_config(tmp_path, "cfg.json", {key: [0.5, entry]})
    out = tmp_path / "r"
    rc, payload = run_cli(capsys, "lwf-convergence", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert payload["error"]["type"] == "config"
    assert key in payload["error"]["message"]
    assert not (out / "lwf_convergence.csv").exists()


def test_number_list_entries_hash_by_value(tmp_path, capsys):
    # {"betas": [1]} and {"betas": [1.0]} used to get different config_sha256.
    digests = set()
    for spelling in ({"betas": [1, 2], "eps_grid": [0.01, 0.001]},
                     {"betas": [1.0, 2.0], "eps_grid": [1e-2, 1e-3]}):
        cfg = write_config(tmp_path, "cfg.json", {**spelling, "include_taylor": False})
        out = tmp_path / "r"
        rc, _ = run_cli(capsys, "lwf-convergence", "--config", cfg, "--out", str(out))
        assert rc == 0
        digests.add(json.loads((out / "manifest.json").read_text())["config_sha256"])
    assert len(digests) == 1
    cfg = validate_config({"betas": [1, 2.5]}, SCHEMAS["lwf-convergence"], "lwf")
    assert cfg["betas"] == [1.0, 2.5]
    assert all(type(b) is float for b in cfg["betas"])


def test_trotter_order_slopes(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {"orders": [1, 2], "tau_points": 5,
         "model": {"kind": "syk", "n_majorana": 8, "seed": 7, "one_norm": 64.0}},
    )
    out = tmp_path / "runs"
    rc, _ = run_cli(capsys, "trotter-order", "--config", cfg, "--out", str(out))
    assert rc == 0
    header, rows = read_csv(out / "trotter_errors.csv")
    assert header == ["order", "tau", "error"]
    assert len(rows) == 10
    fits = {f["order"]: f for f in json.loads((out / "trotter_fits.json").read_text())["fits"]}
    assert abs(fits[1]["slope"] - 1.0) < 0.1
    assert abs(fits[2]["slope"] - 2.0) < 0.1


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "pauli", "n_qubits": 1, "terms": [[0.5, "Z"]]},
        {"kind": "pauli", "n_qubits": 2, "terms": [[0.5, "ZI"], [0.3, "ZZ"]]},
    ],
)
def test_trotter_order_on_an_exact_formula_exits_3(model, tmp_path, capsys):
    # Commuting terms make every error norm 0: this used to exit 0 with a
    # NaN slope and intercept from the log of zero.
    cfg = write_config(tmp_path, "cfg.json", {"model": model, "orders": [2, 1]})
    out = tmp_path / "r"
    rc, payload = run_cli(capsys, "trotter-order", "--config", cfg, "--out", str(out))
    assert rc == 3
    assert "order 2 is exact on this model" in payload["error"]["message"]
    assert not out.exists()


def test_qubits_saved_accepts_sizes_past_the_dense_cap(tmp_path, capsys):
    # The table needs no dense matrix, so the model cap does not apply.
    cfg = write_config(tmp_path, "cfg.json", {"n_majorana": [26, 40]})
    rc, _ = run_cli(capsys, "qubits-saved", "--config", cfg, "--out", str(tmp_path / "r"))
    assert rc == 0
    _, rows = read_csv(tmp_path / "r" / "qubits_saved.csv")
    assert [row[0] for row in rows] == ["26", "40"]


def test_entry_point_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"betas": [0.0]}, "betas"),  # exited 3 with ZeroDivisionError
        ({"betas": [-1.0]}, "betas"),  # exited 3
        ({"eps_grid": [1.5, 0.01]}, "eps_grid"),  # exited 3
        ({"eps_grid": [0.0, 0.01]}, "eps_grid"),  # exited 3
        ({"eps_grid": [1.5]}, "eps_grid"),  # exited 3
        ({"delta": 0.0}, "delta"),  # exited 3
        ({"delta": 1.5}, "delta"),  # exited 3
        ({"grid_points": 0}, "grid_points"),  # exited 3
        ({"grid_points": 1}, "grid_points"),  # exited 0
        ({"betas": [0.5]}, "delta"),  # exited 3: delta defaulted to 1/beta = 2
    ],
    ids=repr,
)
def test_lwf_convergence_out_of_range_value_is_config_error(doc, key, tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", doc)
    out = tmp_path / "r"
    rc, payload = run_cli(capsys, "lwf-convergence", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert payload["error"]["type"] == "config"
    assert key in payload["error"]["message"]
    assert not out.exists() or not any(out.iterdir())


def test_lwf_convergence_missed_certificate_exits_3(tmp_path, capsys, monkeypatch):
    # Assembly does not check the window; the command runs the certificate
    # itself and writes nothing when a target misses it.
    real = cli.gibbs_fourier

    def spoiled(*args):
        fa = real(*args)
        c = fa.c.copy()
        c[fa.M] += 1.0
        return replace(fa, c=c)

    monkeypatch.setattr(cli, "gibbs_fourier", spoiled)
    cfg = write_config(tmp_path, "cfg.json", {"betas": [1.0], "eps_grid": [1e-2, 1e-3]})
    out = tmp_path / "r"
    rc, payload = run_cli(capsys, "lwf-convergence", "--config", cfg, "--out", str(out))
    assert rc == 3
    assert payload["error"]["type"] == "ApproximationError"
    assert "certificate failed" in payload["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text",
    [
        ("lwf-convergence", '{"betas": [1.0, Infinity]}'),  # exited 2 from the range check
        ("lwf-convergence", '{"betas": [NaN]}'),  # exited 2 from the range check
        ("pipeline", '{"beta": NaN}'),  # exited 0 with NaN results
        ("pipeline", '{"beta": Infinity}'),  # exited 0 with a NaN estimate
        ("trotter-order", '{"tau_min": -Infinity}'),  # exited 2 from the range check
        ("qubits-saved", '{"n_majorana": [8, NaN]}'),  # exited 2 from the type check
    ],
    ids=repr,
)
def test_non_finite_number_is_config_error(command, text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "r"
    rc, payload = run_cli(capsys, command, "--config", str(path), "--out", str(out))
    assert rc == 2
    assert payload["error"]["type"] == "config"
    constant = next(c for c in ("-Infinity", "Infinity", "NaN") if c in text)
    assert f"holds {constant}; numbers must be finite" in payload["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("eps_grid", [[0.01], [0.01, 0.01]])
def test_lwf_convergence_needs_two_distinct_eps(eps_grid, tmp_path, capsys):
    # One distinct eps used to exit 0 and write r2 1.0 with an arbitrary
    # slope from a rank-deficient fit.
    cfg = write_config(tmp_path, "cfg.json", {"betas": [1.0], "eps_grid": eps_grid})
    out = tmp_path / "r"
    rc, payload = run_cli(capsys, "lwf-convergence", "--config", cfg, "--out", str(out))
    assert rc == 2
    assert payload["error"]["type"] == "config"
    assert "eps_grid" in payload["error"]["message"]
    assert not (out / "lwf_fits.json").exists()


def test_lwf_convergence_accepts_range_edges(tmp_path, capsys):
    # delta = 1, grid_points = 2, beta below 1 with a delta, eps near 1.
    for doc in ({"betas": [1.0], "delta": 1.0, "grid_points": 2, "eps_grid": [0.5, 0.01]},
                {"betas": [0.5], "delta": 0.5, "eps_grid": [0.01, 0.001]}):
        cfg = write_config(tmp_path, "cfg.json", {**doc, "include_taylor": False})
        rc, _ = run_cli(capsys, "lwf-convergence", "--config", cfg, "--out", str(tmp_path / "r"))
        assert rc == 0, doc


@pytest.mark.parametrize(
    "command, doc, key",
    [
        # Each exited 3 from inside the command unless noted.
        ("pipeline", {"model": {"kind": "syk", "n_majorana": 7}}, "n_majorana"),
        ("pipeline", {"model": {"kind": "syk", "n_majorana": 2}}, "n_majorana"),
        ("trotter-order", {"model": {"kind": "syk", "n_majorana": 7}}, "n_majorana"),
        ("qubits-saved", {"n_majorana": [8, 7]}, "n_majorana"),
        ("qubits-saved", {"n_majorana": [2]}, "n_majorana"),
        ("trotter-order", {"orders": [3]}, "orders"),
        ("pipeline", {"model": {"kind": "pauli", "n_qubits": 2, "terms": []}}, "terms"),
        # Exited 0: a 2-letter label on 3 qubits acted on the wrong qubits.
        ("pipeline", {"model": {"kind": "pauli", "n_qubits": 3, "terms": [[1.0, "XI"]]}}, "label"),
        ("pipeline", {"model": {"kind": "pauli", "n_qubits": 2, "terms": [[1.0, "XQ"]]}},
         "label"),  # exited 2 already, from inside the command
        ("trotter-order", {"tau_points": 1}, "tau_points"),  # exited 0: rank-deficient fit
        ("trotter-order", {"tau_min": 0.01, "tau_max": 0.01}, "tau_max"),  # exited 0
        ("trotter-order", {"tau_min": 0.1, "tau_max": 0.01}, "tau_max"),  # exited 0
        ("trotter-order", {"tau_min": 0.0}, "tau_min"),
        ("trotter-order", {"tau_min": -0.01}, "tau_min"),
        # Past the dense cap: exited 3 from inside node 1 or the first formula.
        ("pipeline", {"model": {"kind": "pauli", "n_qubits": 13, "terms": [[1.0, "Z" * 13]]}},
         "13 qubits exceeds dense cap 12"),
        ("pipeline", {"model": {"kind": "syk", "n_majorana": 26}}, "13 qubits exceeds dense cap"),
        ("trotter-order", {"model": {"kind": "syk", "n_majorana": 26}}, "dense cap"),
        # Exited 0: the run solved -H/||H||_1 while the manifest recorded -1.
        ("pipeline", {"model": {"kind": "syk", "n_majorana": 8, "seed": 7, "one_norm": -1.0}},
         "'one_norm' must be >= 0"),
        ("trotter-order", {"model": {"kind": "syk", "one_norm": -64.0}}, "'one_norm' must be >= 0"),
        # Exited 3 with a bare "ValueError: order must be 1 or even".
        ("pipeline", {"order": 3}, "order"),
        ("pipeline", {"order": 0}, "order"),
        ("pipeline", {"order": -2}, "order"),
        # Exited 3 from node 1: amplitude estimation refuses eps below its floor.
        ("pipeline", {"mode": "sampled", "eps_stat": 1e-7}, "EPS_FLOOR"),
        # Types and shapes the config reader refuses.
        ("pipeline", {"beta": True}, "'beta' must not be a boolean"),
        ("pipeline", {"beta": "hot"}, "'beta' has type str"),
        ("pipeline", {"model": {"kind": "hubbard"}}, "model.kind must be one of"),
        ("pipeline", {"model": {"kind": "pauli", "n_qubits": 2}}, "missing required key 'terms'"),
        ("pipeline", {"model": {"kind": "pauli", "n_qubits": 2, "terms": [[0.5, "X", 1]]}},
         "[coefficient, label] pairs"),
        ("pipeline", {"model": {"kind": "pauli", "n_qubits": 1, "terms": [[True, "X"]]}},
         "coefficients must be numbers"),
        ("pipeline", [{"beta": 1.0}], "must hold a JSON object"),
    ],
    ids=repr,
)
def test_out_of_range_value_is_config_error(command, doc, key, tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", doc)
    out = tmp_path / "r"
    rc, payload = run_cli(capsys, command, "--config", cfg, "--out", str(out))
    assert rc == 2
    assert payload["error"]["type"] == "config"
    assert key in payload["error"]["message"]
    assert not out.exists() or not any(out.iterdir())


def test_both_order_keys_refuse_with_one_rule(tmp_path, capsys):
    # pipeline's order and each entry of trotter-order's orders go through trotter.check_order.
    messages = []
    for command, doc in (("pipeline", {"order": 3}), ("trotter-order", {"orders": [1, 3]})):
        cfg = write_config(tmp_path, f"{command}.json", doc)
        out = tmp_path / command
        rc, payload = run_cli(capsys, command, "--config", cfg, "--out", str(out))
        assert rc == 2 and payload["error"]["type"] == "config"
        assert not out.exists()
        messages.append(payload["error"]["message"])
    rule = "order must be 1 or even, got 3"
    assert messages[0] == rule
    assert messages[1].endswith(rule)


@pytest.mark.parametrize("doc", [{"orders": [3]}, {"tau_min": 0.1, "tau_max": 0.01}])
def test_handler_refusal_leaves_no_output_directory(doc, tmp_path, capsys):
    # trotter-order refuses these inside its handler, after validate_config;
    # the output directory is made only with the first artifact.
    cfg = write_config(tmp_path, "cfg.json", doc)
    out = tmp_path / "fresh" / "r"
    rc, payload = run_cli(capsys, "trotter-order", "--config", cfg, "--out", str(out))
    assert rc == 2 and payload["error"]["type"] == "config"
    assert not out.exists() and not out.parent.exists()


def test_eps_stat_below_the_floor_runs_outside_sampled_mode(tmp_path, capsys):
    # Only amplitude estimation reads eps_stat as a precision; the ledger takes any.
    cfg = write_config(tmp_path, "cfg.json", {"mode": "exact", "eps_stat": 1e-7})
    rc, payload = run_cli(capsys, "pipeline", "--config", cfg, "--out", str(tmp_path / "r"))
    assert rc == 0, payload


def test_overflowing_node_trace_exits_3_with_empty_stderr(tmp_path):
    # Two "overflow encountered in exp" warnings used to reach stderr.
    doc = {"model": {"kind": "syk", "n_majorana": 4, "seed": 7, "one_norm": 2.5},
           "beta": 700.0, "mode": "exact", "base_step": 0.01}
    cfg = write_config(tmp_path, "cfg.json", doc)
    proc = subprocess.run(
        [sys.executable, "-m", "trottergibbs.cli", "pipeline", "--config", cfg,
         "--out", str(tmp_path / "r")],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {"error": {
        "type": "PipelineError",
        "message": "node 1 (s_k=+0.923880): trace Z/N is not a finite float at beta=700.0",
    }}


# Documents across the regimes `pipeline` must either run or refuse: SYK and
# pauli models (a one-norm of 0 is the zero Hamiltonian), beta up to 700,
# tiny and edge budgets.
_outcome_models = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("syk"), "n_majorana": st.sampled_from([4, 6, 8]),
         "seed": st.integers(0, 99)},
        optional={"one_norm": st.one_of(st.just(0.0), st.floats(0.0, 4.0))},
    ),
    st.integers(1, 3).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "kind": st.just("pauli"),
                "n_qubits": st.just(n),
                "terms": st.lists(
                    st.tuples(st.floats(-2.0, 2.0), st.text("IXYZ", min_size=n, max_size=n)).map(
                        list
                    ),
                    min_size=1,
                    max_size=4,
                ),
            }
        )
    ),
)
_budgets = st.one_of(
    st.floats(1e-9, 0.5),
    st.floats(1e-9, 0.5),
    st.sampled_from([0.0, 1e-300, 1e-12, 1.0 - 2.0**-53, 1.0]),
)
_outcome_docs = st.fixed_dictionaries(
    {
        "model": _outcome_models,
        "beta": st.one_of(
            st.floats(0.0, 8.0), st.floats(0.0, 700.0), st.sampled_from([0.0, 1.0 / 19.0, 700.0])
        ),
        "order": st.sampled_from([1, 2, 4]),
        "base_step": st.one_of(st.floats(1e-3, 1.0), st.sampled_from([1e-3, math.pi])),
        "m_cheb": st.one_of(st.sampled_from([2, 4, 6]), st.integers(1, 6)),
        "eps_qsp": _budgets,
        "eps_cheb": _budgets,
        "eps_stat": _budgets,
        "mode": st.sampled_from(PIPELINE_MODES),
        "seed": st.integers(0, 2**32),
    }
)


def _refuse_constant(constant):
    raise ValueError(f"artifact holds {constant}")


@settings(max_examples=30, deadline=None)
@given(_outcome_docs)
@example({"mode": "gqsp", "beta": 1.0, "base_step": 0.3, "order": 4, "eps_stat": 1e-300})
@example({"model": {"kind": "syk", "n_majorana": 8, "seed": 7, "one_norm": -1.0}})
def test_pipeline_ends_in_one_of_three_outcomes(doc):
    # Exit 0 with every number of the pinned artifacts finite; exit 2 with
    # nothing written; or exit 3 with nothing written and a message naming
    # the node or the stage that failed.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        out = Path(tmp) / "r"
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            rc = main(["pipeline", "--config", str(path), "--out", str(out)])
        payload = json.loads(stdout.getvalue().splitlines()[-1])
        event(f"exit {rc}")
        if rc == 0:
            json.loads((out / "pipeline_result.json").read_text(), parse_constant=_refuse_constant)
            for line in (out / "pipeline_nodes.jsonl").read_text().splitlines():
                json.loads(line, parse_constant=_refuse_constant)
            _, rows = read_csv(out / "pipeline_nodes.csv")
            assert all(math.isfinite(float(cell)) for row in rows for cell in row)
            return
        assert rc in (2, 3), payload
        assert not out.exists() or not any(out.iterdir())
        if rc == 3:
            assert re.match(r"node \d+ \(s_k=|cost ledger: |extrapolation: ",
                            payload["error"]["message"]), payload


# Two tau values two ulps apart: np.polyfit's line through them is rank-deficient.
ULP_WIDE_TAU_GRID = {
    "model": {"kind": "syk", "n_majorana": 8, "seed": 86},
    "orders": [4],
    "tau_points": 2,
    "tau_min": 3.141592653589793,
    "tau_max": 3.141592653589794,
}


@pytest.mark.filterwarnings("error::numpy.exceptions.RankWarning")
@pytest.mark.parametrize(
    "command, doc, key",
    [
        # Exited 0 with slope -13.4 and r2 2.4e-12.
        ("trotter-order", ULP_WIDE_TAU_GRID, "the tau grid [3.141592653589793, 3.141592653589794]"),
        # Two distinct eps whose log(1/eps) round to one value: exited 0 with slope 0.
        ("lwf-convergence", {"betas": [1.0], "eps_grid": [0.01, math.nextafter(0.01, 1.0)]},
         "'eps_grid' needs 2+ values"),
    ],
    ids=["trotter-order", "lwf-convergence"],
)
def test_grid_too_narrow_for_a_line_fit_is_config_error(command, doc, key, tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", doc)
    out = tmp_path / "r"
    rc, payload = run_cli(capsys, command, "--config", cfg, "--out", str(out))
    assert rc == 2, payload
    assert payload["error"]["type"] == "config"
    assert key in payload["error"]["message"]
    assert not out.exists()


# Documents across the regimes `trotter-order` must either run or refuse:
# the same models, tau grids from 1e-300 to past the branch cut of the log,
# and a ratio of 1 that leaves no grid.
_trotter_order_docs = st.builds(
    lambda doc, tau, ratio: {**doc, "tau_min": tau, "tau_max": tau * ratio},
    st.fixed_dictionaries(
        {
            "model": _outcome_models,
            "orders": st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=3),
            "tau_points": st.integers(2, 4),
        }
    ),
    st.one_of(st.floats(1e-12, 10.0), st.sampled_from([1e-300, 1e-12, math.pi, 1e3])),
    st.floats(1.0, 1e4),
)


@pytest.mark.filterwarnings("error::numpy.exceptions.RankWarning")
@settings(max_examples=30, deadline=None)
@given(_trotter_order_docs)
@example(
    {"model": {"kind": "pauli", "n_qubits": 1, "terms": [[1.0, "Z"]]}, "orders": [1],
     "tau_min": 1.0, "tau_max": math.pi, "tau_points": 2}
)
@example(ULP_WIDE_TAU_GRID)
def test_trotter_order_ends_in_one_of_three_outcomes(doc):
    # Exit 0 with every number of both artifacts finite; exit 2 with nothing
    # written; or exit 3 with nothing written and a message naming the
    # order that failed.  The first example puts e^{i pi Z} = -I on the
    # branch cut; it used to exit 3 with a message naming neither order nor
    # tau.  The second used to exit 0 from a rank-deficient fit.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        out = Path(tmp) / "r"
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            rc = main(["trotter-order", "--config", str(path), "--out", str(out)])
        payload = json.loads(stdout.getvalue().splitlines()[-1])
        event(f"exit {rc}")
        if rc == 0:
            json.loads((out / "trotter_fits.json").read_text(), parse_constant=_refuse_constant)
            _, rows = read_csv(out / "trotter_errors.csv")
            assert all(math.isfinite(float(cell)) for row in rows for cell in row)
            return
        assert rc in (2, 3), payload
        assert not out.exists() or not any(out.iterdir())
        if rc == 3:
            assert re.match(r"trotter-order: order \d+ ", payload["error"]["message"]), payload


# Documents across the regimes `lwf-convergence` must either run or refuse:
# windows down to delta 0.02, where the arcsin order reaches ARCSIN_CAP and
# the log-factorial table is read to its last entry, eps from 1e-12 to just
# below 1, and a beta past the Taylor builder's reach.  Betas otherwise reach
# 50, where most budgets are refused by the arcsin tail bound before any pass.
_lwf_convergence_docs = st.fixed_dictionaries(
    {
        "betas": st.lists(
            st.one_of(
                st.floats(1.0, 50.0),
                st.floats(0.01, 50.0),
                st.sampled_from([1e-300, 1.0, 8.0, 50.0, 1000.0]),
            ),
            min_size=1,
            max_size=2,
        ),
        "eps_grid": st.lists(
            st.one_of(st.floats(1e-9, 0.5), st.sampled_from([1e-12, 1e-2, 1.0 - 2.0**-53])),
            min_size=2,
            max_size=3,
        ),
    },
    optional={
        "delta": st.one_of(st.floats(0.02, 1.0), st.sampled_from([0.02, 0.03, 0.05, 1.0])),
        "grid_points": st.sampled_from([2, 3, 999, 1000, 1001]),
        "include_taylor": st.booleans(),
    },
)


@pytest.mark.filterwarnings("error::numpy.exceptions.RankWarning")
@settings(max_examples=20, deadline=None)
@given(_lwf_convergence_docs)
@example({"betas": [2.0], "delta": 0.02, "eps_grid": [0.05, 0.01]})  # arcsin order 4096
@example({"betas": [2.0], "delta": 0.02, "eps_grid": [0.01, 1e-4]})  # refused at the cap
def test_lwf_convergence_ends_in_one_of_three_outcomes(doc):
    # Exit 0 with every number of both artifacts finite; exit 2 with nothing
    # written; or exit 3 with nothing written and a message naming the beta
    # and eps that failed.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        out = Path(tmp) / "r"
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            rc = main(["lwf-convergence", "--config", str(path), "--out", str(out)])
        payload = json.loads(stdout.getvalue().splitlines()[-1])
        event(f"exit {rc}")
        if rc == 0:
            json.loads((out / "lwf_fits.json").read_text(), parse_constant=_refuse_constant)
            _, rows = read_csv(out / "lwf_convergence.csv")
            assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:])
            return
        assert rc in (2, 3), payload
        assert not out.exists() or not any(out.iterdir())
        if rc == 3:
            assert payload["error"]["message"].startswith("lwf-convergence: beta="), payload


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(-4, 40),
            st.integers(0, 2**64),
            st.sampled_from([0, 2, 4, 5, 10**1100]),
        ),
        max_size=5,
    )
)
@example([311503267573754])  # C(n, 4) just above 2^188: a float log2 said 188
@example([8, 10**1100])  # C(n, 4) has 4400 digits: a header and one row were left behind
@example([4, 2**63 + 1])  # odd, but read as a float64 beside 4 it passed the range check
def test_qubits_saved_ends_in_one_of_three_outcomes(sizes):
    # Exit 0 with a table whose saved width w satisfies 2^(w-1) < C(n, 4) <= 2^w;
    # exit 2 with nothing written; or exit 3 with nothing written and a
    # message naming the artifact that could not be written.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({"n_majorana": sizes}))
        out = Path(tmp) / "r"
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            rc = main(["qubits-saved", "--config", str(path), "--out", str(out)])
        payload = json.loads(stdout.getvalue().splitlines()[-1])
        event(f"exit {rc}")
        if rc == 0:
            _, rows = read_csv(out / "qubits_saved.csv")
            assert [int(row[0]) for row in rows] == sizes
            for n, gamma, saved, ancillas in (map(int, row) for row in rows):
                assert gamma == math.comb(n, 4)
                assert 2 ** (saved - 1) < gamma <= 2**saved
                assert ancillas == 1
            return
        assert rc in (2, 3), payload
        assert not out.exists() or not any(out.iterdir())
        if rc == 3:
            assert payload["error"]["message"].startswith("qubits_saved.csv: "), payload


def test_config_with_an_integer_past_the_digit_limit_is_config_error(tmp_path, capsys):
    # json.load raises a plain ValueError here, which used to exit 3.
    path = tmp_path / "cfg.json"
    path.write_text('{"n_majorana": [1' + "0" * 5000 + "]}")
    out = tmp_path / "r"
    rc, payload = run_cli(capsys, "qubits-saved", "--config", str(path), "--out", str(out))
    assert rc == 2
    assert payload["error"]["type"] == "config"
    assert "is not valid JSON" in payload["error"]["message"]
    assert not out.exists()
