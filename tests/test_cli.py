"""Tests for the command-line entry point and its artifact contracts."""

import csv
import hashlib
import json
import math

import pytest

from trottergibbs.cli import main

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


def test_entry_point_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])
