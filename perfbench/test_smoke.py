"""Smoke checks of the benchmark: span arithmetic, the tracer, a tiny run.

Run from the repository root:

    python3 -m pytest perfbench -q -s
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from spans import Span, Tracer, covered_length, layer_metrics, self_times  # noqa: E402


def test_covered_length_merges_overlaps():
    assert covered_length([(3, 6), (1, 4), (9, 10), (5, 5)]) == pytest.approx(6.0)
    assert covered_length([]) == 0.0


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: together they cover [1, 6]
        Span("c", 2.0, 3.0, 1, 0),  # grandchild, already inside a
        Span("d", 9.0, 12.0, 0, 0),  # overhangs root: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_per_pass():
    spans = [
        Span("pipeline.run_pipeline", 0.0, 10.0, None, "0:0"),
        Span("trotter.apply_formula", 1.0, 5.0, 0, "0:0"),
        Span("linalg.eigh_decompose", 2.0, 3.0, 1, "0:0"),
        Span("trotter.apply_formula", 3.5, 4.5, 1, "0:0"),  # nested: no double count
        Span("thermal.amplitude_estimate", 6.0, 7.0, 0, "0:0", {"queries": 7, "rounds": 3}),
    ]
    m = layer_metrics(spans, n_passes=2)
    assert m["trotter.formula_calls"] == 1.0
    assert m["trotter.formula_s"] == pytest.approx(2.0)
    assert m["trotter.formula_self_s"] == pytest.approx((2.0 + 1.0) / 2)
    assert m["linalg.eigh_calls"] == 0.5
    assert m["pipeline.self_s"] == pytest.approx((10.0 - 4.0 - 1.0) / 2)
    assert m["thermal.ae_queries"] == 3.5
    assert m["thermal.ae_rounds"] == 1.5
    assert m["gqsp.apply_calls"] == 0.0


def test_tracer_wraps_every_namespace_and_restores(monkeypatch):
    import trottergibbs
    from trottergibbs import linalg, pipeline, trotter

    original = trotter.eigh_decompose
    # A probe whose function is gone is skipped rather than fatal.
    monkeypatch.delattr(trottergibbs.gqsp, "gqsp_apply")
    tracer = Tracer()
    with tracer.installed():
        assert trotter.eigh_decompose is linalg.eigh_decompose is not original
        assert pipeline.effective_hamiltonian is trotter.effective_hamiltonian
        linalg.eigh_decompose(np.eye(2))
    assert trotter.eigh_decompose is original
    assert [s.name for s in tracer.spans] == ["linalg.eigh_decompose"]


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "smoke-syk8",
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        print(f"{metric['name']} {got['value']:.6g} {got['unit']}")
    assert len(result["metrics"]) == len(declared)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
