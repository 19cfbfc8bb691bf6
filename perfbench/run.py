"""Layered solve benchmark for trottergibbs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-exact-syk12 --seed 1 --seconds 30 --trace 0

Each run starts fresh worker processes one at a time (closed loop: one
process solves the workload's partition functions in sequence, with BLAS
pinned to one thread).  ``--trace 0`` reports the end-to-end metrics:

    setup_s      median time from process start to ready (package import
                 plus building the first pass's models) over SETUP_SAMPLES
                 fresh processes
    solve_s      median wall time of one pass, first solve start to last
                 solve end
    peak_rss_mb  peak resident set size of the process that ran the passes

``--trace 1`` reports the per-layer metrics of ``spans.LAYER_METRICS``,
per traced pass, plus the traced pass time and the tracing overhead.
Every solve is checked against the dense reference; one outside its
workload's tolerance, or one that raises ``PipelineError``, counts as
failed.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import LAYER_METRICS, TRACE_METRICS, metric_unit
from workloads import DEFAULT_SEED, WORKLOADS
from worker import PROTOCOL_TAG

WORKER = Path(__file__).resolve().parent / "worker.py"
SPANS_DIR = Path(".bench_out")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

# The traced run's check that each workload stresses the layer it is for:
# (summed layer metrics, base metric, ">=" or "<=", share).
STRESS = {
    "sweep-exact-syk12": [(("trotter.formula_s",), "trace.solve_s", ">=", 0.85)],
    "order4-sampled-syk12": [
        (("trotter.formula_self_s",), "trotter.formula_s", ">=", 0.5)
    ],
    "disorder-gqsp-syk8": [
        (
            ("thermal.boltz_self_s", "lwf.fourier_s", "gqsp.synth_s", "gqsp.apply_s"),
            "trace.solve_s",
            ">=",
            0.6,
        ),
        (("trotter.formula_s",), "trace.solve_s", "<=", 0.3),
    ],
}


class WorkerError(RuntimeError):
    """A worker process failed, timed out, or broke the line protocol."""


def run_worker(flags: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start one worker, wait for it to end; returns (set-up seconds, result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *flags], stdout=subprocess.PIPE, text=True, env=env
    )
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if not line.startswith(PROTOCOL_TAG):
                sys.stderr.write(line)
                continue
            record = json.loads(line[len(PROTOCOL_TAG):])
            if record["event"] == "ready":
                ready = time.perf_counter() - start
            elif record["event"] == "result":
                result = record
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise WorkerError(f"worker {flags} exited with code {proc.returncode}")
    return ready, result


def stress_lines(name: str, metrics: dict) -> list[str]:
    lines = []
    for parts, base, op, share in STRESS.get(name, []):
        measured = sum(metrics[p] for p in parts) / metrics[base]
        met = measured >= share if op == ">=" else measured <= share
        lines.append(
            f"  stress {' + '.join(parts)} / {base} = {measured:.3f} "
            f"(claim {op} {share}: {'met' if met else 'MISSED'})"
        )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not Path("src/trottergibbs/__init__.py").is_file():
        print("perfbench: run from the root of a trottergibbs checkout", file=sys.stderr)
        return 2
    flags = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(flags + ["--seconds", "0", "--setup-only"], deadline)[0])
        run_flags = flags + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            run_flags += ["--spans-out", str(spans_path)]
        ready, result = run_worker(run_flags, deadline)
    except WorkerError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if result is None:
        print("perfbench: worker printed no result", file=sys.stderr)
        return 1
    setups.append(ready)

    errors = result["errors"]
    tol = result["tolerance"]
    raised = sum(e is None for e in errors)
    inaccurate = sum(e is not None and not e <= tol for e in errors)
    measured = [e for e in errors if e is not None]
    n_passes = len(result["pass_s"]) + len(result["traced_pass_s"])

    lines = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"passes={n_passes} solves={len(errors)}"
    ]
    if args.trace:
        traced = statistics.median(result["traced_pass_s"])
        metrics = dict(result["layers"])
        metrics["trace.solve_s"] = traced
        metrics["trace.overhead_s"] = traced - statistics.median(result["pass_s"])
        units = {m: metric_unit(kind) for m, kind, _, _ in LAYER_METRICS}
        units.update({m: unit for m, unit, _ in TRACE_METRICS})
        moves = {m: f"-> {target}" for m, _, _, target in LAYER_METRICS}
        moves.update({m: note for m, _, note in TRACE_METRICS})
        lines += [
            f"  {m:<26} {v:<12.6g} {units[m]:<6} {moves[m]}" for m, v in metrics.items()
        ]
        lines += stress_lines(args.workload, metrics)
        lines.append(f"  spans written to {spans_path}")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(result["pass_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes",
            "solve_s": f"median of {len(result['pass_s'])} passes",
            "peak_rss_mb": "process that ran the passes",
        }
        lines += [f"  {m:<26} {v:.6g} {units[m]}  ({notes[m]})" for m, v in metrics.items()]
    latencies = sorted(result["solve_s"])
    # The highest tail percentile that still has ten samples beyond it.
    tail = ""
    if len(latencies) > 20:
        tail = f", p{100 * (len(latencies) - 10) // len(latencies)} {latencies[-11]:.4g} s"
    lines += [
        f"  {'solve latency':<26} median {statistics.median(latencies):.4g} s{tail} "
        f"over {len(latencies)} untraced solves",
        f"  {'solves_attempted':<26} {len(errors)} count",
        f"  {'solves_failed':<26} {raised + inaccurate} count "
        f"({inaccurate} outside tolerance, {raised} raised PipelineError)",
        f"  {'max_rel_err':<26} {max(measured, default=float('nan')):.3g} "
        f"(median {statistics.median(measured) if measured else float('nan'):.3g}, "
        f"tolerance {tol:.3g})",
        "  env " + json.dumps(result["env"], sort_keys=True),
    ]
    lines += [f"  raised: {message}" for message in result["raised"]]
    lines += [
        f"  outside tolerance: solve {k} relative error {e!r}"
        for k, e in enumerate(errors)
        if e is not None and not e <= tol
    ]
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": inaccurate == 0 and bool(measured),
                "attempted": len(errors),
                "failed": raised + inaccurate,
                "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
