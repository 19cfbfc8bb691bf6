"""One workload run in a fresh process: set up, solve for a while, report.

Started by ``run.py`` with ``PYTHONPATH=src`` from the root of a checkout.
It pins BLAS to one thread before numpy loads, imports the package from
that checkout's ``src``, builds the first pass's models, and prints a
ready line; ``run.py`` times process start to that line as set-up.  Then
it runs passes until ``--seconds`` have gone by, checks every solve
against the dense reference outside the timed region, and prints one
result line.  Protocol lines start with ``PROTOCOL_TAG``.
"""

from __future__ import annotations

import os

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, estimator_seed, model_docs  # noqa: E402

PROTOCOL_TAG = "@perfbench "


def emit(event: str, **fields) -> None:
    print(PROTOCOL_TAG + json.dumps({"event": event, **fields}), flush=True)


def load_program(root: Path):
    """The package under ``root/src``, refusing any other installed copy."""
    import trottergibbs
    import trottergibbs.cli  # noqa: F401  (not imported by the package itself)

    found = Path(trottergibbs.__file__).resolve().parent
    if found != (root / "src" / "trottergibbs").resolve():
        raise SystemExit(f"trottergibbs imported from {found}, not from {root}/src")
    return trottergibbs


def build_models(tg, name: str, seed: int, pass_index: int) -> list:
    return [tg.cli.build_model(doc) for doc in model_docs(name, seed, pass_index)]


def run_pass(tg, name, seed, pass_index, models, tracer) -> tuple[float, list, list]:
    """Solve every (draw, beta) of one pass.

    Returns the pass wall time, each solve's wall time, and each solve's
    outcome: the extrapolated Z/N, or the PipelineError it raised.
    """
    wl = WORKLOADS[name]
    outcomes = []
    solve_s = []
    start = time.perf_counter()
    for j, model in enumerate(models):
        for b, beta in enumerate(wl.betas):
            solve = j * len(wl.betas) + b
            if tracer is not None:
                tracer.solve = f"{pass_index}:{solve}"
            cfg = tg.PipelineConfig(
                model=model,
                beta=beta,
                order=wl.order,
                base_step=wl.base_step,
                m_cheb=wl.m_cheb,
                eps_qsp=wl.eps_qsp,
                eps_cheb=wl.eps_cheb,
                eps_stat=wl.eps_stat,
                mode=wl.mode,
                seed=estimator_seed(seed, name, pass_index, solve),
                schedule=tg.thermal.EstimationSchedule(alpha=wl.ae_alpha),
            )
            t0 = time.perf_counter()
            try:
                outcomes.append(tg.run_pipeline(cfg).extrapolated)
            except tg.pipeline.PipelineError as err:
                outcomes.append(err)
            solve_s.append(time.perf_counter() - t0)
    return time.perf_counter() - start, solve_s, outcomes


def relative_errors(tg, name: str, models: list, outcomes: list) -> list:
    """|Z - Z_ref| / Z_ref per solve, or None for a solve that raised."""
    betas = WORKLOADS[name].betas
    errors = []
    for k, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            errors.append(None)
            continue
        ref = tg.exact_partition(models[k // len(betas)], betas[k % len(betas)])
        errors.append(abs(outcome - ref) / abs(ref))
    return errors


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()
    name, seed = args.workload, args.seed

    tg = load_program(Path.cwd())
    models = build_models(tg, name, seed, 0)
    emit("ready")
    if args.setup_only:
        return 0

    # In a traced run odd passes are traced and even ones are not, so the
    # tracing overhead is measured on the same machine state.
    tracer = Tracer() if args.trace else None
    pass_s = {False: [], True: []}
    solve_s: list[float] = []
    errors: list = []
    raised: list[str] = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if tracer is not None:
            tracer.solve = f"{i}:build"
        with tracer.installed() if traced else contextlib.nullcontext():
            if i > 0:
                models = build_models(tg, name, seed, i)
            wall, solves, outcomes = run_pass(
                tg, name, seed, i, models, tracer if traced else None
            )
        pass_s[traced].append(wall)
        if not traced:
            solve_s += solves
        errors += relative_errors(tg, name, models, outcomes)
        raised += [f"pass {i}: {o}" for o in outcomes if isinstance(o, Exception)]
        i += 1
        # Stop before a pass that would likely end past --seconds.
        typical = statistics.median(pass_s[False] + pass_s[True])
        if time.perf_counter() - start + typical > args.seconds and (tracer is None or i >= 2):
            break

    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer.spans, len(pass_s[True]))
        if args.spans_out:
            tracer.write(args.spans_out)
    emit(
        "result",
        pass_s=pass_s[False],
        traced_pass_s=pass_s[True],
        solve_s=solve_s,
        errors=errors,
        raised=raised,
        tolerance=WORKLOADS[name].tolerance(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        layers=layers,
        env=environment(),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
