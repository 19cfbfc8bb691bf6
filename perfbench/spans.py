"""Outside-in span tracer and the per-layer metrics read off its spans.

The tracer wraps public functions of ``trottergibbs`` from outside the
package: each function is replaced by a timing wrapper in every module
namespace that holds it (``pipeline.effective_hamiltonian``,
``trotter.eigh_decompose``, ``syk.to_dense``, ...), so calls made through
any import are seen.  A function the package no longer has is skipped and
its metrics read zero.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "trottergibbs"


def _estimate_counts(result) -> dict:
    return {
        "queries": getattr(result, "queries", 0),
        "rounds": getattr(result, "rounds", 0),
    }


def _fourier_counts(result) -> dict:
    return {"degree": getattr(result, "M", 0)}


# (span name, defining module, attribute path, counters read off the result)
PROBES = (
    ("syk.sample_syk", "syk", "sample_syk", None),
    ("syk.build_syk_hamiltonian", "syk", "build_syk_hamiltonian", None),
    ("syk.term_matrices", "syk", "HamiltonianTerms.term_matrices", None),
    ("paulis.to_dense", "paulis", "to_dense", None),
    ("linalg.eigh_decompose", "linalg", "eigh_decompose", None),
    ("linalg.matrix_log_unitary", "linalg", "matrix_log_unitary", None),
    ("trotter.apply_formula", "trotter", "apply_formula", None),
    ("trotter.effective_hamiltonian", "trotter", "effective_hamiltonian", None),
    ("thermal.exact_p0", "thermal", "exact_p0", None),
    ("thermal.build_u_boltz", "thermal", "build_u_boltz", None),
    ("thermal.amplitude_estimate", "thermal", "amplitude_estimate", _estimate_counts),
    ("lwf.gibbs_fourier", "lwf", "gibbs_fourier", _fourier_counts),
    ("gqsp.synthesize_laurent", "gqsp", "synthesize_laurent", None),
    ("gqsp.gqsp_apply", "gqsp", "gqsp_apply", None),
    ("cheb.exact_partition", "cheb", "exact_partition", None),
    ("cheb.interpolate_to_zero", "cheb", "interpolate_to_zero", None),
    ("pipeline.run_pipeline", "pipeline", "run_pipeline", None),
    ("pipeline.cost_model", "pipeline", "cost_model", None),
)

SWEEP = "sweep-exact-syk12"
ORDER4 = "order4-sampled-syk12"
DISORDER = "disorder-gqsp-syk8"

# (metric, kind, spans, the end-to-end metric and workload it should move).
# Kinds: "calls" counts spans, "time" sums outermost span durations,
# "self" sums self times, "sum:<key>" sums a counter read off the result.
LAYER_METRICS = (
    ("syk.build_s", "time", ("syk.sample_syk", "syk.build_syk_hamiltonian"),
     f"setup_s on {DISORDER}"),
    ("syk.term_matrices_calls", "calls", ("syk.term_matrices",),
     f"solve_s, peak_rss_mb on {SWEEP}"),
    ("syk.term_matrices_s", "time", ("syk.term_matrices",),
     f"solve_s, peak_rss_mb on {SWEEP}"),
    ("paulis.to_dense_calls", "calls", ("paulis.to_dense",), f"solve_s on {SWEEP}"),
    ("linalg.eigh_calls", "calls", ("linalg.eigh_decompose",), f"solve_s on {SWEEP}"),
    ("linalg.eigh_s", "time", ("linalg.eigh_decompose",), f"solve_s on {SWEEP}"),
    ("linalg.log_unitary_s", "time", ("linalg.matrix_log_unitary",),
     f"solve_s on {SWEEP}"),
    ("trotter.formula_calls", "calls", ("trotter.apply_formula",),
     f"solve_s on {SWEEP}"),
    ("trotter.formula_s", "time", ("trotter.apply_formula",), f"solve_s on {SWEEP}"),
    ("trotter.formula_self_s", "self", ("trotter.apply_formula",),
     f"solve_s on {ORDER4}"),
    ("trotter.heff_self_s", "self", ("trotter.effective_hamiltonian",),
     f"solve_s on {SWEEP}"),
    ("thermal.exact_p0_s", "time", ("thermal.exact_p0",), f"solve_s on {SWEEP}"),
    ("thermal.boltz_calls", "calls", ("thermal.build_u_boltz",),
     f"solve_s on {DISORDER}"),
    ("thermal.boltz_s", "time", ("thermal.build_u_boltz",), f"solve_s on {DISORDER}"),
    ("thermal.boltz_self_s", "self", ("thermal.build_u_boltz",),
     f"solve_s on {DISORDER}"),
    ("thermal.ae_s", "time", ("thermal.amplitude_estimate",), f"solve_s on {ORDER4}"),
    ("thermal.ae_queries", "sum:queries", ("thermal.amplitude_estimate",),
     f"solve_s on {ORDER4}"),
    ("thermal.ae_rounds", "sum:rounds", ("thermal.amplitude_estimate",),
     f"solve_s on {ORDER4}"),
    ("lwf.fourier_calls", "calls", ("lwf.gibbs_fourier",), f"solve_s on {DISORDER}"),
    ("lwf.fourier_s", "time", ("lwf.gibbs_fourier",), f"solve_s on {DISORDER}"),
    ("lwf.fourier_degree_sum", "sum:degree", ("lwf.gibbs_fourier",),
     f"solve_s on {DISORDER}"),
    ("gqsp.synth_s", "time", ("gqsp.synthesize_laurent",), f"solve_s on {DISORDER}"),
    ("gqsp.apply_calls", "calls", ("gqsp.gqsp_apply",), f"solve_s on {DISORDER}"),
    ("gqsp.apply_s", "time", ("gqsp.gqsp_apply",), f"solve_s on {DISORDER}"),
    ("cheb.oracle_calls", "calls", ("cheb.exact_partition",), f"solve_s on {SWEEP}"),
    ("cheb.oracle_s", "time", ("cheb.exact_partition",), f"solve_s on {SWEEP}"),
    ("cheb.extrapolate_s", "time", ("cheb.interpolate_to_zero",),
     f"solve_s on {SWEEP}"),
    ("pipeline.self_s", "self", ("pipeline.run_pipeline",), f"solve_s on {DISORDER}"),
    ("pipeline.cost_model_s", "time", ("pipeline.cost_model",),
     f"solve_s on {DISORDER}"),
)

# Measured by the traced run itself rather than read off spans.
TRACE_METRICS = (
    ("trace.solve_s", "s", "traced solve_s; the base of the layer shares"),
    ("trace.overhead_s", "s", "traced solve_s minus untraced solve_s"),
)


def metric_unit(kind: str) -> str:
    return "count" if kind == "calls" or kind.startswith("sum:") else "s"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    solve: object
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects nested spans from the wrapped package functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solve = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.solve))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counts is not None:
                tracer.spans[idx].counts = counts(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every probe in every package namespace that holds it."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for span_name, module, path, counts in PROBES:
            holder = sys.modules.get(f"{PACKAGE}.{module}")
            *owners, attr = path.split(".")
            for owner in owners:
                holder = getattr(holder, owner, None)
            # Class attributes are read from __dict__ to get the plain function.
            original = vars(holder).get(attr) if holder is not None else None
            if not callable(original):
                continue
            traced = self.wrap(span_name, original, counts)
            targets = [holder] if owners else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, traced)
                        self._undo.append((target, key, original))

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    @contextlib.contextmanager
    def installed(self):
        """Trace inside the block; the package is restored on exit."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        """Spans as JSON lines, times relative to the first span's start."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                record = {
                    "name": s.name,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    "parent": s.parent,
                    "solve": s.solve,
                    "counts": s.counts,
                }
                fh.write(json.dumps(record) + "\n")


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(i, ())
        ]
        out.append(s.end - s.start - covered_length(clipped))
    return out


def _outermost(spans: list[Span], i: int, names) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name in names:
            return False
        parent = spans[parent].parent
    return True


def layer_metrics(spans: list[Span], n_passes: int) -> dict[str, float]:
    """Every LAYER_METRICS value, per pass."""
    selfs = self_times(spans)
    out = {}
    for metric, kind, names, _moves in LAYER_METRICS:
        picked = [i for i, s in enumerate(spans) if s.name in names]
        if kind == "calls":
            value = float(len(picked))
        elif kind == "time":
            value = sum(
                spans[i].end - spans[i].start
                for i in picked
                if _outermost(spans, i, names)
            )
        elif kind == "self":
            value = sum(selfs[i] for i in picked)
        else:
            key = kind.split(":", 1)[1]
            value = float(sum(spans[i].counts.get(key, 0) for i in picked))
        out[metric] = value / n_passes
    return out
