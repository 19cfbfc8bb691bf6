"""Reproducible command-line experiments.

Subcommands
-----------
lwf-convergence : expansion order vs target error for the Taylor and
                  low-weight Fourier routes, with linear fits.
qubits-saved    : ancilla-count table against the block-encoding baseline.
pipeline        : one end-to-end partition-function run with manifest.
trotter-order   : effective-Hamiltonian error law and fitted slopes.

Every command reads a single JSON config document (--config), honors a
--seed override, and writes CSV/JSON artifacts plus a manifest into the
output directory.  Exit codes: 0 success, 2 config error, 3 numeric
failure.  Floats in CSV carry 17 significant digits so reruns are
byte-comparable.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import __version__
from .cheb import exact_partition
from .lwf import CERT_GRID, ApproximationError, gibbs_fourier, gibbs_taylor, taylor_order
from .paulis import DENSE_QUBIT_CAP, LETTERS, PauliString
from .pipeline import PIPELINE_MODES, PipelineConfig, PipelineError, ancilla_savings, run_pipeline
from .syk import HamiltonianTerms, build_syk_hamiltonian, sample_syk
from .trotter import MAX_ORDER, check_order, trotter_error_norm

FORMAT_VERSION = 1
FLOAT_FMT = ".17g"

COMMANDS = ("lwf-convergence", "qubits-saved", "pipeline", "trotter-order")

_num = (int, float)  # validates to a float
# List keys name their entry type; entries of a float list may be ints and
# validate to floats.
_num_list = list[float]
_int_list = list[int]

MODEL_SCHEMAS = {
    "syk": {
        "kind": (str, None, True),
        "n_majorana": (int, 8, False),
        "seed": (int, 7, False),
        "one_norm": (_num, None, False),
    },
    "pauli": {
        "kind": (str, None, True),
        "n_qubits": (int, None, True),
        "terms": (list, None, True),
    },
}

DEFAULT_MODEL = {"kind": "syk", "n_majorana": 8, "seed": 7, "one_norm": 1.0}

# Fourth-order Trotter errors sit below the eigensolver noise floor unless
# the commutator scale is large, so the order-law command defaults to a
# stronger coupling normalization; slopes are scale-invariant.
DEFAULT_TROTTER_MODEL = {"kind": "syk", "n_majorana": 8, "seed": 7, "one_norm": 64.0}

SCHEMAS = {
    "lwf-convergence": {
        "betas": (_num_list, [1.0, 2.0, 4.0, 8.0], False),
        "delta": (_num, None, False),
        "eps_grid": (_num_list, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6], False),
        "grid_points": (int, 1000, False),
        "include_taylor": (bool, True, False),
        "seed": (int, 0, False),
    },
    "qubits-saved": {
        "n_majorana": (_int_list, [8, 10, 12, 14, 16], False),
        "seed": (int, 0, False),
    },
    "pipeline": {
        "model": (dict, DEFAULT_MODEL, False),
        "beta": (_num, 2.0, False),
        "order": (int, 2, False),
        "base_step": (_num, 1.0, False),
        "m_cheb": (int, 4, False),
        "eps_qsp": (_num, 1e-6, False),
        "eps_cheb": (_num, 1e-4, False),
        "eps_stat": (_num, 0.05, False),
        "mode": (str, "exact", False),
        "seed": (int, 0, False),
    },
    "trotter-order": {
        "model": (dict, DEFAULT_TROTTER_MODEL, False),
        "orders": (_int_list, [1, 2, 4], False),
        "tau_min": (_num, 1e-3, False),
        "tau_max": (_num, 1e-1, False),
        "tau_points": (int, 7, False),
        "seed": (int, 0, False),
    },
}


# Value ranges, checked wherever the key appears: (test of the validated value, its meaning).
# Every count has an upper bound, so a huge integer is refused here rather
# than overflowing a float, or allocating or looping without end, mid-run.
RANGES = {
    "betas": (lambda v: all(0 < b < math.inf for b in v), "finite and > 0"),
    "delta": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "eps_grid": (lambda v: all(0 < e < 1 for e in v), "in (0, 1)"),
    "grid_points": (lambda v: 2 <= v <= 10**4, "in [2, 10000]"),
    "m_cheb": (lambda v: v <= 1000, "<= 1000"),
    "order": (lambda v: v <= MAX_ORDER, f"<= {MAX_ORDER}"),
    "orders": (lambda v: all(p <= MAX_ORDER for p in v), f"<= {MAX_ORDER} in every entry"),
    # An SYK model's count, or each entry of the qubits-saved list.  Checked on
    # the Python ints: a numpy array of them turns past 2^63 into float64 and
    # loses their parity.
    "n_majorana": (
        lambda v: all(n >= 4 and n % 2 == 0 for n in (v if isinstance(v, list) else [v])),
        "even and >= 4",
    ),
    "terms": (lambda v: len(v) > 0, "non-empty"),
    "one_norm": (lambda v: v >= 0, ">= 0"),  # 0 is the zero Hamiltonian
    "tau_min": (lambda v: v > 0, "> 0"),
    "tau_points": (lambda v: 2 <= v <= 1000, "in [2, 1000]"),
}

# A trotter-order grid must move the lowest order's error norm, by about
# p_min * span(log tau) in relative terms, past this many times the d eps
# relative rounding that norms of d x d matrices carry at best.
TAU_SPAN_MARGIN = 100.0


class ConfigError(ValueError):
    """A config document failed validation."""


def validate_config(doc: dict, schema: dict, where: str) -> dict:
    """Schema-check one document level; unknown keys are rejected.

    Values of number keys and entries of number-list keys come back as
    floats and a ``model`` as a checked model document, so documents equal
    by value validate to the same JSON.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise ConfigError(f"{where}: unknown config keys {unknown}")
    out = {}
    for key, (types, default, required) in schema.items():
        if key in doc and doc[key] is not None:
            value = doc[key]
            entry = get_args(types)[0] if get_args(types) else None  # of a list key
            types = get_origin(types) or types
            if isinstance(value, bool) and types is not bool:
                raise ConfigError(f"{where}: key {key!r} must not be a boolean")
            if not isinstance(value, types):
                raise ConfigError(
                    f"{where}: key {key!r} has type {type(value).__name__}"
                )
            if entry is not None:
                allowed, noun = (_num, "numbers") if entry is float else (int, "integers")
                if any(isinstance(v, bool) or not isinstance(v, allowed) for v in value):
                    raise ConfigError(f"{where}: entries of {key!r} must be {noun}")
            try:  # float() of an integer with hundreds of digits overflows
                if entry is not None:
                    value = [entry(v) for v in value]
                out[key] = float(value) if types is _num else value
            except OverflowError:
                raise ConfigError(f"{where}: {key!r} is outside the float range") from None
        elif required:
            raise ConfigError(f"{where}: missing required key {key!r}")
        else:
            out[key] = default
    for key, (ok, bound) in RANGES.items():
        if out.get(key) is not None and not ok(out[key]):
            raise ConfigError(f"{where}: {key!r} must be {bound}, got {out[key]}")
    if "model" in out:
        out["model"] = validate_model(out["model"])
    return out


def validate_model(doc: dict) -> dict:
    """Schema-check a model sub-document; term coefficients become floats.

    A pauli label must spell one of I, X, Y, Z per qubit: a shorter string
    would act on the wrong qubits of the register.  Sizes past the dense cap are refused.
    """
    kind = doc.get("kind")
    if kind not in MODEL_SCHEMAS:
        raise ConfigError(f"model.kind must be one of {sorted(MODEL_SCHEMAS)}")
    spec = validate_config(doc, MODEL_SCHEMAS[kind], f"model[{kind}]")
    n_qubits = spec["n_qubits"] if kind == "pauli" else spec["n_majorana"] // 2
    if n_qubits > DENSE_QUBIT_CAP:
        raise ConfigError(f"model[{kind}]: {n_qubits} qubits exceeds dense cap {DENSE_QUBIT_CAP}")
    if kind == "pauli":
        terms = []
        for entry in spec["terms"]:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ConfigError("model.terms entries must be [coefficient, label] pairs")
            coef, label = entry
            if isinstance(coef, bool) or not isinstance(coef, _num):
                raise ConfigError("model.terms coefficients must be numbers")
            n = spec["n_qubits"]
            if not (isinstance(label, str) and len(label) == n and set(label) <= set(LETTERS)):
                raise ConfigError(f"model.terms label {label!r} must be {n} letters from {LETTERS}")
            try:
                terms.append([float(coef), label])
            except OverflowError:
                raise ConfigError("model.terms coefficient is outside the float range") from None
        spec["terms"] = terms
    return spec


def build_model(doc: dict) -> HamiltonianTerms:
    """Hamiltonian from a model sub-document (SYK draw or literal terms)."""
    spec = validate_model(doc)
    if spec["kind"] == "syk":
        h = build_syk_hamiltonian(sample_syk(spec["n_majorana"], seed=spec["seed"]))
        if spec["one_norm"] is not None:
            factor = spec["one_norm"] / h.one_norm
            h = HamiltonianTerms(h.n_qubits, [(c * factor, s) for c, s in h.terms])
        return h
    terms = [(coef, PauliString.from_label(label)) for coef, label in spec["terms"]]
    return HamiltonianTerms(spec["n_qubits"], terms)


def format_value(value) -> str:
    if isinstance(value, float):
        return format(value, FLOAT_FMT)
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    """Format every row first: an unwritable value raises before the directory or file is made."""
    try:
        cells = [[format_value(v) for v in row] for row in rows]
    except ValueError as err:  # an integer past Python's int-to-str digit limit
        raise ValueError(f"{path.name}: {err}") from err
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(cells)


def write_json(path: Path, payload) -> None:
    """Serialize first, so a non-finite number raises before the directory or file is made."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out_dir: Path, command: str, cfg: dict, artifacts: list[Path]) -> Path:
    """Record the run: config hash, code version, artifact digests.

    The timestamp documents when the run happened; determinism claims are
    about the artifact bytes, which the digests pin down.  They hold per
    numerical environment, which ``environment`` records.
    """
    manifest = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "code_version": __version__,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "master_seed": cfg.get("seed", 0),
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "environment": numerical_environment(),
        "artifacts": [
            {"path": p.name, "sha256": sha256_of(p)} for p in sorted(artifacts)
        ],
    }
    path = out_dir / "manifest.json"
    write_json(path, manifest)
    return path


def numerical_environment() -> dict:
    """What the artifact bits depend on besides the document: numpy, its BLAS
    and LAPACK builds, the ``*_NUM_THREADS`` variables and the CPU count."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy before 1.25 only prints its configuration
        deps = {}
    return {
        "numpy": np.__version__,
        **{
            lib: {key: deps.get(lib, {}).get(key) for key in ("name", "version")}
            for lib in ("blas", "lapack")
        },
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def _fit_rank(x: np.ndarray) -> int:
    """Rank of ``np.polyfit``'s line fit on abscissae x; below 2 it fits an arbitrary line."""
    return int(np.polyfit(x, np.zeros_like(x), 1, full=True)[2])


def _linear_fit(x: np.ndarray, y: np.ndarray) -> dict:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - np.mean(y)
    denom = float(np.dot(total, total))
    r2 = 1.0 - float(np.dot(resid, resid)) / denom if denom > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2}


def cmd_lwf_convergence(cfg: dict, out_dir: Path) -> list[Path]:
    if cfg["delta"] is None and min(cfg["betas"], default=1.0) < 1.0:
        raise ConfigError("lwf-convergence: delta defaults to 1/beta; betas below 1 need a delta")
    eps_grid = cfg["eps_grid"]
    log_inv_eps = np.log(1.0 / np.asarray(eps_grid))
    if _fit_rank(log_inv_eps) < 2:
        raise ConfigError(
            "lwf-convergence: 'eps_grid' needs 2+ values that a line fit tells apart in log(1/eps)"
        )
    grid = np.linspace(-1.0, 1.0, cfg["grid_points"])
    rows = []
    fits = []
    for beta in cfg["betas"]:
        delta = cfg["delta"] if cfg["delta"] is not None else 1.0 / beta
        orders = {"taylor": [], "lwf": []}
        for eps in eps_grid:
            try:
                if cfg["include_taylor"]:
                    k = taylor_order(beta, eps)
                    ts = gibbs_taylor(beta, k)
                    sup = float(np.max(np.abs(ts.evaluate(grid) - np.exp(-beta * (grid + 1.0)))))
                    rows.append(("taylor", beta, k, sup))
                    orders["taylor"].append(k)
                fa = gibbs_fourier(beta, delta, eps)
                sup = fa.certify()  # measured on CERT_GRID points, so reused there
            except ApproximationError as err:
                raise ApproximationError(
                    f"lwf-convergence: beta={beta!r}, eps={eps!r}: {err}", err.split
                ) from err
            if cfg["grid_points"] != CERT_GRID:
                sup = fa.sup_error(cfg["grid_points"])
            rows.append(("lwf", beta, fa.M, sup))
            orders["lwf"].append(fa.M)
        for kind, ms in orders.items():
            if ms:
                fit = _linear_fit(log_inv_eps, np.asarray(ms, dtype=float))
                fits.append({"expansion_type": kind, "beta": beta, **fit})
    csv_path = out_dir / "lwf_convergence.csv"
    write_csv(csv_path, ["expansion_type", "beta", "m_or_k", "sup_error"], rows)
    fits_path = out_dir / "lwf_fits.json"
    write_json(fits_path, {"format_version": FORMAT_VERSION, "eps_grid": eps_grid, "fits": fits})
    return [csv_path, fits_path]


def cmd_qubits_saved(cfg: dict, out_dir: Path) -> list[Path]:
    rows = [(n, math.comb(n, 4), ancilla_savings(n), 1) for n in cfg["n_majorana"]]
    csv_path = out_dir / "qubits_saved.csv"
    write_csv(csv_path, ["n_majorana", "gamma", "saved", "this_method_ancillas"], rows)
    return [csv_path]


def cmd_pipeline(cfg: dict, out_dir: Path) -> list[Path]:
    model = build_model(cfg["model"])
    try:
        pipe_cfg = PipelineConfig(**{**cfg, "model": model})
    except ValueError as err:
        raise ConfigError(str(err)) from err
    result = run_pipeline(pipe_cfg)
    oracle = exact_partition(model, pipe_cfg.beta)
    realized = abs(result.extrapolated_exact - oracle)
    if not (math.isfinite(oracle) and math.isfinite(realized)):
        raise PipelineError(
            f"extrapolation: estimate {result.extrapolated!r}, exact "
            f"{result.extrapolated_exact!r}, reference {oracle!r} or the gap between the "
            "last two is not a finite float"
        )
    payload = {
        "format_version": FORMAT_VERSION,
        "beta": pipe_cfg.beta,
        "mode": pipe_cfg.mode,
        "m_cheb": pipe_cfg.m_cheb,
        "order": pipe_cfg.order,
        "base_step": pipe_cfg.base_step,
        "seed": pipe_cfg.seed,
        "extrapolated": result.extrapolated,
        "extrapolated_exact": result.extrapolated_exact,
        "oracle": oracle,
        "eps_cheb_realized": realized,
        "cost": result.cost,
    }
    json_path = out_dir / "pipeline_result.json"
    write_json(json_path, payload)
    csv_path = out_dir / "pipeline_nodes.csv"
    write_csv(
        csv_path,
        ["s_k", "d_k", "z_node_exact", "z_node_hat", "depth", "queries"],
        [(r.s_k, r.d_k, r.z_exact, r.z_hat, r.depth, r.queries) for r in result.nodes],
    )
    records = [
        {"s_k": r.s_k, "beta_k": r.beta_k, "mode": pipe_cfg.mode, "p0_exact": r.p0_exact,
         "p0_hat": r.p0_hat, "queries": r.queries, "seed": r.seed}
        for r in result.nodes
    ]
    jsonl_path = out_dir / "pipeline_nodes.jsonl"
    # Written after the JSON made the directory.
    jsonl_path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return [json_path, csv_path, jsonl_path]


def cmd_trotter_order(cfg: dict, out_dir: Path) -> list[Path]:
    for p in cfg["orders"]:
        try:
            check_order(p)
        except ValueError as err:
            raise ConfigError(f"trotter-order: entry of 'orders': {err}") from err
    if not cfg["tau_min"] < cfg["tau_max"] < math.inf:
        raise ConfigError("trotter-order: 'tau_max' must be finite and > 'tau_min'")
    taus = np.geomspace(cfg["tau_min"], cfg["tau_max"], cfg["tau_points"])
    log_taus = np.log(taus)
    if _fit_rank(log_taus) < 2:
        raise ConfigError(
            f"trotter-order: the tau grid [{cfg['tau_min']!r}, {cfg['tau_max']!r}] is too "
            "narrow in log(tau) for a line fit"
        )
    model = build_model(cfg["model"])
    span = float(log_taus[-1] - log_taus[0])
    rounding = 2**model.n_qubits * np.finfo(float).eps  # d eps
    p_min = min(cfg["orders"], default=math.inf)
    if p_min * span <= TAU_SPAN_MARGIN * rounding:
        raise ConfigError(
            f"trotter-order: the tau grid spans {span:.3g} in log(tau), so order {p_min} "
            f"moves its error norm by about {p_min * span:.3g} relative, not past "
            f"{TAU_SPAN_MARGIN:g} times the norms' rounding d eps = {rounding:.3g}"
        )
    rows = []
    fits = []
    for p in cfg["orders"]:
        errs = np.array([_error_norm(model, float(t), p) for t in taus])
        if np.any(errs == 0.0):
            raise ValueError(f"trotter-order: order {p} is exact on this model; nothing to fit")
        rows.extend((p, float(t), float(e)) for t, e in zip(taus, errs))
        fits.append({"order": p, **_linear_fit(log_taus, np.log(errs))})
    csv_path = out_dir / "trotter_errors.csv"
    write_csv(csv_path, ["order", "tau", "error"], rows)
    fits_path = out_dir / "trotter_fits.json"
    write_json(fits_path, {"format_version": FORMAT_VERSION, "fits": fits})
    return [csv_path, fits_path]


def _error_norm(model: HamiltonianTerms, tau: float, order: int) -> float:
    """``trotter_error_norm``, a failure named by the order and tau it came from."""
    try:
        return trotter_error_norm(model, tau, order)
    except ValueError as err:
        raise ValueError(f"trotter-order: order {order} at tau={tau!r}: {err}") from err


HANDLERS = {
    "lwf-convergence": cmd_lwf_convergence,
    "qubits-saved": cmd_qubits_saved,
    "pipeline": cmd_pipeline,
    "trotter-order": cmd_trotter_order,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trottergibbs",
        description="Seeded partition-function experiments with CSV/JSON artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config document")
        p.add_argument("--seed", type=int, default=None, help="override the document seed")
        p.add_argument("--out", type=str, default="runs", help="output directory")
        if name == "pipeline":
            p.add_argument(
                "--mode",
                choices=PIPELINE_MODES,
                default=None,
                help="override the document mode",
            )
    return parser


def load_document(path: str | None) -> dict:
    if path is None:
        return {}

    def refuse(constant: str):
        raise ConfigError(f"config {path} holds {constant}; numbers must be finite")

    def finite(text: str) -> float:  # 1e400 parses to inf
        return value if math.isfinite(value := float(text)) else refuse(text)

    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=refuse, parse_float=finite)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except ConfigError:
        raise
    except ValueError as err:  # JSONDecodeError, or an integer past the int-to-str digit limit
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = load_document(args.config)
        if args.seed is not None:
            doc["seed"] = args.seed
        if getattr(args, "mode", None) is not None:
            doc["mode"] = args.mode
        cfg = validate_config(doc, SCHEMAS[args.command], args.command)
        out_dir = Path(args.out)
        artifacts = HANDLERS[args.command](cfg, out_dir)
        manifest = write_manifest(out_dir, args.command, cfg, artifacts)
    except ConfigError as err:
        print(json.dumps({"error": {"type": "config", "message": str(err)}}))
        return 2
    except Exception as err:  # numeric/stage failures map to one exit code
        print(
            json.dumps(
                {"error": {"type": type(err).__name__, "message": str(err)}}
            )
        )
        return 3
    print(
        json.dumps(
            {
                "command": args.command,
                "out": str(out_dir),
                "artifacts": [p.name for p in artifacts],
                "manifest": manifest.name,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
