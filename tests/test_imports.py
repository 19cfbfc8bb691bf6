"""What the package exports, which modules a run loads (SciPy stays off every
path but ``trotter-order``), that no library function, class, method or
property is there only for the tests, that every library dataclass is
frozen, that no library call passes ``out=`` to ``np.fft``, and that no
two test modules define the same helper."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import trottergibbs

SRC = Path(trottergibbs.__file__).resolve().parent.parent
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = Path(trottergibbs.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# Runs in a fresh interpreter and prints the SciPy modules loaded after the
# imports, after each mode's run and after an lwf-convergence run, in that order.
SCRIPT = """
import json
import sys
import tempfile

import trottergibbs
import trottergibbs.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
model = trottergibbs.cli.build_model({"kind": "syk", "n_majorana": 8, "seed": 7})
for mode in ("exact", "sampled", "gqsp", "ideal-w"):
    cfg = trottergibbs.PipelineConfig(model=model, beta=1.0, mode=mode)
    trottergibbs.run_pipeline(cfg)
    loaded[mode] = scipy_modules()
with tempfile.TemporaryDirectory() as out:
    argv = ["lwf-convergence", "--config", sys.argv[1], "--out", out]
    assert trottergibbs.cli.main(argv) == 0
loaded["lwf-convergence"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_no_run_but_trotter_order_loads_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    config = ROOT / "configs" / "lwf_convergence.json"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(config)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert list(loaded) == ["import", "exact", "sampled", "gqsp", "ideal-w", "lwf-convergence"]
    assert all(modules == [] for modules in loaded.values()), loaded


def test_public_names_are_the_readme_quick_start():
    # Submodules aside, the package exports the names the README's quick
    # start imports, plus __version__.
    block = re.search(r"from trottergibbs import \(([^)]*)\)", README.read_text()).group(1)
    quick_start = {name.strip() for name in block.split(",") if name.strip()}
    public = {
        name
        for name, value in vars(trottergibbs).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == quick_start
    assert isinstance(trottergibbs.__version__, str)


# Top-level functions and classes that no other library code names, and why each stays.
UNREFERENCED = {
    ("gqsp", "gqsp_apply"): "perfbench's smoke test requires the name in gqsp",
    ("syk", "group_commuting"): "a model transform users call; the README documents it",
    ("cli", "main"): "the console entry point in pyproject.toml",
}
DEFS = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef


def _named(node) -> set[str]:
    """Names a node's code refers to; docstrings and other strings do not count."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return {getattr(sub, fields[type(sub)]) for sub in ast.walk(node) if type(sub) in fields}


def test_every_library_function_and_class_is_named_by_other_library_code():
    # Code that only the tests call belongs in tests/oracles.py.
    named = [
        (path.stem, stmt, _named(stmt))
        for path in PACKAGE.glob("*.py")
        for stmt in ast.parse(path.read_text()).body
    ]
    defs = {(module, stmt.name): stmt for module, stmt, _ in named if isinstance(stmt, DEFS)}
    unreferenced = {
        key for key, stmt in defs.items()
        if not any(key[1] in names for _, other, names in named if other is not stmt)
    }
    assert unreferenced - set(UNREFERENCED) == set()
    assert set(UNREFERENCED) <= set(defs)


def test_every_library_method_and_property_is_read_by_other_library_code():
    # A method or property only the tests read belongs in tests/oracles.py too.
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    methods = [
        (cls.name, stmt)
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, DEFS[:2]) and not stmt.name.startswith("__")
    ]

    def reads(node) -> Counter:
        return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))

    total = sum((reads(tree) for tree in trees), Counter())
    unread = [
        f"{cls}.{stmt.name}" for cls, stmt in methods if total[stmt.name] == reads(stmt)[stmt.name]
    ]
    assert methods and unread == []


# Library dataclasses that may change after construction, and why each must.
MUTABLE = {}


def _frozen(decorator) -> bool | None:
    """Whether a ``dataclass`` decorator sets frozen=True; None for another decorator."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    if getattr(target, "id", getattr(target, "attr", None)) != "dataclass":
        return None
    keywords = call.keywords if call else []
    return any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in keywords)


def test_every_library_dataclass_is_frozen():
    # A cached or validated answer can only go stale on a value that changes.
    found = {
        (path.stem, cls.name): _frozen(decorator)
        for path in PACKAGE.glob("*.py")
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for decorator in cls.decorator_list
        if _frozen(decorator) is not None
    }
    assert found and {key for key, frozen in found.items() if not frozen} == set(MUTABLE)


def _fft_calls_with_out(source: str) -> list[int]:
    """Lines of ``<module>.fft.<function>(..., out=...)`` calls in ``source``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(getattr(node.func, "value", None), "attr", None) == "fft"
        and any(k.arg == "out" for k in node.keywords)
    ]


def test_no_library_fft_call_passes_out():
    # np.fft takes ``out=`` only from numpy 2.0; on the declared floor the
    # keyword raises TypeError, which a run on a newer numpy never shows.
    assert '"numpy>=1.24"' in (ROOT / "pyproject.toml").read_text()
    assert _fft_calls_with_out("x = np.fft.fft(a)\ny = np.fft.ifft(a, n, out=b)") == [2]
    found = {path.name: _fft_calls_with_out(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_no_two_test_modules_define_the_same_helper():
    # A helper two modules need is defined once, in tests/oracles.py.
    sites: dict[str, list[tuple[str, str]]] = {}
    for path in TESTS.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                body = stmt.body[ast.get_docstring(stmt) is not None :]
                sites.setdefault(ast.dump(ast.Module(body, [])), []).append((path.name, stmt.name))
    assert [found for found in sites.values() if len({name for name, _ in found}) > 1] == []
