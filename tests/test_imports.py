"""What the package exports, and which modules a run loads: SciPy stays off
every path but ``trotter-order``."""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import trottergibbs

SRC = Path(trottergibbs.__file__).resolve().parent.parent
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

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
