"""What the package exports, and which modules a run loads: SciPy stays off
the exact and sampled paths."""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import trottergibbs

SRC = Path(trottergibbs.__file__).resolve().parent.parent
README = Path(__file__).resolve().parent.parent / "README.md"

# Runs in a fresh interpreter and prints the SciPy modules loaded after the
# imports and after each mode's run, in that order.
SCRIPT = """
import json
import sys

import trottergibbs
import trottergibbs.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
model = trottergibbs.cli.build_model({"kind": "syk", "n_majorana": 8, "seed": 7})
for mode in ("exact", "sampled", "gqsp"):
    cfg = trottergibbs.PipelineConfig(model=model, beta=1.0, mode=mode)
    trottergibbs.run_pipeline(cfg)
    loaded[mode] = scipy_modules()
print(json.dumps(loaded))
"""


def test_only_fourier_targets_load_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["exact"] == []
    assert loaded["sampled"] == []
    assert "scipy.special" in loaded["gqsp"]
    assert "scipy.linalg" not in loaded["gqsp"]


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
