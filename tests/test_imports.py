"""The run path loads no numpy module beyond those that loading alarmmac loads,
and no process that runs alarmmac loads `uuid`.

numpy imports some modules on first use: its first median call imports
`numpy.ma`, about 1.3 MB resident and 8 ms, in every process that makes one.
`uuid` (with `_uuid`) holds about 128 kB resident for a temporary file name
that `os.urandom` gives as well. The guard runs each entry point in a fresh
interpreter, so nothing another test imported hides a lazy import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ENTRY_POINTS = """
import contextlib, importlib, io, json, pkgutil, sys, tempfile
from dataclasses import replace

import numpy.random  # which the first derive_stream call loads
import alarmmac

for module in pkgutil.iter_modules(alarmmac.__path__):
    importlib.import_module(f"alarmmac.{module.name}")
baseline = set(sys.modules)

from alarmmac.cli import main
from alarmmac.config import load_config_file
from alarmmac.engine import Simulation
from alarmmac.reporting import run_experiment

path = sys.argv[1]
contention = load_config_file(path)
for kind in ("rch", "mapra", "drl"):
    Simulation(replace(contention, policy_kind=kind), seed=1).run(200)
run_experiment(replace(contention, policy_kind="drl", n_runs=2, n_slots=200))
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    common = ["--config", path, "--runs", "1", "--slots", "100", "--out", out]
    codes = [
        main(["simulate", *common, "--policy", "drl"]),
        main(["sweep", *common, "--axis", "n_subnets", "--values", "4", "6", "--policies", "drl,mapra,rch"]),
        main(["analyze", "--ps", "0.5", "--deadline", "3"]),
        main(["selftest"]),
    ]
print(json.dumps({"codes": codes, "new": sorted(set(sys.modules) - baseline), "uuid": "uuid" in sys.modules}))
"""


def test_no_entry_point_imports_a_numpy_module_that_loading_alarmmac_does_not():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", ENTRY_POINTS, str(ROOT / "configs" / "contention.json")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    new = report["new"]
    numpy_modules = [name for name in new if name == "numpy" or name.startswith("numpy.")]
    assert not numpy_modules, f"numpy modules imported on the run path: {numpy_modules}; all new modules: {new}"
    assert not report["uuid"], "uuid is loaded after alarmmac's modules and entry points"
