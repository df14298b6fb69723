"""A run that only simulates loads neither numpy, a process pool nor
OpenSSL.

The simulator is pure Python (DESIGN.md §2). numpy is needed only by the
QAP workload (``repro.workloads.lap``/``masterworker``) and the process
pool only by a multi-worker chaos campaign; either one imported on the
way into a plain testbed costs every run its memory (~14 MB of peak RSS
for numpy, 3.6 MB for the ``libcrypto`` that ``hashlib`` maps: the
simulation's SHA-256 is the builtin module's, ``repro.sim.rng.sha256``).
A fresh interpreter is the only place where ``sys.modules``
shows what a run really imports: this test process has long loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

HEAVY = ("numpy", "multiprocessing", "concurrent.futures", "hashlib",
         "_hashlib")

PROBE = f"""
import json, sys
import repro, repro.chaos, repro.chaos.digest
from repro.chaos.digest import run_digest
from repro.grid.scenarios import get_scenario
tb = get_scenario("quickstart").build(1)
tb.run_until_quiet()
run_digest(tb)
print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
"""


def test_a_simulated_run_imports_no_numpy_and_no_process_pool():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded == [], f"a simulation imported {loaded}"
