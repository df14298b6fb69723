"""The reachability keep-list, checked from the source alone.

``benchmarks/reach.py repro`` runs every consumer of the system (minutes)
and fails on a keep entry that names no function or gives no known
category; this test finds the same from the AST walk, without running a
consumer.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reach():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "benchmarks" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_keep_entry_names_a_function_and_a_category():
    reach = _reach()
    keep = json.loads(reach.KEEP.read_text())
    assert keep and all(key.split(".")[0] == "repro" for key in keep)
    assert reach.keep_errors(keep, "repro", reach.definitions("repro")) == []


def test_a_stale_or_uncategorised_entry_is_reported():
    reach = _reach()
    functions = reach.definitions("repro")
    keep = {"repro.profile:_normalize_service": "suite: tracing.py",
            "repro.profile:gone": "suite: nothing",
            "repro.states:is_complete": "because"}
    errors = reach.keep_errors(keep, "repro", functions)
    assert len(errors) == 2
    assert "repro.profile:gone" in errors[0]
    assert "repro.states:is_complete" in errors[1]
