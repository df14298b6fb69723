"""Gates on the value contract (``repro.sim.fastcopy``).

Two ways the contract erodes without any test noticing: a module starts
copying on its own (a second boundary, or a private opt-out), or a new
payload type silently rides the ``copy.deepcopy`` fallback -- correct,
~10x slower, and visible only in a benchmark.  The first is gated by
reading the source, the second by running the shapes the suite
benchmarks with the fallback turned into an error.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.chaos.invariants import evaluate_invariants
from repro.chaos.runner import build_and_run
from repro.grid.scenarios import get_scenario, multiuser_gram_grid, \
    scale_glidein_grid, scale_gram_grid
from repro.sim import fastcopy

from ..test_golden_digests import _open_payloads

SRC = Path(repro.__file__).resolve().parent


def _callers(name: str) -> set:
    """Source files under ``src/repro`` with a call to ``name(...)`` or
    ``<anything>.name(...)``."""
    found = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                found.add(path.relative_to(SRC).as_posix())
    return found


def test_only_the_boundaries_copy_and_nothing_opts_out():
    assert _callers("fast_deepcopy") == {"sim/hosts.py", "sim/rpc.py"}
    assert _callers("deepcopy") == {"sim/fastcopy.py"}
    assert [path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
            if "rpc_fresh_results" in path.read_text()] == []


# -- nothing benchmarked takes the fallback -----------------------------------------

@pytest.fixture
def no_fallback(monkeypatch):
    class _Refuse:
        @staticmethod
        def deepcopy(obj, memo=None):
            raise AssertionError(
                f"{type(obj).__name__} took the copy.deepcopy fallback: "
                "declare it immutable (repro.sim.fastcopy) or send plain "
                "containers")

    monkeypatch.setattr(fastcopy, "copy", _Refuse)


def _drain(tb, cap: float = 40_000.0):
    while tb.sim.now < cap and _open_payloads(tb):
        tb.run(until=tb.sim.now + 1000.0)
    assert _open_payloads(tb) == 0, "jobs unfinished at the cap"
    return tb


def _multiuser_refused():
    """Per-user caps are learned from the first answer and never hit; the
    machine-wide cap (5 < 6 users x 2) is what refuses here, so the
    refused shape of the phase-1 answer crosses the wire."""
    tb = multiuser_gram_grid(seed=3, users=6, jobs_per_user=8, n_sites=2,
                             cpus=6, max_user_jobmanagers=2)
    for site in tb.sites.values():
        site.gatekeeper.max_jobmanagers = 5
    return tb


SHAPES = {
    "gram-polled": lambda: scale_gram_grid(
        seed=3, jobs=60, n_sites=3, cpus=10),
    "gram-monitored": lambda: scale_gram_grid(
        seed=3, jobs=60, n_sites=3, cpus=10, grid_monitor=True),
    "glidein-pool-negotiated": lambda: scale_glidein_grid(
        seed=3, jobs=80, n_sites=2, glideins_per_site=8),
    "multiuser-refusals": _multiuser_refused,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_benchmarked_shapes_never_reach_the_fallback(no_fallback, shape):
    tb = _drain(SHAPES[shape]())
    if shape == "multiuser-refusals":
        submits = tb.sim.metrics.get("gatekeeper.submits")
        assert any(submits.labelled(label) for label in submits.labels
                   if label.startswith("rejected"))


@pytest.mark.parametrize("seed", [0, 1])
def test_gsi_mds_streaming_under_faults_never_reaches_the_fallback(
        no_fallback, seed):
    # quickstart: GSI on every gatekeeper call, MDS registration and
    # broker queries, stdout streamed to the submit machine's GASS
    # server -- under the seed-drawn fault plan the chaos runner applies.
    tb, plan = build_and_run("quickstart", seed)
    assert plan.events and evaluate_invariants(tb) == []


@pytest.mark.parametrize(
    "scenario", ["quickstart", "credential", "pool-reuse", "data-cms"])
def test_scenarios_never_reach_the_fallback(no_fallback, scenario):
    tb = get_scenario(scenario).build(1)
    tb.run(until=4000.0)
    assert _open_payloads(tb) == 0


def test_a_monitor_report_crosses_with_zero_structural_copies(
        no_fallback, monkeypatch):
    """A report is a value: whatever the batch holds, sending it walks
    the four arguments of the call and nothing below them."""
    from repro.sim import rpc

    walks, crossings = [0], []
    real_walk, real_copy = fastcopy._walk, rpc.fast_deepcopy

    def counted_walk(obj):
        walks[0] += 1
        return real_walk(obj)

    def counted_copy(obj):
        if not (isinstance(obj, dict) and "reports" in obj):
            return real_copy(obj)
        before = walks[0]
        out = real_copy(obj)
        crossings.append((walks[0] - before, len(obj["reports"]),
                          out["reports"] is obj["reports"]))
        return out

    monkeypatch.setattr(fastcopy, "_walk", counted_walk)
    monkeypatch.setattr(rpc, "fast_deepcopy", counted_copy)
    tb = _drain(SHAPES["gram-monitored"]())
    assert tb.sim.metrics.counter("gridmanager.monitor_reports").value > 20
    sizes = {size for _walks, size, _same in crossings}
    assert len(crossings) > 20 and max(sizes) >= 10 and len(sizes) > 3
    # the call's own kwargs dict, then each key and each value: 1 + 2 x 4
    assert {n for n, _size, _same in crossings} == {9}
    assert all(same for _walks, _size, same in crossings)
