"""Golden digests: the committed oracle for "same seed, same run".

Every cell below is one deterministic end-to-end run reduced to its
:func:`repro.chaos.digest.run_digest`; ``tests/golden_digests.json``
holds the expected value, plus one hash per ``digest_parts`` key so a
mismatch names the part that moved (``trace``, ``metrics``, ``queues``,
``time``, ``trace_dropped``).  A refactor that is supposed to be
invisible to the simulation must leave every cell untouched; a change
that moves a digest on purpose regenerates the table and says why (see
``docs/PERFORMANCE.md``).

The test never writes.  Before regenerating, see what moved -- per
cell, which digest parts differ from the committed table, with the
cells whose *outcomes* (``queues``: final per-job state, attempts, exit
code and per-site LRM outcomes, no timestamps) moved flagged and summed
up::

    PYTHONPATH=src python tests/test_golden_digests.py --diff

To regenerate::

    PYTHONPATH=src python tests/test_golden_digests.py --write

To check another source tree against the committed table::

    PYTHONPATH=<tree>/src python -m pytest tests/test_golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import AgentSpec, GridTestbed, JobDescription, SiteSpec, \
    TestbedConfig
from repro.chaos.digest import digest_parts, run_digest
from repro.chaos.invariants import evaluate_invariants
from repro.chaos.runner import build_and_run
from repro.grid.scenarios import get_scenario, multiuser_gram_grid, \
    scale_glidein_grid, scale_gram_grid, scale_pool_grid
from repro.states import is_terminal

GOLDEN = Path(__file__).with_name("golden_digests.json")

#: fault-free ``run(until=4000)`` cells
PLAIN = {name: (1, 5) for name in (
    "quickstart", "three-site", "credential", "pool-reuse",
    "monitored-gram", "data-cms", "shrink-lab")}
PLAIN.update({"burst-flash": (5,), "burst-overload": (1, 5),
              "data-cms-compute": (5,)})

def multiuser_capped_grid(seed: int, users: int, jobs_per_user: int,
                          cpus: int) -> GridTestbed:
    """Both fair-share layers, each binding somewhere (``multiuser-gram``
    never throttles and is never refused): site00 admits one JobManager
    per user, so there the limit the gatekeeper states holds jobs back;
    site01 admits any number, so there the client's own cap of two does.
    Broker-placed jobs, plus one per user pinned to the capped site."""
    tb = GridTestbed.from_config(TestbedConfig(
        seed=seed, with_mds=False, with_repo=False,
        sites=(SiteSpec("site00", scheduler="pbs", cpus=cpus,
                        register_mds=False, max_user_jobmanagers=1),
               SiteSpec("site01", scheduler="lsf", cpus=cpus,
                        register_mds=False)),
        agents=tuple(AgentSpec(f"u{i}", broker_kind="userlist",
                               personal_pool=False,
                               max_submitted_per_resource=2)
                     for i in range(users))))
    agents = list(tb.agents.values())
    for k in range(jobs_per_user):
        for u, agent in enumerate(agents):
            agent.submit(JobDescription(
                executable="mt.exe", runtime=60.0 + 7.0 * ((3 * u + k) % 11),
                stream_stdout=False),
                resource="site00-gk" if k == 1 else "")
    return tb


def gram_crossing_grid(seed: int, above: int, below: int,
                       cpus: int) -> GridTestbed:
    """Both branches of "status by site" in one run: one user, nobody
    sets ``grid_monitor``, `above` jobs pinned to site00 (at least
    ``GridManager.MONITOR_MIN_JOBS``: a Grid Monitor is launched) and
    `below` to site01 (fewer: per-job ``status``).  Each site's first
    JobManager -- its job outlasts the rest -- is killed at 150 s, so one
    is found missing from a report and the other by its silence."""
    tb = GridTestbed.from_config(TestbedConfig(
        seed=seed, with_mds=False, with_repo=False,
        sites=(SiteSpec("site00", scheduler="pbs", cpus=cpus,
                        register_mds=False),
               SiteSpec("site01", scheduler="lsf", cpus=cpus,
                        register_mds=False)),
        agents=(AgentSpec("gram", broker_kind="userlist",
                          personal_pool=False),)))
    agent = tb.agents["gram"]
    for site, count in (("site00", above), ("site01", below)):
        for k in range(count):
            agent.submit(JobDescription(
                executable="gram.exe", stream_stdout=False,
                runtime=600.0 if k == 0 else 60.0 + 7.0 * (k % 11)),
                resource=f"{site}-gk")
        tb.failures.crash_service_at(150.0, tb.sites[site].gk_host, "jm:")
    return tb


#: the CI bench-smoke shapes, driven the way the bench scripts drive
#: them: name -> (builder, seed, kwargs, chunk)
SHAPES = {
    "scale-gram": (scale_gram_grid, 706,
                   dict(jobs=400, n_sites=5, cpus=20), 2000.0),
    "scale-gram-monitor": (scale_gram_grid, 706,
                           dict(jobs=400, n_sites=5, cpus=20,
                                grid_monitor=True), 2000.0),
    "scale-glidein": (scale_glidein_grid, 706,
                      dict(jobs=300, n_sites=4, glideins_per_site=10),
                      2000.0),
    "scale-pool": (scale_pool_grid, 706,
                   dict(jobs=600, n_sites=4, glideins_per_site=10),
                   1000.0),
    "multiuser-gram": (multiuser_gram_grid, 811,
                       dict(users=8, jobs_per_user=15, n_sites=4, cpus=10),
                       5000.0),
    "multiuser-capped": (multiuser_capped_grid, 823,
                         dict(users=5, jobs_per_user=8, cpus=4), 1000.0),
    "gram-crossing": (gram_crossing_grid, 829,
                      dict(above=40, below=12, cpus=8), 1000.0),
}
SHAPE_CAP = 60_000.0

#: seed-generated fault plans through the chaos runner
FAULTED = ("quickstart", "three-site", "credential", "pool-reuse",
           "data-cms", "burst-overload", "monitored-gram")
FAULTED_SEEDS = (0, 1, 2)


def _open_payloads(tb) -> int:
    """Unfinished workload jobs; on the GlideIn path the payloads live
    in the condor queue and the grid jobs are pilots that never end."""
    count = 0
    for agent in tb.agents.values():
        if agent.schedd is not None and agent.schedd.jobs:
            count += sum(1 for j in agent.schedd.jobs.values()
                         if not is_terminal(j.state))
        else:
            count += sum(1 for j in agent.scheduler.jobs.values()
                         if not j.is_terminal)
    return count


def _run_plain(name: str, seed: int):
    tb = get_scenario(name).build(seed)
    tb.run(until=4000.0)
    return tb


def _run_shape(name: str):
    build, seed, kwargs, chunk = SHAPES[name]
    tb = build(seed=seed, **kwargs)
    while tb.sim.now < SHAPE_CAP and _open_payloads(tb):
        tb.run(until=tb.sim.now + chunk)
    assert _open_payloads(tb) == 0, f"{name}: jobs unfinished at cap"
    return tb


def _run_faulted(name: str, seed: int):
    tb, _plan = build_and_run(name, seed)
    return tb


def _cells() -> dict:
    """cell id -> zero-argument callable returning the finished testbed."""
    cells = {}
    for name, seeds in PLAIN.items():
        for seed in seeds:
            cells[f"plain/{name}/seed{seed}"] = \
                lambda n=name, s=seed: _run_plain(n, s)
    for name in SHAPES:
        cells[f"shape/{name}"] = lambda n=name: _run_shape(n)
    for name in FAULTED:
        for seed in FAULTED_SEEDS:
            cells[f"faulted/{name}/seed{seed}"] = \
                lambda n=name, s=seed: _run_faulted(n, s)
    return cells


CELLS = _cells()


def _sha(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _measured(tb) -> dict:
    return {"digest": run_digest(tb),
            "parts": {k: _sha(v) for k, v in digest_parts(tb).items()}}


def measure(cell: str) -> dict:
    """Run one cell: its run digest and one hash per digest part."""
    return _measured(CELLS[cell]())


def _committed() -> dict:
    return json.loads(GOLDEN.read_text())["cells"]


def test_table_covers_exactly_the_cells():
    assert sorted(_committed()) == sorted(CELLS)


@pytest.mark.parametrize("cell", list(CELLS))
def test_golden_digest(cell):
    expected = _committed()[cell]
    got = measure(cell)
    moved = sorted(k for k in expected["parts"]
                   if got["parts"].get(k) != expected["parts"][k])
    assert got["digest"] == expected["digest"], \
        f"{cell}: digest moved; parts that differ: {moved}"


def _source_commit() -> str:
    """HEAD of the tree ``repro`` was imported from (the producer)."""
    import repro
    tree = Path(repro.__file__).resolve().parent
    try:
        return subprocess.run(
            ["git", "-C", str(tree), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write() -> None:
    payload = {
        "header": {
            "generated_by": "python tests/test_golden_digests.py --write",
            "source_commit": _source_commit(),
            "python": platform.python_version(),
        },
        "cells": {cell: measure(cell) for cell in CELLS},
    }
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['cells'])} cells to {GOLDEN}")


def diff() -> None:
    """Step 2 of the epoch protocol (docs/PERFORMANCE.md): per moved
    cell, the digest parts that differ from the committed table; a cell
    whose ``queues`` part moved ended with different job outcomes, so it
    also gets its final job states and invariant-violation count."""
    committed = _committed()
    moved = outcomes = 0
    for cell, run in CELLS.items():
        tb = run()
        got, expected = _measured(tb), committed.get(cell)
        if expected is None:
            print(f"{cell}: not in the committed table")
            continue
        if got["digest"] == expected["digest"]:
            continue
        moved += 1
        parts = sorted(k for k in expected["parts"]
                       if got["parts"].get(k) != expected["parts"][k])
        print(f"{cell}: {', '.join(parts)}")
        if "queues" in parts:
            outcomes += 1
            states = Counter(str(job.state) for agent in tb.agents.values()
                             for job in agent.scheduler.jobs.values())
            tally = ", ".join(f"{n} {s}" for s, n in sorted(states.items()))
            print(f"    QUEUES MOVED -- outcomes differ: {tally}; "
                  f"{len(evaluate_invariants(tb))} invariant violation(s)")
    print(f"{moved} of {len(CELLS)} cells moved; {moved - outcomes} of "
          f"them with identical queues (same outcomes)")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write()
    elif sys.argv[1:] == ["--diff"]:
        diff()
    else:
        sys.exit("usage: python tests/test_golden_digests.py "
                 "--write | --diff")
