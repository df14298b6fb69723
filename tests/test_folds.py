"""Guards for the fold rows of :mod:`repro.sim.stats`.

A metric that restates a trace record is a fold row, applied by the
registry to every record as it is logged.  Three things keep that
honest: every row fires somewhere (a renamed event cannot silently
zero a metric), no metric is both a fold and kept by hand, and a
bounded trace folds exactly what an unbounded one does (the registry
sees records the ring later evicts).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.classads import ClassAd
from repro.condor import build_pool
from repro.gass import GassServer
from repro.gass.client import gass_append, gass_put
from repro.gass.server import make_url
from repro.gram import GramJobRequest
from repro.grid.scenarios import get_scenario
from repro.sim import Host, Network, Simulator
from repro.sim.stats import FOLDS, MetricsRegistry

from .condor import test_claim_reuse, test_collector, test_fairshare
from .data import test_staging, test_transfer
from .factory import test_factory
from .gram import test_admission, test_gatekeeper_limit, test_monitor
from .gram.conftest import MiniGrid
from .test_golden_digests import CELLS


def _rows() -> set[tuple[str, str, str]]:
    """Every fold row as (family, event, metric name)."""
    return {(family, event, row[1]) for event, families in FOLDS.items()
            for family, rows in families.items() for row in rows}


# -- drills: the rows no golden cell reaches ---------------------------------

def _commit_never_arrives():
    grid = MiniGrid(seed=5)
    grid.drive(grid.client.submit_phase1(
        "site-gk", GramJobRequest(runtime=10.0), seq=0))


def _stream_to_a_gass_server():
    sim = Simulator(seed=1)
    Network(sim, latency=0.01, jitter=0.0)
    client = Host(sim, "client")
    GassServer(Host(sim, "files"), bandwidth=0)
    url = make_url("files", "gass", "stdout")

    def scenario():
        yield from gass_put(client, url, data="head")
        yield from gass_append(client, url, "tail", offset=4)

    sim.spawn(scenario())
    sim.run()


def _negotiate_past_errors():
    """A submitter whose schedd is nowhere, then a collector that is
    gone."""
    sim = Simulator(seed=3)
    Network(sim, latency=0.02, jitter=0.0)
    pool = build_pool(sim, "pool", workers=1, cycle_interval=10.0)
    ghost = ClassAd()
    ghost["Name"] = "ghost"
    ghost["IdleJobs"] = 3
    ghost["ScheddHost"] = "nowhere"
    pool.collector.handle_advertise(None, "submitter", ghost, ttl=100_000.0)
    sim.run(until=30.0)
    pool.collector.crash()
    sim.run(until=60.0)


DRILLS = (
    _commit_never_arrives,
    _stream_to_a_gass_server,
    _negotiate_past_errors,
    # tier-1 scenarios that already assert the metric they drive
    test_admission.test_depth_backpressure_rejects_until_lrm_drains,
    test_claim_reuse.test_watchdog_times_out_an_abandoned_claim,
    test_collector.test_expired_ads_are_reaped_not_just_filtered,
    test_factory.test_lease_renewal_provisions_replacement,
    test_fairshare.test_nameless_submitter_ads_are_skipped,
    test_gatekeeper_limit.test_limit_rejects_excess_submissions,
    test_gatekeeper_limit.test_per_user_limit_rejects_only_the_hog,
    test_monitor.test_jm_kill_behind_fresh_monitor_goes_suspect_and_recovers,
    test_staging.test_stage_out_corruption_repaired,
    test_transfer.test_corrupted_arrival_deleted_and_repulled,
    test_transfer.test_failed_source_retries_then_raises,
)


def test_every_fold_row_fires(monkeypatch):
    """Each row updates its metric in a golden cell or, for the faults
    and refusals no golden cell reaches, in one of the drills."""
    fired = set()
    apply = MetricsRegistry._fold

    def spy(registry, rec):
        family = rec.component.partition(":")[0]
        rows = FOLDS.get(rec.event, {}).get(family, ())
        for _get, name, _update, when in rows:
            if when is None or when(rec):
                fired.add((family, rec.event, name))
        apply(registry, rec)

    monkeypatch.setattr(MetricsRegistry, "_fold", spy)
    for run in (*CELLS.values(), *DRILLS):
        run()
    assert sorted(_rows() - fired) == []


def test_no_metric_is_both_a_fold_and_kept_by_hand():
    folded = {name for _family, _event, name in _rows()}
    kept = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        kept.update(re.findall(
            r"\.(?:counter|gauge|histogram)\(\s*f?\"([^\"]+)\"",
            path.read_text()))
    patterns = [re.compile(re.sub(r"\\\{[^}]*\\\}", ".*", re.escape(name)))
                for name in kept]
    both = sorted(name for name in folded
                  if any(p.fullmatch(name) for p in patterns))
    assert both == []


@pytest.mark.parametrize("name", ["quickstart", "pool-reuse", "data-cms",
                                  "monitored-gram", "burst-overload"])
def test_a_bounded_trace_folds_what_an_unbounded_one_does(name):
    full = get_scenario(name).build(5)
    full.run(until=4000.0)
    ring = get_scenario(name).build(5)
    ring.sim.trace.max_records = 50
    ring.run(until=4000.0)
    assert ring.sim.trace.dropped > 0
    assert ring.sim.metrics.snapshot() == full.sim.metrics.snapshot()
