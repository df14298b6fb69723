"""Long-horizon regression: a simulated week, run as resumable segments.

The ``week-credential-cycle`` scenario puts six ~day-long jobs behind
one cpu with 8-hour proxies: the CredentialMonitor must ride ~20 proxy
expiry -> hold -> MyProxy-refresh -> reforward -> release cycles to get
every job home.  The suite runs the week twice -- uninterrupted, and as
seven day-long segments with a snapshot at each boundary -- and demands
the two are bit-identical, that a fresh build replayed to a mid-week
snapshot reproduces it and runs on to the same week, and that refresh
cycles straddling segment boundaries lose nothing.

This is the expensive end of the snapshot test pyramid (~10M kernel
events per module run); the per-boundary properties live in the much
cheaper ``tests/sim/test_snapshot_properties.py``.
"""

import pytest

from repro.chaos.digest import run_digest
from repro.chaos.invariants import evaluate_invariants
from repro.grid.scenarios import WEEK, get_scenario
from repro.sim.snapshot import SimSnapshot
from repro.states import JobState

SEED = 7
DAY = 86_400.0
BOUNDARIES = [DAY * i for i in range(1, 8)]      # day 1 .. day 7


@pytest.fixture(scope="module")
def uninterrupted():
    tb = get_scenario("week-credential-cycle").build(SEED)
    tb.run(until=WEEK)
    return tb


@pytest.fixture(scope="module")
def segmented():
    """The week run segment by segment, captured at each boundary."""
    tb = get_scenario("week-credential-cycle").build(SEED)
    snaps = []
    for boundary in BOUNDARIES:
        tb.run(until=boundary)
        snaps.append(tb.snapshot())
    return tb, snaps


def _agent_jobs(tb):
    return tb.agents["week"].queue.jobs


def test_uninterrupted_week_is_clean(uninterrupted):
    tb = uninterrupted
    jobs = _agent_jobs(tb)
    assert len(jobs) == 6
    assert all(job.state == JobState.DONE for job in jobs.values())
    assert evaluate_invariants(tb) == []


def test_credential_cycles_actually_happened(uninterrupted):
    """The week is only a credential test if proxies really expired."""
    trace = uninterrupted.sim.trace
    refreshes = trace.select("credmon", "myproxy_refreshed")
    reforwards = trace.select("credmon", "reforwarded")
    assert len(refreshes) >= 12          # ~20 in practice
    assert len(reforwards) >= 6
    assert trace.select("credmon", "myproxy_failed") == []
    # cycles span the whole week, not just its first day
    assert max(rec.time for rec in refreshes) > 5 * DAY


def test_segmented_week_matches_uninterrupted(uninterrupted, segmented):
    tb, snaps = segmented
    assert [snap.time for snap in snaps] == BOUNDARIES
    assert tb.sim.now == WEEK
    assert run_digest(tb) == run_digest(uninterrupted)
    assert all(job.state == JobState.DONE
               for job in _agent_jobs(tb).values())
    assert evaluate_invariants(tb) == []


def test_refresh_cycles_straddle_segment_boundaries(segmented):
    """Snapshot boundaries land *inside* expiry/refresh cycles (8h
    proxies vs 24h segments), and no cycle is lost to a boundary."""
    tb, _ = segmented
    refreshes = sorted(rec.time for rec in
                       tb.sim.trace.select("credmon", "myproxy_refreshed"))
    assert len(refreshes) >= 12
    # at least one refresh in (almost) every day-long segment
    days_with_refresh = {int(t // DAY) for t in refreshes}
    assert len(days_with_refresh) >= 6
    # and zero jobs lost across all seven boundaries
    assert sum(1 for job in _agent_jobs(tb).values()
               if job.state == JobState.DONE) == 6


def test_midweek_snapshot_rehydrates_bit_identical(uninterrupted,
                                                   segmented):
    """Rebuild the week and replay it to the day-3 snapshot (read back
    from its JSON document): same digest there, then run the remaining
    four days: same digest at the end."""
    _, snaps = segmented
    midweek = SimSnapshot.from_json(snaps[2].to_json())     # t = 3 days
    tb = get_scenario("week-credential-cycle").build(SEED)
    tb.run(until=midweek.time)
    assert tb.snapshot() == midweek
    tb.run(until=WEEK)
    assert run_digest(tb) == run_digest(uninterrupted)
    assert evaluate_invariants(tb) == []
