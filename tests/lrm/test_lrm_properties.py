"""Property-based tests: batch-system invariants under random workloads."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lrm import (
    CondorPoolLRM,
    JobSpec,
    LoadLevelerCluster,
    LSFCluster,
    NQECluster,
    PBSCluster,
    TERMINAL_STATES,
)
from repro.sim import Host, Network, Simulator

FLAVORS = [PBSCluster, LSFCluster, LoadLevelerCluster, NQECluster,
           CondorPoolLRM]

job_specs = st.tuples(
    st.floats(1.0, 200.0, allow_nan=False),      # runtime
    st.integers(1, 3),                            # cpus
    st.integers(0, 5),                            # priority
    st.floats(0.0, 100.0, allow_nan=False),       # submit delay
)


@given(st.sampled_from(FLAVORS),
       st.integers(2, 6),
       st.lists(job_specs, min_size=1, max_size=15),
       st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_every_flavor_drains_any_workload(flavor, slots, jobs, seed):
    """All jobs reach a terminal state; slot accounting balances; no job
    starts before submission or uses more slots than exist."""
    sim = Simulator(seed=seed)
    Network(sim, latency=0.01, jitter=0.0)
    host = Host(sim, "head")
    lrm = flavor(host, slots=slots)
    ids = []

    def submitter():
        for runtime, cpus, priority, delay in jobs:
            yield sim.timeout(delay)
            ids.append(lrm.submit(
                JobSpec(runtime=runtime, cpus=min(cpus, slots),
                        priority=priority),
                owner=f"user{priority % 2}"))

    sim.spawn(submitter())
    sim.run(until=10**5)
    records = [lrm.status(j) for j in ids]
    assert all(r.state in ("COMPLETED",) for r in records)
    assert lrm.free_slots == slots
    for r in records:
        assert r.start_time >= r.submit_time
        assert r.end_time >= r.start_time
    # no instant ever ran more cpus than the cluster has
    events = []
    for r in records:
        events.append((r.start_time, r.spec.cpus))
        events.append((r.end_time, -r.spec.cpus))
    events.sort()
    busy = 0
    for _t, d in events:
        busy += d
        assert busy <= slots
    # accounting: busy integral equals the sum of runtimes x cpus
    expected = sum(r.spec.runtime * r.spec.cpus for r in records)
    assert lrm.total_busy_time == pytest.approx(expected, rel=1e-6)


@given(st.lists(st.floats(5.0, 100.0, allow_nan=False),
                min_size=2, max_size=8),
       st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_cancellation_always_terminal_and_slots_recovered(runtimes, seed):
    sim = Simulator(seed=seed)
    Network(sim, latency=0.01, jitter=0.0)
    host = Host(sim, "head")
    lrm = PBSCluster(host, slots=2)
    ids = [lrm.submit(JobSpec(runtime=r), owner="u") for r in runtimes]
    # cancel every other job shortly after submission
    for i, jid in enumerate(ids):
        if i % 2 == 0:
            sim.schedule(1.0 + i, lambda j=jid: lrm.cancel(j))
    sim.run(until=10**5)
    assert all(lrm.status(j).state in TERMINAL_STATES for j in ids)
    assert lrm.free_slots == 2


# -- the scheduling pass ends with the last free slot --------------------------------

def _full_scan(flavor):
    """`flavor` with the scheduling pass it had before it learned to stop:
    sort the whole queue on every wake-up and ask every job."""
    class FullScan(flavor):
        def _schedule_pass(self):
            for job in self.order_queue([self.jobs[j] for j in self.queue]):
                if self.can_start(job):
                    self.queue.remove(job.local_id)
                    self.queued_cpus -= job.spec.cpus
                    self.sim.metrics.gauge("lrm.queue_depth").dec()
                    self._start(job)
                elif not self.backfill():
                    break

    return FullScan


def _starts(flavor, slots, jobs, seed):
    sim = Simulator(seed=seed)
    Network(sim, latency=0.01, jitter=0.0)
    lrm = flavor(Host(sim, "head"), slots=slots)

    def submitter():
        for runtime, cpus, priority, delay in jobs:
            # bursts (delay < 30 -> same instant) fill the machine and
            # leave a queue behind it, which is where the passes differ
            yield sim.timeout(0.0 if delay < 30.0 else delay)
            lrm.submit(JobSpec(runtime=runtime, cpus=min(cpus, slots),
                               priority=priority),
                       owner=f"user{priority % 3}")

    sim.spawn(submitter())
    sim.run(until=10**5)
    assert all(j.state == "COMPLETED" for j in lrm.jobs.values())
    return sorted((j.start_time, j.local_id) for j in lrm.jobs.values())


@pytest.mark.parametrize("flavor", [
    pytest.param(LoadLevelerCluster, id="fifo"),
    pytest.param(LSFCluster, id="fair-share"),
    pytest.param(PBSCluster, id="backfill"),
])
@given(st.integers(1, 5),
       st.lists(job_specs, min_size=1, max_size=25),
       st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_early_out_starts_what_the_full_scan_starts(flavor, slots, jobs,
                                                    seed):
    assert _starts(flavor, slots, jobs, seed) == \
        _starts(_full_scan(flavor), slots, jobs, seed)
