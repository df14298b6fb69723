"""The gatekeeper's live-JobManager tally against the scan it replaced.

A capped gatekeeper used to count live JobManagers by scanning every
service on its machine on every new submission -- and terminal
JobManagers never unregister, so that was O(jobs so far) per submit.
Now each JobManager keeps its own entry in its creator's tally (created,
revived, crashed, gone terminal).  Same meaning as the scan --
*registered and not in a GRAM-terminal state* -- and this test holds the
two together under random submit / commit / finish / ``jm_kill`` /
restart / gatekeeper reboot, at every simulated second.
"""

import json
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.gram import GRAM_TERMINAL, GramJobRequest
from repro.sim import Host, RPCError, call
from repro.sim.rpc import CallContext, Service

from .conftest import MiniGrid

OWNERS = ("submit", "submit2", "submit3")


def scan(host) -> Counter:
    """The old ``Gatekeeper._live_jobmanagers``, for every owner at once
    (``None``: the machine-wide total)."""
    live = Counter()
    for name, svc in host.services.items():
        if name.startswith("jm:") and \
                getattr(svc, "state", "") not in GRAM_TERMINAL:
            live[None] += 1
            live[getattr(svc, "owner", "")] += 1
    return live


ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, len(OWNERS) - 1),
                  st.sampled_from([5.0, 40.0, 400.0]), st.booleans()),
        st.tuples(st.just("wait"), st.sampled_from([1.0, 30.0, 150.0])),
        st.tuples(st.just("jm_kill"), st.integers(0, 30)),
        st.tuples(st.just("restart"), st.integers(0, 30)),
        st.tuples(st.just("reboot")),
    ), min_size=1, max_size=25)


def drive(ops, seed, setup, check):
    """Run `ops` on a fresh MiniGrid: ``setup(grid)`` at the start and
    after every gatekeeper reboot, ``check(grid, where)`` after every op
    and at every simulated second.  Returns the grid and the jmids."""
    grid = MiniGrid(seed=seed, slots=4)
    callers = [grid.submit] + [Host(grid.sim, name) for name in OWNERS[1:]]
    jmids = []

    def every_second():
        while True:
            check(grid, "tick")
            yield grid.sim.timeout(1.0)

    def driver():
        setup(grid)
        for n, op in enumerate(ops):
            try:
                if op[0] == "submit":
                    _, who, runtime, commit = op
                    answer = yield from call(
                        callers[who], "site-gk", "gatekeeper", "submit",
                        seq=n, request=GramJobRequest(runtime=runtime))
                    if "reason" not in answer:
                        jmids.append(answer["jmid"])
                        if commit:
                            yield from call(
                                callers[who], "site-gk",
                                f"jm:{answer['jmid']}", "commit")
                elif op[0] == "wait":
                    yield grid.sim.timeout(op[1])
                elif op[0] == "jm_kill" and jmids:
                    jm = grid.gk_host.services.get(
                        f"jm:{jmids[op[1] % len(jmids)]}")
                    if jm is not None:
                        jm.crash()
                elif op[0] == "restart" and jmids:
                    yield from call(
                        grid.submit, "site-gk", "gatekeeper",
                        "restart_jobmanager",
                        jmid=jmids[op[1] % len(jmids)])
                elif op[0] == "reboot":
                    grid.gk_host.crash()
                    yield grid.sim.timeout(20.0)
                    grid.gk_host.restart()
                    setup(grid)
            except RPCError:
                pass
            check(grid, op)
        yield grid.sim.timeout(600.0)   # everything left runs out
        check(grid, "end")

    watcher = grid.sim.spawn(every_second(), daemon=True)
    grid.sim.spawn(driver())
    grid.sim.run(until=25 * 200.0 + 700.0)
    watcher.kill(cause="test over")
    return grid, jmids


@given(ops=ops, user_cap=st.sampled_from([None, 1, 2]),
       site_cap=st.sampled_from([None, 3]), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_tally_equals_the_scan(ops, user_cap, site_cap, seed):
    mismatches = []

    def caps(grid):     # a rebooted gatekeeper is built without them
        grid.gatekeeper.max_user_jobmanagers = user_cap
        grid.gatekeeper.max_jobmanagers = site_cap

    def check(grid, where):
        if grid.gk_host.up and \
                +grid.gatekeeper._live != scan(grid.gk_host):
            mismatches.append((where, grid.sim.now,
                               dict(+grid.gatekeeper._live),
                               dict(scan(grid.gk_host))))

    grid, jmids = drive(ops, seed, caps, check)
    assert not mismatches, mismatches[:3]
    assert jmids or all(op[0] != "submit" for op in ops) or \
        grid.gatekeeper.rejected_busy + grid.gatekeeper.rejected_user_busy


# -- the same table is what a Grid Monitor reports from ------------------------------

def scan_snapshot(monitor) -> dict:
    """The old ``GridMonitor._snapshot``: every service on the machine,
    matched by name prefix and probed for an owner."""
    reports = {}
    for name in sorted(monitor.host.services):
        if not name.startswith("jm:"):
            continue
        svc = monitor.host.services[name]
        if getattr(svc, "owner", "") != monitor.user:
            continue
        jmid = getattr(svc, "jmid", name[3:])
        if jmid in monitor._acked_terminal:
            continue
        reports[jmid] = {"jmid": jmid, "state": svc.state,
                         "failure_reason": svc.failure_reason,
                         "exit_code": svc.exit_code}
    return reports


@given(ops=ops, seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_snapshot_from_the_table_equals_the_scan(ops, seed):
    """One monitor per owner, its reports acknowledged (so terminal
    entries are pruned) by a sink that keeps every batch it got."""
    mismatches, received = [], []

    class Sink(Service):
        service_name = "monitor-sink"

        def handle_monitor_report(self, ctx, site, seq, reports, interval):
            received.append((reports, json.dumps(reports, sort_keys=True)))
            return True

    def monitors(grid):
        for owner in OWNERS:
            host = grid.sim.hosts[owner]
            if "monitor-sink" not in host.services:
                Sink(host)
            grid.gatekeeper.handle_start_monitor(
                CallContext(owner), (owner, "monitor-sink"), interval=7.0)

    def check(grid, where):
        if not grid.gk_host.up:
            return
        monitors(grid)      # one that sat idle for ten intervals retired
        for owner in OWNERS:
            monitor = grid.gk_host.services[f"monitor:{owner}"]
            if dict(monitor._snapshot()) != scan_snapshot(monitor):
                mismatches.append((where, grid.sim.now, owner,
                                   dict(monitor._snapshot()),
                                   scan_snapshot(monitor)))

    grid, jmids = drive(ops, seed, monitors, check)
    assert not mismatches, mismatches[:3]
    # a batch already sent is a value: whatever its JobManagers did
    # afterwards (run, finish, crash, come back), it reads as it did
    assert all(json.dumps(reports, sort_keys=True) == as_sent
               for reports, as_sent in received)
