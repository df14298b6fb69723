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

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.gram import GRAM_TERMINAL, GramJobRequest
from repro.sim import Host, RPCError, call

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


@given(ops=ops, user_cap=st.sampled_from([None, 1, 2]),
       site_cap=st.sampled_from([None, 3]), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_tally_equals_the_scan(ops, user_cap, site_cap, seed):
    grid = MiniGrid(seed=seed, slots=4)
    callers = [grid.submit] + [Host(grid.sim, name) for name in OWNERS[1:]]
    jmids, mismatches = [], []

    def caps():     # a rebooted gatekeeper is built without them
        grid.gatekeeper.max_user_jobmanagers = user_cap
        grid.gatekeeper.max_jobmanagers = site_cap

    def check(where):
        if grid.gk_host.up and \
                +grid.gatekeeper._live != scan(grid.gk_host):
            mismatches.append((where, grid.sim.now,
                               dict(+grid.gatekeeper._live),
                               dict(scan(grid.gk_host))))

    def every_second():
        while True:
            check("tick")
            yield grid.sim.timeout(1.0)

    def driver():
        caps()
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
                    caps()
            except RPCError:
                pass
            check(op)
        yield grid.sim.timeout(600.0)   # everything left runs out
        check("end")

    watcher = grid.sim.spawn(every_second(), daemon=True)
    grid.sim.spawn(driver())
    grid.sim.run(until=25 * 200.0 + 700.0)
    watcher.kill(cause="test over")
    assert not mismatches, mismatches[:3]
    assert jmids or all(op[0] != "submit" for op in ops) or \
        grid.gatekeeper.rejected_busy + grid.gatekeeper.rejected_user_busy
