"""One JobManager against every interleaving it can meet.

Hypothesis draws interleavings of the two-phase commit, the client's
cancel, LRM state changes (a preempt-requeue, a site-side cancel, the
job's own end) and a JobManager crash followed by ``restart_jobmanager``,
at offsets below and above one network hop.  At quiescence: no
``IllegalTransition`` stopped the run; the state file, once terminal,
never changed; the client heard no terminal state but the final one;
the LRM holds at most one job for the jmid; and a cancel the JobManager
acknowledged left no LRM job queued or running.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.gram import GramJobRequest
from repro.gram.client import GramClientError
from repro.gram.jobmanager import JobManager
from repro.sim.errors import RPCError
from repro.states import is_terminal

from .conftest import MiniGrid

OPS = st.sampled_from(["commit", "cancel", "preempt", "site_cancel",
                       "crash", "restart"])
#: one hop is 0.05 s: the short offsets land inside an RPC's flight
DELAYS = st.sampled_from([0.0, 0.03, 0.07, 0.12, 1.0, 6.0, 40.0])


@given(st.lists(st.tuples(OPS, DELAYS), min_size=1, max_size=10),
       st.sampled_from([2.0, 30.0, 5000.0]), st.sampled_from([0, 1]))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_no_interleaving_breaks_the_gram_relation(steps, runtime, exit_code):
    grid = MiniGrid()
    sim, client, lrm = grid.sim, grid.client, grid.lrm
    persisted, acked, box = [], [], {}
    real_persist = JobManager._persist

    def persist(self):
        persisted.append(self.state)
        real_persist(self)

    def send(gen):
        def run():
            try:
                box.setdefault("answers", []).append((yield from gen))
            except (RPCError, GramClientError):
                pass
        grid.submit.spawn(run())

    def cancel():
        if (yield from client.cancel(contact, jmid)):
            acked.append(sim.now)

    with mock.patch.object(JobManager, "_persist", persist):
        send(client.submit_phase1(
            "site-gk", GramJobRequest(runtime=runtime, exit_code=exit_code),
            callback=("submit", "gram-cb")))
        sim.run(until=1.0)
        jmid, contact = box["answers"][0]["jmid"], "site-gk"
        for op, delay in steps:
            job = next(iter(lrm.jobs.values()), None)
            jm = grid.gk_host.get_service(f"jm:{jmid}")
            if op == "commit":
                send(client.commit(contact, jmid))
            elif op == "cancel":
                send(cancel())
            elif op == "preempt" and job is not None:
                lrm.preempt(job.local_id)
            elif op == "site_cancel" and job is not None:
                lrm.cancel(job.local_id)
            elif op == "crash" and jm is not None:
                jm.crash()
            elif op == "restart":
                send(client.restart_jobmanager(contact, jmid))
            sim.run(until=sim.now + delay)      # strict: a raise ends it
        send(client.restart_jobmanager(contact, jmid))  # nobody left dead
        sim.run(until=sim.now + 400.0)

    terminal = [i for i, state in enumerate(persisted) if is_terminal(state)]
    if terminal:
        assert set(persisted[terminal[0]:]) == {persisted[-1]}, persisted
    heard = {kw["state"] for _t, kw in grid.callbacks
             if is_terminal(kw["state"])}
    assert heard <= {persisted[-1]}, (heard, persisted)
    assert len(lrm.jobs) <= 1
    if acked:
        assert not [job for job in lrm.jobs.values()
                    if job.state in ("QUEUED", "RUNNING")], (acked, persisted)
        assert persisted[-1] in ("FAILED", "DONE")


def test_a_killed_jobmanager_writes_nothing_more():
    """A JobManager is killed while its cancel handler waits on the LRM,
    and restarted at once.  The dead daemon's handler still finishes --
    the cancel it sent reaches the LRM -- but it writes nothing: the
    successor loads the state file as the crash left it and learns the
    outcome from the LRM, as after any crash."""
    grid = MiniGrid()
    sim, client = grid.sim, grid.client
    box = {}

    def submit():
        box["r"] = yield from client.submit("site-gk",
                                            GramJobRequest(runtime=500.0))
    grid.submit.spawn(submit())
    sim.run(until=20.0)
    jmid = box["r"]["jmid"]
    dead = grid.gk_host.get_service(f"jm:{jmid}")
    assert dead.state == "ACTIVE"
    grid.submit.spawn(client.cancel("site-gk", jmid))
    sim.run(until=sim.now + 0.07)           # the cancel is at the LRM
    dead.crash()
    grid.submit.spawn(client.restart_jobmanager("site-gk", jmid))
    sim.run(until=sim.now + 60.0)
    live = grid.gk_host.get_service(f"jm:{jmid}")
    assert live is not dead and dead.state == "ACTIVE"
    assert [r.details["state"] for r in sim.trace
            if r.component == f"jobmanager:{jmid}"
            and r.event == "recovered"] == ["ACTIVE"]
    assert (live.state, live.failure_reason) == ("FAILED", "cancel")
    assert [job.state for job in grid.lrm.jobs.values()] == ["CANCELLED"]
