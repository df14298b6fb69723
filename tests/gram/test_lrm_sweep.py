"""The site-side status sweep: one LRM poll per interface machine.

All JobManagers of a gatekeeper host share one ``LrmSweep`` that reads
the batch system once per ``POLL_INTERVAL`` and wakes only the
JobManagers whose job changed.  These tests pin its RPC budget and the
"nothing is lost across faults" rules at the protocol level.
"""

import math

import pytest

from repro.gram import ACTIVE, DONE, PENDING, Gram2Client, GramJobRequest
from repro.gram.jobmanager import JobManager
from repro.sim import Host, rpc

from .conftest import MiniGrid

CALLBACK = ("submit", "gram-cb")
SWEEP = "lrm-sweep:site-lrm"


@pytest.fixture
def tally(monkeypatch):
    """The digest-neutral RPC tally the benchmark suite reads."""
    stats = {}
    monkeypatch.setattr(rpc, "RPC_STATS", stats)
    return stats


def submit_all(grid, requests, client=None):
    """Submit every request concurrently; the list fills as they land."""
    responses = []

    def one(request):
        response = yield from (client or grid.client).submit(
            "site-gk", request, callback=CALLBACK)
        responses.append(response)

    for request in requests:
        grid.sim.spawn(one(request))
    return responses


def states_of(grid, jmid):
    return [kw["state"] for _, kw in grid.callbacks if kw["jmid"] == jmid]


def assert_all_done_exactly_once(grid, responses):
    jmids = sorted(r["jmid"] for r in responses)
    done = sorted(kw["jmid"] for _, kw in grid.callbacks
                  if kw["state"] == DONE)
    assert done == jmids                       # one terminal callback each
    assert len(grid.lrm.jobs) == len(jmids)    # no duplicate LRM job
    assert {j.state for j in grid.lrm.jobs.values()} == {"COMPLETED"}
    for jmid in jmids:
        assert grid.gk_host.get_service(f"jm:{jmid}").state == DONE


def get_jm(grid, jmid):
    return grid.gk_host.get_service(f"jm:{jmid}")


# -- (a) the RPC budget ---------------------------------------------------------

def run_batch(jobs, tally):
    grid = MiniGrid(slots=100)
    responses = submit_all(grid, [GramJobRequest(runtime=60.0)] * jobs)
    grid.sim.run()          # drains: the sweeper stops once nobody watches
    assert_all_done_exactly_once(grid, responses)
    polls = tally.get(("lrm", "poll"), 0)
    tally.clear()
    return grid, polls


def test_poll_rpcs_do_not_grow_with_the_number_of_jobs(tally):
    grid10, polls10 = run_batch(10, tally)
    grid100, polls100 = run_batch(100, tally)
    assert abs(polls100 - polls10) <= 2
    for grid, polls in ((grid10, polls10), (grid100, polls100)):
        budget = math.ceil(grid.sim.now / JobManager.POLL_INTERVAL) + 2
        assert 60.0 / JobManager.POLL_INTERVAL <= polls <= budget
        counter = grid.sim.metrics.counter("lrm_sweep.polls")
        assert counter.labelled("ok") == polls
    assert SWEEP not in grid100.gk_host.services     # stopped when idle


def test_no_stream_rpc_for_a_job_that_wrote_nothing(grid, tally):
    def chatty(ctx):
        ctx.write_output("hello\n")
        yield ctx.sim.timeout(30.0)
        return 0

    responses = submit_all(grid, [
        GramJobRequest(runtime=30.0, stdout_url=grid.gass.url("quiet.out"),
                       stderr_url=grid.gass.url("quiet.err")),
        GramJobRequest(program=chatty, stdout_url=grid.gass.url("chatty.out"),
                       stderr_url=grid.gass.url("chatty.err")),
    ])
    grid.sim.run()
    assert_all_done_exactly_once(grid, responses)
    assert grid.gass.read("chatty.out").data == "hello\n"
    assert tally.get(("lrm", "read_output"), 0) == 1     # chatty's one line
    assert ("lrm", "read_error") not in tally


def test_detect_latency_is_bounded_by_one_sweep(grid):
    responses = submit_all(grid, [GramJobRequest(runtime=r)
                                  for r in (11.0, 23.0, 37.0, 52.0)])
    grid.sim.run()
    assert_all_done_exactly_once(grid, responses)
    latency = grid.sim.metrics.histogram("jobmanager.detect_latency")
    assert latency.count == 8                      # ACTIVE + DONE per job
    assert 0.0 < latency.min
    assert latency.max <= JobManager.POLL_INTERVAL + 0.5   # + intra-site RTT


# -- (b) faults -------------------------------------------------------------------

def test_jm_kill_does_not_stall_the_neighbours(grid):
    responses = submit_all(grid, [GramJobRequest(runtime=60.0)] * 3)
    seen = {}

    def scenario():
        yield grid.sim.timeout(20.0)
        victim = responses[1]
        sweep = grid.gk_host.get_service(SWEEP)
        get_jm(grid, victim["jmid"]).crash()
        seen["watching_after_kill"] = len(sweep.watching)
        yield grid.sim.timeout(20.0)
        seen["same_sweeper"] = grid.gk_host.get_service(SWEEP) is sweep
        revived = yield from grid.client.restart_jobmanager(
            victim["contact"], victim["jmid"])
        seen["revived"] = revived["revived"]
        seen["watching_after_restart"] = len(sweep.watching)

    grid.drive(scenario())
    assert seen == {"watching_after_kill": 2, "same_sweeper": True,
                    "revived": True, "watching_after_restart": 3}
    assert_all_done_exactly_once(grid, responses)
    done_at = {kw["jmid"]: t for t, kw in grid.callbacks
               if kw["state"] == DONE}
    for response in (responses[0], responses[2]):
        assert done_at[response["jmid"]] <= 60.0 + 2 * JobManager.POLL_INTERVAL


def test_gatekeeper_crash_kills_the_sweeper_and_restart_rebuilds_it(grid):
    # one job finishes while the interface machine is down, one after
    responses = submit_all(grid, [GramJobRequest(runtime=30.0),
                                  GramJobRequest(runtime=100.0)])
    seen = {}

    def scenario():
        yield grid.sim.timeout(20.0)
        old = grid.gk_host.get_service(SWEEP)
        grid.gk_host.crash()
        yield grid.sim.timeout(30.0)
        grid.gk_host.restart()
        seen["gone_after_boot"] = grid.gk_host.get_service(SWEEP) is None
        for response in responses:
            yield from grid.client.restart_jobmanager(response["contact"],
                                                      response["jmid"])
        new = grid.gk_host.get_service(SWEEP)
        seen["rebuilt"] = new is not None and new is not old
        seen["fresh_cursor"] = new.cursor is None

    grid.drive(scenario())
    assert seen == {"gone_after_boot": True, "rebuilt": True,
                    "fresh_cursor": True}
    assert_all_done_exactly_once(grid, responses)


@pytest.mark.parametrize("cut_at", [
    20.0,    # after the JobManager's first view
    2.0,     # before it: the ask-by-id must survive the failed sweeps
])
def test_isolation_from_the_lrm_spanning_a_completion_is_delivered_late(
        grid, cut_at):
    responses = submit_all(grid, [GramJobRequest(runtime=30.0)])

    def scenario():
        yield grid.sim.timeout(cut_at)
        grid.net.partition("site-gk", "site-lrm")
        yield grid.sim.timeout(60.0 - cut_at)    # the job finishes at t~30
        grid.net.heal("site-gk", "site-lrm")

    grid.drive(scenario())
    assert_all_done_exactly_once(grid, responses)
    (done_at,) = [t for t, kw in grid.callbacks if kw["state"] == DONE]
    # after the heal, within one timed-out sweep plus one good one
    assert 60.0 < done_at <= 60.0 + 10.0 + 2 * JobManager.POLL_INTERVAL
    assert grid.sim.metrics.counter("lrm_sweep.polls").labelled("failed") >= 2


# -- (c) a lost reply ---------------------------------------------------------------

def test_dropped_sweep_reply_replays_the_same_changes(grid):
    """The cursor advances only on a reply that arrived: the sweep after
    a lost one asks the same question and gets the same COMPLETED."""
    responses = submit_all(grid, [GramJobRequest(runtime=30.0)])
    served = []
    real_poll = grid.lrm.handle_poll

    def poll_losing_the_completion(ctx, **args):
        reply = real_poll(ctx, **args)
        if any(view["state"] == "COMPLETED" for view in reply["views"]):
            served.append((args["since"], reply))
            if len(served) == 1:      # cut the wire under this one reply
                grid.net.partition("site-gk", "site-lrm")
                grid.sim.schedule(
                    1.0, lambda: grid.net.heal("site-gk", "site-lrm"))
        return reply

    grid.lrm.handle_poll = poll_losing_the_completion
    grid.sim.run()
    assert len(served) == 2
    (since1, reply1), (since2, reply2) = served
    assert since1 == since2 and reply1 == reply2
    assert_all_done_exactly_once(grid, responses)
    assert states_of(grid, responses[0]["jmid"]) == [PENDING, ACTIVE, DONE]
    polls = grid.sim.metrics.counter("lrm_sweep.polls")
    assert polls.labelled("failed") == 1


# -- (d) a busy JobManager ------------------------------------------------------------

def test_change_arriving_while_the_jobmanager_is_busy_is_applied_afterwards(
        grid):
    """The job completes while its JobManager is still pushing stdout over
    a slow link.  No later change will ever be logged for it, so the
    COMPLETED view must be buffered for the JobManager, not dropped."""
    grid.gass.bandwidth = 10.0           # 120 bytes take 12 s

    def program(ctx):
        ctx.write_output("x" * 120)
        yield ctx.sim.timeout(12.0)
        return 0

    responses = submit_all(grid, [GramJobRequest(
        program=program, stdout_url=grid.gass.url("job.out"))])
    seen = {}

    def probe():
        yield grid.sim.timeout(16.0)     # finished at the LRM, JM in append
        sweep = grid.gk_host.get_service(SWEEP)
        seen["buffered"] = {lid: view["state"]
                            for lid, view in sweep.views.items()}
        seen["jm_state"] = get_jm(grid, responses[0]["jmid"]).state

    grid.drive(probe())
    assert seen == {"buffered": {"pbs.1": "COMPLETED"}, "jm_state": ACTIVE}
    assert_all_done_exactly_once(grid, responses)
    assert grid.gass.read("job.out").size == 120
    (done_at,) = [t for t, kw in grid.callbacks if kw["state"] == DONE]
    assert done_at < 20.0                # right after the append, no new sweep


def test_view_arriving_during_stage_out_does_not_disturb_it(grid):
    """Stage-out runs between seeing COMPLETED and reporting DONE; a view
    delivered meanwhile (here: asked for by id) waits in the buffer and
    goes away with the JobManager's watch."""
    grid.gass.bandwidth = 10.0           # the 200-byte result takes 20 s

    def program(ctx):
        ctx.write_file("result.dat", size=200)
        yield ctx.sim.timeout(10.0)
        return 0

    responses = submit_all(grid, [GramJobRequest(
        program=program,
        output_files={"result.dat": grid.gass.url("result.dat")})])
    seen = {}

    def probe():
        yield grid.sim.timeout(17.0)     # COMPLETED seen, put in flight
        sweep = grid.gk_host.get_service(SWEEP)
        seen["state_during"] = get_jm(grid, responses[0]["jmid"]).state
        sweep.ask("pbs.1")
        yield grid.sim.timeout(6.0)
        seen["buffered"] = sorted(sweep.views)

    grid.drive(probe())
    assert seen == {"state_during": ACTIVE, "buffered": ["pbs.1"]}
    assert_all_done_exactly_once(grid, responses)
    assert states_of(grid, responses[0]["jmid"]) == [PENDING, ACTIVE, DONE]
    assert grid.gass.read("result.dat").size == 200
    assert SWEEP not in grid.gk_host.services


# -- (e) stdout after a failed append -----------------------------------------------

def test_stdout_is_resent_after_a_failed_gass_append(grid, tally):
    """The line is written once, early; the client is unreachable when
    the JobManager first forwards it.  Nothing changes at the LRM
    afterwards, so only the JobManager asking by id gets it resent."""
    def program(ctx):
        yield ctx.sim.timeout(5.0)
        ctx.write_output("only line\n")
        yield ctx.sim.timeout(295.0)
        return 0

    responses = submit_all(grid, [GramJobRequest(
        program=program, stdout_url=grid.gass.url("job.out"))])
    seen = {}

    def scenario():
        yield grid.sim.timeout(3.0)
        grid.net.partition("submit", "site-gk")
        yield grid.sim.timeout(37.0)
        grid.net.heal("submit", "site-gk")
        yield grid.sim.timeout(110.0)    # t=150: the job runs until t=300
        seen["lrm_state"] = grid.lrm.jobs["pbs.1"].state
        seen["arrived"] = grid.gass.read("job.out").data
        seen["reads"] = tally[("lrm", "read_output")]

    grid.drive(scenario())
    assert seen == {"lrm_state": "RUNNING", "arrived": "only line\n",
                    "reads": 2}
    assert_all_done_exactly_once(grid, responses)
    assert tally[("lrm", "read_output")] == 2    # and never again


# -- (f) preemption -------------------------------------------------------------------

def test_preempt_requeue_restart_is_reported_pending_then_active_again(grid):
    responses = submit_all(grid, [GramJobRequest(runtime=40.0)])

    def scenario():
        yield grid.sim.timeout(20.0)
        grid.lrm.preempt("pbs.1")
        grid.lrm.free_slots -= 4         # the owners are back for a while
        yield grid.sim.timeout(20.0)
        grid.lrm.free_slots += 4
        grid.lrm._kick()

    grid.drive(scenario())
    assert_all_done_exactly_once(grid, responses)
    assert states_of(grid, responses[0]["jmid"]) == \
        [PENDING, ACTIVE, PENDING, ACTIVE, DONE]
    assert grid.lrm.jobs["pbs.1"].preempt_count == 1


# -- (g) sharing ------------------------------------------------------------------------

def test_two_users_jobmanagers_share_one_sweeper(grid, tally):
    other = Gram2Client(Host(grid.sim, "submit2"))
    mine = submit_all(grid, [GramJobRequest(runtime=60.0)] * 2)
    theirs = submit_all(grid, [GramJobRequest(runtime=60.0)] * 2,
                        client=other)
    seen = {}

    def probe():
        yield grid.sim.timeout(30.0)
        sweepers = [name for name in grid.gk_host.services
                    if name.startswith("lrm-sweep:")]
        seen["sweepers"] = sweepers
        seen["watching"] = len(grid.gk_host.get_service(SWEEP).watching)
        seen["owners"] = sorted({svc.owner for name, svc
                                 in grid.gk_host.services.items()
                                 if name.startswith("jm:")})

    grid.drive(probe())
    assert seen == {"sweepers": [SWEEP], "watching": 4,
                    "owners": ["submit", "submit2"]}
    assert_all_done_exactly_once(grid, mine + theirs)
    budget = math.ceil(grid.sim.now / JobManager.POLL_INTERVAL) + 2
    assert tally[("lrm", "poll")] <= budget
