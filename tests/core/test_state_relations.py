"""One writer of job state: the declared relations (``repro.states``)
and the two ``transition`` functions that are the only way a submit-side
job record changes state.

Pins: an undeclared edge halts the run wherever it is raised; recovery
takes only the recover edges; nothing but the two writers and the two
``from_record``s assigns a record's ``.state``; docs/PROTOCOLS.md shows
the tables as they are; and no interleaving of the things that move a
job -- remote reports, holds, releases, removals, shadow callbacks --
raises, leaves a terminal state, or leaves a stale hold reason.
"""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import GridTestbed, JobDescription, states
from repro.condor.jobs import CondorJob, job_ad
from repro.core import job as J
from repro.core.gridmanager import GridManager
from repro.core.job import GridJob
from repro.gram.protocol import GramJobRequest
from repro.grid.config import AgentSpec, DatasetSpec, SiteSpec, \
    TestbedConfig
from repro.sim import Host, Simulator, SimulationError
from repro.sim.network import Network
from repro.sim.rpc import Service, notify
from repro.states import IllegalTransition, JobState

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"


def make_tb(seed=21, **kw):
    config = TestbedConfig(
        seed=seed, sites=(SiteSpec("wisc", scheduler="pbs", cpus=4),),
        agents=(AgentSpec("alice", negotiation_interval=10.0),), **kw)
    tb = GridTestbed.from_config(config)
    return tb, tb.agents["alice"]


# -- the check cannot be swallowed ---------------------------------------------

def test_illegal_edge_in_a_gram_callback_stops_the_run(monkeypatch):
    """Through the real delivery path: the callback RPC's handler takes
    DONE -> ACTIVE, and that is not an RPC error the JobManager's notify
    throws away -- ``run()`` ends there, naming the job and the edge."""
    def forced(self, ctx, jmid, state, failure_reason="", exit_code=None):
        self.scheduler.transition(self.scheduler.job_by_jmid(jmid), state)
        return True

    tb, agent = make_tb()
    done = agent.submit(JobDescription(runtime=50.0), resource="wisc-gk")
    agent.submit(JobDescription(runtime=5000.0), resource="wisc-gk")
    tb.run(until=400.0)     # the long job keeps the callback sink up
    job = agent.scheduler.jobs[done]
    assert job.state == "DONE"
    monkeypatch.setattr(GridManager, "handle_gram_callback", forced)
    gm = agent.scheduler.gridmanager
    notify(tb.sites["wisc"].gk_host, agent.host.name, gm.callback_service,
           "gram_callback", jmid=job.jmid, state="ACTIVE")
    with pytest.raises(IllegalTransition,
                       match=f"{done}: DONE -> ACTIVE"):
        tb.run(until=500.0)
    assert job.state == "DONE" and tb.sim.now < 401.0


class _Breaker(Service):
    service_name = "breaker"

    def handle_plain(self, ctx):
        raise IllegalTransition("j1: DONE -> ACTIVE is not declared")

    def handle_slow(self, ctx):
        yield self.sim.timeout(1.0)
        raise IllegalTransition("j1: DONE -> ACTIVE is not declared")


@pytest.mark.parametrize("where", ["process", "handler", "generator handler",
                                   "boot action"])
def test_illegal_transition_stops_run_wherever_it_is_raised(where):
    sim = Simulator(seed=1)
    Network(sim)
    server, client = Host(sim, "server"), Host(sim, "client")
    _Breaker(server)

    def broken(_host=None):
        raise IllegalTransition("j1: DONE -> ACTIVE is not declared")

    def process():
        yield sim.timeout(1.0)
        broken()

    if where == "process":
        client.spawn(process())
    elif where == "boot action":
        client.crash()
        client.boot_actions.append(broken)
        sim.schedule(5.0, client.restart)
    else:
        notify(client, "server", "breaker",
               "plain" if where == "handler" else "slow")
    with pytest.raises(SimulationError, match="j1: DONE -> ACTIVE"):
        sim.run(until=100.0)


def test_an_ordinary_handler_error_is_still_the_callers_problem():
    from repro.sim.errors import RemoteError
    from repro.sim.rpc import call

    class Flaky(Service):
        service_name = "flaky"

        def handle_go(self, ctx):
            raise ValueError("bad input")

    sim = Simulator(seed=1)
    Network(sim)
    Flaky(Host(sim, "server"))
    client = Host(sim, "client")
    seen = []

    def caller():
        try:
            yield from call(client, "server", "flaky", "go")
        except RemoteError as exc:
            seen.append(exc.kind)

    client.spawn(caller())
    sim.run(until=50.0)
    assert seen == ["ValueError"]


# -- recovery takes the recover edges, and only those ---------------------------

def test_from_record_leaves_states_with_no_recover_edge_alone():
    for state in states.GRID_EDGES:
        job = GridJob(job_id="g1", request=GramJobRequest(runtime=1.0),
                      state=state, committed=True, jmid="jm-1")
        back = GridJob.from_record(job.queue_record())
        if state in states.GRID_RECOVER:
            assert back.state in states.GRID_RECOVER[state]
        else:
            assert back.state == state
    for state in states.POOL_EDGES:
        job = CondorJob(job_id="1.0", ad=job_ad("u"), runtime=1.0,
                        state=state, matched_to="slot1")
        back = CondorJob.from_record(job.queue_record())
        if state in states.POOL_RECOVER:
            assert back.state in states.POOL_RECOVER[state]
            assert back.matched_to == ""
        else:
            assert (back.state, back.matched_to) == (state, "slot1")


def test_a_forged_recover_edge_raises(monkeypatch):
    """`from_record` asks the table too: take its edge away and loading
    a record that needs it is an IllegalTransition, not a silent write."""
    monkeypatch.setitem(states.GRID_RECOVER, JobState.STAGING, frozenset())
    monkeypatch.setitem(states.POOL_RECOVER, JobState.RUNNING, frozenset())
    staging = GridJob(job_id="g1", request=GramJobRequest(runtime=1.0),
                      state=J.STAGING)
    with pytest.raises(IllegalTransition, match="g1: STAGING -> UNSUBMITTED"):
        GridJob.from_record(staging.queue_record())
    running = CondorJob(job_id="1.0", ad=job_ad("u"), runtime=1.0,
                        state="RUNNING")
    with pytest.raises(IllegalTransition, match="1.0: RUNNING -> IDLE"):
        CondorJob.from_record(running.queue_record())


def test_the_writers_refuse_undeclared_edges_and_stale_hold_reasons():
    tb, agent = make_tb()
    jid = agent.submit(JobDescription(runtime=50.0), resource="wisc-gk")
    job = agent.scheduler.jobs[jid]
    with pytest.raises(IllegalTransition, match="UNSUBMITTED -> DONE"):
        agent.scheduler.transition(job, J.DONE)
    job.hold_reason = "left behind"
    with pytest.raises(IllegalTransition, match="hold_reason"):
        agent.scheduler.transition(job, J.SUBMITTING)
    assert job.state == "UNSUBMITTED"
    cid = agent.submit(JobDescription(universe="vanilla", runtime=5.0))
    with pytest.raises(IllegalTransition, match="IDLE -> COMPLETED"):
        agent.schedd._transition(agent.schedd.jobs[cid], "COMPLETED")


# -- one writer per record: the gate --------------------------------------------

#: (file, enclosing function) pairs allowed to assign a job record's state
WRITERS = {("core/scheduler.py", "transition"), ("core/job.py", "from_record"),
           ("condor/schedd.py", "_transition"),
           ("condor/jobs.py", "from_record")}
#: receivers whose ``.state`` is another record kind (startd slot, flood
#: umbrella job), not a queue record
OTHER_RECORDS = {"startd", "flooded"}


def _state_writes(path: Path):
    tree = ast.parse(path.read_text())
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, (ast.AugAssign,
                                                   ast.AnnAssign)) else []
            for target in targets:
                if isinstance(target, ast.Attribute) and \
                        target.attr == "state" and \
                        getattr(target.value, "id", "") not in OTHER_RECORDS:
                    yield func.name, node.lineno


def test_only_the_writers_assign_a_job_records_state():
    files = sorted((SRC / "core").glob("*.py")) + [
        SRC / "condor" / name for name in ("schedd.py", "jobs.py",
                                           "shadow.py")]
    found = set()
    for path in files:
        rel = str(path.relative_to(SRC))
        for func, line in _state_writes(path):
            assert (rel, func) in WRITERS, \
                f"{rel}:{line}: raw .state write in {func}()"
            found.add((rel, func))
    assert found == WRITERS     # and each writer has exactly its one site
    for rel, _func in WRITERS:
        assert len(list(_state_writes(SRC / rel))) == 1, rel


# -- the doc shows the tables as they are -----------------------------------------

def _render(edges: dict) -> list[str]:
    return [f"{old} -> {' '.join(sorted(new)) or '(absorbing)'}"
            for old, new in edges.items()]


def test_protocols_doc_matches_the_declared_relations():
    text = (ROOT / "docs" / "PROTOCOLS.md").read_text()
    block = re.search(r"## Job state relations.*?```text\n(.*?)```", text,
                      re.S).group(1)
    expected = []
    for name in ("GRID_EDGES", "GRID_RECOVER", "POOL_EDGES", "POOL_RECOVER"):
        expected += [f"{name}:"] + \
            ["  " + line for line in _render(getattr(states, name))] + [""]
    assert block.splitlines() == expected[:-1]


def test_terminal_states_are_absorbing_in_both_relations():
    for edges in (states.GRID_EDGES, states.POOL_EDGES):
        for old, new in edges.items():
            assert (not new) == states.is_terminal(old), old
            assert new <= set(edges), old     # every successor has a row


# -- no interleaving breaks the relation ------------------------------------------

GRID_OPS = st.sampled_from(
    [("report", state, which) for state in ("PENDING", "ACTIVE", "DONE",
                                            "FAILED")
     for which in ("current", "superseded")] +
    [("credential_problem",), ("release",), ("cancel",), ("hold_queued",)])
POOL_OPS = st.sampled_from(
    [("exit",), ("vacated",), ("hold",), ("release",), ("remove",),
     ("vacate_job",)])
STEP = st.tuples(st.sampled_from(["grid", "pool"]), GRID_OPS, POOL_OPS,
                 st.sampled_from([0.0, 0.5, 12.0, 45.0]))


def _apply_grid(tb, agent, job, op, jmids):
    scheduler = agent.scheduler
    if op[0] == "report":
        gm = scheduler.gridmanager
        jmid = job.jmid if op[2] == "current" else \
            next((j for j in jmids if j != job.jmid), "jm-never")
        if gm is not None and jmid:
            gm.handle_gram_callback(
                None, jmid, op[1],
                failure_reason="jobmanager crashed" if op[1] == "FAILED" else "",
                exit_code=0 if op[1] == "DONE" else None)
    elif op[0] == "credential_problem":
        scheduler.credential_problem(job, "proxy expired")
    elif op[0] == "release":
        scheduler.release_credential_holds()
    elif op[0] == "hold_queued":
        scheduler.hold_for_credentials("proxy credential expired")
    else:
        agent.cancel(job.job_id)


def _apply_pool(agent, jid, op):
    schedd = agent.schedd
    shadow = schedd.shadows.get(jid)
    if op[0] == "exit":
        if shadow is not None:
            shadow.handle_job_exit(None, 0)
    elif op[0] == "vacated":
        if shadow is not None:
            shadow.handle_vacated(None, 1.0)
    elif op[0] == "hold":
        schedd.hold(jid, "user hold")
    elif op[0] == "release":
        schedd.release(jid)
    elif op[0] == "remove":
        agent.cancel(jid)
    else:
        schedd.vacate_job(jid)


@given(st.lists(STEP, min_size=1, max_size=12),
       st.sampled_from([0.0, 3.0, 30.0, 90.0]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_no_interleaving_raises_or_leaves_a_terminal_state(steps, warmup):
    tb, agent = make_tb()
    agent.glide_in("wisc-gk", count=1, walltime=5000.0, idle_timeout=400.0)
    gid = agent.submit(JobDescription(runtime=300.0), resource="wisc-gk")
    cid = agent.submit(JobDescription(universe="vanilla", runtime=60.0))
    tb.run(until=warmup)
    seen = {gid: [], cid: []}
    jmids = []

    def check():
        for status in agent.statuses():
            if status.job_id not in seen:
                continue            # the glidein pilot
            history = seen[status.job_id]
            if history and states.is_terminal(history[-1]):
                assert status.state == history[-1], history
            history.append(status.state)
            assert status.state == "HELD" or status.hold_reason == "", \
                (status, history)

    for queue, grid_op, pool_op, dt in steps:
        # (the job object is looked up each time: nothing here reboots,
        # but a hold keeps no alias either)
        job = agent.scheduler.jobs[gid]
        if job.jmid and job.jmid not in jmids:
            jmids.append(job.jmid)
        if queue == "grid":
            _apply_grid(tb, agent, job, grid_op, jmids)
        else:
            _apply_pool(agent, cid, pool_op)
        check()
        tb.run(until=tb.sim.now + dt)      # strict: a dead process raises
        check()
    agent.scheduler.release_credential_holds()
    agent.schedd.release(cid)
    tb.run_until_quiet(max_time=tb.sim.now + 20_000.0)
    check()
    assert all(states.is_terminal(history[-1]) for history in seen.values())


# -- the holes the relation exposed -------------------------------------------------

def test_removing_a_running_vanilla_job_is_final_and_frees_the_slot():
    """`condor_rm` semantics: REMOVED is absorbing (the job's exit must
    not turn it COMPLETED), the slot stops computing, and the running
    gauge comes back down."""
    from repro.grid.scenarios import get_scenario

    tb = get_scenario("pool-reuse").build(1)
    agent = tb.agents["dave"]
    tb.run(until=153.0)
    victim = agent.status("1.0")
    assert victim.state == "RUNNING"
    agent.cancel("1.0")
    tb.run(until=160.0)
    slot = next(s for s in agent.glideins.live_startds
                if s.startd_name == victim.resource)
    assert slot.current_job_id != "1.0"     # Unclaimed, or someone else's
    tb.run_until_quiet(max_time=20_000.0)
    status = agent.status("1.0")
    assert (status.state, status.end_time, status.exit_code) == \
        ("REMOVED", 153.0, None)
    assert [e.event for e in agent.logs("1.0")] == \
        ["queued", "execute", "removed"]
    assert tb.sim.metrics.gauge("schedd.running").value == 0
    others = [s for s in agent.statuses()
              if s.universe == "vanilla" and s.job_id != "1.0"]
    assert len(others) == 39 and all(s.is_complete for s in others)


def test_a_job_held_midflight_leaves_held_with_an_event():
    """The remote job ran on while its record was HELD; the report that
    finishes it is what releases it -- reason cleared, `released` in the
    log -- so `condor_q`/`condor_history` never print a stale reason."""
    from repro.core.tools import condor_history
    from repro.grid.scenarios import get_scenario

    tb = get_scenario("quickstart").build(1)
    agent = tb.agents["alice"]
    tb.run(until=130.0)
    job = agent.scheduler.jobs["gridjob-1"]
    assert job.state == "ACTIVE"
    agent.scheduler.credential_problem(job, "proxy expired")
    assert agent.status("gridjob-1").hold_reason.startswith("credential")
    tb.run_until_quiet(max_time=20_000.0)
    status = agent.status("gridjob-1")
    assert (status.state, status.hold_reason) == ("DONE", "")
    assert [e.event for e in agent.logs("gridjob-1")] == [
        "queued", "submit", "execute", "held", "released", "terminate"]
    assert "credential" not in condor_history(agent)
    assert len(tb.sites["wisc"].lrm.jobs) == 2      # nothing ran twice


def test_the_user_surface_covers_every_universe():
    """§4.1 through the public API: a grid, a vanilla and a standard job
    each have a complete log in the one user log file and each fire
    `on_termination`; a held pool job says so, and why it left."""
    tb, agent = make_tb()
    heard = []
    agent.on_termination(lambda job_id, event, details:
                         heard.append((job_id, event, details["exit_code"])))
    agent.glide_in("wisc-gk", count=2, idle_timeout=300.0)
    jobs = {universe: agent.submit(JobDescription(universe=universe,
                                                  runtime=40.0),
                                   resource="wisc-gk" * (universe == "grid"))
            for universe in ("grid", "vanilla", "standard")}
    parked = agent.submit(JobDescription(universe="vanilla", runtime=5.0))
    agent.schedd.hold(parked, "waiting for input")
    tb.run(until=200.0)
    agent.schedd.release(parked)
    tb.run_until_quiet(max_time=20_000.0)
    logs = {u: [e.event for e in agent.logs(j)] for u, j in jobs.items()}
    assert logs["grid"] == ["queued", "submit", "execute", "terminate"]
    assert logs["vanilla"] == logs["standard"] == \
        ["queued", "execute", "terminate"]
    assert [e.event for e in agent.logs(parked)] == \
        ["queued", "held", "released", "execute", "terminate"]
    assert {(j, "terminate", 0) for j in [*jobs.values(), parked]} <= \
        set(heard)
    # one file, one sequence: every record of both queues, in time order
    times = [e.time for e in agent.userlog.events]
    assert times == sorted(times)
    assert agent.schedd.userlog is agent.scheduler.userlog


# -- every declared edge is one real code takes ------------------------------------

def _data_tb():
    config = TestbedConfig(
        seed=11, with_mds=False, with_repo=False,
        sites=(SiteSpec("near", scheduler="pbs", cpus=8, register_mds=False,
                        storage=500_000_000.0),
               SiteSpec("far", scheduler="lsf", cpus=8, register_mds=False,
                        storage=500_000_000.0)),
        datasets=(DatasetSpec("cal", size=2_000_000, replicas=("near",)),),
        data_link_bandwidth=1_000_000.0,
        agents=(AgentSpec("alice", personal_pool=False),))
    tb = GridTestbed.from_config(config)
    return tb, tb.agents["alice"]


def _step_until(tb, predicate, limit=200_000):
    for _ in range(limit):
        if predicate():
            return
        assert tb.sim.step(), "simulation drained first"
    raise AssertionError("predicate never held")


def _walk_grid(tb, agent, resource, **description):
    """Drive jobs along every grid edge that needs no data services (and,
    with ``output_datasets``, the ones into and out of STAGING_OUT)."""
    scheduler = agent.scheduler

    def submit(runtime=2000.0):
        jid = agent.submit(JobDescription(runtime=runtime, **description),
                           resource=resource)
        return scheduler.jobs[jid]

    def report(job, state, reason=""):
        scheduler.gridmanager.handle_gram_callback(
            None, job.jmid, state, failure_reason=reason,
            exit_code=0 if state == "DONE" else None)

    def until(job, state, jmid=True):
        _step_until(tb, lambda: job.state == state and
                    (bool(job.jmid) or not jmid))

    def hold(job):
        scheduler.credential_problem(job, "proxy expired")
        assert job.state == "HELD"

    queued = scheduler.jobs[agent.submit(   # UNSUBMITTED -> FAILED
        JobDescription(runtime=1.0))]       # (no broker: it stays queued)
    agent.cancel(queued.job_id)
    early = submit()                        # SUBMITTING -> ACTIVE / DONE
    until(early, "SUBMITTING")
    report(early, "ACTIVE")
    done_early = submit()
    until(done_early, "SUBMITTING")
    report(done_early, "DONE")
    reclaimed = submit()                    # SUBMITTING -> UNSUBMITTED
    until(reclaimed, "SUBMITTING")
    report(reclaimed, "FAILED", "jobmanager crashed")
    refused = submit()                      # SUBMITTING -> HELD -> FAILED
    until(refused, "SUBMITTING", jmid=False)
    hold(refused)
    agent.cancel(refused.job_id)
    removed = submit()                      # SUBMITTING -> FAILED
    until(removed, "SUBMITTING", jmid=False)
    agent.cancel(removed.job_id)
    waiting = submit()                      # PENDING -> HELD -> ACTIVE ...
    until(waiting, "PENDING")
    hold(waiting)
    report(waiting, "ACTIVE")
    hold(waiting)                           # ... ACTIVE -> HELD -> PENDING
    report(waiting, "PENDING")
    report(waiting, "DONE")                 # PENDING -> DONE / STAGING_OUT
    held_done = submit()                    # HELD -> DONE / STAGING_OUT
    until(held_done, "ACTIVE")
    hold(held_done)
    report(held_done, "DONE")
    held_failed = submit()                  # HELD -> FAILED
    until(held_failed, "ACTIVE")
    hold(held_failed)
    report(held_failed, "FAILED", "application error")
    bouncing = submit()                     # ACTIVE -> UNSUBMITTED -> HELD
    until(bouncing, "ACTIVE")
    report(bouncing, "FAILED", "jobmanager crashed")
    assert scheduler.hold_for_credentials("proxy credential expired") >= 1
    scheduler.release_credential_holds()    # HELD -> UNSUBMITTED
    until(bouncing, "ACTIVE")
    report(bouncing, "PENDING")             # ACTIVE -> PENDING
    report(bouncing, "FAILED", "jobmanager crashed")      # PENDING -> UNSUBMITTED
    until(bouncing, "PENDING")
    report(bouncing, "FAILED", "application error")  # PENDING -> FAILED
    running = submit()                      # ACTIVE -> FAILED (cancel)
    until(running, "ACTIVE")
    agent.cancel(running.job_id)
    midflight = submit()                    # HELD -> PENDING (release)
    until(midflight, "ACTIVE")
    hold(midflight)
    scheduler.release_credential_holds()
    tb.run(until=tb.sim.now + 60.0)
    assert running.state == "FAILED" and queued.state == "FAILED"


def _walk_data(tb, agent):
    """The edges only data placement takes."""
    scheduler = agent.scheduler
    cold = agent.submit(                # UNSUBMITTED -> STAGING -> SUBMITTING
        JobDescription(runtime=50.0, input_datasets=("cal",),
                       output_datasets=(("out", 300_000),)),
        resource="far-gk")              # ... ACTIVE -> STAGING_OUT -> DONE
    lost = scheduler.jobs[agent.submit(  # STAGING -> UNSUBMITTED / FAILED
        JobDescription(runtime=50.0, input_datasets=("no-such-dataset",)),
        resource="far-gk")]
    tb.run_until_quiet(max_time=5_000.0)
    assert scheduler.jobs[cold].state == "DONE"
    assert lost.state == "FAILED" and lost.attempts == lost.max_attempts
    _walk_grid(tb, agent, "near-gk",
               output_datasets=(("big", 200_000_000),))
    placing = scheduler.jobs[agent.submit(      # STAGING_OUT -> FAILED
        JobDescription(runtime=20.0, output_datasets=(("big2", 10**9),)),
        resource="near-gk")]
    _step_until(tb, lambda: placing.state == "STAGING_OUT")
    agent.cancel(placing.job_id)
    tb.run(until=tb.sim.now + 60.0)
    assert placing.state == "FAILED"


def _walk_pool(tb, agent):
    schedd = agent.schedd
    agent.glide_in("wisc-gk", count=2, walltime=50_000.0,
                   idle_timeout=20_000.0)

    def submit(runtime=300.0):
        return schedd.jobs[agent.submit(
            JobDescription(universe="vanilla", runtime=runtime))]

    def until(job, state):
        _step_until(tb, lambda: job.state == state)

    parked = submit()                   # IDLE -> HELD -> IDLE -> HELD ->
    assert schedd.hold(parked.job_id, "user hold")          # REMOVED
    assert schedd.release(parked.job_id)
    assert schedd.hold(parked.job_id, "user hold")
    agent.cancel(parked.job_id)
    unwanted = submit()                 # IDLE -> REMOVED
    agent.cancel(unwanted.job_id)
    claimed = submit()                  # MATCHED -> REMOVED
    until(claimed, "MATCHED")
    agent.cancel(claimed.job_id)
    refused = submit()                  # MATCHED -> IDLE (claim lost)
    until(refused, "MATCHED")
    tb.net.partition(agent.host.name, refused.matched_host)
    until(refused, "IDLE")
    tb.net.heal(agent.host.name, refused.matched_host)
    until(refused, "RUNNING")           # ... MATCHED -> RUNNING
    assert schedd.vacate_job(refused.job_id)    # RUNNING -> IDLE
    until(refused, "IDLE")
    until(refused, "RUNNING")
    agent.cancel(refused.job_id)        # RUNNING -> REMOVED
    quick = submit(runtime=30.0)        # MATCHED -> COMPLETED
    until(quick, "MATCHED")
    _step_until(tb, lambda: quick.job_id in schedd.shadows)
    schedd.shadows[quick.job_id].handle_job_exit(None, 0)
    plain = submit(runtime=30.0)        # RUNNING -> COMPLETED
    tb.run_until_quiet(max_time=tb.sim.now + 5_000.0)
    assert plain.state == quick.state == "COMPLETED"
    assert claimed.state == refused.state == "REMOVED"


def test_every_declared_edge_is_taken_by_real_code(monkeypatch):
    """An edge in a table is one the code can take: these walks use only
    what moves a job in a run (user calls, remote reports, credential
    holds, shadow callbacks) and between them take every edge of both
    relations -- add an edge without a way to reach it and this fails."""
    from repro.condor.schedd import Schedd
    from repro.core.scheduler import CondorGScheduler

    taken = {"grid": set(), "pool": set()}

    def recording(kind, real):
        def transition(self, job, state, event="", **details):
            edge = (job.state, JobState(state))
            real(self, job, state, event, **details)
            taken[kind].add(edge)
        return transition

    monkeypatch.setattr(CondorGScheduler, "transition",
                        recording("grid", CondorGScheduler.transition))
    monkeypatch.setattr(Schedd, "_transition",
                        recording("pool", Schedd._transition))
    tb, agent = make_tb()
    _walk_grid(tb, agent, "wisc-gk")
    _walk_pool(tb, agent)
    _walk_data(*_data_tb())
    for kind, edges in (("grid", states.GRID_EDGES),
                        ("pool", states.POOL_EDGES)):
        declared = {(old, new) for old, news in edges.items()
                    for new in news}
        assert taken[kind] <= declared
        assert not sorted(f"{old} -> {new}"
                          for old, new in declared - taken[kind]), kind
