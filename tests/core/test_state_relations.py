"""One writer per record: the declared relations (``repro.states``) and
the one mover of each record kind -- the job queue's ``transition`` for
submit-side jobs; ``_move`` of the JobManager, the startd slot, DAGMan
and the flooding submitter on the site side.

Pins: an undeclared edge halts the run wherever it is raised; recovery
takes only the recover edges; nothing anywhere under ``src/repro`` but
the movers and loaders assigns a ``.state``, and nothing but the queue
opens a job-record namespace; docs/PROTOCOLS.md shows the tables as they
are; real code takes every declared edge; no interleaving of the things
that move a job -- remote reports, holds, releases, removals, shadow
callbacks -- raises, leaves a terminal state, or leaves a stale hold
reason; and the site-side holes the relations exposed stay closed.
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
from repro.sim.rpc import Service, call, notify
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
        # (a finished job's jmid is no longer looked up: its attempt is
        # closed, so the forced delivery names the job itself)
        self.queue.transition(self.queue.jobs[done], state)
        return True

    tb, agent = make_tb()
    done = agent.submit(JobDescription(runtime=50.0), resource="wisc-gk")
    agent.submit(JobDescription(runtime=5000.0), resource="wisc-gk")
    tb.run(until=400.0)     # the long job keeps the callback sink up
    job = agent.queue.jobs[done]
    assert job.state == "DONE"
    monkeypatch.setattr(GridManager, "handle_gram_callback", forced)
    gm = agent.gridmanager
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
    job = agent.queue.jobs[jid]
    with pytest.raises(IllegalTransition, match="UNSUBMITTED -> DONE"):
        agent.queue.transition(job, J.DONE)
    job.hold_reason = "left behind"
    with pytest.raises(IllegalTransition, match="hold_reason"):
        agent.queue.transition(job, J.SUBMITTING)
    assert job.state == "UNSUBMITTED"
    cid = agent.submit(JobDescription(universe="vanilla", runtime=5.0))
    with pytest.raises(IllegalTransition, match="IDLE -> COMPLETED"):
        agent.queue.transition(agent.queue.jobs[cid], "COMPLETED")
    # each record takes its own relation, never the union
    with pytest.raises(IllegalTransition, match="UNSUBMITTED -> IDLE"):
        agent.queue.transition(job, "IDLE")


def test_the_site_side_movers_refuse_undeclared_edges_naming_the_record():
    from repro.condor.startd import Startd
    from repro.core.flood import FloodingSubmitter
    from repro.dagman import Dag, DagMan, DagNode

    tb, agent = make_tb()
    agent.submit(JobDescription(runtime=50.0), resource="wisc-gk")
    flooder = FloodingSubmitter(agent)
    logical = flooder.submit(JobDescription(runtime=50.0), sites=["wisc-gk"])

    def slow(ctx):
        yield ctx.sim.timeout(10**4)

    dag = Dag()
    dag.add_node(DagNode("n0", action=slow))
    dag.add_node(DagNode("n1", action=slow))
    dag.add_dependency("n0", "n1")        # n1 waits
    dagman = DagMan(agent, dag)
    slot = Startd(Host(tb.sim, "box"), "slot@box", collector="nowhere")
    site = tb.sites["wisc"]
    _step_until(tb, lambda: _jobmanagers(site))
    jm, = _jobmanagers(site)
    for move, message in (
            (lambda: jm._move("ACTIVE"), f"jm:{jm.jmid}: UNCOMMITTED -> ACTIVE"),
            (lambda: slot._move("Busy"), "startd:slot@box: Unclaimed -> Busy"),
            (lambda: dagman._move(dag.nodes["n1"], "DONE"),
             "dag:n1: WAITING -> DONE"),
            (lambda: flooder._move(flooder.status(logical), "DONE"),
             f"{logical}: FLOODED -> DONE")):
        with pytest.raises(IllegalTransition, match=message):
            move()
    assert (jm.state, slot.state, dag.nodes["n1"].state,
            flooder.status(logical).state) == \
        ("UNCOMMITTED", "Unclaimed", "WAITING", "FLOODED")


# -- one writer per record: the gate --------------------------------------------

#: (file, enclosing function) pairs allowed to assign a ``.state``: each
#: record kind's mover and loader, and the LRM's own job writer
WRITERS = {
    ("condor/queue.py", "transition"),      # grid + pool queue records
    ("core/job.py", "from_record"),
    ("condor/jobs.py", "from_record"),
    ("gram/jobmanager.py", "_move"),        # GRAM_EDGES
    ("gram/jobmanager.py", "_recover"),
    ("condor/startd.py", "_move"),          # STARTD_EDGES
    ("dagman/dagman.py", "_move"),          # DAG_EDGES, DAG_RECOVER
    ("core/flood.py", "_move"),             # FLOOD_EDGES
    ("lrm/base.py", "_set_state"),
}


def _flat(targets):
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flat(target.elts)
        elif isinstance(target, ast.Starred):
            yield from _flat([target.value])
        else:
            yield target


def _state_writes(path: Path):
    """(innermost enclosing function, line) of every ``<x>.state = ...``,
    tuple targets, augmented assignments and ``setattr(x, "state", v)``
    included, anywhere in the module."""
    tree = ast.parse(path.read_text())
    funcs = [node for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, (ast.AugAssign,
                                               ast.AnnAssign)) else []
        hit = any(isinstance(t, ast.Attribute) and t.attr == "state"
                  for t in _flat(targets)) or (
            isinstance(node, ast.Call) and
            getattr(node.func, "id", "") == "setattr" and
            len(node.args) > 1 and
            getattr(node.args[1], "value", None) == "state")
        if hit:
            around = [f for f in funcs
                      if f.lineno <= node.lineno <= f.end_lineno]
            yield (min(around, key=lambda f: f.end_lineno - f.lineno).name
                   if around else "<module>"), node.lineno


def test_only_the_writers_assign_a_job_records_state():
    """Every module under src/repro, no exemption: a ``.state`` changes
    in its record's one mover (or loader), and each of those has exactly
    one write site."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        for func, line in _state_writes(path):
            assert (rel, func) in WRITERS, \
                f"{rel}:{line}: raw .state write in {func}()"
            found.add((rel, func))
    assert found == WRITERS
    for rel, func in WRITERS:
        assert [f for f, _ in _state_writes(SRC / rel)].count(func) == 1, \
            (rel, func)


def test_the_gate_sees_every_way_to_write_a_state(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "x.state = 1\n"
        "class C:\n"
        "    def f(self):\n"
        "        self.state, other = 1, 2\n"
        "        def g():\n"
        "            setattr(node, 'state', 3)\n"
        "        a.b.state += 1\n")
    assert sorted(_state_writes(module), key=lambda w: w[1]) == \
        [("<module>", 1), ("f", 4), ("g", 6), ("f", 7)]


def test_glidein_teardown_touches_no_startd_internals():
    """The glidein manager ends a startd through ``Startd.kill`` alone."""
    tree = ast.parse((SRC / "core" / "glidein.py").read_text())
    private = {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and
               node.attr.startswith("_") and
               getattr(node.value, "id", "") == "startd"}
    assert private == set()


# -- one store: the queue's, opened by the queue alone ------------------------------

#: every stable namespace the submit side opens, as written: the queue's
#: two hold the job records; the others are the user log file, the proxy
#: file, a glidein's binary cache at its site and a DAG's rescue file
NAMESPACES = {
    ("condor/queue.py", "f'{QUEUE_NS}:{owner}'"),
    ("condor/queue.py", "f'{FROZEN_NS}:{owner}'"),
    ("core/api.py", "f'{USERLOG_NS}:{user}'"),
    ("core/credmon.py", "f'{PROXY_NS}:{user}'"),
    ("core/glidein.py", "'glidein-cache'"),
    ("dagman/dagman.py", "f'dagman-rescue:{name}'"),
}


def test_only_the_queue_opens_a_job_record_namespace():
    found = set()
    for package in ("core", "condor", "dagman"):
        for path in sorted((SRC / package).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr == "namespace":
                    found.add((str(path.relative_to(SRC)),
                               ast.unparse(node.args[0])))
    assert found == NAMESPACES


def test_the_executors_keep_no_writer_of_their_own():
    from repro.condor.schedd import Schedd

    for executor in (GridManager, Schedd):
        assert not {"transition", "_transition", "persist", "_persist",
                    "_persist_ad", "_recover_queue", "log", "_log",
                    "jobs"} & set(vars(executor)), executor


# -- the doc shows the tables as they are -----------------------------------------

#: every relation ``repro.states`` declares, in the doc's order
TABLES = ("GRID_EDGES", "GRID_RECOVER", "POOL_EDGES", "POOL_RECOVER",
          "GRAM_EDGES", "STARTD_EDGES", "DAG_EDGES", "DAG_RECOVER",
          "FLOOD_EDGES")


def test_the_tables_are_all_the_relations():
    assert set(TABLES) == {name for name, value in vars(states).items()
                           if name.endswith(("_EDGES", "_RECOVER"))
                           and isinstance(value, dict)}


def _render(edges: dict) -> list[str]:
    return [f"{old} -> {' '.join(sorted(new)) or '(absorbing)'}"
            for old, new in edges.items()]


def test_protocols_doc_matches_the_declared_relations():
    text = (ROOT / "docs" / "PROTOCOLS.md").read_text()
    block = re.search(r"## Job state relations.*?```text\n(.*?)```", text,
                      re.S).group(1)
    expected = []
    for name in TABLES:
        expected += [f"{name}:"] + \
            ["  " + line for line in _render(getattr(states, name))] + [""]
    assert block.splitlines() == expected[:-1]


def test_terminal_states_are_absorbing_in_both_relations():
    """In every running relation, submit side and site side: a state is
    absorbing exactly when it is terminal, and every successor has a
    row (a startd slot has no terminal state: it dies, it does not end)."""
    for name in TABLES:
        if name.endswith("_RECOVER"):
            continue
        edges = getattr(states, name)
        for old, new in edges.items():
            assert (not new) == states.is_terminal(old), (name, old)
            assert new <= set(edges), (name, old)


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
    gm = agent.gridmanager
    if op[0] == "report":
        jmid = job.jmid if op[2] == "current" else \
            next((j for j in jmids if j != job.jmid), "jm-never")
        if gm.running and jmid:
            gm.handle_gram_callback(
                None, jmid, op[1],
                failure_reason="jobmanager crashed" if op[1] == "FAILED" else "",
                exit_code=0 if op[1] == "DONE" else None)
    elif op[0] == "credential_problem":
        gm.credential_problem(job, "proxy expired")
    elif op[0] == "release":
        gm.release_credential_holds()
    elif op[0] == "hold_queued":
        gm.hold_for_credentials("proxy credential expired")
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
        job = agent.queue.jobs[gid]
        if job.jmid and job.jmid not in jmids:
            jmids.append(job.jmid)
        if queue == "grid":
            _apply_grid(tb, agent, job, grid_op, jmids)
        else:
            _apply_pool(agent, cid, pool_op)
        check()
        tb.run(until=tb.sim.now + dt)      # strict: a dead process raises
        check()
    agent.gridmanager.release_credential_holds()
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
    # the first vanilla job (the glidein pilots were queued before it)
    first = next(job.job_id for job in agent.queue.jobs.values()
                 if job.universe == "vanilla")
    victim = agent.status(first)
    assert victim.state == "RUNNING"
    agent.cancel(first)
    tb.run(until=160.0)
    slot = next(s for s in agent.glideins.live_startds
                if s.startd_name == victim.resource)
    assert slot.current_job_id != first     # Unclaimed, or someone else's
    tb.run_until_quiet(max_time=20_000.0)
    status = agent.status(first)
    assert (status.state, status.end_time, status.exit_code) == \
        ("REMOVED", 153.0, None)
    assert [e.event for e in agent.logs(first)] == \
        ["queued", "execute", "removed"]
    assert tb.sim.metrics.gauge("schedd.running").value == 0
    others = [s for s in agent.statuses()
              if s.universe == "vanilla" and s.job_id != first]
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
    job = agent.queue.jobs["1.0"]
    assert job.state == "ACTIVE"
    agent.gridmanager.credential_problem(job, "proxy expired")
    assert agent.status("1.0").hold_reason.startswith("credential")
    tb.run_until_quiet(max_time=20_000.0)
    status = agent.status("1.0")
    assert (status.state, status.hold_reason) == ("DONE", "")
    assert [e.event for e in agent.logs("1.0")] == [
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
    assert agent.schedd.queue is agent.gridmanager.queue is agent.queue


# -- the site-side holes the relations exposed ------------------------------------

def _jobmanagers(site):
    return [svc for name, svc in site.gk_host.services.items()
            if name.startswith("jm:")]


def _cancel(agent, jm, answers):
    """The client's cancel RPC, sent now; its answer lands in `answers`."""
    def send():
        answers.append((yield from call(agent.host, jm.host.name, jm.name,
                                        "cancel")))
    agent.host.spawn(send())


def test_a_cancel_in_the_commit_to_lrm_window_runs_nothing():
    """A cancel finds the JobManager committed but without an LRM id (its
    LRM submission in flight).  It waits for the LRM's answer and cancels
    that job: the JobManager ends FAILED, the LRM job CANCELLED -- not
    PENDING -> ACTIVE -> DONE over a FAILED one with the job run."""
    tb, agent = make_tb()
    agent.submit(JobDescription(runtime=200.0), resource="wisc-gk")
    site = tb.sites["wisc"]
    _step_until(tb, lambda: any(jm.state == "STAGE_IN"
                                for jm in _jobmanagers(site)))
    jm, = _jobmanagers(site)
    assert jm.local_id is None
    answers = []
    _cancel(agent, jm, answers)
    tb.run(until=1000.0)
    assert answers == [True]
    assert (jm.state, jm.failure_reason) == ("FAILED", "cancelled by client")
    assert site.lrm.jobs[jm.local_id].state == "CANCELLED"


def test_a_late_view_does_not_overwrite_a_cancel():
    """The LRM job completed, the sweep has not reported it yet, and a
    cancel lands: the JobManager is FAILED from then on, and the view
    that arrives next is too late to turn it DONE."""
    tb, agent = make_tb()
    agent.submit(JobDescription(runtime=50.0), resource="wisc-gk")
    site = tb.sites["wisc"]
    _step_until(tb, lambda: any(job.state == "COMPLETED"
                                for job in site.lrm.jobs.values()))
    jm, = _jobmanagers(site)
    assert jm.state == "ACTIVE"
    answers = []
    _cancel(agent, jm, answers)
    tb.run(until=1000.0)
    assert answers == [True]
    assert (jm.state, jm.failure_reason) == ("FAILED", "cancelled by client")
    assert [r.details["state"] for r in tb.sim.trace
            if r.component == f"jobmanager:{jm.jmid}"
            and r.event == "state"] == ["ACTIVE"]


def _lose_a_claim_reply(monkeypatch):
    """One glidein, one vanilla job, and the startd host partitioned from
    the agent right after it grants its first claim (healed 100 s
    later): the reply is lost and the claim is never activated."""
    from repro.condor.startd import Startd

    tb, agent = make_tb()
    real = Startd.handle_request_claim

    def request_claim(self, ctx, *args, **kwargs):
        granted = real(self, ctx, *args, **kwargs)
        monkeypatch.setattr(Startd, "handle_request_claim", real)
        tb.net.partition(agent.host.name, self.host.name)
        tb.sim.schedule(100.0, lambda: tb.net.heal(agent.host.name,
                                                   self.host.name))
        return granted

    monkeypatch.setattr(Startd, "handle_request_claim", request_claim)
    agent.glide_in("wisc-gk", count=1, walltime=20_000.0,
                   idle_timeout=10_000.0)
    jid = agent.submit(JobDescription(universe="vanilla", runtime=60.0))
    tb.run(until=5000.0)
    return tb, agent, jid


def test_a_lost_claim_reply_does_not_wedge_the_slot(monkeypatch):
    """Every entry into Claimed starts the claim's clock: the slot comes
    back, and the job runs (it stayed IDLE for ever, the slot Claimed,
    before)."""
    tb, agent, jid = _lose_a_claim_reply(monkeypatch)
    assert agent.status(jid).state == "COMPLETED"
    assert tb.sim.metrics.counter("startd.claim_timeouts").value == 1
    slot, = agent.glideins.live_startds
    assert slot.state == "Unclaimed"


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
    """Run one due instant at a time until `predicate` holds."""
    heap = tb.sim._heap
    for _ in range(limit):
        if predicate():
            return
        assert heap, "simulation drained first"
        tb.run(until=heap[0][0])
    raise AssertionError("predicate never held")


def _walk_grid(tb, agent, resource, **description):
    """Drive jobs along every grid edge that needs no data services (and,
    with ``output_datasets``, the ones into and out of STAGING_OUT)."""
    gm = agent.gridmanager

    def submit(runtime=2000.0):
        jid = agent.submit(JobDescription(runtime=runtime, **description),
                           resource=resource)
        return agent.queue.jobs[jid]

    def report(job, state, reason=""):
        gm.handle_gram_callback(
            None, job.jmid, state, failure_reason=reason,
            exit_code=0 if state == "DONE" else None)

    def until(job, state, jmid=True):
        _step_until(tb, lambda: job.state == state and
                    (bool(job.jmid) or not jmid))

    def hold(job):
        gm.credential_problem(job, "proxy expired")
        assert job.state == "HELD"

    queued = agent.queue.jobs[agent.submit(     # UNSUBMITTED -> FAILED
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
    assert gm.hold_for_credentials("proxy credential expired") >= 1
    gm.release_credential_holds()    # HELD -> UNSUBMITTED
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
    gm.release_credential_holds()
    tb.run(until=tb.sim.now + 60.0)
    assert running.state == "FAILED" and queued.state == "FAILED"


def _walk_data(tb, agent):
    """The edges only data placement takes."""
    cold = agent.submit(                # UNSUBMITTED -> STAGING -> SUBMITTING
        JobDescription(runtime=50.0, input_datasets=("cal",),
                       output_datasets=(("out", 300_000),)),
        resource="far-gk")              # ... ACTIVE -> STAGING_OUT -> DONE
    lost = agent.queue.jobs[agent.submit(  # STAGING -> UNSUBMITTED / FAILED
        JobDescription(runtime=50.0, input_datasets=("no-such-dataset",)),
        resource="far-gk")]
    tb.run_until_quiet(max_time=5_000.0)
    assert agent.queue.jobs[cold].state == "DONE"
    assert lost.state == "FAILED" and lost.attempts == lost.max_attempts
    _walk_grid(tb, agent, "near-gk",
               output_datasets=(("big", 200_000_000),))
    placing = agent.queue.jobs[agent.submit(    # STAGING_OUT -> FAILED
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
        return agent.queue.jobs[agent.submit(
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


def _walk_site(tb, agent):
    """The site-side edges the walks above leave: an LRM preemption, a
    job that finishes between two sweeps, a queued job cancelled, an LRM
    submission that fails, a JobManager restart; a DAG with a retry, a
    failed node and a rescue; a flood won, lost and never started."""
    from repro.core.flood import FloodingSubmitter
    from repro.dagman import Dag, DagMan, DagNode
    from repro.workloads import saturate

    site = tb.sites["wisc"]

    def submit(runtime):
        return agent.queue.jobs[agent.submit(JobDescription(runtime=runtime),
                                             resource="wisc-gk")]

    def jobmanager(job, state):             # the JobManager of `job` ...
        _step_until(tb, lambda: job.jmid and
                    site.gk_host.services.get(f"jm:{job.jmid}") and
                    site.gk_host.services[f"jm:{job.jmid}"].state == state)
        return site.gk_host.services[f"jm:{job.jmid}"]     # ... in `state`

    lrm = site.lrm
    preempted = submit(300.0)               # ACTIVE -> PENDING
    lrm.preempt(jobmanager(preempted, "ACTIVE").local_id)
    lrm.free_slots -= lrm.slots             # the owners are back a while
    tb.run(until=tb.sim.now + 30.0)
    lrm.free_slots += lrm.slots
    lrm._kick()
    restarted = submit(300.0)               # a crash, then the §4.2 restart
    jobmanager(restarted, "ACTIVE").crash()
    short = submit(0.5)                     # PENDING -> DONE
    tb.run_until_quiet(max_time=tb.sim.now + 5_000.0)
    assert preempted.state == restarted.state == short.state == "DONE"
    assert tb.sim.metrics.counter("gatekeeper.jm_restarts").value >= 1
    unlucky = submit(50.0)                  # STAGE_IN -> FAILED
    jobmanager(unlucky, "STAGE_IN")
    tb.net.partition(site.gk_host.name, site.lrm.host.name)
    tb.run(until=tb.sim.now + 200.0)
    tb.net.heal(site.gk_host.name, site.lrm.host.name)
    saturate(lrm, jobs=4, runtime=400.0)
    queued = submit(50.0)                   # PENDING -> FAILED (cancel)
    jobmanager(queued, "PENDING")
    agent.cancel(queued.job_id)

    attempts = []

    def fine(ctx):
        yield ctx.sim.timeout(1.0)

    def flaky(ctx):
        attempts.append(ctx.sim.now)
        yield ctx.sim.timeout(1.0)
        if len(attempts) == 1:
            raise RuntimeError("first attempt fails")

    def broken(ctx):
        yield ctx.sim.timeout(1.0)
        raise RuntimeError("always fails")

    def dag(last):
        dag = Dag()
        dag.add_node(DagNode("a", action=fine))
        dag.add_node(DagNode("b", action=flaky, retries=1))
        dag.add_node(DagNode("c", action=last))
        dag.add_dependency(["a", "b"], "c")
        return dag

    failed = DagMan(agent, dag(broken), name="walk")    # retry, FAILED
    flooder = FloodingSubmitter(agent)
    won = flooder.submit(JobDescription(runtime=60.0), sites=["wisc-gk"])
    lost = flooder.submit(JobDescription(runtime=60.0, exit_code=1),
                          sites=["wisc-gk"])
    never = flooder.submit(JobDescription(runtime=60.0), sites=["wisc-gk"])
    agent.cancel(flooder.status(never).replicas[0])
    tb.run_until_quiet(max_time=tb.sim.now + 20_000.0)
    tb.run(until=tb.sim.now + 100.0)
    assert failed.finished.value is False and len(attempts) == 2
    rescued = DagMan(agent, dag(fine), name="walk")     # WAITING -> DONE
    tb.run(until=tb.sim.now + 100.0)
    assert rescued.rescued_nodes == 2 and rescued.finished.value is True
    assert [flooder.status(f).state for f in (won, lost, never)] == \
        ["DONE", "FAILED", "FAILED"]
    assert unlucky.attempts >= 2 and queued.state == "FAILED"


def _walk_claim_reuse():
    """A claim held for reuse, reactivated, then handed back."""
    from repro.condor import Schedd, build_pool

    sim = Simulator(seed=59)
    Network(sim, latency=0.02, jitter=0.0)
    pool = build_pool(sim, "pool", workers=1, cycle_interval=30.0)
    schedd = Schedd(Host(sim, "submit"), name="dave",
                    collector=pool.collector_contact, claim_reuse=True)
    for _ in range(2):
        schedd.submit_simple("dave", runtime=40.0)
    sim.run(until=1000.0)
    assert len(sim.trace.select("schedd:dave", "claim_reuse")) == 1


def test_every_declared_edge_is_taken_by_real_code(monkeypatch):
    """An edge in a table is one the code can take: these walks use only
    what moves a job in a run (user calls, remote reports, credential
    holds, shadow callbacks, LRM preemption, daemon crashes, a lost claim
    reply) and between them take every edge of every relation, submit
    side and site side -- add an edge without a way to reach it and this
    fails."""
    from repro.condor import startd
    from repro.condor.queue import JobQueue
    from repro.core import flood
    from repro.dagman import dagman
    from repro.gram import jobmanager

    taken = {"GRID_EDGES": set(), "POOL_EDGES": set()}
    real = JobQueue.transition

    def transition(self, job, state, event="", **details):
        edge = (job.state, JobState(state))
        real(self, job, state, event, **details)
        taken["GRID_EDGES" if job.universe == "grid"
              else "POOL_EDGES"].add(edge)

    monkeypatch.setattr(JobQueue, "transition", transition)
    names = {id(getattr(states, name)): name for name in TABLES}
    for module in (jobmanager, startd, dagman, flood):
        def check(edges, record, old, new, real=module.check_edge):
            real(edges, record, old, new)
            taken.setdefault(names[id(edges)], set()).add((old, new))
        monkeypatch.setattr(module, "check_edge", check)
    tb, agent = make_tb()
    _walk_grid(tb, agent, "wisc-gk")
    _walk_pool(tb, agent)
    _walk_site(tb, agent)
    _walk_data(*_data_tb())
    _walk_claim_reuse()
    _lose_a_claim_reply(monkeypatch)        # Claimed -> Unclaimed: timeout
    for name in TABLES:
        if name in ("GRID_RECOVER", "POOL_RECOVER"):
            continue        # test_from_record_* loads every recover edge
        declared = {(old, new) for old, news in
                    getattr(states, name).items() for new in news}
        assert taken[name] <= declared
        assert not sorted(f"{old} -> {new}"
                          for old, new in declared - taken[name]), name
