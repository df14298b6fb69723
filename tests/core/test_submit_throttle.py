"""The GridManager's one submit throttle, as properties.

``room(contact) = in flight there < min(max_submitted_per_resource, the
limit the site stated)`` decides every submission, brokers place only
where it holds, and the submit loop parks on a bare wake event whenever
every UNSUBMITTED job waits for room -- so a wake-up that is missed is a
job that never runs.  Hypothesis draws small grids (per-site caps, a
client cap, pinned and broker-placed jobs, one optional fault) and the
properties are sampled every simulated half second:

* neither cap is ever exceeded;
* the site refuses for ``USER_JOBMANAGERS`` only to teach a limit the
  client could not know (after a submit-machine reboot, or when the
  site counts JobManagers of attempts the client has given up on);
* work conservation: while the loop is parked on the bare wake event,
  no submittable job has room anywhere it may go;
* every job completes exactly once.
"""

from hypothesis import example, given, settings, strategies as st

from repro import GridTestbed, JobDescription
from repro.chaos.invariants import check_exactly_once
from repro.core import job as J
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig

INFLIGHT = (J.STAGING, J.SUBMITTING, J.PENDING, J.ACTIVE)
COMMITTED = (J.PENDING, J.ACTIVE)


def _count(agent, contact, states):
    return sum(1 for job in agent.gridmanager.jobs_for_user()
               if job.resource == contact and job.state in states)


def _limit(*caps):
    caps = [cap for cap in caps if cap is not None]
    return min(caps) if caps else None


def _parked_on_bare_wake(gm):
    """The submit loop waits on its wake event alone -- no retry tick --
    and nobody has kicked it yet."""
    wake = gm._wake
    return gm._procs[0]._target is wake and not wake.triggered \
        and not wake._scheduled


class Watcher:
    """Samples the properties; ``violations`` collects what it saw."""

    def __init__(self, tb, client_cap, slack=0):
        self.tb, self.client_cap, self.slack = tb, client_cap, slack
        self.violations = []
        self.peak = {}      # (user, contact) -> most PENDING/ACTIVE seen
        self.process = tb.sim.spawn(self._run())

    def _run(self):
        while True:
            for name, agent in self.tb.agents.items():
                if agent.host.up:
                    self._look(name, agent)
            yield self.tb.sim.timeout(0.5)

    def _look(self, name, agent):
        gm = agent.gridmanager
        stated = {contact: site.stated for contact, site
                  in agent.gridmanager.sites.items()}
        contacts = [site.contact for site in self.tb.sites.values()]
        room = {}
        for site in self.tb.sites.values():
            contact, gatekeeper = site.contact, site.gatekeeper
            committed = _count(agent, contact, COMMITTED)
            key = (name, contact)
            self.peak[key] = max(self.peak.get(key, 0), committed)
            inflight = _count(agent, contact, INFLIGHT)
            if self.client_cap is not None and \
                    inflight > self.client_cap + self.slack:
                self.violations.append(
                    ("client cap", self.tb.sim.now, key, inflight))
            site_cap = gatekeeper.max_user_jobmanagers \
                if gatekeeper is not None else None
            live = gatekeeper._live[agent.host.name] \
                if gatekeeper is not None else 0
            if site_cap is not None and live > site_cap:
                self.violations.append(
                    ("site cap", self.tb.sim.now, key, live))
            limit = _limit(self.client_cap, stated.get(contact))
            room[contact] = limit is None or inflight < limit
        if not gm.running or not _parked_on_bare_wake(gm):
            return
        for job in agent.gridmanager.jobs_for_user():
            if job.state != J.UNSUBMITTED:
                continue
            may_go = [job.resource] if job.resource else contacts
            if any(room[contact] for contact in may_go):
                self.violations.append(
                    ("parked with room", self.tb.sim.now, name,
                     job.job_id, may_go, dict(room)))


faults = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["jm_kill", "gk_crash", "submit_reboot",
                               "hold", "raise_cap"]),
              st.floats(5.0, 250.0, allow_nan=False),
              st.floats(20.0, 120.0, allow_nan=False)))


@given(site_caps=st.lists(st.sampled_from([None, 1, 2, 3]),
                          min_size=2, max_size=3),
       client_cap=st.sampled_from([None, 1, 2, 4]),
       users=st.integers(1, 2),
       broker=st.sampled_from(["userlist", "queue-aware"]),
       jobs=st.lists(st.tuples(st.sampled_from([None, 0, 1]),
                               st.sampled_from([40.0, 90.0, 150.0])),
                     min_size=3, max_size=8),
       fault=faults, seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
# A held job's JobManager still counts at the capped site: its refusal
# is not ours to explain, so it closes the site and the rest of the pass
# sends nothing there (it drew 5 refusals against a bound of 4 when the
# refusal was charged to the one job and the pass went on sending).
@example(site_caps=[1, None], client_cap=1, users=1, broker="userlist",
         jobs=[(None, 40.0)] * 7, fault=("hold", 6.0, 20.0), seed=0)
def test_submissions_go_into_room_and_nothing_waits_beside_it(
        site_caps, client_cap, users, broker, jobs, fault, seed):
    tb = GridTestbed(TestbedConfig(seed=seed, with_mds=False))
    sites = [tb.add_site(SiteSpec(f"s{i}", scheduler="pbs", cpus=3,
                                  register_mds=False,
                                  max_user_jobmanagers=cap))
             for i, cap in enumerate(site_caps)]
    agents = [tb.add_agent(AgentSpec(
        f"u{u}", broker_kind=broker, personal_pool=False,
        max_submitted_per_resource=client_cap)) for u in range(users)]
    ids = [(agent, agent.submit(
        JobDescription(runtime=runtime, stream_stdout=False),
        resource="" if pin is None else sites[pin].contact))
        for agent in agents for pin, runtime in jobs]

    kind, when, duration = fault or ("", 0.0, 0.0)
    victim, site = agents[0], sites[0]

    def act(what):
        def fire():
            yield tb.sim.timeout(what[0])
            what[1]()
        tb.sim.spawn(fire())

    def kill_a_jobmanager():
        for name, svc in list(site.gk_host.services.items()):
            if name.startswith("jm:"):
                svc.crash()
                break

    def hold_one_in_flight():
        for job in victim.gridmanager.jobs_for_user():
            if job.state in COMMITTED:
                victim.gridmanager.credential_problem(job, "proxy expired")
                break

    def raise_cap():
        if site.gatekeeper.max_user_jobmanagers is not None:
            site.gatekeeper.max_user_jobmanagers += 2

    if kind == "jm_kill":
        act((when, kill_a_jobmanager))
    elif kind == "gk_crash":
        tb.failures.crash_host_at(when, site.gk_host, down_for=duration)
    elif kind == "submit_reboot":
        tb.failures.crash_host_at(when, victim.host, down_for=duration)
    elif kind == "hold":
        act((when, hold_one_in_flight))
        act((when + duration,
             lambda: victim.gridmanager.release_credential_holds()))
    elif kind == "raise_cap":
        act((when, raise_cap))

    # a job held mid-flight keeps its JobManager: released, it comes
    # back on top of whatever took its slot meanwhile
    watcher = Watcher(tb, client_cap, slack=1 if kind == "hold" else 0)
    cap = 4 * 10**4
    while not all(agent.status(j).is_terminal for agent, j in ids) \
            and tb.sim.now < cap:
        tb.sim.run(until=tb.sim.now + 500.0)
    watcher.process.kill(cause="test over")
    context = (site_caps, client_cap, users, broker, jobs, fault, seed)

    assert not watcher.violations, (watcher.violations[:3], context)
    assert all(agent.status(j).is_complete for agent, j in ids), (
        [(j, agent.status(j).state, agent.status(j).failure_reason)
         for agent, j in ids], context)
    assert not check_exactly_once(tb), context
    completed = sum(1 for s in sites for j in s.lrm.jobs.values()
                    if j.state == "COMPLETED")
    assert completed == len(ids), context
    # Refusals only teach: the limit rides every accepted answer, so a
    # client is refused at its own limit only when it could not know the
    # limit (its machine rebooted) or when the site still counts the
    # JobManager of an attempt the client has given up on.
    capped = sum(1 for cap in site_caps if cap is not None)
    lessons = users * capped * (1 + (kind == "submit_reboot")
                                + (kind == "raise_cap"))
    resubmits = tb.sim.metrics.counter("gridmanager.resubmits").value
    held = 3 if kind == "hold" else 0
    refused = sum(len(tb.sim.trace.select(f"gatekeeper:{s.name}",
                                          "submit_rejected_user_busy"))
                  for s in sites)
    assert refused <= lessons + 3 * resubmits + held, (refused, context)
    if not fault:
        assert refused == 0, (refused, context)


def _one_site(site_cap, client_cap, n_jobs, runtime=100.0):
    tb = GridTestbed(TestbedConfig(seed=7, with_mds=False))
    site = tb.add_site(SiteSpec("s0", scheduler="pbs", cpus=4,
                                register_mds=False,
                                max_user_jobmanagers=site_cap))
    agent = tb.add_agent(AgentSpec(
        "u0", personal_pool=False, max_submitted_per_resource=client_cap))
    ids = [agent.submit(JobDescription(runtime=runtime + 10.0 * i,
                                       stream_stdout=False),
                        resource=site.contact) for i in range(n_jobs)]
    return tb, site, agent, ids


def test_a_held_jobs_slot_is_used_at_once():
    """HELD drops the in-flight count like DONE does; only terminal
    transitions used to kick the submit loop, and the 20 s tick that hid
    the difference is gone for a job that waits for room."""
    tb, site, agent, ids = _one_site(site_cap=None, client_cap=1, n_jobs=2)
    tb.run(until=30.0)
    # (the pass serves the queue in job_id *string* order)
    first, second = sorted((agent.queue.jobs[j] for j in ids),
                           key=lambda job: job.state != J.ACTIVE)
    assert first.state == J.ACTIVE and second.state == J.UNSUBMITTED
    gm = agent.gridmanager
    assert _parked_on_bare_wake(gm)         # no tick is coming
    agent.gridmanager.credential_problem(first, "proxy expired")
    tb.run(until=32.0)                      # a submit round trip, no more
    assert first.state == J.HELD and second.state in COMMITTED
    agent.gridmanager.release_credential_holds()
    tb.run_until_quiet(max_time=10**4)
    assert all(agent.status(j).is_complete for j in ids)


def test_a_slot_freed_while_a_pass_runs_is_not_lost():
    """A kick that lands while the loop is busy submitting finds no one
    waiting on the wake event; the 20 s tick used to make up for it.  Now
    the pass is run again as soon as it ends."""
    tb = GridTestbed(TestbedConfig(seed=7, with_mds=False))
    for name in ("s0", "s1"):
        tb.add_site(SiteSpec(name, scheduler="pbs", cpus=4,
                             register_mds=False))
    agent = tb.add_agent(AgentSpec("u0", personal_pool=False,
                                   max_submitted_per_resource=1))
    # pass order = id order: a (s0), c (s1) run; d (s1), e (s0) wait
    a, c, d, e = (agent.queue.jobs[agent.submit(
        JobDescription(runtime=5000.0, stream_stdout=False),
        resource=f"{site}-gk")] for site in ("s0", "s1", "s1", "s0"))
    assert [a.job_id, c.job_id, d.job_id, e.job_id] == \
        sorted(agent.queue.jobs)
    tb.run(until=30.0)
    gm = agent.gridmanager
    assert (d.state, e.state) == (J.UNSUBMITTED, J.UNSUBMITTED)
    assert _parked_on_bare_wake(gm)

    def finish_c_while_e_is_being_submitted():
        gm._apply_remote_state(a, "DONE", "", 0)    # frees s0: e may go
        while e.state != J.SUBMITTING:
            yield tb.sim.timeout(0.01)
        assert d.state == J.UNSUBMITTED             # visited, s1 was full
        gm._apply_remote_state(c, "DONE", "", 0)    # frees s1 mid-pass

    tb.sim.spawn(finish_c_while_e_is_being_submitted())
    tb.run(until=35.0)
    assert e.state in COMMITTED and d.state in COMMITTED


def test_a_raised_cap_is_used_after_the_next_accepted_submit():
    tb, site, agent, ids = _one_site(site_cap=1, client_cap=None, n_jobs=6)
    watcher = Watcher(tb, None)
    tb.run(until=50.0)
    assert watcher.peak[("u0", site.contact)] == 1
    site.gatekeeper.max_user_jobmanagers = 3    # nobody tells the client
    tb.run(until=100.0)
    assert watcher.peak[("u0", site.contact)] == 1
    tb.run_until_quiet(max_time=10**4)
    watcher.process.kill(cause="test over")
    # the first job's slot frees, the next accepted answer states 3, and
    # the same pass fills the site up to it
    assert watcher.peak[("u0", site.contact)] == 3
    assert not watcher.violations
    assert not tb.sim.trace.select(f"gatekeeper:{site.name}",
                                   "submit_rejected_user_busy")
    assert all(agent.status(j).is_complete for j in ids)


def test_submit_throttled_counts_resources_left_waiting_per_pass():
    """Not visited jobs: eight jobs behind a cap of one are one
    (pass, resource) pair each time the loop looks, however many wait."""
    tb, site, agent, ids = _one_site(site_cap=None, client_cap=1, n_jobs=8)
    tb.run(until=30.0)
    throttled = tb.sim.metrics.get("gridmanager.submit_throttled")
    assert throttled.labelled(site.contact) == 1
    tb.run_until_quiet(max_time=10**4)
    assert all(agent.status(j).is_complete for j in ids)
    # one more pass per freed slot, give or take a re-look mid-pass
    assert throttled.labelled(site.contact) <= 2 * len(ids)
