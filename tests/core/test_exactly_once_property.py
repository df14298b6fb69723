"""Property-based exactly-once: random failure schedules, one invariant.

The strongest claim in the paper is that the combination of two-phase
commit, client-side persistence, probing, and JobManager state files
yields exactly-once execution under *any* interleaving of the four
failure classes.  Instead of hand-picking scenarios, hypothesis draws a
random schedule of gatekeeper reboots, JobManager kills, partitions,
submit-machine reboots and WAN loss -- and the invariant must hold every
time:

    every logical job reaches a terminal state, DONE jobs have exactly
    one completed LRM execution on record, and a job may end FAILED
    only by honestly exhausting its retry budget on a transient
    infrastructure error -- never by being lost, wedged, or silently
    dropped.

(The older form of the first clause -- "every job completes" -- was
stronger than the paper's §4.1 claim and false: under sustained loss a
job can legitimately burn all ``max_attempts`` resubmissions on e.g.
repeated stage-in timeouts.  Exactly-once is about *no duplicate or
phantom executions*, not unconditional success.)

The two-agent suite extends the property to a shared site: faults aimed
at one tenant's path must never wedge the other tenant.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import GridTestbed, JobDescription
from repro.chaos.invariants import check_exactly_once
from repro.states import JobState
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig

N_JOBS = 3
RUNTIME = 150.0

failure_events = st.lists(
    st.tuples(
        st.sampled_from(["gk_reboot", "jm_kill", "partition",
                         "submit_reboot"]),
        st.floats(10.0, 400.0, allow_nan=False),   # when
        st.floats(30.0, 200.0, allow_nan=False),   # how long (if any)
    ),
    min_size=0, max_size=3)


def _assert_honest_terminal(agent, job_ids, context):
    """Terminal-state audit: DONE, or FAILED with the budget exhausted.

    A FAILED verdict is only acceptable when the agent really spent all
    of its resubmission attempts and can say why the last one died; any
    other non-DONE outcome means a job was lost or wedged.
    """
    for jid in job_ids:
        job = agent.status(jid)
        assert job.is_terminal, (jid, job.state, context)
        if job.state == JobState.DONE:
            continue
        assert job.state == JobState.FAILED, (jid, job.state, context)
        assert job.attempts >= job.max_attempts, (
            jid, f"gave up after {job.attempts}/{job.max_attempts} "
            f"attempts: {job.failure_reason!r}", context)
        assert job.failure_reason, (jid, "FAILED without a reason",
                                    context)


def _done_count(agent, job_ids):
    return sum(1 for j in job_ids
               if agent.status(j).state == JobState.DONE)


@given(schedule=failure_events,
       loss=st.sampled_from([0.0, 0.05, 0.15]),
       seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_exactly_once_under_random_failures(schedule, loss, seed):
    tb = GridTestbed(TestbedConfig(seed=seed, loss_rate=loss))
    site = tb.add_site(SiteSpec("site", scheduler="pbs", cpus=N_JOBS * 2))
    agent = tb.add_agent(AgentSpec("user"))
    ids = [agent.submit(JobDescription(runtime=RUNTIME + 10 * i),
                        resource="site-gk") for i in range(N_JOBS)]

    for kind, when, duration in schedule:
        if kind == "gk_reboot":
            tb.failures.crash_host_at(when, site.gk_host,
                                      down_for=duration)
        elif kind == "submit_reboot":
            tb.failures.crash_host_at(when, agent.host,
                                      down_for=duration)
        elif kind == "partition":
            tb.failures.partition_at(when, agent.host.name,
                                     site.gk_host.name,
                                     heal_after=duration)
        elif kind == "jm_kill":
            def killer(t=when):
                yield tb.sim.timeout(t)
                for name, svc in list(site.gk_host.services.items()):
                    if name.startswith("jm:"):
                        svc.crash()
                        break

            tb.sim.spawn(killer())

    cap = 4 * 10**4
    while not all(agent.status(j).is_terminal for j in ids) \
            and tb.sim.now < cap:
        tb.sim.run(until=tb.sim.now + 1000.0)

    context = (schedule, loss, seed)
    # Invariant 1: every job lands on an honest terminal verdict.
    _assert_honest_terminal(agent, ids, context)
    # Invariant 2: one completed LRM execution per DONE job -- a FAILED
    # verdict with a completed execution on record would be exactly-once
    # violated just as surely as a double run.
    completed = [j for j in site.lrm.jobs.values()
                 if j.state == "COMPLETED"]
    assert len(completed) == _done_count(agent, ids), (
        context, [(j.local_id, j.state)
                  for j in site.lrm.jobs.values()])
    # Invariant 3: the full trace join agrees (no duplicate executions,
    # no DONE without an execution, no cross-owned LRM jobs).
    violations = check_exactly_once(tb)
    assert not violations, ([str(v) for v in violations], context)


# -- two tenants, one site ----------------------------------------------------

targeted_faults = st.lists(
    st.tuples(
        st.sampled_from(["partition_a", "jm_kill_a"]),
        st.floats(10.0, 300.0, allow_nan=False),   # when
        st.floats(30.0, 150.0, allow_nan=False),   # heal after
    ),
    min_size=1, max_size=3)


@given(faults=targeted_faults, seed=st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_one_tenants_faults_never_wedge_the_other(faults, seed):
    """Partitions and JM kills aimed at user A leave user B untouched.

    Both agents share one site.  Every fault targets only A's network
    path or A's JobManagers (matched by owner), so B must finish all of
    its jobs DONE; A must still land on honest terminal verdicts; and
    the exactly-once join must hold for both tenants together.
    """
    tb = GridTestbed(TestbedConfig(seed=seed))
    site = tb.add_site(SiteSpec("site", scheduler="pbs", cpus=4))
    alice = tb.add_agent(AgentSpec("alice"))
    bob = tb.add_agent(AgentSpec("bob"))
    a_ids = [alice.submit(JobDescription(runtime=RUNTIME + 10 * i),
                          resource="site-gk") for i in range(N_JOBS)]
    b_ids = [bob.submit(JobDescription(runtime=RUNTIME + 10 * i),
                        resource="site-gk") for i in range(N_JOBS)]

    for kind, when, duration in faults:
        if kind == "partition_a":
            tb.failures.partition_at(when, alice.host.name,
                                     site.gk_host.name,
                                     heal_after=duration)
        elif kind == "jm_kill_a":
            def killer(t=when):
                yield tb.sim.timeout(t)
                for name, svc in list(site.gk_host.services.items()):
                    if name.startswith("jm:") and \
                            getattr(svc, "owner", "") == "submit-alice":
                        svc.crash()
                        break

            tb.sim.spawn(killer())

    cap = 4 * 10**4
    agents = [(alice, a_ids), (bob, b_ids)]
    while not all(agent.status(j).is_terminal
                  for agent, ids in agents for j in ids) \
            and tb.sim.now < cap:
        tb.sim.run(until=tb.sim.now + 1000.0)

    context = (faults, seed)
    # B never saw a fault: every single job must be DONE.
    assert _done_count(bob, b_ids) == N_JOBS, (
        [(j, bob.status(j).state, bob.status(j).failure_reason)
         for j in b_ids], context)
    # A took the faults: honest terminal verdicts, nothing wedged.
    _assert_honest_terminal(alice, a_ids, context)
    # Exactly-once holds across both tenants, with per-user blame.
    violations = check_exactly_once(tb)
    assert not violations, ([str(v) for v in violations], context)
    completed = [j for j in site.lrm.jobs.values()
                 if j.state == "COMPLETED"]
    assert len(completed) == \
        _done_count(alice, a_ids) + _done_count(bob, b_ids), context
