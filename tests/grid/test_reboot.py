"""One reboot path: a machine's daemons are what its boot actions build.

After ``crash(); restart()`` nothing constructed before the crash may be
in service -- not on the host, not behind the testbed's or the agent's
attributes -- and doing it twice must not grow anything.
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.core.tools import condor_history
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def make_tb(**kw):
    config = TestbedConfig(
        seed=4, sites=(SiteSpec("wisc", scheduler="pbs", cpus=4,
                                storage=1_000_000.0),),
        agents=(AgentSpec("alice"),), **kw)
    return GridTestbed.from_config(config)


def reboot(host):
    host.crash()
    host.restart()


def process_owners(host):
    """The objects whose methods `host`'s live processes are running."""
    owners = (proc.gen.gi_frame.f_locals.get("self")
              for proc in host.processes if proc.alive)
    return [obj for obj in owners if obj is not None]


@pytest.mark.parametrize("use_gsi", [False, True])
def test_nothing_survives_a_reboot_by_aliasing(use_gsi):
    tb = make_tb(use_gsi=use_gsi)
    site, agent = tb.sites["wisc"], tb.agents["alice"]
    agent.submit(JobDescription(runtime=500.0), resource="wisc-gk")
    agent.submit(JobDescription(universe="vanilla", runtime=50.0))
    tb.run(until=100.0)

    def named():
        return {"site.gatekeeper": site.gatekeeper, "site.se": site.se,
                "agent.scheduler": agent.scheduler, "agent.gass": agent.gass,
                "agent.credmon": agent.credmon, "agent.schedd": agent.schedd}

    hosts = (site.gk_host, site.se_host, agent.host)
    before = named()
    old = [obj for obj in before.values() if obj is not None]
    for host in hosts:
        old += list(host.services.values()) + process_owners(host)
    old_ids = {id(obj) for obj in old}      # `old` keeps the ids taken
    for host in hosts:
        reboot(host)
    for host in hosts:
        assert host.services
        assert not old_ids & {id(svc) for svc in host.services.values()}
        assert not old_ids & {id(obj) for obj in process_owners(host)}
    for name, obj in named().items():
        assert (obj is None) == (before[name] is None), name
        assert id(obj) not in old_ids, name
    # ... and what the disks held is all there
    assert len(agent.scheduler.jobs) == 1 and len(agent.schedd.jobs) == 1
    tb.run(until=2000.0)
    assert [job.state for job in agent.scheduler.jobs.values()] == ["DONE"]


def test_rebooting_twice_grows_nothing_and_reissues_no_jmid():
    tb = make_tb()
    site, agent = tb.sites["wisc"], tb.agents["alice"]
    first = agent.submit(JobDescription(runtime=3000.0), resource="wisc-gk")
    tb.run(until=100.0)
    def booted(host):
        # JobManagers and their sweep are revived by clients, not by boot
        return {name for name in host.services
                if not name.startswith(("jm:", "lrm-sweep:"))}

    for host in (site.gk_host, agent.host):
        actions, services = len(host.boot_actions), booted(host)
        assert actions and services
        for _ in range(2):
            reboot(host)
            assert len(host.boot_actions) == actions
            assert booted(host) == services
    second = agent.submit(JobDescription(runtime=10.0), resource="wisc-gk")
    tb.run_until_quiet(max_time=20_000.0)
    jobs = agent.scheduler.jobs
    assert jobs[first].state == jobs[second].state == "DONE"
    assert jobs[first].jmid == "wisc-jm1" and jobs[second].jmid == "wisc-jm2"
    assert len(site.lrm.jobs) == 2


def test_glidein_ledger_is_read_back_from_the_grid_queue():
    """Glideins are jobs in the agent's queue: a manager built after a
    reboot still counts them (the factory's budget, the orphan check)
    and does not reuse a startd name that may be alive at the site."""
    tb = make_tb()
    agent = tb.agents["alice"]
    ids = agent.glide_in("wisc-gk", count=2)
    reboot(agent.host)
    assert agent.glideins.submitted == ids
    (third,) = agent.glide_in("wisc-gk", count=1)
    assert agent.scheduler.jobs[third].request.label == "glidein-3"


@pytest.mark.parametrize("use_gsi", [False, True])
def test_class3_submit_reboot_keeps_a_vanilla_jobs_view(use_gsi):
    """The paper's third failure class, second universe: a vanilla job
    is RUNNING on a glidein when the submit machine goes down for 100 s.
    `host.restart()` alone brings back its status, times, resource and
    log, it completes once, and a callback registered afterwards hears
    about it."""
    tb = make_tb(use_gsi=use_gsi)
    agent = tb.agents["alice"]
    agent.glide_in("wisc-gk", count=1, walltime=20_000.0,
                   idle_timeout=2_000.0)
    jid = agent.submit(JobDescription(universe="vanilla", runtime=400.0))
    tb.run(until=100.0)
    before = agent.status(jid)
    assert before.state == "RUNNING" and before.start_time is not None
    agent.host.crash()
    tb.run(until=200.0)
    agent.host.restart()
    heard = []
    agent.on_termination(lambda *event: heard.append(event))
    tb.run_until_quiet(max_time=20_000.0)
    status = agent.status(jid)
    assert status.state == "COMPLETED" and status.exit_code == 0
    assert status.start_time == before.start_time
    assert status.end_time > 200.0 and status.resource == before.resource
    events = [e.event for e in agent.logs(jid)]
    assert events in (["queued", "execute", "terminate"],
                      ["queued", "execute", "evicted", "execute",
                       "terminate"]), events
    times = [e.time for e in agent.logs(jid)]
    assert times == sorted(times) and times[0] < 100.0 < 200.0 < times[-1]
    assert [event for event in heard if event[0] == jid] == [
        (jid, "terminate", {"exit_code": 0, "reason": ""})]
    assert tb.sim.metrics.counter("schedd.jobs").labelled("completed") == 1
    # ... and the finished record reads the same after one more reboot
    reboot(agent.host)
    assert agent.status(jid) == status
    assert "-" not in condor_history(agent).splitlines()[-1].split()[3:5]
