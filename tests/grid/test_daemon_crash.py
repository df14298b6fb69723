"""One daemon dies while its machine stays up (§4.2, failure class 1).

Every daemon that runs a process is crashed with ``crash_service_at`` on
a one-site grid where all of them are busy: an agent with a personal
pool, a Grid Monitor and a factory over a site with gatekeeper
admission.  A crashed daemon is a dead one: none of its processes may be
alive afterwards, and its trace component stays silent until whatever
restarts it (the GridManager revives a JobManager and relaunches a
monitor) brings up a successor.
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.factory import FactoryPolicy
from repro.gram.gatekeeper import AdmissionPolicy
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig

CRASH_AT = 300.0
WATCH_FOR = 300.0

# id: (host, service-name prefix, trace component, the prefixes of the
# daemon's process names, the first record a successor logs or None)
DAEMONS = {
    "negotiator": ("submit-alice", "negotiator", "negotiator",
                   ("negotiator",), None),
    "schedd": ("submit-alice", "schedd", "schedd:schedd@alice",
               ("schedd-advertise", "rm:", "vacate:", "claim-reuse:"), None),
    "gatekeeper": ("s0-gk", "gatekeeper", "gatekeeper:s0",
                   ("gk-admission:",), None),
    "lrm-sweep": ("s0-gk", "lrm-sweep:", "lrm-sweep:s0-lrm",
                  ("lrm-sweep:",), None),
    "lrm": ("s0-lrm", "lrm", "lrm:s0-lrm",
            ("lrm:", "job:", "body:", "owner:"), None),
    "gridmanager": ("submit-alice", "gramcb:", "gridmanager",
                    ("gridmanager:", "gm-watch:", "gm-monitor:", "cancel:",
                     "stageout:"), None),
    "gridmonitor": ("s0-gk", "monitor:", "monitor:submit-alice",
                    ("gridmonitor:",), "start"),
    "factory": ("submit-alice", "factory:", "factory:alice",
                ("factory:",), None),
    "startd": ("s0-lrm", "startd:", "startd:glidein-1@s0-lrm",
               ("startd:glidein-1@", "starter:glidein-1@",
                "retire:glidein-1@"), None),
    "shadow": ("submit-alice", "shadow:", "shadow:3.0", ("shadow:3.0",),
               None),
    "jobmanager": ("s0-gk", "jm:", "jobmanager:s0-jm1",
                   ("jobmanager:s0-jm1",), "recovered"),
}


def busy_grid() -> GridTestbed:
    tb = GridTestbed.from_config(TestbedConfig(
        seed=3, with_mds=False,
        sites=(SiteSpec("s0", cpus=4, register_mds=False,
                        admission=AdmissionPolicy(max_queue=50),
                        factory=FactoryPolicy(max_glideins=2, interval=15.0,
                                              lease=50_000.0)),),
        agents=(AgentSpec("alice", grid_monitor=True),)))
    agent = tb.agents["alice"]
    for _ in range(2):
        agent.submit(JobDescription(executable="g.exe", runtime=2000.0))
    for _ in range(2):
        agent.submit(JobDescription(runtime=2000.0, universe="vanilla"))
    return tb


@pytest.mark.parametrize("daemon", sorted(DAEMONS))
def test_a_crashed_daemon_leaves_no_process_and_logs_nothing(daemon):
    host_name, prefix, component, names, reborn = DAEMONS[daemon]
    tb = busy_grid()
    host = tb.sim.hosts[host_name]
    tb.failures.crash_service_at(CRASH_AT, host, prefix)
    tb.run(until=CRASH_AT - 1.0)
    theirs = [p for p in host.processes if p.name.startswith(names)]
    assert theirs, f"{daemon} runs nothing to kill"
    tb.run(until=CRASH_AT)
    assert [ev.kind for ev in tb.failures.injected] == ["crash_service"]
    crashed = len(tb.sim.trace.records)
    tb.run(until=CRASH_AT + WATCH_FOR)

    assert [p.name for p in theirs if p.alive] == []
    later = [r.event for r in tb.sim.trace.records[crashed:]
             if r.component == component]
    if reborn in later:
        later = later[:later.index(reborn)]
    assert later == []
