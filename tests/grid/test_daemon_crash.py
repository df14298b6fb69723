"""One daemon dies while its machine stays up (§4.2, failure class 1).

Every daemon that runs a process or a timer is crashed with
``crash_service_at`` on a one-site grid where all of them are busy: an
agent with a personal pool, a Grid Monitor and a factory over a site
with gatekeeper admission.  A crashed daemon is a dead one: none of its
processes may be alive afterwards, and its trace component stays silent
until whatever restarts it (the GridManager revives a JobManager and
relaunches a monitor) brings up a successor.  A daemon whose periodic
work is a timer (the gatekeeper's depth sample, the LRM sweep, the
Shadow's lease, the Startd's advertise) has nothing to kill: it was
live and ticking before the crash, and after it it sends no RPC.
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.factory import FactoryPolicy
from repro.gram.gatekeeper import AdmissionPolicy
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig
from repro.sim.network import Network

CRASH_AT = 300.0
WATCH_FOR = 300.0


def _startd_rpc(request):
    return request.caller == "s0-lrm" and request.service == "collector" \
        and (request.args.get("name")
             or request.args["ad"].get("Name")) == "glidein-1@s0-lrm"


# id: (host, service-name prefix, trace component, the prefixes of the
# daemon's process names, the first record a successor logs or None,
# and for a timer daemon only: which requests its ticks send, or None
# when they send none)
DAEMONS = {
    "negotiator": ("submit-alice", "negotiator", "negotiator",
                   ("negotiator",), None),
    "schedd": ("submit-alice", "schedd", "schedd:schedd@alice",
               ("schedd-advertise", "rm:", "vacate:", "claim-reuse:"), None),
    "gatekeeper": ("s0-gk", "gatekeeper", "gatekeeper:s0", (), None,
                   lambda r: (r.caller, r.method) == ("s0-gk",
                                                      "queue_info")),
    "lrm-sweep": ("s0-gk", "lrm-sweep:", "lrm-sweep:s0-lrm", (), None,
                  lambda r: (r.caller, r.method) == ("s0-gk", "poll")),
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
               ("starter:glidein-1@",), None, _startd_rpc),
    "shadow": ("submit-alice", "shadow:", "shadow:3.0", (), None, None),
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
def test_a_crashed_daemon_leaves_no_process_and_logs_nothing(
        daemon, monkeypatch):
    host_name, prefix, component, names, reborn, *timer = DAEMONS[daemon]
    sends = timer[0] if timer else None
    sent = []
    send_leg = Network.send_leg

    def spy(net, src, dst, service, item, *rest):
        if item.name == "request":
            sent.append(item)
        return send_leg(net, src, dst, service, item, *rest)

    monkeypatch.setattr(Network, "send_leg", spy)
    tb = busy_grid()
    host = tb.sim.hosts[host_name]
    tb.failures.crash_service_at(CRASH_AT, host, prefix)
    tb.run(until=CRASH_AT - 1.0)
    victim = host.services[min(n for n in host.services
                               if n.startswith(prefix))]
    theirs = [p for p in host.processes if p.name.startswith(names)]
    if timer:
        # live and ticking: a timer of its own on the heap, and the
        # requests its ticks send
        assert any(getattr(getattr(item, "fn", None), "__self__", None)
                   is victim for _t, _seq, item in tb.sim._heap
                   if not item._cancelled)
        assert sends is None or any(sends(r) for r in sent)
    else:
        assert theirs, f"{daemon} runs nothing to kill"
    tb.run(until=CRASH_AT)
    assert [ev.kind for ev in tb.failures.injected] == ["crash_service"]
    assert host.services.get(victim.name) is not victim
    crashed, asked = len(tb.sim.trace), len(sent)
    tb.run(until=CRASH_AT + WATCH_FOR)

    assert [p.name for p in theirs if p.alive] == []
    later = [r.event for r in list(tb.sim.trace)[crashed:]
             if r.component == component]
    if reborn in later:
        later = later[:later.index(reborn)]
    assert later == []
    if sends is not None:
        assert [r for r in sent[asked:] if sends(r)] == []
