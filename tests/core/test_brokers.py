"""Resource brokering strategies (§4.4)."""

import pytest

from repro import GridTestbed, JobDescription
from repro.core.broker import MDSBroker, QueueAwareBroker, UserListBroker
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def make_tb(seed=31):
    tb = GridTestbed(TestbedConfig(seed=seed))
    tb.add_site(SiteSpec("busy", scheduler="pbs", cpus=2))
    tb.add_site(SiteSpec("idle", scheduler="pbs", cpus=16))
    return tb


def load_site(tb, name, jobs, runtime=5000.0):
    from repro.lrm import JobSpec

    for _ in range(jobs):
        tb.sites[name].lrm.submit(JobSpec(runtime=runtime), owner="local")


def test_userlist_round_robin():
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"), broker=UserListBroker(["busy-gk", "idle-gk"]))
    ids = [agent.submit(JobDescription(runtime=10.0)) for _ in range(4)]
    tb.run_until_quiet(max_time=20000.0)
    resources = [agent.status(j).resource for j in ids]
    assert resources.count("busy-gk") == 2
    assert resources.count("idle-gk") == 2


def test_mds_broker_avoids_loaded_site():
    tb = make_tb()
    load_site(tb, "busy", jobs=30)
    agent = tb.add_agent(AgentSpec("alice", broker_kind="mds"))
    tb.run(until=200.0)       # let MDS registrations pick up the load
    ids = [agent.submit(JobDescription(runtime=20.0)) for _ in range(4)]
    tb.run_until_quiet(max_time=40000.0)
    assert all(agent.status(j).resource == "idle-gk" for j in ids)
    assert all(agent.status(j).is_complete for j in ids)


def test_mds_broker_requirements_filter():
    tb = GridTestbed(TestbedConfig(seed=31))
    tb.add_site(SiteSpec("intel", scheduler="pbs", cpus=4, arch="INTEL"))
    tb.add_site(SiteSpec("sparc", scheduler="pbs", cpus=4, arch="SPARC"))
    agent = tb.add_agent(AgentSpec("alice"))
    agent.scheduler.broker = MDSBroker(
        agent.host, "mds", requirements='Arch == "SPARC"')
    tb.run(until=200.0)
    jid = agent.submit(JobDescription(runtime=10.0))
    tb.run_until_quiet(max_time=20000.0)
    assert agent.status(jid).resource == "sparc-gk"


def test_mds_broker_ranks_by_cost():
    tb = GridTestbed(TestbedConfig(seed=31))
    tb.add_site(SiteSpec("pricey", scheduler="pbs", cpus=8, allocation_cost=10.0))
    tb.add_site(SiteSpec("cheap", scheduler="pbs", cpus=8, allocation_cost=1.0))
    agent = tb.add_agent(AgentSpec("alice"))
    agent.scheduler.broker = MDSBroker(
        agent.host, "mds", rank="-AllocationCost")
    tb.run(until=200.0)
    jid = agent.submit(JobDescription(runtime=10.0))
    tb.run_until_quiet(max_time=20000.0)
    assert agent.status(jid).resource == "cheap-gk"


def test_queue_aware_broker_picks_emptiest_live_queue():
    tb = make_tb()
    load_site(tb, "busy", jobs=30)
    agent = tb.add_agent(AgentSpec("alice"), broker=QueueAwareBroker(None, ["busy-gk", "idle-gk"]))
    agent.scheduler.broker.host = agent.host
    ids = [agent.submit(JobDescription(runtime=20.0)) for _ in range(4)]
    tb.run_until_quiet(max_time=40000.0)
    assert all(agent.status(j).resource == "idle-gk" for j in ids)


def test_broker_none_candidate_keeps_job_queued():
    """If MDS knows no matching site the job stays queued, not failed."""
    tb = GridTestbed(TestbedConfig(seed=31))
    tb.add_site(SiteSpec("intel", scheduler="pbs", cpus=4, arch="INTEL"))
    agent = tb.add_agent(AgentSpec("alice"))
    agent.scheduler.broker = MDSBroker(
        agent.host, "mds", requirements='Arch == "ALPHA"')
    tb.run(until=100.0)
    jid = agent.submit(JobDescription(runtime=10.0))
    tb.run(until=2000.0)
    assert agent.status(jid).state == "UNSUBMITTED"


def test_mds_broker_sees_dead_site_disappear():
    """A crashed site ages out of MDS; the broker stops picking it."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice", broker_kind="mds"))
    tb.run(until=200.0)
    tb.sites["idle"].gk_host.crash()
    tb.sites["idle"].lrm_host.crash()
    tb.run(until=800.0)          # soft state expires (ttl 150s)
    jid = agent.submit(JobDescription(runtime=10.0))
    tb.run_until_quiet(max_time=20000.0)
    assert agent.status(jid).resource == "busy-gk"
    assert agent.status(jid).is_complete


# -- placement only where there is room ------------------------------------------

CONTACTS = ("a-gk", "b-gk", "c-gk")


def _broker_grid(kind):
    from repro.core.broker import MatchmakingBroker

    tb = GridTestbed(TestbedConfig(seed=31))
    for name in "abc":
        tb.add_site(SiteSpec(name, scheduler="pbs", cpus=4, storage=1e8))
    agent = tb.add_agent(AgentSpec("alice"))
    if kind == "matchmaking":
        broker = MatchmakingBroker(agent.host, "mds")
    else:
        broker = tb.make_broker(kind, agent.host)
    tb.run(until=200.0)      # MDS registrations are in
    return tb, agent, broker


def _pick(tb, agent, broker, has_room):
    from repro.core.job import GridJob
    from repro.gram import GramJobRequest

    asked, box = [], {}

    def room(contact):
        asked.append(contact)
        return has_room(contact)

    def ask():
        box["contact"] = yield from broker.pick(
            GridJob("gridjob-x", GramJobRequest(runtime=10.0)), room)

    agent.host.spawn(ask())
    tb.run(until=tb.sim.now + 100.0)
    return box["contact"], asked


@pytest.mark.parametrize("kind", ["userlist", "mds", "matchmaking",
                                  "queue-aware", "data-aware"])
def test_brokers_place_only_where_there_is_room(kind):
    tb, agent, broker = _broker_grid(kind)
    # every subset of the three sites having room, the empty one included
    for mask in range(8):
        roomy = {c for i, c in enumerate(CONTACTS) if mask >> i & 1}
        contact, asked = _pick(tb, agent, broker, roomy.__contains__)
        assert set(asked) <= set(CONTACTS)
        if roomy:
            assert contact in roomy, (kind, roomy, contact)
        else:
            assert contact is None, (kind, contact)
            assert set(asked) == set(CONTACTS)   # "none has room", seen


def test_userlist_sequence_is_unchanged_while_everything_has_room():
    """The round-robin cursor moves one step per pick when nothing is
    full -- unthrottled runs place exactly as they always did -- and at
    most one lap when something is."""
    broker = UserListBroker(list(CONTACTS))

    def pick(has_room=lambda contact: True):
        try:
            next(broker.pick(None, has_room))
        except StopIteration as stop:
            return stop.value

    assert [pick() for _ in range(5)] == \
        ["a-gk", "b-gk", "c-gk", "a-gk", "b-gk"]
    assert pick(lambda contact: contact == "b-gk") == "b-gk"   # skips c, a
    assert pick(lambda contact: False) is None                  # one lap
    assert pick() == "c-gk"                                     # cursor kept


def test_queue_aware_broker_does_not_probe_a_full_site():
    tb, agent, broker = _broker_grid("queue-aware")
    from repro.sim import rpc

    rpc.RPC_STATS = {}
    try:
        contact, _ = _pick(tb, agent, broker, lambda c: c == "b-gk")
        probes = rpc.RPC_STATS.get(("gatekeeper", "queue_info"), 0)
    finally:
        rpc.RPC_STATS = None
    assert contact == "b-gk" and probes == 1
