"""Data-aware placement: the queue-aware broker's staging term against
live testbeds."""

import pytest

from repro.core.api import JobDescription
from repro.core.broker import QueueAwareBroker
from repro.grid.config import AgentSpec, DatasetSpec, SiteSpec, \
    TestbedConfig
from repro.grid.testbed import GridTestbed
from repro.sim import rpc
from repro.workloads.synthetic import saturate


def build_tb(broker_kind="data-aware", beta_storage=25_000_000.0):
    """Two storage-equipped idle sites; dataset d1 lives at alpha."""
    config = TestbedConfig(
        seed=5, with_mds=False, with_repo=False,
        sites=(SiteSpec("alpha", scheduler="pbs", cpus=2,
                        register_mds=False, storage=25_000_000.0),
               SiteSpec("beta", scheduler="lsf", cpus=2,
                        register_mds=False, storage=beta_storage)),
        datasets=(DatasetSpec("d1", size=4_000_000, replicas=("alpha",)),),
        data_link_bandwidth=1_000_000.0,
        agents=(AgentSpec("u", broker_kind=broker_kind,
                          personal_pool=False),),
    )
    return GridTestbed.from_config(config)


def test_broker_prefers_replica_site():
    """Both sites idle: the only signal is where d1 already lives."""
    tb = build_tb()
    agent = tb.agents["u"]
    jid = agent.submit(JobDescription(executable="reco", runtime=100.0,
                                      input_datasets=("d1",)))
    tb.run_until_quiet(max_time=20_000.0)
    assert agent.all_terminal()
    assert agent.status(jid).resource == "alpha-gk"
    # nothing crossed the WAN: the input was already in place
    moved = tb.sim.metrics.get("dts.bytes_moved")
    assert moved is None or moved.value == 0


def test_broker_without_datasets_skips_locality_scoring(monkeypatch):
    """No declared inputs: the pick happens without one catalog look-up
    (there was nothing to be local *to*)."""
    stats = {}
    monkeypatch.setattr(rpc, "RPC_STATS", stats)
    tb = build_tb()
    agent = tb.agents["u"]
    jid = agent.submit(JobDescription(executable="plain", runtime=50.0))
    tb.run_until_quiet(max_time=20_000.0)
    assert agent.all_terminal()
    assert agent.status(jid).resource in ("alpha-gk", "beta-gk")
    assert stats[("gatekeeper", "queue_info")] > 0
    assert stats.get(("rls", "lookup"), 0) == 0


def test_busy_replica_site_loses_to_cold_transfer():
    """Locality is a *cost*, not a hard constraint: when alpha's queue
    wait dwarfs the staging time, the broker sends the job to beta cold,
    and stage-in replicates d1 there."""
    tb = build_tb()
    # 4MB missing at beta / 1MB/s link = 4s of staging; make alpha's
    # estimated wait far larger than that.
    saturate(tb.sites["alpha"].lrm, jobs=8, runtime=5000.0)
    agent = tb.agents["u"]
    jid = agent.submit(JobDescription(executable="reco", runtime=100.0,
                                      input_datasets=("d1",)))
    tb.run_until_quiet(max_time=40_000.0)
    assert agent.all_terminal()
    assert agent.status(jid).resource == "beta-gk"
    # the cold pick pulled the replica over; the catalog now knows it
    entry = tb.replica_catalog.entry("d1")
    assert "beta-se" in entry["replicas"]
    assert tb.sim.metrics.counter("dts.bytes_moved").value == 4_000_000


def test_missing_bytes_infinite_without_storage_element():
    """A data job cannot land where there is nowhere to stage to."""
    tb = build_tb()
    broker = QueueAwareBroker(tb.sim.hosts["submit-u"],
                              ["alpha-gk", "nowhere-gk"],
                              data=tb.data_services)
    entries = {"d1": {"size": 1000,
                      "replicas": {"alpha-se": "gsiftp://alpha-se/x"}}}
    assert broker.missing_bytes(entries, "nowhere-gk") == float("inf")
    assert broker.missing_bytes(entries, "alpha-gk") == 0.0
    # with no declared inputs an SE-less site is fine
    assert broker.missing_bytes({}, "nowhere-gk") == 0.0


def _solo_config(broker_kind):
    return TestbedConfig(
        seed=1, with_mds=False, with_repo=False,
        sites=(SiteSpec("solo", scheduler="pbs", cpus=1,
                        register_mds=False),),
        agents=(AgentSpec("u", broker_kind=broker_kind,
                          personal_pool=False),),
    )


def test_data_aware_broker_requires_data_services():
    with pytest.raises(ValueError, match="data-aware"):
        GridTestbed.from_config(_solo_config("data-aware"))


def test_mds_broker_requires_the_index():
    """Without an index every pick would ask a host that does not exist
    and the job would wait forever: refused at build instead."""
    with pytest.raises(ValueError, match="with_mds"):
        GridTestbed.from_config(_solo_config("mds"))
