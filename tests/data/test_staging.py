"""GridManager data placement: stage-in, stage-out, crash recovery."""

from repro.core.api import JobDescription
from repro.core.job import GridJob
from repro.gram.protocol import GramJobRequest
from repro.grid.config import AgentSpec, DatasetSpec, SiteSpec, \
    TestbedConfig
from repro.grid.testbed import GridTestbed
from repro.states import JobState as J


def build_tb(datasets=(DatasetSpec("cal", size=2_000_000,
                                   replicas=("near",)),)):
    """`near` holds the input replica; `far` starts empty."""
    config = TestbedConfig(
        seed=11, with_mds=False, with_repo=False,
        sites=(SiteSpec("near", scheduler="pbs", cpus=2,
                        register_mds=False, storage=25_000_000.0),
               SiteSpec("far", scheduler="lsf", cpus=2,
                        register_mds=False, storage=25_000_000.0)),
        datasets=datasets,
        data_link_bandwidth=1_000_000.0,
        agents=(AgentSpec("u", broker_kind="data-aware",
                          personal_pool=False),),
    )
    return GridTestbed.from_config(config)


def test_stage_in_and_stage_out_userlog_events():
    """A cold placement logs stage_in before submit and stage_out after
    the remote DONE, and the output lands in the catalog."""
    tb = build_tb()
    agent = tb.agents["u"]
    jid = agent.submit(
        JobDescription(executable="reco", runtime=100.0,
                       input_datasets=("cal",),
                       output_datasets=(("reco-out", 300_000),)),
        resource="far-gk")          # forced cold: replica lives at near
    tb.run_until_quiet(max_time=40_000.0)
    assert agent.status(jid).state == J.DONE
    events = [e.event for e in agent.logs(jid)]
    assert "stage_in" in events and "stage_out" in events
    assert events.index("stage_in") < events.index("submit")
    assert events.index("stage_out") > events.index("execute")
    # inputs were replicated to far-se, outputs archived + registered
    assert "far-se" in tb.replica_catalog.entry("cal")["replicas"]
    out = tb.replica_catalog.entry("reco-out")
    assert out is not None and out["size"] == 300_000
    assert "far-se" in out["replicas"]
    metrics = tb.sim.metrics
    assert metrics.counter("gridmanager.stage_in_bytes").value == 2_000_000
    assert metrics.counter("gridmanager.stage_out_bytes").value == 300_000


def test_local_replica_skips_transfer():
    """Broker sends the job to the replica's home; stage-in is a
    catalog hit and no transfer happens."""
    tb = build_tb()
    agent = tb.agents["u"]
    jid = agent.submit(JobDescription(executable="reco", runtime=50.0,
                                      input_datasets=("cal",)))
    tb.run_until_quiet(max_time=20_000.0)
    assert agent.status(jid).state == J.DONE
    metrics = tb.sim.metrics
    assert metrics.counter("gridmanager.stage_in_hits").value == 1
    moved = metrics.get("dts.bytes_moved")
    assert moved is None or moved.value == 0


def test_stage_out_corruption_repaired():
    """The archive write is corrupted in flight; the GridManager's
    checksum verify catches it, deletes the bad copy, and the retry
    archives a clean replica -- the job still ends DONE."""
    tb = build_tb()
    agent = tb.agents["u"]
    jid = agent.submit(
        JobDescription(executable="reco", runtime=50.0,
                       output_datasets=(("result", 100_000),)))
    # No input datasets, so the first SE write is the stage-out; arm the
    # truncation on whichever site the broker picks (both idle -> near).
    tb.sites["near"].se.corrupt_next()
    tb.sites["far"].se.corrupt_next()
    tb.run_until_quiet(max_time=40_000.0)
    assert agent.status(jid).state == J.DONE
    assert tb.sim.metrics.counter(
        "gridmanager.stage_out_corrupt").value == 1
    entry = tb.replica_catalog.entry("result")
    assert entry is not None and len(entry["replicas"]) == 1
    # the surviving copy matches the registered checksum
    se_host = next(iter(entry["replicas"]))
    live = tb.sim.hosts[se_host].services["gridftp"]
    assert live.files.get("datasets/result").checksum == entry["checksum"]


def test_se_crash_during_stage_in_recovers():
    """The destination SE dies just as staging starts; the DTS retry
    budget outlasts the outage, so the job never even sees a failure:
    stage-in completes at the pinned site without a resubmission."""
    tb = build_tb()
    agent = tb.agents["u"]
    jid = agent.submit(JobDescription(executable="reco", runtime=100.0,
                                      input_datasets=("cal",)),
                       resource="far-gk")
    tb.failures.crash_host_at(0.5, tb.sites["far"].se_host,
                              down_for=30.0)
    tb.run_until_quiet(max_time=60_000.0)
    assert agent.status(jid).state == J.DONE
    assert "far-se" in tb.replica_catalog.entry("cal")["replicas"]
    metrics = tb.sim.metrics
    assert metrics.counter("dts.retries").value >= 1
    assert metrics.get("gridmanager.resubmits") is None
    events = [e.event for e in agent.logs(jid)]
    assert "remote_failure" not in events


def test_from_record_staging_maps_to_unsubmitted():
    job = GridJob(job_id="g1", request=GramJobRequest(runtime=10.0),
                  state=J.STAGING)
    restored = GridJob.from_record(job.queue_record())
    assert restored.state == J.UNSUBMITTED


def test_from_record_staging_out_resumes_via_jmid():
    job = GridJob(job_id="g2", request=GramJobRequest(runtime=10.0),
                  state=J.STAGING_OUT, committed=True, jmid="jm-7")
    restored = GridJob.from_record(job.queue_record())
    assert restored.state == J.PENDING

    # without a reconnectable JobManager the whole attempt restarts
    job = GridJob(job_id="g3", request=GramJobRequest(runtime=10.0),
                  state=J.STAGING_OUT, committed=False)
    restored = GridJob.from_record(job.queue_record())
    assert restored.state == J.UNSUBMITTED
