"""Tests for site-local checkpoint servers (§5)."""

import pytest

from repro.condor import CondorJob, Schedd, build_pool, job_ad
from repro.condor.ckptserver import CheckpointServer
from repro.sim import Host, Network, Simulator


def make_env(ckpt_server=True, seed=57):
    sim = Simulator(seed=seed)
    Network(sim, latency=0.02, jitter=0.0)
    pool = build_pool(sim, "pool", workers=1, cycle_interval=10.0)
    server = None
    if ckpt_server:
        server = CheckpointServer(Host(sim, "ckpt-host"))
    submit = Host(sim, "submit")
    schedd = Schedd(submit, collector=pool.collector_contact)
    return sim, pool, schedd, server


def submit_job(schedd, server, runtime=400.0, ckpt_bytes=0):
    job = CondorJob(job_id=schedd.queue.new_id(), ad=job_ad("alice"),
                    runtime=runtime, universe="standard",
                    ckpt_bytes=ckpt_bytes,
                    ckpt_server="ckpt-host" if server else "")
    return schedd.submit(job)


def test_checkpoints_land_at_server():
    sim, pool, schedd, server = make_env()
    jid = submit_job(schedd, server, runtime=400.0, ckpt_bytes=1000)
    sim.run(until=3000.0)
    assert schedd.status(jid).state == "COMPLETED"
    assert server.bytes_stored > 0
    # the final stored image reflects late progress
    assert server.stored_progress(jid) >= 120.0


def test_restart_resumes_from_server_image():
    sim, pool, schedd, server = make_env()
    jid = submit_job(schedd, server, runtime=600.0, ckpt_bytes=1000)
    startd = pool.startds[0]

    def vacate():
        yield sim.timeout(300.0)
        startd.handle_vacate(None)

    sim.spawn(vacate())
    sim.run(until=5000.0)
    job = schedd.status(jid)
    assert job.state == "COMPLETED"
    assert job.restarts == 1
    # resumed: completion well before 2x runtime from scratch
    assert job.end_time - job.submit_time < 600.0 + 450.0


def test_dead_server_falls_back_to_shadow_progress():
    sim, pool, schedd, server = make_env()
    jid = submit_job(schedd, server, runtime=600.0, ckpt_bytes=1000)
    startd = pool.startds[0]

    def chaos():
        yield sim.timeout(250.0)
        sim.hosts["ckpt-host"].crash()      # images gone
        yield sim.timeout(50.0)
        startd.handle_vacate(None)

    sim.spawn(chaos())
    sim.run(until=8000.0)
    job = schedd.status(jid)
    assert job.state == "COMPLETED"
    # the shadow's banked progress counter still saved the work
    assert job.progress > 0.0


def test_big_checkpoints_to_shadow_pause_the_job():
    """Without a checkpoint server, a big image crosses the WAN and the
    job pays the transfer time; with one, it does not."""
    big = 10_000_000       # 10s at the shadow's 1 MB/s WAN

    sim1, pool1, schedd1, server1 = make_env(ckpt_server=True, seed=58)
    with_srv = submit_job(schedd1, server1, runtime=300.0,
                          ckpt_bytes=big)
    sim1.run(until=5000.0)

    sim2, pool2, schedd2, _none = make_env(ckpt_server=False, seed=58)
    without = submit_job(schedd2, None, runtime=300.0, ckpt_bytes=big)
    sim2.run(until=5000.0)

    j1 = schedd1.status(with_srv)
    j2 = schedd2.status(without)
    assert j1.state == j2.state == "COMPLETED"
    span1 = j1.end_time - j1.start_time
    span2 = j2.end_time - j2.start_time
    # ~4 checkpoints x 10s WAN stall each
    assert span2 > span1 + 20.0
