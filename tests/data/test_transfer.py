"""Transfer scheduler: pacing, stream caps, retry, checksum repair."""

import pytest

from repro.data.catalog import ReplicaCatalog, dataset_path
from repro.data.transfer import TransferScheduler
from repro.gass.files import SimFile
from repro.gridftp.server import GridFTPServer
from repro.sim import Host, Network, RemoteError, Simulator
from repro.sim.rpc import call


def drive(sim, gen):
    box = {}

    def wrapper():
        try:
            box["value"] = yield from gen
        except Exception as exc:  # noqa: BLE001
            box["error"] = exc

    sim.spawn(wrapper())
    sim.run()
    return box


def build(link_bandwidth=100_000.0, max_streams=2, max_retries=4,
          retry_backoff=5.0, attempt_timeout=300.0):
    sim = Simulator(seed=7)
    Network(sim, latency=0.01, jitter=0.0)
    client = Host(sim, "client")
    src = Host(sim, "src-se").boot(
        lambda h: GridFTPServer(h, bandwidth=0))
    dst = Host(sim, "dst-se").boot(
        lambda h: GridFTPServer(h, bandwidth=0))
    ReplicaCatalog(Host(sim, "rls"))
    dts = TransferScheduler(Host(sim, "dts"),
                            link_bandwidth=link_bandwidth,
                            max_streams=max_streams,
                            max_retries=max_retries,
                            retry_backoff=retry_backoff,
                            attempt_timeout=attempt_timeout)
    return sim, client, src, dst, dts


def test_transfer_paced_to_link_bandwidth():
    """Endpoint pipes are infinite here; the link floor must dominate."""
    sim, client, src, dst, dts = build(link_bandwidth=100_000.0)
    src.publish("datasets/d1", size=1_000_000)      # 10s of link time

    box = drive(sim, call(client, "dts", "dts", "transfer",
                          timeout=600.0,
                          src_url=src.url("datasets/d1"),
                          dst_host="dst-se", dst_path="datasets/d1"))
    assert box["value"]["size"] == 1_000_000
    assert box["value"]["attempts"] == 1
    assert sim.now >= 10.0
    assert dst.files.get("datasets/d1").size == 1_000_000


def test_link_stream_cap_serializes_transfers():
    """max_streams=1: three equal moves on one link finish one at a
    time, so the last completes no earlier than 3x the single floor."""
    sim, client, src, dst, dts = build(link_bandwidth=100_000.0,
                                       max_streams=1)
    for i in range(3):
        src.publish(f"datasets/d{i}", size=500_000)     # 5s each

    ends = []

    def one(i):
        yield from call(client, "dts", "dts", "transfer", timeout=600.0,
                        src_url=src.url(f"datasets/d{i}"),
                        dst_host="dst-se", dst_path=f"datasets/d{i}")
        ends.append(sim.now)

    for i in range(3):
        sim.spawn(one(i))
    sim.run()
    assert len(ends) == 3
    assert max(ends) >= 15.0
    wait = sim.metrics.histogram("dts.queue_wait")
    assert wait.count == 3 and wait.max >= 5.0


def test_failed_source_retries_then_raises():
    sim, client, src, dst, dts = build(max_retries=2, retry_backoff=1.0)
    # src never published the file -> every RETR fails remotely

    box = drive(sim, call(client, "dts", "dts", "transfer",
                          timeout=600.0,
                          src_url=src.url("datasets/ghost"),
                          dst_host="dst-se", dst_path="datasets/ghost"))
    assert isinstance(box["error"], RemoteError)
    assert sim.metrics.counter("dts.retries").value == 2
    assert sim.metrics.counter("dts.failures").value == 1
    # exponential backoff: 1s after attempt 1, 2s after attempt 2
    assert sim.now >= 3.0


def test_corrupted_arrival_deleted_and_repulled():
    """An armed corruption truncates the first arrival; the checksum
    verify catches it, deletes the bad copy, and attempt 2 delivers a
    clean replica registered in the catalog."""
    sim, client, src, dst, dts = build(retry_backoff=1.0)
    path = dataset_path("d1")
    good = SimFile(path, size=250_000)
    src.publish(path, size=250_000)
    dst.corrupt_next()

    box = drive(sim, call(client, "dts", "dts", "transfer",
                          timeout=600.0,
                          src_url=src.url(path), dst_host="dst-se",
                          dst_path=path, dataset="d1",
                          expected_checksum=good.checksum))
    assert box["value"]["attempts"] == 2
    assert sim.metrics.counter("dts.checksum_mismatch").value == 1
    assert dst.files.get(path).checksum == good.checksum


def test_verified_transfer_registers_replica():
    sim, client, src, dst, dts = build()
    path = dataset_path("d1")
    good = SimFile(path, size=100_000)
    src.publish(path, size=100_000)
    catalog = sim.hosts["rls"].services["rls"]

    drive(sim, call(client, "dts", "dts", "transfer", timeout=600.0,
                    src_url=src.url(path), dst_host="dst-se",
                    dst_path=path, dataset="d1",
                    expected_checksum=good.checksum))
    entry = catalog.entry("d1")
    assert entry is not None
    assert "dst-se" in entry["replicas"]
    assert sim.metrics.counter("dts.bytes_moved").value == 100_000


def test_crashed_destination_recovers_within_retry_budget():
    """The destination SE reboots mid-campaign; backoff outlasts the
    outage and the move completes on a later attempt.

    A call into a crashed host yields nothing until the caller's
    timeout, so `attempt_timeout` bounds each try: attempt 1 burns 3s,
    backoff sleeps 5s, and by attempt 2 the host is back."""
    sim, client, src, dst, dts = build(max_retries=4, retry_backoff=5.0,
                                       attempt_timeout=3.0)
    src.publish("datasets/d1", size=100_000)
    dst_host = dst.host
    dst_host.crash()

    def heal():
        yield sim.timeout(7.5)
        dst_host.restart()

    sim.spawn(heal())
    box = drive(sim, call(client, "dts", "dts", "transfer",
                          timeout=600.0,
                          src_url=src.url("datasets/d1"),
                          dst_host="dst-se", dst_path="datasets/d1"))
    assert box["value"]["size"] == 100_000
    assert box["value"]["attempts"] > 1
    # the rebooted daemon (boot action) holds the file
    live = sim.hosts["dst-se"].services["gridftp"]
    assert live.files.exists("datasets/d1")
