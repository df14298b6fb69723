"""Third-party fetch under faults, inbound accounting, rehydration."""

from repro.gass.files import SimFile
from repro.gridftp import GridFTPServer, gridftp_get, third_party_transfer
from repro.sim import Host, Network, RPCError, Simulator
from repro.sim.failures import FailureInjector


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


def build(src_bandwidth=0, dst_bandwidth=0):
    sim = Simulator(seed=13)
    Network(sim, latency=0.01, jitter=0.0)
    client = Host(sim, "client")
    src = Host(sim, "src").boot(
        lambda h: GridFTPServer(h, bandwidth=src_bandwidth))
    dst = Host(sim, "dst").boot(
        lambda h: GridFTPServer(h, bandwidth=dst_bandwidth))
    return sim, client, src, dst


def test_fetch_from_pays_inbound_bandwidth():
    """Regression: the destination's pipe shapes a third-party move too.

    The source side is infinite, so any elapsed time beyond network
    latency is the destination paying for its own inbound bytes."""
    sim, client, src, dst = build(src_bandwidth=0, dst_bandwidth=1_000.0)
    src.publish("data/f", size=5_000)          # 5s at dst's 1000 B/s

    box = drive(sim, third_party_transfer(client, src.url("data/f"),
                                          dst.url("data/f")))
    assert box["value"] == 5_000
    assert sim.now >= 5.0


def test_fetch_from_under_partition_fails_then_heals():
    """A dst<->src partition makes the pull time out; after the heal the
    identical request succeeds."""
    sim, client, src, dst = build()
    src.publish("data/f", size=1_000)
    failures = FailureInjector(sim)
    failures.partition_at(0.0, "dst", "src", heal_after=50.0)

    def scenario():
        try:
            yield from third_party_transfer(client, src.url("data/f"),
                                            dst.url("data/f"),
                                            timeout=20.0)
        except RPCError:
            pass
        else:
            raise AssertionError("partitioned pull should time out")
        # at timeout time the partition still holds: nothing arrived yet
        assert sim.now < 50.0 and not dst.files.exists("data/f")
        yield sim.timeout(60.0)          # outlive the heal
        moved = yield from third_party_transfer(
            client, src.url("data/f"), dst.url("data/f"))
        return moved

    box = drive(sim, scenario())
    assert box["value"] == 1_000
    assert dst.files.exists("data/f")


def test_fetch_from_crashed_source_recovers_after_restart():
    """The source machine dies and reboots; its published files survive
    on stable storage and the retried pull succeeds."""
    sim, client, src, dst = build()
    src.publish("data/f", size=2_000)
    src_host = src.host
    src_host.crash()

    box = drive(sim, third_party_transfer(client, src.url("data/f"),
                                          dst.url("data/f"), timeout=15.0))
    assert isinstance(box["error"], RPCError)

    src_host.restart()
    box = drive(sim, third_party_transfer(client, src.url("data/f"),
                                          dst.url("data/f")))
    assert box["value"] == 2_000
    # the post-reboot daemon served it from the rehydrated store
    live = sim.hosts["src"].services["gridftp"]
    assert live is not src
    assert live.files.get("data/f").size == 2_000


def test_filestore_rehydrates_with_checksum_across_reboot():
    """A stored file comes back from stable storage after a reboot with
    the same content checksum the pre-crash daemon computed."""
    sim, client, src, dst = build()
    src.files.put(SimFile("data/f", data="payload bytes"))
    before = src.files.get("data/f").checksum
    # the persisted record carries the checksum (not just size/data)
    record = src.host.stable.namespace("gridftp").get("data/f")
    assert record["checksum"] == before

    src.host.crash()
    src.host.restart()
    live = sim.hosts["src"].services["gridftp"]
    assert live.files.get("data/f").checksum == before
    box = drive(sim, gridftp_get(client, live.url("data/f")))
    assert box["value"]["checksum"] == before


def test_transfer_counters_split_by_server_and_peer():
    """gridftp.bytes_* are labelled by server host, gridftp.transfers by
    the requesting peer, so rollups can see who moved what where."""
    sim, client, src, dst = build()
    src.publish("data/f", size=4_000)

    def scenario():
        yield from gridftp_get(client, src.url("data/f"))
        yield from third_party_transfer(client, src.url("data/f"),
                                        dst.url("data/f"))

    drive(sim, scenario())
    m = sim.metrics
    assert m.counter("gridftp.bytes_sent").labelled("src") == 8_000
    assert m.counter("gridftp.bytes_received").labelled("dst") == 4_000
    # one retr by the client, one retr by dst's fetch, one inbound store
    assert m.counter("gridftp.transfers").labelled("client") == 1
    assert m.counter("gridftp.transfers").labelled("dst") == 1
    assert m.counter("gridftp.transfers").labelled("src") == 1
