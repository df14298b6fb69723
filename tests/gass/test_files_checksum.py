"""SimFile checksums, FileStore persistence, GASS transfer accounting."""

import pytest

from repro.gass import GassServer, SimFile, gass_get, gass_put
from repro.gass.files import FileStore, file_digest
from repro.sim import Host, Network, Simulator


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


def test_file_digest_covers_path_size_and_data():
    base = file_digest("p", 4, "abcd")
    assert file_digest("p", 4, "abcd") == base          # deterministic
    assert file_digest("q", 4, "abcd") != base
    assert file_digest("p", 5, "abcde") != base
    assert file_digest("p", 4, "abce") != base


def test_simfile_checksum_set_on_construction():
    f = SimFile("x", data="hello")
    assert f.size == 5                                  # size inferred
    assert f.checksum == file_digest("x", 5, "hello")
    # size-only files (big datasets) get a checksum too
    g = SimFile("y", size=10_000_000)
    assert g.checksum == file_digest("y", 10_000_000, "")


def test_simfile_rejects_inconsistent_shapes():
    with pytest.raises(ValueError, match="negative size"):
        SimFile("x", size=-1)
    with pytest.raises(ValueError, match="size/data mismatch"):
        SimFile("x", size=3, data="abcd")


def test_append_recomputes_checksum():
    f = SimFile("log", data="aa")
    before = f.checksum
    f.append("bb")
    assert f.checksum != before
    assert f.checksum == file_digest("log", 4, "aabb")


def test_filestore_persists_and_rehydrates_checksum():
    sim = Simulator(seed=2)
    host = Host(sim, "h")
    ns = host.stable.namespace("files")
    store = FileStore(ns)
    store.put(SimFile("a/b", data="content"))
    checksum = store.get("a/b").checksum
    assert ns.get("a/b")["checksum"] == checksum

    rebuilt = FileStore(host.stable.namespace("files"))
    assert rebuilt.get("a/b").checksum == checksum

    # pre-checksum records (older stable formats) rehydrate fine
    ns.put("old", {"path": "old", "size": 7, "data": ""})
    legacy = FileStore(host.stable.namespace("files"))
    assert legacy.get("old").checksum == file_digest("old", 7, "")


def test_gass_counters_split_by_server_and_peer():
    sim = Simulator(seed=5)
    Network(sim, latency=0.01, jitter=0.0)
    submit = Host(sim, "submit")
    remote = Host(sim, "remote")
    server = GassServer(submit, bandwidth=0)
    url = server.stage_in("bin/exe", size=3_000)

    def scenario():
        yield from gass_get(remote, url)
        yield from gass_put(remote, server.url("out/res"), data="12345678")

    drive(sim, scenario())
    m = sim.metrics
    assert m.counter("gass.bytes_sent").labelled("submit") == 3_000
    assert m.counter("gass.bytes_received").labelled("submit") == 8
    assert m.counter("gass.transfers").labelled("remote") == 2
