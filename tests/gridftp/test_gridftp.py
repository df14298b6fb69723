"""Tests for GridFTP, including GSI auth and third-party transfers."""

import pytest

from repro.gridftp import (
    GridFTPServer,
    gridftp_get,
    gridftp_put,
    gridftp_size,
    make_gsiftp_url,
    parse_gsiftp_url,
    third_party_transfer,
)
from repro.gsi import CertificateAuthority, GridMap, GridUser, GSIAuthorizer
from repro.sim import AuthenticationError, Host, Network, Simulator


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


@pytest.fixture
def env():
    sim = Simulator(seed=9)
    Network(sim, latency=0.02, jitter=0.0)
    client = Host(sim, "client")
    a = Host(sim, "server-a")
    b = Host(sim, "server-b")
    sa = GridFTPServer(a, bandwidth=0)   # 0 = infinite, keep tests fast
    sb = GridFTPServer(b, bandwidth=0)
    return sim, client, sa, sb


def test_url_round_trip():
    url = make_gsiftp_url("repo", "condor/binaries/startd")
    assert parse_gsiftp_url(url) == ("repo", "condor/binaries/startd")
    with pytest.raises(ValueError):
        parse_gsiftp_url("gass://x/y/z")


def test_put_get_size(env):
    sim, client, sa, sb = env

    def scenario():
        yield from gridftp_put(client, sa.url("data/f1"), size=12345)
        size = yield from gridftp_size(client, sa.url("data/f1"))
        got = yield from gridftp_get(client, sa.url("data/f1"))
        return size, got["size"]

    box = drive(sim, scenario())
    assert box["value"] == (12345, 12345)


def test_third_party_transfer_moves_between_servers(env):
    sim, client, sa, sb = env
    sa.publish("events/run1.dat", size=500_000)

    def scenario():
        moved = yield from third_party_transfer(
            client, sa.url("events/run1.dat"), sb.url("repo/run1.dat"))
        return moved

    box = drive(sim, scenario())
    assert box["value"] == 500_000
    assert sb.files.get("repo/run1.dat").size == 500_000
    m = sim.metrics
    assert m.counter("gridftp.bytes_sent").labelled(sa.host.name) == 500_000
    assert m.counter("gridftp.bytes_received").labelled(sb.host.name) == \
        500_000


def test_gsi_protected_server_requires_credential():
    sim = Simulator(seed=9)
    Network(sim, latency=0.02, jitter=0.0)
    client = Host(sim, "client")
    repo = Host(sim, "repo")
    ca = CertificateAuthority("TestGrid")
    alice = GridUser("alice", ca, now=0.0)
    auth = GSIAuthorizer.for_ca(ca, GridMap({alice.dn: "alice"}))
    server = GridFTPServer(repo, authorizer=auth)
    server.publish("condor/startd", size=100)

    def without_cred():
        result = yield from gridftp_get(client, server.url("condor/startd"))
        return result

    box = drive(sim, without_cred())
    assert isinstance(box["error"], AuthenticationError)

    sim2 = Simulator(seed=9)
    Network(sim2, latency=0.02, jitter=0.0)
    client2 = Host(sim2, "client")
    repo2 = Host(sim2, "repo")
    server2 = GridFTPServer(repo2, authorizer=auth)
    server2.publish("condor/startd", size=100)
    proxy = alice.proxy(now=0.0, lifetime=3600.0)

    def with_cred():
        proof = proxy.signing_proof(sim2.now, audience="repo")
        result = yield from gridftp_get(client2,
                                        server2.url("condor/startd"),
                                        credential=proof)
        return result

    box2 = drive(sim2, with_cred())
    assert box2["value"]["size"] == 100


def test_bandwidth_shapes_transfer_time():
    sim = Simulator(seed=9)
    Network(sim, latency=0.0, jitter=0.0)
    client = Host(sim, "client")
    server_host = Host(sim, "repo")
    server = GridFTPServer(server_host, bandwidth=1_000.0)
    server.publish("big", size=5_000)

    def scenario():
        yield from gridftp_get(client, server.url("big"))
        return sim.now

    box = drive(sim, scenario())
    assert box["value"] >= 5.0
