"""MyProxy server protocol tests."""

import pytest

from repro.gsi import CertificateAuthority, GridUser, MyProxyServer
from repro.gsi.proxy import ProxyCredential
from repro.sim import Host, Network, RemoteError, Simulator, call


@pytest.fixture
def env():
    sim = Simulator(seed=13)
    Network(sim, latency=0.02, jitter=0.0)
    server_host = Host(sim, "myproxy")
    server = MyProxyServer(server_host)
    client = Host(sim, "client")
    ca = CertificateAuthority("TestGrid")
    alice = GridUser("alice", ca, now=0.0)
    return sim, server, client, alice


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


def test_store_and_get_short_proxy(env):
    sim, server, client, alice = env
    long_proxy = alice.proxy(now=0.0, lifetime=7 * 86400.0)

    def scenario():
        server._store["alice"] = ("s3cret", long_proxy)
        short = yield from call(client, "myproxy", "myproxy", "get",
                                username="alice", passphrase="s3cret",
                                lifetime=12 * 3600.0)
        return short

    box = drive(sim, scenario())
    short = box["value"]
    assert isinstance(short, ProxyCredential)
    assert short.not_after <= 12 * 3600.0 + 1
    # the delegation chain grew: long proxy -> short proxy
    assert short.chain[1:] == long_proxy.chain


def test_wrong_passphrase_rejected(env):
    sim, server, client, alice = env
    long_proxy = alice.proxy(now=0.0, lifetime=7 * 86400.0)

    def scenario():
        server._store["alice"] = ("right", long_proxy)
        yield from call(client, "myproxy", "myproxy", "get",
                        username="alice", passphrase="wrong")

    box = drive(sim, scenario())
    assert "error" in box


def test_get_unknown_user_rejected(env):
    sim, server, client, alice = env

    def scenario():
        yield from call(client, "myproxy", "myproxy", "get",
                        username="ghost", passphrase="x")

    assert "error" in drive(sim, scenario())


def test_expired_stored_credential_rejected(env):
    sim, server, client, alice = env
    short_lived = alice.proxy(now=0.0, lifetime=10.0)

    def scenario():
        server._store["alice"] = ("p", short_lived)
        yield sim.timeout(60.0)
        yield from call(client, "myproxy", "myproxy", "get",
                        username="alice", passphrase="p")

    assert "error" in drive(sim, scenario())

