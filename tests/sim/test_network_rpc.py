"""Tests for the network fabric and the RPC layer."""

import pytest

from repro.sim import (
    Host,
    HostDown,
    Network,
    RemoteError,
    RPCTimeout,
    Service,
    ServiceUnavailable,
    Simulator,
    call,
    notify,
)


class Echo(Service):
    service_name = "echo"

    def handle_ping(self, ctx, text):
        return text.upper()

    def handle_slow(self, ctx, duration):
        yield self.sim.timeout(duration)
        return "slept"

    def handle_boom(self, ctx):
        raise ValueError("kaboom")

    def handle_whoami(self, ctx):
        return ctx.caller_host


@pytest.fixture
def net_pair():
    sim = Simulator(seed=3)
    net = Network(sim, latency=0.1, jitter=0.0)
    client = Host(sim, "client")
    server = Host(sim, "server")
    Echo(server)
    return sim, net, client, server


def run_call(sim, gen):
    box = {}

    def wrapper():
        try:
            box["value"] = yield from gen
        except Exception as exc:  # noqa: BLE001 - test captures
            box["error"] = exc

    sim.spawn(wrapper())
    sim.run()
    return box


@pytest.mark.parametrize("field, value", [
    ("latency", -5.0), ("latency", float("nan")), ("latency", float("inf")),
    ("jitter", -0.01), ("jitter", float("nan")), ("jitter", float("inf")),
    ("loss_rate", -0.1), ("loss_rate", 1.5), ("loss_rate", float("nan")),
])
def test_a_network_that_would_send_legs_into_the_past_is_refused(
        field, value):
    sim = Simulator()
    with pytest.raises(ValueError, match=field):
        Network(sim, **{field: value})
    assert sim.network is None
    Network(sim, latency=0.0, jitter=0.0, loss_rate=1.0)   # the bounds


def test_basic_call_roundtrip(net_pair):
    sim, net, client, server = net_pair
    box = run_call(sim, call(client, "server", "echo", "ping", text="hi"))
    assert box["value"] == "HI"
    # one round trip = 2 * latency
    assert sim.now == pytest.approx(0.2)


def test_generator_handler_does_simulated_work(net_pair):
    sim, net, client, server = net_pair
    box = run_call(sim, call(client, "server", "echo", "slow",
                             timeout=100.0, duration=5.0))
    assert box["value"] == "slept"
    assert sim.now == pytest.approx(5.2)


def test_remote_exception_is_typed(net_pair):
    sim, net, client, server = net_pair
    box = run_call(sim, call(client, "server", "echo", "boom"))
    assert isinstance(box["error"], RemoteError)
    assert "kaboom" in str(box["error"])
    assert box["error"].kind == "ValueError"


def test_unknown_method_raises_service_unavailable(net_pair):
    sim, net, client, server = net_pair
    box = run_call(sim, call(client, "server", "echo", "nosuch"))
    assert isinstance(box["error"], ServiceUnavailable)


def test_call_to_down_host_times_out(net_pair):
    sim, net, client, server = net_pair
    server.crash()
    box = run_call(sim, call(client, "server", "echo", "ping",
                             timeout=2.0, text="x"))
    assert isinstance(box["error"], RPCTimeout)
    assert sim.now == pytest.approx(2.0)


def test_call_to_missing_service_times_out(net_pair):
    sim, net, client, server = net_pair
    box = run_call(sim, call(client, "nowhere", "echo", "ping",
                             timeout=1.0, text="x"))
    assert isinstance(box["error"], RPCTimeout)


def test_partition_blocks_and_heal_restores(net_pair):
    sim, net, client, server = net_pair
    net.partition("client", "server")
    box = run_call(sim, call(client, "server", "echo", "ping",
                             timeout=1.0, text="x"))
    assert isinstance(box["error"], RPCTimeout)

    net.heal("client", "server")
    box = run_call(sim, call(client, "server", "echo", "ping",
                             timeout=1.0, text="x"))
    assert box["value"] == "X"


def test_partition_mid_flight_drops_message():
    sim = Simulator(seed=3)
    net = Network(sim, latency=1.0, jitter=0.0)
    client = Host(sim, "client")
    server = Host(sim, "server")
    Echo(server)
    # Partition after the request leaves but before it arrives.
    sim.schedule(0.5, lambda: net.partition("client", "server"))
    box = run_call(sim, call(client, "server", "echo", "ping",
                             timeout=5.0, text="x"))
    assert isinstance(box["error"], RPCTimeout)


def test_server_crash_mid_call_times_out():
    sim = Simulator(seed=3)
    Network(sim, latency=0.1, jitter=0.0)
    client = Host(sim, "client")
    server = Host(sim, "server")
    Echo(server)
    sim.schedule(2.0, lambda: server.crash())
    box = run_call(sim, call(client, "server", "echo", "slow",
                             timeout=10.0, duration=5.0))
    assert isinstance(box["error"], RPCTimeout)
    assert sim.now == pytest.approx(10.0)


def test_message_loss_causes_timeout():
    sim = Simulator(seed=3)
    Network(sim, latency=0.1, jitter=0.0, loss_rate=1.0)
    client = Host(sim, "client")
    server = Host(sim, "server")
    Echo(server)
    box = run_call(sim, call(client, "server", "echo", "ping",
                             timeout=1.0, text="x"))
    assert isinstance(box["error"], RPCTimeout)
    assert sim.network.dropped >= 1


def test_payloads_are_copied_not_shared():
    sim = Simulator(seed=3)
    Network(sim, latency=0.1, jitter=0.0)
    client = Host(sim, "client")
    server = Host(sim, "server")
    received = []

    class Sink(Service):
        service_name = "sink"

        def handle_put(self, ctx, data):
            received.append(data)

    Sink(server)
    payload = {"values": [1, 2]}

    def sender():
        yield from call(client, "server", "sink", "put", data=payload)

    proc = sim.spawn(sender())
    # Mutate after the send executes (t=0) but before delivery (t=0.1):
    # without the frozen copy the receiver would see the mutation.
    sim.schedule(0.05, lambda: payload["values"].append(3))
    sim.run()
    assert proc.ok
    assert received == [{"values": (1, 2)}]
    with pytest.raises(TypeError):
        received[0]["values"] = [3]     # and the receiver cannot edit it


def test_notify_is_one_way(net_pair):
    sim, net, client, server = net_pair
    got = []

    class Sink(Service):
        service_name = "sink"

        def handle_hit(self, ctx, n):
            got.append(n)

    Sink(server)
    notify(client, "server", "sink", "hit", n=7)
    sim.run()
    assert got == [7]


def test_ctx_reports_caller(net_pair):
    sim, net, client, server = net_pair
    box = run_call(sim, call(client, "server", "echo", "whoami"))
    assert box["value"] == "client"


def test_downed_host_cannot_call_and_its_notify_is_dropped(net_pair):
    """A crashed machine sends nothing: call() refuses at once with the
    exception a spawn on it gets, a notify() is counted sent and dropped."""
    sim, net, client, server = net_pair
    client.crash()
    box = run_call(sim, call(client, "server", "echo", "ping", text="x"))
    assert isinstance(box["error"], HostDown)
    assert (sim.now, net.sent) == (0.0, 0)
    notify(client, "server", "echo", "ping", text="x")
    sim.run()
    assert (net.sent, net.delivered, net.dropped) == (1, 0, 1)


def test_latency_jitter_deterministic_with_seed():
    def one_run():
        sim = Simulator(seed=99)
        net = Network(sim, latency=0.1, jitter=0.5)
        a = Host(sim, "a")
        b = Host(sim, "b")
        Echo(b)
        times = []

        def proc():
            for _ in range(5):
                yield from call(a, "b", "echo", "ping", text="x")
                times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        return times

    assert one_run() == one_run()
