"""Targeted tests for the inline RPC fast path.

``tests/test_golden_digests.py`` pins whole-scenario digests; these
tests pin the individual semantics the inline path must share with the
full Datagram path -- copy isolation, fallbacks, in-flight failure
windows, RNG draws and timing -- and the one observable it is allowed to
change (the ``rpc_fresh_results`` copy skip).
"""

import pytest

from repro.sim import (
    AuthenticationError,
    Host,
    Network,
    RemoteError,
    RPCTimeout,
    Service,
    Simulator,
    call,
    notify,
)
from repro.sim.rpc import _inline_plan


class Inlineable(Service):
    service_name = "svc"
    rpc_fresh_results = ("fresh",)

    def __init__(self, host, **kw):
        super().__init__(host, **kw)
        self.state = {"hits": 0}
        self.last_result_id = None

    def handle_ping(self, ctx, text):
        return text.upper()

    def handle_ping_full(self, ctx, text):
        # Generator twin of ping: same reply, but generator handlers
        # always take the full Datagram path -- the reference.
        return text.upper()
        yield

    def handle_boom(self, ctx):
        raise ValueError("kaboom")

    def handle_state(self, ctx):
        # Aliases server state: must reach the caller as a copy.
        self.state["hits"] += 1
        return self.state

    def handle_fresh(self, ctx):
        result = {"built": "per-call"}
        self.last_result_id = id(result)
        return result

    def handle_record(self, ctx, data):
        self.state["data"] = data

    def handle_gen(self, ctx, duration):
        yield self.sim.timeout(duration)
        return "slept"


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


@pytest.fixture
def pool():
    sim = Simulator(seed=11)
    Network(sim, latency=0.1, jitter=0.0)
    client = Host(sim, "client")
    server = Host(sim, "server")
    svc = Inlineable(server)
    return sim, client, server, svc


def test_inline_roundtrip_value_timing_counters(pool):
    sim, client, server, svc = pool
    box = run_call(sim, call(client, "server", "svc", "ping", text="hi"))
    assert box["value"] == "HI"
    assert sim.now == pytest.approx(0.2)  # two legs at 0.1 each
    assert sim.network.sent == 2
    assert sim.network.delivered == 2


def test_inline_remote_error_stays_typed(pool):
    sim, client, server, svc = pool
    box = run_call(sim, call(client, "server", "svc", "boom"))
    assert isinstance(box["error"], RemoteError)
    assert box["error"].kind == "ValueError"


def test_inline_result_is_copied_unless_fresh(pool):
    sim, client, server, svc = pool
    box = run_call(sim, call(client, "server", "svc", "state"))
    assert box["value"] == {"hits": 1}
    box["value"]["hits"] = 99
    assert svc.state["hits"] == 1  # caller got an isolated copy


def test_fresh_result_skips_the_copy(pool):
    sim, client, server, svc = pool
    box = run_call(sim, call(client, "server", "svc", "fresh"))
    assert box["value"] == {"built": "per-call"}
    # The declared-fresh dict crosses uncopied: same object the handler
    # built.  (This is the one observable difference the opt-in allows.)
    assert id(box["value"]) == svc.last_result_id


def test_inline_args_are_snapshotted_at_send_time(pool):
    sim, client, server, svc = pool
    payload = {"values": [1, 2]}

    def sender():
        yield from call(client, "server", "svc", "record", data=payload)

    sim.spawn(sender())
    # Mutate after the send (t=0) but before arrival (t=0.1).
    sim.schedule(0.05, lambda: payload["values"].append(3))
    sim.run()
    assert svc.state["data"] == {"values": [1, 2]}


def test_generator_handler_falls_back_to_real_path(pool):
    sim, client, server, svc = pool
    box = run_call(sim, call(client, "server", "svc", "gen",
                             timeout=100.0, duration=5.0))
    assert box["value"] == "slept"
    assert sim.now == pytest.approx(5.2)


def test_authorized_service_falls_back_and_enforces_auth():
    class Gate:
        def authorize(self, credential, now):
            if credential != "ok":
                raise AuthenticationError("bad credential")
            return "user"

    sim = Simulator(seed=11)
    Network(sim, latency=0.1, jitter=0.0)
    client = Host(sim, "client")
    server = Host(sim, "server")
    Inlineable(server, authorizer=Gate())
    box = run_call(sim, call(client, "server", "svc", "ping",
                             credential="nope", text="hi"))
    assert isinstance(box["error"], AuthenticationError)

    sim2 = Simulator(seed=11)
    Network(sim2, latency=0.1, jitter=0.0)
    client2 = Host(sim2, "client")
    server2 = Host(sim2, "server")
    Inlineable(server2, authorizer=Gate())
    box = run_call(sim2, call(client2, "server", "svc", "ping",
                              credential="ok", text="hi"))
    assert box["value"] == "HI"


def test_crash_before_arrival_drops_and_times_out(pool):
    sim, client, server, svc = pool
    sim.schedule(0.05, lambda: server.crash())
    box = run_call(sim, call(client, "server", "svc", "ping",
                             timeout=2.0, text="x"))
    assert isinstance(box["error"], RPCTimeout)
    assert sim.now == pytest.approx(2.0)


def test_crash_restart_in_flight_serves_via_new_instance(pool):
    sim, client, server, svc = pool
    replacement = []

    def swap():
        server.crash()
        server.restart()
        replacement.append(Inlineable(server))

    # Request leaves at t=0, arrives t=0.1; the swap happens in between,
    # so the arrival must fall back to delivering a real datagram to the
    # *new* service object -- exactly what an in-flight message would hit.
    sim.schedule(0.05, swap)
    box = run_call(sim, call(client, "server", "svc", "ping",
                             timeout=5.0, text="hi"))
    assert box["value"] == "HI"
    assert replacement[0].state["hits"] == 0  # sanity: new instance used


def test_notify_inline_is_one_way(pool):
    sim, client, server, svc = pool
    notify(client, "server", "svc", "record", data={"n": 7})
    sim.run()
    assert svc.state["data"] == {"n": 7}
    assert sim.network.sent == 1  # no response leg


def test_inline_and_real_paths_agree_on_rng_and_timing():
    """Same seed, jitter and loss: identical completion times, counters
    and outcomes whether a call runs inline or as real datagrams."""

    def one_run(method, inline):
        sim = Simulator(seed=77)
        net = Network(sim, latency=0.1, jitter=0.4, loss_rate=0.2)
        a = Host(sim, "a")
        b = Host(sim, "b")
        Inlineable(b)
        assert (_inline_plan(sim, "b", "svc", method) is not None) == inline
        events = []

        def proc():
            for i in range(20):
                try:
                    value = yield from call(a, "b", "svc", method,
                                            timeout=3.0, text=str(i))
                except RPCTimeout:
                    value = None
                events.append((sim.now, value))

        sim.spawn(proc())
        sim.run()
        return events, net.sent, net.delivered, net.dropped

    assert one_run("ping", inline=True) == one_run("ping_full", inline=False)
