"""The contract of the one RPC path.

``tests/test_golden_digests.py`` pins whole-scenario digests; these
tests pin the individual semantics every request shares, whatever its
handler (plain or generator, authorized or not) -- isolation (an
immutable value crosses by reference, anything else is copied; no
service can opt out), in-flight failure windows, RNG draws and timing --
and the event budget: two kernel events per plain call and no timer
unless the call may time out.  (Test names that speak of "inline", "fall
back" or "the datagram path" date from when a second path existed; what
they check is unchanged, and they keep their names because the driver's
test floor lists them.)
"""

import pytest

from repro.sim import (
    AuthenticationError,
    Host,
    Network,
    RemoteError,
    RPCTimeout,
    Service,
    ServiceUnavailable,
    Simulator,
    call,
    notify,
)
from repro.sim.fastcopy import FrozenDict


class Gate:
    """Authorizer: "ok" maps to a principal until `expires`."""

    def __init__(self, expires=float("inf")):
        self.expires = expires

    def authorize(self, credential, now):
        if credential != "ok" or now >= self.expires:
            raise AuthenticationError("bad or expired credential")
        return "user"


class Inlineable(Service):
    service_name = "svc"

    def __init__(self, host, **kw):
        super().__init__(host, **kw)
        self.state = {"hits": 0}
        self.last_results = []
        self.pings = 0

    def handle_ping(self, ctx, text):
        self.sim.trace.log("svc", "served", text=text)
        self.pings += 1
        return text.upper()

    def handle_ping_full(self, ctx, text):
        # Generator twin of ping: same reply, finished by a process.
        self.sim.trace.log("svc", "served", text=text)
        self.pings += 1
        return text.upper()
        yield

    def handle_ping_lazy(self, ctx, text):
        # Plain handler whose result is a generator.
        return self.handle_ping_full(ctx, text)

    def handle_whoami(self, ctx):
        return ctx.principal

    def handle_boom(self, ctx):
        raise ValueError("kaboom")

    def handle_state(self, ctx):
        # Aliases server state: must reach the caller as a copy.
        self.state["hits"] += 1
        return self.state

    def handle_built(self, ctx, frozen):
        # Built per call, aliasing nothing -- which the wire cannot know.
        result = {"built": "per-call"}
        if frozen:
            result = FrozenDict(result)
        self.last_results.append(result)
        return result

    def handle_record(self, ctx, data):
        self.state["data"] = data

    def handle_gen(self, ctx, duration):
        yield self.sim.timeout(duration)
        return "slept"

    def handle_lazy(self, ctx, duration):
        # A plain handler, yet its result is a generator.
        return self.handle_gen(ctx, duration)


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


def test_result_aliasing_server_state_is_copied(pool):
    sim, client, server, svc = pool
    box = run_call(sim, call(client, "server", "svc", "state"))
    assert box["value"] == {"hits": 1}
    box["value"]["hits"] = 99
    assert svc.state["hits"] == 1  # caller got an isolated copy


def test_immutable_result_crosses_by_reference_a_mutable_one_is_copied(pool):
    sim, client, server, svc = pool
    frozen = run_call(sim, call(client, "server", "svc", "built",
                                frozen=True))["value"]
    plain = run_call(sim, call(client, "server", "svc", "built",
                               frozen=False))["value"]
    assert frozen == plain == {"built": "per-call"}
    # The immutable value is the very object the handler built -- and the
    # caller cannot change it; the plain dict is the caller's own copy,
    # however freshly the handler built it.
    assert frozen is svc.last_results[0]
    with pytest.raises(TypeError):
        frozen["built"] = "by the caller"
    assert plain is not svc.last_results[1]
    plain["built"] = "by the caller"
    assert svc.last_results[1] == {"built": "per-call"}


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


def test_plain_handler_returning_a_generator_is_drained(pool):
    sim, client, server, svc = pool
    seen = {}

    def caller():
        seen["value"] = yield from call(client, "server", "svc", "lazy",
                                        timeout=100.0, duration=5.0)
        seen["at"] = sim.now
        seen["heap"] = [ev for _t, _s, ev in sim._heap if not ev._cancelled]

    client.spawn(caller())
    notify(client, "server", "svc", "lazy", duration=1.0)   # no reply leg
    sim.run()
    assert (seen["value"], seen["at"]) == ("slept", pytest.approx(5.2))
    assert seen["heap"] == []            # the 100 s timer was retired
    assert sim.network.sent == 3


def test_authorized_service_falls_back_and_enforces_auth(pool):
    sim, client, server, svc = pool
    svc.authorizer = Gate()
    box = run_call(sim, call(client, "server", "svc", "ping",
                             credential="nope", text="hi"))
    assert isinstance(box["error"], AuthenticationError)
    box = run_call(sim, call(client, "server", "svc", "ping",
                             credential="ok", text="hi"))
    assert box["value"] == "HI"
    # ... and the mapped principal is in the handler's context.
    box = run_call(sim, call(client, "server", "svc", "whoami",
                             credential="ok"))
    assert box["value"] == "user"


@pytest.mark.parametrize("method", ["ping", "ping_full"])
def test_credential_is_judged_at_arrival_not_at_send(pool, method):
    """A proxy that expires while the request is in flight is refused."""
    sim, client, server, svc = pool
    svc.authorizer = Gate(expires=0.05)      # sent at 0, lands at 0.1
    box = run_call(sim, call(client, "server", "svc", method,
                             credential="ok", text="hi"))
    assert isinstance(box["error"], AuthenticationError)
    assert sim.trace.select("svc", "served") == []
    assert sim.now == pytest.approx(0.2)     # refused by reply, no timeout


@pytest.mark.parametrize("authorizer", [None, Gate()], ids=["open", "gsi"])
def test_unknown_method_is_a_typed_error(pool, authorizer):
    sim, client, server, svc = pool
    svc.authorizer = authorizer
    box = run_call(sim, call(client, "server", "svc", "nosuch",
                             credential="ok"))
    assert isinstance(box["error"], ServiceUnavailable)
    assert sim.now == pytest.approx(0.2)


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
    # so the arrival finds the *new* service object registered under the
    # name -- exactly what an in-flight message would hit.
    sim.schedule(0.05, swap)
    box = run_call(sim, call(client, "server", "svc", "state", timeout=5.0))
    assert box["value"] == {"hits": 1}
    assert replacement[0].state["hits"] == 1    # the new instance served
    assert svc.state["hits"] == 0               # the dead one never did


def test_notify_inline_is_one_way(pool):
    sim, client, server, svc = pool
    notify(client, "server", "svc", "record", data={"n": 7})
    sim.run()
    assert svc.state["data"] == {"n": 7}
    assert sim.network.sent == 1  # no response leg


def test_inline_and_real_paths_agree_on_rng_and_timing():
    """Same seed, jitter and loss: identical completion times, counters
    and outcomes whatever kind of handler serves the call."""

    def one_run(method, authorizer):
        sim = Simulator(seed=77)
        net = Network(sim, latency=0.1, jitter=0.4, loss_rate=0.2)
        a = Host(sim, "a")
        b = Host(sim, "b")
        Inlineable(b, authorizer=authorizer)
        events = []

        def proc():
            for i in range(20):
                try:
                    value = yield from call(a, "b", "svc", method,
                                            timeout=3.0, credential="ok",
                                            text=str(i))
                except RPCTimeout:
                    value = None
                events.append((sim.now, value))

        sim.spawn(proc())
        sim.run()
        return events, net.sent, net.delivered, net.dropped

    first, *others = [one_run(*variant) for variant in VARIANTS.values()]
    assert any(value is None for _t, value in first[0])   # some were lost
    assert all(other == first for other in others)


# -- failure windows: every kind of handler -------------------------------------
#
# One call leaves "client" at T0 over 0.1 s legs with a 2 s timeout while
# `disturb` breaks something.  Whatever serves it, the outcome, when the
# caller learns it and how often the handler ran are what WINDOWS says,
# and the network counters and the final clock agree across handlers.

VARIANTS = {
    # name: (method, authorizer)
    "plain": ("ping", None),
    "generator": ("ping_full", None),
    "authorized-plain": ("ping", Gate()),
    "authorized-generator": ("ping_full", Gate()),
    "plain-returning-a-generator": ("ping_lazy", None),
}

T0 = 0.3
TIMEOUT = 2.0


def _partition(at, heal_at=None):
    def disturb(sim, net, client, server):
        sim.schedule(at, lambda: net.partition("client", "server"), at=at)
        if heal_at is not None:
            sim.schedule(0, lambda: net.heal("client", "server"), at=heal_at)
    return disturb


def _crash(host_name, at, restart=False):
    def disturb(sim, net, client, server):
        host = {"client": client, "server": server}[host_name]

        def act():
            authorizer = server.services["svc"].authorizer
            host.crash()
            if restart:
                host.restart()
                Inlineable(host, authorizer=authorizer)
        sim.schedule(0, act, at=at)
    return disturb


def _slow_link(at):
    def disturb(sim, net, client, server):
        sim.schedule(
            0, lambda: net.set_link_latency("client", "server", 3.0), at=at)
    return disturb


WINDOWS = {
    # name: (disturb, outcome, caller learns at, handler runs)
    "drop-at-sender": (_partition(0.0), "timeout", T0 + TIMEOUT, 0),
    "partition-on-request-leg": (
        _partition(T0 + 0.05), "timeout", T0 + TIMEOUT, 0),
    "partition-on-reply-leg": (
        _partition(T0 + 0.15), "timeout", T0 + TIMEOUT, 1),
    "partition-healed-before-arrival": (
        _partition(T0 + 0.02, heal_at=T0 + 0.08), "HI", T0 + 0.1 + 0.1, 1),
    "callee-crash-on-request-leg": (
        _crash("server", T0 + 0.05), "timeout", T0 + TIMEOUT, 0),
    "callee-crash-between-legs": (
        _crash("server", T0 + 0.15), "HI", T0 + 0.1 + 0.1, 1),
    "callee-restart-in-flight": (
        _crash("server", T0 + 0.05, restart=True), "HI", T0 + 0.1 + 0.1, 1),
    "caller-crash-after-send": (
        _crash("client", T0 + 0.05), None, None, 1),
    "caller-restart-in-flight": (
        _crash("client", T0 + 0.05, restart=True), None, None, 1),
    "slow-request-leg": (_slow_link(0.0), "timeout", T0 + TIMEOUT, 1),
    "slow-reply-leg": (_slow_link(T0 + 0.05), "timeout", T0 + TIMEOUT, 1),
}


def run_window(variant, disturb):
    method, authorizer = VARIANTS[variant]
    sim = Simulator(seed=5)
    net = Network(sim, latency=0.1, jitter=0.0)
    client = Host(sim, "client")
    server = Host(sim, "server")
    Inlineable(server, authorizer=authorizer)
    seen = {"outcome": None, "at": None}

    def caller():
        yield sim.timeout(T0)
        try:
            seen["outcome"] = yield from call(
                client, "server", "svc", method, timeout=TIMEOUT,
                credential="ok", text="hi")
        except RPCTimeout:
            seen["outcome"] = "timeout"
        seen["at"] = sim.now

    client.spawn(caller())       # bound to the host: dies with it
    disturb(sim, net, client, server)
    sim.run()
    return (seen["outcome"], seen["at"],
            len(sim.trace.select("svc", "served")),
            (net.sent, net.delivered, net.dropped), sim.now)


@pytest.mark.parametrize("window", sorted(WINDOWS))
def test_failure_window_matches_the_datagram_path(window):
    disturb, outcome, learned_at, served = WINDOWS[window]
    runs = {variant: run_window(variant, disturb) for variant in VARIANTS}
    # What the protocol promises: the timeout exactly T0 + TIMEOUT after
    # the send, the handler at most once, a crashed caller never resumed
    # ...
    assert {v: run[:3] for v, run in runs.items()} \
        == dict.fromkeys(VARIANTS, (outcome, learned_at, served))
    # ... and the same legs counted, and the same last event, whoever
    # served the call.
    assert all(run[3:] == runs["plain"][3:] for run in runs.values())


def test_late_reply_is_counted_and_discarded():
    """Leg latency past the deadline: the caller times out on time, the
    request still runs, and the reply that lands later resumes nobody."""
    outcome, at, served, counters, end = run_window("plain", _slow_link(0.0))
    assert (outcome, at, served) == ("timeout", T0 + TIMEOUT, 1)
    assert counters == (2, 2, 0)         # both legs delivered
    assert end == T0 + 3.0 + 3.0         # the reply did land, at 6.3


# -- event budget ---------------------------------------------------------------

def _budget(sim, client, method, n=50, **kw):
    """(heap entries pushed by n calls, heap the caller resumes to)."""
    seen = {}

    def caller():
        seen["seq"] = sim._seq
        for i in range(n):
            yield from call(client, "server", "svc", method, **kw)
        seen["pushed"] = sim._seq - seen["seq"]
        seen["heap"] = list(sim._heap)

    client.spawn(caller())
    sim.run()
    return seen["pushed"], seen["heap"]


def test_successful_inline_calls_cost_two_events_and_no_timer(pool):
    sim, client, server, svc = pool
    pushed, heap = _budget(sim, client, "ping", text="x")
    assert pushed == 2 * 50              # request arrival + reply arrival
    assert heap == []                    # no timer, live or cancelled


def test_authorized_calls_cost_two_events_and_no_timer(pool):
    sim, client, server, svc = pool
    svc.authorizer = Gate()
    pushed, heap = _budget(sim, client, "ping", credential="ok", text="x")
    assert (pushed, heap) == (2 * 50, [])


@pytest.mark.parametrize("authorizer", [None, Gate()], ids=["open", "gsi"])
def test_generator_handler_call_leaves_no_live_timer(pool, authorizer):
    sim, client, server, svc = pool
    svc.authorizer = authorizer
    pushed, heap = _budget(sim, client, "gen", n=1, timeout=100.0,
                           credential="ok", duration=5.0)
    # Request arrival, the timer armed at the spawn, the process's boot,
    # its sleep, its end, the reply arrival.
    assert pushed == 6
    assert [ev for _t, _s, ev in heap if not ev._cancelled] == []
    assert sim.now == pytest.approx(5.2)     # ... and nothing held the clock


def test_notify_costs_one_event(pool):
    sim, client, server, svc = pool
    before = sim._seq
    for i in range(20):
        notify(client, "server", "svc", "record", data=i)
    sim.run()
    assert sim._seq - before == 20       # the arrivals, nothing else
    assert svc.state["data"] == 19


def test_service_replaced_in_flight_is_served_once_by_the_new_instance():
    """Crash + restart between send and arrival: the request is served,
    once, by whatever is registered under the name when it lands; the
    call leaves no live timer behind when the response wins and times
    out on time when it is lost."""
    for method, lose_response in [("ping", False), ("ping", True),
                                  ("ping_full", False), ("ping_full", True)]:
        sim = Simulator(seed=11)
        net = Network(sim, latency=0.1, jitter=0.0)
        client, server = Host(sim, "client"), Host(sim, "server")
        old = Inlineable(server)
        _crash("server", 0.05, restart=True)(sim, net, client, server)
        if lose_response:
            _partition(0.15)(sim, net, client, server)
        seen = {}

        def caller():
            try:
                seen["outcome"] = yield from call(
                    client, "server", "svc", method, timeout=2.0, text="hi")
            except RPCTimeout:
                seen["outcome"] = "timeout"
            seen["live"] = [ev for _t, _s, ev in sim._heap
                            if not ev._cancelled]

        client.spawn(caller())
        sim.run()
        new = server.services["svc"]
        assert new is not old and (old.pings, new.pings) == (0, 1)
        assert seen["outcome"] == ("timeout" if lose_response else "HI")
        assert seen["live"] == []
        assert sim.now == (2.0 if lose_response else pytest.approx(0.2))


def test_notify_without_a_network_raises_like_call():
    sim = Simulator(seed=1)
    lonely = Host(sim, "lonely")
    with pytest.raises(RuntimeError, match="simulation has no Network"):
        notify(lonely, "nowhere", "svc", "record", data=1)
    with pytest.raises(RuntimeError, match="simulation has no Network"):
        next(call(lonely, "nowhere", "svc", "ping", text="x"))
