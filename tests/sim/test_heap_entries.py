"""What sits in the kernel heap, and what one RPC allocates.

A process boot, the resume of a process that yielded an already-fired
event and a timer are bare :class:`~repro.sim.kernel.Entry` items: one
call and no :class:`~repro.sim.kernel.Event`.  A plain ``call`` builds
one event, its request, which is both what its caller waits on and the
heap item of whichever leg is in flight -- no entry and no closure per
call.  Every push goes through the kernel, so ``Simulator._seq`` numbers
every heap row.  Dropping cancelled rows from the heap, at once or
when they pile up, leaves the live rows and what runs unchanged.
"""

import ast
from pathlib import Path

import repro
from repro.sim import Event, Host, Network, Service, Simulator, Timeout, call
from repro.sim.kernel import Entry

SRC = Path(repro.__file__).parent


class Echo(Service):
    service_name = "svc"

    def handle_ping(self, ctx, text):
        return text.upper()


def _count_events(monkeypatch, classes=(Event, Timeout)):
    """Every Event (or instance of `classes`) built from now on, once
    each, by class name."""
    made = []
    for cls in classes:
        real = cls.__init__

        def init(self, *args, _real=real, **kw):
            if not made or made[-1] is not self:
                made.append(self)
            _real(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", init)
    return lambda: [type(ev).__name__ for ev in made]


def _items(sim):
    return [item for _t, _seq, item in sorted(sim._heap, key=lambda r: r[:2])
            if not item._cancelled]


def test_a_plain_call_builds_one_event_and_pushes_two_entries(monkeypatch):
    sim = Simulator(seed=1)
    Network(sim, latency=0.1, jitter=0.0)
    client, server = Host(sim, "client"), Host(sim, "server")
    Echo(server)
    seen = {}

    def caller():
        yield sim.timeout(1.0)
        seen["seq"] = sim._seq
        made = _count_events(monkeypatch, (Event, Timeout, Entry))
        seen["value"] = yield from call(client, "server", "svc", "ping",
                                        text="x")
        seen["made"] = made()
        seen["pushed"] = sim._seq - seen["seq"]

    client.spawn(caller())
    sim.run(until=1.05)
    [leg] = _items(sim)                     # the request, in flight
    assert type(leg).__name__ == "_Request" and isinstance(leg, Event)
    assert (leg.name, leg.triggered) == ("request", False)
    sim.run(until=1.15)
    [reply] = _items(sim)                   # the reply, in flight
    assert reply is leg and (leg.name, leg.triggered) == ("reply", False)
    assert (leg.result, leg.error) == ("X", None)
    sim.run()
    assert seen["value"] == "X" and leg.value == "X"
    assert seen["made"] == ["_Request"]     # no Entry, no other Event
    assert seen["pushed"] == 2


def test_spawn_pushes_one_entry_and_no_event(monkeypatch):
    sim = Simulator()

    def idle():
        yield sim.timeout(1.0)

    made = _count_events(monkeypatch)
    proc = sim.spawn(idle(), name="idle")
    assert made() == ["Process"]            # the process itself, only
    assert sim._seq == 1
    [boot] = _items(sim)
    assert type(boot) is Entry and boot.fn == proc._resume


def test_yielding_a_fired_event_pushes_one_entry_and_no_event(monkeypatch):
    sim = Simulator()
    done = sim.event().succeed("done")
    got = []

    def waiter():
        yield sim.timeout(1.0)
        got.append((yield done))

    sim.spawn(waiter())
    sim.run(until=0.5)                      # done has fired, nobody waited
    made = _count_events(monkeypatch, (Event, Timeout, Entry))
    seq = sim._seq
    sim.run(until=1.0)                      # the timer, then `done` yielded
    assert made() == ["Entry"] and sim._seq == seq + 1
    assert got == ["done"]


def _pushes_outside_the_kernel(tree):
    """Heap writes and ``_seq`` writes on something other than ``self``."""
    parent = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parent[child] = node
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        up = parent.get(node)
        if node.attr == "_heap":
            if not isinstance(node.ctx, ast.Load) \
                    or isinstance(up, ast.Attribute) \
                    or (isinstance(up, ast.Subscript)
                        and not isinstance(up.ctx, ast.Load)) \
                    or (isinstance(up, ast.Call) and node in up.args
                        and ast.unparse(up.func).rsplit(".", 1)[-1]
                        .startswith("heap")):
                yield node.lineno, ast.unparse(up or node)
        elif node.attr == "_seq" and not isinstance(node.ctx, ast.Load) \
                and ast.unparse(node.value) != "self":
            yield node.lineno, ast.unparse(up or node)


def test_only_the_kernel_pushes_onto_the_heap():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "sim/kernel.py":
            continue
        tree = ast.parse(path.read_text())
        found += [f"{rel}:{line}: {text}"
                  for line, text in _pushes_outside_the_kernel(tree)]
    assert found == []


def test_the_gate_sees_a_push():
    tree = ast.parse("import heapq\n"
                     "heapq.heappush(sim._heap, (0.0, 1, ev))\n"
                     "sim._heap.append(row)\n"
                     "sim._heap[0] = row\n"
                     "sim._seq += 1\n"
                     "rows = sorted(sim._heap)\n")
    assert sorted(line for line, _ in _pushes_outside_the_kernel(tree)) \
        == [2, 3, 4, 5]


class NeverCompacting(Simulator):
    """Reference kernel: tombstones stay in the heap until they pop."""

    def _note_tombstone(self) -> None:
        self._tombstones += 1


def _sim_with_tombstones(cancel_every: int = 2, n: int = 600,
                         kernel: type = Simulator) -> Simulator:
    """A simulator whose heap carries many cancelled entries."""
    sim = kernel()
    timeouts = [sim.timeout(float(10 + i)) for i in range(n)]
    for t in timeouts[::cancel_every]:
        t.cancel()
    return sim


def _live_rows(sim):
    return [(t, seq) for t, seq, item in sorted(sim._heap,
                                                key=lambda r: r[:2])
            if not item._cancelled]


def test_compact_heap_drops_tombstones():
    sim = _sim_with_tombstones()
    live = _live_rows(sim)
    dropped = sim.compact_heap()
    assert dropped == 300
    assert sim._tombstones == 0
    assert _live_rows(sim) == live and len(sim._heap) == len(live)
    assert sim.compact_heap() == 0    # idempotent


def test_compaction_is_behavior_neutral():
    """Pop order of survivors is untouched by compaction."""
    fired_a, fired_b = [], []
    a = Simulator()
    b = Simulator()
    for sim, fired in ((a, fired_a), (b, fired_b)):
        kept = []
        for i in range(40):
            ev = sim.schedule(float(5 + i),
                              (lambda t=i, f=fired: f.append(t)))
            kept.append(ev)
        for ev in kept[::3]:
            ev.cancel()
    b.compact_heap()
    a.run()
    b.run()
    assert fired_a == fired_b


def test_automatic_compaction_keeps_the_live_rows():
    """Cancel past the automatic compaction threshold and compare with a
    kernel that never compacts: the same live rows, in the same order,
    and the same end of the run."""
    compacting = _sim_with_tombstones()
    reference = _sim_with_tombstones(kernel=NeverCompacting)
    assert _live_rows(compacting) == _live_rows(reference)
    for sim in (compacting, reference):
        # >256 tombstones and a dead majority: auto-compaction fires
        for t in [sim.timeout(2000.0 + i) for i in range(600)]:
            t.cancel()
    assert compacting._tombstones < 600
    assert reference._tombstones == 900
    assert _live_rows(compacting) == _live_rows(reference)
    compacting.run()
    reference.run()
    assert compacting.now == reference.now == 609.0
    assert compacting._heap == reference._heap == []
