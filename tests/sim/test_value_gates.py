"""Gates on the value contract (``repro.sim.fastcopy``).

Three ways the contract erodes without any test noticing: a module
starts copying on its own (a second boundary, or a private opt-out), an
undeclared type is sent where its refusal is swallowed (a refused reply
reaches its caller as a ``RemoteError`` a daemon may treat as a lost
answer), or a handler parameter has no declared type.  The first and
the last are gated by reading the source, the second by running the
shapes the suite benchmarks and four scenarios while every refusal is
recorded.  (Test names that speak of "the fallback" date from when an
undeclared type was deep-copied instead of refused.)  The last tests pin
that a sealed ClassAd is a value type: sealed ads, and a tuple or a
``FrozenDict`` of them, cross by reference with no ``freeze`` call per ad.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.chaos.invariants import evaluate_invariants
from repro.classads import ClassAd, Literal, SealedClassAd
from repro.chaos.runner import build_and_run
from repro.grid.scenarios import get_scenario, multiuser_gram_grid, \
    scale_glidein_grid, scale_gram_grid
from repro.condor import Schedd
from repro.sim import Host, Network, Simulator, fastcopy, rpc

from ..test_golden_digests import _open_payloads

SRC = Path(repro.__file__).resolve().parent


def _callers(name: str) -> set:
    """Source files under ``src/repro`` with a call to ``name(...)`` or
    ``<anything>.name(...)``."""
    found = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                found.add(path.relative_to(SRC).as_posix())
    return found


def test_only_the_boundaries_copy_and_nothing_opts_out():
    assert _callers("fast_deepcopy") == {"sim/hosts.py", "sim/rpc.py"}
    assert _callers("deepcopy") == set()
    assert "import copy" not in (SRC / "sim" / "fastcopy.py").read_text()
    assert [path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
            if "rpc_fresh_results" in path.read_text()] == []


def _services() -> set:
    """Every ``Service`` subclass defined under ``src/repro``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found, todo = set(), [rpc.Service]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro."):
                found.add(sub)
    return found


def test_every_handler_parameter_is_annotated():
    """A handler's signature is the contract of what may cross into it:
    every parameter after ``ctx`` says what its senders pass."""
    handlers, missing = 0, []
    for cls in _services():
        for name, fn in vars(cls).items():
            if not name.startswith("handle_"):
                continue
            handlers += 1
            params = list(inspect.signature(fn).parameters.values())[2:]
            missing += [f"{cls.__name__}.{name}({param.name})"
                        for param in params
                        if param.annotation is inspect.Parameter.empty]
    assert handlers == 48     # a handler added or deleted is counted here
    assert missing == []


# -- nothing benchmarked sends an undeclared type -----------------------------

@pytest.fixture
def no_fallback(monkeypatch):
    """Record every refusal of an undeclared type, wherever it was
    caught, and fail the test at its end if there was one."""
    refused, real = set(), fastcopy.freeze

    def watched(obj):
        try:
            return real(obj)
        except TypeError as exc:
            refused.add(str(exc))
            raise

    monkeypatch.setattr(fastcopy, "freeze", watched)
    yield
    assert refused == set(), "declare it immutable (repro.sim.fastcopy) " \
        "or send plain containers"


def _drain(tb, cap: float = 40_000.0):
    while tb.sim.now < cap and _open_payloads(tb):
        tb.run(until=tb.sim.now + 1000.0)
    assert _open_payloads(tb) == 0, "jobs unfinished at the cap"
    return tb


def _multiuser_refused():
    """Per-user caps are learned from the first answer and never hit; the
    machine-wide cap (5 < 6 users x 2) is what refuses here, so the
    refused shape of the phase-1 answer crosses the wire."""
    tb = multiuser_gram_grid(seed=3, users=6, jobs_per_user=8, n_sites=2,
                             cpus=6, max_user_jobmanagers=2)
    for site in tb.sites.values():
        site.gatekeeper.max_jobmanagers = 5
    return tb


SHAPES = {
    "gram-polled": lambda: scale_gram_grid(
        seed=3, jobs=60, n_sites=3, cpus=10),
    "gram-monitored": lambda: scale_gram_grid(
        seed=3, jobs=60, n_sites=3, cpus=10, grid_monitor=True),
    "glidein-pool-negotiated": lambda: scale_glidein_grid(
        seed=3, jobs=80, n_sites=2, glideins_per_site=8),
    "multiuser-refusals": _multiuser_refused,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_benchmarked_shapes_never_reach_the_fallback(no_fallback, shape):
    tb = _drain(SHAPES[shape]())
    if shape == "multiuser-refusals":
        submits = tb.sim.metrics.get("gatekeeper.submits")
        assert any(submits.labelled(label) for label in submits.labels
                   if label.startswith("rejected"))


@pytest.mark.parametrize("seed", [0, 1])
def test_gsi_mds_streaming_under_faults_never_reaches_the_fallback(
        no_fallback, seed):
    # quickstart: GSI on every gatekeeper call, MDS registration and
    # broker queries, stdout streamed to the submit machine's GASS
    # server -- under the seed-drawn fault plan the chaos runner applies.
    tb, plan = build_and_run("quickstart", seed)
    assert plan.events and evaluate_invariants(tb) == []


@pytest.mark.parametrize(
    "scenario", ["quickstart", "credential", "pool-reuse", "data-cms"])
def test_scenarios_never_reach_the_fallback(no_fallback, scenario):
    tb = get_scenario(scenario).build(1)
    tb.run(until=4000.0)
    assert _open_payloads(tb) == 0


def _counted_freezes(monkeypatch):
    """A one-item list that counts every ``freeze`` call from now on."""
    count, real = [0], fastcopy.freeze

    def counted(obj):
        count[0] += 1
        return real(obj)

    monkeypatch.setattr(fastcopy, "freeze", counted)
    return count


def test_a_monitor_report_crosses_with_zero_structural_copies(
        no_fallback, monkeypatch):
    """A report is a value: whatever the batch holds, sending it freezes
    the one argument of the call that is not an atom -- by reference --
    and nothing below it."""
    crossings, real_init = [], rpc._Request.__init__
    freezes = _counted_freezes(monkeypatch)

    def counted_init(self, src, dst, service, method, credential, args,
                     deadline):
        if method != "monitor_report":
            return real_init(self, src, dst, service, method, credential,
                             args, deadline)
        reports, before = args["reports"], freezes[0]
        real_init(self, src, dst, service, method, credential, args,
                  deadline)
        crossings.append((freezes[0] - before, len(reports),
                          self.args["reports"] is reports))

    monkeypatch.setattr(rpc._Request, "__init__", counted_init)
    tb = _drain(SHAPES["gram-monitored"]())
    assert tb.sim.metrics.counter("gridmanager.monitor_reports").value > 20
    sizes = {size for _freezes, size, _same in crossings}
    assert len(crossings) > 20 and max(sizes) >= 10 and len(sizes) > 3
    assert {n for n, _size, _same in crossings} == {1}
    assert all(same for _freezes, _size, same in crossings)


# -- a sealed ClassAd is a value type -----------------------------------------

class _Echo(rpc.Service):
    service_name = "echo"

    def __init__(self, host):
        super().__init__(host)
        self.got = []

    def handle_echo(self, ctx, value: object) -> object:
        self.got.append(value)
        return value


def _ask(sim, src, dst, service, method, **args):
    """The answer to one real RPC from `src`, run to quiescence."""
    answers = []

    def asking():
        answers.append((yield from rpc.call(src, dst, service, method,
                                            **args)))

    src.spawn(asking(), name="ask")
    sim.run()
    return answers[0]


def _echo_pair():
    sim = Simulator(seed=1)
    Network(sim, latency=0.01, jitter=0.0)
    client, server = Host(sim, "client"), Host(sim, "server")
    return sim, client, _Echo(server)


def test_a_list_of_sealed_ads_crosses_by_reference(monkeypatch):
    """One ``freeze`` call per crossing, however many ads: the list
    becomes a tuple of the very ads sent, and the answer is that tuple."""
    freezes = _counted_freezes(monkeypatch)
    calls = []
    for n in (10, 1000):
        sim, client, echo = _echo_pair()
        ads = [ClassAd({"Name": f"slot{i}", "Memory": i}).seal()
               for i in range(n)]
        before = freezes[0]
        back = _ask(sim, client, "server", "echo", "echo", value=ads)
        calls.append(freezes[0] - before)
        [got] = echo.got
        assert type(got) is tuple and len(got) == n
        assert all(a is b for a, b in zip(got, ads))
        assert back is got
    assert calls[0] == calls[1] <= 2


def test_an_idle_jobs_answer_crosses_by_reference(monkeypatch):
    answers, real = [], Schedd.handle_get_idle_jobs

    def recorded(self, ctx):
        answers.append(real(self, ctx))
        return answers[-1]

    monkeypatch.setattr(Schedd, "handle_get_idle_jobs", recorded)
    freezes = _counted_freezes(monkeypatch)
    calls = []
    for n in (10, 1000):
        sim = Simulator(seed=1)
        Network(sim, latency=0.01, jitter=0.0)
        schedd = Schedd(Host(sim, "submit"))
        ids = [schedd.submit_simple("alice", runtime=10.0)
               for _ in range(n)]
        before = freezes[0]
        got = _ask(sim, Host(sim, "cm"), "submit", "schedd",
                   "get_idle_jobs")
        calls.append(freezes[0] - before)
        assert got is answers[-1] and list(got) == ids
        assert all(ad is schedd.status(jid).ad for jid, ad in got.items())
    assert calls[0] == calls[1] <= 1


def test_an_unsealed_ad_crosses_as_a_sealed_copy():
    sim, client, echo = _echo_pair()
    builder = ClassAd({"Name": "slot1"})
    back = _ask(sim, client, "server", "echo", "echo", value=builder)
    [got] = echo.got
    assert got is not builder and str(got) == str(builder)
    assert type(got) is SealedClassAd and back is got
    builder["Memory"] = 64                  # the sender's stays editable
    assert type(builder) is ClassAd and got.lookup("Memory") is None


def test_a_sealed_ad_refuses_every_mutator():
    ad = ClassAd({"Name": "slot1"}).seal()
    assert type(ad) is SealedClassAd and ad.seal() is ad
    for mutate in (lambda: ad.__setitem__("Memory", 1),
                   lambda: ad.set_expr("Memory", Literal(1)),
                   lambda: ad.set_expression("Memory", "1"),
                   lambda: ad.update(ClassAd({"Memory": 1}))):
        with pytest.raises(TypeError, match="sealed"):
            mutate()
    assert str(ad) == "[ Name = \"slot1\" ]"
    edited = ad.copy()
    edited["Memory"] = 1
    assert type(edited) is ClassAd and ad.lookup("Memory") is None
