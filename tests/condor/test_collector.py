"""Collector tests: expiry reaping, query answers, the parse memo, the
advertise door."""

import random

import pytest

from repro import GridTestbed, JobDescription
from repro.classads import ClassAd, EvalContext, is_true, parse
from repro.condor import Collector
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig
from repro.mds.schema import GRID_ADTYPE
from repro.sim import Host, Network, RemoteError, Simulator, call


def make_collector():
    sim = Simulator(seed=7)
    Network(sim, latency=0.02, jitter=0.0)
    host = Host(sim, "cm")
    return sim, Collector(host)


def reaped(sim) -> int:
    """Ads the Collector on ``cm`` reaped, from its ``reap`` records."""
    return sum(rec.details["count"]
               for rec in sim.trace.select("collector:cm", "reap"))


def ad(name, **attrs):
    out = ClassAd()
    out["Name"] = name
    for key, value in attrs.items():
        out[key] = value
    return out


def advance(sim, until):
    sim.run(until=until)


# -- expiry reaping -----------------------------------------------------------

def test_expired_ads_are_reaped_not_just_filtered():
    sim, coll = make_collector()
    for i in range(5):
        coll.handle_advertise(None, "startd", ad(f"s{i}"))
    assert len(coll._ads) == 5
    advance(sim, 250.0)
    # any registry touch past the soonest expiry sweeps the dead ads
    coll.handle_advertise(None, "startd", ad("fresh"))
    assert len(coll._ads) == 1
    assert reaped(sim) == 5
    assert sim.metrics.counter("collector.expired_reaped").value == 5


def test_reap_triggers_on_query_too():
    sim, coll = make_collector()
    coll.handle_advertise(None, "startd", ad("s0"))
    advance(sim, 200.0)
    assert coll.handle_query(None, "startd") == []
    assert len(coll._ads) == 0
    assert reaped(sim) == 1


def test_renewal_prevents_reaping():
    sim, coll = make_collector()
    coll.handle_advertise(None, "startd", ad("s0"))
    advance(sim, 150.0)
    coll.handle_advertise(None, "startd", ad("s0"))   # renew
    advance(sim, 250.0)                               # past first expiry
    assert len(coll.handle_query(None, "startd")) == 1
    assert reaped(sim) == 0


# -- answers against a reference scan ------------------------------------------

STATES = ("Unclaimed", "Claimed", "Busy")
ARCHES = ("INTEL", "SPARC", "ALPHA")

CONSTRAINTS = (
    'State == "Unclaimed"',
    'State == "unclaimed"',            # string eq is case-insensitive
    '"Claimed" == State',              # literal on the left
    'Arch == "INTEL"',
    "Mips == 100",
    "HasCache == true",                # bool/number coercion
    "HasCache == 1",
    'State == "Unclaimed" && Mips > 50',
    "Mips > 150",
    "true",
    'Missing == "nope"',
)


def randomized_ads(rng, n):
    out = []
    for i in range(n):
        extra = {}
        roll = rng.random()
        if roll < 0.2:
            pass                         # no State attribute at all
        elif roll < 0.3:
            extra["State"] = rng.choice(STATES).lower()   # odd case
        else:
            extra["State"] = rng.choice(STATES)
        if rng.random() < 0.1:
            # an attribute that is an expression, not a literal
            a = ad(f"m{i:03d}", Arch=rng.choice(ARCHES),
                   Mips=rng.choice((50, 100, 200)), **extra)
            a.set_expression("HasCache", "Mips > 99")
            out.append(a)
            continue
        extra["HasCache"] = rng.choice((True, False, 1, 0))
        out.append(ad(f"m{i:03d}", Arch=rng.choice(ARCHES),
                      Mips=rng.choice((50, 100, 200)), **extra))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_query_matches_reference_scan_on_random_ads(seed):
    """Answers are every ad of the asked type that satisfies the
    constraint, in name order, whatever the advertise order; an ad of
    another type under the same name never leaks in."""
    rng = random.Random(seed)
    registry = {"startd": randomized_ads(rng, 60),
                "submitter": randomized_ads(rng, 20)}
    adverts = [(adtype, a) for adtype, ads in registry.items() for a in ads]
    rng.shuffle(adverts)

    sim, coll = make_collector()
    for adtype, a in adverts:
        coll.handle_advertise(None, adtype, a)
    for adtype, ads in registry.items():
        in_name_order = sorted(ads, key=lambda a: a.get("Name"))
        for constraint in CONSTRAINTS:
            expr = parse(constraint)
            expected = [a for a in in_name_order
                        if is_true(expr.eval(EvalContext(my=a)))]
            got = coll.handle_query(None, adtype, constraint)
            assert [id(a) for a in got] == [id(a) for a in expected], \
                (adtype, constraint)


def test_answers_follow_updates_and_invalidation():
    sim, coll = make_collector()
    coll.handle_advertise(None, "startd", ad("a", State="Unclaimed"))
    coll.handle_advertise(None, "startd", ad("b", State="Claimed"))
    q = lambda: [m.get("Name") for m in
                 coll.handle_query(None, "startd", 'State == "Unclaimed"')]
    assert q() == ["a"]
    # a re-advertise replaces the ad the next answer is drawn from
    coll.handle_advertise(None, "startd", ad("b", State="Unclaimed"))
    assert q() == ["a", "b"]
    coll.handle_invalidate(None, "startd", "a")
    assert q() == ["b"]


# -- parse memo ----------------------------------------------------------------

def _memo_counts():
    info = parse.cache_info()
    return info.hits, info.misses


def test_constraint_parse_is_memoised_by_text():
    sim, coll = make_collector()
    coll.handle_advertise(None, "startd", ad("s0", State="Unclaimed"))
    # texts no other test parses, so the first sight is a miss
    hits, misses = _memo_counts()
    coll.handle_query(None, "startd", 'State == "memo-test"')
    assert _memo_counts() == (hits, misses + 1)
    for _ in range(3):
        coll.handle_query(None, "startd", 'State == "memo-test"')
    assert _memo_counts() == (hits + 3, misses + 1)
    coll.handle_query(None, "startd", "Mips > 12345")
    assert _memo_counts() == (hits + 3, misses + 2)


# -- the advertise door ----------------------------------------------------------

@pytest.mark.parametrize("adtype, forged", [
    ("submitter", {"Name": "evil", "ScheddHost": "mallory"}),
    ("startd", {"Name": "evil", "ScheddHost": "mallory"}),
    (7, ClassAd({"Name": "evil"})),
], ids=["dict-submitter", "dict-startd", "int-adtype"])
def test_a_malformed_advertisement_is_refused_at_the_door(adtype, forged):
    """A foreign host's plain-dict ad used to be kept: as a submitter ad
    it failed every later negotiation cycle and left the pool's job
    idle; as a startd ad it was answered with an error but stored
    anyway.  An ad type that is not a str was kept as well."""
    tb = GridTestbed(TestbedConfig(seed=21))
    tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=4))
    agent = tb.add_agent(AgentSpec("alice"))
    agent.glide_in("wisc-gk", count=1, walltime=50000.0)
    job = agent.submit(JobDescription(runtime=100.0, universe="vanilla"))
    mallory = Host(tb.sim, "mallory")
    box = {}

    def forge():
        try:
            box["value"] = yield from call(
                mallory, agent.host.name, "collector", "advertise",
                adtype=adtype, ad=forged, ttl=1e9)
        except RemoteError as exc:
            box["error"] = exc

    mallory.spawn(forge(), "forge")
    tb.run(until=3000.0)
    error = box.get("error")
    assert isinstance(error, RemoteError) and error.kind == "TypeError", box
    assert (adtype, "evil") not in agent.collector._ads
    assert tb.sim.metrics.counter("negotiator.cycle_errors").value == 0
    assert agent.status(job).is_complete


_BAD_TTLS = [float("nan"), float("inf"), 0.0, -5.0, True, "60"]


@pytest.mark.parametrize("ttl", _BAD_TTLS, ids=repr)
def test_a_ttl_that_is_not_a_finite_positive_number_is_refused(ttl):
    """A NaN ttl used to make an ad immortal -- never reaped, in every
    answer, and every later touch rescanned the registry -- and a zero
    one silently became the default.  A site's ``Grid`` ad on the MDS
    index is refused the same as a startd's."""
    sim, coll = make_collector()
    coll.handle_advertise(None, "startd", ad("s0"), ttl=60)
    before = (dict(coll._ads), coll._soonest_expiry)
    client = Host(sim, "client")
    box = {}

    def advertise():
        for adtype in ("startd", GRID_ADTYPE):
            try:
                box[adtype] = yield from call(
                    client, "cm", "collector", "advertise",
                    adtype=adtype, ad=ad("s1"), ttl=ttl)
            except RemoteError as exc:
                box[adtype] = exc

    client.spawn(advertise(), "advertise")
    sim.run(until=1.0)
    for adtype in ("startd", GRID_ADTYPE):
        error = box.get(adtype)
        assert isinstance(error, RemoteError) and \
            error.kind == "ValueError", box
    assert (dict(coll._ads), coll._soonest_expiry) == before
    assert coll.handle_advertise(None, "startd", ad("s1"))    # None: default
    assert coll._ads[("startd", "s1")][1] == sim.now + coll.DEFAULT_TTL
