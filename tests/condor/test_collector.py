"""Collector tests: expiry reaping, indexed queries, the parse memo."""

import random

import pytest

from repro.classads import ClassAd, EvalContext, is_true, parse
from repro.condor import Collector
from repro.sim import Host, Network, Simulator


def make_collector(default_ttl=180.0):
    sim = Simulator(seed=7)
    Network(sim, latency=0.02, jitter=0.0)
    host = Host(sim, "cm")
    return sim, Collector(host, default_ttl=default_ttl)


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
    sim, coll = make_collector(default_ttl=100.0)
    for i in range(5):
        coll.handle_advertise(None, "startd", ad(f"s{i}"))
    assert len(coll._ads) == 5
    advance(sim, 250.0)
    # any registry touch past the soonest expiry sweeps the dead ads
    coll.handle_advertise(None, "startd", ad("fresh"))
    assert len(coll._ads) == 1
    assert coll.expired_reaped == 5
    assert sim.metrics.counter("collector.expired_reaped").value == 5


def test_reap_triggers_on_query_too():
    sim, coll = make_collector(default_ttl=50.0)
    coll.handle_advertise(None, "startd", ad("s0"))
    advance(sim, 200.0)
    assert coll.handle_query(None, "startd") == []
    assert len(coll._ads) == 0
    assert coll.expired_reaped == 1


def test_renewal_prevents_reaping():
    sim, coll = make_collector(default_ttl=100.0)
    coll.handle_advertise(None, "startd", ad("s0"))
    advance(sim, 80.0)
    coll.handle_advertise(None, "startd", ad("s0"))   # renew
    advance(sim, 150.0)                               # past first expiry
    assert len(coll.handle_query(None, "startd")) == 1
    assert coll.expired_reaped == 0


#: one constraint per query mode: answered by a full scan / from the index
QUERY_MODES = ("true", 'State == "x"')


def test_reaping_is_mode_independent():
    for constraint in QUERY_MODES:
        sim, coll = make_collector(default_ttl=60.0)
        for i in range(4):
            coll.handle_advertise(None, "startd", ad(f"s{i}"))
        advance(sim, 200.0)
        coll.handle_query(None, "startd", constraint)
        assert coll.expired_reaped == 4, constraint


# -- indexed vs scan equivalence ----------------------------------------------

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
    'State == "Unclaimed" && Mips > 50',   # not an eq pattern: full scan
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
            # non-literal attribute: lands in the residual set
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
def test_indexed_query_matches_full_scan_on_random_ads(seed):
    rng = random.Random(seed)
    ads = randomized_ads(rng, 60)

    sim, coll = make_collector()
    for a in ads:
        coll.handle_advertise(None, "startd", a)
    for constraint in CONSTRAINTS:
        # the reference: evaluate the constraint against every live ad
        expr = parse(constraint)
        full_scan = [a.get("Name") for a in coll.live_ads("startd")
                     if is_true(expr.eval(EvalContext(my=a, now=sim.now)))]
        got = [m.get("Name")
               for m in coll.handle_query(None, "startd", constraint)]
        assert got == full_scan, constraint
    assert coll.indexed_queries and coll.scanned_queries


def test_index_tracks_updates_and_invalidation():
    sim, coll = make_collector()
    coll.handle_advertise(None, "startd", ad("a", State="Unclaimed"))
    coll.handle_advertise(None, "startd", ad("b", State="Claimed"))
    q = lambda: [m.get("Name") for m in
                 coll.handle_query(None, "startd", 'State == "Unclaimed"')]
    assert q() == ["a"]
    assert coll.indexed_queries == 1
    # state flip must move the ad between buckets
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


def test_parse_memo_is_mode_independent():
    for constraint in QUERY_MODES:
        sim, coll = make_collector()
        coll.handle_advertise(None, "startd", ad("s0"))
        coll.handle_query(None, "startd", constraint)
        hits, misses = _memo_counts()
        coll.handle_query(None, "startd", constraint)
        assert _memo_counts() == (hits + 1, misses), constraint
