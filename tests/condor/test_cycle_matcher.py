"""The Negotiator's memoized matcher against its reference.

``_CycleMatcher`` must hand out exactly the machines that sequential
``classads.best_match``-and-remove would: same choice per job, same
first-maximal-rank tie-break, same treatment of undefined/NaN ranks.
"""

import random

import pytest

from repro.classads import ClassAd, best_match
from repro.condor.negotiator import _CycleMatcher

JOB_REQUIREMENTS = (
    None,
    "TARGET.Mips >= 100",
    'TARGET.Arch == "INTEL"',
    "TARGET.Mips >= 100 && TARGET.Memory > 64",
    "TARGET.Mips > 1000",                       # matches nothing
)
JOB_RANKS = (
    None,
    "TARGET.Mips",                  # ties: Mips comes from a small set
    "0 - TARGET.Memory",
    "TARGET.NoSuchAttr",            # undefined rank counts 0
    float("nan"),                   # NaN never wins a comparison
    float("-inf"),                  # -inf is never a strict improvement
)
MACHINE_REQUIREMENTS = (
    None, None, None,
    "TARGET.ImageSize <= MY.Memory",
)


def _ad(name, requirements, rank, **attrs):
    ad = ClassAd()
    ad["Name"] = name
    for key, value in attrs.items():
        ad[key] = value
    if requirements is not None:
        ad.set_expression("Requirements", requirements)
    if isinstance(rank, str):
        ad.set_expression("Rank", rank)
    elif rank is not None:
        ad["Rank"] = rank
    return ad


def _random_cycle(rng):
    machines = [_ad(f"m{i:02d}", rng.choice(MACHINE_REQUIREMENTS), None,
                    Arch=rng.choice(("INTEL", "SPARC")),
                    Mips=rng.choice((50, 100, 200)),
                    Memory=rng.choice((32, 128)))
                for i in range(rng.randint(4, 16))]
    # jobs share one Name so equal draws share a signature (and the memo)
    jobs = [_ad("job", rng.choice(JOB_REQUIREMENTS), rng.choice(JOB_RANKS),
                ImageSize=rng.choice((16, 64, 256)))
            for i in range(rng.randint(5, 40))]
    return jobs, machines


def _sequential_best_match(jobs, machines):
    available = list(machines)
    picks = []
    for job in jobs:
        chosen = best_match(job, available) if available else None
        if chosen is not None:
            available.remove(chosen)
        picks.append(chosen.get("Name") if chosen is not None else None)
    return picks


def _memoized(jobs, machines):
    matcher = _CycleMatcher(list(machines))
    picks = []
    for job in jobs:
        index = matcher.best(job) if matcher.remaining else None
        if index is not None:
            matcher.consume(index)
        picks.append(matcher.machines[index].get("Name")
                     if index is not None else None)
    return picks, matcher


@pytest.mark.parametrize("seed", range(12))
def test_matcher_picks_what_sequential_best_match_picks(seed):
    jobs, machines = _random_cycle(random.Random(seed))
    picks, _ = _memoized(jobs, machines)
    assert picks == _sequential_best_match(jobs, machines)


def test_identical_jobs_are_served_from_the_memo():
    machines = [_ad(f"m{i}", None, None, Arch="INTEL", Mips=100 + i % 2,
                    Memory=128) for i in range(6)]
    jobs = [_ad("job", "TARGET.Mips >= 100", "TARGET.Mips", ImageSize=16)
            for i in range(8)]
    picks, matcher = _memoized(jobs, machines)
    assert picks == _sequential_best_match(jobs, machines)
    # rank ties go to the earlier machine; the pool runs dry after six
    assert picks == ["m1", "m3", "m5", "m0", "m2", "m4", None, None]
    assert matcher.memo_hits == 5 and matcher.remaining == 0
