"""Property suite for the snapshot digest contract.

The contract (``repro.sim.snapshot``): for any scenario, seed, and
snapshot boundary ``t`` strictly inside the run,

    run(0, T)  ==digest==  run(0, t); snapshot; run(t, T)

in both flavors: *resume* (keep the live testbed and run past the
boundary; taking the snapshot must not perturb the run) and *rehydrate*
(a fresh ``build(seed)`` run to the time of the snapshot read back from
its JSON document has the snapshot's digest, then continues to the same
end digest).

Hypothesis drives the boundary and seed; the scenarios are
pytest-parametrized so every one is exercised regardless of how the
search space is sampled.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.digest import run_digest
from repro.grid.scenarios import get_scenario
from repro.sim.snapshot import SimSnapshot

#: end-of-run horizon per scenario: late enough that real grid traffic
#: (submissions, GRAM polls, completions) straddles any boundary.
SCENARIOS = {
    "quickstart": 1500.0,
    "three-site": 1500.0,
    "credential": 1500.0,
}

_baselines: dict = {}


def _boundary(built: float, frac: float, horizon: float) -> float:
    """`frac` of the way from where the build left the clock (`built`:
    a build may warm the testbed up) to `horizon`, so that a boundary
    is never in the past."""
    return round(built + frac * (horizon - built), 3)


def _baseline_digest(scenario: str, seed: int) -> str:
    """The uninterrupted run(0, T) digest, cached per cell."""
    key = (scenario, seed)
    if key not in _baselines:
        tb = get_scenario(scenario).build(seed)
        tb.run(until=SCENARIOS[scenario])
        _baselines[key] = run_digest(tb)
    return _baselines[key]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2),
       frac=st.floats(min_value=0.05, max_value=0.95))
def test_segmented_run_matches_uninterrupted(scenario, seed, frac):
    horizon = SCENARIOS[scenario]
    baseline = _baseline_digest(scenario, seed)

    # resume flavor: snapshot mid-run, keep going on the live object.
    tb = get_scenario(scenario).build(seed)
    boundary = _boundary(tb.sim.now, frac, horizon)
    tb.run(until=boundary)
    snap = tb.snapshot()
    tb.run(until=horizon)
    assert run_digest(tb) == baseline, \
        f"resume diverged at boundary t={boundary}"

    # rehydrate flavor: a fresh build replayed to the time of the
    # snapshot read back from its JSON document.
    snap = SimSnapshot.from_json(snap.to_json())
    tb2 = get_scenario(scenario).build(seed)
    tb2.run(until=snap.time)
    assert tb2.snapshot() == snap, \
        f"rebuild diverged before boundary t={boundary}"
    tb2.run(until=horizon)
    assert run_digest(tb2) == baseline, \
        f"rehydrate diverged at boundary t={boundary}"


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2),
       frac=st.floats(min_value=0.05, max_value=0.95))
def test_capture_does_not_perturb_state(scenario, seed, frac):
    """A snapshot at any boundary is the run digest there, and taking
    it leaves the run digest unchanged."""
    tb = get_scenario(scenario).build(seed)
    tb.run(until=_boundary(tb.sim.now, frac, SCENARIOS[scenario]))
    before = run_digest(tb)
    snap = tb.snapshot()
    assert snap.digest == before
    assert run_digest(tb) == before


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2),
       fracs=st.lists(st.floats(min_value=0.05, max_value=0.95),
                      min_size=2, max_size=4, unique=True))
def test_repeated_boundaries_compose(seed, fracs):
    """Several snapshot boundaries in one run still land on the
    uninterrupted digest (segments compose, not just one split)."""
    horizon = SCENARIOS["three-site"]
    baseline = _baseline_digest("three-site", seed)
    tb = get_scenario("three-site").build(seed)
    built = tb.sim.now
    for frac in sorted(fracs):
        tb.run(until=_boundary(built, frac, horizon))
        tb.snapshot()
    tb.run(until=horizon)
    assert run_digest(tb) == baseline
