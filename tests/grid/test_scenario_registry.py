"""The scenario registry: decorator registration and derived variants."""

import pytest

from repro.chaos.runner import DEFAULT_SCENARIOS
from repro.grid.scenarios import SCENARIOS, Scenario, get_scenario, \
    register


@pytest.fixture
def scratch_registry():
    """Let a test register throwaway scenarios without leaking them."""
    before = set(SCENARIOS)
    yield
    for name in set(SCENARIOS) - before:
        del SCENARIOS[name]


def test_decorator_form_registers_and_keeps_builder(scratch_registry):
    @register(name="tmp-reg-test", description="throwaway")
    def build_it(seed=0, jobs=3):
        return ("testbed", seed, jobs)

    assert "tmp-reg-test" in SCENARIOS
    sc = get_scenario("tmp-reg-test")
    assert sc is build_it.scenario
    assert sc.build is build_it            # plain importable function
    assert build_it(5, jobs=7) == ("testbed", 5, 7)


def test_value_form_registers_prebuilt(scratch_registry):
    sc = Scenario(name="tmp-value-test", description="throwaway",
                  build=lambda seed: seed)
    assert register(sc) is sc
    assert get_scenario("tmp-value-test") is sc


def test_value_and_decorator_forms_are_exclusive(scratch_registry):
    sc = Scenario(name="tmp-x", description="d", build=lambda s: s)
    with pytest.raises(TypeError):
        register(sc, cap=10.0)


def test_duplicate_name_rejected(scratch_registry):
    register(Scenario(name="tmp-dup", description="d",
                      build=lambda s: s))
    with pytest.raises(ValueError):
        register(Scenario(name="tmp-dup", description="d",
                          build=lambda s: s))


def test_with_overrides_splits_meta_from_builder_params():
    calls = []

    def build(seed, jobs=1, sites=2):
        calls.append((seed, jobs, sites))
        return "tb"

    base = Scenario(name="base", description="d", build=build,
                    fault_horizon=100.0, max_faults=4)
    variant = base.with_overrides("big", fault_horizon=999.0,
                                  jobs=50)
    # envelope fields override the Scenario value...
    assert variant.name == "big"
    assert variant.fault_horizon == 999.0
    assert variant.max_faults == 4               # untouched fields carry
    assert variant.description == base.description
    # ...builder params are bound into build()
    assert variant.build(7) == "tb"
    assert calls == [(7, 50, 2)]
    # the base scenario is a value: unchanged
    assert base.fault_horizon == 100.0
    assert base.build is build
    # variants are not auto-registered
    assert "big" not in SCENARIOS


def test_burst_scenarios_are_registered():
    names = SCENARIOS
    for name in ("burst-flash", "burst-diurnal", "burst-overload",
                 "kiloclient"):
        assert name in names
    flash = get_scenario("burst-flash")
    assert "factory_kill" in flash.fault_kinds
    # burst-diurnal is a with_overrides variant of burst-flash
    diurnal = get_scenario("burst-diurnal")
    assert diurnal.name == "burst-diurnal"
    assert diurnal.fault_horizon != flash.fault_horizon


def test_chaos_default_scenarios_unchanged():
    assert DEFAULT_SCENARIOS == ("quickstart", "three-site", "credential")
    for name in DEFAULT_SCENARIOS:
        get_scenario(name)
