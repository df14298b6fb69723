"""The profiling harness: `python -m repro.profile <scenario>`.

One command that runs any registered scenario under cProfile and prints
hotspots plus per-daemon RPC counts -- the "profile it, then attack"
half of the performance loop.  These tests drive ``main`` in-process.
"""

import pytest

from repro.profile import _normalize_service, main
from repro.sim import rpc


def test_profile_prints_hotspots_and_rpc_table(capsys):
    assert main(["quickstart", "--until", "600", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "scenario quickstart seed 0:" in out
    assert "Ordered by: cumulative time" in out
    assert "per-daemon RPC counts" in out
    # per-instance daemons collapse onto family rows
    assert "jm:*" in out
    assert "gatekeeper" in out
    # the tally hook is uninstalled afterwards
    assert rpc.RPC_STATS is None


def test_unknown_scenario_fails_fast():
    with pytest.raises(KeyError, match="unknown scenario"):
        main(["no-such-scenario"])
    assert rpc.RPC_STATS is None


def test_service_name_normalization():
    assert _normalize_service("jm:site00-jm7") == "jm:*"
    assert _normalize_service("gramcb:alice") == "gramcb:*"
    assert _normalize_service("schedd@alice") == "schedd@*"
    assert _normalize_service("gass-alice") == "gass-*"
    assert _normalize_service("gatekeeper") == "gatekeeper"
