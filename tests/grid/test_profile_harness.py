"""Per-daemon names for the RPC tally (`repro.profile._normalize_service`),
which the benchmark suite's traced pass groups its RPC counts by."""

from repro.profile import _normalize_service


def test_service_name_normalization():
    assert _normalize_service("jm:site00-jm7") == "jm:*"
    assert _normalize_service("gramcb:alice") == "gramcb:*"
    assert _normalize_service("schedd@alice") == "schedd@*"
    assert _normalize_service("gass-alice") == "gass-*"
    assert _normalize_service("gatekeeper") == "gatekeeper"
