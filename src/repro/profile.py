"""Per-daemon names for the RPC tally.

:data:`repro.sim.rpc.RPC_STATS` counts every ``call``/``notify`` by
``(service, method)``; ten thousand JobManagers are ten thousand service
names there.  :func:`_normalize_service` collapses each per-instance name
onto its daemon family (``jm:site00-jm7`` -> ``jm:*``) so a tally reads
as one row per daemon.  The benchmark suite's traced pass
(``benchmarks/suite/run.py --trace 1``) groups its tally with it, next
to its cProfile layer attribution.
"""

from __future__ import annotations


def _normalize_service(name: str) -> str:
    """Collapse per-instance service names onto their daemon family."""
    for sep in (":", "@"):
        if sep in name:
            return name.split(sep, 1)[0] + sep + "*"
    if name.startswith("gass-"):
        return "gass-*"
    return name
