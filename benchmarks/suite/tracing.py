"""Per-layer attribution, recorded entirely from the suite's own files.

Five sources, all of them outside ``src/``:

(a) driver *spans* around the calls into the program (``setup.build``,
    ``setup.warmup``, ``setup.submit``, ``run.chunk``,
    ``verify.invariants``, ``verify.digest``), kept in memory and
    written to ``out/trace-<workload>.json`` when the pass ends;
(b) cProfile, enabled only inside ``run.chunk`` spans, ``tottime``
    summed per source file through :data:`MODULE_LAYER` -- that sum is
    the layer's self time;
(c) the digest-neutral ``repro.sim.rpc.RPC_STATS`` tally (installed by
    the harness), grouped here by service family and method;
(d) ``tb.sim.metrics.snapshot()`` counters and histograms;
(e) ``gc.callbacks`` for collector time.

A disabled :class:`Tracer` does nothing at all: timing passes run with
spans, cProfile, the RPC tally and the gc callback all off.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import time
from contextlib import contextmanager
from pathlib import Path

from repro.profile import _normalize_service as rpc_family

OUT_DIR = Path(__file__).resolve().parent / "out"

#: dotted-module prefix -> layer (longest prefix wins).  Layers are this
#: repo's packages; ``other`` collects the packages no workload is
#: designed to stress, so the shares still sum to one.  test_suite.py
#: fails when a source file under src/repro/ matches no prefix.
MODULE_LAYER = {
    "repro.sim.kernel": "sim.kernel",
    "repro.sim.hosts": "sim.kernel",
    "repro.sim.sync": "sim.kernel",
    "repro.sim.rng": "sim.kernel",
    "repro.sim.errors": "sim.kernel",
    "repro.sim.perf": "sim.kernel",
    "repro.sim.rpc": "sim.rpc",
    "repro.sim.network": "sim.network",
    "repro.sim.fastcopy": "sim.fastcopy",
    "repro.sim.trace": "sim.trace",
    "repro.sim.stats": "sim.stats",
    "repro.sim.snapshot": "other",
    "repro.sim.failures": "other",
    "repro.sim.__init__": "other",
    "repro.classads": "classads",
    "repro.condor": "condor",
    "repro.core": "core",
    "repro.gram": "gram",
    "repro.lrm": "lrm",
    "repro.gass": "gass",
    "repro.gsi": "gsi",
    "repro.mds": "mds",
    "repro.chaos": "other",
    "repro.dagman": "other",
    "repro.data": "other",
    "repro.factory": "other",
    "repro.grid": "other",
    "repro.gridftp": "other",
    "repro.workloads": "other",
    "repro.states": "other",
    "repro.compat": "other",
    "repro.profile": "other",
    "repro.__init__": "other",
}

#: every layer that gets a ``<layer>.self_s`` / ``<layer>.self_share``
LAYERS = ("sim.kernel", "sim.rpc", "sim.network", "sim.fastcopy",
          "sim.trace", "sim.stats", "classads", "condor", "core", "gram",
          "lrm", "gass", "gsi", "mds", "other", "runtime.builtins",
          "runtime.stdlib")


def layer_of(filename: str) -> str:
    """The layer a profiled source file belongs to.

    Raises ``KeyError`` for a file under ``src/repro/`` that
    :data:`MODULE_LAYER` does not cover.
    """
    if filename.startswith(("~", "<")):     # C functions, exec'd strings
        return "runtime.builtins"
    parts = Path(filename).with_suffix("").parts
    if "repro" not in parts:
        return "runtime.stdlib"
    dotted = ".".join(parts[len(parts) - parts[::-1].index("repro") - 1:])
    probe = dotted
    while probe:
        if probe in MODULE_LAYER:
            return MODULE_LAYER[probe]
        probe = probe.rpartition(".")[0]
    raise KeyError(f"{filename} ({dotted}) is in no layer of MODULE_LAYER")


def group_rpcs(stats: dict) -> dict:
    """``{(service, method): n}`` -> ``{"family.method": n}``, with
    per-instance service names collapsed (``jm:site03-jm7`` -> ``jm:*``)
    so that all JobManagers read as one row."""
    out: dict = {}
    for (service, method), count in stats.items():
        key = f"{rpc_family(service)}.{method}"
        out[key] = out.get(key, 0) + count
    return dict(sorted(out.items()))


class Tracer:
    """Spans + cProfile + gc timing for one pass of one workload."""

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []
        self._t0 = time.perf_counter()
        self._profile = cProfile.Profile() if enabled else None
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0

    # -- (a) spans ------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {"name": name, "workload": self.workload,
                  "parent": self._stack[-1] if self._stack else None,
                  "start_s": time.perf_counter() - self._t0}
        host0 = time.process_time()
        self._stack.append(name)
        try:
            yield
        finally:
            self._stack.pop()
            record["host_s"] = time.process_time() - host0
            record["end_s"] = time.perf_counter() - self._t0
            self.spans.append(record)

    @contextmanager
    def profiled_span(self, name: str):
        """A span with (b) cProfile and (e) the gc callback on inside."""
        if not self.enabled:
            yield
            return
        with self.span(name):
            gc.callbacks.append(self._on_gc)
            self._profile.enable()
            try:
                yield
            finally:
                self._profile.disable()
                gc.callbacks.remove(self._on_gc)

    def host_s(self, name: str) -> float:
        """Total host time of every span called `name`."""
        return sum(s["host_s"] for s in self.spans if s["name"] == name)

    # -- (e) gc ---------------------------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    # -- (b) profile ----------------------------------------------------------
    def layer_self_s(self) -> dict:
        """cProfile ``tottime`` summed per layer, every layer present."""
        out = dict.fromkeys(LAYERS, 0.0)
        stats = pstats.Stats(self._profile).stats
        for (filename, _line, _func), (_cc, _nc, tt, _ct, _callers) \
                in stats.items():
            out[layer_of(filename)] += tt
        return out

    def profile_calls(self, file_suffix: str, func: str) -> int:
        """Call count of one function (e.g. fast_deepcopy) in the pass."""
        stats = pstats.Stats(self._profile).stats
        return sum(nc for (filename, _line, name), (_cc, nc, *_rest)
                   in stats.items()
                   if name == func and filename.endswith(file_suffix))

    def write(self, extra: dict) -> Path:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{self.workload}.json"
        path.write_text(json.dumps(
            {"workload": self.workload, "spans": self.spans, **extra},
            indent=1, sort_keys=True) + "\n")
        return path
