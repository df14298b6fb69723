"""The Condor Negotiator: the pool's matchmaker.

Runs a periodic negotiation cycle [25]:

1. query the Collector for unclaimed startd ads and submitter ads;
2. visit submitters round-robin (a crude fair-share), asking each schedd
   for its idle jobs;
3. for each job, find the Rank-best bilaterally matching machine not yet
   handed out this cycle, and tell the schedd, which then claims the
   startd directly.

GlideIn startds need nothing special here -- they are ordinary machine
ads in the collector, which is the whole elegance of the §5 design.

Each cycle builds a memoized matcher: jobs are reduced to content
signatures, and for each *static* (time/RNG-free) job signature the
bilateral Requirements/Rank evaluation runs once against the static
machines, producing a rank-ordered candidate list consumed by cursor --
so 10k identical jobs cost one evaluation sweep instead of 10k linear
``best_match`` scans.  Dynamic ads (anything touching ``CurrentTime``,
``time()``, ``random()``) fall back to per-job evaluation.  The matcher
must choose exactly what ``classads.best_match`` over the machines not
yet handed out would choose; ``tests/condor/test_cycle_matcher.py``
holds it to that.
"""

from __future__ import annotations

from ..classads import ClassAd, match_signature, rank_value, \
    symmetric_match
from ..sim.errors import RPCError
from ..sim.hosts import Host
from ..sim.rpc import Service, call

_NEG_INF = float("-inf")


class _CycleMatcher:
    """Memoized best-match over one cycle's unclaimed machines.

    Machines never return within a cycle (the chosen machine is
    consumed *before* the matched RPC and never re-added), so a
    per-signature cursor over a rank-sorted candidate list replicates
    ``best_match``'s "first machine with maximal rank" choice exactly.
    """

    def __init__(self, machines: list[ClassAd], sig_cache: dict):
        self.machines = machines
        self.alive = [True] * len(machines)
        self.remaining = len(machines)
        self.sig_cache = sig_cache
        sigs = [match_signature(m, sig_cache) for m in machines]
        self.static_idx = [i for i, (_, st) in enumerate(sigs) if st]
        self.dynamic_idx = [i for i, (_, st) in enumerate(sigs) if not st]
        # static job signature -> rank-sorted [(rank, machine index)]
        self._candidates: dict[tuple, list[tuple[float, int]]] = {}
        self._cursor: dict[tuple, int] = {}
        self.memo_hits = 0

    def consume(self, index: int) -> None:
        self.alive[index] = False
        self.remaining -= 1

    def best(self, job_ad: ClassAd, now: float) -> int | None:
        """Index of the machine ``best_match`` would pick, or None."""
        sig, static = match_signature(job_ad, self.sig_cache)
        if not static:
            return self._scan(job_ad, now, range(len(self.machines)))
        lst = self._candidates.get(sig)
        if lst is None:
            lst = []
            for i in self.static_idx:
                machine = self.machines[i]
                if not symmetric_match(job_ad, machine, now=now):
                    continue
                rank = rank_value(job_ad, machine, now=now)
                # best_match needs rank > -inf strictly (and NaN never
                # wins a > comparison), so such machines are unmatchable
                if rank == rank and rank > _NEG_INF:
                    lst.append((rank, i))
            # stable sort: equal ranks keep machine order, matching
            # best_match's first-maximal-rank-wins tie-break
            lst.sort(key=lambda pair: -pair[0])
            self._candidates[sig] = lst
            self._cursor[sig] = 0
        else:
            self.memo_hits += 1
        cursor = self._cursor[sig]
        while cursor < len(lst) and not self.alive[lst[cursor][1]]:
            cursor += 1
        self._cursor[sig] = cursor
        best_static = lst[cursor] if cursor < len(lst) else None
        if not self.dynamic_idx:
            return best_static[1] if best_static is not None else None
        best_dynamic = self._scan_pair(job_ad, now, self.dynamic_idx)
        if best_static is None:
            return best_dynamic[1] if best_dynamic is not None else None
        if best_dynamic is None:
            return best_static[1]
        # best_match scans machines in order taking strict rank
        # improvements: higher rank wins, equal rank goes to the earlier
        # machine
        if (best_dynamic[0] > best_static[0]
                or (best_dynamic[0] == best_static[0]
                    and best_dynamic[1] < best_static[1])):
            return best_dynamic[1]
        return best_static[1]

    def _scan_pair(self, job_ad: ClassAd, now: float,
                   indices) -> tuple[float, int] | None:
        best: tuple[float, int] | None = None
        for i in indices:
            if not self.alive[i]:
                continue
            machine = self.machines[i]
            if not symmetric_match(job_ad, machine, now=now):
                continue
            rank = rank_value(job_ad, machine, now=now)
            if best is None:
                if rank == rank and rank > _NEG_INF:
                    best = (rank, i)
            elif rank > best[0]:
                best = (rank, i)
        return best

    def _scan(self, job_ad: ClassAd, now: float, indices) -> int | None:
        found = self._scan_pair(job_ad, now, indices)
        return found[1] if found is not None else None


class Negotiator(Service):
    service_name = "negotiator"

    def __init__(self, host: Host, collector: str,
                 cycle_interval: float = 30.0, credential=None):
        super().__init__(host, name="negotiator")
        self.collector = collector
        self.cycle_interval = cycle_interval
        self.credential = credential
        self.cycles = 0
        self.matches_made = 0
        self.cycle_errors = 0
        self.nameless_skipped = 0
        # Fair-share state: matches granted per submitter, decayed each
        # cycle, orders who negotiates first (lowest usage wins).
        self.usage: dict[str, float] = {}
        self.usage_half_life_cycles = 20.0
        # id(expr) -> (text, static, expr): shared-Expr signature cache
        # for the memoized matcher (ads share Expr objects across RPC
        # copies, so this persists usefully across cycles).
        self._sig_cache: dict[int, tuple] = {}
        # memo introspection for tests (not in metrics/trace)
        self.memo_hits = 0
        host.spawn(self._cycle_loop(), name="negotiator")

    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log("negotiator", event, **details)

    def _cycle_loop(self):
        while True:
            try:
                yield from self._one_cycle()
            except RPCError as exc:
                # collector briefly unreachable; try next cycle -- but
                # never silently: chaos invariants watch for dropped
                # cycles through this counter and trace event.
                self.cycle_errors += 1
                self.sim.metrics.counter("negotiator.cycle_errors").inc()
                self._trace("cycle_error", error=type(exc).__name__,
                            detail=str(exc))
            yield self.sim.timeout(self.cycle_interval)

    def _one_cycle(self):
        self.cycles += 1
        # exponential decay so old usage is eventually forgiven; fully
        # decayed entries are dropped so the dict cannot grow without
        # bound across submitter churn in multi-tenant runs
        decay = 0.5 ** (1.0 / self.usage_half_life_cycles)
        for name in list(self.usage):
            decayed = self.usage[name] * decay
            if decayed < 1e-9:
                del self.usage[name]
            else:
                self.usage[name] = decayed
        machines = yield from call(
            self.host, self.collector, "collector", "query",
            credential=self.credential,
            adtype="startd", constraint='State == "Unclaimed"')
        submitters = yield from call(
            self.host, self.collector, "collector", "query",
            credential=self.credential,
            adtype="submitter", constraint="IdleJobs > 0")
        if not machines or not submitters:
            return
        named: list[tuple[str, ClassAd]] = []
        for ad in submitters:
            name = ad.get("Name")
            if not isinstance(name, str) or not name:
                # a nameless submitter ad would corrupt fair-share
                # accounting (every such ad collapsing onto one key)
                self.nameless_skipped += 1
                self.sim.metrics.counter(
                    "negotiator.nameless_submitters").inc()
                self._trace("nameless_submitter",
                            schedd_host=str(ad.get("ScheddHost")))
                continue
            named.append((name, ad))
        # fair-share order: least-served submitter negotiates first
        named.sort(key=lambda pair: self.usage.get(pair[0], 0.0))
        if len(self._sig_cache) > 250_000:
            self._sig_cache.clear()
        matcher = _CycleMatcher(list(machines), self._sig_cache)
        for submitter_name, submitter in named:
            schedd_host = submitter.get("ScheddHost")
            if not schedd_host:
                continue
            try:
                idle = yield from call(self.host, schedd_host, "schedd",
                                       "get_idle_jobs",
                                       credential=self.credential)
            except RPCError:
                self.sim.metrics.counter(
                    "negotiator.submitter_errors").inc()
                self._trace("submitter_error", submitter=submitter_name)
                continue
            for entry in idle:
                job_ad = entry["ad"]
                if not matcher.remaining:
                    self.memo_hits = matcher.memo_hits
                    return
                index = matcher.best(job_ad, self.sim.now)
                if index is None:
                    continue
                chosen = matcher.machines[index]
                matcher.consume(index)
                try:
                    ok = yield from call(
                        self.host, schedd_host, "schedd", "matched",
                        credential=self.credential,
                        job_id=entry["job_id"],
                        startd_name=chosen.get("Name"),
                        startd_host=chosen.get("StartdHost"),
                        startd_ad=chosen)
                except RPCError:
                    ok = False
                if ok:
                    self.matches_made += 1
                    self.usage[submitter_name] = \
                        self.usage.get(submitter_name, 0.0) + 1.0
                    self._trace("match", job=entry["job_id"],
                                machine=chosen.get("Name"))
        self.memo_hits = matcher.memo_hits
