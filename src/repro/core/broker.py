"""Resource discovery and scheduling strategies (paper §4.4).

Three strategies, in increasing sophistication, exactly as the paper
lays them out:

* :class:`UserListBroker` -- "a user-supplied list of GRAM servers...
  a good starting point": round-robin over a static list.
* :class:`MDSBroker` -- "a personal resource broker that combines
  information about user authorization, application requirements and
  resource status (obtained from MDS)": queries the GIIS, filters with a
  ClassAd Requirements expression, ranks candidates (e.g. by expected
  wait or allocation cost).
* :class:`QueueAwareBroker` -- the flooding/tuning flavour: polls every
  candidate's gatekeeper for live queue depth and picks the emptiest,
  which is the "monitor queuing times to tune where to submit subsequent
  jobs" idea in its simplest form.

All `pick()` methods are generators (they may consult remote services)
and place a job only where ``has_room(contact)`` -- the GridManager's
submit throttle -- holds; with every candidate full the answer is None.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..classads import ClassAd, EvalContext, is_true, parse
from ..mds.giis import grip_query
from ..sim.errors import RPCError
from ..sim.hosts import Host
from ..sim.rpc import call

if TYPE_CHECKING:  # pragma: no cover
    from .job import GridJob


class Broker:
    """Interface: yield-from `pick(job, has_room)` returning a contact
    for which ``has_room`` holds, or None."""

    #: audience -> signing proof for GSI-protected services (None: no GSI)
    credential_source = None

    def _credential(self, audience: str):
        if self.credential_source is None:
            return None
        return self.credential_source(audience)

    def pick(self, job: "GridJob", has_room):  # pragma: no cover - interface
        raise NotImplementedError
        yield


class UserListBroker(Broker):
    """Round-robin over a user-supplied list of gatekeeper contacts."""

    def __init__(self, resources: list[str]):
        if not resources:
            raise ValueError("need at least one resource contact")
        self.resources = list(resources)
        self._next = 0

    def pick(self, job: "GridJob", has_room):
        for _ in self.resources:    # one lap at most; full sites skipped
            contact = self.resources[self._next % len(self.resources)]
            self._next += 1
            if has_room(contact):
                return contact
        return None
        yield  # pragma: no cover - generator protocol


class MDSBroker(Broker):
    """Query MDS, filter by Requirements, take the Rank-best candidate.

    ``requirements`` and ``rank`` are ClassAd expressions evaluated with
    the resource ad as MY (e.g. ``rank="-EstimatedWait - AllocationCost"``
    prefers idle, cheap sites).
    """

    def __init__(
        self,
        host: Host,
        giis_host: str,
        requirements: str = "true",
        rank: str = "-EstimatedWait",
        credential_source=None,
    ):
        self.host = host
        self.sim = host.sim
        self.giis_host = giis_host
        self.requirements = requirements
        self.rank_expr = parse(rank)
        self.credential_source = credential_source

    def candidates(self):
        ads = yield from grip_query(
            self.host, self.giis_host, constraint=self.requirements,
            credential=self._credential(self.giis_host))
        return ads

    def pick(self, job: "GridJob", has_room):
        try:
            ads = yield from self.candidates()
        except RPCError:
            return None
        best, best_rank = None, float("-inf")
        for ad in ads:
            value = self.rank_expr.eval(EvalContext(my=ad, now=self.sim.now))
            if isinstance(value, bool):
                value = float(value)
            if not isinstance(value, (int, float)):
                continue
            if value > best_rank and has_room(ad.get("Contact")):
                best, best_rank = ad, float(value)
        if best is None:
            return None
        return best.get("Contact")


class MatchmakingBroker(Broker):
    """Bilateral ClassAd matchmaking over MDS resource ads (§4.4).

    The paper: "One promising approach to constructing such a resource
    broker is to use the Condor Matchmaking framework [25] to implement
    the brokering algorithm.  Such an approach is described by Vazhkudai
    et al. [28]... A similar approach could be taken for computational
    resources for use with Condor-G."

    Each grid job is described by a ClassAd (built from its request plus
    user-supplied Requirements/Rank); resource ads come from the GIIS;
    the match is *bilateral* -- a resource ad may carry its own
    Requirements (e.g. refusing jobs above a cpu count), which the
    simpler :class:`MDSBroker` ignores.
    """

    def __init__(
        self,
        host: Host,
        giis_host: str,
        requirements: str = "true",
        rank: str = "-EstimatedWait",
        owner: str = "",
        credential_source=None,
    ):
        self.host = host
        self.sim = host.sim
        self.giis_host = giis_host
        self.requirements = requirements
        self.rank = rank
        self.owner = owner
        self.credential_source = credential_source

    def job_ad(self, job: "GridJob") -> ClassAd:
        ad = ClassAd()
        ad["Owner"] = self.owner or "user"
        ad["Cpus"] = job.request.cpus
        ad["Runtime"] = job.request.runtime
        ad["JobId"] = job.job_id
        ad.set_expression("Requirements", self.requirements)
        ad.set_expression("Rank", self.rank)
        return ad

    def pick(self, job: "GridJob", has_room):
        from ..classads import best_match

        try:
            ads = yield from grip_query(
                self.host, self.giis_host, constraint="true",
                credential=self._credential(self.giis_host))
        except RPCError:
            return None
        ads = [ad for ad in ads if has_room(ad.get("Contact"))]
        chosen = best_match(self.job_ad(job), ads, now=self.sim.now)
        if chosen is None:
            return None
        return chosen.get("Contact")


class QueueAwareBroker(Broker):
    """Poll each candidate's live queue depth; pick the least loaded."""

    def __init__(self, host: Host, resources: list[str],
                 credential_source=None):
        if not resources:
            raise ValueError("need at least one resource contact")
        self.host = host
        self.resources = list(resources)
        self.credential_source = credential_source

    def pick(self, job: "GridJob", has_room):
        best, best_score = None, None
        for contact in filter(has_room, self.resources):
            try:
                info = yield from call(
                    self.host, contact, "gatekeeper", "queue_info",
                    timeout=10.0, credential=self._credential(contact))
            except RPCError:
                continue
            # Fewer queued cpus per free slot = likely shorter wait.
            free = max(info.get("free_slots", 0), 0)
            queued = info.get("queued_cpus", 0)
            score = (0, -free) if free > 0 else (1, queued)
            if best_score is None or score < best_score:
                best, best_score = contact, score
        return best
