"""Resource discovery and scheduling strategies (paper §4.4).

Three strategies, in increasing sophistication, exactly as the paper
lays them out:

* :class:`UserListBroker` -- "a user-supplied list of GRAM servers...
  a good starting point": round-robin over a static list.
* :class:`MatchmakingBroker` -- "a personal resource broker that
  combines information about user authorization, application
  requirements and resource status (obtained from MDS)": asks the MDS
  index's Collector for every ``Grid`` ad and matches a job ad carrying
  the user's Requirements and Rank (e.g. expected wait or allocation
  cost) against them, bilaterally, as Condor matchmaking does.
* :class:`QueueAwareBroker` -- the flooding/tuning flavour: polls every
  candidate's gatekeeper for live queue depth and picks the emptiest,
  which is the "monitor queuing times to tune where to submit subsequent
  jobs" idea in its simplest form; with data services it also weighs
  the time to stage a job's missing inputs (the data-aware broker).

All `pick()` methods are generators (they may consult remote services)
and place a job only where ``has_room(contact)`` -- the GridManager's
submit throttle -- holds; with every candidate full the answer is None.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..classads import ClassAd, best_match, symmetric_match
from ..mds.schema import GRID_ADTYPE
from ..sim.errors import RPCError
from ..sim.hosts import Host
from ..sim.rpc import call

if TYPE_CHECKING:  # pragma: no cover
    from .job import GridJob

#: Pessimistic queue-wait estimate per queued CPU ahead of us (seconds).
WAIT_PER_QUEUED_CPU = 30.0


class Broker:
    """Interface: yield-from `pick(job, has_room)` returning a contact
    for which ``has_room`` holds, or None."""

    #: audience -> signing proof for GSI-protected services (None: no GSI)
    credential_source = None

    def _credential(self, audience: str):
        if self.credential_source is None:
            return None
        return self.credential_source(audience)


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


class MatchmakingBroker(Broker):
    """Bilateral ClassAd matchmaking over MDS resource ads (§4.4).

    The paper: "One promising approach to constructing such a resource
    broker is to use the Condor Matchmaking framework [25] to implement
    the brokering algorithm.  Such an approach is described by Vazhkudai
    et al. [28]... A similar approach could be taken for computational
    resources for use with Condor-G."

    Each grid job is described by a ClassAd (built from its request plus
    user-supplied Requirements/Rank, evaluated with the resource ad as
    TARGET, so ``rank="-EstimatedWait - AllocationCost"`` prefers idle,
    cheap sites); resource ads are the ``Grid`` ads of the index's
    Collector; the match is *bilateral* -- a resource ad may carry its
    own Requirements (e.g. refusing jobs above a cpu count).
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
        try:
            ads = yield from call(
                self.host, self.giis_host, "collector", "query",
                timeout=30.0, credential=self._credential(self.giis_host),
                adtype=GRID_ADTYPE)
        except RPCError:
            return None
        job_ad = self.job_ad(job)
        # Room is asked only where the job matches, so a job whose every
        # match is full waits for a slot there, not on the retry tick.
        ads = [ad for ad in ads if symmetric_match(job_ad, ad)
               and has_room(ad.get("Contact"))]
        chosen = best_match(job_ad, ads)
        if chosen is None:
            return None
        return chosen.get("Contact")


class QueueAwareBroker(Broker):
    """Poll each candidate's live queue depth; pick where work starts soonest.

    Each candidate scores ``(wait + missing_bytes / bandwidth, -free)``,
    lowest first.  With ``data`` (:class:`~repro.data.DataServices`) a
    job's input datasets add the staging term: bytes not yet at the
    site's storage element, from one catalog lookup per dataset.
    """

    def __init__(self, host: Host, resources: list[str], data=None,
                 credential_source=None):
        if not resources:
            raise ValueError("need at least one resource contact")
        self.host = host
        self.resources = list(resources)
        self.data = data
        self.credential_source = credential_source

    def _dataset_entries(self, job: "GridJob"):
        """One catalog lookup per input dataset (shared across sites)."""
        entries = {}
        for name in job.request.input_datasets if self.data else ():
            try:
                entries[name] = yield from call(
                    self.host, self.data.catalog_host, "rls", "lookup",
                    timeout=30.0,
                    credential=self._credential(self.data.catalog_host),
                    name=name)
            except RPCError:
                # Unknown dataset or catalog outage: no locality signal
                # for this dataset; staging will surface the real error.
                continue
        return entries

    def missing_bytes(self, entries: dict, contact: str) -> float:
        """Input bytes not yet present at `contact`'s storage element."""
        if not entries:
            return 0.0
        se = self.data.storage_element(contact)
        if not se:
            return float("inf")     # nowhere to stage a data job to
        return float(sum(entry["size"] for entry in entries.values()
                         if se not in entry["replicas"]))

    def pick(self, job: "GridJob", has_room):
        candidates = list(filter(has_room, self.resources))
        if not candidates:
            return None     # nowhere to go: no catalog or queue look-ups
        entries = yield from self._dataset_entries(job)
        bandwidth = (self.data.link_bandwidth or 1.0) if entries else 1.0
        best, best_score = None, None
        for contact in candidates:
            try:
                info = yield from call(
                    self.host, contact, "gatekeeper", "queue_info",
                    timeout=10.0, credential=self._credential(contact))
            except RPCError:
                continue
            free = max(info.get("free_slots", 0), 0)
            queued = max(info.get("queued_cpus", 0), 0)
            wait = 0.0 if free > 0 else queued * WAIT_PER_QUEUED_CPU
            score = (wait + self.missing_bytes(entries, contact) / bandwidth,
                     -free)
            if best_score is None or score < best_score:
                best, best_score = contact, score
        return best
