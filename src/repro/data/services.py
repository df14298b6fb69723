"""The wiring record connecting data services to the Condor-G agent.

A testbed that enables data management builds one :class:`DataServices`
value and hands it to every agent; the agent threads it through the
scheduler into the GridManager (input staging, output registration) and
into the queue-aware broker (its staging term).  ``se_of`` is a
*live* dict owned by the testbed: sites added after construction appear
in it automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DataServices:
    """Where the data-management daemons live and how sites map to SEs."""

    catalog_host: str = "rls"
    dts_host: str = "dts"
    #: gatekeeper contact -> storage-element host name
    se_of: dict[str, str] = field(default_factory=dict)
    #: broker's planning estimate of inter-site link bandwidth (bytes/s);
    #: the TransferScheduler enforces the real pacing.
    link_bandwidth: float = 5_000_000.0

    def storage_element(self, contact: str) -> str:
        """SE host for a gatekeeper contact ("" = site has no storage)."""
        return self.se_of.get(contact, "")
