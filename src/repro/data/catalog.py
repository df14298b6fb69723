"""The replica catalog daemon (RLS: replica location service).

Maps a *logical* dataset name to its *physical* copies: gsiftp URLs at
per-site storage elements.  Alongside each mapping it records the
dataset's size and expected checksum, which is what lets the transfer
scheduler verify arrivals and the chaos invariants audit replica
integrity post-mortem.

The catalog is a plain RPC service with register/lookup/invalidate
verbs.  Entries live in the host's stable storage, so a catalog-machine
reboot comes back with the full mapping (whoever installs the daemon with
``Host.boot`` gets it re-created, like the GridFTP servers).
"""

from __future__ import annotations

from typing import Optional

from ..gridftp.server import make_gsiftp_url
from ..sim.hosts import Host
from ..sim.rpc import Service
from ..sim.stats import by, fold

fold("rls", "register", "catalog.registrations", by("dataset"))

CATALOG_HOST = "rls"
CATALOG_NS = "replica-catalog"


def dataset_path(name: str) -> str:
    """Canonical path of a dataset replica inside any storage element.

    One spelling everywhere means every replica of a dataset carries the
    same checksum (the digest covers the path), so copies are comparable
    across sites.
    """
    return f"datasets/{name}"


class ReplicaCatalog(Service):
    """Logical dataset name -> {size, checksum, replicas: {se: url}}."""

    service_name = "rls"

    def __init__(self, host: Host):
        super().__init__(host)
        self._stable = host.stable.namespace(CATALOG_NS)
        self._datasets: dict[str, dict] = {}
        for name, record in self._stable.items():
            self._datasets[name] = {
                "size": record["size"],
                "checksum": record["checksum"],
                "replicas": dict(record["replicas"]),
            }

    # -- local plumbing ------------------------------------------------------
    def _persist(self, name: str) -> None:
        entry = self._datasets[name]
        self._stable.put(name, {"size": entry["size"],
                                "checksum": entry["checksum"],
                                "replicas": dict(entry["replicas"])})

    def seed(self, name: str, size: int, checksum: str,
             replicas: Optional[dict[str, str]] = None) -> None:
        """Register a dataset at build time (t=0, no RPC, no bandwidth)."""
        self._datasets[name] = {"size": size, "checksum": checksum,
                                "replicas": dict(replicas or {})}
        self._persist(name)

    def entry(self, name: str) -> Optional[dict]:
        """Synchronous read for invariants and reports (post-hoc only)."""
        e = self._datasets.get(name)
        if e is None:
            return None
        return {"size": e["size"], "checksum": e["checksum"],
                "replicas": dict(e["replicas"])}

    def names(self) -> list[str]:
        return sorted(self._datasets)

    # -- handlers ------------------------------------------------------------
    def handle_register(self, ctx, name: str, se_host: str,
                        size: int = 0, checksum: str = "",
                        url: str = "") -> dict:
        entry = self._datasets.get(name)
        if entry is None:
            entry = {"size": size, "checksum": checksum, "replicas": {}}
            self._datasets[name] = entry
        entry["replicas"][se_host] = url or make_gsiftp_url(
            se_host, dataset_path(name))
        self._persist(name)
        self.sim.trace.log("rls", "register", dataset=name, se=se_host,
                           replicas=len(entry["replicas"]))
        return {"replicas": len(entry["replicas"])}

    def handle_lookup(self, ctx, name: str) -> dict:
        entry = self._datasets.get(name)
        self.sim.metrics.counter("catalog.lookups").inc(
            label="hit" if entry is not None else "miss")
        if entry is None:
            raise KeyError(f"unknown dataset {name!r}")
        return {"name": name, "size": entry["size"],
                "checksum": entry["checksum"],
                "replicas": dict(entry["replicas"])}

