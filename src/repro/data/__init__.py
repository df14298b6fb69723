"""Data management services: the second pillar of the grid.

Condor-G's §6 applications (CMS event simulation, NUG30) are
staging-bound as much as compute-bound; data-grid middleware treats a
*replica catalog* and a *transfer service* as core grid services
alongside job submission.  This package is that pillar for the
reproduction:

* :class:`ReplicaCatalog` -- maps logical dataset names to per-site
  physical copies (gsiftp URLs), with register/lookup/invalidate RPCs.
* :class:`TransferScheduler` -- queues third-party GridFTP moves per
  network link, paces them under per-link bandwidth and stream caps,
  retries with backoff, and verifies checksums on arrival.
* :class:`DataServices` -- the wiring record (catalog host, transfer
  host, site -> storage-element map) that the testbed threads through
  the Condor-G agent into the GridManager, and into the queue-aware
  broker, whose staging term sends jobs where their inputs already are.

See ``docs/DATA.md`` for the full design.
"""

from .catalog import CATALOG_HOST, ReplicaCatalog, dataset_path
from .services import DataServices
from .transfer import DTS_HOST, TransferScheduler

__all__ = [
    "CATALOG_HOST", "DTS_HOST", "DataServices", "ReplicaCatalog",
    "TransferScheduler", "dataset_path",
]
