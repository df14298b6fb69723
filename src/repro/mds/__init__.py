"""MDS-2: the Grid information service (paper §3.3).

Two protocols on top of the RPC substrate, both spoken to the index
host's :class:`~repro.condor.collector.Collector` (the one soft-state
registry of the reproduction, the pool's and the grid's):

* **GRRP** (Grid Resource Registration Protocol): a resource pushes a
  soft-state registration ("I exist, here is my ad") to the index as
  ``collector.advertise`` of a ``Grid`` ad; the registration expires
  unless renewed, so crashed resources age out and are reaped.
* **GRIP** (Grid Resource Information Protocol): clients query the
  index with ``collector.query`` for the ``Grid`` ads matching a
  ClassAd constraint.

The index is what the Condor-G personal resource broker queries to
build its candidate list (§4.4).
"""

from .giis import ResourceRegistrar
from .schema import resource_ad

__all__ = ["ResourceRegistrar", "resource_ad"]
