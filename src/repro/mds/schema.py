"""The resource-information schema published through MDS.

A gatekeeper publishes one ad per resource describing identity, the
local scheduler behind it, static capacity, and dynamic load.  Attribute
names follow Condor conventions so ClassAd Requirements written against
pool startds also work against MDS resource ads.
"""

from __future__ import annotations

from ..classads import ClassAd

#: The ad type a resource ad is advertised under in the index's Collector.
GRID_ADTYPE = "Grid"


def resource_ad(
    name: str,
    contact: str,
    lrm_type: str,
    total_cpus: int,
    free_cpus: int,
    queued_jobs: int = 0,
    arch: str = "INTEL",
    opsys: str = "LINUX",
    memory: int = 256,
    disk: int = 100_000,
    site: str = "",
    allocation_cost: float = 0.0,
) -> ClassAd:
    """Build a resource ad with the standard schema."""
    ad = ClassAd()
    ad["Name"] = name
    ad["Contact"] = contact
    ad["GramVersion"] = 2
    ad["LRMType"] = lrm_type
    ad["TotalCpus"] = total_cpus
    ad["FreeCpus"] = free_cpus
    ad["QueuedJobs"] = queued_jobs
    ad["Arch"] = arch
    ad["OpSys"] = opsys
    ad["Memory"] = memory
    ad["Disk"] = disk
    ad["Site"] = site or name
    ad["AllocationCost"] = allocation_cost
    # Estimated queue delay: extremely rough, but monotone in load --
    # exactly the kind of signal the paper says brokers should rank on.
    ad.set_expression(
        "EstimatedWait",
        "ifThenElse(FreeCpus > 0, 0.0, real(QueuedJobs) / TotalCpus)")
    return ad
