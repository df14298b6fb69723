"""Pool assembly helpers: build a whole Condor pool in one call."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.hosts import Host
from ..sim.kernel import Simulator
from .collector import Collector
from .negotiator import Negotiator
from .startd import Startd, machine_ad


@dataclass
class CondorPool:
    """A central manager plus N single-slot worker machines."""

    sim: Simulator
    name: str
    central_host: Host
    collector: Collector
    negotiator: Negotiator
    startds: list[Startd] = field(default_factory=list)
    worker_hosts: list[Host] = field(default_factory=list)

    @property
    def collector_contact(self) -> str:
        return self.central_host.name


def build_pool(
    sim: Simulator,
    name: str,
    workers: int,
    cycle_interval: float = 30.0,
) -> CondorPool:
    """Create `<name>-cm` plus `<name>-wN` hosts forming a pool (the
    pool's name is its hosts' site)."""
    central = Host(sim, f"{name}-cm", site=name)
    collector = Collector(central)
    negotiator = Negotiator(central, collector=central.name,
                            cycle_interval=cycle_interval)
    pool = CondorPool(sim, name, central, collector, negotiator)
    for i in range(workers):
        whost = Host(sim, f"{name}-w{i}", site=name)
        ad = machine_ad(f"slot@{whost.name}", site=name)
        startd = Startd(whost, f"slot@{whost.name}",
                        collector=central.name, ad=ad)
        pool.startds.append(startd)
        pool.worker_hosts.append(whost)
    return pool
