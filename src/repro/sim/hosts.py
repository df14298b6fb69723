"""Hosts: the unit of failure.

A :class:`Host` groups everything that dies together when a machine
crashes:

* its running :class:`~repro.sim.kernel.Process`\\ es (killed),
* its registered network services (unregistered -- peers see silence),
* its volatile state (dropped by whoever held it).

What survives is :class:`StableStorage` -- a per-host key/value store that
models disk.  Condor-G's entire fault-tolerance story (persistent job
queue, client-side GRAM logs, redirect files) lives in stable storage, so
the crash/restart split here is the load-bearing abstraction of the whole
reproduction.

A daemon that is supposed to come back with its machine is installed with
:meth:`Host.boot`: the host keeps the function that builds it and calls it
again, in registration order, at every restart.  That is the only reboot
path, so what a rebooted daemon knows is what its builder reads back from
stable storage -- never an object that outlived the crash.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from .errors import HostDown, SimulationError
from .fastcopy import fast_deepcopy

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Process, Simulator


class StableStorage:
    """Disk: a namespaced key/value store surviving host crashes.

    In-memory aliasing can never masquerade as persistence (a classic
    simulation bug: "recovering" state that would really have been lost):
    nothing the writer does to a value after ``put``, and nothing a reader
    does to what ``get``/``items`` returned, changes what is stored.
    Immutable values keep that promise by construction and are stored and
    returned by reference; anything else is copied on write and on read
    (:mod:`repro.sim.fastcopy`).
    """

    def __init__(self) -> None:
        self._data: dict[str, dict[str, Any]] = {}

    def namespace(self, ns: str) -> "StableNamespace":
        return StableNamespace(self, ns)

    def put(self, ns: str, key: str, value: Any) -> None:
        self._data.setdefault(ns, {})[key] = fast_deepcopy(value)

    def get(self, ns: str, key: str, default: Any = None) -> Any:
        return fast_deepcopy(self._data.get(ns, {}).get(key, default))

    def delete(self, ns: str, key: str) -> None:
        self._data.get(ns, {}).pop(key, None)

    def keys(self, ns: str) -> list[str]:
        return sorted(self._data.get(ns, {}).keys())

    def items(self, ns: str) -> list[tuple[str, Any]]:
        return [(k, fast_deepcopy(v))
                for k, v in sorted(self._data.get(ns, {}).items())]

    def clear(self, ns: str) -> None:
        self._data.pop(ns, None)


class StableNamespace:
    """A view of one namespace of a :class:`StableStorage`."""

    def __init__(self, storage: StableStorage, ns: str):
        self._storage = storage
        self._ns = ns

    def put(self, key: str, value: Any) -> None:
        self._storage.put(self._ns, key, value)

    def get(self, key: str, default: Any = None) -> Any:
        return self._storage.get(self._ns, key, default)

    def delete(self, key: str) -> None:
        self._storage.delete(self._ns, key)

    def keys(self) -> list[str]:
        return self._storage.keys(self._ns)

    def items(self) -> list[tuple[str, Any]]:
        return self._storage.items(self._ns)

    def clear(self) -> None:
        self._storage.clear(self._ns)


class Host:
    """A machine in the simulated grid."""

    def __init__(self, sim: "Simulator", name: str, site: str = ""):
        if name in sim.hosts:
            raise SimulationError(f"duplicate host name {name!r}")
        self.sim = sim
        self.name = name
        self.site = site
        self.up = True
        self.stable = StableStorage()
        self.processes: set["Process"] = set()
        self.services: dict[str, object] = {}
        self.boot_actions: list[Callable[["Host"], Any]] = []
        self.crash_count = 0
        sim.hosts[name] = self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Host {self.name} {'up' if self.up else 'DOWN'}>"

    # -- process / service bookkeeping ------------------------------------
    def _attach_process(self, proc: "Process") -> None:
        if not self.up:
            raise HostDown(f"cannot start process on crashed host {self.name}")
        self.processes.add(proc)

    def _detach_process(self, proc: "Process") -> None:
        self.processes.discard(proc)

    def register_service(self, name: str, service: object) -> None:
        if not self.up:
            raise HostDown(f"host {self.name} is down")
        self.services[name] = service

    def unregister_service(self, name: str) -> None:
        self.services.pop(name, None)

    def get_service(self, name: str) -> Optional[object]:
        return self.services.get(name) if self.up else None

    def boot(self, make: Callable[["Host"], Any]) -> Any:
        """Install a daemon: run ``make(self)`` now and again, in
        registration order, at every restart.  Returns what it built now
        (a restart replaces that object, so look daemons up through
        ``services`` rather than holding on to it)."""
        self.boot_actions.append(make)
        return make(self)

    # -- failure ------------------------------------------------------------
    def crash(self, cause: object = "crash") -> None:
        """Kill all processes and services; volatile state is gone."""
        if not self.up:
            return
        self.up = False
        self.crash_count += 1
        self.sim.trace.log(f"host:{self.name}", "crash", cause=str(cause))
        for proc in list(self.processes):
            proc.kill(cause=f"host {self.name} crashed")
        self.processes.clear()
        self.services.clear()

    def restart(self) -> None:
        """Bring the host back up and run boot actions (stable disk intact)."""
        if self.up:
            return
        self.up = True
        self.sim.trace.log(f"host:{self.name}", "restart")
        for fn in list(self.boot_actions):
            fn(self)

    def spawn(self, gen, name: str = "", daemon: bool = False) -> "Process":
        """Start a process bound to this host (dies if the host crashes)."""
        return self.sim.spawn(gen, name=name, host=self, daemon=daemon)
