"""Request/response RPC over the simulated network.

Semantics are deliberately *at-most-once with silent loss*: a call either
returns the handler's value, raises a typed remote error, or raises
:class:`~repro.sim.errors.RPCTimeout` -- and on timeout the caller cannot
know whether the request was lost, the response was lost, or the server
crashed.  Exactly-once behaviour has to be built *on top* of this (that is
what GRAM's two-phase commit with sequence numbers does, and what the
CLAIM-2PC benchmark measures).

Usage::

    class EchoService(Service):
        service_name = "echo"
        def handle_ping(self, ctx, text):
            return text.upper()

    # inside a process generator:
    value = yield from call(my_host, "server-host", "echo", "ping",
                            timeout=5.0, text="hi")
"""

from __future__ import annotations

from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Generator, Optional, TYPE_CHECKING

from .errors import (
    AuthenticationError,
    AuthorizationError,
    HostDown,
    RemoteError,
    RPCTimeout,
    ServiceUnavailable,
    SimulationError,
)
from .fastcopy import fast_deepcopy
from .kernel import Event, Timeout, _UNSET

if TYPE_CHECKING:  # pragma: no cover
    from .hosts import Host

_ERROR_KINDS = {
    "AuthenticationError": AuthenticationError,
    "AuthorizationError": AuthorizationError,
    "ServiceUnavailable": ServiceUnavailable,
}


@dataclass(frozen=True)
class CallContext:
    """Information about the remote caller, passed to every handler."""

    caller_host: str
    credential: Any = None
    principal: Optional[str] = None   # local account after gridmap mapping


# -- the one path -------------------------------------------------------------
#
# Every request -- plain or generator handler, authorized or not, call or
# notify -- is served by its request leg's arrival callback (``arrive`` in
# ``_request``): landing checks -> the service registered under that name
# *now* -> its authorizer, if any -> the handler.  A plain call costs two
# kernel events: the request's arrival, inside which the handler runs, and
# the reply's arrival, inside which the caller resumes (a notify costs
# one).  A handler result that is a generator is finished by a process on
# the service's host, which answers through the same reply leg.  What a
# caller or a run digest can observe:
#
# * RNG draws -- one loss roll and one jitter draw per leg from the shared
#   "network" stream, in send order (``Network.send_leg``);
# * counters -- ``Network.sent`` moves at each send, ``delivered`` or
#   ``dropped`` at each landing or sender-side drop;
# * isolation -- args and credential cross at send, the result when the
#   handler returns, each through ``fast_deepcopy``: immutable values by
#   reference, everything else copied (``repro.sim.fastcopy``);
# * failure windows -- host, partition and service state, and the
#   credential, are judged at each leg's *arrival*.  A service replaced in
#   flight by a crash + restart is simply served by the new instance; a
#   reply lands only on a caller host that has not crashed since the send.
#   The handler never runs in the caller's process, so a caller crash
#   after the send cannot un-send it, and a generator handler dies with
#   the host it runs on;
# * the timeout -- ``RPCTimeout`` is raised at exactly ``t0 + timeout``.
#   The timer is lazy: it is armed, at that absolute time, when a leg is
#   dropped, *before* a leg that will land at or past the deadline is
#   scheduled (a tie goes to the timeout), and when a generator handler
#   is spawned (its finish time is unknown); a reply that wins cancels
#   it.  A reply that lands past the deadline is counted and discarded.

#: Optional live RPC tally for profiling (see ``repro.profile``): when a
#: dict is installed here, every ``call()``/``notify()`` increments
#: ``RPC_STATS[(service, method)]``.  Plain Python bookkeeping outside
#: the simulation -- no events, no RNG, no metrics -- so enabling it
#: never changes a run's digest.
RPC_STATS: Optional[dict] = None

# Result types (most handlers answer with one) not worth the call.
_ATOMS = frozenset((type(None), bool, int, float, str))

# CallContext is frozen, so unauthenticated contexts are shareable; one
# cached instance per caller host saves an allocation per call.
_CTX_CACHE: dict[str, CallContext] = {}

#: What a reply leg shows as ``service`` in a ``network/loss`` record.
_REPLY_LEG = "_rpc"


class _Reply(Event):
    """What a caller waits on.

    Fires once and never through the heap: with the response dict from
    inside the reply leg's arrival, or with None from inside the timer
    at ``deadline`` -- whichever runs first -- so the caller resumes in
    the very callback that carries the outcome.
    """

    __slots__ = ("deadline", "timer")

    def __init__(self, sim, deadline: float):
        super().__init__(sim, name="rpc")
        self.deadline = deadline
        self.timer: Optional[Timeout] = None

    def fire(self, value: Any) -> None:
        if self._value is _UNSET:
            self._value = value
            if self.timer is not None:
                self.timer.cancel()     # no-op from inside the timer
            self._run_callbacks()

    def expire(self) -> None:
        """The reply may not arrive in time: arm the caller's timeout."""
        if self.timer is None and self._value is _UNSET:
            self.timer = Timeout(self.sim, 0.0, at=self.deadline)
            self.timer.callbacks.append(lambda _ev: self.fire(None))


def _error(exc: Exception) -> dict:
    return {"kind": type(exc).__name__, "message": str(exc)}


def _finish(gen: GeneratorType, svc: "Service",
            respond: Callable) -> Generator[Any, Any, None]:
    """Process body: run a handler's generator to its end, then answer."""
    value, error = None, None
    try:
        value = yield from gen
    except SimulationError:
        raise       # an inconsistency in the simulation is nobody's reply
    except Exception as exc:  # noqa: BLE001 - marshalled to the caller
        error = _error(exc)
    respond(svc, value, error)


def _request(src: "Host", dst: str, service: str, method: str,
             credential: Any, args: dict,
             reply: Optional[_Reply] = None) -> None:
    """Send one request; for a call, ``reply`` fires with its response."""
    net = src.sim.network
    caller = src.name
    crash_count = src.crash_count
    # What crosses the wire is fixed now, whatever the caller does next.
    req_args = fast_deepcopy(args) if args else args
    req_cred = credential if credential is None else fast_deepcopy(credential)

    def arrive(_ev) -> None:
        svc = net.land_leg(caller, dst, service)
        if svc is None:
            if reply is not None:
                reply.expire()
            return
        value, error = None, None
        try:
            if svc.authorizer is not None:
                ctx = CallContext(caller, req_cred, svc.authorizer.authorize(
                    req_cred, svc.sim.now))
            elif req_cred is not None:
                ctx = CallContext(caller, req_cred)
            else:
                ctx = _CTX_CACHE.get(caller)
                if ctx is None:
                    ctx = _CTX_CACHE[caller] = CallContext(caller)
            handler = getattr(svc, "handle_" + method, None)
            if handler is None:
                raise ServiceUnavailable(
                    f"service {svc.name} has no method {method!r}")
            value = handler(ctx, **req_args)
        except SimulationError:
            raise   # an inconsistency in the simulation is nobody's reply
        except Exception as exc:  # noqa: BLE001 - marshalled to the caller
            error = _error(exc)
        if isinstance(value, GeneratorType):
            # Bound to the service's host: it dies with it.  When it
            # will finish is unknown, so the caller's timer starts now.
            if reply is not None:
                reply.expire()
            svc.host.spawn(_finish(value, svc, respond),
                           name=f"{svc.name}.{method}@{svc.host.name}")
        else:
            respond(svc, value, error)

    def respond(svc: "Service", value: Any, error: Optional[dict]) -> None:
        if reply is None:       # a notify: nobody waits for the outcome
            return
        if type(value) not in _ATOMS:
            value = fast_deepcopy(value)
        response = {"ok": error is None, "value": value, "error": error}

        def reply_arrive(_ev) -> None:
            if net.land_leg(dst, caller, crash_count=crash_count) is None:
                reply.expire()
            else:
                reply.fire(response)

        net.send_leg(svc.host, caller, _REPLY_LEG, reply_arrive,
                     reply.deadline, reply.expire)

    if reply is None:
        net.send_leg(src, dst, service, arrive)
    else:
        net.send_leg(src, dst, service, arrive, reply.deadline, reply.expire)


def _tally(src: "Host", service: str, method: str) -> None:
    """Where every ``call()``/``notify()`` starts."""
    if src.sim.network is None:
        raise RuntimeError("simulation has no Network")
    if RPC_STATS is not None:
        key = (service, method)
        RPC_STATS[key] = RPC_STATS.get(key, 0) + 1


def call(
    src: "Host",
    dst: str,
    service: str,
    method: str,
    timeout: float = 10.0,
    credential: Any = None,
    **args: Any,
) -> Generator[Any, Any, Any]:
    """RPC a remote service method; use with ``yield from``.

    Raises :class:`RPCTimeout` if no response arrives within ``timeout``
    simulated seconds, a typed error mirroring the remote exception, or
    :class:`HostDown` at once when ``src`` itself is down.
    """
    _tally(src, service, method)
    if not src.up:
        raise HostDown(f"host {src.name} is down")
    sim = src.sim
    reply = _Reply(sim, sim.now + timeout)
    _request(src, dst, service, method, credential, args, reply)
    value = yield reply
    if value is None:
        raise RPCTimeout(f"{service}.{method} on {dst} (after {timeout}s)")
    if value["ok"]:
        return value["value"]
    err = value["error"]
    exc_type = _ERROR_KINDS.get(err["kind"], RemoteError)
    if exc_type is RemoteError:
        raise RemoteError(err["message"], kind=err["kind"])
    raise exc_type(err["message"])


def notify(
    src: "Host",
    dst: str,
    service: str,
    method: str,
    credential: Any = None,
    **args: Any,
) -> None:
    """One-way request dispatched to ``handle_<method>`` (no response).

    From a downed host it is sent and dropped, silently.
    """
    _tally(src, service, method)
    _request(src, dst, service, method, credential, args)


class Service:
    """Base class for RPC services.

    Subclasses define ``handle_<method>(self, ctx, **kwargs)``; handlers may
    be plain methods or generators (which can do simulated work / nested
    RPCs).  Setting ``authorizer`` enforces GSI-style authentication on
    every request; on success the mapped local principal is available as
    ``ctx.principal``.

    Arguments and results cross the wire through
    :func:`~repro.sim.fastcopy.fast_deepcopy`: a handler that returns an
    immutable value hands it over by reference, anything else is copied.
    """

    service_name: str = ""

    def __init__(self, host: "Host", name: str = "", authorizer: Any = None):
        self.host = host
        self.sim = host.sim
        self.name = name or self.service_name
        if not self.name:
            raise ValueError("service needs a name")
        self.authorizer = authorizer
        host.register_service(self.name, self)

    def shutdown(self) -> None:
        self.host.unregister_service(self.name)
