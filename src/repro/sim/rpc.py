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
    # or, the callback form, from a service's timer or handler:
    self.call_then("server-host", "echo", "ping", self.on_answer, text="hi")

A :class:`Service` is also a daemon's unit of failure: the processes it
starts with :meth:`Service.spawn` are its own, and :meth:`Service.crash`
is how one daemon dies while its machine stays up -- they are killed, in
the order they were spawned, and the service leaves the network.  Its
timers and reply callbacks (:meth:`Service.call_at`,
:meth:`Service.call_then`) need no killing: they run only while it is
the live service under its name.  The processes that finish a generator
handler's request stay bound to the host, not to the service.
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
from .kernel import Entry, Event, Process, _UNSET

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
# Every request -- plain or generator handler, authorized or not, call,
# callback form or notify -- is one ``_Request``, and it is the whole
# RPC: the event its caller waits on (``call`` yields it, the callback
# form ``Service.call_then`` puts a callback on it; both start in
# ``_send``), and the kernel's heap item of whichever of its two legs is
# in flight (they never are at once).  The request leg's landing
# (``_Request._request_lands``) runs the landing checks -> the service
# registered under that name *now* -> its authorizer, if any -> the
# handler, whose outcome the request carries back as the reply leg;
# that leg's landing (``_Request._reply_lands``) resumes the caller.  A
# plain call therefore allocates one object and pushes two heap rows (a
# notify: one).  A handler result that is a generator is finished by a
# process on the service's host, which answers through the same reply
# leg.  What a caller or a run digest can observe:
#
# * RNG draws -- one loss roll and one jitter draw per leg from the shared
#   "network" stream, in send order (``Network.send_leg``);
# * counters -- ``Network.sent`` moves at each send, ``delivered`` or
#   ``dropped`` at each landing or sender-side drop;
# * isolation -- each argument and the credential cross at send, the
#   result when the handler returns, each as ``freeze(value)``
#   (``repro.sim.fastcopy``): immutable values by reference, plain
#   containers frozen, anything else refused with ``TypeError`` -- at the
#   caller's ``call``/``notify`` for an argument, as a ``RemoteError``
#   for a result; of a handler's exception only its kind and message;
# * failure windows -- host, partition and service state, and the
#   credential, are judged at each leg's *arrival*.  A service replaced in
#   flight by a crash + restart is simply served by the new instance; a
#   reply lands only on a caller host that is up and has not crashed
#   since the send.  The handler never runs in the caller's process, so
#   a caller crash after the send cannot un-send it, and a generator
#   handler dies with the host it runs on;
# * the timeout -- ``RPCTimeout`` is raised at exactly ``t0 + timeout``.
#   The timer is lazy: it is armed, at that absolute time, when a leg is
#   dropped, *before* a leg that will land at or past the deadline is
#   pushed (a tie goes to the timeout), and when a generator handler
#   is spawned (its finish time is unknown); a reply that wins cancels
#   it.  A reply that lands past the deadline is counted and discarded.

#: Optional live RPC tally (the benchmark suite's traced pass and the
#: scale benches install it; ``repro.profile`` names its rows): when a
#: dict is installed here, every ``call()``/``notify()`` increments
#: ``RPC_STATS[(service, method)]``.  Plain Python bookkeeping outside
#: the simulation -- no events, no RNG, no metrics -- so enabling it
#: never changes a run's digest.
RPC_STATS: Optional[dict] = None

# Argument and result types (most are one) not worth the call.
_ATOMS = frozenset((type(None), bool, int, float, str))

# CallContext is frozen, so unauthenticated contexts are shareable; one
# cached instance per caller host saves an allocation per call.
_CTX_CACHE: dict[str, CallContext] = {}

#: What a reply leg shows as ``service`` in a ``network/loss`` record.
_REPLY_LEG = "_rpc"


def _remote(exc: Exception) -> Exception:
    """What the caller raises for a handler's exception: only its kind
    and message cross, as the kind itself when the caller knows it by
    type, else as a ``RemoteError`` naming it."""
    kind = type(exc).__name__
    typed = _ERROR_KINDS.get(kind)
    if typed is None:
        return RemoteError(str(exc), kind=kind)
    return typed(str(exc))


def _finish(gen: GeneratorType, svc: "Service",
            request: "_Request") -> Generator[Any, Any, None]:
    """Process body: run a handler's generator to its end, then answer."""
    value, error = None, None
    try:
        value = yield from gen
        if type(value) not in _ATOMS:
            value = fast_deepcopy(value)
    except SimulationError:
        raise       # an inconsistency in the simulation is nobody's reply
    except Exception as exc:  # noqa: BLE001 - marshalled to the caller
        error = _remote(exc)
    request.respond(svc, value, error)


class _Request(Event):
    """One RPC, sent when it is made: the event a :func:`call` yields and
    the heap item of the leg in flight.

    The kernel runs ``_run_callbacks`` when that leg lands; ``name`` says
    which one it is, ``"request"`` or ``"reply"``.  The reply leg carries
    the handler's outcome in ``result`` and ``error`` (None, or the
    exception the caller raises).  The caller resumes from inside the
    reply's landing or the timer at ``deadline``, whichever runs first;
    the timer leaves ``error`` at ``RPCTimeout``.  A notify has no
    ``deadline``: nobody waits, and no reply leg is sent.
    """

    __slots__ = ("net", "caller", "crash_count", "dst", "service", "method",
                 "args", "credential", "deadline", "timer", "result",
                 "error")

    def __init__(self, src: "Host", dst: str, service: str, method: str,
                 credential: Any, args: dict, deadline: Optional[float]):
        Event.__init__(self, src.sim, "request")
        self.net = net = src.sim.network
        self.caller = src.name
        self.crash_count = src.crash_count
        self.dst = dst
        self.service = service
        self.method = method
        # What crosses the wire is fixed now, whatever the caller does
        # next.  ``args`` is the call's own ``**`` dict: freeze in place.
        for key, value in args.items():
            if type(value) not in _ATOMS:
                args[key] = fast_deepcopy(value)
        self.args = args
        self.credential = credential if credential is None \
            else fast_deepcopy(credential)
        self.deadline = deadline
        self.timer: Optional[Entry] = None
        self.result = self.error = None
        if deadline is None:
            net.send_leg(src, dst, service, self)
        else:
            net.send_leg(src, dst, service, self, deadline, _Request.expire)

    def _run_callbacks(self) -> None:
        if self.name == "request":
            self._request_lands()
        else:
            self._reply_lands()

    def _request_lands(self) -> None:
        net, caller, dst = self.net, self.caller, self.dst
        host = self.sim.hosts.get(dst)
        svc = host.services.get(self.service) \
            if host is not None and host.up and net.reachable(caller, dst) \
            else None
        if svc is None:
            net.dropped += 1
            self.expire()
            return
        net.delivered += 1
        cred, method = self.credential, self.method
        value, error = None, None
        try:
            if svc.authorizer is not None:
                ctx = CallContext(caller, cred, svc.authorizer.authorize(
                    cred, svc.sim.now))
            elif cred is not None:
                ctx = CallContext(caller, cred)
            else:
                ctx = _CTX_CACHE.get(caller)
                if ctx is None:
                    ctx = _CTX_CACHE[caller] = CallContext(caller)
            handler = getattr(svc, "handle_" + method, None)
            if handler is None:
                raise ServiceUnavailable(
                    f"service {svc.name} has no method {method!r}")
            value = handler(ctx, **self.args)
            cls = type(value)
            if cls not in _ATOMS and cls is not GeneratorType:
                value = fast_deepcopy(value)
        except SimulationError:
            raise   # an inconsistency in the simulation is nobody's reply
        except Exception as exc:  # noqa: BLE001 - marshalled to the caller
            error = _remote(exc)
        if type(value) is GeneratorType:
            # Bound to the service's host: it dies with it.  When it
            # will finish is unknown, so the caller's timer starts now.
            self.expire()
            svc.host.spawn(_finish(value, svc, self),
                           name=f"{svc.name}.{method}@{svc.host.name}")
        else:
            self.respond(svc, value, error)

    def respond(self, svc: "Service", value: Any,
                error: Optional[Exception]) -> None:
        if self.deadline is None:   # a notify: nobody waits for the outcome
            return
        self.name, self.result, self.error = "reply", value, error
        self.net.send_leg(svc.host, self.caller, _REPLY_LEG, self,
                          self.deadline, _Request.expire)

    def _reply_lands(self) -> None:
        net, caller = self.net, self.caller
        host = self.sim.hosts.get(caller)
        if host is None or not host.up \
                or host.crash_count != self.crash_count \
                or not net.reachable(self.dst, caller):
            net.dropped += 1
            self.expire()
            return
        net.delivered += 1
        if self._value is _UNSET:     # else it is late: nobody waits
            self._fire(self.result)

    def _fire(self, value: Any) -> None:
        """The caller resumes now, inside the callback that decided."""
        self._value = value
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        Event._run_callbacks(self)

    def expire(self) -> None:
        """The reply may not land in time: arm the caller's timer."""
        if self.timer is None and self._value is _UNSET \
                and self.deadline is not None:
            self.timer = self.sim.call_at(self.deadline,
                                          _Request._timed_out, self)

    def _timed_out(self) -> None:
        self.timer = None               # popped: nothing left to cancel
        self.error = RPCTimeout
        self._fire(None)


def _send(src: "Host", dst: str, service: str, method: str,
          timeout: Optional[float], credential: Any,
          args: dict) -> _Request:
    """Where every call, in either form, and every notify (``timeout``
    None: from a downed host it is sent and dropped) starts."""
    if src.sim.network is None:
        raise RuntimeError("simulation has no Network")
    if RPC_STATS is not None:
        key = (service, method)
        RPC_STATS[key] = RPC_STATS.get(key, 0) + 1
    if timeout is None:
        return _Request(src, dst, service, method, credential, args, None)
    if not src.up:
        raise HostDown(f"host {src.name} is down")
    if timeout < 0:
        raise ValueError(f"negative timeout {timeout!r}")
    return _Request(src, dst, service, method, credential, args,
                    src.sim.now + timeout)


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
    request = _send(src, dst, service, method, timeout, credential, args)
    value = yield request
    error = request.error
    if error is None:
        return value
    if error is RPCTimeout:
        raise RPCTimeout(f"{service}.{method} on {dst} (after {timeout}s)")
    raise error


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
    _send(src, dst, service, method, None, credential, args)


class _Guarded(Entry):
    """A service's timer, ``fn(arg)``, or reply callback, ``fn(request)``
    (``fn`` its method): it runs only while the service is registered
    under its name (a crashed host holds none), and a fault in it stops
    the run as a failed process does."""

    __slots__ = ()

    def _run_callbacks(self, request: Any = _UNSET) -> None:
        svc = self.fn.__self__
        if svc.host.services.get(svc.name) is svc:
            try:
                self.fn(self.arg if request is _UNSET else request)
            except Exception as exc:  # noqa: BLE001 - the daemon's own
                raise SimulationError(
                    f"{svc.name}: {type(exc).__name__}: {exc}") from exc

    __call__ = _run_callbacks


class Service:
    """Base class for RPC services, and a daemon's unit of failure.

    Subclasses define ``handle_<method>(self, ctx, **kwargs)``; handlers may
    be plain methods or generators (which can do simulated work / nested
    RPCs).  Setting ``authorizer`` enforces GSI-style authentication on
    every request; on success the mapped local principal is available as
    ``ctx.principal``.

    A daemon starts its per-job work with :meth:`spawn`, so it is its
    processes: :meth:`crash` -- one daemon dying while its machine stays
    up -- kills them and takes the service off the network.  A periodic
    tick that sends at most one request is a timer (:meth:`call_at`,
    :meth:`call_then`) that runs only while the service is live, so it
    needs no killing.  A subclass extends ``crash`` only with its own.

    Arguments and results cross the wire frozen
    (:func:`~repro.sim.fastcopy.freeze`): a handler receives values it
    cannot edit, and one that returns an immutable value hands it over by
    reference; a plain container is frozen once, and a result of an
    undeclared type is answered as a ``RemoteError`` of kind
    ``TypeError``.
    """

    service_name: str = ""

    def __init__(self, host: "Host", name: str = "", authorizer: Any = None):
        self.host = host
        self.sim = host.sim
        self.name = name or self.service_name
        if not self.name:
            raise ValueError("service needs a name")
        self.authorizer = authorizer
        self._procs: list[Process] = []
        host.register_service(self.name, self)

    def shutdown(self) -> None:
        self.host.unregister_service(self.name)

    def spawn(self, gen: Generator[Any, Any, Any], name: str) -> Process:
        """Start a process on our host that dies with us (:meth:`crash`),
        dropping the finished ones: a daemon holds only live processes,
        however much work it has done."""
        proc = self.host.spawn(gen, name=name)
        self._procs = [p for p in self._procs if p.alive]
        self._procs.append(proc)
        return proc

    def call_at(self, t: float, fn: Callable[[Any], None],
                arg: Any = None) -> None:
        """Run ``fn(arg)`` at absolute time ``t`` if we are live then."""
        self.sim._push(t, _Guarded(self.sim, fn, arg))

    def call_then(self, dst: str, service: str, method: str,
                  then: Callable[[_Request], None], timeout: float = 10.0,
                  credential: Any = None, **args: Any) -> None:
        """:func:`call` in callback form: ``then(request)`` runs, if we
        are live, when ``request.error`` is None (the answer is
        ``request.value``), the remote error or ``RPCTimeout``."""
        _send(self.host, dst, service, method, timeout, credential,
              args).callbacks.append(_Guarded(self.sim, then, None))

    def crash(self, cause: str = "crash") -> None:
        """Die at once while the machine stays up (a daemon whose work is
        done stops the same way): kill our processes in the order they
        were spawned, and leave the network if we are still the service
        registered under our name."""
        procs, self._procs = self._procs, []
        for proc in procs:
            proc.kill(cause=cause)
        if self.host.services.get(self.name) is self:
            self.shutdown()
