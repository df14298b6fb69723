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

import inspect
import itertools
from dataclasses import dataclass
from typing import Any, Generator, Optional, TYPE_CHECKING

from .errors import (
    AuthenticationError,
    AuthorizationError,
    RemoteError,
    RPCTimeout,
    ServiceUnavailable,
)
from .fastcopy import fast_deepcopy
from .kernel import Event, Timeout, _UNSET
from .network import Datagram

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


class _ReplyDispatch:
    """Hidden per-host service that routes RPC responses to waiting events."""

    SERVICE = "_rpc"

    def __init__(self, host: "Host"):
        self.pending: dict[int, Any] = {}
        host.register_service(self.SERVICE, self)

    def deliver(self, dgram: "Datagram") -> None:
        token = dgram.payload.get("token")
        ev = self.pending.pop(token, None)
        if ev is not None and not ev.triggered:
            ev.succeed(dgram.payload)


def _dispatch(host: "Host") -> _ReplyDispatch:
    disp = host.get_service(_ReplyDispatch.SERVICE)
    if disp is None:
        disp = _ReplyDispatch(host)
    return disp


def _next_token(sim) -> int:
    counter = getattr(sim, "_rpc_tokens", None)
    if counter is None:
        counter = itertools.count(1)
        sim._rpc_tokens = counter
    return next(counter)


# -- inline fast path ---------------------------------------------------------
#
# The common RPC shape -- a plain synchronous handler on a reachable host,
# no authorizer -- costs two kernel events: the request's arrival, inside
# which the handler runs, and the reply's arrival, inside which the caller
# resumes.  No Datagram, no serve process, no relay event, and no timer
# unless the reply is known to miss the deadline.  What the caller and a
# run digest can observe is kept:
#
# * RNG draws -- one loss roll and one jitter draw per leg from the shared
#   "network" stream, in ``Network.send``'s order;
# * counters -- ``Network.sent/delivered/dropped`` move where ``send`` and
#   ``_arrive`` move them;
# * isolation -- args and credential are snapshotted at send, the result
#   is copied unless immutable or declared ``rpc_fresh_results``;
# * failure windows -- host/partition/service state is re-checked at each
#   leg's *arrival*.  The handler runs in the arrival callback, not in the
#   caller's process, so a caller crash after send cannot un-send it.  A
#   service object swapped in flight by a crash+restart gets a real
#   Datagram (the new instance must serve the request);
# * the timeout -- ``RPCTimeout`` is raised at exactly ``t0 + timeout``:
#   the timer is armed, at that absolute time, at the instant a leg is
#   dropped, found to land past the deadline, or handed to the Datagram
#   path.  A reply that lands after it is counted and discarded.
#
# Anything that does not fit -- generator handlers, authorizers, Mailboxes,
# services overriding ``deliver``/``_serve`` -- takes the Datagram path.
# The decision is made per send, so mid-run topology or loss-rate changes
# are honoured.

_INLINE_CACHE: dict[tuple[type, str], Optional[tuple[bool, str]]] = {}

#: Optional live RPC tally for profiling (see ``repro.profile``): when a
#: dict is installed here, every ``call()``/``notify()`` increments
#: ``RPC_STATS[(service, method)]``.  Plain Python bookkeeping outside
#: the simulation -- no events, no RNG, no metrics -- so enabling it
#: never changes a run's digest.
RPC_STATS: Optional[dict] = None

# Immutable result types that never need the serialization copy.
_ATOMS = frozenset((type(None), bool, int, float, str))

# CallContext is frozen, so unauthenticated contexts are shareable; one
# cached instance per caller host saves an allocation per inline call.
_CTX_CACHE: dict[str, CallContext] = {}


def _inline_plan(sim, dst: str, service: str, method: str):
    """Return ``(service, fresh_result, handler_name)`` or None."""
    dst_host = sim.hosts.get(dst)
    if dst_host is None or not dst_host.up:
        return None
    svc = dst_host.services.get(service)
    if svc is None:
        return None
    cls = type(svc)
    key = (cls, method)
    plan = _INLINE_CACHE.get(key, False)
    if plan is False:
        mname = "handle_" + method
        handler = getattr(cls, mname, None)
        ok = (getattr(cls, "deliver", None) is Service.deliver
              and getattr(cls, "_serve", None) is Service._serve
              and handler is not None
              and not inspect.isgeneratorfunction(handler))
        fresh = method in getattr(cls, "rpc_fresh_results", ())
        plan = (fresh, mname) if ok else None
        _INLINE_CACHE[key] = plan
    if plan is None or svc.authorizer is not None:
        return None
    return svc, plan[0], plan[1]


class _Reply(Event):
    """What an inline caller waits on.

    Fires once and never through the heap: with the response dict from
    inside the reply leg's arrival, or with None from inside the timer
    at ``deadline`` -- whichever runs first -- so the caller resumes in
    the very callback that carries the outcome.
    """

    __slots__ = ("deadline", "disp")

    def __init__(self, sim, deadline: float, disp: _ReplyDispatch):
        super().__init__(sim, name="rpc")
        self.deadline = deadline
        self.disp = disp

    def fire(self, value: Any) -> None:
        if self._value is _UNSET:
            self._value = value
            self._run_callbacks()


def _expire(reply: Optional[_Reply]) -> Optional[Timeout]:
    """The reply cannot arrive in time: arm the caller's timeout.

    Every arming site is either the end of the inline path or sends a
    leg that lands at or after the deadline, so a call arms at most one
    live timer: by the next site the first has fired.
    """
    if reply is None or reply._value is not _UNSET:
        return None
    timer = Timeout(reply.sim, 0.0, at=reply.deadline)
    timer.callbacks.append(lambda _ev: reply.fire(None))
    return timer


def _handoff(reply: Optional[_Reply]) -> Optional[int]:
    """Token under which a Datagram-path response reaches ``reply``."""
    if reply is None:
        return None
    token = _next_token(reply.sim)
    timer = _expire(reply)
    if timer is not None:
        pending = reply.disp.pending
        pending[token] = reply
        # Whichever of response and timer resolves the call retires the
        # other, before the caller resumes.
        reply.callbacks.insert(
            0, lambda _ev: (timer.cancel(), pending.pop(token, None)))
    return token


def _send_leg(net, src_host: "Host", dst: str, service: str, on_arrive,
              reply: Optional[_Reply]) -> None:
    """``Network.send``'s bookkeeping, draws and scheduling for one leg.

    Identical control flow minus the Datagram and the payload copy (the
    caller copies exactly what crosses the boundary).  ``on_arrive`` is
    attached directly as an event callback (it receives the event).
    """
    sim = net.sim
    net.sent += 1
    if not src_host.up or not net.reachable(src_host.name, dst):
        net.dropped += 1
        _expire(reply)
        return
    dst_host = sim.hosts.get(dst)
    same_site = (dst_host is not None and src_host.site
                 and src_host.site == dst_host.site)
    if not same_site and net.loss_rate > 0.0 and \
            net._rng.random() < net.loss_rate:
        net.dropped += 1
        sim.trace.log("network", "loss", src=src_host.name, dst=dst,
                      service=service)
        _expire(reply)
        return
    latency = net._base_latency(src_host, dst_host, dst) \
        + net._rng.uniform(0.0, net.jitter)
    if reply is not None and sim.now + latency >= reply.deadline:
        _expire(reply)
    Timeout(sim, latency).callbacks.append(on_arrive)


def _land_leg(net, src: str, dst: str, service: str):
    """``Network._arrive``'s checks and counters; the service reached."""
    if net.reachable(src, dst):
        host = net.sim.hosts.get(dst)
        if host is not None and host.up:
            svc = host.services.get(service)
            if svc is not None:
                net.delivered += 1
                return svc
    net.dropped += 1
    return None


def _drain(net, host: "Host", reply_to: str, token, gen):
    # A plain handler that returned a generator (never in-tree): finish
    # it under serve semantics.
    ok, value, error = True, None, None
    try:
        value = yield from gen
    except Exception as exc:  # noqa: BLE001 - marshalled to the caller
        ok = False
        error = {"kind": type(exc).__name__, "message": str(exc)}
    if token is None:
        return
    net.send(host, reply_to, _ReplyDispatch.SERVICE, {
        "kind": "response", "token": token, "ok": ok,
        "value": value, "error": error,
    })


def _inline_request(net, src: "Host", dst: str, service: str, method: str,
                    plan, credential, args,
                    reply: Optional[_Reply] = None) -> None:
    """One request (and, for calls, its response) on the inline path."""
    svc, fresh, mname = plan
    caller = src.name
    # Snapshot what crosses the wire now, like the real send's payload
    # copy.  The kwargs dict itself is rebuilt by the ** call below, so
    # only the values need isolating.
    req_args = fast_deepcopy(args) if args else args
    req_cred = credential if credential is None else fast_deepcopy(credential)

    def arrive(_ev) -> None:
        svc_now = _land_leg(net, caller, dst, service)
        if svc_now is None:
            _expire(reply)
            return
        if svc_now is not svc:
            # Service replaced in flight (crash + restart): the real
            # datagram would reach the new instance -- deliver it.
            svc_now.deliver(Datagram(caller, dst, service, {
                "kind": "request", "method": method, "args": req_args,
                "token": _handoff(reply), "reply_to": caller,
                "credential": req_cred,
            }))
            return
        ok, value, error = True, None, None
        try:
            if req_cred is None:
                ctx = _CTX_CACHE.get(caller)
                if ctx is None:
                    ctx = _CTX_CACHE[caller] = CallContext(caller_host=caller)
            else:
                ctx = CallContext(caller_host=caller, credential=req_cred)
            value = getattr(svc, mname)(ctx, **req_args)
            if inspect.isgenerator(value):
                svc.host.spawn(_drain(net, svc.host, caller,
                                      _handoff(reply), value))
                return
        except Exception as exc:  # noqa: BLE001 - marshalled to the caller
            ok = False
            error = {"kind": type(exc).__name__, "message": str(exc)}
        if reply is None:
            return
        # Immutable results and declared-fresh ones cross without the
        # serialization copy; content is identical either way.
        if not fresh and type(value) not in _ATOMS:
            value = fast_deepcopy(value)
        response = {"ok": ok, "value": value, "error": error}

        def reply_arrive(_ev) -> None:
            # A caller host that rebooted in flight has a new dispatcher
            # (or none): the reply lands on nobody.
            if _land_leg(net, dst, caller,
                         _ReplyDispatch.SERVICE) is reply.disp:
                reply.fire(response)
            else:
                _expire(reply)

        _send_leg(net, svc.host, caller, _ReplyDispatch.SERVICE,
                  reply_arrive, reply)

    _send_leg(net, src, dst, service, arrive, reply)


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
    simulated seconds, or a typed error mirroring the remote exception.
    """
    sim = src.sim
    net = sim.network
    if net is None:
        raise RuntimeError("simulation has no Network")
    if RPC_STATS is not None:
        key = (service, method)
        RPC_STATS[key] = RPC_STATS.get(key, 0) + 1
    disp = _dispatch(src)
    plan = _inline_plan(sim, dst, service, method)
    if plan is not None:
        reply = _Reply(sim, sim.now + timeout, disp)
        _inline_request(net, src, dst, service, method, plan, credential,
                        args, reply)
        value = yield reply
    else:
        token = _next_token(sim)
        reply = sim.event(name=f"rpc:{service}.{method}:{token}")
        disp.pending[token] = reply
        net.send(src, dst, service, {
            "kind": "request",
            "method": method,
            "args": args,
            "token": token,
            "reply_to": src.name,
            "credential": credential,
        })
        timer = sim.timeout(timeout)
        index, value = yield sim.any_of([reply, timer])
        if index == 1:
            disp.pending.pop(token, None)
            value = None
        else:
            timer.cancel()
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
    """One-way datagram dispatched to ``handle_<method>`` (no response)."""
    sim = src.sim
    net = sim.network
    if net is None:
        raise RuntimeError("simulation has no Network")
    if RPC_STATS is not None:
        key = (service, method)
        RPC_STATS[key] = RPC_STATS.get(key, 0) + 1
    plan = _inline_plan(sim, dst, service, method)
    if plan is not None:
        _inline_request(net, src, dst, service, method, plan, credential,
                        args)
        return
    net.send(src, dst, service, {
        "kind": "request",
        "method": method,
        "args": args,
        "token": None,
        "reply_to": src.name,
        "credential": credential,
    })


class Service:
    """Base class for RPC services.

    Subclasses define ``handle_<method>(self, ctx, **kwargs)``; handlers may
    be plain methods or generators (which can do simulated work / nested
    RPCs).  Setting ``authorizer`` enforces GSI-style authentication on
    every request; on success the mapped local principal is available as
    ``ctx.principal``.

    ``rpc_fresh_results`` lists method names whose return values are
    freshly allocated per call (no aliasing with server state); the
    inline RPC fast path hands those to the caller without the
    serialization deep-copy.  Only declare a method when every container
    it returns is built inside the handler.
    """

    service_name: str = ""
    rpc_fresh_results: tuple = ()

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

    # -- delivery -----------------------------------------------------------
    def deliver(self, dgram: "Datagram") -> None:
        payload = dgram.payload
        if payload.get("kind") != "request":
            return
        self.host.spawn(
            self._serve(dgram),
            name=f"{self.name}.{payload.get('method')}@{self.host.name}",
        )

    def _serve(self, dgram: "Datagram") -> Generator[Any, Any, None]:
        payload = dgram.payload
        method = payload["method"]
        token = payload["token"]
        ok, value, error = True, None, None
        try:
            principal = None
            if self.authorizer is not None:
                principal = self.authorizer.authorize(
                    payload.get("credential"), self.sim.now
                )
            ctx = CallContext(
                caller_host=dgram.src,
                credential=payload.get("credential"),
                principal=principal,
            )
            handler = getattr(self, "handle_" + method, None)
            if handler is None:
                raise ServiceUnavailable(
                    f"service {self.name} has no method {method!r}")
            result = handler(ctx, **payload["args"])
            if inspect.isgenerator(result):
                result = yield from result
            value = result
        except Exception as exc:  # noqa: BLE001 - marshalled to the caller
            ok = False
            error = {"kind": type(exc).__name__, "message": str(exc)}
        if token is None:
            return
        self.sim.network.send(self.host, payload["reply_to"],
                              _ReplyDispatch.SERVICE, {
            "kind": "response",
            "token": token,
            "ok": ok,
            "value": value,
            "error": error,
        })
