"""The resolved call plan — the one statement of request-path fault semantics.

For a fixed cluster / backend / helm / chaos / resource-plane state,
everything that can happen to a request is decided except the coin flips.
:func:`resolve` grounds an operation's call tree against that state once,
into a frozen tree of :class:`Hop` s; both execution tiers consume the
grounding and neither looks at the state again:

* :meth:`ServiceRuntime.execute` *walks* the plan, drawing one RNG value
  per decision (the per-request tier);
* :func:`repro.services.profile.compile_profile` *enumerates* it into
  probability-weighted outcome branches (the aggregate tier).

A request-path fault is therefore written here and nowhere else: what a
hop checks, and in which order, is :func:`resolve` and :func:`gates`; what
a failure writes to the logs, and who is blamed for it, is
:func:`handler_log` and :func:`caller_log`.  The same goes for what every
request writes whether or not anything fails: a span's name is
:attr:`Hop.operation`, resolved once here, and the two noise lines a hop
that ended OK may log are :func:`warn_noise` and :func:`info_noise`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.simcore import ResourceNotFound
from repro.services import errors as err
from repro.services.backends import CacheBackend, MongoBackend
from repro.services.errors import RpcError, RpcErrorKind
from repro.services.model import CallEdge, Microservice, Operation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.services.runtime import ServiceRuntime

#: what the workload generator is called in the trace of a request whose
#: entry service is unreachable, and the fixed cost of that fast-fail
CLIENT = "wrk-client"
CLIENT_FAIL_MS = 1.0
#: fixed cost of a hop that fails before its callee executes
HOP_FAIL_MS = 0.5

_AUTH_KINDS = (
    RpcErrorKind.AUTH_FAILED,
    RpcErrorKind.NOT_AUTHORIZED,
    RpcErrorKind.USER_NOT_FOUND,
)


@dataclass(frozen=True)
class Hop:
    """One call of the tree, with every state-dependent verdict resolved.

    A call into the hop fails before the callee runs with probability
    ``p_drop`` (network loss), then ``p_shed`` (node-pressure shedding),
    then surely if ``blocked`` (the callee's Service is gone or has no
    ready endpoint).  An entered hop spends ``lognormal(mu, sigma)`` ms
    (node pressure already folded into ``mu``) and fails with ``handler``
    if the callee's own application logic rejects the call; otherwise it
    calls ``children`` in order, stopping at the first failure.  Its span
    (and any failure stub standing in for it) is named ``operation``.
    """

    service: str
    command: str
    operation: str
    mu: float
    sigma: float
    p_drop: float
    p_shed: float
    blocked: Optional[RpcError]
    handler: Optional[RpcError]
    children: tuple["Hop", ...]


@dataclass(frozen=True)
class Plan:
    """An operation resolved under one state.  Hashable by value: two
    runtimes whose plans are equal behave identically, so the plan is
    also the key of the cross-session profile store."""

    op_name: str
    root: Hop


def _check_reachable(rt: "ServiceRuntime", callee: Microservice) -> Optional[RpcError]:
    try:
        rt.cluster.get_service(rt.namespace, callee.name)
    except ResourceNotFound:
        return err.unavailable(callee.name, f'service "{callee.name}" not found')
    if not rt.cluster.service_reachable(rt.namespace, callee.name):
        return err.connection_refused(callee.name, callee.port)
    return None


def _check_handler(
    rt: "ServiceRuntime", caller: Optional[Microservice],
    callee: Microservice, command: str,
) -> Optional[RpcError]:
    """Application-level behaviour of the callee.

    ``caller`` is None for the entry hop: nothing authenticates to the
    entry service, so only its image is checked."""
    image = rt._image_of(callee)
    if "buggy" in image:
        return err.app_bug(callee.name, image)
    if caller is None:
        return None
    backend = callee.backend
    if isinstance(backend, MongoBackend):
        if not backend.up:
            return err.unavailable(callee.name, "mongod is shutting down")
        creds = rt.credentials_provider(caller.name, callee.name)
        user, pw = creds if creds else (None, None)
        reason = backend.authenticate(user, pw)
        if reason in ("no_credentials", "bad_password"):
            return err.auth_failed(callee.name, backend.db_name)
        if reason == "user_not_found":
            return err.user_not_found(callee.name, backend.db_name, user or "<none>")
        reason = backend.authorize(user, command)
        if reason == "not_authorized":
            return err.not_authorized(callee.name, backend.db_name, command)
        if reason == "user_not_found":
            return err.user_not_found(callee.name, backend.db_name, user or "<none>")
    elif isinstance(backend, CacheBackend):
        if not backend.up:
            return err.unavailable(callee.name, f"{callee.kind} instance down")
    return None


def resolve(rt: "ServiceRuntime", op: Operation) -> Plan:
    """Ground ``op``'s call tree against ``rt``'s current state.

    The only reader of reachability, handler verdicts, images, pressure
    multipliers, shed probabilities and ``network_loss`` on the request
    path.  Nothing is resolved below a hop that cannot be entered or whose
    handler fails — no request gets there."""
    plane, ns = rt.resources, rt.namespace

    def hop(caller: Optional[Microservice], svc: Microservice,
            command: str, edges: list[CallEdge]) -> Hop:
        blocked = _check_reachable(rt, svc)
        handler = (None if blocked is not None
                   else _check_handler(rt, caller, svc, command))
        children: tuple[Hop, ...] = ()
        if blocked is None and handler is None:
            # an edge to a service the app never deployed is not a call
            children = tuple(
                hop(svc, rt.services[e.callee], e.command, e.children)
                for e in edges if e.callee in rt.services)
        # node pressure (neutral when no resource plane is attached)
        mult = 1.0 if plane is None else plane.multiplier_for(ns, svc.name)
        shed = 0.0 if plane is None else plane.overload_p(ns, svc.name)
        return Hop(
            service=svc.name, command=command,
            operation=f"{op.name}/{command}",
            mu=math.log(max(svc.base_latency_ms * mult, 0.1)),
            sigma=svc.latency_sigma,
            # nothing sits between the client and the entry service
            p_drop=rt.network_loss.get(svc.name, 0.0) if caller is not None else 0.0,
            p_shed=shed if caller is not None else 0.0,
            blocked=blocked, handler=handler, children=children,
        )

    return Plan(op.name, hop(None, rt.services[op.entry], "handle", op.tree))


def gates(hop: Hop) -> tuple[tuple[float, RpcError], ...]:
    """The coin flips a call into ``hop`` must survive before the callee
    is reached, in draw order, as ``(probability, error if it fires)``.
    Zero-probability gates are absent: they draw nothing."""
    found: tuple[tuple[float, RpcError], ...] = ()
    if hop.p_drop > 0:
        found += ((hop.p_drop, err.network_drop(hop.service)),)
    if hop.p_shed > 0:
        found += ((hop.p_shed, err.resource_exhausted(hop.service)),)
    return found


def handler_log(failure: RpcError) -> Optional[tuple[str, str]]:
    """``(level, message)`` the callee itself logs when its handler fails
    with ``failure`` — which also puts it on the request's
    ``error_services``.  None for failures only the caller reports."""
    if failure.kind is RpcErrorKind.APP_BUG:
        return "ERROR", failure.message
    if failure.kind in _AUTH_KINDS:
        # mongod itself also records the access failure
        return "WARN", f"ACCESS [conn42] {failure.message}"
    return None


def caller_log(child: Hop, failure: RpcError) -> tuple[str, str]:
    """``(level, message)`` a caller logs when its call into ``child``
    failed, whether before the callee ran or further down — which puts
    the caller on ``error_services`` and ends its fan-out."""
    return ("ERROR",
            f"failed to call {child.service}.{child.command}: {failure.message}")


def warn_noise(hop: Hop) -> tuple[str, str]:
    """``(level, message)`` of the benign transient WARN an entered hop
    that ended OK may log — background noise, blamed on nobody."""
    return "WARN", f"slow {hop.command} request: retrying idempotent call once"


def info_noise(hop: Hop, total_ms: float) -> tuple[str, str]:
    """``(level, message)`` of the sampled INFO line an entered hop that
    ended OK after ``total_ms`` (its subtree included) may log."""
    return "INFO", f"{hop.operation} handled in {total_ms:.1f}ms"
