"""Path-profile compiler: call graph + fault state → an aggregate outcome model.

Per-request execution (:meth:`ServiceRuntime.execute`) walks the call tree
once per request, drawing RNG at every hop.  For a *fixed* cluster/fault
state, though, the set of distinct things that can happen to a request is
tiny: every check except network loss is deterministic, so the execution
tree collapses into a handful of **outcome branches** — "all hops succeed",
"dropped on the search→geo edge", "auth fails at mongodb-rate", … — each
with a closed-form probability and per-service latency moments.

:func:`compile_profile` enumerates those branches symbolically, mirroring
``_run_service``'s semantics exactly (handler checks, failure propagation,
log attribution, per-service request records).  The resulting
:class:`PathProfile` lets ``execute_many(op, n)`` simulate ``n`` requests
with O(branches) work: a multinomial split over outcomes, normal-
approximated latency sums, and bounded exemplar traces/logs — instead of
``n`` recursive walks.

The profile is a pure function of (call tree, cluster state, backend
state, helm credentials, ``network_loss``); the runtime caches it keyed on
a fingerprint of exactly those inputs (see ``ServiceRuntime._profile_key``).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.services import errors as err
from repro.services.errors import RpcError, RpcErrorKind
from repro.services.model import CallEdge, Microservice, Operation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.services.runtime import ServiceRuntime

#: handler-error kinds that log (and attribute error_services) at the
#: failing node itself, mirroring ``_run_service``
_AUTH_KINDS = (
    RpcErrorKind.AUTH_FAILED,
    RpcErrorKind.NOT_AUTHORIZED,
    RpcErrorKind.USER_NOT_FOUND,
)


@dataclass
class SpanNode:
    """One span in an outcome's trace skeleton.

    ``entered`` spans correspond to services that actually executed (one
    lognormal service-time draw each); stubs model the fixed-cost failure
    spans the per-request path emits (0.5 ms hop failures, the 1.0 ms
    wrk-client span when the frontend is down).
    """

    service: str
    operation: str
    parent: int  # index into Outcome.spans; -1 for the root
    entered: bool
    status: str = "OK"
    error_message: str = ""
    const_ms: float = 0.0


@dataclass
class Outcome:
    """One terminal branch of an operation under the compiled state."""

    prob: float
    ok: bool
    error: Optional[RpcError]
    #: RequestResult.error_services attribution order (deepest first)
    error_services: tuple[str, ...]
    #: entered services → number of request records (error + ok)
    visit_counts: dict[str, int]
    #: entered services → number of *error* request records
    error_visit_counts: dict[str, int]
    #: callees recorded via the 0.5 ms hop-failure path
    hop_fail_counts: dict[str, int]
    #: entry unreachable: the 1.0 ms wrk-client fast-fail
    client_fail: bool
    #: deterministic log lines this branch emits, in emission order
    logs: tuple[tuple[str, str, str], ...]
    #: entered nodes that finished with no failure (noise-log eligible)
    noise_eligible: int
    #: the noise-eligible (service, command, mean subtree ms) sites —
    #: exactly the entered spans that ended OK, so exemplar WARN/INFO
    #: noise lines carry the same command/latency text per-request
    #: execution would emit there
    noise_sites: tuple[tuple[str, str, float], ...]
    #: end-to-end latency moments (sum of entered services' lognormals)
    mean_ms: float
    var_ms: float
    spans: list[SpanNode] = field(default_factory=list)


@dataclass
class PathProfile:
    """The compiled aggregate model of one operation."""

    op_name: str
    entry: str
    key: tuple
    outcomes: list[Outcome]
    probs: list[float]

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)


def value_fingerprint(rt: "ServiceRuntime", op: Operation) -> tuple:
    """Value-based fingerprint of everything :func:`compile_profile` reads.

    The runtime's per-env cache key (``ServiceRuntime._profile_key``) leans
    on cheap *counter* versions, which only mean "something changed" within
    one environment — two different environments can reach the same counter
    values through different mutation histories, so counters must never be
    compared across sessions.  This fingerprint instead snapshots the
    *values* the compiler consumes: the op's tree signature, every involved
    service's image / latency parameters / pressure multiplier / overload
    probability / network loss / reachability verdict, and the handler
    verdict of every tree edge (credentials, backend liveness, auth and
    role state all fold into that verdict, message text included).  Two
    runtimes with equal fingerprints compile byte-equal profiles by
    construction, which is what makes the cross-session
    :class:`ProfileStore` safe.

    Profiles are namespace-agnostic (qualification happens at telemetry
    emission, not compile time), so sessions of the same problem — and
    even co-tenant apps of the same shape in different namespaces — share
    entries.
    """
    involved, _ = rt._op_fingerprint_inputs(op)
    svc_state = []
    for name in involved:
        svc = rt.services[name]
        reach = rt._check_reachable(svc)
        svc_state.append((
            name,
            rt._image_of(svc),
            svc.base_latency_ms,
            svc.latency_sigma,
            rt._mult(svc),
            rt._overload_p(name),
            rt.network_loss.get(name, 0.0),
            (reach.kind.value, reach.message) if reach is not None else None,
        ))
    edge_checks: list[tuple] = []

    def walk(caller: Microservice, edges: list[CallEdge]) -> None:
        for e in edges:
            callee = rt.services.get(e.callee)
            if callee is None:
                continue
            herr = rt._check_handler(caller, callee, e.command)
            edge_checks.append((
                caller.name, callee.name, e.command,
                (herr.kind.value, herr.message) if herr is not None else None,
            ))
            walk(callee, e.children)

    walk(rt.services[op.entry], op.tree)
    return (op.name, rt._op_tree_signature(op), tuple(svc_state),
            tuple(edge_checks))


class ProfileStore:
    """Cross-session cache of compiled profiles, keyed by value fingerprint.

    One store (:data:`SHARED_PROFILES`) is shared by every runtime in the
    process, so a 4-agents × 48-problems suite compiles each (op, state)
    profile once instead of once per session.  Safety comes from the key,
    not from invalidation: a mutated session computes a different
    :func:`value_fingerprint` and can never observe a co-tenant's stale
    entry, and the stored outcomes are read-only after compilation.
    Entries are evicted LRU past ``maxsize``; access is lock-guarded
    because batch sessions run in worker threads.  Process-pool workers
    each own their (forked or fresh) copy — profiles never cross process
    boundaries.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, PathProfile] = OrderedDict()
        self.stats = {"hits": 0, "misses": 0, "stores": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[PathProfile]:
        with self._lock:
            profile = self._entries.get(key)
            if profile is not None:
                self._entries.move_to_end(key)
                self.stats["hits"] += 1
            else:
                self.stats["misses"] += 1
            return profile

    def put(self, key: tuple, profile: PathProfile) -> None:
        with self._lock:
            self._entries[key] = profile
            self._entries.move_to_end(key)
            self.stats["stores"] += 1
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = {"hits": 0, "misses": 0, "stores": 0}

    def __getstate__(self) -> dict:
        """Locks don't pickle; drop it so a store that ends up in an
        environment snapshot (instance-level override) survives the trip."""
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @property
    def hit_rate(self) -> float:
        looked = self.stats["hits"] + self.stats["misses"]
        return self.stats["hits"] / looked if looked else 0.0


#: the process-wide store every runtime uses by default (see
#: ``ServiceRuntime.profile_store`` for the opt-out)
SHARED_PROFILES = ProfileStore()


class _Branch:
    """Mutable state threaded through the symbolic walk; forks at each
    stochastic (network-drop) decision point."""

    __slots__ = ("prob", "spans", "visits", "error_visits", "hop_fails",
                 "logs", "error_services", "noise", "failure")

    def __init__(self, prob: float = 1.0) -> None:
        self.prob = prob
        self.spans: list[SpanNode] = []
        self.visits: dict[str, int] = {}
        self.error_visits: dict[str, int] = {}
        self.hop_fails: dict[str, int] = {}
        self.logs: list[tuple[str, str, str]] = []
        self.error_services: list[str] = []
        self.noise = 0
        self.failure: Optional[RpcError] = None

    def clone(self) -> "_Branch":
        b = _Branch(self.prob)
        b.spans = [replace(s) for s in self.spans]
        b.visits = dict(self.visits)
        b.error_visits = dict(self.error_visits)
        b.hop_fails = dict(self.hop_fails)
        b.logs = list(self.logs)
        b.error_services = list(self.error_services)
        b.noise = self.noise
        return b


def _bump(d: dict[str, int], key: str, by: int = 1) -> None:
    d[key] = d.get(key, 0) + by


def _fail_edge(branch: _Branch, op: Operation, edge: CallEdge,
               caller: str, caller_idx: int, hop_err: RpcError) -> None:
    """A hop to ``edge.callee`` failed before the callee executed: emit the
    0.5 ms error stub, log at the caller, and mark the branch failed."""
    branch.spans.append(SpanNode(
        service=edge.callee, operation=f"{op.name}/{edge.command}",
        parent=caller_idx, entered=False, status="ERROR",
        error_message=hop_err.message, const_ms=0.5,
    ))
    _bump(branch.hop_fails, edge.callee)
    branch.failure = hop_err
    branch.logs.append((
        caller, "ERROR",
        f"failed to call {edge.callee}.{edge.command}: {hop_err.message}",
    ))
    branch.error_services.append(caller)
    span = branch.spans[caller_idx]
    span.status = "ERROR"
    span.error_message = hop_err.message
    _bump(branch.error_visits, caller)


def _propagate(branch: _Branch, op: Operation, edge: CallEdge,
               caller: str, caller_idx: int) -> None:
    """A recursive callee failed: the caller logs, attributes itself, and
    re-raises — the per-request path's unwind, applied symbolically."""
    assert branch.failure is not None
    branch.logs.append((
        caller, "ERROR",
        f"failed to call {edge.callee}.{edge.command}: {branch.failure.message}",
    ))
    branch.error_services.append(caller)
    span = branch.spans[caller_idx]
    span.status = "ERROR"
    span.error_message = branch.failure.message
    _bump(branch.error_visits, caller)


def _enter(rt: "ServiceRuntime", op: Operation, svc: Microservice,
           caller: Optional[Microservice], command: str,
           children: list[CallEdge], branch: _Branch,
           parent_idx: int) -> tuple[Optional[_Branch], list[_Branch]]:
    """Symbolically execute ``svc``; returns (success branch | None,
    failure branches).  Mirrors ``_run_service`` decision-for-decision."""
    idx = len(branch.spans)
    branch.spans.append(SpanNode(
        service=svc.name, operation=f"{op.name}/{command}",
        parent=parent_idx, entered=True,
    ))
    _bump(branch.visits, svc.name)

    handler_err = rt._check_handler(caller, svc, command)
    if handler_err is not None:
        branch.failure = handler_err
        span = branch.spans[idx]
        span.status = "ERROR"
        span.error_message = handler_err.message
        _bump(branch.error_visits, svc.name)
        if handler_err.kind is RpcErrorKind.APP_BUG:
            branch.logs.append((svc.name, "ERROR", handler_err.message))
            branch.error_services.append(svc.name)
        elif handler_err.kind in _AUTH_KINDS:
            branch.logs.append((svc.name, "WARN",
                                f"ACCESS [conn42] {handler_err.message}"))
            branch.error_services.append(svc.name)
        return None, [branch]

    failures: list[_Branch] = []
    for edge in children:
        callee = rt.services.get(edge.callee)
        if callee is None:
            continue
        p = rt.network_loss.get(edge.callee, 0.0)
        if p > 0:
            dropped = branch.clone()
            dropped.prob *= p
            _fail_edge(dropped, op, edge, svc.name, idx,
                       err.network_drop(edge.callee))
            failures.append(dropped)
            branch.prob *= (1.0 - p)
            if branch.prob <= 0.0:  # p == 1: no surviving path
                return None, failures
        p_over = rt._overload_p(edge.callee)
        if p_over > 0:
            shed = branch.clone()
            shed.prob *= p_over
            _fail_edge(shed, op, edge, svc.name, idx,
                       err.resource_exhausted(edge.callee))
            failures.append(shed)
            branch.prob *= (1.0 - p_over)
            if branch.prob <= 0.0:
                return None, failures
        reach_err = rt._check_reachable(callee)
        if reach_err is not None:
            _fail_edge(branch, op, edge, svc.name, idx, reach_err)
            failures.append(branch)
            return None, failures
        sub_ok, sub_failures = _enter(rt, op, callee, svc, edge.command,
                                      edge.children, branch, idx)
        for fb in sub_failures:
            _propagate(fb, op, edge, svc.name, idx)
        failures.extend(sub_failures)
        if sub_ok is None:
            return None, failures
        branch = sub_ok
    branch.noise += 1
    return branch, failures


def _finalize(rt: "ServiceRuntime", op: Operation, branch: _Branch,
              ok: bool) -> Outcome:
    mean = var = 0.0
    for svc_name, count in branch.visits.items():
        m, v = rt._latency_moments(rt.services[svc_name])
        mean += count * m
        var += count * v
    error_services = list(branch.error_services)
    if not ok and op.entry not in error_services:
        error_services.append(op.entry)
    # Per-span mean subtree latency (entered children roll up to parents,
    # failure stubs don't) — gives noise exemplars realistic "handled in
    # X ms" figures per site.
    spans = branch.spans
    subtree_mean = [
        rt._latency_moments(rt.services[sn.service])[0] if sn.entered else 0.0
        for sn in spans
    ]
    for i in range(len(spans) - 1, 0, -1):
        if spans[i].entered and spans[i].parent >= 0:
            subtree_mean[spans[i].parent] += subtree_mean[i]
    noise_sites = tuple(
        (sn.service, sn.operation.split("/", 1)[-1], subtree_mean[i])
        for i, sn in enumerate(spans) if sn.entered and sn.status == "OK"
    )
    return Outcome(
        prob=branch.prob,
        ok=ok,
        error=branch.failure,
        error_services=tuple(error_services),
        visit_counts=branch.visits,
        error_visit_counts=branch.error_visits,
        hop_fail_counts=branch.hop_fails,
        client_fail=False,
        logs=tuple(branch.logs),
        noise_eligible=branch.noise,
        noise_sites=noise_sites,
        mean_ms=mean,
        var_ms=var,
        spans=branch.spans,
    )


def compile_profile(rt: "ServiceRuntime", op: Operation, key: tuple) -> PathProfile:
    """Enumerate every outcome branch of ``op`` under the current state."""
    entry = rt.services[op.entry]
    root_err = rt._check_reachable(entry)
    if root_err is not None:
        outcome = Outcome(
            prob=1.0, ok=False, error=root_err,
            error_services=(entry.name,),
            visit_counts={}, error_visit_counts={}, hop_fail_counts={},
            client_fail=True, logs=(), noise_eligible=0, noise_sites=(),
            mean_ms=1.0, var_ms=0.0,
            spans=[SpanNode(service="wrk-client", operation=op.name,
                            parent=-1, entered=False, status="ERROR",
                            error_message=root_err.message, const_ms=1.0)],
        )
        return PathProfile(op.name, entry.name, key, [outcome], [1.0])

    success, failures = _enter(rt, op, entry, None, "handle", op.tree,
                               _Branch(1.0), -1)
    outcomes = [_finalize(rt, op, fb, ok=False) for fb in failures]
    if success is not None and success.prob > 0.0:
        outcomes.append(_finalize(rt, op, success, ok=True))
    total = sum(o.prob for o in outcomes)
    if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-12):
        raise AssertionError(
            f"path profile for {op.name!r} does not cover the outcome "
            f"space: probabilities sum to {total!r}")
    probs = [o.prob / total for o in outcomes]
    return PathProfile(op.name, entry.name, key, outcomes, probs)
