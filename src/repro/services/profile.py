"""Path-profile compiler: a resolved call plan → an aggregate outcome model.

Under a fixed state the set of distinct things that can happen to a
request is tiny: a :class:`~repro.services.plan.Plan` has decided every
check except the coin flips of its ``gates``, so the execution tree
collapses into a handful of **outcome branches** — "all hops succeed",
"dropped on the search→geo edge", "auth fails at mongodb-rate", … — each
with a closed-form probability and per-service latency moments.

:func:`compile_profile` enumerates those branches.  It reads nothing but
the plan — the same plan ``ServiceRuntime.execute`` walks one request at a
time, with the same gate order, span names and log rules
(:mod:`repro.services.plan`) — so the tiers agree by construction and
equal plans compile equal profiles, which is what lets
:class:`ProfileStore` share them across sessions keyed by the plan itself.
The resulting :class:`PathProfile` lets ``execute_many(op, n)`` simulate
``n`` requests with O(branches) work: a multinomial split over outcomes,
normal-approximated latency sums, and bounded exemplar traces/logs.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Hashable, Optional

from repro.services.errors import RpcError
from repro.services.plan import (
    CLIENT,
    CLIENT_FAIL_MS,
    HOP_FAIL_MS,
    Hop,
    Plan,
    caller_log,
    gates,
    handler_log,
)


@dataclass
class SpanNode:
    """One span in an outcome's trace skeleton.

    ``entered`` spans correspond to services that actually executed (one
    ``lognormal(mu, sigma)`` service-time draw each); stubs model the
    fixed-cost failure spans the per-request path emits (0.5 ms hop
    failures, the 1.0 ms wrk-client span when the frontend is down).
    """

    service: str
    operation: str
    parent: int  # index into Outcome.spans; -1 for the root
    entered: bool
    status: str = "OK"
    error_message: str = ""
    const_ms: float = 0.0
    mu: float = 0.0
    sigma: float = 0.0


@dataclass
class Outcome:
    """One terminal branch of an operation under the compiled state."""

    prob: float
    ok: bool
    error: Optional[RpcError]
    #: the outcome row's error_services attribution order (deepest first)
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
    #: the noise-log eligible (hop, mean subtree ms) sites in span order —
    #: exactly the entered hops that ended OK, so exemplar WARN/INFO
    #: noise lines are worded as per-request execution words them there
    noise_sites: tuple[tuple[Hop, float], ...]
    #: end-to-end latency moments (sum of entered services' lognormals)
    mean_ms: float
    var_ms: float
    spans: list[SpanNode] = field(default_factory=list)


@dataclass
class PathProfile:
    """The compiled aggregate model of one operation."""

    op_name: str
    entry: str
    outcomes: list[Outcome]
    probs: list[float]

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)


class ProfileStore:
    """Cross-session cache of compiled profiles, keyed by the plan.

    One store (:data:`SHARED_PROFILES`) is shared by every runtime in the
    process.  Only the aggregate tier reads it — a per-request plan fetch
    never does, so the paper problems make no lookups — and there a
    session reuses each (op, state) profile an earlier aggregate-tier
    session in the process compiled.  Safety comes from the key,
    not from invalidation: the plan is :func:`compile_profile`'s only
    input, so a mutated session resolves a different plan and can never
    observe a co-tenant's stale entry, and the stored outcomes are
    read-only after compilation.  Plans carry no namespace, so co-tenant
    apps of the same shape share entries too.
    Entries are evicted LRU past ``maxsize``; access is lock-guarded so
    that callers may share the store across threads.  Process-pool workers
    each own their (forked or fresh) copy — profiles never cross process
    boundaries.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, PathProfile] = OrderedDict()
        self.stats = {"hits": 0, "misses": 0, "stores": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[PathProfile]:
        with self._lock:
            profile = self._entries.get(key)
            if profile is not None:
                self._entries.move_to_end(key)
                self.stats["hits"] += 1
            else:
                self.stats["misses"] += 1
            return profile

    def put(self, key: Hashable, profile: PathProfile) -> None:
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
        #: (span index, hop) of every entered hop that ended OK
        self.noise: list[tuple[int, Hop]] = []
        self.failure: Optional[RpcError] = None

    def clone(self) -> "_Branch":
        b = _Branch(self.prob)
        b.spans = [replace(s) for s in self.spans]
        b.visits = dict(self.visits)
        b.error_visits = dict(self.error_visits)
        b.hop_fails = dict(self.hop_fails)
        b.logs = list(self.logs)
        b.error_services = list(self.error_services)
        b.noise = list(self.noise)
        return b


def _bump(d: dict[str, int], key: str, by: int = 1) -> None:
    d[key] = d.get(key, 0) + by


def _fail_edge(branch: _Branch, child: Hop, caller: str,
               caller_idx: int, hop_err: RpcError) -> None:
    """A call into ``child`` failed before the callee executed: emit the
    fixed-cost error stub and let the caller observe the failure."""
    branch.spans.append(SpanNode(
        service=child.service, operation=child.operation,
        parent=caller_idx, entered=False, status="ERROR",
        error_message=hop_err.message, const_ms=HOP_FAIL_MS,
    ))
    _bump(branch.hop_fails, child.service)
    branch.failure = hop_err
    _propagate(branch, child, caller, caller_idx)


def _propagate(branch: _Branch, child: Hop, caller: str,
               caller_idx: int) -> None:
    """The call into ``child`` failed: the caller logs, attributes itself,
    and re-raises — the per-request path's unwind, applied symbolically."""
    assert branch.failure is not None
    branch.logs.append((caller, *caller_log(child, branch.failure)))
    branch.error_services.append(caller)
    span = branch.spans[caller_idx]
    span.status = "ERROR"
    span.error_message = branch.failure.message
    _bump(branch.error_visits, caller)


def _enter(hop: Hop, branch: _Branch,
           parent_idx: int) -> tuple[Optional[_Branch], list[_Branch]]:
    """Symbolically execute an entered ``hop``; returns (success branch |
    None, failure branches) — the per-request walker
    (``ServiceRuntime.execute``) with every coin flip forked instead of
    drawn."""
    idx = len(branch.spans)
    branch.spans.append(SpanNode(
        service=hop.service, operation=hop.operation,
        parent=parent_idx, entered=True, mu=hop.mu, sigma=hop.sigma,
    ))
    _bump(branch.visits, hop.service)

    if hop.handler is not None:
        branch.failure = hop.handler
        span = branch.spans[idx]
        span.status = "ERROR"
        span.error_message = hop.handler.message
        _bump(branch.error_visits, hop.service)
        line = handler_log(hop.handler)
        if line is not None:
            branch.logs.append((hop.service, *line))
            branch.error_services.append(hop.service)
        return None, [branch]

    failures: list[_Branch] = []
    for child in hop.children:
        for p, gate_err in gates(child):
            failed = branch.clone()
            failed.prob *= p
            _fail_edge(failed, child, hop.service, idx, gate_err)
            failures.append(failed)
            branch.prob *= (1.0 - p)
            if branch.prob <= 0.0:  # p == 1: no surviving path
                return None, failures
        if child.blocked is not None:
            _fail_edge(branch, child, hop.service, idx, child.blocked)
            failures.append(branch)
            return None, failures
        sub_ok, sub_failures = _enter(child, branch, idx)
        for fb in sub_failures:
            _propagate(fb, child, hop.service, idx)
        failures.extend(sub_failures)
        if sub_ok is None:
            return None, failures
        branch = sub_ok
    branch.noise.append((idx, hop))
    return branch, failures


def _moments(mu: float, sigma: float) -> tuple[float, float]:
    """(mean, variance) of a ``lognormal(mu, sigma)`` hop time."""
    sigma2 = sigma ** 2
    return (math.exp(mu + sigma2 / 2.0),
            (math.exp(sigma2) - 1.0) * math.exp(2.0 * mu + sigma2))


def _finalize(entry: str, branch: _Branch, ok: bool) -> Outcome:
    spans = branch.spans
    moments = {sn.service: _moments(sn.mu, sn.sigma)
               for sn in spans if sn.entered}
    mean = var = 0.0
    for svc_name, count in branch.visits.items():
        m, v = moments[svc_name]
        mean += count * m
        var += count * v
    error_services = list(branch.error_services)
    if not ok and entry not in error_services:
        error_services.append(entry)
    # Per-span mean subtree latency (entered children roll up to parents,
    # failure stubs don't) — gives noise exemplars realistic "handled in
    # X ms" figures per site.
    subtree_mean = [moments[sn.service][0] if sn.entered else 0.0
                    for sn in spans]
    for i in range(len(spans) - 1, 0, -1):
        if spans[i].entered and spans[i].parent >= 0:
            subtree_mean[spans[i].parent] += subtree_mean[i]
    noise_sites = tuple((hop, subtree_mean[i])
                        for i, hop in sorted(branch.noise))
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
        noise_sites=noise_sites,
        mean_ms=mean,
        var_ms=var,
        spans=spans,
    )


def compile_profile(plan: Plan) -> PathProfile:
    """Enumerate every outcome branch of ``plan``."""
    root = plan.root
    if root.blocked is not None:
        outcome = Outcome(
            prob=1.0, ok=False, error=root.blocked,
            error_services=(root.service,),
            visit_counts={}, error_visit_counts={}, hop_fail_counts={},
            client_fail=True, logs=(), noise_sites=(),
            mean_ms=CLIENT_FAIL_MS, var_ms=0.0,
            spans=[SpanNode(service=CLIENT, operation=plan.op_name,
                            parent=-1, entered=False, status="ERROR",
                            error_message=root.blocked.message,
                            const_ms=CLIENT_FAIL_MS)],
        )
        return PathProfile(plan.op_name, root.service, [outcome], [1.0])

    success, failures = _enter(root, _Branch(1.0), -1)
    outcomes = [_finalize(root.service, fb, ok=False) for fb in failures]
    if success is not None and success.prob > 0.0:
        outcomes.append(_finalize(root.service, success, ok=True))
    total = sum(o.prob for o in outcomes)
    if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-12):
        raise AssertionError(
            f"path profile for {plan.op_name!r} does not cover the outcome "
            f"space: probabilities sum to {total!r}")
    probs = [o.prob / total for o in outcomes]
    return PathProfile(plan.op_name, root.service, outcomes, probs)
