"""Request execution over the call graph — where faults become observable.

What can happen to a request under the current state is resolved once per
state into a :class:`~repro.services.plan.Plan` (``services/plan.py``, the
one statement of fault semantics); two execution tiers consume it:

* :meth:`ServiceRuntime.execute` — the per-request reference path: walks
  the plan's rows (:func:`_row`) once per request, one RNG draw per
  decision (a coin is one raw 64-bit draw against a threshold fixed when
  the rows are built, :func:`_coin`), full-fidelity telemetry.
  Bit-identical to the seed.
* :meth:`ServiceRuntime.execute_many` — the aggregate path: compiles the
  plan into a cached :class:`~repro.services.profile.PathProfile` and
  samples ``n`` requests' outcomes in O(outcome branches) —
  binomial/multinomial error splits, normal-approximated lognormal
  latency sums, and bounded exemplar traces/logs.  Statistically
  equivalent, orders of magnitude faster.

Both fetch the plan through one per-runtime cache keyed on cheap state
counters (:meth:`ServiceRuntime._profile_key`); a request never moves
that key, so the per-request driver checks it once per op per tick
(:meth:`ServiceRuntime.holding_plans`).  The aggregate path
samples through fused numpy kernels (:mod:`repro.services.vectorized`) on
one deterministic batch stream, and shares compiled profiles across
sessions through :data:`repro.services.profile.SHARED_PROFILES`, keyed by
the plan itself so a mutated session can never observe a co-tenant's
stale profile.

Both write one trace shape, a list of span rows handed to
``TraceStore.add`` (``execute`` appends a row per hop as it walks, the
aggregate path copies an outcome's span skeleton), and account requests
through one call, ``TelemetryCollector.record_requests``, per batch or tick.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.simcore import ResourceNotFound, RngStream, SimClock
from repro.kubesim.cluster import Cluster
from repro.services import vectorized
from repro.services.backends import MongoBackend
from repro.services.errors import RpcError
from repro.services.model import CallEdge, Microservice, Operation
from repro.services.plan import (
    CLIENT,
    CLIENT_FAIL_MS,
    HOP_FAIL_MS,
    Hop,
    Plan,
    caller_log,
    gates,
    handler_log,
    info_noise,
    resolve,
    warn_noise,
)
from repro.services.profile import (
    SHARED_PROFILES,
    Outcome,
    PathProfile,
    ProfileStore,
    compile_profile,
)
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.traces import trace_id

#: ``(caller, callee) -> (user, password) | None``; None means the caller has
#: no credentials configured for that backend (AuthenticationMissing).
CredentialsProvider = Callable[[str, str], Optional[tuple[str, str]]]


def _default_credentials(caller: str, backend: str) -> tuple[str, str]:
    """Default open-access credentials; a module function (not a lambda)
    so runtimes pickle for environment snapshots."""
    return ("admin", "admin")


def _coin(p: float) -> int:
    """The threshold of a coin of probability ``p`` in [0, 1]: a raw 64-bit
    draw is below it exactly when ``random()`` on that draw is below ``p``,
    as PCG64's ``random()`` is ``(raw >> 11) * 2**-53``.  So the coin takes
    the draw ``bernoulli(p)`` takes and agrees with it bit for bit."""
    return math.ceil(p * 2**53) << 11


def _row(hop: Hop) -> tuple:
    """``hop``'s walker row: ``(service, operation, mu, sigma, handler,
    handler_log line, kids, hop)``, a kid per child: ``(gates, blocked,
    row)`` with each gate ``(_coin(p), error)``.  Rejects what a draw
    would: a gate probability outside [0, 1] (NaN too), with
    ``RngStream.bernoulli``'s error, and a sigma numpy's lognormal would
    (sign bit, not NaN)."""
    for p in (hop.p_drop, hop.p_shed):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli p must be in [0,1], got {p}")
    if hop.blocked is None and math.copysign(1.0, hop.sigma) < 0 \
            and not math.isnan(hop.sigma):
        raise ValueError("sigma < 0")
    line = None if hop.handler is None else handler_log(hop.handler)
    return (hop.service, hop.operation, hop.mu, hop.sigma, hop.handler, line,
            tuple((tuple((_coin(p), e) for p, e in gates(c)), c.blocked,
                   _row(c)) for c in hop.children), hop)


@dataclass
class RequestResult:
    """Outcome of one end-to-end request."""

    operation: str
    ok: bool
    latency_ms: float
    error: Optional[RpcError] = None
    trace_id: str = ""
    #: services that logged an error while handling this request
    error_services: list[str] = field(default_factory=list)


@dataclass
class BatchResult:
    """Aggregate outcome of ``execute_many(op, n)`` — the batch analogue of
    :class:`RequestResult`, with counts where the per-request path has
    booleans."""

    operation: str
    n: int
    errors: int = 0
    latency_sum_ms: float = 0.0
    #: service → number of requests that attributed an error to it
    error_services: dict[str, int] = field(default_factory=dict)
    #: RpcErrorKind.value → failed-request count
    error_kinds: dict[str, int] = field(default_factory=dict)
    #: bounded per-outcome exemplar requests (full traces were recorded)
    exemplars: list[RequestResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.errors == 0

    @property
    def error_rate(self) -> float:
        return self.errors / self.n if self.n else 0.0

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_sum_ms / self.n if self.n else 0.0


class ServiceRuntime:
    """Executes operations against the deployed application.

    Parameters
    ----------
    cluster:
        The kubesim cluster the app is deployed on (reachability checks).
    namespace:
        Namespace the app lives in.
    services:
        ``name -> Microservice`` for every service in the app.
    operations:
        ``name -> Operation`` call trees.
    collector:
        Telemetry sink (logs, traces, request metrics).
    credentials_provider:
        Resolves the credentials a caller uses against a backend; reading
        them lazily means helm upgrades take effect immediately.
    seed:
        RNG seed for latency sampling and drop decisions.
    """

    #: probability a healthy hop emits an INFO log line (keeps volume sane)
    INFO_SAMPLE = 0.03
    #: probability of a benign transient WARN anywhere (background noise)
    NOISE_WARN = 0.01
    #: cross-session compiled-profile store (keyed by the plan);
    #: override on an instance — or set None — to opt a runtime out
    profile_store: Optional[ProfileStore] = SHARED_PROFILES

    def __init__(
        self,
        cluster: Cluster,
        namespace: str,
        services: dict[str, Microservice],
        operations: dict[str, Operation],
        collector: TelemetryCollector,
        credentials_provider: Optional[CredentialsProvider] = None,
        seed: int = 0,
    ) -> None:
        self.cluster = cluster
        self.namespace = namespace
        self.services = services
        self.operations = operations
        self.collector = collector
        self.credentials_provider = credentials_provider or _default_credentials
        self.rng = RngStream(seed, f"runtime/{namespace}")
        #: chaos state: callee service -> packet drop probability
        self.network_loss: dict[str, float] = {}
        #: the environment's ResourcePlane when resource coupling is on;
        #: None (the default) leaves every path bit-identical to the seed
        self.resources = None
        #: dedicated stream for the aggregate path, derived from the seed
        #: (not from the per-request generator's state), so batch results
        #: are deterministic in (seed, n) regardless of interleaved
        #: ``execute`` calls — and per-request draws stay bit-identical.
        self._batch_rng: Optional[RngStream] = None
        #: op name -> (this runtime's counter key, the plan resolved under
        #: it, its walker rows): the one validity cache both tiers fetch through
        self._plans: dict[str, tuple[tuple, Plan, tuple]] = {}
        #: op name -> entry handed out inside ``holding_plans`` (else None)
        self._held: Optional[dict[str, tuple[tuple, Plan, tuple]]] = None
        #: requests not yet accounted (:meth:`_flush`): service -> their
        #: latencies in the order their hops finished, and -> failures
        self._tick_latencies: dict[str, list[float]] = defaultdict(list)
        self._tick_errors: dict[str, int] = {}
        #: op name -> the cached plan's compiled PathProfile (possibly
        #: shared with co-tenant runtimes via the cross-session store);
        #: dropped whenever the plan is re-resolved
        self._profiles: dict[str, PathProfile] = {}
        #: op name -> static fingerprint inputs (services, backend edges)
        self._op_static: dict[str, tuple] = {}
        #: observability for tests/benchmarks of the profile cache:
        #: ``compiles`` counts profile installs for *this* runtime (cold
        #: compiles and cross-session fetches alike — either way the old
        #: profile was invalid and replaced), ``hits`` counts per-runtime
        #: key hits, ``shared_hits`` the installs served by the store
        self.profile_stats = {"compiles": 0, "hits": 0, "shared_hits": 0}
        #: (pods.version, state_version)-keyed service -> pod-name memo
        self._pod_cache_key: tuple[int, int] = (-1, -1)
        self._pod_cache: dict[str, str] = {}

    # ------------------------------------------------------------------
    @property
    def clock(self) -> SimClock:
        return self.cluster.clock

    def _image_of(self, svc: Microservice) -> str:
        """The image the service currently runs — read from the live
        deployment template so ``kubectl set image`` mitigations count."""
        try:
            dep = self.cluster.get_deployment(self.namespace, svc.name)
        except ResourceNotFound:
            return svc.image
        return dep.template.containers[0].image if dep.template.containers else svc.image

    def _pod_for(self, service: str) -> str:
        """The pod log lines for ``service`` are attributed to.

        Memoized per (pods.version, state_version) so emitting a log line
        is O(1) instead of an O(pods) scan: the dict version catches pod
        create/delete, the cluster's state version catches in-place pod
        mutations (crash-loop flags flip inside ``reconcile``).
        """
        key = (self.cluster.pods.version, self.cluster.state_version)
        if key != self._pod_cache_key:
            self._pod_cache_key = key
            self._pod_cache = {}
        name = self._pod_cache.get(service)
        if name is None:
            pods = [
                p for p in self.cluster.pods_in(self.namespace)
                if p.owner == service and p.ready and not p.crash_looping
            ]
            name = pods[0].name if pods else f"{service}-<none>"
            self._pod_cache[service] = name
        return name

    def _log(self, service: str, level: str, message: str) -> None:
        self.collector.emit_log(
            self.namespace, service, self._pod_for(service), level, message
        )

    def _record(self, service: str, count: int, errors: int,
                latencies: Sequence[float]) -> None:
        """Account ``count`` requests of ``service`` — with the collector,
        and as offered demand on the resource plane (when attached)."""
        self.collector.record_requests(
            self.namespace, service, count, errors, latencies)
        if self.resources is not None:
            self.resources.account(self.namespace, service, count)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, op_name: str) -> RequestResult:
        """Run one request for ``op_name`` through its resolved plan's rows,
        in one loop (a hop calling a child waits on ``stack``).  Draw order,
        per entered hop: its service time (one ``standard_normal``); per
        child in order one coin per gate (network drop, then shed; non-zero
        ones only) until one fires, overriding ``blocked``; after the
        children, iff nothing failed, the WARN then the INFO noise coin.  A
        coin is one raw draw held below its :func:`_coin` threshold: the
        gates' are fixed in the rows, the noise coins' are read from the
        instance once per request.  Latencies are buffered as hops end and
        accounted per tick (:meth:`_flush`)."""
        op = self.operations.get(op_name)
        if op is None:
            raise KeyError(f"unknown operation {op_name!r}")
        _, plan, row = self._plan_for(op)
        latencies, errors = self._tick_latencies, self._tick_errors
        spans: list = []  # exact tuples in Span's field order
        error_services: list[str] = []
        root = plan.root
        if root.blocked is not None:
            # The client (workload generator) observes the frontend down.
            total, failure = CLIENT_FAIL_MS, root.blocked
            spans.append((-1, CLIENT, op.name, total, "ERROR", failure.message))
            latencies[root.service].append(total)
            errors[root.service] = errors.get(root.service, 0) + 1
        else:
            generator = self.rng.generator
            raw, normal = generator.bit_generator.random_raw, generator.standard_normal
            noise_warn, info_sample = _coin(self.NOISE_WARN), _coin(self.INFO_SAMPLE)
            log, exp = self._log, math.exp
            stack, parent, entering = [], -1, True
            while True:
                if entering:
                    service, operation, mu, sigma, failure, line, kids, hop = row
                    index = len(spans)
                    spans.append(None)  # this hop's row, filled in at its end
                    total = exp(mu + sigma * normal())
                    if line is not None:
                        log(service, *line)
                        error_services.append(service)
                    kids = iter(kids)
                if failure is None and (kid := next(kids, None)) is not None:
                    gates, failure, row = kid
                    for threshold, gate_err in gates:
                        if raw() < threshold:
                            failure = gate_err
                            break
                    if failure is None:
                        stack.append((service, operation, hop, index, parent,
                                      total, kids, row))
                        parent, entering = index, True
                        continue
                    # the callee never ran: a fixed-cost stub
                    spans.append((index, row[0], row[1], HOP_FAIL_MS,
                                  "ERROR", failure.message))
                    latencies[row[0]].append(HOP_FAIL_MS)
                    errors[row[0]] = errors.get(row[0], 0) + 1
                    log(service, *caller_log(row[7], failure))
                    error_services.append(service)
                # the hop ends
                if failure is None:
                    if raw() < noise_warn:
                        log(service, *warn_noise(hop))
                    if raw() < info_sample:
                        log(service, *info_noise(hop, total))
                    spans[index] = (parent, service, operation, total,
                                    "OK", "")
                else:
                    spans[index] = (parent, service, operation, total,
                                    "ERROR", failure.message)
                    errors[service] = errors.get(service, 0) + 1
                latencies[service].append(total)
                if not stack:
                    break
                latency = total  # the caller resumes
                service, operation, hop, index, parent, total, kids, row = stack.pop()
                total += latency
                entering = False
                if failure is not None:
                    log(service, *caller_log(row[7], failure))
                    error_services.append(service)
        if failure is not None and root.service not in error_services:
            error_services.append(root.service)
        number = self.collector.traces.add(self.clock.now, tuple(spans))
        if self._held is None:
            self._flush()
        return RequestResult(op.name, failure is None, total, failure,
                             trace_id(number), error_services)

    def _flush(self) -> None:
        """Account the buffered requests: one :meth:`_record` per service,
        latencies in request order (see :meth:`holding_plans`)."""
        errors = self._tick_errors
        for service, lats in self._tick_latencies.items():
            self._record(service, len(lats), errors.get(service, 0), lats)
        self._tick_latencies.clear()
        errors.clear()

    # ------------------------------------------------------------------
    # aggregate execution (the batched tier)
    # ------------------------------------------------------------------

    #: exemplar traces recorded per outcome branch per execute_many call
    BATCH_TRACE_EXEMPLARS = 2
    #: grown reservoir used when a pending tail-metric watch (latency
    #: p50/p99 trigger) reads one of this operation's services: scrape
    #: percentiles come from these exemplars, so a p99 trigger at high
    #: rates needs more of them for its fire time to converge on the
    #: per-request fire time (see tests/services/test_execute_many.py)
    BATCH_TRACE_EXEMPLARS_TAIL = 24
    #: copies of each outcome's deterministic log lines emitted per call
    BATCH_LOG_EXEMPLARS = 2
    #: cap on emitted WARN/INFO noise exemplar lines per call
    BATCH_NOISE_EXEMPLARS = 3

    def _batch_stream(self) -> RngStream:
        if self._batch_rng is None:
            self._batch_rng = self.rng.child("batch")
        return self._batch_rng

    def _op_fingerprint_inputs(self, op: Operation) -> tuple:
        """Static, state-independent inputs of ``op``'s fingerprint:
        (involved services, (caller, callee) edges over backend services).
        Call trees never mutate, so this is computed once per op."""
        cached = self._op_static.get(op.name)
        if cached is not None:
            return cached
        involved: list[str] = []
        backend_edges: list[tuple[str, str]] = []

        def walk(caller: str, edges: list[CallEdge]) -> None:
            for e in edges:
                callee = self.services.get(e.callee)
                if callee is None:
                    continue
                if callee.name not in involved:
                    involved.append(callee.name)
                if callee.backend is not None:
                    backend_edges.append((caller, callee.name))
                walk(callee.name, e.children)

        involved.append(op.entry)
        walk(op.entry, op.tree)
        cached = (tuple(involved), tuple(backend_edges))
        self._op_static[op.name] = cached
        return cached

    def _profile_key(self, op: Operation) -> tuple:
        """Fingerprint of everything :func:`~repro.services.plan.resolve`
        reads — the validity key of the cached plan, for both tiers.

        Cheap cluster-wide counters (cluster state and membership
        versions, the resource plane's regime version, backend versions)
        catch every mutation that flows through cluster CRUD,
        ``reconcile``, a rollup or a backend method; the value snapshots
        (resolved credentials, images, latencies, ``network_loss``)
        additionally catch in-place edits that bypass them (helm values
        surgery, direct template pokes) — the ``_dirty``-style staleness
        bug class.  A co-tenant's mutation moves the counters too; the
        re-resolve it costs returns an equal plan, whose profile the
        shared store serves as-is.
        """
        involved, backend_edges = self._op_fingerprint_inputs(op)
        creds = tuple(
            self.credentials_provider(caller, callee)
            if isinstance(self.services[callee].backend, MongoBackend) else None
            for caller, callee in backend_edges
        )
        backend_versions = tuple(
            getattr(self.services[callee].backend, "version", 0)
            for _, callee in backend_edges
        )
        images = tuple(self._image_of(self.services[s]) for s in involved)
        latencies = tuple(
            (self.services[s].base_latency_ms, self.services[s].latency_sigma)
            for s in involved
        )
        return (
            self.cluster.state_version,
            self.cluster.pods.version,
            self.cluster.services.version,
            0 if self.resources is None else self.resources.version,
            tuple(sorted(self.network_loss.items())),
            backend_versions,
            creds,
            images,
            latencies,
        )

    @contextmanager
    def holding_plans(self) -> Iterator[None]:
        """Key each op's plan once for the block and account its requests
        when it exits: sound while only requests run in it, as they never
        write what ``resolve`` reads and nothing reads the accounts."""
        self._held = {}
        try:
            yield
        finally:
            self._held = None
            self._flush()

    def _plan_for(self, op: Operation) -> tuple[tuple, Plan, tuple]:
        """The ``(key, plan, rows)`` entry for ``op`` under the current
        state: re-resolved (and its compiled profile dropped) exactly when
        the key moves; inside :meth:`holding_plans`, the one handed out."""
        held = self._held
        if held is not None and op.name in held:
            return held[op.name]
        key = self._profile_key(op)
        cached = self._plans.get(op.name)
        if cached is None or cached[0] != key:
            plan = resolve(self, op)
            cached = self._plans[op.name] = (key, plan, _row(plan.root))
            self._profiles.pop(op.name, None)
        if held is not None:
            held[op.name] = cached
        return cached

    def _profile_for(self, op: Operation) -> PathProfile:
        """The compiled profile of ``op``'s current plan — per-runtime
        cache first, then the cross-session store (keyed by the plan, so
        a store-served profile object is shared as-is; its outcome objects
        are read-only after compilation), and only then a compile."""
        plan = self._plan_for(op)[1]
        profile = self._profiles.get(op.name)
        if profile is not None:
            self.profile_stats["hits"] += 1
            return profile
        store = self.profile_store
        profile = store.get(plan) if store is not None else None
        if profile is not None:
            self.profile_stats["shared_hits"] += 1
        else:
            profile = compile_profile(plan)
            if store is not None:
                store.put(plan, profile)
        self._profiles[op.name] = profile
        self.profile_stats["compiles"] += 1
        return profile

    def _kernel_for(self, outcome: Outcome) -> "vectorized.OutcomeKernel":
        """The outcome's cached vectorized sampling kernel (built on first
        use from the span skeleton alone, so caching on the shared outcome
        object is safe across sessions)."""
        kernel = getattr(outcome, "_kernel", None)
        if kernel is None:
            kernel = outcome._kernel = vectorized.OutcomeKernel(outcome)
        return kernel

    def execute_many(self, op_name: str, n: int) -> BatchResult:
        """Simulate ``n`` requests for ``op_name`` in aggregate.

        Statistically equivalent to ``n`` calls of :meth:`execute` under a
        frozen cluster state — same outcome probabilities, same error
        attribution, same latency distribution — but O(outcome branches)
        instead of O(n · call-tree): a multinomial split over the compiled
        :class:`PathProfile`, normal-approximated lognormal latency sums
        (one fused draw over all branches), and bounded exemplar
        traces/logs feeding the usual telemetry surfaces.  Deterministic
        given (seed, n) — the batch stream is derived from the runtime
        seed, independent of per-request draws.
        """
        [batch] = self.execute_many_all([(op_name, n)])
        return batch

    def execute_many_all(
        self, requests: Sequence[tuple[str, int]],
    ) -> list[BatchResult]:
        """Simulate several operations' batches in one fused pass.

        This is the span-level batching entry point the aggregate workload
        driver uses: a whole span's (op → count) split becomes *one* call,
        and the end-to-end latency sums of every (op, branch) pair are
        drawn as a single fused numpy sample instead of one draw per
        branch per call.  Results come back in request order.
        Deterministic given (seed, ordered request list); note the fused
        draw order means a multi-op call consumes the batch stream
        differently than the same ops issued one :meth:`execute_many` at a
        time — each shape is individually reproducible.
        """
        rng = self._batch_stream()
        results: list[BatchResult] = []
        plans: list[tuple] = []
        for op_name, n in requests:
            op = self.operations.get(op_name)
            if op is None:
                raise KeyError(f"unknown operation {op_name!r}")
            if n < 0:
                raise ValueError(f"n must be >= 0, got {n}")
            batch = BatchResult(op.name, n)
            results.append(batch)
            if n == 0:
                continue
            profile = self._profile_for(op)
            counts = rng.multinomial(n, profile.probs)
            plans.append((op, profile, counts, batch))
        # one fused normal draw over every stochastic (op, branch)
        # latency sum in this call
        keyed: list[tuple[int, int]] = []
        locs: list[float] = []
        scales: list[float] = []
        for pi, (_, profile, counts, _) in enumerate(plans):
            for oi, (outcome, k) in enumerate(zip(profile.outcomes, counts)):
                if k and outcome.var_ms > 0.0:
                    keyed.append((pi, oi))
                    locs.append(k * outcome.mean_ms)
                    scales.append(math.sqrt(k * outcome.var_ms))
        totals: list[dict[int, float]] = [{} for _ in plans]
        if keyed:
            sums = vectorized.branch_latency_sums(rng.generator, locs, scales)
            for (pi, oi), total in zip(keyed, sums):
                totals[pi][oi] = total
        # no watch is added, fired or cancelled inside one call
        tail_services = self.collector.tail_watch_services()
        for (op, profile, counts, batch), op_totals in zip(plans, totals):
            self._emit_batch(op, profile, counts, batch, rng, op_totals,
                             tail_services)
        return results

    def _emit_batch(
        self,
        op: Operation,
        profile: PathProfile,
        counts: Sequence[int],
        batch: BatchResult,
        rng: RngStream,
        totals: dict[int, float],
        tail_services: frozenset[str],
    ) -> None:
        """Emit one planned batch: error accounting, latency sums, bounded
        exemplars/logs/noise, and bulk telemetry.  ``totals`` carries the
        pre-drawn per-branch latency sums, indexed by outcome position
        (branches with zero variance have no entry); ``tail_services`` is
        the collector's :meth:`~repro.telemetry.collector.
        TelemetryCollector.tail_watch_services` for this call."""
        # adaptive exemplar reservoir: a pending p50/p99 watch on any
        # service this operation touches asks for tail fidelity
        trace_exemplars = self.BATCH_TRACE_EXEMPLARS
        if tail_services:
            involved, _ = self._op_fingerprint_inputs(op)
            ns, qualify = self.namespace, self.collector.qualify
            if not tail_services.isdisjoint(qualify(ns, s) for s in involved):
                trace_exemplars = max(trace_exemplars,
                                      self.BATCH_TRACE_EXEMPLARS_TAIL)
        #: service -> [requests, errors, latency exemplars]
        bulk: dict[str, list] = defaultdict(lambda: [0, 0, []])
        noise_pool = 0
        noise_sites: tuple[tuple[Hop, float], ...] = ()
        for oi, (outcome, k) in enumerate(zip(profile.outcomes, counts)):
            k = int(k)
            if k == 0:
                continue
            if not outcome.ok:
                batch.errors += k
                for s in outcome.error_services:
                    batch.error_services[s] = batch.error_services.get(s, 0) + k
                kind = outcome.error.kind.value
                batch.error_kinds[kind] = batch.error_kinds.get(kind, 0) + k
            # end-to-end latency: sum of k iid lognormal-sum samples →
            # normal approximation (exact mean/variance, CLT shape)
            total = totals.get(oi)
            if total is None:  # var == 0: deterministic sum
                total = k * outcome.mean_ms
            batch.latency_sum_ms += total
            noise_pool += k * len(outcome.noise_sites)
            if outcome.noise_sites and not noise_sites:
                noise_sites = outcome.noise_sites
            # per-service request accounting (counts are exact)
            for s, c in outcome.visit_counts.items():
                bulk[s][0] += k * c
            for s, c in outcome.error_visit_counts.items():
                bulk[s][1] += k * c
            for s, c in outcome.hop_fail_counts.items():
                e = bulk[s]
                e[0] += k * c
                e[1] += k * c
                e[2].extend([HOP_FAIL_MS] * min(k * c, 2))
            if outcome.client_fail:
                e = bulk[profile.entry]
                e[0] += k
                e[1] += k
                e[2].extend([CLIENT_FAIL_MS] * min(k, 2))
            # bounded full-fidelity exemplars, plus (when a tail watch
            # grew the reservoir) cheap latency-only ones: the watch needs
            # the samples, not more stored traces
            n_ex = min(k, trace_exemplars)
            n_full = min(n_ex, self.BATCH_TRACE_EXEMPLARS)
            self._emit_exemplars(op, outcome, rng, n_ex, n_full,
                                 batch, bulk)
            for _ in range(min(k, self.BATCH_LOG_EXEMPLARS)):
                for svc_name, level, message in outcome.logs:
                    self._log(svc_name, level, message)
        # background noise logs: exact count distribution, capped emission,
        # worded exactly as the per-request path words them at each site
        if noise_pool and noise_sites:
            warns = rng.binomial(noise_pool, self.NOISE_WARN)
            infos = rng.binomial(noise_pool, self.INFO_SAMPLE)
            for i in range(min(warns, self.BATCH_NOISE_EXEMPLARS)):
                hop, _ = noise_sites[i % len(noise_sites)]
                self._log(hop.service, *warn_noise(hop))
            for i in range(min(infos, self.BATCH_NOISE_EXEMPLARS)):
                hop, site_mean = noise_sites[i % len(noise_sites)]
                self._log(hop.service, *info_noise(hop, site_mean))
        for s, (count, errors, lats) in bulk.items():
            self._record(s, count, errors, lats)

    def _emit_exemplars(
        self,
        op: Operation,
        outcome: Outcome,
        rng: RngStream,
        n_ex: int,
        n_full: int,
        batch: BatchResult,
        bulk: dict[str, list],
    ) -> None:
        """Exemplar block for one branch: a single fused
        lognormal matrix covers every exemplar — full-fidelity rows
        (materialized traces, recorded to the store) first, then
        latency-only tail rows when a pending tail watch grew the
        reservoir (the watch consumes latency samples, not traces)."""
        if n_ex <= 0:
            return
        kernel = self._kernel_for(outcome)
        durations = kernel.sample(rng.generator, n_ex)
        skeleton = outcome.spans
        now = self.clock.now
        traces = self.collector.traces
        for j in range(n_full):
            row = durations[j].tolist()
            number = traces.add(now, tuple([
                (sn.parent, sn.service, sn.operation, ms, sn.status,
                 sn.error_message)
                for sn, ms in zip(skeleton, row)]))
            batch.exemplars.append(RequestResult(
                op.name, outcome.ok, row[0], outcome.error,
                trace_id(number), list(outcome.error_services)))
        for j in range(n_full, n_ex):
            batch.exemplars.append(RequestResult(
                op.name, outcome.ok, float(durations[j, 0]), outcome.error,
                "", list(outcome.error_services)))
        # per-service latency exemplars: one column slice per entered span
        # hands all n_ex subtree samples to the collector at once
        for i in kernel.entered_idx:
            bulk[skeleton[i].service][2].extend(durations[:, i].tolist())
