"""Drives the service runtime: issues requests as virtual time advances.

Everything runs on the event kernel: arrival ticks are
:class:`~repro.simcore.events.ScheduledEvent`\\ s on the environment's
:class:`~repro.simcore.events.EventQueue`, interleaved with
controller-resync, resource-rollup and fault-timeline events.  A
per-request window ticks once per virtual second, whatever the rate;
an aggregate window coalesces spans up to the next scrape, policy
change or queued event.  An environment calls
:meth:`WorkloadDriver.begin_window` on each of its drivers (a multi-app
environment hosts one driver per app, all on the shared queue) and then
runs the queue once; :meth:`WorkloadDriver.run_events` bundles the two
for standalone drivers, which lazily own a private queue on the
runtime's clock.

A per-request tick picks its operations first (one draw each from a CDF
built once, as ``Generator.choice(p=)`` builds it per call), then runs them
holding the runtime's plans; the streams are separate, so this is
bit-identical to one ``choice`` + ``execute`` per request.

The kernel's per-tick arithmetic is bit-identical to the reference
1-second tick loop — same :class:`WorkloadStats`, RNG draw order and
scrape timestamps for any window sequence.  That reference loop lives
only as a private fixture inside
``tests/core/test_kernel_equivalence.py``, which asserts the equivalence.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.simcore import EventQueue, RngStream
from repro.services.runtime import RequestResult, ServiceRuntime
from repro.workload.policies import ConstantRate, RatePolicy


@dataclass
class WorkloadStats:
    """Aggregate outcome counters for a driver's lifetime."""

    requests: int = 0
    errors: int = 0
    latency_sum_ms: float = 0.0
    per_operation: dict[str, int] = field(default_factory=dict)

    @property
    def error_rate(self) -> float:
        return self.errors / self.requests if self.requests else 0.0

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_sum_ms / self.requests if self.requests else 0.0


class WorkloadDriver:
    """Open-loop load generator over the shared virtual clock.

    Each virtual second issues ``policy.rate(t)`` requests (fractional
    rates accumulate), with operations drawn from the app's weighted mix,
    and telemetry is scraped every ``scrape_interval`` seconds.

    The orchestrator advances the environment between agent actions, so the
    system keeps "living" while the agent thinks — the dynamic-environment
    property the paper contrasts against static-dataset benchmarks.

    Parameters
    ----------
    queue:
        The environment's event queue.  When omitted the driver creates a
        private queue on the runtime's clock, so standalone drivers (tests,
        offline baselines) run the same kernel path as environments.
    rng_stream:
        Name of the driver's RNG stream.  The default (``"workload"``) is
        the historical single-driver stream; a multi-app environment gives
        each co-hosted app's driver a namespace-qualified stream so two
        drivers sharing one seed draw independent arrival sequences.
    """

    #: execution modes; re-exported as ``repro.core.env.FIDELITY_TIERS``
    MODES = ("per_request", "aggregate")

    def __init__(
        self,
        runtime: ServiceRuntime,
        mix: dict[str, float],
        policy: Optional[RatePolicy] = None,
        scrape_interval: float = 5.0,
        seed: int = 0,
        max_requests_per_tick: int = 200,
        queue: Optional[EventQueue] = None,
        mode: str = "per_request",
        rng_stream: str = "workload",
    ) -> None:
        if not mix:
            raise ValueError("workload mix must not be empty")
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.runtime = runtime
        self.mode = mode
        self._policy: RatePolicy = policy or ConstantRate(100.0)
        self._change_hint: Optional[Callable[[float], Optional[float]]] = \
            getattr(self._policy, "next_change", None)
        self._span_hint: Optional[Callable[[float, float], float]] = \
            getattr(self._policy, "span_rate", None)
        self.scrape_interval = scrape_interval
        self.rng = RngStream(seed, rng_stream)
        self.stats = WorkloadStats()
        self.max_requests_per_tick = max_requests_per_tick
        for op, w in mix.items():
            if op not in runtime.operations:
                raise ValueError(f"workload mix names unknown operation {op!r}")
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"workload mix weight {op!r}: {w!r} is not "
                                 "finite and >= 0")
        total = sum(mix.values())
        if not 0 < total < math.inf:
            raise ValueError(f"workload mix weights sum to {total!r}: {mix!r}")
        self._ops = list(mix)
        self._weights = [w / total for w in mix.values()]
        # the CDF Generator.choice(p=) rebuilds on every call, built once
        cdf = np.asarray(self._weights, float).cumsum()
        cdf /= cdf[-1]
        self._cdf: list[float] = cdf.tolist()
        self._carry = 0.0
        self._warned_clipping = False
        self._last_scrape = runtime.clock.now
        self.recent_results: list[RequestResult] = []
        # standalone drivers own a private queue; environments share theirs
        self.queue = queue if queue is not None else EventQueue(runtime.clock)
        self._window_start = runtime.clock.now
        self._window_end = runtime.clock.now

    # ------------------------------------------------------------------
    # policy (kept a property so the span hints stay in sync when a
    # scheduled rate-change event swaps the policy mid-run)
    # ------------------------------------------------------------------
    @property
    def policy(self) -> RatePolicy:
        return self._policy

    @policy.setter
    def policy(self, policy: RatePolicy) -> None:
        self._policy = policy
        self._change_hint = getattr(policy, "next_change", None)
        self._span_hint = getattr(policy, "span_rate", None)

    # ------------------------------------------------------------------
    # shared per-request work
    # ------------------------------------------------------------------
    def _issue(self, n: int) -> None:
        """Issue one tick's ``n`` requests: pick all ``n`` operations from
        one ``random(n)`` (the doubles ``n`` scalar ``random()`` calls
        give, as nothing draws between the picks), then execute them with
        the runtime holding its plans."""
        cdf, ops = self._cdf, self._ops
        names = [ops[bisect_right(cdf, u)]
                 for u in self.rng.generator.random(n).tolist()]
        stats, recent = self.stats, self.recent_results
        with self.runtime.holding_plans():
            for op in names:
                result = self.runtime.execute(op)
                stats.requests += 1
                stats.latency_sum_ms += result.latency_ms
                stats.per_operation[op] = stats.per_operation.get(op, 0) + 1
                if not result.ok:
                    stats.errors += 1
                recent.append(result)
                if len(recent) > 500:
                    del recent[:250]

    def _scrape(self) -> None:
        self.runtime.collector.scrape(
            self.runtime.cluster, self.runtime.namespace
        )
        self._last_scrape = self.runtime.clock.now

    # ------------------------------------------------------------------
    # event-kernel path
    # ------------------------------------------------------------------
    def begin_window(self, end: float) -> None:
        """Schedule this driver's arrival-tick chain for a window ending
        at absolute virtual time ``end``.

        The caller still has to run the queue (``queue.run_until(end)``);
        a multi-app environment begins every driver's window first, so all
        apps' ticks interleave deterministically on the shared queue, then
        runs the queue once.
        """
        clock = self.runtime.clock
        if end < clock.now:
            raise ValueError(
                f"window end {end} precedes the clock ({clock.now})")
        self._window_start = clock.now
        self._window_end = end
        if self.mode == "aggregate":
            self.queue.schedule_at(clock.now, self._tick_batch,
                                   label="workload.batch")
        else:
            self.queue.schedule_at(clock.now, self._tick, label="workload.tick")

    def run_events(self, seconds: float) -> WorkloadStats:
        """Advance ``seconds`` of virtual time through the event queue.

        Schedules this window's arrival-tick chain and runs the queue, so
        fault timelines, controller resync and any other scheduled events
        interleave with the workload on one timeline.  Bit-identical to
        the reference 1-second tick loop (stats, RNG draw order, scrape
        times).
        """
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self.begin_window(self.runtime.clock.now + seconds)
        self.queue.run_until(self._window_end)
        return self.stats

    def _tick(self) -> None:
        """One arrival tick: scrape if due, issue this second's load, and
        schedule the next tick one second later (or at the window end)."""
        clock = self.runtime.clock
        now = clock.now
        end = self._window_end
        # The scrape check mirrors the legacy loop: it runs at every
        # post-advance boundary, i.e. never at the window's start.
        if now > self._window_start \
                and now - self._last_scrape >= self.scrape_interval:
            self._scrape()
        if now >= end:
            return
        step = min(1.0, end - now)
        want = self._policy.rate(now) * step + self._carry
        n = int(want)
        self._carry = want - n
        # Cap per-tick volume so pathological policies can't stall a run;
        # the cap is generous relative to the paper's wrk rate of 100/s.
        # Capping silently would misreport the offered load, so the first
        # clipped tick warns loudly (once per driver).
        if n > self.max_requests_per_tick and not self._warned_clipping:
            self._warned_clipping = True
            warnings.warn(
                f"per_request workload clipped: {n} requests offered in "
                f"one tick but max_requests_per_tick="
                f"{self.max_requests_per_tick}; served load will fall "
                f"short of the policy's rate. For >= 1k rps workloads "
                f"use fidelity=\"aggregate\" (no per-tick cap), or raise "
                f"max_requests_per_tick.",
                RuntimeWarning, stacklevel=2)
        self._issue(min(n, self.max_requests_per_tick))
        self.queue.schedule_at(now + step, self._tick, label="workload.tick")

    # ------------------------------------------------------------------
    # aggregate mode: coalesced spans over execute_many
    # ------------------------------------------------------------------
    def _tick_batch(self) -> None:
        """One aggregate span: scrape if due, issue the whole span's load
        as ``execute_many`` batches, schedule the next span boundary.

        A span runs from ``now`` to the earliest of: the window end, the
        next scrape due time, the policy's ``next_change(now)`` hint
        (falling back to one-second steps for continuously-varying
        policies without one), and the next queued event (which may swap
        the policy mid-run; at the default intervals the controller
        resync fires on the scrape grid, so it never cuts a span short).  The scrape bound is
        unconditional and doubles as the trigger bound: a pending
        :class:`~repro.telemetry.watch.MetricWatch` (metric-triggered
        timeline entry) can only be evaluated — and can only fire — at a
        scrape, so no span ever coalesces past the earliest possible watch
        evaluation, and triggers land within one scrape interval of where
        per-request fidelity lands them.

        The span's request count uses the same ``rate·span + carry``
        accumulator arithmetic as the per-request tick, billed at
        ``span_rate(now, span_end)`` when the policy provides the hint
        (piecewise-approximated continuous policies) and ``rate(now)``
        otherwise (exact for piecewise-constant policies) — counts match
        the per-request mode to within float rounding of the span product
        (±1 per span, plus the policy's documented approximation error for
        ``span_rate`` policies); outcomes are statistically equivalent,
        not bit-identical.
        """
        clock = self.runtime.clock
        now = clock.now
        end = self._window_end
        if now > self._window_start \
                and now - self._last_scrape >= self.scrape_interval:
            self._scrape()
        if now >= end:
            return
        next_scrape = self._last_scrape + self.scrape_interval
        span_end = min(end, next_scrape)
        change = self._change_hint(now) if self._change_hint else None
        span_end = min(span_end, now + 1.0 if change is None else change)
        next_event = self.queue.peek_time()
        if next_event is not None and next_event > now:
            span_end = min(span_end, next_event)
        if span_end <= now:  # scrape was just overdue-adjacent; take a step
            span_end = min(end, now + 1.0)
        span = span_end - now
        r = self._span_hint(now, span_end) if self._span_hint is not None \
            else self._policy.rate(now)
        want = r * span + self._carry
        n = int(want)
        self._carry = want - n
        # No per-tick volume cap here: the cap exists to stop pathological
        # policies stalling the per-request walk, but execute_many is
        # O(outcome branches) regardless of n — high offered rates are
        # exactly what this mode is for.
        if n > 0:
            self._issue_batch(n)
        self.queue.schedule_at(span_end, self._tick_batch,
                               label="workload.batch")

    def _issue_batch(self, n: int) -> None:
        """Split ``n`` arrivals across the operation mix (multinomially —
        the exact distribution of ``n`` weighted choices) and run the whole
        span as one fused ``execute_many_all`` call, so the vectorized
        engine draws every operation's branch latency sums in a single
        numpy sample."""
        counts = self.rng.multinomial(n, self._weights)
        requests = [(op, k) for op, k in zip(self._ops, counts) if k > 0]
        for batch in self.runtime.execute_many_all(requests):
            self.stats.requests += batch.n
            self.stats.errors += batch.errors
            self.stats.latency_sum_ms += batch.latency_sum_ms
            self.stats.per_operation[batch.operation] = \
                self.stats.per_operation.get(batch.operation, 0) + batch.n
            self.recent_results.extend(batch.exemplars)
        if len(self.recent_results) > 500:
            del self.recent_results[:250]

