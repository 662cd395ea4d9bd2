"""Metric watches: scrape-time-evaluated threshold conditions.

A :class:`MetricWatch` is the telemetry half of the trigger layer (see
``repro.faults.triggers``): a condition over one ``(service, metric)``
series — "error rate above 5/s", "p99 over 800 ms sustained for 30 s" —
that the :class:`~repro.telemetry.collector.TelemetryCollector` evaluates
at every scrape against the value it just recorded.  When the condition
has held for ``sustain_s`` seconds of scrape history, the watch fires its
callback once and resolves.

Firing is **scrape-bounded** by construction: metrics only exist at scrape
timestamps, so a watch can trip no earlier than the first scrape at which
its condition holds and no later than one scrape interval after the
underlying signal crossed the threshold.  This is what makes trigger times
comparable across execution fidelities — ``per_request`` and ``aggregate``
runs scrape at the same timestamps, so a watch on an exact-count metric
(request/error rates) fires at the same simulated time in both.

A watch keeps its own lifecycle — pending until it fires or is cancelled,
and back to pending on :meth:`MetricWatch.rearm` — and the collector's
list is the one registry of live watches
(:meth:`~repro.telemetry.collector.TelemetryCollector.pending_watches`).
Nothing else needs to know a watch is pending: span planners never
coalesce past the next scrape, the earliest point a condition could
possibly be evaluated.
"""

from __future__ import annotations

from typing import Callable, Optional

#: metrics whose scrape values come from a bounded exemplar reservoir in
#: aggregate mode (not exact counts) — a pending watch on one of these
#: asks the runtime for a larger reservoir (see
#: ``ServiceRuntime.BATCH_TRACE_EXEMPLARS_TAIL``)
TAIL_METRICS = ("latency_p50_ms", "latency_p99_ms")


class MetricWatch:
    """One threshold condition over a ``(service, metric)`` series.

    Parameters
    ----------
    above:
        ``True`` fires when ``value > threshold`` (strict), ``False`` when
        ``value < threshold``.
    sustain_s:
        The condition must hold continuously — at every scrape — for at
        least this many virtual seconds before the watch fires.  ``0``
        fires at the first satisfying scrape.  A single non-satisfying
        scrape resets the window.
    callback:
        Invoked exactly once per firing, during the scrape at which the
        watch fires (after all of that scrape's metrics are recorded).
    require_clear:
        Edge-trigger semantics for rearmed watches: after a
        :meth:`rearm`, the condition must first be observed *not*
        holding at some scrape before the watch may fire again — so a
        rearm-in-callback loop fires once per threshold **crossing**,
        not once per scrape while the signal stays past the threshold.
        The first firing is unaffected (a fresh watch starts clear).
    """

    def __init__(
        self,
        service: str,
        metric: str,
        threshold: float,
        *,
        above: bool = True,
        sustain_s: float = 0.0,
        callback: Optional[Callable[[], None]] = None,
        label: str = "",
        require_clear: bool = False,
    ) -> None:
        if sustain_s < 0:
            raise ValueError(f"sustain_s must be >= 0, got {sustain_s}")
        self.label = label or f"watch.{service}.{metric}"
        self.service = service
        self.metric = metric
        self.threshold = threshold
        self.above = above
        self.sustain_s = sustain_s
        self.callback = callback
        self.require_clear = require_clear
        #: pending until the watch fires or is cancelled
        self.fired = False
        self.cancelled = False
        #: scrape timestamp at which the condition started holding
        self.satisfied_since: Optional[float] = None
        #: scrape timestamp at which the watch (last) fired
        self.fired_at: Optional[float] = None
        #: times the watch has fired across rearm cycles
        self.fire_count: int = 0
        #: True between a rearm and the first non-satisfying scrape when
        #: ``require_clear`` is set — the watch is waiting for the signal
        #: to drop back across the threshold
        self._blocked: bool = False
        #: the collector evaluating this watch (set by ``add_watch``) so
        #: ``rearm`` can re-register after the post-fire sweep dropped it
        self.collector = None

    @property
    def pending(self) -> bool:
        return not self.fired and not self.cancelled

    def cancel(self) -> None:
        """Withdraw the watch; cancelling a fired/cancelled watch is a no-op."""
        if self.pending:
            self.cancelled = True

    @property
    def needs_tail(self) -> bool:
        """Whether this watch reads a reservoir-estimated tail metric."""
        return self.metric in TAIL_METRICS

    def satisfied(self, value: float) -> bool:
        return value > self.threshold if self.above else value < self.threshold

    def evaluate(self, now: float, value: float) -> bool:
        """One scrape's evaluation; returns True iff the watch fired.

        Draws no randomness and mutates only the watch itself (plus
        whatever the callback does), so evaluation order is deterministic.
        """
        if not self.pending:
            return False
        if not self.satisfied(value):
            self.satisfied_since = None
            self._blocked = False
            return False
        if self._blocked:
            return False
        if self.satisfied_since is None:
            self.satisfied_since = now
        if now - self.satisfied_since < self.sustain_s:
            return False
        self.fired_at = now
        self.fire_count += 1
        self.fired = True
        if self.callback is not None:
            self.callback()
        return True

    def rearm(self) -> None:
        """Return to pending with fresh fire/sustain state so the
        condition can trip again, re-registering with the collector (which
        sweeps resolved watches after each scrape).  With
        ``require_clear`` the rearmed watch first waits for a scrape at
        which the condition does *not* hold (crossing semantics)."""
        self.satisfied_since = None
        self.fired_at = None
        if self.require_clear:
            self._blocked = True
        self.fired = self.cancelled = False
        if self.collector is not None:
            self.collector.add_watch(self)

    def describe(self) -> str:
        op = ">" if self.above else "<"
        sustain = f" for {self.sustain_s:g}s" if self.sustain_s else ""
        return f"{self.service}.{self.metric} {op} {self.threshold:g}{sustain}"
