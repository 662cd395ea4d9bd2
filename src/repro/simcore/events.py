"""The discrete-event queue — the spine of the environment kernel.

Workload arrival ticks, telemetry scrapes, periodic controller resync and
scheduled fault timelines are all :class:`ScheduledEvent`\\ s on one queue
over the shared :class:`SimClock`, so virtual time jumps from event to
event instead of being ticked through.

Metric watches (``repro.telemetry.watch``) are not queue entries: they
have no fire time — the telemetry collector evaluates them at scrape time
and keeps the one registry of live watches — and span planners need no
count of them, because the aggregate driver never coalesces a span past
the next scrape.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.simcore.clock import SimClock


@dataclass(order=True)
class ScheduledEvent:
    """An event scheduled at a virtual timestamp.

    Ordered by ``(time, seq)`` so that events at identical timestamps fire
    in insertion order (deterministic replay).
    """

    time: float
    seq: int
    action: Callable[[], Any] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped.

        Cancelling an event that already fired is a no-op, so teardown
        code can blanket-cancel a timeline."""
        if not self.fired:
            self.cancelled = True


class RecurringEvent:
    """Handle for a self-rescheduling event created by
    :meth:`EventQueue.schedule_every`; :meth:`cancel` stops the series.

    The handle itself carries the rescheduling state (queue, action,
    interval) and the scheduled action is its bound :meth:`_fire` — not a
    closure — so a queue full of recurring series pickles cleanly for
    environment snapshots.
    """

    def __init__(self, queue: "EventQueue", action: Callable[[], Any],
                 interval: float, label: str = "") -> None:
        self.queue = queue
        self.action = action
        self.interval = interval
        self.label = label
        self.cancelled = False
        self.fired = 0
        #: the currently scheduled occurrence
        self.event: Optional[ScheduledEvent] = None

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fired += 1
        self.action()
        if not self.cancelled:
            self.event = self.queue.schedule_in(
                self.interval, self._fire, label=self.label)

    def cancel(self) -> None:
        self.cancelled = True
        if self.event is not None:
            self.event.cancel()


class EventQueue:
    """Min-heap of :class:`ScheduledEvent` driven by a shared :class:`SimClock`.

    A cancelled event stays in the heap until it reaches the head, where
    :meth:`peek_time` and :meth:`step` drop it.  Only teardown cancels —
    ``CloudEnvironment.close`` and ``ArmedSchedule.cancel_pending`` — so
    dead entries never pile up on a running queue.

    Example
    -------
    >>> clock = SimClock()
    >>> q = EventQueue(clock)
    >>> fired = []
    >>> _ = q.schedule_at(5.0, lambda: fired.append("a"))
    >>> q.run_until(10.0)
    1
    >>> fired
    ['a']
    """

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._heap: list[ScheduledEvent] = []
        #: plain int (not itertools.count) so queue state pickles for
        #: environment snapshots
        self._seq = 0

    def __len__(self) -> int:
        """The number of live (not cancelled) events."""
        return sum(not e.cancelled for e in self._heap)

    # -- scheduling ----------------------------------------------------
    def schedule_at(
        self, time: float, action: Callable[[], Any], label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``action`` at absolute virtual time ``time``."""
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule in the past: now={self.clock.now}, t={time}"
            )
        seq = self._seq
        self._seq += 1
        ev = ScheduledEvent(time=time, seq=seq, action=action, label=label)
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_in(
        self, delay: float, action: Callable[[], Any], label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``action`` ``delay`` seconds from now."""
        return self.schedule_at(self.clock.now + delay, action, label=label)

    def schedule_every(
        self, interval: float, action: Callable[[], Any], label: str = "",
    ) -> RecurringEvent:
        """Schedule ``action`` every ``interval`` virtual seconds.

        The first occurrence fires one interval from now; each firing
        schedules the next.  Returns a :class:`RecurringEvent` whose
        ``cancel()`` stops the series.
        """
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        handle = RecurringEvent(self, action, interval, label=label)
        handle.event = self.schedule_in(interval, handle._fire, label=label)
        return handle

    # -- execution -----------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def step(self) -> Optional[ScheduledEvent]:
        """Pop and fire the next live event, advancing the clock to it.

        An overdue event (scheduled before ``clock.now`` — possible when
        something advanced the shared clock without running the queue,
        e.g. a reference tick loop that moves the clock directly) fires
        immediately at the current time rather than moving the clock
        backwards."""
        while self._heap:
            if self._heap[0].cancelled:
                heapq.heappop(self._heap)
                continue
            ev = heapq.heappop(self._heap)
            ev.fired = True
            if ev.time > self.clock.now:
                self.clock.advance_to(ev.time)
            ev.action()
            return ev
        return None

    def run_until(self, t: float) -> int:
        """Fire every event scheduled at or before ``t``; returns count fired.

        The clock ends at exactly ``t`` even if the last event fired earlier.
        """
        fired = 0
        while True:
            nxt = self.peek_time()
            if nxt is None or nxt > t:
                break
            self.step()
            fired += 1
        if self.clock.now < t:
            self.clock.advance_to(t)
        return fired
