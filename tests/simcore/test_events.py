import pytest

from repro.simcore import EventQueue, SimClock


@pytest.fixture
def queue():
    return EventQueue(SimClock())


class TestEventQueue:
    def test_schedule_and_run(self, queue):
        fired = []
        queue.schedule_at(5.0, lambda: fired.append("a"))
        assert queue.run_until(10.0) == 1
        assert fired == ["a"]

    def test_clock_ends_at_run_until_time(self, queue):
        queue.schedule_at(3.0, lambda: None)
        queue.run_until(10.0)
        assert queue.clock.now == 10.0

    def test_events_fire_in_time_order(self, queue):
        fired = []
        queue.schedule_at(5.0, lambda: fired.append("late"))
        queue.schedule_at(2.0, lambda: fired.append("early"))
        queue.run_until(10.0)
        assert fired == ["early", "late"]

    def test_same_time_fires_in_insertion_order(self, queue):
        fired = []
        for name in ("first", "second", "third"):
            queue.schedule_at(1.0, lambda n=name: fired.append(n))
        queue.run_until(1.0)
        assert fired == ["first", "second", "third"]

    def test_schedule_in_relative(self, queue):
        queue.clock.advance(4.0)
        ev = queue.schedule_in(2.0, lambda: None)
        assert ev.time == 6.0

    def test_schedule_in_past_rejected(self, queue):
        queue.clock.advance(5.0)
        with pytest.raises(ValueError, match="past"):
            queue.schedule_at(1.0, lambda: None)

    def test_cancelled_event_does_not_fire(self, queue):
        fired = []
        ev = queue.schedule_at(2.0, lambda: fired.append("x"))
        ev.cancel()
        assert queue.run_until(5.0) == 0
        assert fired == []

    def test_len_excludes_cancelled(self, queue):
        e1 = queue.schedule_at(1.0, lambda: None)
        queue.schedule_at(2.0, lambda: None)
        e1.cancel()
        assert len(queue) == 1

    def test_events_only_fire_within_window(self, queue):
        fired = []
        queue.schedule_at(1.0, lambda: fired.append("in"))
        queue.schedule_at(20.0, lambda: fired.append("out"))
        queue.run_until(10.0)
        assert fired == ["in"]
        assert queue.peek_time() == 20.0

    def test_step_advances_clock_to_event(self, queue):
        queue.schedule_at(7.0, lambda: None)
        ev = queue.step()
        assert ev is not None and queue.clock.now == 7.0

    def test_step_on_empty_returns_none(self, queue):
        assert queue.step() is None

    def test_event_scheduling_event(self, queue):
        """Events may schedule further events that fire in the same run."""
        fired = []
        def outer():
            fired.append("outer")
            queue.schedule_in(1.0, lambda: fired.append("inner"))
        queue.schedule_at(1.0, outer)
        queue.run_until(5.0)
        assert fired == ["outer", "inner"]

    def test_run_for_relative_window(self, queue):
        queue.clock.advance(10.0)
        fired = []
        queue.schedule_at(12.0, lambda: fired.append("x"))
        assert queue.run_until(queue.clock.now + 5.0) == 1
        assert queue.clock.now == 15.0

    def test_cancel_after_fire_is_noop(self, queue):
        ev = queue.schedule_at(1.0, lambda: None)
        queue.run_until(2.0)
        assert ev.fired
        ev.cancel()          # must not corrupt the queue's bookkeeping
        assert not ev.cancelled
        assert len(queue) == 0


class TestCancellationCompaction:
    """Cancelled events never fire, ``len`` counts only live events, and a
    cancelled entry leaves the heap once it reaches the head."""

    def test_heap_compacts_when_cancelled_majority(self, queue):
        fired = []
        events = [queue.schedule_at(float(i + 1), lambda i=i: fired.append(i))
                  for i in range(100)]
        for ev in events[:60]:
            ev.cancel()
        assert len(queue) == 40
        # the 60 cancelled entries head the heap: the first peek drops them
        assert queue.peek_time() == 61.0
        assert len(queue._heap) == 40
        queue.run_until(100.0)
        assert fired == list(range(60, 100))
        assert len(queue._heap) == 0

    def test_small_heaps_skip_compaction(self, queue):
        events = [queue.schedule_at(float(i + 1), lambda: None)
                  for i in range(4)]
        for ev in events[:3]:
            ev.cancel()
        # under the compaction minimum the dead entries just wait for pops
        assert len(queue._heap) == 4
        assert len(queue) == 1

    def test_compaction_preserves_order_and_len(self, queue):
        fired = []
        events = [queue.schedule_at(float(i + 1), lambda i=i: fired.append(i))
                  for i in range(50)]
        for ev in events[::2]:       # cancel every even event
            ev.cancel()
        assert len(queue) == 25
        queue.run_until(100.0)
        assert fired == list(range(1, 50, 2))

    def test_repeated_cancel_counts_once(self, queue):
        events = [queue.schedule_at(float(i + 1), lambda: None)
                  for i in range(20)]
        for _ in range(5):
            events[0].cancel()
        assert len(queue) == 19

    def test_churny_timeline_stays_bounded(self, queue):
        """Schedule/cancel cycles leave nothing behind once the clock
        passes them: each cancelled entry is dropped as it reaches the
        head, and none of them fires."""
        fired = []
        for round_ in range(50):
            start = queue.clock.now
            evs = [queue.schedule_at(start + i + 1, lambda: fired.append(1))
                   for i in range(20)]
            for ev in evs:
                ev.cancel()
            assert len(queue) == 0
            assert queue.run_until(start + 25.0) == 0
            assert len(queue._heap) == 0
        assert fired == []


class TestScheduleEvery:
    def test_recurring_fires_each_interval(self, queue):
        fired = []
        queue.schedule_every(10.0, lambda: fired.append(queue.clock.now))
        queue.run_until(35.0)
        assert fired == [10.0, 20.0, 30.0]

    def test_first_firing_is_one_interval_from_now(self, queue):
        queue.clock.advance(3.0)
        fired = []
        queue.schedule_every(10.0, lambda: fired.append(queue.clock.now))
        queue.run_until(25.0)
        assert fired == [13.0, 23.0]

    def test_cancel_stops_series(self, queue):
        fired = []
        handle = queue.schedule_every(5.0, lambda: fired.append(1))
        queue.run_until(12.0)
        handle.cancel()
        queue.run_until(50.0)
        assert handle.fired == 2
        assert fired == [1, 1]

    def test_cancel_from_inside_action(self, queue):
        handle = queue.schedule_every(5.0, lambda: handle.cancel())
        queue.run_until(50.0)
        assert handle.fired == 1

    def test_invalid_interval_rejected(self, queue):
        with pytest.raises(ValueError, match="interval"):
            queue.schedule_every(0.0, lambda: None)
