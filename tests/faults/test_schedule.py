"""FaultSchedule: timelines armed on the environment's event kernel."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import HotelReservation
from repro.core import CloudEnvironment
from repro.faults import FaultSchedule
from repro.workload import BurstRate, ConstantRate


@pytest.fixture
def env():
    env = CloudEnvironment(HotelReservation, seed=1, workload_rate=30)
    yield env
    env.close()


class TestBuilders:
    def test_delayed(self):
        s = FaultSchedule.delayed("RevokeAuth", ("mongodb-geo",), 45.0)
        assert [(e.at, e.kind) for e in s.entries] == [(45.0, "inject")]
        assert s.duration == 45.0

    def test_flapping_shape(self):
        s = FaultSchedule.flapping("NetworkLoss", ("search",), start=5.0,
                                   period=30.0, on_for=15.0, cycles=3)
        assert [(e.at, e.kind) for e in s.entries] == [
            (5.0, "inject"), (20.0, "recover"),
            (35.0, "inject"), (50.0, "recover"),
            (65.0, "inject"), (80.0, "recover"),
        ]

    def test_flapping_validation(self):
        with pytest.raises(ValueError, match="on_for"):
            FaultSchedule.flapping("NetworkLoss", ("search",),
                                   period=10.0, on_for=10.0)
        with pytest.raises(ValueError, match="cycles"):
            FaultSchedule.flapping("NetworkLoss", ("search",), cycles=0)

    def test_cascade_orders_entries(self):
        s = FaultSchedule.cascade([
            (50.0, "PodFailure", ("recommendation",)),
            (10.0, "RevokeAuth", ("mongodb-geo",)),
        ])
        assert [e.at for e in s.entries] == [10.0, 50.0]

    def test_unknown_fault_fails_at_build_time(self):
        with pytest.raises(KeyError):
            FaultSchedule().inject(1.0, "Bogus", ("x",))

    def test_injectorless_fault_fails_at_build_time(self):
        with pytest.raises(ValueError, match="no injector"):
            FaultSchedule().inject(1.0, "Noop", ("geo",))

    def test_prebuilt_entries_validated_in_init(self):
        from repro.faults import TimelineEntry
        with pytest.raises(KeyError):
            FaultSchedule([TimelineEntry(5.0, "inject", "RevokeAuht",
                                         ("mongodb-geo",))])
        with pytest.raises(ValueError, match="unknown timeline kind"):
            FaultSchedule([TimelineEntry(5.0, "explode", "RevokeAuth",
                                         ("mongodb-geo",))])
        with pytest.raises(ValueError, match=">= 0"):
            FaultSchedule([TimelineEntry(-5.0, "inject", "RevokeAuth",
                                         ("mongodb-geo",))])

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            FaultSchedule().set_rate(-1.0, ConstantRate(0.0))

    def test_entry_checked_where_written_not_where_it_fires(self):
        """A set_rate without a policy used to arm cleanly and crash the
        driver's next tick; every entry, built by a builder or by hand,
        now fails at construction."""
        from repro.faults import TimelineEntry
        with pytest.raises(TypeError, match="RatePolicy"):
            FaultSchedule([TimelineEntry(5.0, "set_rate")])
        with pytest.raises(TypeError, match="RatePolicy"):
            FaultSchedule().set_rate(5.0, None)
        with pytest.raises(ValueError, match="at least one target"):
            FaultSchedule().inject(5.0, "RevokeAuth", ())
        with pytest.raises(ValueError, match="no injector"):
            TimelineEntry(5.0, "recover", "Noop", ("geo",))


class TestArmedSchedule:
    def test_delayed_onset_fires_mid_run(self, env):
        armed = FaultSchedule.delayed("RevokeAuth", ("mongodb-geo",),
                                      20.0).arm(env)
        env.advance(10.0)
        assert env.driver.stats.errors == 0
        assert armed.pending == 1
        env.advance(30.0)
        assert armed.pending == 0
        assert env.driver.stats.errors > 0
        assert armed.log and armed.log[0][0] == 20.0

    def test_flapping_injects_and_recovers(self, env):
        armed = FaultSchedule.flapping(
            "RevokeAuth", ("mongodb-geo",), start=5.0, period=20.0,
            on_for=10.0, cycles=2).arm(env)
        env.advance(60.0)
        kinds = [d.split()[0] for _, d in armed.log]
        assert kinds == ["inject", "recover", "inject", "recover"]
        # fault off at the end: fresh traffic succeeds again
        assert env.probe_error_rate(10.0) == 0.0

    def test_cascade_two_stages(self, env):
        armed = FaultSchedule.cascade([
            (5.0, "RevokeAuth", ("mongodb-geo",)),
            (15.0, "PodFailure", ("recommendation",)),
        ]).arm(env)
        env.advance(10.0)
        assert len(armed.log) == 1
        env.advance(10.0)
        assert len(armed.log) == 2
        pods = [p for p in env.cluster.pods_in(env.namespace)
                if p.owner == "recommendation"]
        assert pods and all(p.crash_looping for p in pods)

    def test_set_rate_swaps_policy_at_time(self, env):
        burst = BurstRate(base=30.0)
        FaultSchedule().set_rate(12.0, burst).arm(env)
        env.advance(10.0)
        assert env.driver.policy is not burst
        env.advance(5.0)
        assert env.driver.policy is burst

    def test_cancel_pending_stops_timeline(self, env):
        armed = FaultSchedule.delayed("RevokeAuth", ("mongodb-geo",),
                                      20.0).arm(env)
        armed.cancel_pending()
        env.advance(40.0)
        assert armed.log == []
        assert env.driver.stats.errors == 0

    def test_recover_all_undoes_live_injections(self, env):
        armed = FaultSchedule.delayed("RevokeAuth", ("mongodb-geo",),
                                      5.0).arm(env)
        env.advance(10.0)
        assert env.driver.stats.errors > 0
        armed.recover_all()
        assert env.probe_error_rate(10.0) == 0.0

    def test_relative_to_arm_time(self, env):
        env.advance(30.0)
        armed = FaultSchedule.delayed("RevokeAuth", ("mongodb-geo",),
                                      10.0).arm(env)
        env.advance(20.0)
        assert armed.log[0][0] == 40.0

    def test_zero_rate_window_still_fires_timeline(self, closing):
        """Timeline events land inside zero-rate spans."""
        env = closing(CloudEnvironment(HotelReservation, seed=1,
                                       policy=ConstantRate(0.0)))
        armed = FaultSchedule.delayed("RevokeAuth", ("mongodb-geo",),
                                      333.3).arm(env)
        env.advance(1000.0)
        assert [t for t, _ in armed.log] == [333.3]

    def test_infinite_horizon_hint(self):
        """A constant policy announces an infinite horizon whatever its
        rate, so the aggregate tier covers a zero-rate window in
        queue-bounded spans, serves nothing and still fires the
        timeline on time."""
        assert ConstantRate(0.0).next_change(0.0) == math.inf
        assert ConstantRate(10.0).next_change(0.0) == math.inf
        env = CloudEnvironment(HotelReservation, seed=1,
                               policy=ConstantRate(0.0),
                               fidelity="aggregate")
        armed = FaultSchedule.delayed("RevokeAuth", ("mongodb-geo",),
                                      333.3).arm(env)
        env.advance(1000.0)
        assert [t for t, _ in armed.log] == [333.3]
        assert env.driver.stats.requests == 0
        env.close()


class TestTriggers:
    """The trigger layer: entries fire on conditions, not just clocks."""

    def test_float_coerces_to_attime(self):
        from repro.faults import AtTime, TimelineEntry
        e = TimelineEntry(5.0, "inject", "RevokeAuth", ("mongodb-geo",))
        assert e.trigger == AtTime(5.0)
        assert e.at == 5.0

    def test_metric_entry_has_no_at(self):
        from repro.faults import FaultSchedule, MetricAbove
        s = FaultSchedule().when(MetricAbove("frontend", "error_rate", 2.0),
                                 "RevokeAuth", ("mongodb-geo",))
        assert s.entries[0].at is None
        assert s.duration == 0.0  # no a-priori fire time

    def test_when_rejects_set_rate(self):
        from repro.faults import FaultSchedule, MetricAbove
        with pytest.raises(ValueError, match="inject/recover"):
            FaultSchedule().when(MetricAbove("f", "error_rate", 1.0),
                                 "RevokeAuth", ("x",), kind="set_rate")

    def test_trigger_validation(self):
        from repro.faults import AfterEvent, MetricAbove
        with pytest.raises(ValueError, match=">= 0"):
            MetricAbove("f", "error_rate", 1.0, sustain_s=-1.0)
        with pytest.raises(ValueError, match="tag"):
            AfterEvent("")
        with pytest.raises(ValueError, match=">= 0"):
            AfterEvent("x", delay=-1.0)
        with pytest.raises(TypeError, match="Trigger"):
            from repro.faults import as_trigger
            as_trigger("soon")

    def test_duplicate_tag_rejected(self):
        from repro.faults import FaultSchedule
        s = FaultSchedule().inject(1.0, "RevokeAuth", ("a",), tag="t")
        with pytest.raises(ValueError, match="duplicate"):
            s.inject(2.0, "RevokeAuth", ("b",), tag="t")

    def test_unknown_watch_service_rejected_at_arm(self, env):
        """A typo'd service would otherwise never be evaluated (the
        collector can't tell 'not scraped yet' from 'does not exist')."""
        from repro.faults import FaultSchedule, MetricAbove
        s = FaultSchedule().when(MetricAbove("frontned", "error_rate", 1.0),
                                 "RevokeAuth", ("mongodb-geo",))
        with pytest.raises(ValueError, match="unknown service"):
            s.arm(env)

    def test_unknown_watch_metric_rejected_at_arm(self, env):
        from repro.faults import FaultSchedule, MetricAbove
        s = FaultSchedule().when(MetricAbove("frontend", "p99", 1.0),
                                 "RevokeAuth", ("mongodb-geo",))
        with pytest.raises(ValueError, match="unknown metric"):
            s.arm(env)

    def test_unknown_after_tag_rejected_at_arm(self, env):
        from repro.faults import FaultSchedule
        s = FaultSchedule().after("ghost", "RevokeAuth", ("mongodb-geo",))
        with pytest.raises(ValueError, match="unknown tag"):
            s.arm(env)

    def test_after_cycle_rejected_at_arm(self, env):
        from repro.faults import FaultSchedule
        s = (FaultSchedule()
             .after("b", "RevokeAuth", ("mongodb-geo",), new_tag="a")
             .after("a", "PodFailure", ("recommendation",), new_tag="b"))
        with pytest.raises(ValueError, match="cycle"):
            s.arm(env)

    def test_metric_trigger_fires_at_scrape(self, env):
        """Error-rate watch trips one scrape after the root fault lands."""
        from repro.faults import FaultSchedule, MetricAbove
        armed = (FaultSchedule()
                 .inject(8.0, "RevokeAuth", ("mongodb-geo",))
                 .when(MetricAbove("frontend", "error_rate", 1.0),
                       "PodFailure", ("recommendation",))
                 ).arm(env)
        assert armed.pending == 2
        assert len(env.collector.pending_watches()) == 1
        env.advance(30.0)
        times = dict((d, t) for t, d in armed.log)
        assert times["inject PodFailure -> ['recommendation']"] == 10.0
        assert len(env.collector.pending_watches()) == 0

    def test_after_event_chains_off_metric_trigger(self, env):
        """AfterEvent anchors to the upstream entry's *firing*, even when
        that firing time was decided by a metric watch."""
        from repro.faults import FaultSchedule, MetricAbove
        armed = (FaultSchedule()
                 .inject(8.0, "RevokeAuth", ("mongodb-geo",))
                 .when(MetricAbove("frontend", "error_rate", 1.0),
                       "PodFailure", ("recommendation",), tag="cascade")
                 .after("cascade", "NetworkLoss", ("search",), delay=7.5)
                 ).arm(env)
        env.advance(40.0)
        times = dict((d, t) for t, d in armed.log)
        assert times["inject PodFailure -> ['recommendation']"] == 10.0
        assert times["inject NetworkLoss -> ['search']"] == 17.5

    def test_cancel_pending_cancels_watches_and_chains(self, env):
        from repro.faults import FaultSchedule, MetricAbove
        armed = (FaultSchedule()
                 .inject(8.0, "RevokeAuth", ("mongodb-geo",), tag="root")
                 .when(MetricAbove("frontend", "error_rate", 1.0),
                       "PodFailure", ("recommendation",))
                 .after("root", "NetworkLoss", ("search",), delay=100.0)
                 ).arm(env)
        env.advance(3.0)          # nothing fired yet
        armed.cancel_pending()
        assert armed.pending == 0
        assert len(env.collector.pending_watches()) == 0
        env.advance(60.0)
        assert armed.log == []
        assert env.driver.stats.errors == 0

class TestTimelineValidationProperties:
    """Property: arm-time validation rejects *every* invalid timeline
    the scenario generator's template space could express — unknown
    AfterEvent tags, trigger cycles of any length, negative
    delays/offsets/sustains — each with a clear error message.
    ``FaultSchedule.validate()`` runs the same checks env-free."""

    TAGS = ("t0", "t1", "t2", "t3")

    @given(known=st.lists(st.sampled_from(TAGS), unique=True,
                          min_size=0, max_size=4),
           delay=st.floats(min_value=0.0, max_value=60.0,
                           allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_unknown_after_tag_always_rejected(self, known, delay):
        s = FaultSchedule()
        for i, tag in enumerate(known):
            s.inject(float(i + 1), "RevokeAuth", ("mongodb-geo",), tag=tag)
        s.after("ghost", "PodFailure", ("recommendation",), delay=delay)
        with pytest.raises(ValueError, match="unknown tag 'ghost'"):
            s.validate()

    @given(length=st.integers(min_value=1, max_value=4),
           extra_valid=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_cycles_of_any_length_rejected(self, length, extra_valid):
        """Self-cycles (length 1) through 4-hop loops all fail, even when
        valid entries surround the cycle."""
        s = FaultSchedule()
        if extra_valid:
            s.inject(1.0, "RevokeAuth", ("mongodb-geo",), tag="root")
            s.after("root", "NetworkLoss", ("search",), delay=5.0)
        for j in range(length):
            s.after(f"c{(j + 1) % length}", "RevokeAuth", ("mongodb-geo",),
                    delay=1.0, new_tag=f"c{j}")
        with pytest.raises(ValueError, match="cycle"):
            s.validate()

    @given(bad=st.floats(max_value=-1e-6, min_value=-1e6,
                         allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_negative_times_rejected_at_construction(self, bad):
        """Negative offsets/delays/sustains never even reach arm(): the
        trigger layer rejects them when the timeline is built."""
        from repro.faults import AfterEvent, MetricAbove
        with pytest.raises(ValueError, match=">= 0"):
            FaultSchedule().inject(bad, "RevokeAuth", ("mongodb-geo",))
        with pytest.raises(ValueError, match=">= 0"):
            FaultSchedule().set_rate(bad, ConstantRate(10.0))
        with pytest.raises(ValueError, match=">= 0"):
            AfterEvent("x", delay=bad)
        with pytest.raises(ValueError, match=">= 0"):
            MetricAbove("frontend", "error_rate", 1.0, sustain_s=bad)

    @given(tags=st.lists(st.sampled_from(TAGS), unique=True,
                         min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_valid_chains_pass_and_validate_chains(self, tags):
        """Acyclic tag chains validate; validate() returns the schedule
        so it composes with arm()."""
        s = FaultSchedule()
        s.inject(1.0, "RevokeAuth", ("mongodb-geo",), tag=tags[0])
        for up, down in zip(tags, tags[1:]):
            s.after(up, "RevokeAuth", ("mongodb-geo",), delay=2.0,
                    new_tag=down)
        assert s.validate() is s


class TestSustainedTrigger:
    def test_sustained_trigger_holds_out_for_window(self, env):
        from repro.faults import FaultSchedule, MetricAbove
        armed = (FaultSchedule()
                 .inject(8.0, "RevokeAuth", ("mongodb-geo",))
                 .when(MetricAbove("frontend", "error_rate", 1.0,
                                   sustain_s=10.0),
                       "PodFailure", ("recommendation",))
                 ).arm(env)
        env.advance(40.0)
        times = dict((d, t) for t, d in armed.log)
        # satisfied from the t=10 scrape on; 10s sustain -> fires at t=20
        assert times["inject PodFailure -> ['recommendation']"] == 20.0
