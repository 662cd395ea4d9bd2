import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload import (
    BurstRate, ConstantRate, DiurnalRate, ReplayTrace, SpikeRate,
)


def assert_sound_zero_hint(policy, t, samples=200):
    """The span the aggregate driver coalesces from ``t`` (up to
    ``next_change(t)``) is billed at zero, and rate is 0.0 across it."""
    u = policy.next_change(t)
    assert u is not None and u > t
    end = min(u, t + 1e6)
    span_rate = getattr(policy, "span_rate", None)
    billed = span_rate(t, end) if span_rate else policy.rate(t)
    assert billed == 0.0, f"span [{t}, {end}) billed at {billed}"
    for i in range(samples):
        ti = t + (end - t) * i / samples
        assert policy.rate(ti) == 0.0, f"span billed zero at t={ti}"
    return u


class TestConstantRate:
    def test_constant(self):
        policy = ConstantRate(50.0)
        assert policy.rate(0) == policy.rate(1e6) == 50.0

    def test_negative_rejected_on_use(self):
        with pytest.raises(ValueError):
            ConstantRate(-1.0).rate(0)


class TestDiurnalRate:
    def test_base_at_period_boundaries(self):
        policy = DiurnalRate(base=100, amplitude=0.5, period=100.0)
        assert policy.rate(0) == pytest.approx(100.0)
        assert policy.rate(100.0) == pytest.approx(100.0)

    def test_peak_at_quarter_period(self):
        policy = DiurnalRate(base=100, amplitude=0.5, period=100.0)
        assert policy.rate(25.0) == pytest.approx(150.0)

    def test_never_negative(self):
        policy = DiurnalRate(base=10, amplitude=2.0, period=100.0)
        assert all(policy.rate(t) >= 0 for t in range(0, 100, 5))

    @given(st.floats(min_value=0, max_value=1e5))
    @settings(max_examples=50)
    def test_bounded_by_amplitude(self, t):
        policy = DiurnalRate(base=100, amplitude=0.3, period=3600)
        assert 70.0 - 1e-6 <= policy.rate(t) <= 130.0 + 1e-6

    def test_zero_hint_none_when_never_clamped(self):
        """amplitude <= 1 never clamps, so no span is billed at zero."""
        for amplitude in (0.5, 1.0):
            policy = DiurnalRate(base=100, amplitude=amplitude)
            h = policy.period / policy.segments
            for k in range(policy.segments):
                assert policy.span_rate(k * h, (k + 1) * h) > 0.0

    def test_zero_hint_forever_when_base_zero(self):
        policy = DiurnalRate(base=0, amplitude=2.0)
        t = 5.0
        for _ in range(policy.segments + 1):
            t = assert_sound_zero_hint(policy, t, samples=10)

    def test_zero_hint_none_for_negative_base(self):
        """base < 0 inverts the clamp (rate is positive exactly where the
        sin term is low); the spans there must not be billed idle."""
        policy = DiurnalRate(base=-40, amplitude=1.6, period=120.0)
        for t in range(0, 120, 5):
            low = math.sin(2 * math.pi * t / 120.0) < -1 / 1.6
            assert (policy.rate(t) > 0.0) == low
            if low:
                assert policy.span_rate(t, policy.next_change(t)) > 0.0

    def test_zero_hint_covers_the_night_clip(self):
        policy = DiurnalRate(base=100, amplitude=2.0, period=1200.0)
        # sin <= -1/2 on phase [7π/6, 11π/6] → t in [700, 1100)
        t = 800.0
        assert policy.rate(t) == 0.0
        # the driver's spans from t stay billed at zero up to the clip end
        while policy.span_rate(t, policy.next_change(t)) == 0.0:
            t = assert_sound_zero_hint(policy, t)
        # ...within one 12.5 s segment: the knot at 1100 sits on the clamp
        # crossing, where rounding leaves a sliver of rate (~1e-13)
        assert 1100.0 - 12.5 <= t < 1100.0
        # just past the clip the rate comes back within a few seconds
        assert policy.rate(1105.0) > 0.0

    @given(st.floats(min_value=0, max_value=5000.0))
    @settings(max_examples=100)
    def test_zero_hint_is_sound_everywhere(self, t):
        """Property: wherever a span is billed at zero, rate is exactly 0."""
        policy = DiurnalRate(base=60, amplitude=1.5, period=777.7)
        u = policy.next_change(t)
        if policy.span_rate(t, u) == 0.0:
            for i in range(20):
                assert policy.rate(t + (u - t) * i / 20) == 0.0


class TestNextChangeHints:
    def test_constant_never_changes(self):
        assert ConstantRate(50.0).next_change(123.4) == math.inf

    def test_burst_boundaries(self):
        policy = BurstRate(base=10, burst_factor=4, interval=100,
                           burst_duration=10)
        assert policy.next_change(0.0) == pytest.approx(10.0)
        assert policy.next_change(5.0) == pytest.approx(10.0)
        assert policy.next_change(10.0) == pytest.approx(100.0)
        assert policy.next_change(99.0) == pytest.approx(100.0)
        assert policy.next_change(105.0) == pytest.approx(110.0)

    def test_burst_rate_constant_within_announced_span(self):
        policy = BurstRate(base=10, burst_factor=4, interval=100,
                           burst_duration=10)
        for t in (0.0, 3.3, 42.0, 99.5, 107.1):
            u = policy.next_change(t)
            r = policy.rate(t)
            for i in range(50):
                ti = t + (u - t) * i / 50
                assert policy.rate(ti) == r, f"rate changed inside span at {ti}"

    def test_spike_boundaries(self):
        policy = SpikeRate(base=10, spike_factor=10, at=60, duration=5)
        assert policy.next_change(0.0) == 60.0
        assert policy.next_change(60.0) == 65.0
        assert policy.next_change(62.0) == 65.0
        assert policy.next_change(70.0) == math.inf

    def test_replay_points(self):
        policy = ReplayTrace(points=[(0, 10), (50, 100), (80, 20)])
        assert policy.next_change(0.0) == 50.0
        assert policy.next_change(50.0) == 80.0
        assert policy.next_change(80.0) == math.inf

    def test_diurnal_next_change_is_segment_grid(self):
        """DiurnalRate approximates the sinusoid piecewise-linearly on a
        grid of ``segments`` knots per period; next_change announces the
        next knot strictly after t (so spans never straddle one)."""
        policy = DiurnalRate(base=100, amplitude=0.5, period=960.0,
                             segments=96)
        h = 960.0 / 96
        assert policy.next_change(0.0) == h
        assert policy.next_change(h) == 2 * h  # strictly after a knot
        assert policy.next_change(h + 0.1) == 2 * h

    def test_diurnal_span_rate_chord_error_bound(self):
        """The chord average over a segment is within the documented
        bound, base·|A|·(2π/segments)²/8, of the true mean rate."""
        policy = DiurnalRate(base=100, amplitude=0.8, period=960.0,
                             segments=96)
        bound = 100 * 0.8 * (2 * math.pi / 96) ** 2 / 8
        h = 960.0 / 96
        for k in range(96):
            t0, t1 = k * h, (k + 1) * h
            true_mean = sum(policy.rate(t0 + (i + 0.5) * h / 50)
                            for i in range(50)) / 50
            assert abs(policy.span_rate(t0, t1) - true_mean) <= bound + 1e-9

    def test_diurnal_segments_validated(self):
        with pytest.raises(ValueError, match="segments"):
            DiurnalRate(segments=0)

    def test_diurnal_span_rate_interpolates_within_segment(self):
        policy = DiurnalRate(base=100, amplitude=0.5, period=960.0,
                             segments=96)
        h = 960.0 / 96
        # at a knot the chord equals the true rate
        assert policy.span_rate(h, h) == pytest.approx(policy.rate(h))
        # a sub-span's average lies between the segment endpoint rates
        lo, hi = sorted((policy.rate(3 * h), policy.rate(4 * h)))
        assert lo - 1e-9 <= policy.span_rate(3 * h, 4 * h) <= hi + 1e-9


class TestBurstRate:
    def test_burst_window(self):
        policy = BurstRate(base=10, burst_factor=4, interval=100,
                           burst_duration=10)
        assert policy.rate(5) == 40.0
        assert policy.rate(50) == 10.0

    def test_burst_recurs(self):
        policy = BurstRate(base=10, burst_factor=4, interval=100,
                           burst_duration=10)
        assert policy.rate(105) == 40.0

    def test_zero_hint_forever_when_base_zero(self):
        policy = BurstRate(base=0)
        t = 7.0
        for _ in range(10):
            t = assert_sound_zero_hint(policy, t)

    def test_zero_hint_inside_dead_burst(self):
        """burst_factor 0 models a recurring total outage window."""
        policy = BurstRate(base=50, burst_factor=0.0, interval=100,
                           burst_duration=10)
        assert policy.rate(5.0) == 0.0
        u = assert_sound_zero_hint(policy, 5.0)
        assert u == pytest.approx(10.0, abs=0.01)
        assert policy.rate(50.0) == 50.0  # outside the burst


class TestSpikeRate:
    def test_spike_only_in_window(self):
        policy = SpikeRate(base=10, spike_factor=10, at=60, duration=5)
        assert policy.rate(59) == 10.0
        assert policy.rate(60) == 100.0
        assert policy.rate(64.9) == 100.0
        assert policy.rate(65) == 10.0


class TestReplayTrace:
    def test_step_function(self):
        policy = ReplayTrace(points=[(0, 10), (50, 100), (80, 20)])
        assert policy.rate(0) == 10
        assert policy.rate(49) == 10
        assert policy.rate(50) == 100
        assert policy.rate(200) == 20

    def test_before_first_point(self):
        policy = ReplayTrace(points=[(10, 5)])
        assert policy.rate(0) == 0.0

    def test_empty_trace(self):
        assert ReplayTrace().rate(100) == 0.0

    def test_zero_segment_is_one_span(self):
        """A recorded outage is one zero-billed span up to the next
        point, wherever inside it the driver starts."""
        policy = ReplayTrace(points=[(0, 50), (10, 0), (30, 20)])
        for t in (10.0, 12.5, 29.9):
            assert assert_sound_zero_hint(policy, t) == 30.0
        assert policy.rate(30.0) == 20.0
