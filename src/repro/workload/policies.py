"""Request-rate policies: constant, diurnal, bursty, spiky, replayed."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence


class RatePolicy(Protocol):
    """Maps virtual time to an offered request rate (req/s).

    Policies may additionally implement two optional hints:

    ``zero_until(t) -> float | None``
        If the rate is *exactly* zero everywhere on ``[t, u)`` return
        ``u`` (``math.inf`` for "forever"), else ``None``.  The event
        kernel uses this to fast-forward across provably idle spans
        instead of evaluating every tick; a policy without the hint is
        simply never fast-forwarded.  Because the kernel trusts the hint
        bit-for-bit, implementations must be conservative about float
        rounding near span edges (shrink, never stretch).

    ``next_change(t) -> float | None``
        The earliest time strictly after ``t`` at which the rate *may*
        change: ``math.inf`` for "constant forever", ``None`` for
        "continuously varying / unknown".  The aggregate workload driver
        coalesces the whole constant span ``[t, next_change(t))`` into a
        single ``execute_many`` batch; without the hint (or with
        ``None``) it falls back to one-second spans.

    ``span_rate(t0, t1) -> float``
        The average offered rate over ``[t0, t1)``, for policies whose
        rate varies *within* a ``next_change`` span (a continuously-
        varying policy approximated piecewise, like :class:`DiurnalRate`).
        The aggregate driver bills a span as ``span_rate(t0, t1) ·
        (t1 - t0)`` when the hint exists, else ``rate(t0) · (t1 - t0)``
        (exact for piecewise-constant policies).  Only called with spans
        that do not straddle a ``next_change`` boundary.
    """

    def rate(self, t: float) -> float:  # pragma: no cover - protocol
        ...


# Every policy is frozen: a policy object is a value that scenario rows,
# AppSpecs and timeline entries share across environments.

@dataclass(frozen=True)
class ConstantRate:
    """A fixed offered load."""

    rps: float = 100.0

    def rate(self, t: float) -> float:
        if self.rps < 0:
            raise ValueError(f"rate must be >= 0, got {self.rps}")
        return self.rps

    def zero_until(self, t: float) -> float | None:
        return math.inf if self.rps == 0 else None

    def next_change(self, t: float) -> float | None:
        return math.inf


@dataclass(frozen=True)
class DiurnalRate:
    """Sinusoidal day/night pattern around a base rate.

    ``rate(t) = base * (1 + amplitude * sin(2π t / period))``, clamped at 0.

    For aggregate-mode span coalescing the continuous sinusoid is
    approximated piecewise-linearly on a grid of ``segments`` equal knots
    per period: :meth:`next_change` announces the next knot (so spans
    never straddle one) and :meth:`span_rate` bills a span at the chord
    average between its endpoints.  With ``segments = S`` the chord error
    within a smooth segment is bounded by ``max|f''|·h²/8`` with
    ``h = period/S``, i.e. ``base·|amplitude|·(2π/S)²/8`` — at the default
    ``S = 96`` (15-minute segments on a 24 h period) that is ~0.054% of
    ``base·|amplitude|``; a segment containing a clamp crossing
    (``amplitude > 1``) additionally errs by at most that segment's total
    rate change.  Per-request mode never reads these hints, so its
    per-tick arithmetic is untouched.
    """

    base: float = 100.0
    amplitude: float = 0.5
    period: float = 86_400.0
    #: piecewise-linear approximation knots per period (aggregate mode)
    segments: int = 96

    #: phase margin (radians) shaved off both ends of the zero span so
    #: float rounding near the sin crossings can never make the hint
    #: claim zero where ``rate`` evaluates non-zero
    _ZERO_PHASE_MARGIN = 1e-6

    def __post_init__(self) -> None:
        if self.segments < 1:
            raise ValueError(
                f"segments must be >= 1, got {self.segments}")

    def rate(self, t: float) -> float:
        r = self.base * (1.0 + self.amplitude * math.sin(2 * math.pi * t / self.period))
        return max(r, 0.0)

    def next_change(self, t: float) -> float | None:
        """The next piecewise-linear knot strictly after ``t``."""
        h = self.period / self.segments
        return (math.floor(t / h) + 1) * h

    def span_rate(self, t0: float, t1: float) -> float:
        """Chord-average rate on ``[t0, t1)`` (within one segment)."""
        return 0.5 * (self._chord(t0) + self._chord(t1))

    def _chord(self, t: float) -> float:
        """The piecewise-linear approximation: interpolate the true
        (clamped) rate between the surrounding grid knots."""
        h = self.period / self.segments
        k = math.floor(t / h)
        lo, hi = k * h, (k + 1) * h
        if t <= lo:
            return self.rate(lo)
        frac = (t - lo) / h
        return (1.0 - frac) * self.rate(lo) + frac * self.rate(hi)

    def zero_until(self, t: float) -> float | None:
        """Night clipping: with ``amplitude > 1`` the clamped rate is
        exactly 0 while ``sin`` is below ``-1/amplitude`` — a piecewise
        zero span once per period the kernel can fast-forward across."""
        if self.base == 0:
            return math.inf
        if self.base < 0:  # clamp inverts: zero where sin is *high*; no hint
            return None
        if self.amplitude <= 1.0:  # never clamps (negative A: no hint)
            return None
        two_pi = 2.0 * math.pi
        theta = math.asin(1.0 / self.amplitude)
        lo = math.pi + theta + self._ZERO_PHASE_MARGIN
        hi = two_pi - theta - self._ZERO_PHASE_MARGIN
        if lo >= hi:
            return None
        x = (t % self.period) / self.period * two_pi
        if lo <= x < hi:
            return t + (hi - x) * self.period / two_pi
        return None


@dataclass(frozen=True)
class BurstRate:
    """Base load with recurring bursts (e.g. marketing pushes).

    Every ``interval`` seconds the rate multiplies by ``burst_factor`` for
    ``burst_duration`` seconds.
    """

    base: float = 100.0
    burst_factor: float = 4.0
    interval: float = 300.0
    burst_duration: float = 30.0

    def rate(self, t: float) -> float:
        phase = t % self.interval
        return self.base * (self.burst_factor if phase < self.burst_duration else 1.0)

    def _boundary_margin(self) -> float:
        """Float modulo isn't linear, so a span end computed as
        ``t + (boundary - phase)`` can land an ulp past the true phase
        boundary; shrinking hints by this margin keeps them sound."""
        return 1e-9 * max(self.interval, 1.0)

    def zero_until(self, t: float) -> float | None:
        if self.base == 0:
            return math.inf
        if self.burst_factor == 0:
            phase = t % self.interval
            if phase < self.burst_duration:
                u = t + (self.burst_duration - phase) - self._boundary_margin()
                return u if u > t else None
        return None

    def next_change(self, t: float) -> float | None:
        phase = t % self.interval
        if phase < self.burst_duration:
            return t + (self.burst_duration - phase)
        return t + (self.interval - phase)


@dataclass(frozen=True)
class SpikeRate:
    """A single one-off spike at ``at`` lasting ``duration`` seconds."""

    base: float = 100.0
    spike_factor: float = 10.0
    at: float = 60.0
    duration: float = 10.0

    def rate(self, t: float) -> float:
        if self.at <= t < self.at + self.duration:
            return self.base * self.spike_factor
        return self.base

    def zero_until(self, t: float) -> float | None:
        if self.base != 0:
            return None
        # base 0: idle except (possibly) during the spike window
        if t < self.at:
            return self.at
        if t < self.at + self.duration:
            return None if self.spike_factor != 0 else math.inf
        return math.inf

    def next_change(self, t: float) -> float | None:
        if t < self.at:
            return self.at
        if t < self.at + self.duration:
            return self.at + self.duration
        return math.inf


@dataclass(frozen=True)
class ReplayTrace:
    """Replays an industry trace: a step function over (time, rate) points."""

    points: Sequence[tuple[float, float]] = field(default_factory=tuple)

    def rate(self, t: float) -> float:
        current = 0.0
        for ts, r in self.points:
            if ts <= t:
                current = r
            else:
                break
        return current

    def zero_until(self, t: float) -> float | None:
        if self.rate(t) != 0.0:
            return None
        for ts, r in self.points:
            if ts > t and r != 0.0:
                return ts
        return math.inf

    def next_change(self, t: float) -> float | None:
        for ts, _ in self.points:
            if ts > t:
                return ts
        return math.inf
