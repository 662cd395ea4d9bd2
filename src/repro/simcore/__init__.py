"""Simulation core: virtual time, seeded randomness, discrete events.

Every other subsystem (the Kubernetes simulator, the service runtime, the
workload generator, telemetry) shares a single :class:`SimClock` so that the
whole environment advances on one coherent virtual timeline.  This makes
benchmark runs deterministic and fast: a 10-minute incident simulates in
milliseconds of wall time.
"""

from repro.simcore.clock import SimClock
from repro.simcore.events import EventQueue, RecurringEvent, ScheduledEvent
from repro.simcore.rng import RngStream, derive_seed
from repro.simcore.errors import (
    SimError,
    ResourceNotFound,
    InvalidAction,
    PolicyViolation,
)

__all__ = [
    "SimClock",
    "EventQueue",
    "RecurringEvent",
    "ScheduledEvent",
    "RngStream",
    "derive_seed",
    "SimError",
    "ResourceNotFound",
    "InvalidAction",
    "PolicyViolation",
]
