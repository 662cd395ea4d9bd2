"""Shared fixtures: deployed environments and common builders.

Also pins the hypothesis profiles used by the property suites
(``tests/problems/test_generator.py``, ``tests/faults/test_schedule.py``):
the ``ci`` profile is fully deterministic (derandomized, no example
database, no flaky deadlines) so a CI failure is always reproducible
locally with ``HYPOTHESIS_PROFILE=ci``."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.apps import HotelReservation, SocialNetwork

settings.register_profile(
    "ci",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
from repro.kubesim import Cluster
from repro.simcore import SimClock
from repro.telemetry import TelemetryCollector
from repro.workload import ConstantRate, WorkloadDriver


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: multi-minute example runs (deselect with -m 'not slow')")


class DeployedApp:
    """A deployed app bundle used across tests."""

    def __init__(self, app_cls, seed: int = 7, rate: float = 40.0):
        self.clock = SimClock()
        self.cluster = Cluster(clock=self.clock, seed=seed)
        self.collector = TelemetryCollector(self.clock, seed=seed)
        self.app = app_cls()
        self.runtime = self.app.deploy(self.cluster, self.collector, seed=seed)
        self.driver = WorkloadDriver(
            self.runtime, self.app.workload_mix(), ConstantRate(rate), seed=seed
        )


@pytest.fixture
def hotel() -> DeployedApp:
    """A freshly deployed HotelReservation with a bound workload driver."""
    return DeployedApp(HotelReservation)


@pytest.fixture
def social() -> DeployedApp:
    """A freshly deployed SocialNetwork with a bound workload driver."""
    return DeployedApp(SocialNetwork)


@pytest.fixture
def cluster() -> Cluster:
    """An empty cluster on a fresh clock."""
    return Cluster(clock=SimClock(), seed=3)
