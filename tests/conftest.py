"""Shared fixtures: deployed environments and common builders.

Also pins the hypothesis profiles used by the property suites
(``tests/problems/test_generator.py``, ``tests/faults/test_schedule.py``):
the ``ci`` profile is fully deterministic (derandomized, no example
database, no flaky deadlines) so a CI failure is always reproducible
locally with ``HYPOTHESIS_PROFILE=ci``."""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import HealthCheck, settings

from repro.apps import HotelReservation, SocialNetwork
from repro.core import Orchestrator

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


def _export_dirs() -> set[str]:
    return {name for name in os.listdir(tempfile.gettempdir())
            if name.startswith("aiopslab-")}


@pytest.fixture(autouse=True)
def no_leaked_export_dirs():
    """Fail a test that leaves an environment's owned export directory
    (``aiopslab-*`` in the temp directory) behind: every environment a
    test builds is closed, even when the test fails."""
    before = _export_dirs()
    yield
    left = sorted(_export_dirs() - before)
    if left:
        pytest.fail(f"left {len(left)} export directories in "
                    f"{tempfile.gettempdir()}: {', '.join(left)}")


@pytest.fixture
def closing():
    """Close what a test registers when it ends, passed or failed:
    ``env = closing(CloudEnvironment(...))``.  Anything with ``close()``
    registers (environments, session handles); an orchestrator is closed
    by releasing every handle it still tracks."""
    opened: list = []

    def register(thing):
        opened.append(thing)
        return thing

    yield register
    for thing in reversed(opened):
        if isinstance(thing, Orchestrator):
            for handle in list(thing.handles):
                thing.release(handle)
        else:
            thing.close()


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
