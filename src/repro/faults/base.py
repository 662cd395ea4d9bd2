"""Fault injector base class and bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.apps.base import App
from repro.simcore import InvalidAction


@dataclass
class InjectedFault:
    """A live injection, kept so ``recover`` can undo exactly what was done."""

    fault_name: str
    targets: list[str]
    injected_at: float
    saved_state: dict[str, Any] = field(default_factory=dict)
    active: bool = True


class FaultInjector:
    """Base class for all injectors.

    An injector is bound to a deployed :class:`App` and mutates the app,
    its cluster objects, or its backends.  Subclasses implement
    ``inject_<fault>`` / ``recover_<fault>`` method pairs; the generic
    :meth:`_inject` / :meth:`_recover` dispatchers resolve them by name —
    the interface Example 2.4 of the paper shows
    (``injector._inject(["mongodb-geo"], "revoke_auth")``).
    """

    def __init__(self, app: App) -> None:
        if app.cluster is None or app.runtime is None:
            raise InvalidAction(
                f"app {app.name!r} must be deployed before faults can be injected"
            )
        self.app = app
        self.cluster = app.cluster
        self.runtime = app.runtime
        self.live: list[InjectedFault] = []

    @property
    def namespace(self) -> str:
        return self.app.namespace

    # -- generic dispatch --------------------------------------------------
    def _inject(self, targets: list[str], fault_name: str) -> InjectedFault:
        method = getattr(self, f"inject_{fault_name}", None)
        if method is None:
            raise InvalidAction(
                f"{type(self).__name__} does not provide fault {fault_name!r}"
            )
        record = InjectedFault(
            fault_name=fault_name,
            targets=list(targets),
            injected_at=self.cluster.clock.now,
        )
        method(targets, record)
        self.live.append(record)
        return record

    def _recover(self, targets: list[str], fault_name: str) -> None:
        method = getattr(self, f"recover_{fault_name}", None)
        if method is None:
            raise InvalidAction(
                f"{type(self).__name__} cannot recover fault {fault_name!r}"
            )
        for record in self.live:
            if record.fault_name == fault_name and record.active \
                    and record.targets == list(targets):
                method(targets, record)
                record.active = False
                return
        # No matching live record: recover with an empty record (idempotent).
        method(targets, InjectedFault(fault_name, list(targets), 0.0))

    def recover_all(self) -> None:
        """Undo every live injection (newest first)."""
        for record in reversed(self.live):
            if record.active:
                method = getattr(self, f"recover_{record.fault_name}")
                method(record.targets, record)
                record.active = False
