"""Scheduled fault timelines: faults as events on the environment kernel.

A :class:`FaultSchedule` is a declarative timeline — inject *this* fault at
t=45, recover it at t=60, swap the workload's rate policy at t=120 — that
:meth:`FaultSchedule.arm` turns into scheduled events on an environment's
:class:`~repro.simcore.events.EventQueue`.  Because the environment only
moves through ``advance()`` (which runs the queue), the timeline fires
*while the agent is working*: delayed-onset faults appear mid-session,
flapping faults come and go between probes, and cascades unfold in stages.

*When* an entry fires is a first-class :class:`~repro.faults.triggers.Trigger`,
not just a float:

* :class:`~repro.faults.triggers.AtTime` — fixed offset from arm time
  (plain floats coerce to this, so time-based schedules read and behave
  exactly as before);
* :class:`~repro.faults.triggers.MetricAbove` /
  :class:`~repro.faults.triggers.MetricBelow` — telemetry thresholds
  evaluated at scrape time through the collector's
  :class:`~repro.telemetry.watch.MetricWatch` registry ("once the error
  rate crosses 5/s for 10 s");
* :class:`~repro.faults.triggers.AfterEvent` — chains off another entry's
  firing by ``tag``, whatever condition fired it.

Multi-app environments add a *where* dimension: every entry carries a
``namespace`` naming the app it acts on (empty → the environment's
primary app), and a metric trigger may watch a *different* app's
telemetry than the entry targets — the cross-app shapes (noisy neighbor,
load-triggered cross-app remediation) are built from exactly this split.

Builders cover the paper-motivated shapes:

* :meth:`FaultSchedule.delayed` — single fault with onset delay;
* :meth:`FaultSchedule.flapping` — intermittent inject/recover cycles;
* :meth:`FaultSchedule.cascade` — multiple faults at staggered times;
* :meth:`FaultSchedule.set_rate` — time-varying workload (diurnal/burst
  policies taking over at a scheduled moment);
* :meth:`FaultSchedule.when` / :meth:`FaultSchedule.after` — condition-
  triggered and chained entries ("inject network_loss on the frontend once
  p99 > 800 ms for 30 s, then cascade to geo when error rate crosses 5/s");
  ``when(..., repeat=N)`` makes the entry **repeat**: the armed watch
  re-arms itself after each firing
  (:meth:`~repro.telemetry.watch.MetricWatch.rearm`) and waits for the
  signal to drop back across the threshold before it may fire again, so
  the entry fires once per threshold *crossing* — the auto-remediation
  loop shape (inject/recover driven by telemetry).

Every entry is checked when it is built — by a builder or by hand — not
when it fires (see :class:`TimelineEntry`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.faults.base import FaultInjector
from repro.faults.functional import ApplicationFaultInjector, VirtFaultInjector
from repro.faults.library import FaultSpec, get_fault_spec
from repro.faults.symptomatic import SymptomaticFaultInjector
from repro.faults.triggers import (
    AfterEvent,
    AtTime,
    MetricTrigger,
    Trigger,
    as_trigger,
)
from repro.telemetry.watch import MetricWatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import App
    from repro.core.env import CloudEnvironment
    from repro.simcore import ScheduledEvent
    from repro.workload.policies import RatePolicy

#: the one injector-family → class mapping (problems and schedules share it)
INJECTOR_CLASSES: dict[str, type[FaultInjector]] = {
    "virt": VirtFaultInjector,
    "app": ApplicationFaultInjector,
    "symptomatic": SymptomaticFaultInjector,
}


@dataclass(frozen=True)
class TimelineEntry:
    """One step of a fault timeline.

    ``trigger`` says *when* the entry fires — a :class:`Trigger`, or a
    plain number of seconds from arm time (coerced to :class:`AtTime`);
    ``kind`` is ``"inject"``, ``"recover"`` or ``"set_rate"``.
    ``namespace`` says *where* it acts: the namespace whose app the fault
    is injected into (or whose driver's rate policy is swapped); empty
    means the environment's primary app.  ``tag`` names the entry so
    later entries can chain off it with :class:`AfterEvent`.  ``repeat``
    (metric-triggered entries only) is the number of firings the entry is
    allowed across watch re-arms — ``1`` is the historical fire-once,
    ``0`` means unlimited (fire at every threshold crossing).

    Construction checks the entry whole: a known ``kind``, a rate policy
    for ``set_rate``, and for ``inject``/``recover`` a library fault with
    an injector (``KeyError`` for an unknown fault) and at least one
    target — so a bad entry fails where it is written, never where it
    fires.
    """

    trigger: Trigger
    kind: str
    fault: str | int = ""
    targets: tuple[str, ...] = ()
    policy: Optional["RatePolicy"] = None
    tag: str = ""
    namespace: str = ""
    repeat: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "trigger", as_trigger(self.trigger))
        if self.kind == "set_rate":
            if not callable(getattr(self.policy, "rate", None)):
                raise TypeError(
                    f"a set_rate entry needs a RatePolicy, got {self.policy!r}")
        elif self.kind in ("inject", "recover"):
            spec = get_fault_spec(self.fault)  # KeyError on unknown faults
            if spec.injector not in INJECTOR_CLASSES:
                raise ValueError(
                    f"fault {spec.name!r} has no injector "
                    f"(injector={spec.injector!r}) and cannot be scheduled")
            if not self.targets:
                raise ValueError(
                    f"an {self.kind} entry needs at least one target")
        else:
            raise ValueError(f"unknown timeline kind {self.kind!r}")
        if self.repeat < 0:
            raise ValueError(f"repeat must be >= 0, got {self.repeat}")
        if self.repeat != 1 and not isinstance(self.trigger, MetricTrigger):
            raise ValueError(
                "repeat is only meaningful for metric-triggered entries "
                f"(got repeat={self.repeat} on {self.trigger.describe()})")

    @property
    def at(self) -> Optional[float]:
        """The arm-relative offset for time-triggered entries, else None."""
        return self.trigger.at if isinstance(self.trigger, AtTime) else None

    def describe(self) -> str:
        where = f" @{self.namespace}" if self.namespace else ""
        if self.kind == "set_rate":
            return f"set_rate {type(self.policy).__name__}{where}"
        return f"{self.kind} {self.fault} -> {list(self.targets)}{where}"


class FaultSchedule:
    """A declarative, composable fault timeline (see module docstring)."""

    def __init__(self, entries: Sequence[TimelineEntry] = ()) -> None:
        self.entries: list[TimelineEntry] = []
        for entry in entries:
            self._add(entry)

    # -- chainable builders --------------------------------------------
    def _add(self, entry: TimelineEntry) -> "FaultSchedule":
        if entry.tag and any(e.tag == entry.tag for e in self.entries):
            raise ValueError(f"duplicate timeline tag {entry.tag!r}")
        self.entries.append(entry)
        # Time entries stay time-sorted (presentation + duration); the
        # sort is stable, so condition-triggered entries keep insertion
        # order after them.
        self.entries.sort(
            key=lambda e: (0, e.at) if e.at is not None else (1, 0.0))
        return self

    def inject(self, at: float | Trigger, fault: str | int,
               targets: Sequence[str], *, tag: str = "",
               namespace: str = "") -> "FaultSchedule":
        """Inject ``fault`` into ``targets`` when ``at`` trips (seconds
        after arming, or any :class:`Trigger`).  ``namespace`` picks the
        app acted on in a multi-app environment."""
        return self._add(TimelineEntry(as_trigger(at), "inject", fault,
                                       tuple(targets), tag=tag,
                                       namespace=namespace))

    def recover(self, at: float | Trigger, fault: str | int,
                targets: Sequence[str], *, tag: str = "",
                namespace: str = "") -> "FaultSchedule":
        """Recover ``fault`` on ``targets`` when ``at`` trips."""
        return self._add(TimelineEntry(as_trigger(at), "recover", fault,
                                       tuple(targets), tag=tag,
                                       namespace=namespace))

    def set_rate(self, at: float | Trigger, policy: "RatePolicy", *,
                 tag: str = "", namespace: str = "") -> "FaultSchedule":
        """Swap a workload driver's rate policy when ``at`` trips —
        ``namespace``'s driver in a multi-app environment (default: the
        primary app's)."""
        return self._add(TimelineEntry(as_trigger(at), "set_rate",
                                       policy=policy, tag=tag,
                                       namespace=namespace))

    def when(self, trigger: Trigger, fault: str | int,
             targets: Sequence[str], *, kind: str = "inject",
             tag: str = "", namespace: str = "",
             repeat: int = 1) -> "FaultSchedule":
        """Condition-triggered entry: fire ``kind`` when ``trigger`` trips.

        Sugar for ``inject``/``recover`` with an explicit trigger — reads
        as the scenario sentence: ``sched.when(MetricAbove("frontend",
        "latency_p99_ms", 800, sustain_s=30), "NetworkLoss", ("frontend",))``.
        The trigger may watch one app while the entry acts on another
        (``trigger.namespace`` vs ``namespace``).  ``repeat`` allows the
        entry to fire at up to that many threshold crossings (0 =
        unlimited) by re-arming the underlying watch after each firing;
        a re-armed watch must see one non-satisfying scrape before it may
        fire again.
        """
        if kind not in ("inject", "recover"):
            raise ValueError(f"when() supports inject/recover, got {kind!r}")
        return self._add(TimelineEntry(trigger, kind, fault, tuple(targets),
                                       tag=tag, namespace=namespace,
                                       repeat=repeat))

    def after(self, tag: str, fault: str | int, targets: Sequence[str], *,
              delay: float = 0.0, kind: str = "inject",
              new_tag: str = "", namespace: str = "") -> "FaultSchedule":
        """Chain an entry ``delay`` seconds after the entry tagged ``tag``
        fires — however that entry was triggered.  (An entry chained off a
        *repeating* tag fires on the tag's first firing only.)"""
        return self.when(AfterEvent(tag, delay), fault, targets, kind=kind,
                         tag=new_tag, namespace=namespace)

    # -- canned shapes -------------------------------------------------
    @classmethod
    def delayed(cls, fault: str | int, targets: Sequence[str],
                delay: float, *, namespace: str = "") -> "FaultSchedule":
        """A single fault whose onset is ``delay`` seconds after arming."""
        return cls().inject(delay, fault, targets, namespace=namespace)

    @classmethod
    def flapping(cls, fault: str | int, targets: Sequence[str], *,
                 start: float = 0.0, period: float = 30.0,
                 on_for: float = 15.0, cycles: int = 4,
                 namespace: str = "") -> "FaultSchedule":
        """An intermittent fault: ``cycles`` inject/recover pairs, each
        cycle ``period`` seconds long with the fault live for ``on_for``."""
        if not 0 < on_for < period:
            raise ValueError(
                f"need 0 < on_for < period, got on_for={on_for}, "
                f"period={period}")
        if cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {cycles}")
        sched = cls()
        for k in range(cycles):
            t0 = start + k * period
            sched.inject(t0, fault, targets, namespace=namespace)
            sched.recover(t0 + on_for, fault, targets, namespace=namespace)
        return sched

    @classmethod
    def cascade(cls, steps: Sequence[tuple[float, str | int, Sequence[str]]],
                ) -> "FaultSchedule":
        """Multiple faults unfolding in stages: ``(at, fault, targets)``."""
        sched = cls()
        for at, fault, targets in steps:
            sched.inject(at, fault, targets)
        return sched

    # -- properties ----------------------------------------------------
    @property
    def duration(self) -> float:
        """Offset of the last *time-triggered* entry (0 if none); metric
        and chained entries have no a-priori fire time."""
        ats = [e.at for e in self.entries if e.at is not None]
        return max(ats) if ats else 0.0

    def _validate_chains(self) -> None:
        """Arm-time validation: AfterEvent tags must resolve, acyclically."""
        tags = {e.tag for e in self.entries if e.tag}
        upstream: dict[int, str] = {}
        for i, e in enumerate(self.entries):
            if isinstance(e.trigger, AfterEvent):
                if e.trigger.tag not in tags:
                    raise ValueError(
                        f"AfterEvent references unknown tag "
                        f"{e.trigger.tag!r}")
                upstream[i] = e.trigger.tag
        # cycle check: follow tag → entry → its upstream tag
        by_tag = {e.tag: i for i, e in enumerate(self.entries) if e.tag}
        for start in upstream:
            seen = {start}
            i = start
            while i in upstream:
                i = by_tag[upstream[i]]
                if i in seen:
                    raise ValueError(
                        "AfterEvent chain forms a cycle through tag "
                        f"{self.entries[i].tag!r} — it could never fire")
                seen.add(i)

    def validate(self) -> "FaultSchedule":
        """Run arm-time timeline validation without an environment:
        AfterEvent tags must resolve to an entry, acyclically.  Returns
        ``self`` so it chains; raises ``ValueError`` with the same
        messages :meth:`arm` would.  (Per-trigger and per-entry
        invariants — negative delays/offsets/sustains, empty tags, unknown
        faults or kinds — are rejected even earlier, at construction.)"""
        self._validate_chains()
        return self

    def arm(self, env: "CloudEnvironment") -> "ArmedSchedule":
        """Bind the timeline to ``env``: time entries become queue events,
        metric entries become scrape-evaluated watches, chained entries
        wait for their upstream tag."""
        self._validate_chains()
        return ArmedSchedule(self, env)


class _EntryAction:
    """Picklable scheduled-event action: fire one timeline entry.

    A module-level callable (not a lambda) so armed timelines survive
    environment snapshots; it also gives the snapshot graph a path from
    the queue back to the :class:`ArmedSchedule`, keeping the schedule's
    state in the same pickle memo as the environment."""

    __slots__ = ("sched", "entry")

    def __init__(self, sched: "ArmedSchedule", entry: TimelineEntry) -> None:
        self.sched = sched
        self.entry = entry

    def __call__(self) -> None:
        self.sched._fire(self.entry)


class _WatchAction:
    """Picklable metric-watch callback: fire (and maybe re-arm) one
    watched timeline entry."""

    __slots__ = ("sched", "entry", "watch")

    def __init__(self, sched: "ArmedSchedule", entry: TimelineEntry,
                 watch: MetricWatch) -> None:
        self.sched = sched
        self.entry = entry
        self.watch = watch

    def __call__(self) -> None:
        self.sched._fire_watched(self.entry, self.watch)


class ArmedSchedule:
    """A :class:`FaultSchedule` bound to one environment's event queue.

    Keeps the per-(namespace, family) injectors it creates (so
    ``recover_all`` can undo exactly what was injected, app by app), the
    scheduled events and armed watches (so a problem teardown can cancel
    what hasn't fired yet), and a fired log for introspection.

    Arming is trigger-directed:

    * :class:`AtTime` entries are ``schedule_at`` events — byte-for-byte
      the pre-trigger behavior;
    * metric entries register a :class:`MetricWatch` with the collector
      (scrape-time evaluation, under the watched namespace's *qualified*
      metric name) — the one registry of live watches; span planners stay
      scrape-bounded without it.  Entries with ``repeat != 1``
      re-arm their watch from the firing callback, with crossing
      semantics (``require_clear``), until the repeat budget is spent or
      the schedule is torn down;
    * :class:`AfterEvent` entries are held as dependents of their tag and
      scheduled ``delay`` seconds after the tagged entry (first) fires.
    """

    def __init__(self, schedule: FaultSchedule, env: "CloudEnvironment") -> None:
        self.schedule = schedule
        self.env = env
        self.armed_at = env.clock.now
        self._injectors: dict[tuple[str, str], FaultInjector] = {}
        self.events: list["ScheduledEvent"] = []
        self.watches: list[MetricWatch] = []
        #: tag -> chained entries waiting on it
        self._dependents: dict[str, list[TimelineEntry]] = {}
        #: (virtual time, entry description) for every fired entry
        self.log: list[tuple[float, str]] = []
        #: set by cancel_pending so repeating watches stop re-arming
        self._torn_down = False
        for entry in schedule.entries:
            trigger = entry.trigger
            if isinstance(trigger, AtTime):
                self.events.append(env.queue.schedule_at(
                    self.armed_at + trigger.at,
                    _EntryAction(self, entry),
                    label=f"fault.{entry.kind}",
                ))
            elif isinstance(trigger, MetricTrigger):
                watch_ns = self._resolve_watch_namespace(trigger, env)
                watch = MetricWatch(
                    env.collector.qualify(watch_ns, trigger.service),
                    trigger.metric, trigger.threshold,
                    above=trigger.above, sustain_s=trigger.sustain_s,
                    label=f"fault.{entry.kind}.{trigger.service}",
                    require_clear=entry.repeat != 1,
                )
                watch.callback = _WatchAction(self, entry, watch)
                env.collector.add_watch(watch)
                self.watches.append(watch)
            elif isinstance(trigger, AfterEvent):
                self._dependents.setdefault(trigger.tag, []).append(entry)
            else:  # pragma: no cover - as_trigger rejects unknown kinds
                raise TypeError(f"unsupported trigger {trigger!r}")

    @staticmethod
    def _resolve_watch_namespace(trigger: MetricTrigger,
                                 env: "CloudEnvironment") -> str:
        """The namespace whose telemetry ``trigger`` watches.

        Fails at arm time, not silently-never-fire time: a typo'd
        service, metric or namespace would otherwise skip evaluation at
        every scrape forever (the collector cannot tell 'not scraped yet'
        from 'does not exist').  With no explicit ``trigger.namespace``
        the service name is resolved across every hosted app and must be
        unambiguous.
        """
        from repro.telemetry.metrics import MetricStore
        if trigger.metric not in MetricStore.STANDARD_METRICS:
            raise ValueError(
                f"metric trigger watches unknown metric {trigger.metric!r}; "
                f"scrapes record {MetricStore.STANDARD_METRICS}")
        if trigger.namespace:
            app = env.app_for(trigger.namespace)  # raises on unknown ns
            if trigger.service not in app.services:
                raise ValueError(
                    f"metric trigger watches unknown service "
                    f"{trigger.service!r} (not in {app.name}'s services)")
            return trigger.namespace
        owners = [a for a in env.apps if trigger.service in a.services]
        if not owners:
            raise ValueError(
                f"metric trigger watches unknown service "
                f"{trigger.service!r} (not in "
                f"{'/'.join(a.name for a in env.apps)}'s services)")
        if len(owners) > 1:
            raise ValueError(
                f"service {trigger.service!r} exists in several hosted "
                f"apps ({', '.join(a.namespace for a in owners)}); give "
                f"the trigger an explicit namespace")
        return owners[0].namespace

    # -- firing --------------------------------------------------------
    def _app_for_entry(self, entry: TimelineEntry) -> "App":
        ns = entry.namespace or self.env.namespace
        return self.env.app_for(ns)

    def _injector_for(self, spec: FaultSpec,
                      entry: TimelineEntry) -> FaultInjector:
        cls = INJECTOR_CLASSES[spec.injector]
        app = self._app_for_entry(entry)
        key = (app.namespace, spec.injector)
        if key not in self._injectors:
            self._injectors[key] = cls(app)
        return self._injectors[key]

    @staticmethod
    def _is_live(injector: FaultInjector, spec: FaultSpec,
                 targets: Sequence[str]) -> bool:
        return any(r.active and r.fault_name == spec.fault_key
                   and r.targets == list(targets) for r in injector.live)

    def _fire(self, entry: TimelineEntry) -> None:
        desc = entry.describe()
        if entry.kind == "set_rate":
            ns = entry.namespace or self.env.namespace
            self.env.driver_for(ns).policy = entry.policy
        else:
            spec = get_fault_spec(entry.fault)
            injector = self._injector_for(spec, entry)
            if entry.kind == "inject":
                if entry.repeat != 1 \
                        and self._is_live(injector, spec, entry.targets):
                    # a repeating entry's previous injection may still be
                    # live (nothing recovered it between crossings); the
                    # trigger firing is still logged, the injection is a
                    # no-op rather than a double-apply error
                    desc += " (still live)"
                else:
                    injector._inject(list(entry.targets), spec.fault_key)
            else:
                injector._recover(list(entry.targets), spec.fault_key)
        now = self.env.clock.now
        self.log.append((now, desc))
        if entry.tag:
            self._release_dependents(entry.tag, now)

    def _fire_watched(self, entry: TimelineEntry, watch: MetricWatch) -> None:
        """Fire a metric-triggered entry and, for repeating entries,
        re-arm the watch while the repeat budget allows and the schedule
        has not been torn down.  ``rearm`` re-registers with the
        collector, and ``require_clear`` makes the next firing wait for a
        fresh threshold crossing."""
        self._fire(entry)
        if self._torn_down or entry.repeat == 1:
            return
        if entry.repeat == 0 or watch.fire_count < entry.repeat:
            watch.rearm()

    def _release_dependents(self, tag: str, now: float) -> None:
        """Schedule every entry chained off ``tag`` at ``now + delay``.

        Dependents are popped, so a repeating tagged entry releases its
        chain on the first firing only."""
        for dep in self._dependents.pop(tag, ()):
            delay = dep.trigger.delay  # type: ignore[union-attr]
            self.events.append(self.env.queue.schedule_at(
                now + delay,
                _EntryAction(self, dep),
                label=f"fault.{dep.kind}",
            ))

    # -- teardown ------------------------------------------------------
    @property
    def pending(self) -> int:
        """Timeline entries that have not fired yet: unfired events,
        pending watches (a re-armed repeating watch counts as pending
        again), and chained entries still waiting on their tag."""
        events = sum(1 for ev in self.events
                     if not ev.fired and not ev.cancelled)
        watches = sum(1 for w in self.watches if w.pending)
        chained = sum(len(deps) for deps in self._dependents.values())
        return events + watches + chained

    def cancel_pending(self) -> None:
        """Cancel every entry that has not fired yet and stop repeating
        watches from re-arming (safe to call mid-loop)."""
        self._torn_down = True
        for ev in self.events:
            ev.cancel()
        for watch in self.watches:
            watch.cancel()
            self.env.collector.remove_watch(watch)
        self._dependents.clear()

    def recover_all(self) -> None:
        """Undo every live injection made by this schedule, in every
        namespace it touched."""
        for injector in self._injectors.values():
            injector.recover_all()
