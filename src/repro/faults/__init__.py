"""Task-oriented fault library (§2.4).

Two families, mirroring Figure 3:

* **Symptomatic** faults (ChaosMesh-style): network loss, pod failure —
  observable symptoms without a deeper root cause; they instantiate
  detection/localization problems only.
* **Functional** faults: misconfigurations and operation errors with a
  fine-grained root cause — missing/revoked authentication, target-port
  misconfig, buggy images, bad scaling, impossible node assignment.  These
  instantiate problems at all four task levels, including mitigation.

Every fault provides both ``inject`` and ``recover`` (§2.4.3: "AIOpsLab
provides the injection function ... and offers the corresponding mitigation
mechanism").
"""

from repro.faults.base import FaultInjector, InjectedFault
from repro.faults.chaosmesh import ChaosMesh, NetworkChaos, PodChaos
from repro.faults.symptomatic import SymptomaticFaultInjector
from repro.faults.functional import (
    ApplicationFaultInjector,
    VirtFaultInjector,
)
from repro.faults.library import FaultSpec, FAULT_LIBRARY, get_fault_spec
from repro.faults.schedule import (
    INJECTOR_CLASSES,
    ArmedSchedule,
    FaultSchedule,
    TimelineEntry,
)
from repro.faults.triggers import (
    AfterEvent,
    AtTime,
    MetricAbove,
    MetricBelow,
    MetricTrigger,
    Trigger,
    as_trigger,
)

__all__ = [
    "INJECTOR_CLASSES",
    "ArmedSchedule",
    "FaultSchedule",
    "TimelineEntry",
    "Trigger",
    "AtTime",
    "MetricTrigger",
    "MetricAbove",
    "MetricBelow",
    "AfterEvent",
    "as_trigger",
    "FaultInjector",
    "InjectedFault",
    "ChaosMesh",
    "NetworkChaos",
    "PodChaos",
    "SymptomaticFaultInjector",
    "ApplicationFaultInjector",
    "VirtFaultInjector",
    "FaultSpec",
    "FAULT_LIBRARY",
    "get_fault_spec",
]
