"""The fault registry — Table 2 of the paper, as data.

Each :class:`FaultSpec` records which application the fault applies to,
which task levels it can instantiate, its category, its extensibility
rating, and the injector entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FaultSpec:
    """One row of Table 2."""

    number: int
    name: str
    fault_key: str               # injector method suffix ("" for noop)
    injector: str                # "virt" | "app" | "symptomatic" | "none"
    application: str             # "HotelReservation" | "SocialNetwork" | "both"
    task_levels: tuple[int, ...] # 1=detect, 2=localize, 3=rca, 4=mitigate
    category: str                # "Functional Virtualization" | ...
    extensibility: str           # "full" | "partial" | "none"
    description: str
    #: default injection targets per application
    targets: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: RCA ground truth: (system level, fault type)
    rca_system_level: str = ""
    rca_fault_type: str = ""


FAULT_LIBRARY: tuple[FaultSpec, ...] = (
    FaultSpec(
        number=1, name="AuthenticationMissing", fault_key="auth_missing",
        injector="virt", application="HotelReservation", task_levels=(1, 2, 3, 4),
        category="Functional Virtualization", extensibility="partial",
        description="Missing authentication credentials cause access denial "
                    "to MongoDB.",
        targets={"HotelReservation": ("mongodb-rate",)},
        rca_system_level="virtualization", rca_fault_type="misconfiguration",
    ),
    FaultSpec(
        number=2, name="TargetPortMisconfig", fault_key="misconfig_k8s",
        injector="virt", application="SocialNetwork", task_levels=(1, 2, 3, 4),
        category="Functional Virtualization", extensibility="full",
        description="The service cannot connect to the specified port due to "
                    "misconfiguration.",
        targets={"SocialNetwork": ("user-service", "text-service",
                                   "post-storage-service")},
        rca_system_level="virtualization", rca_fault_type="misconfiguration",
    ),
    FaultSpec(
        number=3, name="RevokeAuth", fault_key="revoke_auth",
        injector="app", application="HotelReservation", task_levels=(1, 2, 3, 4),
        category="Functional Application", extensibility="partial",
        description="Revoked authentication causes database connection failure.",
        targets={"HotelReservation": ("mongodb-geo", "mongodb-profile")},
        rca_system_level="application", rca_fault_type="operation_error",
    ),
    FaultSpec(
        number=4, name="UserUnregistered", fault_key="user_unregistered",
        injector="app", application="HotelReservation", task_levels=(1, 2, 3, 4),
        category="Functional Application", extensibility="partial",
        description="The database service has access failures after the user "
                    "was unregistered.",
        targets={"HotelReservation": ("mongodb-user", "mongodb-reservation")},
        rca_system_level="application", rca_fault_type="operation_error",
    ),
    FaultSpec(
        number=5, name="BuggyAppImage", fault_key="buggy_app_image",
        injector="app", application="HotelReservation", task_levels=(1, 2, 3, 4),
        category="Functional Application", extensibility="none",
        description="Connection code bug in the application image causes "
                    "access issues.",
        targets={"HotelReservation": ("geo",)},
        rca_system_level="application", rca_fault_type="code_bug",
    ),
    FaultSpec(
        number=6, name="ScalePod", fault_key="scale_pod_zero",
        injector="virt", application="SocialNetwork", task_levels=(1, 2, 3, 4),
        category="Functional Virtualization", extensibility="full",
        description="Incorrect scaling operation makes the number of pods "
                    "zero for a service.",
        targets={"SocialNetwork": ("compose-post-service",)},
        rca_system_level="virtualization", rca_fault_type="operation_error",
    ),
    FaultSpec(
        number=7, name="AssignNonExistentNode",
        fault_key="assign_to_non_existent_node",
        injector="virt", application="SocialNetwork", task_levels=(1, 2, 3, 4),
        category="Functional Virtualization", extensibility="full",
        description="Pod in a pending/failure status due to wrong assignment "
                    "to a non-existent node.",
        targets={"SocialNetwork": ("user-timeline-service",)},
        rca_system_level="virtualization", rca_fault_type="misconfiguration",
    ),
    FaultSpec(
        number=8, name="NetworkLoss", fault_key="network_loss",
        injector="symptomatic", application="HotelReservation",
        task_levels=(1, 2),
        category="Symptomatic", extensibility="full",
        description="Network loss causes communication failures for a "
                    "specific service.",
        targets={"HotelReservation": ("search",)},
        rca_system_level="network", rca_fault_type="network_loss",
    ),
    FaultSpec(
        number=9, name="PodFailure", fault_key="pod_failure",
        injector="symptomatic", application="HotelReservation",
        task_levels=(1, 2),
        category="Symptomatic", extensibility="full",
        description="Service interruption due to a pod failure.",
        targets={"HotelReservation": ("recommendation",)},
        rca_system_level="virtualization", rca_fault_type="pod_failure",
    ),
    FaultSpec(
        number=10, name="Noop", fault_key="", injector="none",
        application="both", task_levels=(1,),
        category="-", extensibility="full",
        description="No faults injected into the system.",
        targets={"HotelReservation": (), "SocialNetwork": ()},
    ),
)


def get_fault_spec(name_or_number: str | int) -> FaultSpec:
    """Look a fault up by its Table-2 number, its name or its non-empty
    injector ``fault_key``."""
    for spec in FAULT_LIBRARY:
        if spec.number == name_or_number or spec.name == name_or_number \
                or (spec.fault_key and spec.fault_key == name_or_number):
            return spec
    raise KeyError(f"no fault {name_or_number!r} in the library")
