"""HotelReservation — DeathStarBench's Go/gRPC hotel application.

Topology (19 services): a frontend fans out to search / recommendation /
reservation / user / profile services, each backed by MongoDB and fronted
by Memcached caches, mirroring the upstream helm chart.
"""

from __future__ import annotations

from typing import Any

from repro.apps.base import App
from repro.services.model import CallEdge, Microservice, Operation


class HotelReservation(App):
    """The hotel reservation application under test."""

    name = "hotel-reservation"
    short_name = "hotel_res"
    namespace = "test-hotel-reservation"
    frontend = "frontend"

    #: (service, port, kind, base latency ms)
    _SPECS: list[tuple[str, int, str, float]] = [
        ("frontend", 5000, "frontend", 1.5),
        ("search", 8082, "stateless", 2.0),
        ("geo", 8083, "stateless", 2.5),
        ("rate", 8084, "stateless", 2.0),
        ("recommendation", 8085, "stateless", 2.0),
        ("user", 8086, "stateless", 1.5),
        ("reservation", 8087, "stateless", 2.5),
        ("profile", 8081, "stateless", 2.0),
        ("mongodb-geo", 27017, "mongodb", 3.0),
        ("mongodb-rate", 27017, "mongodb", 3.0),
        ("mongodb-recommendation", 27017, "mongodb", 3.0),
        ("mongodb-user", 27017, "mongodb", 3.0),
        ("mongodb-reservation", 27017, "mongodb", 3.0),
        ("mongodb-profile", 27017, "mongodb", 3.0),
        ("memcached-rate", 11211, "memcached", 0.5),
        ("memcached-profile", 11211, "memcached", 0.5),
        ("memcached-reserve", 11211, "memcached", 0.5),
        ("consul", 8500, "stateless", 0.5),
        ("jaeger", 16686, "stateless", 0.5),
    ]

    def service_specs(self) -> list[Microservice]:
        return [
            Microservice(name=n, port=p, kind=k, base_latency_ms=lat,
                         image=f"deathstarbench/hotel-{n}:latest")
            for n, p, k, lat in self._SPECS
        ]

    def default_values(self) -> dict[str, Any]:
        creds = {
            f"mongodb-{short}": {"username": "admin", "password": f"{short}-pass"}
            for short in ("geo", "rate", "recommendation", "user",
                          "reservation", "profile")
        }
        return {"mongo_credentials": creds, "tls": {"enabled": False}}

    def build_operations(self) -> dict[str, Operation]:
        search = Operation(
            name="search_hotel", entry="frontend", weight=0.6,
            tree=[
                CallEdge("search", "nearby", children=[
                    CallEdge("geo", "nearby", children=[
                        CallEdge("mongodb-geo", "find"),
                    ]),
                    CallEdge("rate", "get_rates", children=[
                        CallEdge("memcached-rate", "get"),
                        CallEdge("mongodb-rate", "find"),
                    ]),
                ]),
                CallEdge("profile", "get_profiles", children=[
                    CallEdge("memcached-profile", "get"),
                    CallEdge("mongodb-profile", "find"),
                ]),
            ],
        )
        recommend = Operation(
            name="recommend", entry="frontend", weight=0.3,
            tree=[
                CallEdge("recommendation", "get_recommendations", children=[
                    CallEdge("mongodb-recommendation", "find"),
                ]),
                CallEdge("profile", "get_profiles", children=[
                    CallEdge("memcached-profile", "get"),
                    CallEdge("mongodb-profile", "find"),
                ]),
            ],
        )
        reserve = Operation(
            name="reserve", entry="frontend", weight=0.05,
            tree=[
                CallEdge("user", "check_user", children=[
                    CallEdge("mongodb-user", "find"),
                ]),
                CallEdge("reservation", "make_reservation", children=[
                    CallEdge("memcached-reserve", "get"),
                    CallEdge("mongodb-reservation", "insert"),
                ]),
            ],
        )
        login = Operation(
            name="login", entry="frontend", weight=0.05,
            tree=[
                CallEdge("user", "check_user", children=[
                    CallEdge("mongodb-user", "find"),
                ]),
            ],
        )
        return {op.name: op for op in (search, recommend, reserve, login)}

    def workload_mix(self) -> dict[str, float]:
        return {"search_hotel": 0.6, "recommend": 0.3, "reserve": 0.05, "login": 0.05}
