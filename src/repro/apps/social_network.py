"""SocialNetwork — DeathStarBench's 28-microservice social network."""

from __future__ import annotations

from typing import Any

from repro.apps.base import App
from repro.services.model import CallEdge, Microservice, Operation


class SocialNetwork(App):
    """The social network application under test (28 microservices)."""

    name = "social-network"
    short_name = "social_net"
    namespace = "test-social-network"
    frontend = "nginx-web-server"

    #: (service, port, kind, base latency ms) — matches the upstream
    #: kubernetes manifests' service inventory (28 entries).
    _SPECS: list[tuple[str, int, str, float]] = [
        ("nginx-web-server", 8080, "frontend", 1.0),
        ("compose-post-service", 9090, "stateless", 2.0),
        ("home-timeline-service", 9091, "stateless", 2.0),
        ("user-timeline-service", 9092, "stateless", 2.0),
        ("post-storage-service", 9093, "stateless", 2.5),
        ("social-graph-service", 9094, "stateless", 2.0),
        ("text-service", 9095, "stateless", 1.5),
        ("media-service", 9096, "stateless", 1.5),
        ("unique-id-service", 9097, "stateless", 0.5),
        ("url-shorten-service", 9098, "stateless", 1.5),
        ("user-mention-service", 9099, "stateless", 1.5),
        ("user-service", 9100, "stateless", 1.5),
        ("write-home-timeline-service", 9101, "stateless", 2.0),
        ("media-frontend", 8081, "stateless", 1.0),
        ("jaeger", 16686, "stateless", 0.5),
        ("home-timeline-redis", 6379, "redis", 0.5),
        ("user-timeline-redis", 6379, "redis", 0.5),
        ("social-graph-redis", 6379, "redis", 0.5),
        ("user-memcached", 11211, "memcached", 0.4),
        ("post-storage-memcached", 11211, "memcached", 0.4),
        ("media-memcached", 11211, "memcached", 0.4),
        ("url-shorten-memcached", 11211, "memcached", 0.4),
        ("user-mongodb", 27017, "mongodb", 3.0),
        ("post-storage-mongodb", 27017, "mongodb", 3.0),
        ("media-mongodb", 27017, "mongodb", 3.0),
        ("url-shorten-mongodb", 27017, "mongodb", 3.0),
        ("social-graph-mongodb", 27017, "mongodb", 3.0),
        ("user-timeline-mongodb", 27017, "mongodb", 3.0),
    ]

    def service_specs(self) -> list[Microservice]:
        return [
            Microservice(name=n, port=p, kind=k, base_latency_ms=lat,
                         image=f"deathstarbench/social-{n}:latest")
            for n, p, k, lat in self._SPECS
        ]

    def default_values(self) -> dict[str, Any]:
        creds = {
            mongo: {"username": "admin", "password": f"{mongo}-pass"}
            for mongo in ("user-mongodb", "post-storage-mongodb", "media-mongodb",
                          "url-shorten-mongodb", "social-graph-mongodb",
                          "user-timeline-mongodb")
        }
        return {"mongo_credentials": creds, "tls": {"enabled": False}}

    def build_operations(self) -> dict[str, Operation]:
        post_storage_read = CallEdge("post-storage-service", "read_posts", children=[
            CallEdge("post-storage-memcached", "get"),
            CallEdge("post-storage-mongodb", "find"),
        ])
        compose = Operation(
            name="compose_post", entry="nginx-web-server", weight=0.1,
            tree=[
                CallEdge("compose-post-service", "compose", children=[
                    CallEdge("unique-id-service", "gen_id"),
                    CallEdge("text-service", "process_text", children=[
                        CallEdge("url-shorten-service", "shorten", children=[
                            CallEdge("url-shorten-memcached", "get"),
                            CallEdge("url-shorten-mongodb", "insert"),
                        ]),
                        CallEdge("user-mention-service", "mention", children=[
                            CallEdge("user-memcached", "get"),
                            CallEdge("user-mongodb", "find"),
                        ]),
                    ]),
                    CallEdge("media-service", "store_media", children=[
                        CallEdge("media-memcached", "get"),
                        CallEdge("media-mongodb", "insert"),
                    ]),
                    CallEdge("user-service", "check_user", children=[
                        CallEdge("user-memcached", "get"),
                        CallEdge("user-mongodb", "find"),
                    ]),
                    CallEdge("post-storage-service", "store_post", children=[
                        CallEdge("post-storage-memcached", "set"),
                        CallEdge("post-storage-mongodb", "insert"),
                    ]),
                    CallEdge("user-timeline-service", "write_timeline", children=[
                        CallEdge("user-timeline-redis", "set"),
                        CallEdge("user-timeline-mongodb", "insert"),
                    ]),
                    CallEdge("write-home-timeline-service", "fanout", children=[
                        CallEdge("home-timeline-redis", "set"),
                        CallEdge("social-graph-service", "get_followers", children=[
                            CallEdge("social-graph-redis", "get"),
                            CallEdge("social-graph-mongodb", "find"),
                        ]),
                    ]),
                ]),
            ],
        )
        read_home = Operation(
            name="read_home_timeline", entry="nginx-web-server", weight=0.6,
            tree=[
                CallEdge("home-timeline-service", "read", children=[
                    CallEdge("home-timeline-redis", "get"),
                    post_storage_read,
                ]),
            ],
        )
        read_user = Operation(
            name="read_user_timeline", entry="nginx-web-server", weight=0.3,
            tree=[
                CallEdge("user-timeline-service", "read", children=[
                    CallEdge("user-timeline-redis", "get"),
                    CallEdge("user-timeline-mongodb", "find"),
                    post_storage_read,
                ]),
            ],
        )
        return {op.name: op for op in (compose, read_home, read_user)}
