"""RPC error taxonomy for the microservice runtime.

Error messages mirror the strings real systems emit (gRPC, the MongoDB Go
driver, Kubernetes), because agents diagnose by reading exactly these
strings out of logs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RpcErrorKind(str, enum.Enum):
    """Classes of RPC failure, each with a distinctive log signature."""

    CONNECTION_REFUSED = "connection_refused"
    TIMEOUT = "timeout"
    NETWORK_DROP = "network_drop"
    AUTH_FAILED = "auth_failed"
    NOT_AUTHORIZED = "not_authorized"
    USER_NOT_FOUND = "user_not_found"
    APP_BUG = "app_bug"
    UNAVAILABLE = "unavailable"
    INTERNAL = "internal"
    RESOURCE_EXHAUSTED = "resource_exhausted"


@dataclass(frozen=True)
class RpcError:
    """A failure observed on one RPC hop (immutable: resolved plans hold
    and hash them).

    Attributes
    ----------
    kind:
        Machine-readable class of the failure.
    service:
        The callee whose invocation failed.
    message:
        Human-readable message, written to the caller's logs.
    """

    kind: RpcErrorKind
    service: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"[{self.kind.value}] {self.service}: {self.message}"


def connection_refused(service: str, port: int) -> RpcError:
    return RpcError(
        RpcErrorKind.CONNECTION_REFUSED,
        service,
        f'dial tcp: connect: connection refused (service "{service}" port {port} '
        f"has no ready endpoints)",
    )


def network_drop(service: str) -> RpcError:
    return RpcError(
        RpcErrorKind.NETWORK_DROP,
        service,
        f'rpc error: code = Unavailable desc = transport: connection to "{service}" '
        f"lost: packet dropped",
    )


def timeout(service: str, deadline_ms: float) -> RpcError:
    return RpcError(
        RpcErrorKind.TIMEOUT,
        service,
        f"rpc error: code = DeadlineExceeded desc = context deadline exceeded "
        f"after {deadline_ms:.0f}ms calling {service}",
    )


def auth_failed(service: str, db: str) -> RpcError:
    return RpcError(
        RpcErrorKind.AUTH_FAILED,
        service,
        f"connection() error occurred during connection handshake: auth error: "
        f'sasl conversation error: unable to authenticate using mechanism '
        f'"SCRAM-SHA-1": (AuthenticationFailed) Authentication failed on db "{db}"',
    )


def not_authorized(service: str, db: str, command: str) -> RpcError:
    return RpcError(
        RpcErrorKind.NOT_AUTHORIZED,
        service,
        f"(Unauthorized) not authorized on {db} to execute command "
        f'{{ {command}: "{db}" }}',
    )


def user_not_found(service: str, db: str, user: str) -> RpcError:
    return RpcError(
        RpcErrorKind.USER_NOT_FOUND,
        service,
        f'(UserNotFound) Could not find user "{user}" for db "{db}"',
    )


def app_bug(service: str, image: str) -> RpcError:
    return RpcError(
        RpcErrorKind.APP_BUG,
        service,
        f"panic: failed to initialize connection pool: invalid connection URI "
        f"(image {image}): malformed host string",
    )


def resource_exhausted(service: str) -> RpcError:
    return RpcError(
        RpcErrorKind.RESOURCE_EXHAUSTED,
        service,
        f'rpc error: code = ResourceExhausted desc = "{service}" overloaded: '
        f"node CPU pressure, request shed by server",
    )


def unavailable(service: str, reason: str) -> RpcError:
    return RpcError(
        RpcErrorKind.UNAVAILABLE,
        service,
        f"rpc error: code = Unavailable desc = {reason}",
    )
