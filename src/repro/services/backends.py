"""Simulated storage backends: MongoDB, Redis, Memcached.

Only the control-plane behaviour that faults exercise is modelled — user
accounts, roles, authentication and authorization for Mongo; liveness for
the caches.  Data-plane reads/writes are abstract successful operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class MongoUser:
    """A MongoDB user account with its granted roles."""

    username: str
    password: str
    roles: set[str] = field(default_factory=lambda: {"readWrite"})


class MongoBackend:
    """A simulated MongoDB instance backing one ``mongodb-*`` microservice.

    Faults manipulate this state directly:

    * **RevokeAuth** removes the ``readWrite``/``dbAdmin`` roles →
      subsequent commands fail with *(Unauthorized) not authorized on <db>*.
    * **UserUnregistered** drops the user entirely → *(UserNotFound)*.
    * **AuthenticationMissing** is a client-side fault (the caller has no
      credentials configured), surfaced by :meth:`authenticate` receiving
      ``None``.
    """

    #: Roles that allow running read/write commands against the database.
    WRITE_ROLES = frozenset({"readWrite", "dbAdmin", "root"})

    def __init__(self, db_name: str, require_auth: bool = True) -> None:
        self.db_name = db_name
        self.require_auth = require_auth
        self.users: dict[str, MongoUser] = {}
        #: control-plane mutation counter (user/role changes, liveness
        #: toggles); derived caches (path profiles) fingerprint on it
        self.version = 0
        self._up = True

    @property
    def up(self) -> bool:
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        self._up = bool(value)
        self.version += 1

    # -- administration -------------------------------------------------
    def create_user(self, username: str, password: str,
                    roles: Optional[set[str]] = None) -> MongoUser:
        user = MongoUser(username, password, set(roles or {"readWrite"}))
        self.users[username] = user
        self.version += 1
        return user

    def drop_user(self, username: str) -> bool:
        """Remove a user; returns True if it existed."""
        self.version += 1
        return self.users.pop(username, None) is not None

    def revoke_roles(self, username: str, roles: Optional[set[str]] = None) -> bool:
        """Revoke roles (all write roles by default); True if user existed."""
        self.version += 1
        user = self.users.get(username)
        if user is None:
            return False
        user.roles -= set(roles) if roles else set(self.WRITE_ROLES)
        return True

    def grant_roles(self, username: str, roles: set[str]) -> bool:
        self.version += 1
        user = self.users.get(username)
        if user is None:
            return False
        user.roles |= set(roles)
        return True

    # -- access checks (what the data path exercises) --------------------
    def authenticate(self, username: Optional[str], password: Optional[str]) -> str:
        """Returns '' on success or a failure reason.

        Reasons: ``no_credentials``, ``user_not_found``, ``bad_password``.
        """
        if not self.require_auth:
            return ""
        if not username or password is None:
            return "no_credentials"
        user = self.users.get(username)
        if user is None:
            return "user_not_found"
        if user.password != password:
            return "bad_password"
        return ""

    def authorize(self, username: Optional[str], command: str = "find") -> str:
        """Returns '' if the user may run ``command``, else ``not_authorized``."""
        if not self.require_auth:
            return ""
        user = self.users.get(username or "")
        if user is None:
            return "user_not_found"
        if not (user.roles & self.WRITE_ROLES):
            return "not_authorized"
        return ""


class CacheBackend:
    """A simulated cache instance: a liveness flag, nothing else (the data
    plane is abstract, and no fault reaches into a cache's keys)."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: liveness-toggle counter (the only control-plane state here)
        self.version = 0
        self._up = True

    @property
    def up(self) -> bool:
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        self._up = bool(value)
        self.version += 1


class RedisBackend(CacheBackend):
    """The cache behind a ``redis`` microservice."""


class MemcachedBackend(CacheBackend):
    """The cache behind a ``memcached`` microservice."""
