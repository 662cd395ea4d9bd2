"""Microservice runtime: call-graph request execution over the kubesim cluster.

An application is a set of microservices plus a call graph per operation
(e.g. ``compose_post`` fans out from the nginx frontend through a dozen
services).  What a request meets on each hop is resolved against the
current state into a :class:`Plan` (``plan.py``):

1. chaos rules (network loss) and node pressure may drop the hop;
2. the caller resolves the callee's Kubernetes service — empty endpoints
   mean **connection refused**;
3. the callee's application handler runs — database proxies check
   authentication/authorization against their simulated backend stores,
   buggy images fail with code-level errors;
4. failures propagate upward, writing error logs at the observing service
   and error spans on the trace — the same observable chain a real
   incident produces.

:meth:`ServiceRuntime.execute` walks the plan one request at a time;
:func:`compile_profile` enumerates it for :meth:`~ServiceRuntime.execute_many`.
"""

from repro.services.errors import (
    RpcError,
    RpcErrorKind,
)
from repro.services.backends import MongoBackend, RedisBackend, MemcachedBackend
from repro.services.model import Microservice, CallEdge, Operation
from repro.services.plan import Hop, Plan, resolve
from repro.services.profile import Outcome, PathProfile, compile_profile
from repro.services.runtime import BatchResult, ServiceRuntime

__all__ = [
    "RpcError",
    "RpcErrorKind",
    "MongoBackend",
    "RedisBackend",
    "MemcachedBackend",
    "Microservice",
    "CallEdge",
    "Operation",
    "ServiceRuntime",
    "BatchResult",
    "Hop",
    "Plan",
    "resolve",
    "Outcome",
    "PathProfile",
    "compile_profile",
]
