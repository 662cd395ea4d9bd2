"""Typed action registry and structured observations (Orchestrator v2 ACI).

The seed framework hardcoded the agent action surface as "every public
method on :class:`~repro.core.aci.TaskActions`" and rendered API docs by
reflecting over that class.  This module replaces both mechanisms:

* :func:`action` — a decorator that registers a method as an agent action,
  optionally restricted to specific task types (e.g. mitigation-only
  actions).  Everything the Orchestrator needs (name, signature, docs,
  task surface) hangs off the registry, not off ``dir(obj)``.
* :class:`Observation` — the structured result of one action: agent-facing
  text, machine-readable payload, and the artifact paths the action saved.
  It deliberately speaks enough of the ``str`` protocol (``in``,
  ``startswith``, ``str()``) that call sites written against bare strings
  keep working.
* :class:`ActionRegistry` — the set of actions exposed to one session,
  with auto-rendered API docs.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

_ACTION_ATTR = "__aci_action__"


#: error prefixes emitted across the stack: the ACI ("Error:"), the kubectl
#: facade ("error:", "Error from server"), the shell policy ("PolicyError:"),
#: and the shell itself ("sh: command not found").  Best-effort — actions
#: that know they failed should return Observation.error(...) explicitly.
_ERROR_PREFIXES = ("error:", "error from", "policyerror", "sh:")

#: annotation (as written, or the type's name) -> what an agent may pass
#: for it; a finite float is a usable ``int`` count of minutes or lines
_ARG_TYPES = {"str": (str,), "int": (int, float)}
#: parameters that may be None: the telemetry actions read a missing
#: namespace as "the session's own"
_NONE_OK = frozenset({"namespace"})


class Observation(str):
    """What one agent action produced (§2.2.1's "high-quality feedback").

    A ``str`` subclass: the string value is the compact, agent-readable
    rendering fed back into the loop, so every call site written against
    the seed's bare strings (slicing, ``==``, ``in``, ``splitlines``, …)
    keeps working unchanged.  The structure rides on top:

    artifacts:
        Filesystem paths the action exported (logs/metrics/traces dumps).
    payload:
        Machine-readable result for programmatic consumers (benchmark
        analytics, judges) — never shown to the agent.
    ok:
        False when the action failed and the text is an error message.
    """

    artifacts: tuple[str, ...]
    payload: dict[str, Any]
    ok: bool

    def __new__(cls, text: str = "",
                artifacts: tuple[str, ...] = (),
                payload: Optional[dict[str, Any]] = None,
                ok: bool = True) -> "Observation":
        obs = super().__new__(cls, text)
        obs.artifacts = tuple(artifacts)
        obs.payload = dict(payload) if payload else {}
        obs.ok = ok
        return obs

    @property
    def text(self) -> str:
        """The agent-facing rendering (== the string value itself)."""
        return str(self)

    @classmethod
    def error(cls, text: str, **payload: Any) -> "Observation":
        """An error observation (text must already be agent-readable)."""
        return cls(text, ok=False, payload=payload)

    @classmethod
    def of(cls, value: Any) -> "Observation":
        """Coerce an arbitrary action return value into an Observation."""
        if isinstance(value, Observation):
            return value
        text = str(value)
        return cls(text,
                   ok=not text.lstrip().lower().startswith(_ERROR_PREFIXES))


@dataclass(frozen=True)
class ActionSpec:
    """Registry metadata for one agent action."""

    name: str
    func: Callable[..., Any]
    #: task types the action is exposed to; None means every task
    task_types: Optional[frozenset[str]] = None

    def available_for(self, task_type: str) -> bool:
        return self.task_types is None or not task_type \
            or task_type in self.task_types

    def signature(self) -> str:
        sig = inspect.signature(self.func)
        params = [p for p in sig.parameters.values() if p.name != "self"]
        return ", ".join(str(p) for p in params)

    def doc(self) -> str:
        return inspect.getdoc(self.func) or ""

    def render(self) -> str:
        return f"{self.name}({self.signature()})\n{self.doc()}"


def action(func: Optional[Callable] = None, *,
           name: Optional[str] = None,
           task_types: Optional[Iterable[str]] = None) -> Callable:
    """Mark a method as an agent action.

    Usage::

        class MyActions:
            @action
            def get_logs(self, namespace: str) -> Observation: ...

            @action(task_types=("mitigation",))
            def restart_service(self, service: str) -> Observation: ...

    The decorated function stays a plain method — the decorator only
    attaches registry metadata, so direct calls keep working.
    """

    def mark(fn: Callable) -> Callable:
        spec = ActionSpec(
            name=name or fn.__name__,
            func=fn,
            task_types=frozenset(task_types) if task_types is not None else None,
        )
        setattr(fn, _ACTION_ATTR, spec)
        return fn

    if func is not None:  # bare @action
        return mark(func)
    return mark


class ActionRegistry:
    """The action surface one session exposes to its agent.

    Built from any class whose methods carry :func:`action` marks;
    optionally narrowed to one task type so e.g. mitigation-only actions
    never appear in a detection session's docs or parse set.
    """

    def __init__(self, specs: Iterable[ActionSpec],
                 task_type: str = "") -> None:
        self.task_type = task_type
        self._specs: dict[str, ActionSpec] = {
            s.name: s for s in sorted(specs, key=lambda s: s.name)
            if s.available_for(task_type)
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _inherited_spec(actions_cls: type, name: str) -> Optional[ActionSpec]:
        """Find the @action mark for ``name`` anywhere in the MRO, so an
        undecorated override of a registered action stays registered."""
        for base in actions_cls.__mro__:
            fn = base.__dict__.get(name)
            spec = getattr(fn, _ACTION_ATTR, None) if fn is not None else None
            if spec is not None:
                return spec
        return None

    @classmethod
    def from_class(cls, actions_cls: type,
                   task_type: str = "") -> "ActionRegistry":
        """Collect the action surface of ``actions_cls``.

        Every public method is an action — the seed's reflection
        semantics, so v1-style classes (and undecorated methods added to
        subclasses) keep working.  An :func:`action` mark adds metadata:
        an explicit name or a task-type restriction.  Marks are looked up
        through the MRO, so subclasses may override an action without
        re-decorating it (the override inherits the parent's
        registration).  Helpers that must not become actions stay private
        (underscore-prefixed).
        """
        specs = []
        for name, member in inspect.getmembers(actions_cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            spec = cls._inherited_spec(actions_cls, name)
            if spec is None:
                spec = ActionSpec(name=name, func=member)
            elif spec.func is not member:  # bind the overriding function
                spec = ActionSpec(name=spec.name, func=member,
                                  task_types=spec.task_types)
            specs.append(spec)
        return cls(specs, task_type=task_type)

    def for_task(self, task_type: str) -> "ActionRegistry":
        """A narrowed registry exposing only that task's actions."""
        return ActionRegistry(self._specs.values(), task_type=task_type)

    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        return tuple(self._specs)

    def get(self, name: str) -> ActionSpec:
        return self._specs[name]

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self):
        return iter(self._specs.values())

    # ------------------------------------------------------------------
    def render_docs(self) -> str:
        """Auto-render the API documentation block shared with the agent.

        Mirrors the paper's behaviour ("the Orchestrator automatically
        extracts documentation from these APIs to provide as context C"),
        now driven by the registry instead of class reflection.
        """
        return "\n\n".join(spec.render() for spec in self._specs.values())

    def execute(self, instance: Any, name: str, /,
                *args: Any, **kwargs: Any) -> Observation:
        """Invoke a registered action on ``instance`` and coerce the result."""
        spec = self._specs[name]
        return Observation.of(spec.func(instance, *args, **kwargs))

    def bind_errors(self, name: str, args: tuple, kwargs: dict) -> Optional[str]:
        """Check ``args``/``kwargs`` against the action's signature and its
        ``str``/``int`` annotations.

        Returns an agent-readable error string when the call cannot bind or
        an argument has the wrong type, None when the arguments fit.  Lets
        the Orchestrator distinguish "you called the API wrong" from "the
        API itself raised TypeError".
        """
        spec = self._specs[name]
        try:
            bound = inspect.signature(spec.func).bind(None, *args, **kwargs)
        except TypeError as e:
            return f"Error: invalid arguments for {name}: {e}"
        for pname, value in bound.arguments.items():
            param = bound.signature.parameters[pname]
            if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                continue
            annotation = getattr(param.annotation, "__name__", param.annotation)
            expected = _ARG_TYPES.get(annotation)
            finite = not isinstance(value, float) or math.isfinite(value)
            if expected is None or (isinstance(value, expected) and finite) \
                    or (value is None and pname in _NONE_OK):
                continue
            return (f"Error: invalid arguments for {name}: {pname} must be "
                    f"{annotation}, got {value!r} ({type(value).__name__})")
        return None
