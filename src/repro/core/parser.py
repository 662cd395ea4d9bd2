"""Parsing agent action strings into ACI calls.

Agents produce Python-call-like strings (``get_logs("ns", "geo")``).  The
parser is deliberately strict — malformed calls return an error observation
the agent must recover from, reproducing the invalid-API-usage failure mode
§3.6.3 analyzes.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Any, Sequence

_CALL_RE = re.compile(r"^\s*(\w+)\s*\((.*)\)\s*$", re.DOTALL)


@dataclass
class ParsedAction:
    """A successfully parsed action."""

    name: str
    args: tuple
    kwargs: dict[str, Any]


class ActionParseError(ValueError):
    """Raised when the agent's output is not a valid ACI call."""


def parse_action(text: str, valid_actions: Sequence[str]) -> ParsedAction:
    """Parse one action string; raises :class:`ActionParseError` with an
    agent-readable message on failure.

    ``valid_actions`` is the session's action surface (an
    :class:`~repro.core.actions.ActionRegistry`'s names).
    """
    if not text or not text.strip():
        raise ActionParseError(
            "Error: empty action. Respond with exactly one API call, e.g. "
            'get_logs("<namespace>", "<service>").')
    candidate = _extract_call_line(text, valid_actions)
    m = _CALL_RE.match(candidate)
    if m is None:
        raise ActionParseError(
            f"Error: could not parse action {candidate[:120]!r}. Respond with "
            f"exactly one API call such as exec_shell(\"kubectl get pods -n ns\").")
    name, arg_str = m.group(1), m.group(2).strip()
    if name not in valid_actions:
        raise ActionParseError(
            f'Error: unknown API "{name}". Valid APIs: {", ".join(valid_actions)}.')
    args: tuple
    kwargs: dict[str, Any]
    if not arg_str:
        args, kwargs = (), {}
    else:
        try:
            call = ast.parse(f"__f__({arg_str})", mode="eval").body
            if not isinstance(call, ast.Call):
                raise ValueError("not a call")
            args = tuple(ast.literal_eval(a) for a in call.args)
            kwargs = {
                kw.arg: ast.literal_eval(kw.value)
                for kw in call.keywords if kw.arg is not None
            }
        except (ValueError, SyntaxError, TypeError, RecursionError,
                MemoryError) as e:  # everything ast.literal_eval documents
            # strip object reprs (``<ast.Name object at 0x7f...>``) from the
            # message: memory addresses would make the observation text —
            # and thus recorded trajectories — differ between identical runs
            reason = re.sub(r"<(\S+) object at 0x[0-9a-f]+>", r"<\1>", str(e))
            raise ActionParseError(
                f"Error: malformed arguments for {name}: {reason}. Arguments "
                f"must be literals (strings, numbers, lists, dicts).") from None
    return ParsedAction(name=name, args=args, kwargs=kwargs)


def _extract_call_line(text: str, valid_actions: Sequence[str]) -> str:
    """Pull the API call out of surrounding prose (ReAct-style output)."""
    text = text.strip()
    # strip markdown fences
    text = re.sub(r"^```(?:python)?\s*|\s*```$", "", text, flags=re.MULTILINE).strip()
    if _CALL_RE.match(text):
        return text
    for line in text.splitlines():
        line = line.strip()
        for action in valid_actions:
            idx = line.find(action + "(")
            if idx >= 0:
                depth = 0
                for i in range(idx, len(line)):
                    if line[i] == "(":
                        depth += 1
                    elif line[i] == ")":
                        depth -= 1
                        if depth == 0:
                            return line[idx:i + 1]
                return line[idx:]
    return text
