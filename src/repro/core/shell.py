"""``exec_shell``: the security-filtered shell behind the ACI.

Routes ``kubectl`` to the Kubectl facade, ``helm`` to a small helm CLI and
the file tools to the telemetry export directory, and blocks anything
destructive or out of scope — the paper's "execute shell commands after
applying security policy filters".  helm and the file tools are tables read
through :mod:`repro.kubesim.grammar`, like kubectl's.
"""

from __future__ import annotations

import re
import shlex
from typing import TYPE_CHECKING

from repro.kubesim.grammar import (
    Flag, Verb, extract_flags, flag_spec, ignored,
    reject_shell_operators, resolve, usage)
from repro.simcore import InvalidAction, PolicyViolation

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.env import CloudEnvironment

#: commands the policy always refuses, with the regexes that catch them
DENY_PATTERNS = [
    (re.compile(r"\brm\s+-rf\s+/"), "recursive delete of filesystem root"),
    (re.compile(r"\b(shutdown|reboot|halt)\b"), "host power control"),
    (re.compile(r"\bmkfs\b"), "filesystem formatting"),
    (re.compile(r"\bdd\s+if="), "raw disk writes"),
    (re.compile(r":\(\)\s*\{.*\};\s*:"), "fork bomb"),
    (re.compile(r"\bcurl\b|\bwget\b"), "external network access"),
    (re.compile(r"\bkubectl\s+delete\s+(namespace|ns)\b"),
     "namespace deletion would destroy the environment"),
]

_HELM_NS = ignored("-n", "--namespace", value=True)
_HELM_LIST = Verb("list", "", flag_spec(
    _HELM_NS, ignored("-a", "--all", "-A", "--all-namespaces")), "_run_helm")
HELM_VERBS = {
    "list": _HELM_LIST, "ls": _HELM_LIST,
    "upgrade": Verb("upgrade", "RELEASE --set KEY=VALUE [--set ...]", flag_spec(
        _HELM_NS, Flag(("--set",), "sets", repeated=True),
        ignored("--reuse-values")), "_run_helm"),
    "get values": Verb("get values", "RELEASE", flag_spec(
        _HELM_NS, ignored("-a", "--all")), "_run_helm"),
}

_LINES = Flag(("-n", "--lines"), "lines", integer=True)
#: read-only tools over the exported telemetry -> the flags each accepts;
#: tail reads its count itself, as a leading "+" means "from line K on"
FILE_TOOLS = {
    "cat": flag_spec(),
    "ls": flag_spec(ignored("-l", "-a", "-la", "-al")),
    "grep": flag_spec(ignored("-i", "-r", "-n")),
    "head": flag_spec(_LINES),
    "tail": flag_spec(_LINES._replace(integer=False)),
}

#: binaries the policy allows as entry points
ALLOWED_BINARIES = {"kubectl", "helm", "echo", *FILE_TOOLS}


class ShellExecutor:
    """Executes shell command strings against the simulated environment."""

    def __init__(self, env: "CloudEnvironment") -> None:
        self.env = env

    def check_policy(self, command: str) -> None:
        """Raise :class:`PolicyViolation` if the command is disallowed."""
        self._admit(command)

    def _admit(self, command: str) -> list[str]:
        """The policy gate; returns the command's argv (tokenized once)."""
        for pattern, why in DENY_PATTERNS:
            if pattern.search(command):
                raise PolicyViolation(f"command blocked by security policy: {why}")
        try:
            argv = shlex.split(command)
        except ValueError as e:
            raise PolicyViolation(f"unparseable command: {e}") from None
        if not argv:
            raise PolicyViolation("empty command")
        if argv[0] not in ALLOWED_BINARIES:
            raise PolicyViolation(
                f'binary "{argv[0]}" is not in the allowed set '
                f"({', '.join(sorted(ALLOWED_BINARIES))})"
            )
        return argv

    def run(self, command: str) -> str:
        """Execute one command; policy violations and malformed commands
        come back as error text.  Only a closed environment raises."""
        try:
            argv = self._admit(command)
            reject_shell_operators(argv)
            binary = argv[0]
            if binary == "kubectl":
                return self.env.kubectl.run(argv)
            if binary == "helm":
                return self._run_helm(argv[1:])
            if binary == "echo":
                return " ".join(argv[1:])
            return self._run_file_tool(binary, argv[1:])
        except PolicyViolation as e:
            return f"PolicyError: {e}"
        except InvalidAction as e:
            return f"error: {e}"

    # -- helm CLI -----------------------------------------------------------
    def _run_helm(self, argv: list[str]) -> str:
        helm = self.env.helm
        if not argv:
            return f"helm: usage:\n{usage('helm', HELM_VERBS)}"
        verb, flags, args, _ = resolve("helm", argv, HELM_VERBS)
        if verb.name == "list":
            rows = [
                f"{r.name}\t{r.namespace}\t{r.revision}\t{r.chart.name}-{r.chart.version}"
                for r in helm.releases.values()
            ]
            return "NAME\tNAMESPACE\tREVISION\tCHART\n" + "\n".join(rows)
        if not args:
            raise InvalidAction(f"helm {verb.name} needs a release name")
        rel = helm.releases.get(args[0])
        if rel is None:
            return f'Error: release "{args[0]}" not found'
        if verb.name == "get values":
            return f"USER-SUPPLIED VALUES:\n{rel.values}"
        # a rejected --set raises here, before the revision moves
        helm.upgrade(rel.name, self._sets_to_values(flags.get("sets", [])))
        return (f'Release "{rel.name}" has been upgraded. Happy Helming!\n'
                f"REVISION: {rel.revision}")

    @staticmethod
    def _sets_to_values(sets: list[str]) -> dict:
        """``a.b.c=v`` strings → nested dict (helm --set semantics, dotted)."""
        values: dict = {}
        for assignment in sets:
            path, eq, raw = assignment.partition("=")
            if not eq:
                raise InvalidAction(f'--set "{assignment}": expected KEY=VALUE')
            *parents, leaf = path.split(".")
            node = values
            for key in parents:
                node = node.setdefault(key, {})
                if not isinstance(node, dict):
                    raise InvalidAction(
                        f'--set "{assignment}": "{key}" is already set to a '
                        f"value, it cannot also hold keys")
            node[leaf] = {"true": True, "false": False}.get(raw.lower(), raw)
        return values

    # -- read-only file tools over exported telemetry --------------------------
    def _run_file_tool(self, binary: str, argv: list[str]) -> str:
        """cat/ls/grep/head/tail restricted to the telemetry export root."""
        self.env.exporter.materialize()  # staged exports become files here
        root = self.env.exporter.root.resolve()
        flags, files, tail = extract_flags(argv, FILE_TOOLS[binary])
        files += tail
        pattern = files.pop(0) if binary == "grep" and len(files) >= 2 else ""
        if not files:
            if binary != "ls":
                return f"{binary}: missing file operand"
            files = ["."]
        n = flags.get("lines", 10)
        if binary == "tail":
            count = str(n)
            try:
                n = int(count)
            except ValueError:
                raise InvalidAction(f'invalid argument "{count}" for -n: '
                                    f"expected an integer") from None
            from_start = count.startswith("+")
        out: list[str] = []
        for f in files:
            try:
                p = (root / f).resolve()
                if not p.is_relative_to(root):
                    return (f"PolicyError: {binary} may only access the "
                            f"telemetry export directory")
                if binary == "ls":
                    if not p.exists():
                        return (f"ls: cannot access '{f}': "
                                f"No such file or directory")
                    out.append("\n".join(sorted(x.name for x in p.iterdir()))
                               if p.is_dir() else p.name)
                    continue
                text = p.read_text(errors="replace")
            except (OSError, ValueError) as e:
                # missing, a directory, unreadable, or not a usable path
                return f"{binary}: {f}: {getattr(e, 'strerror', None) or e}"
            lines = text.splitlines()
            if binary == "cat":
                out.append(text)
            elif binary == "head":
                out.append("\n".join(lines[:n]))
            elif binary == "tail":
                # GNU: "+K" prints from line K on, "K" and "-K" the last K
                start = n - 1 if from_start else len(lines) - abs(n)
                out.append("\n".join(lines[max(start, 0):]))
            else:
                out.append("\n".join(ln for ln in lines if pattern in ln))
        return "\n".join(out)
