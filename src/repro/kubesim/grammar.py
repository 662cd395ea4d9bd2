"""The command grammar behind ``exec_shell``, stated once.

kubectl, helm and the file tools are each a table ``name -> Verb``; the
functions here are the tables' only readers.  :func:`resolve` finds the verb
and :func:`extract_flags` is the one place a ``-x`` / ``--long[=value]``
token is interpreted.  What a table does not list is answered with an
``InvalidAction`` naming the token, never guessed at.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple, Optional, Sequence

from repro.simcore import InvalidAction

#: bare tokens only a real shell could honour; there is none behind exec_shell
SHELL_OPERATORS = frozenset({"|", "||", "&&", ";", ">", ">>", "<"})


class Flag(NamedTuple):
    """One flag's spellings and what the extractor does with it."""

    names: tuple[str, ...]
    #: key in the extracted flags; None: accepted and ignored (``-o wide``)
    dest: Optional[str] = None
    takes_value: bool = True
    integer: bool = False
    required: bool = False
    repeated: bool = False


def flag_spec(*flags: Flag) -> dict[str, Flag]:
    """Every spelling of every flag -> the flag."""
    return {name: flag for flag in flags for name in flag.names}


def ignored(*names: str, value: bool = False) -> Flag:
    return Flag(names, takes_value=value)


NAMESPACE = Flag(("-n", "--namespace"), "namespace")


class Verb(NamedTuple):
    """One row of a command table."""

    name: str
    synopsis: str
    flags: Mapping[str, Flag]
    #: method on the table's owner; None: recognised but unsupported, and
    #: ``name + synopsis`` is the answer
    handler: Optional[str]
    #: canonical resource kinds accepted as ``TYPE[/NAME] [NAME]``
    kinds: tuple[str, ...] = ()
    needs_name: bool = True

    @property
    def usage(self) -> str:
        return f"{self.name} {self.synopsis}"


def usage(binary: str, verbs: Mapping[str, Verb]) -> str:
    rows = dict.fromkeys(verb.usage for verb in verbs.values())
    return "\n".join(f"  {binary} {row}" for row in rows)


def reject_shell_operators(argv: Sequence[str]) -> None:
    operator = next((tok for tok in argv if tok in SHELL_OPERATORS), None)
    if operator is not None:
        raise InvalidAction(
            f'shell operator "{operator}" is not available: exec_shell runs '
            f"one command, without pipes or redirection; use grep/head/tail "
            f"on the files the telemetry actions export")


def extract_flags(argv: Sequence[str], spec: Mapping[str, Flag],
                  ) -> tuple[dict[str, Any], list[str], list[str]]:
    """Lift the flags ``spec`` lists from anywhere before ``--``.

    Returns ``(values by dest, positionals, everything after --)``.
    """
    argv = list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    flags: dict[str, Any] = {}
    args: list[str] = []
    head = iter(argv[:cut])
    for tok in head:
        if not tok.startswith("-") or tok == "-":
            args.append(tok)
            continue
        name, attached, value = tok.partition("=")
        flag = spec.get(name)
        if flag is None:
            raise InvalidAction(f"unknown flag: {name}")
        if not flag.takes_value:
            if attached:
                raise InvalidAction(f"flag takes no value: {name}")
            value = True
        elif not attached:
            value = next(head, None)
            if value is None:
                raise InvalidAction(f"flag needs an argument: {name}")
        if flag.integer:
            try:
                value = int(value)
            except ValueError:
                raise InvalidAction(f'invalid argument "{value}" for {name}: '
                                    f"expected an integer") from None
        if flag.repeated:
            flags.setdefault(flag.dest, []).append(value)
        elif flag.dest is not None:
            flags[flag.dest] = value
    missing = next((f for f in spec.values()
                    if f.required and f.dest not in flags), None)
    if missing is not None:
        raise InvalidAction(f"{missing.names[0]} is required")
    return flags, args, argv[cut + 1:]


def resolve(binary: str, argv: Sequence[str], verbs: Mapping[str, Verb],
            ) -> tuple[Verb, dict[str, Any], list[str], list[str]]:
    """Find the verb — one or two words, wherever leading flags put it —
    and lift its flags: ``-> (verb, flags, positionals, after --)``."""
    heads = {name.split()[0] for name in verbs}
    at = next((i for i, tok in enumerate(argv) if tok in heads), None)
    if at is None:
        raise InvalidAction(f'unknown command "{argv[0]}" for "{binary}"\n'
                            f"Supported:\n{usage(binary, verbs)}")
    for width in (2, 1):
        verb = verbs.get(" ".join(argv[at:at + width]))
        if verb is not None:
            return (verb, *extract_flags(
                [*argv[:at], *argv[at + width:]], verb.flags))
    choices = [f"{binary} {v.usage}" for v in verbs.values()
               if v.name.split()[0] == argv[at]]
    raise InvalidAction("expected " + " | ".join(choices))
