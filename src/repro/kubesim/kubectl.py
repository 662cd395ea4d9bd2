"""A ``kubectl`` text facade over the simulated cluster.

Language agents issue raw command strings (``kubectl get pods -n ns``); this
module parses them and renders output formatted like the real CLI, including
its error messages — the paper's ACI exposes exactly this surface through
``exec_shell``.

The surface is two tables read through :mod:`repro.kubesim.grammar`:
``KINDS`` (a resource type's spellings and how it is listed, fetched and
tabulated) and ``VERBS`` (the flags and kinds each verb accepts).  Handlers
receive an already validated ``(namespace, kind, name, flags, rest)``.
"""

from __future__ import annotations

import json
import shlex
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.simcore import ResourceNotFound, InvalidAction
from repro.kubesim.cluster import Cluster
from repro.kubesim.grammar import (
    NAMESPACE, Flag, Verb, flag_spec, ignored, reject_shell_operators,
    resolve, usage)
from repro.kubesim.objects import Deployment

LogSource = Callable[[str, str, int], str]
ExecHandler = Callable[[str, str, list[str]], str]
MetricsSource = Callable[[str], list[tuple[str, float, float]]]
#: () -> [(node, used mcores, cpu %, requested MiB, mem %, pods)]
NodeMetricsSource = Callable[[], list[tuple[str, float, float, float, float, int]]]


def format_age(seconds: float) -> str:
    """Render an age the way kubectl does (``42s``, ``5m``, ``2h``, ``3d``)."""
    s = max(int(seconds), 0)
    if s < 120:
        return f"{s}s"
    m = s // 60
    if m < 120:
        return f"{m}m"
    h = m // 60
    if h < 48:
        return f"{h}h"
    return f"{h // 24}d"


def _tabulate(ns: str, headers: Sequence[str], rows: list[list[str]]) -> str:
    """Left-aligned whitespace table in kubectl's style."""
    if not rows:
        return f"No resources found in {ns} namespace."
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "   ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers)] + [fmt(r) for r in rows]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# KINDS: every resource type, stated once
# ----------------------------------------------------------------------
class Kind(NamedTuple):
    """One resource type: its spellings and how ``get``/``top`` render it."""

    name: str
    aliases: tuple[str, ...]
    headers: tuple[str, ...]
    row: Callable[["Kubectl", Any], list[str]]
    #: ``(cluster, namespace, or None for every namespace) -> objects``
    list: Callable[[Cluster, Optional[str]], list]
    #: ``(cluster, namespace, name) -> object``; None: the kind is list-only
    get: Optional[Callable[[Cluster, str, str], Any]] = None
    namespaced: bool = True
    #: API group kubectl prints after the name (``deployment.apps``)
    group: str = ""
    #: how one named object renders, when not as a one-row table
    detail: Optional[Callable[[Any], str]] = None
    #: extra ``get`` columns while the resource plane reports node usage
    plane_headers: tuple[str, ...] = ()
    #: ``top``: (the Kubectl source attribute, headers, sample -> row)
    top: Optional[tuple[str, tuple[str, ...], Callable[..., list[str]]]] = None


def _stored(attr: str) -> Callable[[Cluster, Optional[str]], list]:
    """Lister over one of Cluster's ``(namespace, name)``-keyed stores."""
    def listing(cluster: Cluster, ns: Optional[str]) -> list:
        return [o for (n, _), o in sorted(getattr(cluster, attr).items())
                if ns in (None, n)]
    return listing


def _service_row(k: "Kubectl", s) -> list[str]:
    ports = ",".join(f"{p.port}/TCP" for p in s.ports) or "<none>"
    return [s.name, s.service_type, s.cluster_ip, "<none>", ports, k._age(s)]


def _deployment_row(k: "Kubectl", d) -> list[str]:
    pods, ready = k._readiness(d)
    return [d.name, f"{ready}/{d.replicas}", str(len(pods)), str(ready),
            k._age(d)]


def _endpoints_row(k: "Kubectl", e) -> list[str]:
    addrs = ",".join(f"{a.ip}:{a.port}" for a in e.addresses[:3])
    if len(e.addresses) > 3:
        addrs += f" + {len(e.addresses) - 3} more..."
    return [e.name, addrs or "<none>", k._age(e)]


def _node_row(k: "Kubectl", n) -> list[str]:
    row = [n.name, "Ready" if n.ready else "NotReady", "<none>", k._age(n),
           "v1.29.0-sim"]
    if k.node_metrics_source is not None:
        u = next((u for u in k.node_metrics_source() if u[0] == n.name), None)
        row += ([f"{u[2]:.0f}%", f"{u[4]:.0f}%", str(u[5])]
                if u else ["<unknown>", "<unknown>", "0"])
    return row


def _secret_detail(s) -> str:
    # clear text — this is a simulator
    lines = [f"Name:         {s.name}", f"Namespace:    {s.namespace}",
             "Type:         Opaque", "", "Data", "===="]
    return "\n".join(lines + [f"{k}:  {v}" for k, v in sorted(s.data.items())])


KINDS: dict[str, Kind] = {kind.name: kind for kind in (
    Kind("pod", ("pods", "po"), ("NAME", "READY", "STATUS", "RESTARTS", "AGE"),
         lambda k, p: [p.name, p.ready_display(), p.status_display(),
                       str(p.restart_count), k._age(p)],
         _stored("pods"), Cluster.get_pod,
         top=("metrics_source", ("NAME", "CPU(cores)", "MEMORY(bytes)"),
              lambda pod, cpu, mem: [pod, f"{int(cpu)}m", f"{int(mem)}Mi"])),
    Kind("service", ("services", "svc"),
         ("NAME", "TYPE", "CLUSTER-IP", "EXTERNAL-IP", "PORT(S)", "AGE"),
         _service_row, _stored("services"), Cluster.get_service),
    Kind("deployment", ("deployments", "deploy"),
         ("NAME", "READY", "UP-TO-DATE", "AVAILABLE", "AGE"), _deployment_row,
         _stored("deployments"), Cluster.get_deployment, group=".apps"),
    Kind("endpoints", ("ep",), ("NAME", "ENDPOINTS", "AGE"), _endpoints_row,
         _stored("endpoints"), Cluster.get_endpoints),
    Kind("event", ("events",),
         ("LAST SEEN", "TYPE", "REASON", "OBJECT", "MESSAGE"),
         lambda k, e: [format_age(k.cluster.clock.now - e.time), e.event_type,
                       e.reason, f"{e.kind.lower()}/{e.name}", e.message],
         lambda c, ns: [e for e in c.events
                        if ns in (None, e.namespace)][-40:]),
    Kind("node", ("nodes", "no"), ("NAME", "STATUS", "ROLES", "AGE", "VERSION"),
         _node_row, lambda c, ns: sorted(c.nodes.values(), key=lambda n: n.name),
         namespaced=False, plane_headers=("CPU%", "MEM%", "PODS"),
         top=("node_metrics_source", ("NAME", "CPU(cores)", "CPU%",
                                      "MEMORY(bytes)", "MEMORY%", "PODS"),
              lambda name, cpu, pct, mem, mem_pct, pods: [
                  name, f"{int(cpu)}m", f"{pct:.0f}%", f"{int(mem)}Mi",
                  f"{mem_pct:.0f}%", str(pods)])),
    Kind("configmap", ("configmaps", "cm"), ("NAME", "DATA", "AGE"),
         lambda k, c: [c.name, str(len(c.data)), k._age(c)],
         _stored("configmaps"), Cluster.get_configmap),
    Kind("namespace", ("namespaces", "ns"), ("NAME", "STATUS", "AGE"),
         lambda k, ns: [ns, "Active", "1h"],
         lambda c, ns: sorted(c.namespaces), namespaced=False),
    Kind("secret", ("secrets",), ("NAME", "TYPE", "DATA", "AGE"),
         lambda k, s: [s.name, "Opaque", str(len(s.data)), k._age(s)],
         _stored("secrets"), Cluster.get_secret, detail=_secret_detail),
)}
KIND_BY_SPELLING = {spelling: kind for kind in KINDS.values()
                    for spelling in (kind.name, *kind.aliases)}


def parse_target(verb: Verb, args: list[str],
                 ) -> tuple[Kind, Optional[str], list[str]]:
    """The one ``TYPE[/NAME] [NAME]`` parser: ``-> (kind, name, leftover)``."""
    if not args:
        raise InvalidAction(
            f"you must specify the type of resource to {verb.name}")
    word, slash, name = args[0].partition("/")
    rest = args[1:]
    if not slash and rest:
        name, rest = rest[0], rest[1:]
    kind = KIND_BY_SPELLING.get(word.lower())
    if kind is None:
        raise InvalidAction(
            f'the server doesn\'t have a resource type "{word.lower()}"')
    if kind.name not in verb.kinds:
        raise InvalidAction(
            f'{verb.name} is not supported for resource type "{kind.name}" '
            f"(supported: {', '.join(verb.kinds)})")
    if verb.needs_name and not name:
        raise InvalidAction("you must specify a resource name")
    return kind, name or None, rest


# ----------------------------------------------------------------------
# VERBS: every command, stated once
# ----------------------------------------------------------------------
_NS = flag_spec(NAMESPACE)
_TARGET = "TYPE[/NAME] [NAME]"

VERBS: dict[str, Verb] = {verb.name: verb for verb in (
    Verb("get", f"{_TARGET} [-n NS | -A]", flag_spec(
        NAMESPACE, ignored("-o", "--output", value=True),
        Flag(("-A", "--all-namespaces"), "all_namespaces", takes_value=False)),
        "_get", tuple(KINDS), needs_name=False),
    Verb("describe", f"{_TARGET} [-n NS]", _NS, "_describe",
         ("pod", "service", "deployment")),
    Verb("logs", "POD [-n NS] [--tail=N]", flag_spec(
        NAMESPACE, Flag(("--tail",), "tail", integer=True),
        ignored("-c", "--container", "--since", value=True),
        ignored("-f", "--follow", "-p", "--previous", "--timestamps")),
        "_logs"),
    Verb("exec", "POD [-n NS] -- COMMAND [ARG...]", flag_spec(
        NAMESPACE, ignored("-c", "--container", value=True),
        ignored("-it", "-i", "-t", "--stdin", "--tty")), "_exec"),
    Verb("top", "pods|nodes [-n NS]", _NS, "_top",
         tuple(k.name for k in KINDS.values() if k.top), needs_name=False),
    Verb("delete", f"{_TARGET} [-n NS]", flag_spec(
        NAMESPACE, ignored("--grace-period", value=True),
        ignored("--force")),
        "_delete", ("pod", "service", "deployment")),
    Verb("scale", f"{_TARGET} --replicas=N [-n NS]", flag_spec(
        NAMESPACE, Flag(("--replicas",), "replicas", integer=True,
                        required=True)), "_scale", ("deployment",)),
    Verb("patch", f"{_TARGET} -p JSON [-n NS]", flag_spec(
        NAMESPACE, Flag(("-p", "--patch"), "patch", required=True),
        ignored("--type", value=True)), "_patch", ("service", "deployment")),
    Verb("set image", f"{_TARGET} CONTAINER=IMAGE... [-n NS]", _NS,
         "_set_image", ("deployment",)),
    Verb("rollout restart", f"{_TARGET} [-n NS]", _NS, "_rollout_restart",
         ("deployment",)),
    Verb("rollout status", f"{_TARGET} [-n NS]", _NS, "_rollout_status",
         ("deployment",)),
    Verb("apply", "-f requires a manifest file; this environment supports "
         "imperative commands (scale, patch, set image, delete)", flag_spec(
             NAMESPACE, ignored("-f", "--filename", value=True)), None),
    Verb("edit", "is interactive and not supported; use patch", _NS, None),
)}

#: the ``-p`` fields the simulator acts on, and the JSON type each must have
_PATCH_SHAPE = {"spec": {
    "replicas": int, "selector": dict,
    "ports": [{"port": int, "targetPort": int}],
    "template": {"spec": {"nodeName": str,
                          "containers": [{"name": str, "image": str}]}}}}
_JSON_NAMES = {dict: "an object", list: "an array", int: "an integer",
               str: "a string"}


def _conform(value: Any, shape: Any, path: str = "") -> None:
    """``InvalidAction`` naming the first path where ``value`` does not have
    ``shape``'s JSON type; a null member reads as absent."""
    kind = shape if isinstance(shape, type) else type(shape)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InvalidAction(
            f"invalid patch: {path or 'the patch'} must be "
            f"{_JSON_NAMES[kind]}, got {json.dumps(value)}")
    if isinstance(shape, dict):
        for key, member in shape.items():
            if value.get(key) is not None:
                _conform(value[key], member, f"{path}.{key}".lstrip("."))
    elif isinstance(shape, list):
        for i, item in enumerate(value):
            _conform(item, shape[0], f"{path}[{i}]")


class Kubectl:
    """Parses and executes kubectl command strings against a :class:`Cluster`.

    Parameters
    ----------
    cluster:
        The simulated cluster to operate on.
    log_source:
        Optional callback ``(namespace, pod, tail) -> str`` supplying pod
        logs (wired to the telemetry log store).
    exec_handler:
        Optional callback ``(namespace, pod, argv) -> str`` for
        ``kubectl exec`` (wired to the service runtime, e.g. mongo shell).
    metrics_source:
        Optional callback ``(namespace) -> [(pod, cpu_mcores, mem_mib)]``
        backing ``kubectl top pods``.
    node_metrics_source:
        Optional callback returning per-node utilization rows (wired to
        the resource plane's rollup).  When present, ``kubectl top
        nodes`` works and ``get nodes`` grows CPU%/MEM%/PODS columns.
    """

    def __init__(
        self,
        cluster: Cluster,
        log_source: Optional[LogSource] = None,
        exec_handler: Optional[ExecHandler] = None,
        metrics_source: Optional[MetricsSource] = None,
        node_metrics_source: Optional[NodeMetricsSource] = None,
    ) -> None:
        self.cluster = cluster
        self.log_source = log_source
        self.exec_handler = exec_handler
        self.metrics_source = metrics_source
        self.node_metrics_source = node_metrics_source

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self, command: str | Sequence[str]) -> str:
        """Execute one kubectl command; returns CLI-style output.

        ``command`` is the command string, or the argv the shell already
        split from it.  Errors come back as ``Error from server`` /
        ``error:`` strings rather than exceptions, because that is the
        feedback a shell gives.
        """
        try:
            argv = (shlex.split(command) if isinstance(command, str)
                    else list(command))
        except ValueError as e:
            return f"error: failed to parse command: {e}"
        if not argv:
            return "error: empty command"
        if argv[0] == "kubectl":
            argv = argv[1:]
        if not argv:
            return ("kubectl controls the simulated Kubernetes cluster.\n"
                    f"Supported:\n{usage('kubectl', VERBS)}")
        try:
            reject_shell_operators(argv)
            verb, flags, args, tail = resolve("kubectl", argv, VERBS)
            if verb.handler is None:
                raise InvalidAction(verb.usage)
            kind = name = None
            if verb.kinds:
                kind, name, args = parse_target(verb, args)
            ns = flags.pop("namespace", None) or "default"
            return getattr(self, verb.handler)(
                ns, kind, name, flags, args + tail)
        except ResourceNotFound as e:
            return f"Error from server (NotFound): {e}"
        except InvalidAction as e:
            return f"error: {e}"

    def _age(self, obj) -> str:
        return format_age(self.cluster.clock.now - obj.meta.creation_time)

    def _readiness(self, dep: Deployment) -> tuple[list, int]:
        """A deployment's pods, and how many of them are available."""
        pods = self.cluster.pods_for_deployment(dep)
        return pods, sum(1 for p in pods if p.ready and not p.crash_looping)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _get(self, ns, kind, name, flags, rest) -> str:
        every = kind.namespaced and flags.get("all_namespaces", False)
        if kind.namespaced:
            self.cluster.require_namespace(ns)
        if name is None:
            objs = kind.list(self.cluster, None if every else ns)
        elif kind.get is None:
            raise InvalidAction(f"{kind.name}s are listed, not fetched by "
                                f"name: kubectl get {kind.name}s")
        else:
            objs = [kind.get(self.cluster, ns, name)]
            if kind.detail is not None:
                return kind.detail(objs[0])
        headers = list(kind.headers)
        if self.node_metrics_source is not None:
            headers += kind.plane_headers
        rows = [kind.row(self, o) for o in objs]
        if every:
            headers.insert(0, "NAMESPACE")
            rows = [[o.namespace, *row] for o, row in zip(objs, rows)]
        return _tabulate(ns, headers, rows)

    def _describe(self, ns, kind, name, flags, rest) -> str:
        return getattr(self, f"_describe_{kind.name}")(ns, name)

    def _describe_pod(self, ns: str, name: str) -> str:
        pod = self.cluster.get_pod(ns, name)
        lines = [
            f"Name:             {pod.name}",
            f"Namespace:        {pod.namespace}",
            f"Node:             {pod.bound_node or '<none>'}",
            f"Labels:           " + ",".join(f"{k}={v}" for k, v in sorted(pod.meta.labels.items())),
            f"Status:           {pod.status_display()}",
            f"Restart Count:    {pod.restart_count}",
        ]
        if pod.node_name:
            lines.append(f"Requested Node:   {pod.node_name}")
        lines.append("Containers:")
        for c in pod.containers:
            lines.append(f"  {c.name}:")
            lines.append(f"    Image:  {c.image}")
            ports = ", ".join(str(p.container_port) for p in c.ports) or "<none>"
            lines.append(f"    Ports:  {ports}")
        events = [
            e for e in self.cluster.events_in(ns) if e.kind == "Pod" and e.name == name
        ]
        lines.append("Events:")
        if events:
            now = self.cluster.clock.now
            for e in events[-8:]:
                lines.append(
                    f"  {e.event_type}  {e.reason}  {format_age(now - e.time)}  {e.message}"
                )
        else:
            lines.append("  <none>")
        return "\n".join(lines)

    def _describe_service(self, ns: str, name: str) -> str:
        svc = self.cluster.get_service(ns, name)
        ep = self.cluster.endpoints.get((ns, name))
        addrs = ",".join(f"{a.ip}:{a.port}" for a in ep.addresses) if ep and ep.addresses else "<none>"
        lines = [
            f"Name:              {svc.name}",
            f"Namespace:         {svc.namespace}",
            f"Selector:          " + ",".join(f"{k}={v}" for k, v in sorted(svc.selector.items())),
            f"Type:              {svc.service_type}",
            f"IP:                {svc.cluster_ip}",
        ]
        for p in svc.ports:
            lines.append(f"Port:              {p.name or '<unset>'}  {p.port}/TCP")
            lines.append(f"TargetPort:        {p.target_port}/TCP")
        lines.append(f"Endpoints:         {addrs}")
        return "\n".join(lines)

    def _describe_deployment(self, ns: str, name: str) -> str:
        dep = self.cluster.get_deployment(ns, name)
        pods, ready = self._readiness(dep)
        lines = [
            f"Name:                   {dep.name}",
            f"Namespace:              {dep.namespace}",
            f"Selector:               " + ",".join(f"{k}={v}" for k, v in sorted(dep.selector.items())),
            f"Replicas:               {dep.replicas} desired | {len(pods)} total | {ready} available",
            "Pod Template:",
        ]
        for c in dep.template.containers:
            lines.append(f"  Container {c.name}: image={c.image}, "
                         f"ports={[p.container_port for p in c.ports]}")
        if dep.template.node_name:
            lines.append(f"  NodeName: {dep.template.node_name}")
        return "\n".join(lines)

    def _logs(self, ns, kind, name, flags, rest) -> str:
        if not rest:
            raise InvalidAction("expected 'logs POD_NAME'")
        pod = self.cluster.get_pod(ns, rest[0])
        if self.log_source is None:
            return ""
        return self.log_source(ns, pod.name, flags.get("tail", 50))

    def _exec(self, ns, kind, name, flags, rest) -> str:
        if not rest:
            raise InvalidAction("expected 'exec POD_NAME -- COMMAND'")
        pod = self.cluster.get_pod(ns, rest[0])
        if not rest[1:]:
            raise InvalidAction(
                "you must specify at least one command for the container")
        if self.exec_handler is None:
            raise InvalidAction(f"exec not available in pod {pod.name}")
        return self.exec_handler(ns, pod.name, rest[1:])

    def _top(self, ns, kind, name, flags, rest) -> str:
        source_attr, headers, row = kind.top
        source = getattr(self, source_attr)
        if source is None:
            raise InvalidAction("Metrics API not available")
        samples = source(ns) if kind.namespaced else source()
        return _tabulate(ns, headers, [row(*s) for s in samples])

    def _rollout_status(self, ns, kind, name, flags, rest) -> str:
        dep = self.cluster.get_deployment(ns, name)
        _, ready = self._readiness(dep)
        if ready >= dep.replicas:
            return f'deployment "{name}" successfully rolled out'
        return (f"Waiting for deployment \"{name}\" rollout to finish: "
                f"{ready} of {dep.replicas} updated replicas are available...")

    # ------------------------------------------------------------------
    # mutations: nothing changes until the whole command has validated
    # ------------------------------------------------------------------
    def _delete(self, ns, kind, name, flags, rest) -> str:
        getattr(self.cluster, f"delete_{kind.name}")(ns, name)
        return f'{kind.name}{kind.group} "{name}" deleted'

    def _scale(self, ns, kind, name, flags, rest) -> str:
        self.cluster.scale_deployment(ns, name, flags["replicas"])
        return f"{kind.name}{kind.group}/{name} scaled"

    def _rollout_restart(self, ns, kind, name, flags, rest) -> str:
        self.cluster.restamp_deployment(self.cluster.get_deployment(ns, name))
        return f"{kind.name}{kind.group}/{name} restarted"

    def _patch(self, ns, kind, name, flags, rest) -> str:
        try:
            patch = json.loads(flags["patch"])
        except json.JSONDecodeError as e:
            raise InvalidAction(f"unable to parse patch: {e}") from None
        _conform(patch, _PATCH_SHAPE)
        getattr(self, f"_patch_{kind.name}")(ns, name, patch)
        return f"{kind.name}{kind.group}/{name} patched"

    def _patch_service(self, ns: str, name: str, patch: dict) -> None:
        svc = self.cluster.get_service(ns, name)
        spec = patch.get("spec") or {}
        for entry in spec.get("ports") or []:
            port, target = entry.get("port"), entry.get("targetPort")
            for sp in svc.ports:
                if target is not None and port in (None, sp.port):
                    sp.target_port = target
        if spec.get("selector") is not None:
            svc.selector = dict(spec["selector"])
        self.cluster.reconcile()

    def _patch_deployment(self, ns: str, name: str, patch: dict) -> None:
        dep = self.cluster.get_deployment(ns, name)
        spec = patch.get("spec") or {}
        if spec.get("replicas") is not None:
            # refuses a negative count before it changes anything
            self.cluster.scale_deployment(ns, name, spec["replicas"])
        tmpl = (spec.get("template") or {}).get("spec") or {}
        if "nodeName" in tmpl:
            dep.template.node_name = tmpl["nodeName"] or None
            self.cluster.restamp_deployment(dep)
        for c_patch in tmpl.get("containers") or []:
            for c in dep.template.containers:
                if c.name == c_patch.get("name") and c_patch.get("image"):
                    c.image = c_patch["image"]
            self.cluster.restamp_deployment(dep)
        self.cluster.reconcile()

    def _set_image(self, ns, kind, name, flags, rest) -> str:
        dep = self.cluster.get_deployment(ns, name)
        bad = next((a for a in rest if "=" not in a), None)
        if bad is not None:
            raise InvalidAction(f'invalid image assignment "{bad}"')
        images = dict(a.split("=", 1) for a in rest)
        matched = [c for c in dep.template.containers
                   if c.name in images or "*" in images]
        if not matched:
            raise InvalidAction("no matching container found")
        for c in matched:
            c.image = images.get(c.name, images.get("*"))
        self.cluster.restamp_deployment(dep)
        return f"{kind.name}{kind.group}/{name} image updated"
