"""Pinned ``exec_shell`` outputs: a golden transcript of well-formed commands.

``golden_shell.txt`` was recorded at commit 90814e3 (the last commit with
per-verb parsers) by running this file as a script, and re-recorded once
since: when endpoint addresses became the pods' own counter-assigned IPs
instead of ``hash(pod.name)``.  The test replays the same commands against
the same seeded environment and requires the transcript to be
byte-identical.  It covers every verb x every kind x every
target spelling, the flag spellings agents use, the 14 command shapes the
in-repo agents and ``bench_e2e`` emit, helm, and the file tools.

Re-record (only when an output change is intended and reviewed)::

    PYTHONPATH=src python tests/kubesim/test_golden_shell.py
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from repro.apps import HotelReservation
from repro.core.env import CloudEnvironment
from repro.core.shell import ShellExecutor

GOLDEN = Path(__file__).with_name("golden_shell.txt")

#: ``{ns}``/``{rel}`` are fixed per environment; ``{pod:DEPLOYMENT}`` is the
#: deployment's first pod *when the command runs* (mutations rename pods)
COMMANDS = """
kubectl get pods -n {ns}
kubectl get pod -n {ns}
kubectl get po -n {ns}
kubectl get pods -A
kubectl get pods --all-namespaces
kubectl get pods -n {ns} -o wide
kubectl get pods --output=wide --namespace={ns}
kubectl get pod {pod:geo} -n {ns}
kubectl get pod/{pod:geo} -n {ns}
kubectl get pods {pod:geo} --namespace {ns}
kubectl get pods
kubectl get pods -n kube-system
kubectl get pods -n ghost
kubectl get pod ghost -n {ns}
kubectl get widgets -n {ns}
kubectl get services -n {ns}
kubectl get svc -n {ns}
kubectl get service frontend -n {ns}
kubectl get svc/frontend -n {ns}
kubectl get deployments -n {ns}
kubectl get deploy -n {ns}
kubectl get deployment geo -n {ns}
kubectl get deploy/geo -n {ns}
kubectl get deployments geo -n {ns}
kubectl get endpoints -n {ns}
kubectl get ep -n {ns}
kubectl get endpoints geo -n {ns}
kubectl get events -n {ns}
kubectl get event -n {ns}
kubectl get nodes
kubectl get node
kubectl get configmaps -n {ns}
kubectl get cm -n {ns}
kubectl get configmap hotel-reservation-config -n {ns}
kubectl get namespaces
kubectl get ns
kubectl get namespace
kubectl get secrets -n {ns}
kubectl get secret mongodb-geo-credentials -n {ns}
kubectl get secret/mongodb-rate-credentials -n {ns}
kubectl describe deployment geo -n {ns}
kubectl describe deploy/geo -n {ns}
kubectl describe deployments geo -n {ns}
kubectl describe pod {pod:geo} -n {ns}
kubectl describe po/{pod:geo} -n {ns}
kubectl describe pods {pod:mongodb-geo} -n {ns}
kubectl describe service geo -n {ns}
kubectl describe svc geo -n {ns}
kubectl describe svc/frontend -n {ns}
kubectl describe pod ghost -n {ns}
kubectl describe deployment ghost -n {ns}
kubectl logs {pod:geo} -n {ns}
kubectl logs {pod:geo} -n {ns} --tail=5
kubectl logs {pod:frontend} --tail 3 -n {ns}
kubectl logs ghost -n {ns}
kubectl top pods -n {ns}
kubectl top pod -n {ns}
kubectl top nodes
kubectl exec {pod:mongodb-geo} -n {ns} -- mongo --eval "db.getUsers()"
kubectl exec {pod:mongodb-geo} -n {ns} -- mongo --eval "db.grantRolesToUser('admin', ['readWrite','dbAdmin'])"
kubectl exec {pod:mongodb-rate} -n {ns} -- mongo --eval "db.createUser({user: 'admin', pwd: 'rate-pass', roles: ['readWrite','dbAdmin']})"
kubectl exec -it {pod:mongodb-geo} -c mongodb-geo -n {ns} -- mongo --eval "db.getUsers()"
kubectl exec {pod:geo} -n {ns} -- ls /
kubectl exec {pod:geo} -n {ns} -- python3
kubectl exec ghost -n {ns} -- ls
kubectl rollout status deployment/geo -n {ns}
kubectl rollout status deployment geo -n {ns}
kubectl rollout status deploy/frontend -n {ns}
kubectl edit svc geo -n {ns}
kubectl apply -f fix.yaml
ls
ls logs
ls -la logs
ls logs/geo.log
ls ghostdir
cat logs/geo.log
cat nope.txt
cat /etc/passwd
cat
head logs/all.jsonl
tail logs/all.jsonl
head metrics/error_rate.csv
grep WARN logs/geo.log
grep -i retrying logs/geo.log logs/search.log
grep nomatch logs/geo.log
echo hello world
rm -rf /
python3 -c 'print(1)'
kubectl scale deployment geo --replicas=3 -n {ns}
kubectl get deployment geo -n {ns}
kubectl rollout status deployment/geo -n {ns}
kubectl scale deploy/geo --replicas 1 -n {ns}
kubectl scale deployments geo --replicas=2 -n {ns}
kubectl scale deployment geo --replicas=0 -n {ns}
kubectl rollout status deployment geo -n {ns}
kubectl scale deployment geo --replicas=1 -n {ns}
kubectl scale deployment ghost --replicas=1 -n {ns}
kubectl patch deployment geo -n {ns} -p '{"spec":{"replicas":2}}'
kubectl patch deployment geo -n {ns} -p '{"spec":{"template":{"spec":{"nodeName":"node-404"}}}}'
kubectl get pods -n {ns}
kubectl describe deployment geo -n {ns}
kubectl patch deployment geo -n {ns} -p '{"spec":{"template":{"spec":{"nodeName":""}}}}'
kubectl patch deploy/geo -n {ns} --type merge --patch='{"spec":{"template":{"spec":{"containers":[{"name":"geo","image":"deathstarbench/hotel-geo:patched"}]}}}}'
kubectl describe deployment geo -n {ns}
kubectl patch service geo -n {ns} -p '{"spec":{"ports":[{"targetPort":9999}]}}'
kubectl describe service geo -n {ns}
kubectl get endpoints geo -n {ns}
kubectl patch svc/geo -n {ns} -p '{"spec":{"ports":[{"port":8083,"targetPort":8083}]}}'
kubectl patch svc geo -n {ns} --patch '{"spec":{"selector":{"app":"geo"}}}'
kubectl describe svc geo -n {ns}
kubectl patch service ghost -n {ns} -p '{"spec":{}}'
kubectl set image deployment/geo geo=deathstarbench/hotel-geo:canary -n {ns}
kubectl set image deploy/geo *=deathstarbench/hotel-geo:latest -n {ns}
kubectl set image deployment/geo nosuch=img:v1 -n {ns}
kubectl describe deployment geo -n {ns}
kubectl rollout restart deployment/geo -n {ns}
kubectl rollout restart deployment profile -n {ns}
kubectl rollout restart deploy rate -n {ns}
kubectl rollout restart deployment ghost -n {ns}
kubectl delete pod {pod:search} -n {ns}
kubectl delete pod/{pod:user} -n {ns}
kubectl delete pods {pod:rate} --grace-period=0 --force -n {ns}
kubectl delete pod ghost -n {ns}
kubectl delete service recommendation -n {ns}
kubectl delete deployment recommendation -n {ns}
kubectl delete deploy/reservation -n {ns}
kubectl delete namespace {ns}
kubectl get pods -n {ns}
kubectl get events -n {ns}
helm list
helm ls
helm get values {rel}
helm get values ghost
helm upgrade {rel} --set tls.enabled=true
helm upgrade {rel} --set mongo_credentials.mongodb-geo.username=admin --set mongo_credentials.mongodb-geo.password=geo-pass
helm upgrade {rel} --set=features.canary=FALSE
helm upgrade ghost --set a=1
helm get values {rel}
helm list
kubectl get pods -n {ns}
kubectl get cm -n {ns}
""".strip().splitlines()

#: the same reads with the resource plane wired in (utilization columns)
PLANE_COMMANDS = """
kubectl get nodes
kubectl top nodes
kubectl top node
kubectl top pods -n {ns}
""".strip().splitlines()


def _transcript(commands, **env_kwargs) -> str:
    env = CloudEnvironment(HotelReservation, seed=0, **env_kwargs)
    env.advance(45)
    env.exporter.export_logs(env.namespace)
    env.exporter.export_metrics(since=0.0)
    env.exporter.export_traces(since=0.0)
    shell = ShellExecutor(env)

    def first_pod(match: re.Match) -> str:
        dep = env.cluster.get_deployment(env.namespace, match.group(1))
        return env.cluster.pods_for_deployment(dep)[0].name

    out = []
    for template in commands:
        command = re.sub(r"\{pod:([\w-]+)\}", first_pod, template) \
            .replace("{ns}", env.namespace) \
            .replace("{rel}", env.app.release_name)
        result = shell.run(command)
        assert isinstance(result, str)
        out.append(f"$ {command}\n{result}")
    env.close()
    return "\n\n".join(out) + "\n"


def render() -> str:
    return (_transcript(COMMANDS)
            + "\n# --- resource plane active ---\n\n"
            + _transcript(PLANE_COMMANDS, resource_coupling=True))


def test_golden_transcript_is_byte_identical():
    assert len(COMMANDS) + len(PLANE_COMMANDS) >= 80
    assert render() == GOLDEN.read_text()


def test_endpoints_independent_of_hash_seed():
    """Agent-visible text must not depend on the process hash seed."""
    script = (
        "from repro.kubesim import Cluster, Kubectl\n"
        "from repro.simcore import SimClock\n"
        "from tests.kubesim.test_cluster import make_deployment, make_service\n"
        "c = Cluster(clock=SimClock(), seed=3)\n"
        "c.create_namespace('app')\n"
        "c.create_deployment(make_deployment(name='web', ns='app', replicas=3))\n"
        "c.create_service(make_service(name='web', ns='app'))\n"
        "print(Kubectl(c).run('kubectl get endpoints -n app'))\n")
    repo = Path(__file__).resolve().parents[2]
    path = os.pathsep.join(
        [str(repo / "src"), str(repo),
         *filter(None, [os.environ.get("PYTHONPATH")])])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
        ).stdout
        for seed in ("1", "2")]
    assert b"10.244." in outputs[0]
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN}")
