import pytest

from repro.kubesim import Cluster, Kubectl
from repro.kubesim.kubectl import format_age
from tests.kubesim.test_cluster import make_deployment, make_service


@pytest.fixture
def kubectl(cluster):
    cluster.create_namespace("app")
    cluster.create_deployment(make_deployment(name="web", ns="app", replicas=2))
    cluster.create_service(make_service(name="web", ns="app"))
    return Kubectl(cluster)


class TestFormatAge:
    def test_seconds(self):
        assert format_age(42) == "42s"

    def test_minutes(self):
        assert format_age(300) == "5m"

    def test_hours(self):
        assert format_age(7200) == "2h"

    def test_days(self):
        assert format_age(3 * 86400) == "3d"

    def test_negative_clamped(self):
        assert format_age(-5) == "0s"


class TestGet:
    def test_get_pods(self, kubectl):
        out = kubectl.run("kubectl get pods -n app")
        assert "NAME" in out and "Running" in out
        assert out.count("web-") == 2

    def test_get_pods_empty_namespace(self, kubectl, cluster):
        cluster.create_namespace("empty")
        out = kubectl.run("kubectl get pods -n empty")
        assert "No resources found" in out

    def test_get_pods_unknown_namespace(self, kubectl):
        out = kubectl.run("kubectl get pods -n ghost")
        assert "NotFound" in out

    def test_get_services(self, kubectl):
        out = kubectl.run("kubectl get svc -n app")
        assert "web" in out and "ClusterIP" in out

    def test_get_deployments(self, kubectl):
        out = kubectl.run("kubectl get deployments -n app")
        assert "2/2" in out

    def test_get_endpoints(self, kubectl):
        out = kubectl.run("kubectl get endpoints -n app")
        assert ":8080" in out

    def test_get_nodes(self, kubectl):
        out = kubectl.run("kubectl get nodes")
        assert "node-0" in out and "Ready" in out

    def test_get_namespaces(self, kubectl):
        out = kubectl.run("kubectl get ns")
        assert "app" in out and "default" in out

    def test_get_events(self, kubectl):
        out = kubectl.run("kubectl get events -n app")
        assert "SuccessfulCreate" in out or "Scheduled" in out

    @pytest.mark.parametrize("command", [
        "kubectl get pods -A",
        "kubectl get -A pods",
        "kubectl -A get pods",
        "kubectl --all-namespaces get pods -o wide",
    ])
    def test_get_all_namespaces_flag(self, kubectl, command):
        out = kubectl.run(command)
        assert "NAMESPACE" in out

    def test_namespace_flag_before_the_verb(self, kubectl):
        assert kubectl.run("kubectl -n app get pods") == \
            kubectl.run("kubectl get pods -n app")
        assert kubectl.run("kubectl --namespace=app get pods").count("web-") == 2

    @pytest.mark.parametrize("command, flag", [
        ("kubectl get pods --show-labels -n app", "--show-labels"),
        ("kubectl get pods -l app=web -n app", "-l"),
        ("kubectl get pods --field-selector=status.phase=Running -n app",
         "--field-selector"),
        ("kubectl delete pod --all -n app", "--all"),
        ("kubectl describe pod -w web -n app", "-w"),
    ])
    def test_unlisted_flag_is_never_a_resource_name(self, kubectl, cluster,
                                                    command, flag):
        before = cluster.state_version
        assert kubectl.run(command) == f"error: unknown flag: {flag}"
        assert cluster.state_version == before

    @pytest.mark.parametrize("command, flag", [
        ("kubectl get pods -n", "-n"),
        ("kubectl scale deployment web -n app --replicas", "--replicas"),
        ("kubectl patch deployment web -n app -p", "-p"),
    ])
    def test_value_flag_without_a_value(self, kubectl, cluster, command, flag):
        before = cluster.state_version
        assert kubectl.run(command) == f"error: flag needs an argument: {flag}"
        assert cluster.state_version == before

    def test_shell_operator_is_not_a_resource_name(self, kubectl):
        out = kubectl.run("kubectl get pods -n app | head -3")
        assert out.startswith('error: shell operator "|" is not available')

    def test_usage_lists_every_verb_in_the_table(self, kubectl):
        from repro.kubesim.kubectl import VERBS
        out = kubectl.run("kubectl")
        for verb in VERBS:
            assert f"kubectl {verb} " in out

    def test_unknown_resource_type(self, kubectl):
        out = kubectl.run("kubectl get widgets -n app")
        assert "doesn't have a resource type" in out

    def test_unknown_verb(self, kubectl):
        out = kubectl.run("kubectl frobnicate")
        assert "unknown command" in out

    def test_named_pod(self, kubectl, cluster):
        pod = cluster.pods_in("app")[0]
        out = kubectl.run(f"kubectl get pod {pod.name} -n app")
        assert pod.name in out


class TestDescribe:
    def test_describe_pod(self, kubectl, cluster):
        pod = cluster.pods_in("app")[0]
        out = kubectl.run(f"kubectl describe pod {pod.name} -n app")
        assert "Status:" in out and "Events:" in out

    def test_describe_service_shows_target_port(self, kubectl):
        out = kubectl.run("kubectl describe service web -n app")
        assert "TargetPort:        8080/TCP" in out

    def test_describe_deployment_shows_image(self, kubectl):
        out = kubectl.run("kubectl describe deployment web -n app")
        assert "image=img:latest" in out

    def test_describe_missing(self, kubectl):
        out = kubectl.run("kubectl describe pod ghost -n app")
        assert "NotFound" in out


class TestMutations:
    def test_scale(self, kubectl, cluster):
        out = kubectl.run("kubectl scale deployment web --replicas=5 -n app")
        assert "scaled" in out
        assert len(cluster.pods_in("app")) == 5

    def test_scale_requires_replicas(self, kubectl):
        out = kubectl.run("kubectl scale deployment web -n app")
        assert "--replicas is required" in out

    def test_delete_pod(self, kubectl, cluster):
        pod = cluster.pods_in("app")[0].name
        out = kubectl.run(f"kubectl delete pod {pod} -n app")
        assert "deleted" in out
        # deployment controller replaces it
        assert len(cluster.pods_in("app")) == 2

    def test_patch_service_target_port(self, kubectl, cluster):
        patch = '{"spec":{"ports":[{"port":8080,"targetPort":9999}]}}'
        out = kubectl.run(f"kubectl patch service web -n app -p '{patch}'")
        assert "patched" in out
        assert not cluster.service_reachable("app", "web")

    @pytest.mark.parametrize("kind, patch, expected", [
        ("service", "{bad json", "unable to parse"),
        ("deployment", "[1]", "the patch must be an object, got [1]"),
        ("deployment", "null", "the patch must be an object, got null"),
        ("deployment", '{"spec":[]}', "spec must be an object, got []"),
        ("deployment", '{"spec":{"template":{"spec":{"containers":[1]}}}}',
         "spec.template.spec.containers[0] must be an object, got 1"),
        ("deployment", '{"spec":{"replicas":"x"}}',
         'spec.replicas must be an integer, got "x"'),
        ("deployment", '{"spec":{"replicas":5,"template":{"spec":'
                       '{"containers":[{"name":"web","image":7}]}}}}',
         "spec.template.spec.containers[0].image must be a string, got 7"),
        ("service", '{"spec":{"ports":[{"targetPort":"http"}]}}',
         'spec.ports[0].targetPort must be an integer, got "http"'),
        ("service", '{"spec":{"ports":[{"port":8080,"targetPort":9999},7]}}',
         "spec.ports[1] must be an object, got 7"),
    ])
    def test_patch_invalid_json(self, kubectl, cluster, kind, patch, expected):
        before = cluster.state_version
        out = kubectl.run(f"kubectl patch {kind} web -n app -p '{patch}'")
        assert out.startswith("error:") and expected in out
        # a rejected patch never mutates, not even its well-formed half
        assert cluster.state_version == before
        assert len(cluster.pods_in("app")) == 2
        assert cluster.service_reachable("app", "web")

    def test_set_image(self, kubectl, cluster):
        out = kubectl.run("kubectl set image deployment/web web=img:v2 -n app")
        assert "image updated" in out
        dep = cluster.get_deployment("app", "web")
        assert dep.template.containers[0].image == "img:v2"

    def test_set_image_recreates_pods(self, kubectl, cluster):
        before = {p.name for p in cluster.pods_in("app")}
        kubectl.run("kubectl set image deployment/web web=img:v2 -n app")
        after = {p.name for p in cluster.pods_in("app")}
        assert before.isdisjoint(after)

    def test_rollout_restart(self, kubectl, cluster):
        before = {p.name for p in cluster.pods_in("app")}
        out = kubectl.run("kubectl rollout restart deployment/web -n app")
        assert "restarted" in out
        assert before.isdisjoint({p.name for p in cluster.pods_in("app")})

    def test_rollout_status_healthy(self, kubectl):
        out = kubectl.run("kubectl rollout status deployment/web -n app")
        assert "successfully rolled out" in out

    def test_patch_deployment_node_name(self, kubectl, cluster):
        patch = '{"spec":{"template":{"spec":{"nodeName":"node-404"}}}}'
        kubectl.run(f"kubectl patch deployment web -n app -p '{patch}'")
        assert all(p.phase.value == "Pending" for p in cluster.pods_in("app"))

    def test_edit_not_supported(self, kubectl):
        out = kubectl.run("kubectl edit svc web")
        assert "not supported" in out

    def test_apply_explains_alternative(self, kubectl):
        out = kubectl.run("kubectl apply -f x.yaml")
        assert "imperative" in out


class TestLogsExecTop:
    def test_logs_uses_source(self, cluster):
        cluster.create_namespace("app")
        cluster.create_deployment(make_deployment(name="web", ns="app"))
        pod = cluster.pods_in("app")[0].name
        k = Kubectl(cluster, log_source=lambda ns, p, n: f"{ns}/{p} tail={n}")
        out = k.run(f"kubectl logs {pod} -n app --tail 7")
        assert out == f"app/{pod} tail=7"

    def test_logs_missing_pod(self, cluster):
        k = Kubectl(cluster)
        out = k.run("kubectl logs ghost -n default")
        assert "NotFound" in out

    def test_exec_routes_to_handler(self, cluster):
        cluster.create_namespace("app")
        cluster.create_deployment(make_deployment(name="db", ns="app"))
        pod = cluster.pods_in("app")[0].name
        k = Kubectl(cluster, exec_handler=lambda ns, p, argv: " ".join(argv))
        out = k.run(f"kubectl exec {pod} -n app -- mongo --eval x")
        assert out == "mongo --eval x"

    def test_exec_leaves_the_container_argv_alone(self, cluster):
        cluster.create_namespace("app")
        cluster.create_deployment(make_deployment(name="db", ns="app"))
        pod = cluster.pods_in("app")[0].name
        k = Kubectl(cluster,
                    exec_handler=lambda ns, p, argv: f"{ns}: {' '.join(argv)}")
        out = k.run(f"kubectl exec {pod} -n app -- mongo --eval x -n other")
        assert out == "app: mongo --eval x -n other"

    def test_exec_without_handler(self, cluster):
        cluster.create_namespace("app")
        cluster.create_deployment(make_deployment(name="db", ns="app"))
        pod = cluster.pods_in("app")[0].name
        out = Kubectl(cluster).run(f"kubectl exec {pod} -n app -- ls")
        assert "not available" in out

    def test_top_without_metrics(self, cluster):
        out = Kubectl(cluster).run("kubectl top pods -n default")
        assert "Metrics API not available" in out

    def test_empty_command(self, cluster):
        out = Kubectl(cluster).run("")
        assert "error" in out.lower()
