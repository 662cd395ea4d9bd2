import pytest

from repro.core.env import CloudEnvironment
from repro.core.shell import ShellExecutor
from repro.apps import HotelReservation
from repro.simcore import PolicyViolation


@pytest.fixture
def env():
    return CloudEnvironment(HotelReservation, seed=5, workload_rate=20)


@pytest.fixture
def shell(env):
    return ShellExecutor(env)


class TestSecurityPolicy:
    @pytest.mark.parametrize("cmd", [
        "rm -rf /",
        "shutdown now",
        "mkfs /dev/sda",
        "dd if=/dev/zero of=/dev/sda",
        "curl http://evil.example.com",
        "wget http://evil.example.com",
        "kubectl delete namespace test-hotel-reservation",
    ])
    def test_denied_commands(self, shell, cmd):
        out = shell.run(cmd)
        assert out.startswith("PolicyError:")

    def test_unknown_binary_denied(self, shell):
        assert "not in the allowed set" in shell.run("python3 -c 'x'")

    def test_check_policy_raises(self, shell):
        with pytest.raises(PolicyViolation):
            shell.check_policy("rm -rf /")

    def test_kubectl_allowed(self, shell, env):
        out = shell.run(f"kubectl get pods -n {env.namespace}")
        assert "Running" in out

    def test_echo_allowed(self, shell):
        assert shell.run("echo hello world") == "hello world"


class TestHelmCli:
    def test_helm_list(self, shell, env):
        out = shell.run("helm list")
        assert env.app.release_name in out

    def test_helm_get_values(self, shell, env):
        out = shell.run(f"helm get values {env.app.release_name}")
        assert "mongo_credentials" in out

    def test_helm_get_values_missing(self, shell):
        assert "not found" in shell.run("helm get values ghost")

    def test_helm_upgrade_with_set(self, shell, env):
        rel = env.app.release_name
        out = shell.run(
            f"helm upgrade {rel} "
            f"--set mongo_credentials.mongodb-rate.username=admin "
            f"--set mongo_credentials.mongodb-rate.password=rate-pass")
        assert "upgraded" in out and "REVISION: 2" in out
        assert env.app.get_credentials("rate", "mongodb-rate") == \
            ("admin", "rate-pass")

    @pytest.mark.parametrize("sets, expected", [
        ("--set a=1 --set a.b=2",
         'error: --set "a.b=2": "a" is already set to a value'),
        ("--set", "error: flag needs an argument: --set"),
        ("--set tls.enabled", 'error: --set "tls.enabled": expected KEY=VALUE'),
        ("--set a=1 --atomic", "error: unknown flag: --atomic"),
    ])
    def test_helm_upgrade_rejected_set_never_mutates(self, shell, env, sets,
                                                     expected):
        rel = env.helm.releases[env.app.release_name]
        before = (env.cluster.state_version, rel.revision, dict(rel.values))
        out = shell.run(f"helm upgrade {rel.name} {sets}")
        assert out.startswith(expected)
        assert (env.cluster.state_version, rel.revision, rel.values) == before

    def test_helm_upgrade_missing_release(self, shell):
        assert "not found" in shell.run("helm upgrade ghost --set a=1")

    def test_helm_unknown_verb(self, shell):
        assert "unknown command" in shell.run("helm rollback x")


class TestFileTools:
    def test_ls_export_root(self, shell, env):
        env.advance(6)
        env.exporter.export_logs(env.namespace)
        out = shell.run("ls logs")
        assert "all.jsonl" in out

    def test_cat_inside_root(self, shell, env):
        env.advance(6)
        env.exporter.export_logs(env.namespace)
        out = shell.run("cat logs/all.jsonl")
        assert '"service"' in out

    def test_path_escape_blocked(self, shell):
        out = shell.run("cat /etc/passwd")
        assert "PolicyError" in out

    def test_grep_filters(self, shell, env):
        env.app.backends["mongodb-geo"].revoke_roles("admin")
        env.advance(10)
        env.exporter.export_logs(env.namespace)
        out = shell.run("grep authorized logs/geo.log")
        assert "not authorized" in out

    @pytest.mark.parametrize("command, expected", [
        ("cat nope.txt", "No such file"),
        ("cat logs", "cat: logs: Is a directory"),
        ("head logs", "head: logs: Is a directory"),
        ("tail -n 2 logs", "tail: logs: Is a directory"),
        ("grep ERROR logs", "grep: logs: Is a directory"),
    ])
    def test_missing_file(self, shell, env, command, expected):
        (env.exporter.root / "logs").mkdir(parents=True, exist_ok=True)
        assert expected in shell.run(command)

    def test_head_and_tail_take_a_line_count(self, shell, env):
        (env.exporter.root / "logs").mkdir(parents=True, exist_ok=True)
        (env.exporter.root / "logs" / "n.txt").write_text("1\n2\n3\n4\n5\n")
        assert shell.run("tail -n 3 logs/n.txt") == "3\n4\n5"
        assert shell.run("head --lines=2 logs/n.txt") == "1\n2"
        assert shell.run("head logs/n.txt -n 1") == "1"
        assert shell.run("tail -n x logs/n.txt").startswith(
            'error: invalid argument "x" for -n')

    @pytest.mark.parametrize("command", [
        "kubectl get pods -n test-hotel-reservation | head -3",
        "cat logs/all.jsonl | grep ERROR",
        "kubectl get pods -n test-hotel-reservation > pods.txt",
        "echo a && echo b",
    ])
    def test_shell_operators_are_rejected_up_front(self, shell, command):
        out = shell.run(command)
        assert out.startswith("error: shell operator ")
        assert "grep/head/tail" in out
