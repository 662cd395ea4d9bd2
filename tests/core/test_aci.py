import pytest

from repro.apps import HotelReservation
from repro.core.aci import SubmissionReceived, TaskActions, registry_for
from repro.core.env import CloudEnvironment


@pytest.fixture
def env():
    return CloudEnvironment(HotelReservation, seed=5, workload_rate=20)


@pytest.fixture
def actions(env):
    env.advance(10)
    return TaskActions(env)


class TestGetLogs:
    def test_all_summary_lists_error_services(self, env, actions):
        env.app.backends["mongodb-geo"].revoke_roles("admin")
        env.advance(10)
        out = actions.get_logs(env.namespace, "all")
        assert "ERROR lines per service" in out and "geo" in out

    def test_all_clean_system(self, env, actions):
        out = actions.get_logs(env.namespace, "all")
        assert "No ERROR-level log lines" in out

    def test_specific_service_tail(self, env, actions):
        env.app.backends["mongodb-geo"].revoke_roles("admin")
        env.advance(10)
        out = actions.get_logs(env.namespace, "geo")
        assert "not authorized on geo-db" in out

    def test_returns_save_path(self, env, actions):
        out = actions.get_logs(env.namespace, "all")
        assert str(env.exporter.root) in out

    def test_unknown_namespace_is_paper_error(self, actions):
        out = actions.get_logs("ghost-ns", "geo")
        assert out.startswith("Error: Your service/namespace does not exist")

    def test_unknown_service_is_paper_error(self, env, actions):
        """§3.6.3's example: a bad service name gets the namespace error."""
        out = actions.get_logs(env.namespace, "Social Network")
        assert out.startswith("Error: Your service/namespace does not exist")


class TestGetMetricsTraces:
    def test_metrics_snapshot(self, env, actions):
        out = actions.get_metrics(env.namespace, 5)
        assert "err_rate" in out and "frontend" in out

    def test_traces_clean(self, env, actions):
        out = actions.get_traces(env.namespace, 5)
        assert "No error spans" in out

    def test_traces_show_error_services(self, env, actions):
        env.app.backends["mongodb-geo"].revoke_roles("admin")
        env.advance(10)
        out = actions.get_traces(env.namespace, 5)
        assert "error span" in out or "% of spans errored" in out

    def test_metrics_bad_namespace(self, actions):
        assert actions.get_metrics("ghost", 5).startswith("Error:")


class TestExecAndSubmit:
    def test_exec_shell_routes_kubectl(self, env, actions):
        out = actions.exec_shell(f"kubectl get pods -n {env.namespace}")
        assert "Running" in out

    def test_exec_shell_policy(self, actions):
        assert "PolicyError" in actions.exec_shell("rm -rf /")

    def test_submit_raises_sentinel(self, actions):
        with pytest.raises(SubmissionReceived) as exc:
            actions.submit("yes")
        assert exc.value.solution == "yes"

    def test_submit_default_none(self, actions):
        with pytest.raises(SubmissionReceived) as exc:
            actions.submit()
        assert exc.value.solution is None


class TestApiDocs:
    def test_docs_cover_every_action(self):
        docs = registry_for().render_docs()
        for api in ("get_logs", "get_metrics", "get_traces", "exec_shell",
                    "submit"):
            assert api + "(" in docs

    def test_docs_include_signatures_and_args(self):
        docs = registry_for().render_docs()
        assert "namespace:" in docs
        assert "Args:" in docs

    def test_private_methods_excluded(self):
        assert "_investigate" not in registry_for().render_docs()
