import pytest

from repro.services.errors import RpcErrorKind


class TestHealthyExecution:
    def test_all_operations_succeed(self, hotel):
        for op in hotel.app.operations:
            result = hotel.runtime.execute(op)
            assert result.ok, f"{op} failed: {result.error}"

    def test_latency_positive_and_composed(self, hotel):
        result = hotel.runtime.execute("search_hotel")
        assert result.latency_ms > 1.0

    def test_traces_recorded(self, hotel):
        before = len(hotel.collector.traces)
        hotel.runtime.execute("search_hotel")
        assert len(hotel.collector.traces) == before + 1

    def test_trace_covers_call_graph(self, hotel):
        result = hotel.runtime.execute("search_hotel")
        trace = hotel.collector.traces.query()[-1]
        services = {s.service for s in trace.spans}
        assert {"frontend", "search", "geo", "mongodb-geo"} <= services

    def test_unknown_operation_rejected(self, hotel):
        with pytest.raises(KeyError):
            hotel.runtime.execute("no_such_op")

    def test_request_metrics_recorded(self, hotel):
        hotel.runtime.execute("search_hotel")
        hotel.collector.scrape(hotel.cluster, hotel.app.namespace)
        assert hotel.collector.metrics.snapshot_latest("request_rate")


class TestMongoFaultPath:
    def test_revoked_auth_fails_geo_path(self, hotel):
        hotel.app.backends["mongodb-geo"].revoke_roles("admin")
        result = hotel.runtime.execute("search_hotel")
        assert not result.ok
        assert result.error.kind is RpcErrorKind.NOT_AUTHORIZED

    def test_error_logged_at_caller_service(self, hotel):
        """Figure 4: injection at mongodb-geo, geo generates error logs."""
        hotel.app.backends["mongodb-geo"].revoke_roles("admin")
        hotel.runtime.execute("search_hotel")
        geo_logs = hotel.collector.logs.query(
            namespace=hotel.app.namespace, service="geo", level="ERROR")
        assert any("not authorized on geo-db" in r.message for r in geo_logs)

    def test_error_propagates_up_the_chain(self, hotel):
        hotel.app.backends["mongodb-geo"].revoke_roles("admin")
        hotel.runtime.execute("search_hotel")
        for svc in ("geo", "search", "frontend"):
            logs = hotel.collector.logs.query(
                namespace=hotel.app.namespace, service=svc, level="ERROR")
            assert logs, f"{svc} should log the propagated failure"

    def test_unrelated_operation_unaffected(self, hotel):
        hotel.app.backends["mongodb-geo"].revoke_roles("admin")
        result = hotel.runtime.execute("login")  # user path, not geo
        assert result.ok

    def test_dropped_user_yields_user_not_found(self, hotel):
        hotel.app.backends["mongodb-user"].drop_user("admin")
        result = hotel.runtime.execute("login")
        assert not result.ok
        assert result.error.kind is RpcErrorKind.USER_NOT_FOUND

    def test_error_span_marked(self, hotel):
        hotel.app.backends["mongodb-geo"].revoke_roles("admin")
        result = hotel.runtime.execute("search_hotel")
        trace = [t for t in hotel.collector.traces.query()
                 if t.trace_id == result.trace_id][0]
        assert trace.has_error
        assert "mongodb-geo" in trace.error_services()


class TestConnectivityFaultPath:
    def test_scaled_to_zero_is_connection_refused(self, social):
        social.cluster.scale_deployment(social.app.namespace,
                                        "post-storage-service", 0)
        result = social.runtime.execute("read_home_timeline")
        assert not result.ok
        assert result.error.kind is RpcErrorKind.CONNECTION_REFUSED
        assert 'service "post-storage-service"' in result.error.message

    def test_network_loss_drops_requests(self, hotel):
        hotel.runtime.network_loss["search"] = 1.0
        result = hotel.runtime.execute("search_hotel")
        assert not result.ok
        assert result.error.kind is RpcErrorKind.NETWORK_DROP

    def test_partial_loss_is_probabilistic(self, hotel):
        hotel.runtime.network_loss["search"] = 0.5
        outcomes = {hotel.runtime.execute("search_hotel").ok
                    for _ in range(40)}
        assert outcomes == {True, False}

    def test_buggy_image_read_from_live_deployment(self, hotel):
        """`kubectl set image` on the deployment template must drive the
        runtime's behaviour (so mitigation by image rollback works)."""
        dep = hotel.cluster.get_deployment(hotel.app.namespace, "geo")
        dep.template.containers[0].image = "hotel-geo:buggy-v2"
        result = hotel.runtime.execute("search_hotel")
        assert not result.ok
        assert result.error.kind is RpcErrorKind.APP_BUG
        # rollback
        dep.template.containers[0].image = "hotel-geo:latest"
        assert hotel.runtime.execute("search_hotel").ok

    def test_frontend_down_fails_fast(self, hotel):
        hotel.cluster.scale_deployment(hotel.app.namespace, "frontend", 0)
        result = hotel.runtime.execute("search_hotel")
        assert not result.ok
        assert result.error.kind is RpcErrorKind.CONNECTION_REFUSED

    def test_deleted_service_is_unavailable(self, hotel):
        """A Service the agent deleted is the agent's problem: the hop
        fails with the same ``unavailable`` RpcError as ever (values
        pinned from before the probe narrowed to ResourceNotFound)."""
        hotel.cluster.delete_service(hotel.app.namespace, "geo")
        result = hotel.runtime.execute("search_hotel")
        assert not result.ok
        assert result.error.kind is RpcErrorKind.UNAVAILABLE
        assert result.error.message == \
            'rpc error: code = Unavailable desc = service "geo" not found'
        assert result.latency_ms == 3.169402301824175
        assert result.error_services == ["search", "frontend"]

    def test_simulator_bug_in_lookup_propagates(self, hotel, monkeypatch):
        """Anything but ResourceNotFound out of the cluster lookup is a
        simulator bug and must not be rendered as "service not found"."""
        def broken(namespace, name):
            raise KeyError(name)
        monkeypatch.setattr(hotel.cluster, "get_service", broken)
        with pytest.raises(KeyError):
            hotel.runtime.execute("search_hotel")


class TestLogPodAttribution:
    """`_pod_for` is memoized (it used to scan every pod per log line);
    the memo must track pod churn, not serve stale names."""

    def test_log_attribution_tracks_pod_delete(self, hotel):
        ns = hotel.app.namespace
        rt = hotel.runtime
        pod_before = rt._pod_for("geo")
        assert pod_before.startswith("geo-")
        hotel.cluster.delete_pod(ns, pod_before)
        pod_after = rt._pod_for("geo")
        assert pod_after.startswith("geo-")
        assert pod_after != pod_before, \
            "stale memo: logs still attributed to the deleted pod"
        rt._log("geo", "INFO", "post-delete line")
        rec = hotel.collector.logs.query(namespace=ns, service="geo")[-1]
        assert rec.pod == pod_after
        # the recreated pod exists and is the attribution target
        assert any(p.name == pod_after
                   for p in hotel.cluster.pods_in(ns) if p.owner == "geo")

    def test_log_attribution_tracks_crash_loop_flag(self, hotel):
        """Crash-loop flips mutate pods in place (no dict-version bump);
        the reconcile-driven state version must still invalidate the memo."""
        ns = hotel.app.namespace
        rt = hotel.runtime
        assert rt._pod_for("geo").startswith("geo-")
        for pod in hotel.cluster.pods_in(ns):
            if pod.owner == "geo":
                pod.crash_looping = True
        hotel.cluster.reconcile()
        assert rt._pod_for("geo") == "geo-<none>"

    def test_memo_hit_is_stable_between_mutations(self, hotel):
        rt = hotel.runtime
        first = rt._pod_for("search")
        assert rt._pod_for("search") is first  # same cached string object


class TestCredentialsProvider:
    def test_missing_credentials_fail_handshake(self, hotel):
        release = hotel.app.helm.releases[hotel.app.release_name]
        release.values["mongo_credentials"]["mongodb-rate"] = None
        result_errors = [
            hotel.runtime.execute("search_hotel").error for _ in range(3)
        ]
        kinds = {e.kind for e in result_errors if e}
        assert RpcErrorKind.AUTH_FAILED in kinds

    def test_helm_upgrade_restores_access(self, hotel):
        release = hotel.app.helm.releases[hotel.app.release_name]
        release.values["mongo_credentials"]["mongodb-rate"] = None
        assert not hotel.runtime.execute("search_hotel").ok
        release.values["mongo_credentials"]["mongodb-rate"] = {
            "username": "admin", "password": "rate-pass"}
        assert hotel.runtime.execute("search_hotel").ok
