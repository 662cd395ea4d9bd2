import pytest

from repro.agents.policy import DiagnosticPolicy, RCA_MAP
from repro.simcore import RngStream


@pytest.fixture
def policy():
    p = DiagnosticPolicy("localization", RngStream(0, "t"))
    p.ingest_context(
        'operating the SocialNetwork microservice application deployed in '
        'Kubernetes namespace "test-sn".\n'
        "Services: nginx-web-server, user-service, text-service, user-mongodb.\n"
        "Task: x")
    return p


class TestContextIngestion:
    def test_namespace_parsed(self, policy):
        assert policy.belief.namespace == "test-sn"

    def test_services_parsed(self, policy):
        assert "user-service" in policy.belief.app_services


class TestObservationParsing:
    def test_error_counts(self, policy):
        policy.ingest_observation(
            "Saved logs to /x. ERROR lines per service:\n"
            "  nginx-web-server: 40 ERROR lines\n"
            "  user-service: 12 ERROR lines")
        assert policy.belief.error_counts == {
            "nginx-web-server": 40, "user-service": 12}

    def test_edge_signature_not_authorized(self, policy):
        policy.ingest_observation(
            "ERROR [geo] failed to call mongodb-geo.find: (Unauthorized) "
            "not authorized on geo-db to execute command { find }")
        assert policy.belief.edge_signatures["mongodb-geo"] == "revoke_auth"

    def test_edge_signature_connection_refused_inner_service(self, policy):
        """Connection-refused must attribute to the *named* unreachable
        service, not the direct callee (deep propagation)."""
        policy.ingest_observation(
            "ERROR [nginx] failed to call compose-post-service.compose: "
            'dial tcp: connect: connection refused (service "user-service" '
            "port 9100 has no ready endpoints)")
        assert policy.belief.edge_signatures["user-service"] == "connectivity"

    def test_pod_rows_parsed_with_status(self, policy):
        policy.ingest_observation(
            "NAME                                READY   STATUS    RESTARTS   AGE\n"
            "user-service-a1b2c3d4e-f5g6h       1/1     Running   0          2m\n"
            "text-service-a1b2c3d4e-zzzzz       0/1     Pending   0          2m")
        assert policy.belief.pods_status["user-service"] == "Running"
        assert policy.belief.pods_status["text-service"] == "Pending"

    def test_deployment_rows_not_mistaken_for_pods(self, policy):
        policy.ingest_observation(
            "NAME                READY   UP-TO-DATE   AVAILABLE   AGE\n"
            "user-service        1/1     1            1           2m")
        assert "user" not in policy.belief.pods_status
        assert policy.belief.deployments_desired["user-service"] == 1

    def test_endpoints_empty_detected(self, policy):
        policy.ingest_observation(
            "NAME           ENDPOINTS            AGE\n"
            "user-service   <none>               2m\n"
            "text-service   10.244.0.5:9095      2m")
        assert "user-service" in policy.belief.endpoints_empty
        assert "text-service" not in policy.belief.endpoints_empty

    def test_secret_credentials_parsed(self, policy):
        policy.ingest_observation(
            "Name:         user-mongodb-credentials\nNamespace:    ns\n"
            "Type:         Opaque\n\nData\n====\n"
            "password:  user-pass\nusername:  admin")
        assert policy.belief.secret_creds["user-mongodb"] == ("admin", "user-pass")

    def test_helm_list_sets_release(self, policy):
        policy.ingest_observation(
            "NAME\tNAMESPACE\tREVISION\tCHART\nsn-release\ttest-sn\t1\tsn-0.1.0")
        assert policy.belief.release_name == "sn-release"

    def test_error_observation_recorded(self, policy):
        policy.ingest_observation("Error: Your service/namespace does not exist")
        assert policy.belief.last_error_observation


class TestDiagnosis:
    def test_auth_signature_diagnoses_revoke(self, policy):
        policy.ingest_observation(
            "ERROR [geo] failed to call user-mongodb.find: (Unauthorized) "
            "not authorized on user-db to execute command")
        assert policy.belief.diagnosis.fault_key == "revoke_auth"
        assert policy.belief.diagnosis.target == "user-mongodb"

    def test_connectivity_plus_zero_replicas_is_scale_fault(self, policy):
        policy.ingest_observation(
            'ERROR [a] failed to call b.x: connection refused (service '
            '"user-service" port 9100 has no ready endpoints)')
        policy.ingest_observation(
            "NAME           READY   UP-TO-DATE   AVAILABLE   AGE\n"
            "user-service   0/0     0            0           2m")
        assert policy.belief.diagnosis.fault_key == "scale_pod_zero"

    def test_connectivity_plus_pending_is_node_fault(self, policy):
        policy.ingest_observation(
            'ERROR [a] failed to call b.x: connection refused (service '
            '"user-service" port 9100 has no ready endpoints)')
        policy.ingest_observation(
            "NAME                              READY   STATUS    RESTARTS   AGE\n"
            "user-service-abcde12345-fghij     0/1     Pending   0          2m")
        assert policy.belief.diagnosis.fault_key == "assign_to_non_existent_node"

    def test_connectivity_plus_empty_endpoints_is_port_misconfig(self, policy):
        policy.ingest_observation(
            'ERROR [a] failed to call b.x: connection refused (service '
            '"user-service" port 9100 has no ready endpoints)')
        policy.ingest_observation(
            "NAME                              READY   STATUS    RESTARTS  AGE\n"
            "user-service-abcde12345-fghij     1/1     Running   0         2m")
        policy.ingest_observation(
            "NAME           ENDPOINTS   AGE\nuser-service   <none>      2m")
        assert policy.belief.diagnosis.fault_key == "misconfig_k8s"

    def test_rca_map_complete(self):
        for key, (level, ftype) in RCA_MAP.items():
            assert level in ("application", "virtualization", "network")
            assert ftype


class TestPlanning:
    def test_first_action_is_get_logs(self, policy):
        assert policy.next_action() == 'get_logs("test-sn", "all")'

    def test_detection_submits_yes_on_evidence(self):
        p = DiagnosticPolicy("detection", RngStream(0, "t"))
        p.ingest_context('namespace "ns". Services: a, b.')
        p.ingest_observation("Saved logs. ERROR lines per service:\n"
                             "  a: 10 ERROR lines")
        # next action drills into the top error service or submits
        assert p.next_action() == 'submit("yes")'

    def test_detection_submits_no_after_clean_sweep(self):
        p = DiagnosticPolicy("detection", RngStream(0, "t"))
        p.ingest_context('namespace "ns". Services: a, b.')
        p.ingest_observation("Saved logs. No ERROR-level log lines found.")
        p.ingest_observation("NAME  READY   STATUS    RESTARTS\n")
        p.ingest_observation("Saved metrics. Latest snapshot:\n"
                             "  a: cpu=50m req_rate=10.0/s err_rate=0.00/s")
        assert p.next_action() == 'submit("no")'

    def test_localization_submits_after_diagnosis(self, policy):
        policy.ingest_observation(
            "ERROR [geo] failed to call user-mongodb.find: (Unauthorized) "
            "not authorized on user-db to execute command")
        action = policy.next_action()
        assert action.startswith("submit(") and "user-mongodb" in action

    def test_mitigation_scale_fix(self):
        p = DiagnosticPolicy("mitigation", RngStream(0, "t"))
        p.ingest_context('namespace "ns". Services: a, user-service.')
        p.ingest_observation(
            'ERROR [a] failed to call b.x: connection refused (service '
            '"user-service" port 9100 has no ready endpoints)')
        p.ingest_observation(
            "NAME           READY   UP-TO-DATE   AVAILABLE   AGE\n"
            "user-service   0/0     0            0           2m")
        action = p.next_action()
        assert "kubectl scale deployment user-service --replicas=1" in action
        # after the fix, the plan verifies with fresh metrics...
        assert p.next_action() == 'get_metrics("ns", 1)'
        # ...and submits once the error rates look clean
        p.ingest_observation("Saved metrics. Latest snapshot:\n"
                             "  a: cpu=50m req_rate=10.0/s err_rate=0.00/s")
        assert p.next_action() == "submit()"

    def test_flail_action_valid(self, policy):
        from repro.core.aci import DEFAULT_REGISTRY
        from repro.core.parser import parse_action
        for _ in range(10):  # must always parse
            parse_action(policy.flail_action(), DEFAULT_REGISTRY.names())

    def test_no_traces_profile_never_plans_traces(self):
        p = DiagnosticPolicy("localization", RngStream(0, "t"),
                             use_traces=False)
        p.ingest_context('namespace "ns". Services: a.')
        for _ in range(12):
            action = p.next_action()
            assert not action.startswith("get_traces")
            p.ingest_observation("Saved logs. No ERROR-level log lines found.")
