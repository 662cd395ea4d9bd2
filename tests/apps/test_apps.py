import pytest

from repro.apps import HotelReservation, SocialNetwork


class TestTopologies:
    def test_social_network_has_28_services(self, social):
        assert len(social.app.services) == 28

    def test_hotel_reservation_service_count(self, hotel):
        assert len(hotel.app.services) == 19

    def test_paper_localization_targets_exist_in_social(self, social):
        """Table 2's TargetPortMisconfig targets must be real services."""
        for target in ("user-service", "text-service", "post-storage-service"):
            assert target in social.app.services

    def test_all_operation_services_are_deployed(self, hotel, social):
        for bundle in (hotel, social):
            for op in bundle.app.operations.values():
                for svc in op.all_services():
                    assert svc in bundle.app.services, \
                        f"{op.name} references unknown service {svc}"

    def test_every_service_has_kubernetes_objects(self, hotel):
        ns = hotel.app.namespace
        for name in hotel.app.services:
            hotel.cluster.get_deployment(ns, name)
            hotel.cluster.get_service(ns, name)

    def test_mongo_backends_created(self, hotel):
        assert set(hotel.app.mongo_services()) == {
            "mongodb-geo", "mongodb-rate", "mongodb-recommendation",
            "mongodb-user", "mongodb-reservation", "mongodb-profile"}

    def test_workload_mix_references_real_operations(self, hotel, social):
        for bundle in (hotel, social):
            for op in bundle.app.workload_mix():
                assert op in bundle.app.operations

    def test_workload_mix_values_and_order(self):
        """The mix is read off ``Operation.weight``; its order fixes the
        driver's ``rng.choice`` draws, so both are pinned."""
        assert list(HotelReservation().workload_mix().items()) == [
            ("search_hotel", 0.6), ("recommend", 0.3), ("reserve", 0.05),
            ("login", 0.05)]
        assert list(SocialNetwork().workload_mix().items()) == [
            ("compose_post", 0.1), ("read_home_timeline", 0.6),
            ("read_user_timeline", 0.3)]

    def test_frontend_url_shape(self, hotel):
        assert hotel.app.frontend_url == \
            "http://frontend.test-hotel-reservation.svc.cluster.local:5000"

    def test_credential_secrets_provisioned(self, hotel):
        sec = hotel.cluster.get_secret(hotel.app.namespace,
                                       "mongodb-geo-credentials")
        assert sec.data["username"] == "admin"
        assert sec.data["password"] == "geo-pass"


class TestCredentials:
    def test_default_credentials_resolve(self, hotel):
        creds = hotel.app.get_credentials("geo", "mongodb-geo")
        assert creds == ("admin", "geo-pass")

    def test_unknown_backend_returns_none(self, hotel):
        assert hotel.app.get_credentials("geo", "not-a-backend") is None

    def test_credentials_read_live_from_release(self, hotel):
        release = hotel.app.helm.releases[hotel.app.release_name]
        release.values["mongo_credentials"]["mongodb-geo"] = None
        assert hotel.app.get_credentials("geo", "mongodb-geo") is None


class TestExecHandler:
    def _mongo_pod(self, bundle, service):
        pods = [p for p in bundle.cluster.pods_in(bundle.app.namespace)
                if p.owner == service]
        return pods[0].name

    def test_grant_roles_via_mongo_shell(self, hotel):
        backend = hotel.app.backends["mongodb-geo"]
        backend.revoke_roles("admin")
        pod = self._mongo_pod(hotel, "mongodb-geo")
        out = hotel.app.exec_handler(
            hotel.app.namespace, pod,
            ["mongo", "--eval", "db.grantRolesToUser('admin', ['readWrite'])"])
        assert '"ok" : 1' in out
        assert backend.authorize("admin") == ""

    def test_create_user_via_mongo_shell(self, hotel):
        backend = hotel.app.backends["mongodb-user"]
        backend.drop_user("admin")
        pod = self._mongo_pod(hotel, "mongodb-user")
        out = hotel.app.exec_handler(
            hotel.app.namespace, pod,
            ["mongo", "--eval",
             "db.createUser({user: 'admin', pwd: 'user-pass', roles: ['readWrite']})"])
        assert '"ok" : 1' in out
        assert backend.authenticate("admin", "user-pass") == ""

    def test_get_users_lists_accounts(self, hotel):
        pod = self._mongo_pod(hotel, "mongodb-geo")
        out = hotel.app.exec_handler(hotel.app.namespace, pod,
                                     ["mongo", "--eval", "db.getUsers()"])
        assert "admin" in out

    def test_grant_on_missing_user_errors(self, hotel):
        backend = hotel.app.backends["mongodb-geo"]
        backend.drop_user("admin")
        pod = self._mongo_pod(hotel, "mongodb-geo")
        out = hotel.app.exec_handler(
            hotel.app.namespace, pod,
            ["mongo", "--eval", "db.grantRolesToUser('admin', ['readWrite'])"])
        assert "Could not find user" in out

    def test_mongo_shell_on_non_mongo_pod(self, hotel):
        pods = [p for p in hotel.cluster.pods_in(hotel.app.namespace)
                if p.owner == "frontend"]
        out = hotel.app.exec_handler(hotel.app.namespace, pods[0].name,
                                     ["mongo", "--eval", "db.getUsers()"])
        assert "command not found" in out

    def test_unknown_binary(self, hotel):
        pod = self._mongo_pod(hotel, "mongodb-geo")
        out = hotel.app.exec_handler(hotel.app.namespace, pod, ["python3"])
        assert "command not found" in out

    def test_wrong_namespace_rejected(self, hotel):
        out = hotel.app.exec_handler("other-ns", "pod", ["ls"])
        assert "not managed" in out


class TestDeployGuards:
    def test_deploy_is_required_before_runtime(self):
        app = HotelReservation()
        assert app.runtime is None

    def test_two_apps_can_coexist(self, cluster):
        from repro.telemetry import TelemetryCollector
        collector = TelemetryCollector(cluster.clock, seed=0)
        h = HotelReservation()
        s = SocialNetwork()
        h.deploy(cluster, collector, seed=0)
        s.deploy(cluster, collector, seed=0)
        assert h.runtime.execute("search_hotel").ok
        assert s.runtime.execute("read_home_timeline").ok
