from repro.services.backends import (
    CacheBackend,
    MemcachedBackend,
    MongoBackend,
    RedisBackend,
)


class TestMongoAuth:
    def make(self):
        backend = MongoBackend("geo-db")
        backend.create_user("admin", "pw", roles={"readWrite", "dbAdmin"})
        return backend

    def test_authenticate_success(self):
        assert self.make().authenticate("admin", "pw") == ""

    def test_authenticate_no_credentials(self):
        assert self.make().authenticate(None, None) == "no_credentials"

    def test_authenticate_unknown_user(self):
        assert self.make().authenticate("ghost", "pw") == "user_not_found"

    def test_authenticate_bad_password(self):
        assert self.make().authenticate("admin", "wrong") == "bad_password"

    def test_auth_disabled_accepts_anything(self):
        backend = MongoBackend("db", require_auth=False)
        assert backend.authenticate(None, None) == ""
        assert backend.authorize(None) == ""

    def test_authorize_success(self):
        assert self.make().authorize("admin", "find") == ""

    def test_authorize_after_revoke(self):
        backend = self.make()
        backend.revoke_roles("admin")
        assert backend.authorize("admin") == "not_authorized"
        # authentication still succeeds — only authorization fails
        assert backend.authenticate("admin", "pw") == ""

    def test_revoke_missing_user(self):
        assert not self.make().revoke_roles("ghost")

    def test_grant_restores_access(self):
        backend = self.make()
        backend.revoke_roles("admin")
        backend.grant_roles("admin", {"readWrite"})
        assert backend.authorize("admin") == ""

    def test_grant_missing_user(self):
        assert not self.make().grant_roles("ghost", {"readWrite"})

    def test_drop_user(self):
        backend = self.make()
        assert backend.drop_user("admin")
        assert backend.authenticate("admin", "pw") == "user_not_found"
        assert backend.authorize("admin") == "user_not_found"

    def test_drop_missing_user(self):
        assert not self.make().drop_user("ghost")

    def test_recreate_after_drop(self):
        backend = self.make()
        backend.drop_user("admin")
        backend.create_user("admin", "pw", roles={"readWrite"})
        assert backend.authenticate("admin", "pw") == ""
        assert backend.authorize("admin") == ""

    def test_revoke_specific_roles(self):
        backend = self.make()
        backend.revoke_roles("admin", {"dbAdmin"})
        # readWrite remains, so commands still authorized
        assert backend.authorize("admin") == ""


class TestCaches:
    def test_both_kinds_are_one_liveness_backend(self):
        for cls in (RedisBackend, MemcachedBackend):
            cache = cls("c")
            assert isinstance(cache, CacheBackend)
            assert cache.name == "c" and cache.up and cache.version == 0
            cache.up = False
            assert not cache.up and cache.version == 1
            cache.up = True
            assert cache.up and cache.version == 2
