"""The documented public API surface (paper Examples 2.1/2.3 imports)."""

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "3.5.0"

    def test_paper_example_imports(self):
        """Example 2.1 of the paper imports these names directly."""
        from repro import LocalizationTask, SocialNetwork  # noqa: F401
        from repro import Wrk, VirtFaultInjector  # noqa: F401

    def test_example_2_3_imports(self):
        from repro import Orchestrator  # noqa: F401

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_paper_example_2_1_shape(self):
        """The paper's problem-definition snippet, verbatim in structure."""
        from repro import LocalizationTask, SocialNetwork

        class K8STargetPortMisconf(LocalizationTask):
            def __init__(self):
                super().__init__("TargetPortMisconfig", target="user-service")
                self.app = SocialNetwork()
                self.ans = "user-service"

        problem = K8STargetPortMisconf()
        assert problem.ans == "user-service"
        assert problem.task_type == "localization"
