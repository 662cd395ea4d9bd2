from repro.bench import BenchmarkRunner


class TestStepLimitSweep:
    def test_sweep_shape(self):
        runner = BenchmarkRunner(max_steps=8, seed=4)
        pids = ["revoke_auth_hotel_res-detection-1"]
        series = runner.run_suite(agents=("oracle",),
                                  pids=pids).step_limit_series((2, 8))
        assert set(series) == {"oracle"}
        assert set(series["oracle"]) == {2, 8}
        assert all(0.0 <= v <= 1.0 for v in series["oracle"].values())

    def test_oracle_improves_with_budget(self):
        """With 1 step the oracle cannot even look before submitting; with
        8 it solves the problem — the Figure-5 mechanism in miniature."""
        runner = BenchmarkRunner(max_steps=10, seed=4)
        pids = ["revoke_auth_hotel_res-localization-1"]
        series = runner.run_suite(agents=("oracle",),
                                  pids=pids).step_limit_series((1, 10))
        assert series["oracle"][10] >= series["oracle"][1]
        assert series["oracle"][10] == 1.0
