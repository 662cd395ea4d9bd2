import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_problems_flags(self):
        args = build_parser().parse_args(
            ["list-problems", "--task", "detection", "--include-noop"])
        assert args.task == "detection" and args.include_noop


class TestCommands:
    def test_list_problems(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 48

    def test_list_problems_task_filter(self, capsys):
        main(["list-problems", "--task", "mitigation"])
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 11 and all("-mitigation-" in p for p in out)

    def test_show_pool(self, capsys):
        assert main(["show-pool"]) == 0
        out = capsys.readouterr().out
        assert "TargetPortMisconfig" in out and "# Problems" in out

    def test_run_problem_oracle(self, capsys, tmp_path):
        save = tmp_path / "traj.jsonl"
        rc = main(["run-problem", "revoke_auth_hotel_res-detection-1",
                   "--agent", "oracle", "--seed", "3",
                   "--save", str(save)])
        out = capsys.readouterr().out
        assert rc == 0 and "success: True" in out
        assert save.exists()

    def test_run_problem_failure_exit_code(self, capsys):
        rc = main(["run-problem", "revoke_auth_hotel_res-mitigation-1",
                   "--agent", "random", "--seed", "3", "--max-steps", "5"])
        assert rc == 1

    def test_run_benchmark_reduced(self, capsys):
        rc = main(["run-benchmark", "--agents", "oracle",
                   "--task", "detection", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0 and "Overall (Table 3)" in out

    def test_run_benchmark_concurrency_prints_same_tables(
            self, capsys, monkeypatch):
        """``--concurrency 2`` reaches the process pool; Table 3 must not
        depend on it (2 pids × 1 agent)."""
        import repro.problems
        pids = repro.problems.list_problems("detection")[:2]
        monkeypatch.setattr(repro.problems, "list_problems",
                            lambda task=None: pids)

        def table3(concurrency):
            rc = main(["run-benchmark", "--agents", "flash", "--task",
                       "detection", "--seed", "3", "--max-steps", "6",
                       "--concurrency", str(concurrency)])
            assert rc == 0
            out = capsys.readouterr().out
            return out[out.index("Overall (Table 3)"):]

        assert table3(2) == table3(1)

    def test_make_report_flags_parse(self):
        args = build_parser().parse_args(
            ["make-report", "--seed", "7", "-o", "out.md"])
        assert args.seed == 7 and args.output == "out.md"

    @pytest.mark.parametrize("argv, message", [
        (["run-problem", "no_such_pid"], "unknown problem id 'no_such_pid'"),
        (["run-problem", "revoke_auth_hotel_res-detection-1",
          "--agent", "nope"], "unknown agent 'nope'"),
        (["run-problem", "revoke_auth_hotel_res-detection-1",
          "--max-steps", "-1"], "--max-steps must be >= 1, got -1"),
        (["run-benchmark", "--agents", "nope"], "unknown agent 'nope'"),
        (["run-benchmark", "--agents", "flash", "--max-steps", "0"],
         "--max-steps must be >= 1, got 0"),
        (["run-benchmark", "--concurrency", "0"],
         "--concurrency must be >= 1, got 0"),
    ])
    def test_bad_input_is_an_error_line_not_a_traceback(
            self, capsys, argv, message):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
