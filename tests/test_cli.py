"""Tests for the command-line interface."""

import pytest

from repro.cli import build_query, cluster_config, main, make_parser


@pytest.fixture(autouse=True)
def _isolated_cli_environment(tmp_path, monkeypatch):
    """``main`` maps CLI flags onto ``REPRO_*`` env; keep that inside the
    test — any disk tier writes to a tmp dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    # Pre-touch the backend keys so monkeypatch restores them even when a
    # test's --backend/--workers flags overwrite them inside ``main``.
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "serial")
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "0")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_defaults(self):
        args = make_parser().parse_args(["run"])
        assert args.workload == "mobile"
        assert args.method == "ours"
        assert args.kp == 96

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["run", "--method", "spark"])


class TestHelpers:
    def test_build_query_mobile(self):
        query = build_query("mobile", 1, 20, seed=0)
        assert query.name == "mobile-Q1"

    def test_build_query_tpch(self):
        query = build_query("tpch", 17, 200, seed=0)
        assert query.name == "tpch-Q17"

    def test_build_query_unknown(self):
        with pytest.raises(SystemExit):
            build_query("spark", 1, 20, seed=0)

    def test_cluster_config_kp(self):
        assert cluster_config(96).total_units == 96
        assert cluster_config(64).total_units == 64


class TestCommands:
    def test_plan_command(self, capsys):
        assert main(["plan", "--workload", "mobile", "--query", "1",
                     "--volume", "20"]) == 0
        out = capsys.readouterr().out
        assert "Plan mobile-Q1-ours" in out

    def test_run_command(self, capsys):
        assert main(["run", "--workload", "mobile", "--query", "1",
                     "--volume", "20", "--method", "hive"]) == 0
        out = capsys.readouterr().out
        assert "result rows" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "--workload", "mobile", "--query", "1",
                     "--volume", "20"]) == 0
        out = capsys.readouterr().out
        assert "all methods agree" in out

    def test_explain_command(self, capsys):
        assert main(["explain", "--workload", "mobile", "--query", "1",
                     "--volume", "20"]) == 0
        out = capsys.readouterr().out
        assert "Join graph GJ" in out
        assert "G'JP:" in out
        assert "Chosen plan" in out

    def test_sql_command(self, capsys):
        sql = ("SELECT t2.id FROM table t1, table t2 "
               "WHERE t1.d = t2.d AND t1.bt <= t2.bt")
        assert main(["sql", sql, "--workload", "mobile"]) == 0
        out = capsys.readouterr().out
        assert "result rows" in out
        assert "adhoc" in out

    def test_sql_command_tpch(self, capsys):
        sql = ("SELECT l.orderkey FROM lineitem l, orders o "
               "WHERE l.orderkey = o.orderkey AND l.shipdate >= o.orderdate")
        assert main(["sql", sql, "--workload", "tpch", "--method", "hive"]) == 0
        out = capsys.readouterr().out
        assert "result rows" in out

    def test_sql_rejects_bad_query(self, capsys):
        assert main(["sql", "DELETE FROM table", "--workload", "mobile"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: query must look like SELECT")

    def test_tpch_default_volume_runs(self, capsys):
        assert main(["run", "--workload", "tpch", "--query", "7"]) == 0
        assert "Plan tpch-Q7-ours" in capsys.readouterr().out
        assert main(["compare", "--workload", "tpch", "--query", "7"]) == 0
        assert capsys.readouterr().out.startswith("tpch Q7 @ 200GB")

    @pytest.mark.parametrize("argv, message", [
        (["run", "--workload", "mobile", "--query", "3", "--volume", "7"],
         "volume_gb must be one of [20, 100, 500], got 7"),
        (["plan", "--workload", "mobile", "--query", "9"],
         "mobile query id must be in (1, 2, 3, 4), got 9"),
        (["compare", "--workload", "tpch", "--query", "7", "--volume", "20"],
         "volume_gb must be one of [200, 500, 1000] or 0"),
        (["explain", "--workload", "tpch", "--query", "8"],
         "tpch query id must be in (3, 5, 7, 10, 17, 18, 21), got 8"),
    ])
    def test_bad_workload_argument_is_one_error_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: error: {message}\n"

    def test_mobile_default_volume_is_printed(self, capsys):
        assert main(["compare", "--workload", "mobile", "--query", "1"]) == 0
        assert capsys.readouterr().out.startswith("mobile Q1 @ 20GB")

    def test_other_exceptions_keep_their_traceback(self, tmp_path, monkeypatch):
        """Only a ReproError becomes a one-line message; anything else is
        a bug and propagates, after main() restores the environment."""
        import os

        import repro.cli as cli

        def broken(*args, **kwargs):
            raise RuntimeError("planner bug")

        monkeypatch.setattr(cli, "build_query", broken)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(RuntimeError, match="planner bug"):
            main(["--cache-dir", str(tmp_path / "elsewhere"),
                  "plan", "--workload", "mobile", "--query", "1"])
        assert "REPRO_CACHE_DIR" not in os.environ

    def test_calibrate_command(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "fitted cost-model constants" in out
        for constant in ("read_s_per_byte", "write_s_per_byte",
                         "network_s_per_byte", "connection_s"):
            assert constant in out


class TestQueryCommand:
    """``repro query`` entered in-process against a live service."""

    SQL = ("SELECT t2.id FROM table t1, table t2 "
           "WHERE t1.d = t2.d AND t1.bt <= t2.bt")

    @pytest.fixture
    def service(self):
        from repro.serve.coordinator import QueryService

        service = QueryService().start()
        yield service
        service.stop()

    def test_prints_the_report_line_and_rows(self, service, capsys):
        assert main(["query", self.SQL, "--addr", service.address,
                     "--limit", "2", "--set", "REPRO_TASK_RETRIES=0"]) == 0
        unpaged = capsys.readouterr().out
        assert "result rows | simulated makespan" in unpaged
        assert "more rows" in unpaged
        assert main(["query", self.SQL, "--addr", service.address,
                     "--limit", "2", "--page-size", "7"]) == 0
        assert capsys.readouterr().out == unpaged  # paging changes transport only

    def test_service_errors_exit_1_with_their_taxonomy_code(self, service, capsys):
        assert main(["query", self.SQL, "--addr", service.address,
                     "--set", "REPRO_CACHE_DIR=/tmp"]) == 1
        assert "query failed [admission-rejected]" in capsys.readouterr().err

    def test_malformed_set_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="NAME=VALUE"):
            main(["query", self.SQL, "--set", "REPRO_TASK_RETRIES"])


class TestExecutionFlags:
    def test_backend_flag_applies_then_restores(self, capsys):
        import os

        from repro import cli

        seen = {}

        def spying_cmd_run(args):
            seen["backend"] = os.environ.get("REPRO_EXEC_BACKEND")
            seen["workers"] = os.environ.get("REPRO_EXEC_WORKERS")
            return cli.cmd_run(args)

        args = cli.make_parser().parse_args(
            ["--backend", "process", "--workers", "2",
             "run", "--workload", "mobile", "--query", "1", "--volume", "20"]
        )
        args.func = spying_cmd_run
        restore = cli.apply_execution_flags(args)
        try:
            assert args.func(args) == 0
        finally:
            restore()
        # The command ran under the mapped environment...
        assert seen == {"backend": "process", "workers": "2"}
        # ...and main-style restoration undid the mutation (the fixture
        # pinned serial/0 before the call).
        assert os.environ["REPRO_EXEC_BACKEND"] == "serial"
        assert os.environ["REPRO_EXEC_WORKERS"] == "0"
        assert "result rows" in capsys.readouterr().out

    def test_workers_alone_selects_process(self, monkeypatch):
        import os

        from repro.cli import apply_execution_flags, make_parser

        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        args = make_parser().parse_args(["--workers", "4", "run"])
        restore = apply_execution_flags(args)
        try:
            assert os.environ["REPRO_EXEC_BACKEND"] == "process"
            assert os.environ["REPRO_EXEC_WORKERS"] == "4"
        finally:
            restore()
        assert "REPRO_EXEC_BACKEND" not in os.environ

    def test_backend_runs_match_serial(self, capsys):
        assert main(["run", "--workload", "mobile", "--query", "1",
                     "--volume", "20"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["--backend", "process", "--workers", "2",
                     "run", "--workload", "mobile", "--query", "1",
                     "--volume", "20"]) == 0
        process_out = capsys.readouterr().out
        assert process_out == serial_out

    def test_plan_writes_nothing_to_cache_dir(self, tmp_path):
        """Planning statistics live in memory only."""
        target = tmp_path / "never-written"
        assert main(["--cache-dir", str(target),
                     "plan", "--workload", "mobile", "--query", "1",
                     "--volume", "20"]) == 0
        assert not target.exists()

    def test_main_restores_library_defaults(self, tmp_path, monkeypatch):
        """A library caller invoking main() must not inherit the CLI's
        flags afterwards."""
        import os

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["--cache-dir", str(tmp_path / "elsewhere"),
                     "plan", "--workload", "mobile", "--query", "1",
                     "--volume", "20"]) == 0
        assert "REPRO_CACHE_DIR" not in os.environ


class TestWorkersAddrsFlag:
    def test_addrs_alone_select_distributed(self, monkeypatch):
        import os

        from repro.cli import apply_execution_flags, make_parser

        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_WORKERS_ADDRS", raising=False)
        args = make_parser().parse_args(
            ["--workers-addrs", "127.0.0.1:7601,127.0.0.1:7602", "run"]
        )
        restore = apply_execution_flags(args)
        try:
            assert os.environ["REPRO_EXEC_BACKEND"] == "distributed"
            assert (
                os.environ["REPRO_WORKERS_ADDRS"]
                == "127.0.0.1:7601,127.0.0.1:7602"
            )
        finally:
            restore()
        assert "REPRO_EXEC_BACKEND" not in os.environ
        assert "REPRO_WORKERS_ADDRS" not in os.environ

    def test_unreachable_workers_still_run_correctly(self, capsys):
        """No daemon listening: the distributed backend must degrade to
        serial and the command must still produce the serial answer."""
        assert main(["run", "--workload", "mobile", "--query", "1",
                     "--volume", "20"]) == 0
        serial_out = capsys.readouterr().out
        # --backend is explicit: the test fixture pins REPRO_EXEC_BACKEND
        # in the environment, and explicit env wins over flag inference.
        assert main(["--backend", "distributed", "--workers-addrs", "127.0.0.1:1",
                     "run", "--workload", "mobile", "--query", "1",
                     "--volume", "20"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        assert "degraded to serial" in captured.err


class TestCacheCommand:
    def run_checkpointed(self, cache_dir, monkeypatch):
        """A checkpointed run fills both disk tiers: each wave's output
        is a blob, and the checkpoint index maps the wave to it."""
        monkeypatch.setenv("REPRO_CHECKPOINT", "1")
        assert main(["--cache-dir", str(cache_dir),
                     "run", "--workload", "mobile", "--query", "1",
                     "--volume", "20"]) == 0

    def test_stats_reports_entries_and_bytes(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "cache"
        self.run_checkpointed(target, monkeypatch)
        capsys.readouterr()
        assert main(["--cache-dir", str(target), "cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(target / "checkpoints") in out
        assert str(target / "blobs") in out
        assert "planning" not in out
        totals = [
            line for line in out.splitlines() if line.strip().startswith("total")
        ]
        assert len(totals) == 2
        for line in totals:  # the run above stored entries in both tiers
            assert " 0 entries" not in line

    def test_stats_on_empty_cache(self, tmp_path, capsys):
        target = tmp_path / "nothing-here"
        assert main(["--cache-dir", str(target), "cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "total" in out and "0 entries" in out
        assert not target.exists()  # stats must not create the directory

    def test_stats_on_missing_dir_reports_every_tier_zeroed(
        self, tmp_path, capsys
    ):
        target = tmp_path / "never-created"
        assert main(["--cache-dir", str(target), "cache", "stats"]) == 0
        out = capsys.readouterr().out
        for tier in ("checkpoints", "blobs"):
            assert str(target / tier) in out
        assert out.count("0 entr") >= 2  # every tier totals to zero
        assert not target.exists()

    def test_clear_on_missing_dir_creates_nothing(self, tmp_path, capsys):
        target = tmp_path / "never-created"
        assert main(["--cache-dir", str(target), "cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert out.count("removed 0") == 2
        assert not target.exists()

    def test_clear_only_checkpoints_choice(self, tmp_path, capsys):
        target = tmp_path / "cache"
        assert main(["--cache-dir", str(target),
                     "cache", "clear", "--only", "checkpoints"]) == 0
        out = capsys.readouterr().out
        assert "removed 0" in out and "checkpoints" in out

    def test_clear_only_planning_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["cache", "clear", "--only", "planning"])
        assert exc.value.code == 2

    def test_clear_removes_every_entry(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "cache"
        self.run_checkpointed(target, monkeypatch)
        assert list(target.glob("checkpoints/*.ref"))
        assert list(target.glob("blobs/*/*.blob"))
        capsys.readouterr()
        assert main(["--cache-dir", str(target), "cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out
        assert not list(target.glob("checkpoints/*.ref"))
        assert not list(target.glob("blobs/*/*.blob"))
        # Idempotent: clearing an empty cache is a no-op, not an error.
        assert main(["--cache-dir", str(target), "cache", "clear"]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["cache"])


class TestWorkerServeParser:
    def test_serve_defaults(self):
        args = make_parser().parse_args(["worker", "serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7601

    def test_worker_requires_subcommand(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["worker"])

    def test_no_fault_flags(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["worker", "serve", "--fail-after-tasks", "1"])


class TestServeStartup:
    @pytest.mark.parametrize("value", ["-5", "nan", "inf"])
    def test_bad_default_deadline_is_refused(self, value, monkeypatch, capsys):
        """An unusable ``--default-deadline-s`` stops ``repro serve``
        before it starts, as the operator's error: otherwise every submit
        without a deadline of its own is rejected as the client's."""
        started = []
        monkeypatch.setattr(
            "repro.serve.coordinator.serve", lambda *a, **k: started.append(k) or 0
        )
        assert main(["serve", "--port", "0", "--default-deadline-s", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: --default-deadline-s")
        assert err.count("\n") == 1
        assert not started


class TestWorkloadRelations:
    def test_mobile_names(self):
        from repro.workloads import workload_relations

        relations = workload_relations("mobile", 20, seed=0)
        assert set(relations) == {"table", "calls"}
        assert relations["table"] is relations["calls"]

    def test_tpch_names(self):
        from repro.workloads import workload_relations

        relations = workload_relations("tpch", 0, seed=0)
        assert "lineitem" in relations and "orders" in relations

    def test_unknown_workload(self):
        from repro.workloads import workload_relations

        with pytest.raises(ValueError):
            workload_relations("spark", 0, seed=0)
