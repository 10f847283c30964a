"""Tests for the command-line interface."""

import pytest

from repro.cli import build_query, cluster_config, main, make_parser
from repro.relational.stats_cache import reset_default_planning_cache


@pytest.fixture(autouse=True)
def _isolated_cli_environment(tmp_path, monkeypatch):
    """``main`` maps CLI flags onto ``REPRO_*`` env (and turns the disk
    planning cache on by default); keep both effects inside the test —
    writes go to a tmp dir and the default cache is rebuilt from the
    restored environment afterwards."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_PLAN_DISK_CACHE", "1")
    # Pre-touch the backend keys so monkeypatch restores them even when a
    # test's --backend/--workers flags overwrite them inside ``main``.
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "serial")
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "0")
    reset_default_planning_cache()
    yield
    reset_default_planning_cache()


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

    def test_sql_rejects_bad_query(self):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            main(["sql", "DELETE FROM table", "--workload", "mobile"])

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

    def test_disk_cache_written_to_cache_dir(self, tmp_path):
        target = tmp_path / "explicit-cache"
        assert main(["--cache-dir", str(target),
                     "plan", "--workload", "mobile", "--query", "1",
                     "--volume", "20"]) == 0
        assert list(target.glob("planning/*/*.pkl"))

    def test_no_disk_cache_flag(self, tmp_path, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_PLAN_DISK_CACHE", raising=False)
        target = tmp_path / "never-written"
        assert main(["--no-disk-cache", "--cache-dir", str(target),
                     "plan", "--workload", "mobile", "--query", "1",
                     "--volume", "20"]) == 0
        assert not target.exists()
        # main() restored the pre-call environment (variable was absent).
        assert "REPRO_PLAN_DISK_CACHE" not in os.environ

    def test_main_restores_library_defaults(self, monkeypatch):
        """A library caller invoking main() must not inherit CLI env
        defaults afterwards — the default planning cache stays opt-in."""
        import os

        from repro.relational.stats_cache import get_planning_cache

        monkeypatch.delenv("REPRO_PLAN_DISK_CACHE", raising=False)
        assert main(["plan", "--workload", "mobile", "--query", "1",
                     "--volume", "20"]) == 0
        assert "REPRO_PLAN_DISK_CACHE" not in os.environ
        assert get_planning_cache().disk is None


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
    def run_plan(self, cache_dir):
        assert main(["--cache-dir", str(cache_dir),
                     "plan", "--workload", "mobile", "--query", "1",
                     "--volume", "20"]) == 0

    def test_stats_reports_entries_and_bytes(self, tmp_path, capsys):
        target = tmp_path / "cache"
        self.run_plan(target)
        capsys.readouterr()
        assert main(["--cache-dir", str(target), "cache", "stats"]) == 0
        out = capsys.readouterr().out
        # Both tiers report through the unified storage API (PR 8).
        assert str(target / "planning") in out
        assert str(target / "blobs") in out
        for table in ("samples", "stats", "joins", "total"):
            assert table in out
        # The plan above cached at least one sample/statistics entry.
        planning_total = next(
            line for line in out.splitlines() if line.strip().startswith("total")
        )
        assert "   0 entries" not in planning_total

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
        for tier in ("planning", "checkpoints", "blobs"):
            assert str(target / tier) in out
        assert out.count("0 entr") >= 3  # every tier totals to zero
        assert not target.exists()

    def test_clear_on_missing_dir_creates_nothing(self, tmp_path, capsys):
        target = tmp_path / "never-created"
        assert main(["--cache-dir", str(target), "cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert out.count("removed 0") == 3
        assert not target.exists()

    def test_clear_only_checkpoints_choice(self, tmp_path, capsys):
        target = tmp_path / "cache"
        assert main(["--cache-dir", str(target),
                     "cache", "clear", "--only", "checkpoints"]) == 0
        out = capsys.readouterr().out
        assert "removed 0" in out and "checkpoints" in out

    def test_clear_removes_every_entry(self, tmp_path, capsys):
        target = tmp_path / "cache"
        self.run_plan(target)
        assert list(target.glob("planning/*/*.pkl"))
        capsys.readouterr()
        assert main(["--cache-dir", str(target), "cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out
        assert not list(target.glob("planning/*/*.pkl"))
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
        assert args.fail_after_tasks == 0

    def test_fault_flags(self):
        args = make_parser().parse_args(
            ["worker", "serve", "--port", "0",
             "--fail-after-tasks", "3", "--fail-mode", "stall"]
        )
        assert args.port == 0
        assert args.fail_after_tasks == 3
        assert args.fail_mode == "stall"

    def test_worker_requires_subcommand(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["worker"])

    def test_bad_fail_mode_rejected(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(
                ["worker", "serve", "--fail-mode", "melt"]
            )


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
