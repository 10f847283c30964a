"""Command-line interface: run the paper's experiments from a shell.

    python -m repro.cli run      --workload mobile --query 1 --volume 20
    python -m repro.cli compare  --workload tpch --query 17 --volume 200 --kp 64
    python -m repro.cli plan     --workload mobile --query 3 --volume 20
    python -m repro.cli explain  --workload mobile --query 3 --volume 20
    python -m repro.cli sql --workload mobile --volume 20 \\
        "SELECT t2.id FROM table t1, table t2 WHERE t1.d = t2.d AND t1.bt <= t2.bt"
    python -m repro.cli calibrate
    python -m repro.cli worker serve --host 127.0.0.1 --port 7601
    python -m repro.cli worker list
    python -m repro.cli serve --port 7600 --max-concurrent 4
    python -m repro.cli query --addr 127.0.0.1:7600 --deadline-s 30 \\
        "SELECT t2.id FROM table t1, table t2 WHERE t1.d = t2.d"
    python -m repro.cli cache stats

``run`` executes one query with one system; ``compare`` runs all four
systems and prints the comparison row the figures are made of; ``plan``
shows the chosen execution plan without running it; ``explain`` dumps the
planner internals (GJ, Eulerian structure, G'JP candidates); ``sql``
plans and executes an ad-hoc query in the paper's SQL-like dialect over a
workload's base relations; ``calibrate`` fits the cost-model constants
from probe jobs (Section 6.2); ``worker serve`` runs one distributed
execution daemon (point coordinators at it with ``--workers-addrs`` or
``REPRO_WORKERS_ADDRS``) and ``worker list`` / ``worker status`` probe a
fleet's health; ``serve`` runs the long-lived query service
(admission control, per-query deadlines, cancellation) and ``query`` is
its client; ``cache`` inspects or wipes the disk tiers — the
wave-checkpoint index and the content-addressed blob store (shipped
payloads, checkpointed waves, DONE results).

A :class:`~repro.errors.ReproError` (a bad volume, query id or SQL text)
ends the command with one ``repro: error: ...`` line and exit status 2.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Optional, Sequence

from repro.baselines import PLANNERS
from repro.core.executor import PlanExecutor
from repro.errors import ReproError
from repro.mapreduce.config import (
    CACHE_DIR_ENV,
    EXEC_BACKEND_ENV,
    EXEC_BACKENDS,
    EXEC_WORKERS_ENV,
    WORKERS_ADDRS_ENV,
    ClusterConfig,
    execution_settings,
)
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.query import JoinQuery
from repro.utils import format_bytes


def build_query(workload: str, query_id: int, volume: int, seed: int) -> JoinQuery:
    if workload == "mobile":
        from repro.workloads.mobile import mobile_benchmark_query

        return mobile_benchmark_query(query_id, volume, seed=seed)
    if workload == "tpch":
        from repro.workloads.tpch import tpch_benchmark_query

        return tpch_benchmark_query(query_id, volume, seed=seed)
    raise SystemExit(f"unknown workload {workload!r} (mobile | tpch)")


#: ``--volume`` when none is given: the smallest paper scale per workload.
DEFAULT_VOLUMES = {"mobile": 20, "tpch": 200}


def query_from_args(args: argparse.Namespace) -> JoinQuery:
    """The benchmark query ``args`` names; fills in the workload's
    default ``--volume`` so commands can print the one they used."""
    if args.volume is None:
        args.volume = DEFAULT_VOLUMES[args.workload]
    return build_query(args.workload, args.query, args.volume, args.seed)


def cluster_config(kp: int) -> ClusterConfig:
    config = ClusterConfig()
    if kp and kp != config.total_units:
        config = config.with_units(kp)
    return config


def cmd_run(args: argparse.Namespace) -> int:
    query = query_from_args(args)
    config = cluster_config(args.kp)
    planner = PLANNERS[args.method](config)
    plan = planner.plan(query)
    print(plan.describe())
    outcome = PlanExecutor(SimulatedCluster(config)).execute(plan, query)
    report = outcome.report
    print(
        f"\n{report.output_records} result rows | "
        f"simulated makespan {report.makespan_s:.1f}s | "
        f"shuffle {format_bytes(report.total_shuffle_bytes)} | "
        f"merge {report.merge_time_s:.1f}s"
    )
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    query = query_from_args(args)
    config = cluster_config(args.kp)
    plan = PLANNERS[args.method](config).plan(query)
    print(plan.describe())
    for key, value in sorted(plan.notes.items()):
        print(f"  note {key}: {value}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    query = query_from_args(args)
    config = cluster_config(args.kp)
    print(
        f"{args.workload} Q{args.query} @ {args.volume}GB, "
        f"kP={config.total_units}"
    )
    counts = set()
    for method, planner_cls in PLANNERS.items():
        plan = planner_cls(config).plan(query)
        outcome = PlanExecutor(SimulatedCluster(config)).execute(plan, query)
        counts.add(outcome.report.output_records)
        print(
            f"  {method:7s} {plan.num_jobs} job(s) "
            f"{outcome.report.makespan_s:12.1f}s "
            f"shuffle {format_bytes(outcome.report.total_shuffle_bytes)}"
        )
    if len(counts) != 1:
        print("ERROR: methods disagree on the result!", file=sys.stderr)
        return 1
    print(f"  all methods agree: {counts.pop()} rows")
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    from repro.relational.sql import parse_join_query
    from repro.workloads import workload_relations

    relations = workload_relations(args.workload, args.volume, args.seed)
    query = parse_join_query(args.sql, relations, name="adhoc")
    config = cluster_config(args.kp)
    planner = PLANNERS[args.method](config)
    plan = planner.plan(query)
    print(plan.describe())
    outcome = PlanExecutor(SimulatedCluster(config)).execute(plan, query)
    report = outcome.report
    print(
        f"\n{report.output_records} result rows | "
        f"simulated makespan {report.makespan_s:.1f}s | "
        f"shuffle {format_bytes(report.total_shuffle_bytes)}"
    )
    for row in outcome.result.head(args.limit).rows:
        print("  ", row)
    if report.output_records > args.limit:
        print(f"   ... and {report.output_records - args.limit} more rows")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.core.costing import CandidateJobCosting
    from repro.core.cost_model import MRJCostModel
    from repro.core.eulerian import count_eulerian_trails
    from repro.core.join_graph import JoinGraph
    from repro.core.join_path_graph import build_join_path_graph
    from repro.relational.statistics import StatisticsCatalog

    query = query_from_args(args)
    config = cluster_config(args.kp)
    graph = JoinGraph.from_query(query)

    print(f"Join graph GJ for {query.name}:")
    for cid in graph.edge_ids:
        a, b = graph.endpoints(cid)
        print(f"  theta{cid}: {a} -- {b}   [{query.condition(cid)}]")
    print(f"  Eulerian trail: {graph.has_eulerian_trail()}, "
          f"circuit: {graph.has_eulerian_circuit()}")
    if graph.num_edges <= 8 and graph.has_eulerian_trail():
        print(f"  Eulerian trails: {count_eulerian_trails(graph)}")

    catalog = StatisticsCatalog()
    for relation in query.relations.values():
        catalog.add_relation(relation)
    costing = CandidateJobCosting(
        query, graph, catalog, MRJCostModel.for_cluster(config),
        total_units=config.total_units,
    )
    gjp = build_join_path_graph(graph, costing)
    print(f"\nG'JP: {gjp.enumerated} candidates examined, "
          f"{gjp.pruned} pruned by Lemma 1, {len(gjp)} kept")
    for candidate in sorted(gjp, key=lambda c: c.time_s)[: args.limit]:
        a, b = candidate.endpoints
        print(f"  {a}~{b}  theta={sorted(candidate.labels)}  "
              f"w={candidate.time_s:.1f}s  s={candidate.reducers}")
    if len(gjp) > args.limit:
        print(f"  ... and {len(gjp) - args.limit} more candidates")

    plan = PLANNERS[args.method](config).plan(query)
    print(f"\nChosen plan ({plan.notes.get('chosen_kind', '?')}):")
    print(plan.describe())
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.core.calibration import calibrate
    from repro.core.cost_model import CostModelParameters

    config = ClusterConfig().with_noise(args.noise)
    cluster = SimulatedCluster(config)
    result = calibrate(cluster)
    truth = CostModelParameters.from_config(ClusterConfig())
    print("fitted cost-model constants (vs configured ground truth):")
    for field in (
        "read_s_per_byte", "write_s_per_byte", "network_s_per_byte", "connection_s"
    ):
        fitted = getattr(result.params, field)
        real = getattr(truth, field)
        print(f"  {field:22s} {fitted:.3e}  (true {real:.3e})")
    return 0


def cmd_worker_serve(args: argparse.Namespace) -> int:
    from repro.mapreduce.worker import serve

    return serve(args.host, args.port)


def _print_probe(report: dict) -> None:
    state = "alive" if report["alive"] else "DOWN"
    rtt = f"{report['rtt_ms']:.1f}ms" if report["rtt_ms"] is not None else "-"
    info = report.get("info") or {}
    version = info.get("repro", "?")
    python = ".".join(str(part) for part in info.get("python", ())) or "?"
    compat = "ok" if report["compatible"] else "MISMATCH"
    line = (
        f"  {report['addr']:24s} {state:5s} rtt {rtt:>8s}  "
        f"repro {version} py{python}  {compat}"
    )
    if report.get("error"):
        line += f"  [{report['error']}]"
    print(line)


def cmd_worker_list(args: argparse.Namespace) -> int:
    """Probe every fleet member (``--workers-addrs`` / env)."""
    from repro.serve.fleet import probe_worker

    addrs = execution_settings().workers_addrs
    if not addrs:
        print(
            f"no worker addresses configured (set {WORKERS_ADDRS_ENV} or "
            "--workers-addrs)",
            file=sys.stderr,
        )
        return 1
    print(f"{len(addrs)} configured worker(s):")
    down = 0
    for addr in addrs:
        report = probe_worker(addr, timeout_s=args.timeout)
        _print_probe(report)
        down += 0 if report["alive"] else 1
    return 1 if down else 0


def cmd_worker_status(args: argparse.Namespace) -> int:
    from repro.serve.fleet import probe_worker

    report = probe_worker(args.addr, timeout_s=args.timeout)
    _print_probe(report)
    return 0 if report["alive"] and report["compatible"] else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.coordinator import serve

    if args.recover and args.journal is None:
        print("serve --recover needs a journal: pass --journal PATH", file=sys.stderr)
        return 2
    if not math.isfinite(args.default_deadline_s) or args.default_deadline_s < 0:
        raise ReproError(
            "--default-deadline-s must be a finite number >= 0 (0 = none), "
            f"got {args.default_deadline_s}"
        )
    return serve(
        args.host,
        args.port,
        max_concurrent=args.max_concurrent,
        max_queue=args.max_queue,
        default_deadline_s=args.default_deadline_s or None,
        journal_path=args.journal,
        recover=args.recover,
        client_max_running=args.client_max_running,
        client_max_queued=args.client_max_queued,
        aging_s=args.aging_s,
    )


def cmd_query(args: argparse.Namespace) -> int:
    """Client side of ``repro serve``: submit one query, print its rows."""
    import repro
    from repro.errors import ServiceError

    knobs = {}
    for entry in args.set or ():
        name, sep, value = entry.partition("=")
        if not sep:
            raise SystemExit(f"--set expects NAME=VALUE, got {entry!r}")
        knobs[name] = value
    try:
        with repro.connect(
            args.addr, client_id=args.client_id, priority=args.priority
        ) as client:
            query_id = client.execute(
                args.sql,
                workload=args.workload,
                volume=args.volume,
                seed=args.seed,
                method=args.method,
                deadline_s=args.deadline_s or None,
                knobs=knobs,
            )
            if args.page_size:
                # Stream the rows in bounded pages, then pull the report
                # numbers from a one-row page (pages carry the full
                # result metadata alongside their row slice).
                rows = list(
                    client.iter_rows(
                        query_id,
                        page_size=args.page_size,
                        timeout_s=args.timeout,
                    )
                )
                meta = client.result(query_id, timeout_s=30.0, offset=0, limit=1)
                result = dict(meta["result"])
                result["rows"] = rows
            else:
                result = client.wait(query_id, timeout_s=args.timeout)
    except ServiceError as exc:
        print(f"query failed [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    print(
        f"{result['output_records']} result rows | "
        f"simulated makespan {result['makespan_s']:.1f}s | "
        f"{result['num_jobs']} job(s)"
    )
    for row in result["rows"][: args.limit]:
        print("  ", row)
    if result["output_records"] > args.limit:
        print(f"   ... and {result['output_records'] - args.limit} more rows")
    return 0


def cmd_cache_stats(args: argparse.Namespace) -> int:
    """Report every disk tier (checkpoints + blobs) through
    the unified :mod:`repro.storage` API — works whether or not the
    caches are enabled, and never creates directories just to look."""
    from repro.storage import tier_stats

    for tier, stats in tier_stats().items():
        print(f"{tier} cache at {stats['root']}")
        entries = stats["entries"]
        print(f"  {'total':8s} {entries:6d} entr{'y' if entries == 1 else 'ies'}  "
              f"{format_bytes(stats['bytes'])}")
    return 0


def cmd_cache_clear(args: argparse.Namespace) -> int:
    from repro.storage import clear_tiers, tier_stats

    only = getattr(args, "only", None)
    roots = {tier: stats["root"] for tier, stats in tier_stats().items()}
    for tier, removed in clear_tiers(only=only).items():
        print(f"removed {removed} cached entr{'y' if removed == 1 else 'ies'} "
              f"from {roots[tier]}")
    return 0


def apply_execution_flags(args: argparse.Namespace) -> Callable[[], None]:
    """Map the CLI's execution flags onto the ``REPRO_*`` environment.

    The environment is the single source of truth
    (:class:`repro.mapreduce.config.ExecutionSettings` reads it fresh),
    so setting it here configures every layer — runtime phases, executor
    waves, and the disk tiers — without threading parameters through.
    Explicit environment variables win over CLI defaults, which keeps
    ``REPRO_EXEC_BACKEND=process python -m repro.cli ...`` working.

    Returns a restore callable: :func:`main` runs the command under the
    mapped environment, then undoes the mutations so library callers
    invoking ``main()`` in-process don't inherit the CLI's flags.
    """
    saved = {
        name: os.environ.get(name)
        for name in (
            EXEC_BACKEND_ENV,
            EXEC_WORKERS_ENV,
            WORKERS_ADDRS_ENV,
            CACHE_DIR_ENV,
        )
    }
    backend = getattr(args, "backend", None)
    workers = getattr(args, "workers", 0)
    workers_addrs = getattr(args, "workers_addrs", None)
    if not backend and workers_addrs and EXEC_BACKEND_ENV not in os.environ:
        # --workers-addrs alone states distributed intent (mirrors the
        # env-side rule: REPRO_WORKERS_ADDRS implies distributed).
        backend = "distributed"
    if not backend and workers and EXEC_BACKEND_ENV not in os.environ:
        # --workers alone states parallel intent; process is the backend
        # that actually uses the cores (documented in --workers help).
        backend = "process"
    if backend:
        os.environ[EXEC_BACKEND_ENV] = backend
    if workers:
        os.environ[EXEC_WORKERS_ENV] = str(workers)
    if workers_addrs:
        os.environ[WORKERS_ADDRS_ENV] = workers_addrs
    if getattr(args, "cache_dir", None):
        os.environ[CACHE_DIR_ENV] = args.cache_dir

    def restore() -> None:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value

    return restore


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Multi-way theta-join reproduction CLI"
    )
    parser.add_argument(
        "--backend",
        choices=EXEC_BACKENDS,
        default=None,
        help="execution backend for map chunks / bucket ranges / job waves "
        "(default: REPRO_EXEC_BACKEND or serial)",
    )
    def positive_workers(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("--workers must be >= 0")
        return value

    parser.add_argument(
        "--workers",
        type=positive_workers,
        default=0,
        help="worker count for the thread/process backends (0 = auto); "
        "given without --backend it selects the process backend",
    )
    parser.add_argument(
        "--workers-addrs",
        default=None,
        metavar="HOST:PORT,...",
        help="comma-separated 'repro worker serve' daemons for the "
        "distributed backend; given without --backend it selects the "
        "distributed backend (same as REPRO_WORKERS_ADDRS)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="root of the on-disk checkpoint and blob tiers "
        "(default ~/.cache/repro; same as REPRO_CACHE_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workload", choices=("mobile", "tpch"), default="mobile")
        p.add_argument("--query", type=int, default=1)
        p.add_argument(
            "--volume", type=int, default=None,
            help="data volume label in GB (default: mobile 20, tpch 200)",
        )
        p.add_argument("--kp", type=int, default=96, help="processing units")
        p.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", help="plan + execute one query with one system")
    common(run)
    run.add_argument("--method", choices=sorted(PLANNERS), default="ours")
    run.set_defaults(func=cmd_run)

    plan = sub.add_parser("plan", help="show a plan without executing it")
    common(plan)
    plan.add_argument("--method", choices=sorted(PLANNERS), default="ours")
    plan.set_defaults(func=cmd_plan)

    compare = sub.add_parser("compare", help="run all four systems on one query")
    common(compare)
    compare.set_defaults(func=cmd_compare)

    explain = sub.add_parser(
        "explain", help="dump GJ, Eulerian structure, and G'JP candidates"
    )
    common(explain)
    explain.add_argument("--method", choices=sorted(PLANNERS), default="ours")
    explain.add_argument("--limit", type=int, default=12, help="candidates shown")
    explain.set_defaults(func=cmd_explain)

    sql = sub.add_parser(
        "sql", help="plan + execute an ad-hoc SQL-style theta-join query"
    )
    sql.add_argument("sql", help="query in the paper's SQL-like dialect")
    sql.add_argument("--workload", choices=("mobile", "tpch"), default="mobile")
    sql.add_argument("--volume", type=int, default=0, help="data volume label (GB)")
    sql.add_argument("--kp", type=int, default=96)
    sql.add_argument("--seed", type=int, default=0)
    sql.add_argument("--method", choices=sorted(PLANNERS), default="ours")
    sql.add_argument("--limit", type=int, default=10, help="result rows shown")
    sql.set_defaults(func=cmd_sql)

    calibrate = sub.add_parser("calibrate", help="fit cost-model constants")
    calibrate.add_argument("--noise", type=float, default=0.05)
    calibrate.set_defaults(func=cmd_calibrate)

    worker = sub.add_parser(
        "worker", help="distributed execution worker daemon"
    )
    worker_sub = worker.add_subparsers(dest="worker_command", required=True)
    serve = worker_sub.add_parser(
        "serve", help="run one worker daemon until interrupted"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7601,
        help="TCP port (0 = OS-assigned; the daemon prints the address)",
    )
    serve.set_defaults(func=cmd_worker_serve)

    worker_list = worker_sub.add_parser(
        "list", help="probe every configured worker (handshake + ping)"
    )
    worker_list.add_argument(
        "--timeout", type=float, default=1.0, help="per-probe budget, seconds"
    )
    worker_list.set_defaults(func=cmd_worker_list)

    worker_status = worker_sub.add_parser(
        "status", help="probe one worker daemon by address"
    )
    worker_status.add_argument("addr", help="host:port of the daemon")
    worker_status.add_argument(
        "--timeout", type=float, default=1.0, help="probe budget, seconds"
    )
    worker_status.set_defaults(func=cmd_worker_status)

    serve_cmd = sub.add_parser(
        "serve", help="run the long-lived SQL query service daemon"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=7600,
        help="TCP port (0 = OS-assigned; the daemon prints the address)",
    )
    serve_cmd.add_argument(
        "--max-concurrent", type=int, default=4,
        help="query sessions allowed to plan/run at once",
    )
    serve_cmd.add_argument(
        "--max-queue", type=int, default=16,
        help="admission queue depth; further submits are shed with a "
        "structured admission-rejected error",
    )
    serve_cmd.add_argument(
        "--default-deadline-s", type=float, default=0.0,
        help="deadline budget for queries that do not set one (0 = none)",
    )
    serve_cmd.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append-only session journal for crash recovery",
    )
    serve_cmd.add_argument(
        "--recover", action="store_true",
        help="replay the journal on startup: serve finished results from "
        "it, re-admit interrupted queries (they resume from their last "
        "checkpointed wave)",
    )
    serve_cmd.add_argument(
        "--client-max-running", type=int, default=0, metavar="N",
        help="per-client concurrency-slot quota (0 = none)",
    )
    serve_cmd.add_argument(
        "--client-max-queued", type=int, default=0, metavar="N",
        help="per-client queue-seat quota; over it submits are shed with "
        "a structured quota-exceeded error (0 = none)",
    )
    serve_cmd.add_argument(
        "--aging-s", type=float, default=30.0, metavar="SECONDS",
        help="anti-starvation aging: a queued query gains one priority "
        "level per this many seconds waited (0 = off)",
    )
    serve_cmd.set_defaults(func=cmd_serve)

    query = sub.add_parser(
        "query", help="submit one SQL query to a running 'repro serve'"
    )
    query.add_argument("sql", help="query in the paper's SQL-like dialect")
    query.add_argument(
        "--addr", default="127.0.0.1:7600", help="host:port of the service"
    )
    query.add_argument("--workload", choices=("mobile", "tpch"), default="mobile")
    query.add_argument("--volume", type=int, default=0, help="data volume label (GB)")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--method", choices=sorted(PLANNERS), default="ours")
    query.add_argument(
        "--deadline-s", type=float, default=0.0,
        help="per-query deadline budget, seconds (0 = none)",
    )
    query.add_argument(
        "--set", action="append", metavar="REPRO_X=VALUE",
        help="per-query knob override (repeatable); e.g. "
        "--set REPRO_TASK_RETRIES=0",
    )
    query.add_argument(
        "--timeout", type=float, default=300.0,
        help="client-side wait budget, seconds",
    )
    query.add_argument("--limit", type=int, default=10, help="result rows shown")
    query.add_argument(
        "--client-id", default="default", metavar="NAME",
        help="tenant this query is accounted to (fair-share scheduling)",
    )
    query.add_argument(
        "--priority", type=int, default=1, metavar="0-9",
        help="scheduling priority (higher dequeues first; aged to "
        "prevent starvation)",
    )
    query.add_argument(
        "--page-size", type=int, default=0, metavar="ROWS",
        help="stream the result in pages of this many rows instead of "
        "one frame (0 = unpaginated)",
    )
    query.set_defaults(func=cmd_query)

    cache = sub.add_parser(
        "cache",
        help="inspect or wipe the disk tiers (checkpoints + blobs)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="per-table entry counts and sizes"
    )
    cache_stats.set_defaults(func=cmd_cache_stats)
    cache_clear = cache_sub.add_parser(
        "clear", help="delete every cached entry (all tiers by default)"
    )
    cache_clear.add_argument(
        "--only",
        choices=("checkpoints", "blobs"),
        default=None,
        help="clear just one tier: the wave-checkpoint index or the "
        "blob store",
    )
    cache_clear.set_defaults(func=cmd_cache_clear)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    restore = apply_execution_flags(args)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    finally:
        restore()


if __name__ == "__main__":
    raise SystemExit(main())
