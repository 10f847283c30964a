"""One workload, one process: set up, measure, check, report.

``perf/run.py`` starts this module's :func:`main` in a fresh child per
workload (fresh caches, attributable peak RSS).  The child prints one
JSON object on its last line.

Untraced (``trace=0``) the whole measuring window goes to plain ops and
the end-to-end metrics come from them.  Traced (``trace=1``) the window
is split: a short untraced stretch (the baseline of
``trace.overhead_ratio``), then the same ops with the span wrappers of
:mod:`perf.spans` installed, then the workload's extra probes.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List

from perf import machine, spans
from perf.workloads import (
    WORKLOADS,
    BatchWorkload,
    Cycle,
    Dist2Chain,
    OpSample,
    ServeMixed,
    lower_quartile,
    median,
    upper_quartile,
    private_environment,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perf" / "out"

#: Fewest timed ops behind an untraced batch median.
MIN_TIMED_OPS = 10
#: Share of a traced run's window spent on the untraced baseline.
BASELINE_SHARE = 0.3
#: Share spent on the traced ops; the rest goes to the extra probes.
TRACED_SHARE = 0.4

#: Counts that must repeat exactly between two runs of one commit on
#: one seed; ``--compare`` requires equality.  (Hedges and breaker trips
#: depend on timing and are left out.)
DETERMINISTIC_PREFIXES = (
    "core.executor.sim_makespan_s",
    "core.executor.jobs",
    "core.executor.waves",
    "core.planner.",
    "relational.sampling.join_observations",
    "mapreduce.runtime.",
    "mapreduce.backend.bytes_shipped_warm",
)

#: Span name -> self-time metric (or None when only the total is kept).
SPAN_METRICS = {
    "core.planner.plan_s": None,
    "core.join_path_graph.build_s": None,
    "relational.sampling.busy_s": None,
    "core.reducer_selection.sweep_s": None,
    "core.partitioner.build_s": None,
    "core.hilbert.codec_s": None,
    "core.executor.execute_s": "core.executor.self_s",
    "joins.jobs.build_s": None,
    "joins.jobs.map_s": None,
    "joins.jobs.reduce_s": None,
    "joins.records.to_relation_s": None,
    "joins.records.lift_s": None,
    "mapreduce.runtime.run_job_s": "mapreduce.runtime.self_s",
    "mapreduce.backend.run_tasks_s": None,
}


def run_ops(
    run_op: Callable[[], OpSample],
    seconds: float,
    min_ops: int,
    max_ops: int = 0,
    before: Callable[[], None] = lambda: None,
) -> List[OpSample]:
    """Ops back to back until ``seconds`` have passed and at least
    ``min_ops`` ran (``max_ops`` caps smoke runs)."""
    samples: List[OpSample] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if max_ops and len(samples) >= max_ops:
            break
        if elapsed >= seconds and len(samples) >= min_ops:
            break
        before()
        samples.append(run_op())
    return samples


def metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


class Measurement:
    """Accumulates the child's report."""

    def __init__(self, workload, trace: bool, smoke: bool, seconds: float) -> None:
        self.workload = workload
        self.trace = trace
        self.smoke = smoke
        self.seconds = seconds
        self.end_to_end: Dict[str, dict] = {}
        self.per_layer: Dict[str, dict] = {}
        self.deterministic: Dict[str, float] = {}
        self.samples: List[OpSample] = []

    def layer(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.per_layer[name] = metric(float(value), unit, n)

    # -- end to end -------------------------------------------------------

    def end_to_end_from(self, latencies: List[float], cycles: List[Cycle]) -> None:
        """``latencies`` are the characteristic query's wall times; a
        cycle is one round of the load (see :class:`Cycle`).

        Throughput and CPU per query are computed per round and the best
        quartile over rounds is reported, for the reason
        :func:`lower_quartile` gives."""
        self.end_to_end["query_s"] = metric(
            lower_quartile(latencies), "s", len(latencies)
        )
        self.end_to_end["queries_per_s"] = metric(
            upper_quartile([c.primary / c.wall_s for c in cycles if c.wall_s > 0]),
            "1/s", len(cycles),
        )
        self.end_to_end["cpu_s_per_query"] = metric(
            lower_quartile([c.cpu_s / c.queries for c in cycles if c.queries]),
            "s", len(cycles),
        )
        self.end_to_end["peak_rss_mb"] = metric(
            max(machine.peak_rss_mb(pid) for pid in self.workload.pids()), "MiB", 1
        )
        self.layer("run.query_median_s", median(latencies), "s", len(latencies))
        self.layer("run.query_p90_s", percentile(latencies, 0.9), "s", len(latencies))

    # -- counts -----------------------------------------------------------

    def counts_from(self, samples: List[OpSample]) -> None:
        """Per-op counts are exact; report the last op's and remember
        them for ``--compare``'s equality check."""
        good = [s for s in samples if s.ok and s.counts]
        if not good:
            return
        for name, value in good[-1].counts.items():
            unit = "sim_s" if name.endswith("sim_makespan_s") else (
                "ratio" if name.endswith(("_ratio", "_skew", "_per_output")) else "count"
            )
            self.layer(name, value, unit, len(good))
            if name.startswith(DETERMINISTIC_PREFIXES):
                self.deterministic[name] = value


def traced_span_metrics(measure: Measurement, recorder: spans.Recorder, ops: int) -> None:
    totals = recorder.per_op(self_time=False)
    selfs = recorder.per_op(self_time=True)
    for span_name, self_metric in SPAN_METRICS.items():
        per_op = totals.get(span_name, {})
        values = [per_op.get(op, 0.0) for op in range(ops)]
        measure.layer(span_name, median(values), "s", ops)
        if self_metric:
            per_op_self = selfs.get(span_name, {})
            measure.layer(
                self_metric, median([per_op_self.get(op, 0.0) for op in range(ops)]),
                "s", ops,
            )
    task_counts = recorder.counts_per_op().get("mapreduce.backend.run_tasks_s", {})
    measure.layer(
        "mapreduce.backend.tasks",
        median([float(task_counts.get(op, 0)) for op in range(ops)]), "count", ops,
    )


# ----------------------------------------------------------------------
# micro-probes (traced pass only)
# ----------------------------------------------------------------------


def micro_probes(measure: Measurement, scratch: Path, repeats: int) -> None:
    from repro.mapreduce import wire
    from repro.relational.sql import parse_join_query
    from repro.storage import DiskBlobStore, SessionJournal, blob_digest
    from repro.workloads import workload_relations
    from perf.workloads import BIG_SQL, HEAVY_SQL, SHORT_SQL

    def timed(fn: Callable[[], object]) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    left, right = socket.socketpair()
    try:
        payload = b"x" * (64 * 1024)

        def roundtrip() -> None:
            wire.send_frame(left, payload)
            wire.recv_frame(right)

        measure.layer(
            "mapreduce.wire.frame_roundtrip_us",
            median([timed(roundtrip) for _ in range(repeats)]) * 1e6, "us", repeats,
        )
    finally:
        left.close()
        right.close()

    store = DiskBlobStore(scratch / "probe-blobs")
    puts, gets = [], []
    for index in range(max(4, repeats // 4)):
        blob = index.to_bytes(4, "big") * (256 * 1024)  # 1 MiB, distinct
        digest = blob_digest(blob)
        puts.append(timed(lambda: store.put(digest, blob)))
        gets.append(timed(lambda: store.get(digest)))
    measure.layer("storage.blob.put_ms", median(puts) * 1e3, "ms", len(puts))
    measure.layer("storage.blob.get_ms", median(gets) * 1e3, "ms", len(gets))

    journal = SessionJournal(scratch / "probe.journal", fsync=True)
    try:
        record = {"kind": "state", "id": "q-000001", "pad": "x" * 260}
        measure.layer(
            "storage.journal.append_us",
            median([timed(lambda: journal.append(record)) for _ in range(repeats)]) * 1e6,
            "us", repeats,
        )
    finally:
        journal.close()

    relations = workload_relations("mobile", 0, 0)
    parse = []
    for _ in range(repeats):
        for sql in (SHORT_SQL, HEAVY_SQL, BIG_SQL):
            parse.append(timed(lambda: parse_join_query(sql, relations)))
    measure.layer("relational.sql.parse_ms", median(parse) * 1e3, "ms", len(parse))


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------


def scoped_op(workload: BatchWorkload, knobs: Dict[str, str]) -> OpSample:
    """One op with ``REPRO_*`` knobs shadowed for this thread only."""
    from repro.mapreduce.config import settings_scope

    with settings_scope(knobs):
        return workload.run_op()


def cycles_within(seconds: float):
    """Cycle numbers 0, 1, ... until ``seconds`` have passed (at least one)."""
    start = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - start < seconds:
        yield cycle
        cycle += 1


def checkpoint_probe(
    measure: Measurement, workload: BatchWorkload, scratch: Path, seconds: float
) -> None:
    """Checkpoint off / on over a fresh directory / on again over the
    same directory, alternating, so drift hits all three alike."""
    from repro.core.executor import checkpoint_counters, reset_checkpoint_counters

    off, cold, warm = [], [], []
    stores = store_bytes = hits = 0
    for cycle in cycles_within(seconds):
        fresh = str(scratch / f"ckpt-{cycle}")
        off.append(scoped_op(workload, {"REPRO_CHECKPOINT": "0"}))
        knobs = {"REPRO_CHECKPOINT": "1", "REPRO_CACHE_DIR": fresh}
        reset_checkpoint_counters()
        cold.append(scoped_op(workload, knobs))
        counters = checkpoint_counters()
        stores, store_bytes = counters["stores"], counters["store_bytes"]
        reset_checkpoint_counters()
        warm.append(scoped_op(workload, knobs))
        hits = checkpoint_counters()["hits"]
    measure.samples += off + cold + warm
    base = median([s.wall_s for s in off if s.ok])
    measure.layer(
        "core.executor.checkpoint_tax_ratio",
        median([s.wall_s for s in cold if s.ok]) / base if base else 0.0,
        "ratio", len(cold),
    )
    measure.layer("core.executor.checkpoint_stores", stores, "count", len(cold))
    measure.layer("core.executor.checkpoint_store_bytes", store_bytes, "B", len(cold))
    measure.layer("core.executor.checkpoint_hits", hits, "count", len(warm))
    measure.deterministic["core.executor.checkpoint_stores"] = stores


def backend_probe(
    measure: Measurement, workload: BatchWorkload, scratch: Path, seconds: float
) -> None:
    """The same warm op under the thread and process backends with two
    workers, interleaved with serial ops; ratios are serial / variant."""
    from repro.mapreduce.backend import close_backends

    walls: Dict[str, List[float]] = {"serial": [], "thread": [], "process": []}
    try:
        for _ in cycles_within(seconds):
            for backend in walls:
                sample = scoped_op(
                    workload, {"REPRO_EXEC_BACKEND": backend, "REPRO_EXEC_WORKERS": "2"}
                )
                measure.samples.append(sample)
                if sample.ok:
                    walls[backend].append(sample.wall_s)
    finally:
        close_backends()
    serial = median(walls["serial"])
    for backend in ("thread", "process"):
        variant = median(walls[backend])
        measure.layer(
            f"mapreduce.backend.{backend}2_speedup_vs_serial",
            serial / variant if variant else 0.0, "ratio", len(walls[backend]),
        )


def measure_batch(workload: BatchWorkload, measure: Measurement, scratch: Path) -> None:
    smoke = measure.smoke
    seconds = measure.seconds
    pids = workload.pids()
    window = seconds * BASELINE_SHARE if measure.trace else seconds
    # Untraced, the window is --seconds *and* at least MIN_TIMED_OPS ops
    # (plan_cold_q3's 1.6 s ops would otherwise leave the median 7 samples).
    min_ops = 2 if (measure.trace or smoke) else MIN_TIMED_OPS
    cap = 2 if smoke else 0

    cpu_before = machine.cpu_by_pid(pids)
    plain = run_ops(workload.run_op, window, min_ops, cap)
    cpu = machine.cpu_since(cpu_before)
    measure.samples += plain
    good = [s for s in plain if s.ok]
    measure.end_to_end_from(
        [s.wall_s for s in good], [Cycle(s.wall_s, s.cpu_s) for s in good]
    )
    measure.counts_from(plain)
    if isinstance(workload, Dist2Chain):
        dist2_layers(workload, measure, plain, cpu)
    if not measure.trace:
        return

    recorder = spans.Recorder()
    uninstall = spans.install(recorder, wrap_kernels=not isinstance(workload, Dist2Chain))

    def next_op() -> None:
        recorder.op_id += 1

    try:
        traced = run_ops(workload.run_op, seconds * TRACED_SHARE, 2, cap, before=next_op)
    finally:
        uninstall()
    measure.samples += traced
    traced_span_metrics(measure, recorder, len(traced))
    base = lower_quartile([s.wall_s for s in plain if s.ok])
    measure.layer(
        "trace.overhead_ratio",
        lower_quartile([s.wall_s for s in traced if s.ok]) / base if base else 0.0,
        "ratio", len(traced),
    )
    recorder.dump(
        OUT_DIR / f"trace-{workload.name}.json",
        {"workload": workload.name, "seed": workload.seed, "ops": len(traced)},
    )

    probe = EXTRA_PROBES.get(workload.name)
    if probe is not None:
        extra_s = 0.0 if smoke else seconds * (1.0 - BASELINE_SHARE - TRACED_SHARE)
        probe(measure, workload, scratch, extra_s)


def dist2_layers(
    workload: Dist2Chain, measure: Measurement, plain: List[OpSample],
    cpu: Dict[int, float],
) -> None:
    """Data-plane counters and who burned the CPU over the timed ops."""
    good = [s for s in plain if s.ok]
    ops = max(1, len(plain))
    warm_bytes = good[-1].counts.get("mapreduce.backend.bytes_shipped_warm", 0) if good else 0
    measure.layer("mapreduce.backend.cold_query_s", workload.cold_query_s, "s")
    measure.layer("mapreduce.backend.bytes_shipped_cold", workload.cold_bytes, "B")
    measure.layer(
        "mapreduce.backend.reship_ratio",
        warm_bytes / workload.cold_bytes if workload.cold_bytes else 0.0, "ratio",
    )
    measure.deterministic["mapreduce.backend.bytes_shipped_warm"] = warm_bytes
    worker_cpu = sum(cpu[pid] for pid in workload.worker_pids())
    measure.layer("mapreduce.worker.cpu_s_per_query", worker_cpu / ops, "s", ops)
    measure.layer(
        "mapreduce.backend.coord_cpu_s_per_query", cpu[os.getpid()] / ops, "s", ops
    )
    busy = sum(s.wall_s for s in plain)
    measure.layer(
        "mapreduce.worker.busy_share",
        worker_cpu / (busy * len(workload.worker_pids())) if busy else 0.0,
        "ratio", ops,
    )


def serial_ratio_probe(
    measure: Measurement, workload: Dist2Chain, scratch: Path, seconds: float
) -> None:
    """Serial and distributed ops interleaved: the break-even ratio."""
    walls: Dict[str, List[float]] = {"serial": [], "distributed": []}
    for _ in cycles_within(seconds):
        for backend in walls:
            workload.use_backend(backend)
            sample = workload.run_op()
            measure.samples.append(sample)
            if sample.ok:
                walls[backend].append(sample.wall_s)
    workload.use_backend("distributed")
    distributed = median(walls["distributed"])
    measure.layer(
        "mapreduce.backend.speedup_vs_serial",
        median(walls["serial"]) / distributed if distributed else 0.0,
        "ratio", len(walls["distributed"]),
    )


#: The extra probe that fills the rest of a workload's traced window.
EXTRA_PROBES = {
    "exec_merge_q1": checkpoint_probe,
    "chain_hypercube": backend_probe,
    "dist2_chain": serial_ratio_probe,
}


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------


def percentile(values: List[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


def measure_serve(workload: ServeMixed, measure: Measurement) -> None:
    smoke = measure.smoke
    pids = workload.pids()
    cap = 2 if smoke else 0

    def load(seconds: float, traced: bool):
        cpu_before = machine.cpu_by_pid(pids)
        start = time.perf_counter()
        samples, cycles = workload.run_load(seconds, traced, max_ops=cap)
        window = time.perf_counter() - start
        return samples, cycles, window, machine.cpu_since(cpu_before)

    def of(kind: str, pool: List[OpSample]) -> List[OpSample]:
        return [s for s in pool if s.kind == kind and s.ok]

    window_s = measure.seconds * (0.5 if measure.trace else 1.0)
    samples, cycles, window, cpu = load(window_s, traced=False)
    measure.samples += samples
    # The characteristic query is bulk's HEAVY (the issue's heavy_s);
    # throughput counts vip's SHORT queries per bulk round.
    measure.end_to_end_from([s.wall_s for s in of("heavy", samples)], cycles)

    short_ms = [s.wall_s * 1000.0 for s in of("short", samples)]
    heavy = [s.wall_s for s in of("heavy", samples)]
    big = of("big", samples)
    measure.layer("serve.client.short_p50_ms", median(short_ms), "ms", len(short_ms))
    measure.layer("serve.client.short_p90_ms", percentile(short_ms, 0.9), "ms", len(short_ms))
    measure.layer(
        "serve.client.short_qps", len(short_ms) / window if window else 0.0,
        "1/s", len(short_ms),
    )
    # A vip query that arrives while HEAVY is being planned waits for the
    # planning lock: those form a second cluster near HEAVY's own latency.
    half_heavy_ms = lower_quartile(heavy) * 1000.0 / 2.0
    blocked = [ms for ms in short_ms if ms > half_heavy_ms]
    measure.layer("serve.client.short_blocked_ms", median(blocked), "ms", len(blocked))
    measure.layer(
        "serve.client.short_blocked_share",
        len(blocked) / len(short_ms) if short_ms else 0.0, "ratio", len(short_ms),
    )
    measure.layer("serve.client.heavy_s", median(heavy), "s", len(heavy))
    measure.layer(
        "serve.client.paged_rows_per_s",
        median([s.rows / s.wall_s for s in big if s.wall_s > 0]), "1/s", len(big),
    )
    finished = [s for s in samples if s.ok]
    measure.layer(
        "serve.client.total_qps", len(finished) / window if window else 0.0,
        "1/s", len(finished),
    )

    stats = workload.service_stats()
    before = workload.stats_before
    queries = max(1, len(finished))
    daemon_pid = workload.proc.pid
    measure.layer("serve.coordinator.cpu_s_per_query", cpu[daemon_pid] / queries, "s", queries)
    measure.layer("serve.coordinator.peak_rss_mb", machine.peak_rss_mb(daemon_pid), "MiB")
    measure.layer("serve.coordinator.rejected", _delta(stats, before, "rejected"), "count")
    measure.layer(
        "serve.coordinator.failed",
        _delta(stats, before, "failed") + len(workload.events), "count",
    )
    journal = (stats.get("journal") or {}, before.get("journal") or {})
    measure.layer(
        "storage.journal.appends_per_query",
        _delta(*journal, "appended") / queries, "count", queries,
    )
    measure.layer(
        "storage.journal.bytes_per_query", _delta(*journal, "bytes") / queries, "B", queries
    )
    checkpoints = (stats.get("checkpoints") or {}, before.get("checkpoints") or {})
    measure.layer("core.executor.checkpoint_hits", _delta(*checkpoints, "hits"), "count")
    measure.layer("core.executor.checkpoint_stores", _delta(*checkpoints, "stores"), "count")
    if not measure.trace:
        return

    traced, _, _, _ = load(measure.seconds * 0.4, traced=True)
    measure.samples += traced
    traced_short = [s.wall_s * 1000.0 for s in of("short", traced)]
    base = lower_quartile(short_ms)
    measure.layer(
        "trace.overhead_ratio", lower_quartile(traced_short) / base if base else 0.0,
        "ratio", len(traced_short),
    )
    for kind, fields in (
        ("short", ("queue_wait_ms", "planning_ms", "running_ms")),
        ("heavy", ("planning_ms", "running_ms")),
    ):
        pool = of(kind, traced)
        for name in fields:
            measure.layer(
                f"serve.session.{kind}_{name}",
                median([s.counts[name] for s in pool if name in s.counts]), "ms", len(pool),
            )
    for name, pool in (
        ("submit_ms", [s for s in traced if s.ok]),
        ("result_fetch_ms", of("short", traced)),
        ("page_fetch_ms", of("big", traced)),
    ):
        values = [s.counts[name] for s in pool if name in s.counts]
        measure.layer(f"serve.client.{name}", median(values), "ms", len(values))
    (OUT_DIR / f"trace-{workload.name}.json").write_text(json.dumps({
        "workload": workload.name, "seed": workload.seed,
        "queries": [
            {"kind": s.kind, "ok": s.ok, "wall_s": s.wall_s, "rows": s.rows, **s.counts}
            for s in traced
        ],
    }))


def _delta(after: dict, before: dict, key: str) -> float:
    return float(after.get(key, 0) or 0) - float(before.get(key, 0) or 0)


# ----------------------------------------------------------------------
# entry
# ----------------------------------------------------------------------


def main(args) -> int:
    """Run one workload; print the report as the last stdout line."""
    import numpy  # noqa: F401  (the program's own import cost: part of set-up)

    calib_start = time.perf_counter()
    calib_before = 0.0 if args.setup_only else machine.calibrate_ms()
    calib_cost = time.perf_counter() - calib_start

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = OUT_DIR / f"tmp-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    private_environment(scratch)

    workload = WORKLOADS[args.workload](args.seed, args.smoke, scratch)
    measure = Measurement(workload, bool(args.trace), args.smoke, args.seconds)
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": int(args.trace)}
    try:
        workload.setup()
        # Set-up is everything between the parent starting this child
        # and the first timed op, minus our own calibration probe.
        setup_s = time.time() - args.t0 - calib_cost
        measure.end_to_end["setup_s"] = metric(setup_s, "s", 1)
        if not args.setup_only:
            if isinstance(workload, ServeMixed):
                measure_serve(workload, measure)
            else:
                measure_batch(workload, measure, scratch)
            if args.trace:
                micro_probes(measure, scratch, repeats=20 if args.smoke else 200)
    finally:
        workload.teardown()
        shutil.rmtree(scratch, ignore_errors=True)

    calib_after = 0.0 if args.setup_only else machine.calibrate_ms()
    drift = abs(calib_after / calib_before - 1.0) if calib_before else 0.0
    measure.layer("machine.calib_ms", statistics.mean([calib_before, calib_after]), "ms", 2)
    measure.layer("machine.calib_drift", drift, "ratio", 2)
    attempted = len(measure.samples)
    failed = sum(1 for s in measure.samples if not s.ok)
    report.update(
        attempted=attempted,
        failed=failed,
        correct=failed == 0 and (attempted > 0 or args.setup_only),
        disturbed=drift > machine.DISTURBED_DRIFT,
        end_to_end=measure.end_to_end,
        per_layer=measure.per_layer,
        deterministic=measure.deterministic,
        events=workload.events[:20],
    )
    print(json.dumps(report))
    return 0
