"""The five workloads.  Names are fixed: later issues cite them.

Every workload makes its inputs from the seed it is given (the program
under test only ever sees generated relations or a ``(sql, volume,
seed)`` triple), checks every answer against the sqlite oracle, and
counts any failure against the operations attempted.

Sizes were chosen on the 2-core sandbox so that one batch operation costs
0.3–1.5 s and a 12 s run holds at least ten of them; ``perf/README.md``
records the probes.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from perf import machine
from perf.oracle import Digest, digest_rows, sqlite_digest

#: Workloads that need cloudpickle (closures shipped to worker daemons).
DAEMON_WORKLOADS = ("dist2_chain", "serve_mixed")


@dataclass
class OpSample:
    """One attempted operation."""

    wall_s: float
    ok: bool
    kind: str = "op"
    rows: int = 0
    #: CPU seconds of this process and its daemons over the op (batch
    #: workloads only; concurrent serve queries cannot be told apart).
    cpu_s: float = 0.0
    #: Counts read at the layer boundaries after the op (exact numbers).
    counts: Dict[str, float] = field(default_factory=dict)
    error: str = ""
    #: ``time.perf_counter()`` when the op ended.
    end_at: float = 0.0


@dataclass
class Cycle:
    """One round of a workload's load: one op on the batch workloads, one
    HEAVY + BIG round of the bulk tenant on ``serve_mixed``."""

    wall_s: float
    #: CPU seconds of every process of the workload over the round.
    cpu_s: float
    #: Queries of any tenant that finished inside the round.
    queries: int = 1
    #: Of those, the ones throughput counts (``serve_mixed``: vip's).
    primary: int = 1


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def upper_quartile(values: List[float]) -> float:
    """:func:`lower_quartile` for rates, where interference lowers values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4)[2]


def lower_quartile(values: List[float]) -> float:
    """The statistic behind ``query_s`` and ``cpu_s_per_query``.

    On the shared sandbox an op's time is a stable floor plus one-sided
    interference bursts (seconds long, sometimes minutes): over six
    minutes of one warm op the per-12 s-window median moved 0.29–0.39 s
    while the lower quartile stayed within 0.29–0.32 s.  The lower
    quartile needs only a quarter of the window undisturbed.
    """
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4)[0]


# ----------------------------------------------------------------------
# batch workloads: plan + execute in this process
# ----------------------------------------------------------------------


class BatchWorkload:
    """One ``ThetaJoinPlanner.plan`` + ``PlanExecutor.execute`` per op."""

    name = ""
    #: Clear the planning and partitioner caches before every op.
    cold_plan = False

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.query = None
        self.expected: Optional[Digest] = None
        self.events: List[str] = []

    # -- overridden per workload ----------------------------------------

    def build_query(self):
        raise NotImplementedError

    # -- lifecycle --------------------------------------------------------

    def setup(self) -> None:
        self.query = self.build_query()
        self.expected = sqlite_digest(self.query)
        self.start_daemons()
        warm = self.run_op()
        if not warm.ok:
            raise RuntimeError(f"{self.name}: warm-up failed: {warm.error}")

    def start_daemons(self) -> None:
        """Hook for workloads that need daemons up before the warm-up."""

    def teardown(self) -> None:
        pass

    def pids(self) -> List[int]:
        """Every process whose CPU and memory belong to this workload."""
        return [os.getpid()]

    def daemon_cpu_s(self) -> float:
        return sum(machine.cpu_seconds(pid) for pid in self.pids()[1:])

    def before_op(self) -> None:
        if self.cold_plan:
            from repro.core.partitioner import clear_partitioner_cache
            from repro.relational.stats_cache import get_planning_cache

            get_planning_cache().clear()
            clear_partitioner_cache()

    def run_op(self) -> OpSample:
        from repro.core.executor import PlanExecutor
        from repro.core.planner import ThetaJoinPlanner
        from repro.mapreduce.config import PAPER_CLUSTER_KP64
        from repro.mapreduce.runtime import SimulatedCluster
        from repro.relational.stats_cache import get_planning_cache

        self.before_op()
        cache = get_planning_cache()
        cache_before = cache.counters()
        cpu_start = time.process_time() + self.daemon_cpu_s()
        start = time.perf_counter()
        try:
            plan = ThetaJoinPlanner(PAPER_CLUSTER_KP64).plan(self.query)
            outcome = PlanExecutor(SimulatedCluster(PAPER_CLUSTER_KP64)).execute(
                plan, self.query
            )
            rows = outcome.result.rows
        except Exception as exc:  # a failed op is a result, not a crash
            wall = time.perf_counter() - start
            self.events.append(f"op raised {type(exc).__name__}: {exc}")
            return OpSample(wall, False, error=repr(exc))
        wall = time.perf_counter() - start
        cpu = time.process_time() + self.daemon_cpu_s() - cpu_start
        digest = digest_rows(rows)
        ok = digest == self.expected
        if not ok:
            self.events.append(f"wrong answer: {digest} != {self.expected}")
        counts = plan_counts(plan, outcome.report, cache_before, cache.counters())
        counts.update(self.after_op_counts())
        return OpSample(
            wall, ok, rows=len(rows), cpu_s=cpu, counts=counts,
            error="" if ok else "wrong answer",
        )

    def after_op_counts(self) -> Dict[str, float]:
        return {}


def plan_counts(plan, report, cache_before, cache_after) -> Dict[str, float]:
    """The exact counts visible at the planner/executor/runtime boundary."""
    jobs = report.job_metrics
    lookups = misses = 0
    for table in cache_after:
        hits_delta = cache_after[table]["hits"] - cache_before[table]["hits"]
        miss_delta = cache_after[table]["misses"] - cache_before[table]["misses"]
        lookups += hits_delta + miss_delta
        misses += miss_delta
    depth: Dict[str, int] = {}
    for job in plan.jobs:  # plan order is topological
        parents = [ref.name for ref in job.inputs if ref.kind == "job"]
        parents += list(job.depends_on)
        depth[job.job_id] = 1 + max((depth.get(p, 0) for p in parents), default=0)
    output = sum(m.output_records for m in jobs)
    comparisons = sum(m.reduce_comparisons for m in jobs)
    return {
        "core.executor.sim_makespan_s": report.makespan_s,
        "core.planner.gjp_candidates": plan.notes.get("gjp_candidates", 0),
        "core.planner.gjp_pruned": plan.notes.get("gjp_pruned", 0),
        "core.planner.options_tried": plan.notes.get("options_tried", 0),
        "core.planner.est_vs_sim_ratio": (
            plan.est_makespan_s / report.makespan_s if report.makespan_s else 0.0
        ),
        "relational.sampling.join_observations": (
            cache_after["joins"]["misses"] - cache_before["joins"]["misses"]
        ),
        "relational.stats_cache.miss_ratio": misses / lookups if lookups else 0.0,
        "core.executor.jobs": len(jobs),
        "core.executor.waves": max(depth.values(), default=0),
        "core.executor.checkpoint_stores": report.checkpoint_stores,
        "core.executor.checkpoint_hits": report.checkpoint_hits,
        "joins.jobs.comparisons_per_output": comparisons / output if output else 0.0,
        "mapreduce.runtime.map_output_records": sum(
            m.map_output_records for m in jobs
        ),
        "mapreduce.runtime.shuffle_bytes": sum(m.shuffle_bytes for m in jobs),
        "mapreduce.runtime.reduce_comparisons": comparisons,
        "mapreduce.runtime.output_records": output,
        "mapreduce.runtime.reducer_skew": max(
            (m.reducer_skew for m in jobs), default=0.0
        ),
    }


class PlanColdQ3(BatchWorkload):
    name = "plan_cold_q3"
    cold_plan = True

    def build_query(self):
        from repro.utils import GB
        from repro.workloads.mobile import generate_mobile_calls, make_mobile_query

        rows = 60 if self.smoke else 5000
        calls = generate_mobile_calls(
            rows, num_stations=25, num_users=max(3, rows // 12),
            bytes_per_row=(20 * GB) // rows, seed=self.seed,
        )
        return make_mobile_query(3, calls)


class ExecMergeQ1(BatchWorkload):
    name = "exec_merge_q1"

    def build_query(self):
        from repro.utils import GB
        from repro.workloads.mobile import generate_mobile_calls, make_mobile_query

        rows = 150 if self.smoke else 2500
        calls = generate_mobile_calls(
            rows, num_stations=25, num_users=rows // 3,
            bytes_per_row=(20 * GB) // rows, seed=self.seed,
        )
        return make_mobile_query(1, calls)


class ChainHypercube(BatchWorkload):
    name = "chain_hypercube"

    def build_query(self):
        from repro.workloads.synthetic import chain_query

        rows = 60 if self.smoke else 350
        return chain_query(3, rows=rows, selectivity=0.05, seed=self.seed)


class Dist2Chain(ChainHypercube):
    """The chain query under the distributed backend, 2 worker daemons."""

    name = "dist2_chain"

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        super().__init__(seed, smoke, scratch)
        self.procs: list = []
        self.serial_counts: Dict[str, float] = {}
        self.cold_query_s = 0.0
        self.cold_bytes = 0

    def use_backend(self, backend: str) -> None:
        os.environ["REPRO_EXEC_BACKEND"] = backend

    def start_daemons(self) -> None:
        from repro.mapreduce.worker import spawn_daemon

        # The same query through the serial backend first: the reference
        # every distributed op's counts must equal exactly.
        self.use_backend("serial")
        reference = super().run_op()
        if not reference.ok:
            raise RuntimeError(f"{self.name}: serial reference failed")
        self.serial_counts = reference.counts
        for _ in range(2):
            proc, addr = spawn_daemon()  # inherits the private cache dir
            self.procs.append((proc, addr))
        os.environ["REPRO_WORKERS_ADDRS"] = ",".join(a for _, a in self.procs)
        self.use_backend("distributed")
        cold = self.run_op()  # blob tier cold: every payload ships
        if not cold.ok:
            raise RuntimeError(f"{self.name}: cold op failed: {cold.error}")
        self.cold_query_s = cold.wall_s
        self.cold_bytes = int(cold.counts["mapreduce.backend.bytes_shipped_warm"])

    def pids(self) -> List[int]:
        return [os.getpid()] + [proc.pid for proc, _ in self.procs]

    def worker_pids(self) -> List[int]:
        return [proc.pid for proc, _ in self.procs]

    def before_op(self) -> None:
        from repro.mapreduce.backend import get_backend

        backend = get_backend()
        if backend.name == "distributed":
            backend.reset_counters()

    def after_op_counts(self) -> Dict[str, float]:
        from repro.mapreduce.backend import get_backend

        backend = get_backend()
        if backend.name != "distributed":
            return {}
        counters = dict(backend.counters)
        return {
            "mapreduce.backend.bytes_shipped_warm": counters["bytes_shipped"],
            "mapreduce.backend.blob_hits": counters["blob_hits"],
            "mapreduce.backend.registrations": counters["registrations"],
            "mapreduce.backend.hedges_launched": counters["hedges_launched"],
            "mapreduce.backend.breaker_trips": counters["breaker_trips"],
        }

    def run_op(self) -> OpSample:
        sample = super().run_op()
        if sample.ok and self.serial_counts and "mapreduce.backend.blob_hits" in sample.counts:
            for key, reference in self.serial_counts.items():
                if key.startswith("mapreduce.runtime.") or key.endswith("sim_makespan_s"):
                    if sample.counts[key] != reference:
                        sample.ok = False
                        sample.error = f"{key} differs from the serial run"
                        self.events.append(sample.error)
        return sample

    def teardown(self) -> None:
        from repro.mapreduce.backend import close_backends
        from repro.mapreduce.worker import stop_daemons

        try:
            close_backends()
        finally:
            stop_daemons([proc for proc, _ in self.procs])
            self.procs = []


# ----------------------------------------------------------------------
# serve_mixed: a real `repro serve` subprocess under two tenants
# ----------------------------------------------------------------------

SHORT_SQL = (
    "SELECT t2.id FROM table t1, table t2 "
    "WHERE t1.d = t2.d AND t1.bt <= t2.bt"
)
HEAVY_SQL = (
    "SELECT t1.id FROM table t1, table t2, table t3, table t4 "
    "WHERE t1.id = t2.id AND t1.d < t2.d AND t2.id = t3.id AND t2.d < t3.d "
    "AND t1.d + 3 > t3.d AND t1.bsc = t4.bsc AND t1.d = t4.d"
)
BIG_SQL = (
    "SELECT t3.id FROM table t1, table t2, table t3 "
    "WHERE t1.d = t2.d AND t1.bt <= t2.bt AND t1.l >= t2.l "
    "AND t2.bsc != t3.bsc AND t2.d = t3.d"
)


def serve_oracle(sql: str, volume: int, seed: int) -> Digest:
    """What the service must answer for ``(sql, volume, seed)``: the same
    generated relations, joined by sqlite."""
    from repro.relational.sql import parse_join_query
    from repro.workloads import workload_relations

    relations = workload_relations("mobile", volume, seed)
    return sqlite_digest(parse_join_query(sql, relations, name="oracle"))


class ServeMixed:
    """Closed loop, 2 client connections: tenant ``vip`` (priority 5)
    repeats SHORT; tenant ``bulk`` (priority 1) alternates HEAVY (fresh
    seed per request, so its plan is cold) and BIG (paged fetch)."""

    name = "serve_mixed"

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        # SHORT and BIG run at volume label 500 (380-row relations, as in
        # the issue).  HEAVY runs at 100 (240 rows): its cold plan then
        # holds the planning lock ~1.1 s instead of ~1.8 s, so a 12 s
        # window sees ~8 bulk rounds instead of 5.
        self.volume = 0 if smoke else 500
        self.heavy_volume = 0 if smoke else 100
        self.page_size = 500 if smoke else 2000
        #: The bulk tenant idles this long after each HEAVY + BIG round,
        #: so every round has a stretch where vip is served alone.
        self.bulk_think_s = 0.0 if smoke else 0.4
        #: vip pauses this long between queries.  Without it vip's count
        #: per round is 0.4 s / (7 ms round trip) and swings 30 % with the
        #: sandbox's wake-up latency; with it the count is set mostly by
        #: how long the planning lock keeps vip out.
        self.vip_think_s = 0.0 if smoke else 0.02
        self.proc = None
        self.addr = ""
        self.events: List[str] = []
        self.short_expected: Optional[Digest] = None
        self.big_expected: Optional[Digest] = None
        self.heavy_serial = 0
        self.stats_before: dict = {}

    # -- lifecycle --------------------------------------------------------

    def setup(self) -> None:
        import repro
        from repro.serve.coordinator import spawn_service

        self.short_expected = serve_oracle(SHORT_SQL, self.volume, self.seed)
        self.big_expected = serve_oracle(BIG_SQL, self.volume, self.seed)
        journal = self.scratch / "serve.journal"
        self.proc, self.addr = spawn_service(
            extra_args=(
                "--max-concurrent", "2", "--max-queue", "16",
                "--journal", str(journal),
            ),
            env_extra={"REPRO_CHECKPOINT": "1", "REPRO_JOURNAL_FSYNC": "1"},
        )
        # Warm-up: SHORT and BIG planned once, so the timed loop sees the
        # warm caches / checkpoint hits a long-lived service has.
        with repro.connect(self.addr, timeout_s=60.0, client_id="vip", priority=5) as client:
            warm = self.short_query(client, traced=False)
            if not warm.ok:
                raise RuntimeError(f"{self.name}: warm-up failed: {warm.error}")
        with repro.connect(self.addr, timeout_s=60.0, client_id="bulk", priority=1) as client:
            warm = self.big_query(client, traced=False)
            if not warm.ok:
                raise RuntimeError(f"{self.name}: warm-up failed: {warm.error}")
        self.stats_before = self.service_stats()

    def teardown(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()

    def pids(self) -> List[int]:
        pids = [os.getpid()]
        if self.proc is not None:
            pids.append(self.proc.pid)
        return pids

    def service_stats(self) -> dict:
        """``stats`` over a fresh connection; {} (and an event) on failure."""
        import repro

        try:
            with repro.connect(self.addr, timeout_s=15.0) as client:
                return client.stats()
        except Exception as exc:
            self.events.append(f"stats failed: {type(exc).__name__}: {exc}")
            return {}

    # -- the three query kinds --------------------------------------------

    def _timed(self, kind: str, body: Callable[[], OpSample]) -> OpSample:
        start = time.perf_counter()
        try:
            sample = body()
        except Exception as exc:
            # Transport error, structured rejection, timeout, dead daemon:
            # all are failed ops counted against attempts.
            self.events.append(f"{kind} failed: {type(exc).__name__}: {exc}")
            sample = OpSample(time.perf_counter() - start, False, kind, error=repr(exc))
        sample.end_at = time.perf_counter()
        return sample

    def _session_counts(self, client, query_id: str, submit_s: float):
        """One ``status`` call and one more ``result`` fetch of the
        finished query: where its time went inside the service, and what
        DONE -> rows in hand costs on the wire."""
        times = client.status(query_id)["state_times"]
        planning = times.get("PLANNING", 0.0)
        running = times.get("RUNNING", planning)
        done = times.get("DONE", running)
        start = time.perf_counter()
        client.result(query_id, timeout_s=5.0)
        fetch_s = time.perf_counter() - start
        return {
            "submit_ms": submit_s * 1000.0,
            "queue_wait_ms": planning * 1000.0,
            "planning_ms": (running - planning) * 1000.0,
            "running_ms": (done - running) * 1000.0,
            "result_fetch_ms": fetch_s * 1000.0,
        }

    def _run_whole(self, client, kind, sql, volume, seed, expected, traced) -> OpSample:
        def body() -> OpSample:
            start = time.perf_counter()
            query_id = client.execute(sql, volume=volume, seed=seed)
            submitted = time.perf_counter()
            rows = client.wait(query_id, timeout_s=120.0)["rows"]
            wall = time.perf_counter() - start
            counts = {}
            if traced:
                counts = self._session_counts(client, query_id, submitted - start)
            digest = digest_rows(rows)
            want = expected() if callable(expected) else expected
            ok = digest == want
            if not ok:
                self.events.append(f"{kind}: wrong answer {digest} != {want}")
            return OpSample(wall, ok, kind, rows=len(rows), counts=counts,
                            error="" if ok else "wrong answer")

        return self._timed(kind, body)

    def short_query(self, client, traced: bool) -> OpSample:
        return self._run_whole(
            client, "short", SHORT_SQL, self.volume, self.seed,
            self.short_expected, traced,
        )

    def heavy_query(self, client, traced: bool) -> OpSample:
        self.heavy_serial += 1
        seed = self.seed * 1000 + self.heavy_serial  # never seen: cold plan
        return self._run_whole(
            client, "heavy", HEAVY_SQL, self.heavy_volume, seed,
            lambda: serve_oracle(HEAVY_SQL, self.heavy_volume, seed), traced,
        )

    def big_query(self, client, traced: bool) -> OpSample:
        def body() -> OpSample:
            start = time.perf_counter()
            query_id = client.execute(BIG_SQL, volume=self.volume, seed=self.seed)
            rows = []
            page_ms = []
            if traced:
                client.wait(query_id, timeout_s=120.0)
                offset = 0
                while offset is not None:
                    page_start = time.perf_counter()
                    page = client.result(
                        query_id, offset=offset, limit=self.page_size
                    )["result"]
                    page_ms.append((time.perf_counter() - page_start) * 1000.0)
                    rows.extend(page["rows"])
                    offset = page["next_offset"]
            else:
                rows = list(client.iter_rows(query_id, page_size=self.page_size))
            wall = time.perf_counter() - start
            digest = digest_rows(rows)
            ok = digest == self.big_expected
            if not ok:
                self.events.append(f"big: wrong answer {digest}")
            counts = {"page_fetch_ms": median(page_ms)} if page_ms else {}
            return OpSample(wall, ok, "big", rows=len(rows), counts=counts,
                            error="" if ok else "wrong answer")

        return self._timed("big", body)

    # -- the closed loop --------------------------------------------------

    def run_load(self, seconds: float, traced: bool, max_ops: int = 0):
        """Both tenants until ``seconds`` have passed (or, in smoke runs,
        ``max_ops`` per tenant).  Returns every attempted op and the bulk
        tenant's completed rounds as :class:`Cycle` records."""
        import repro

        samples: List[OpSample] = []
        marks: List[tuple] = []  # (time, CPU so far) at each bulk round start
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds

        def mark() -> None:
            cpu = time.process_time() + machine.cpu_seconds(self.proc.pid)
            marks.append((time.perf_counter(), cpu))

        def tenant(client_id: str, priority: int, kinds, rounds: bool, think_s: float) -> None:
            client = None
            done = 0
            while time.perf_counter() < deadline and not (max_ops and done >= max_ops):
                if self.proc is None or self.proc.poll() is not None:
                    with lock:
                        samples.append(OpSample(0.0, False, "daemon", error="daemon died"))
                    self.events.append("service daemon is gone")
                    return
                if client is None:
                    try:
                        client = repro.connect(
                            self.addr, timeout_s=60.0,
                            client_id=client_id, priority=priority,
                        )
                    except Exception as exc:
                        self.events.append(f"connect failed: {exc!r}")
                        with lock:
                            samples.append(OpSample(0.0, False, "connect", error=repr(exc)))
                        time.sleep(0.2)
                        continue
                if rounds and done % len(kinds) == 0:
                    if done:
                        time.sleep(self.bulk_think_s)
                    mark()
                sample = kinds[done % len(kinds)](client, traced)
                done += 1
                with lock:
                    samples.append(sample)
                if think_s:
                    time.sleep(think_s)
                if not sample.ok and sample.error != "wrong answer":
                    client.close()  # the connection may be poisoned
                    client = None
            if rounds and done % len(kinds) == 0 and self.proc is not None:
                time.sleep(self.bulk_think_s)
                mark()  # closes the last round
            if client is not None:
                client.close()

        threads = [
            threading.Thread(
                target=tenant,
                args=("vip", 5, [self.short_query], False, self.vip_think_s),
            ),
            threading.Thread(
                target=tenant,
                args=("bulk", 1, [self.heavy_query, self.big_query], True, 0.0),
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        cycles = []
        for (start, cpu_start), (end, cpu_end) in zip(marks, marks[1:]):
            inside = [s for s in samples if s.ok and start <= s.end_at < end]
            cycles.append(Cycle(
                end - start, cpu_end - cpu_start, len(inside),
                sum(1 for s in inside if s.kind == "short"),
            ))
        return samples, cycles


WORKLOADS = {
    cls.name: cls
    for cls in (PlanColdQ3, ExecMergeQ1, ChainHypercube, Dist2Chain, ServeMixed)
}


def private_environment(scratch: Path) -> None:
    """A private cache root and no inherited ``REPRO_*`` knob, so a run
    never reads or writes ``~/.cache/repro`` and never depends on the
    caller's shell."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")
    os.environ["REPRO_PLAN_DISK_CACHE"] = "0"
