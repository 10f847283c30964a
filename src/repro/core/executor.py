"""Executing :class:`ExecutionPlan` objects on the simulated cluster.

The executor is shared by our planner and every baseline planner, which
is what makes the comparison fair: all methods run through the identical
substrate and bookkeeping, only their plans differ.

Execution is event-driven: a job starts when its dependencies have
finished and its allotted units are free; its duration comes from really
running it on the :class:`SimulatedCluster`.  Terminal job outputs are
merged by the id-based merge of Section 4.2 (merges begin as soon as both
inputs exist, overlapping later jobs).  The final composites become a
flat output :class:`Relation`.
"""

from __future__ import annotations

import hashlib
import heapq
import pickle
import threading
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.group_cost import merge_duration_s
from repro.core.partitioner import (
    HypercubePartitioner,
    RandomPartitioner,
    get_partitioner,
)
from repro.core.plan import (
    STRATEGY_BROADCAST,
    STRATEGY_EQUI,
    STRATEGY_EQUICHAIN,
    STRATEGY_HYPERCUBE,
    STRATEGY_ONEBUCKET,
    STRATEGY_RANDOMCUBE,
    ExecutionPlan,
    InputRef,
    PlannedJob,
)
from repro.errors import ExecutionError
from repro.joins.jobs import (
    make_broadcast_join_job,
    make_equi_join_job,
    make_equichain_join_job,
    make_hypercube_join_job,
)
from repro.joins.progressive import merge_picker
from repro.joins.records import (
    Composite,
    composites_to_relation,
    entry_alias,
    entry_global_id,
    relation_to_composite_file,
)
from repro.mapreduce.backend import get_backend
from repro.mapreduce.cancel import check_cancelled
from repro.mapreduce.config import execution_settings
from repro.mapreduce.counters import ExecutionReport, JobMetrics
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.stats_cache import relation_fingerprint
from repro.storage import (
    LRUTable,
    blob_digest,
    blob_tier,
    checkpoint_tier,
    stable_key_repr,
)
from repro.utils import MB

#: Per-job checkpoint payload cap, bytes: a larger output is counted
#: (``skipped_oversize``) and not persisted — the recompute is cheaper
#: than the disk churn.
CHECKPOINT_MAX_BYTES = 64 * MB

#: Base relations lifted to composite files, shared across executions by
#: relation *content* — the four-planner comparisons re-execute the same
#: query, and composite files are immutable once built, so re-lifting per
#: execution was pure waste.  Keyed by (fingerprint, alias); bounded LRU.
_COMPOSITE_FILE_CACHE = LRUTable(max_entries=256)


def lift_base_relation(relation: Relation, alias: str) -> DistributedFile:
    """Memoized :func:`relation_to_composite_file` (content-keyed)."""
    key = (relation_fingerprint(relation), alias)
    hit, file = _COMPOSITE_FILE_CACHE.lookup(key)
    if not hit:
        file = relation_to_composite_file(relation, alias)
        _COMPOSITE_FILE_CACHE.store(key, file)
    return file  # type: ignore[return-value]


@dataclass
class ExecutionOutcome:
    """Everything produced by running one plan."""

    result: Relation
    report: ExecutionReport
    #: Raw result composites (alias, global id, row) for result validation.
    composites: List[Composite]


# -- wave checkpoint accounting (process-wide, for `repro serve stats`) --

_CHECKPOINT_LOCK = threading.Lock()
_CHECKPOINT_COUNTERS = {
    "hits": 0,
    "stores": 0,
    "store_bytes": 0,
    "bytes_restored": 0,
    "skipped_oversize": 0,
}


def _ckpt_account(name: str, delta: int = 1) -> None:
    with _CHECKPOINT_LOCK:
        _CHECKPOINT_COUNTERS[name] += delta


def checkpoint_counters() -> Dict[str, int]:
    """Process-wide wave-checkpoint counters (snapshot)."""
    with _CHECKPOINT_LOCK:
        return dict(_CHECKPOINT_COUNTERS)


def reset_checkpoint_counters() -> None:
    with _CHECKPOINT_LOCK:
        for name in _CHECKPOINT_COUNTERS:
            _CHECKPOINT_COUNTERS[name] = 0


@dataclass
class _CheckpointContext:
    """The two stores behind wave checkpointing."""

    index: object  # KeyedDiskStore: checkpoint key -> {"digest", "bytes"}
    blobs: object  # DiskBlobStore: digest -> pickled (records, width, metrics)


#: What :meth:`PlanExecutor._prepare` found for one job of a wave: an
#: empty input (the join is empty, nothing runs), a checkpointed output
#: to restore, or a materialized spec to run.
_EMPTY, _RESTORED, _RUN = "empty", "restored", "run"


class PlanExecutor:
    """Runs any :class:`ExecutionPlan` against a simulated cluster.

    ``on_wave`` (optional) is called as ``on_wave(job_id, digest,
    restored)`` after every checkpointed job — once when its output is
    persisted (``restored=False``) and once per restore from an earlier
    run (``restored=True``).  ``repro serve`` journals these so crash
    recovery can prove which waves a resumed query never re-executed.
    """

    #: Per-execute state, defaulted at class level so helper methods can
    #: run standalone (tests) without an :meth:`execute` call first.
    _ckpt: Optional[_CheckpointContext] = None
    _wave_delay_s: float = 0.0

    def __init__(
        self,
        cluster: SimulatedCluster,
        on_wave: Optional[Callable[[str, str, bool], None]] = None,
    ) -> None:
        self.cluster = cluster
        self.on_wave = on_wave
        self._ckpt_keys: Dict[str, str] = {}

    # ------------------------------------------------------------------

    def execute(self, plan: ExecutionPlan, query: JoinQuery) -> ExecutionOutcome:
        missing = set(c.condition_id for c in query.conditions) - set(
            plan.covered_condition_ids()
        )
        if missing:
            raise ExecutionError(
                f"plan {plan.name!r} does not cover conditions {sorted(missing)}"
            )

        schemas = {alias: rel.schema for alias, rel in query.relations.items()}
        base_files = {
            alias: self.cluster.hdfs.put(lift_base_relation(relation, alias))
            for alias, relation in query.relations.items()
        }

        report = ExecutionReport(plan_name=plan.name)
        job_outputs: Dict[str, DistributedFile] = {}
        self._alias_cover = self._compute_alias_cover(plan)
        settings = execution_settings()
        self._wave_delay_s = settings.wave_delay_s
        self._ckpt_keys: Dict[str, str] = {}
        self._ckpt: Optional[_CheckpointContext] = None
        # Simulated-time noise would make a restored wave replay the
        # *other* run's noise draw; checkpointing stays off under noise.
        if settings.checkpoint and self.cluster.config.noise_sigma == 0.0:
            self._ckpt = _CheckpointContext(
                index=checkpoint_tier(settings), blobs=blob_tier(settings)
            )
        job_ends = self._run_jobs(plan, query, schemas, base_files, job_outputs, report)

        final_composites, final_cover, merge_end, merge_total = self._merge_terminals(
            plan, job_outputs, job_ends
        )
        report.merge_time_s = merge_total
        report.makespan_s = max(max(job_ends.values(), default=0.0), merge_end)
        report.output_records = len(final_composites)

        result = composites_to_relation(
            final_composites,
            schemas,
            name=f"{query.name}-result",
            projection=query.projection,
            cover=final_cover,
        )
        return ExecutionOutcome(
            result=result, report=report, composites=final_composites
        )

    # ------------------------------------------------------------------
    # job phase
    # ------------------------------------------------------------------

    @staticmethod
    def _compute_alias_cover(plan: ExecutionPlan) -> Dict[str, Tuple[str, ...]]:
        """Alias coverage of every job's output, independent of its records.

        Needed because an *empty* intermediate file carries no records to
        infer aliases from, yet downstream jobs still have to be built.
        Kahn-style topological pass: each job is visited once when its
        last job-input resolves, instead of re-sweeping the full list.
        """
        cover: Dict[str, Tuple[str, ...]] = {}
        waiting: Dict[str, int] = {}
        dependents: Dict[str, List[PlannedJob]] = {}
        ready: List[PlannedJob] = []
        for job in plan.jobs:
            unresolved = {ref.name for ref in job.inputs if ref.kind == "job"}
            if unresolved:
                waiting[job.job_id] = len(unresolved)
                for name in unresolved:
                    dependents.setdefault(name, []).append(job)
            else:
                ready.append(job)
        resolved = 0
        while ready:
            job = ready.pop()
            aliases: set = set()
            for ref in job.inputs:
                if ref.kind == "base":
                    aliases.add(ref.name)
                else:
                    aliases.update(cover[ref.name])
            cover[job.job_id] = tuple(sorted(aliases))
            resolved += 1
            for dependent in dependents.get(job.job_id, ()):
                waiting[dependent.job_id] -= 1
                if waiting[dependent.job_id] == 0:
                    ready.append(dependent)
        if resolved != len(plan.jobs):
            raise ExecutionError("cyclic job inputs in plan")
        return cover

    def _input_aliases(self, ref: InputRef) -> Tuple[str, ...]:
        if ref.kind == "base":
            return (ref.name,)
        return self._alias_cover[ref.name]

    def _run_jobs(
        self,
        plan: ExecutionPlan,
        query: JoinQuery,
        schemas: Mapping[str, object],
        base_files: Mapping[str, DistributedFile],
        job_outputs: Dict[str, DistributedFile],
        report: ExecutionReport,
    ) -> Dict[str, float]:
        """Event-driven execution respecting dependencies and the unit budget.

        Jobs sit in a dependency-counted ready queue (kept in plan order,
        so start decisions match the previous full-sweep implementation)
        instead of being re-scanned and ``list.remove``d on every event.
        """
        import bisect

        done: Dict[str, float] = {}
        running: List[Tuple[float, str, int]] = []  # (end, job_id, units)
        available = plan.total_units
        now = 0.0

        order = {job.job_id: index for index, job in enumerate(plan.jobs)}
        all_deps: Dict[str, Tuple[str, ...]] = {}
        unmet: Dict[str, set] = {}
        dependents: Dict[str, List[PlannedJob]] = {}
        ready: List[PlannedJob] = []  # plan order, maintained by bisect
        remaining = len(plan.jobs)
        for job in plan.jobs:
            deps = set(job.depends_on)
            deps.update(ref.name for ref in job.inputs if ref.kind == "job")
            all_deps[job.job_id] = tuple(deps)
            if deps:
                unmet[job.job_id] = deps
                for dep in deps:
                    dependents.setdefault(dep, []).append(job)
            else:
                ready.append(job)

        ready_keys = [order[job.job_id] for job in ready]

        def push_ready(job: PlannedJob) -> None:
            key = order[job.job_id]
            at = bisect.bisect_left(ready_keys, key)
            ready_keys.insert(at, key)
            ready.insert(at, job)

        def release_dependents(finished_id: str) -> None:
            for dependent in dependents.get(finished_id, ()):
                waiting = unmet[dependent.job_id]
                waiting.discard(finished_id)
                if not waiting:
                    push_ready(dependent)

        while remaining or running:
            # Cooperative cancellation checkpoint: a serve-session
            # deadline or cancel stops the plan between ready waves.
            check_cancelled()
            # Start every ready job that fits, in plan order.  Starting a
            # job only consumes units, so one ordered pass reaches the
            # same fixed point the previous repeated sweeps did.  The
            # pass first *selects* the wave (selection depends only on
            # units and dependencies, never on job results), then
            # executes the whole wave through the execution backend —
            # independent jobs of one wave really run concurrently while
            # simulated start times, durations, and metrics order stay
            # exactly those of the serial loop.
            wave: List[Tuple[PlannedJob, int]] = []
            index = 0
            while index < len(ready):
                job = ready[index]
                units = min(job.units, plan.total_units)
                if units > available:
                    index += 1
                    continue
                earliest = max(
                    [now] + [done[d] for d in all_deps[job.job_id]]
                )
                if earliest > now:
                    index += 1
                    continue
                wave.append((job, units))
                available -= units
                remaining -= 1
                del ready[index]
                del ready_keys[index]
            if wave:
                durations = self._run_job_wave(
                    [job for job, _ in wave],
                    query,
                    schemas,
                    base_files,
                    job_outputs,
                    report,
                )
                for (job, units), duration in zip(wave, durations):
                    heapq.heappush(running, (now + duration, job.job_id, units))
                if self._wave_delay_s > 0:
                    # Chaos/test knob (REPRO_WAVE_DELAY_S): widen the
                    # inter-wave window so a kill lands after a known
                    # number of waves were checkpointed and journaled.
                    time.sleep(self._wave_delay_s)
            if remaining or running:
                if not running:
                    stuck = sorted(
                        set(unmet) - set(done) | {j.job_id for j in ready},
                        key=lambda job_id: order[job_id],
                    )
                    raise ExecutionError(
                        f"plan {plan.name!r} deadlocked: pending jobs "
                        f"{stuck} cannot start"
                    )
                end, job_id, units = heapq.heappop(running)
                now = max(now, end)
                done[job_id] = end
                available += units
                release_dependents(job_id)
                while running and running[0][0] <= now:
                    end2, job_id2, units2 = heapq.heappop(running)
                    done[job_id2] = end2
                    available += units2
                    release_dependents(job_id2)
        return done

    def _run_job_wave(
        self,
        jobs: List[PlannedJob],
        query: JoinQuery,
        schemas,
        base_files: Mapping[str, DistributedFile],
        job_outputs: Dict[str, DistributedFile],
        report: ExecutionReport,
    ) -> List[float]:
        """Run one ready wave of independent jobs; returns their durations.

        Jobs of a wave share no dependencies (they were startable at the
        same simulated instant), so their *computation* can run
        concurrently on the execution backend.  Every job is prepared
        parent-side in wave order (partitioner/composite caches stay
        warm and single-threaded); only the pure ``run_job`` calls are
        dispatched — to threads, forked workers, or remote worker
        daemons alike (the distributed coordinator falls back to the
        in-line loop when no daemon answers), or run in line when the
        wave has one job or the backend is serial.  Results are folded
        back strictly in wave order, so ``report.job_metrics``, HDFS
        contents, and every downstream decision are identical whatever
        ran the jobs.
        """
        prepared = [
            self._prepare(job, query, schemas, base_files, job_outputs)
            for job in jobs
        ]
        cluster = self.cluster
        runnable = [
            (job, spec) for job, (kind, spec) in zip(jobs, prepared) if kind == _RUN
        ]

        def run_one(index: int):
            job, spec = runnable[index]
            return cluster.run_job(spec, map_units=job.units, reduce_units=job.units)

        backend = get_backend()
        if len(jobs) <= 1 or backend.name == "serial":
            results = [run_one(index) for index in range(len(runnable))]
        else:
            results = backend.run_tasks(run_one, len(runnable))
        ran = iter(results)
        return [
            self._fold(
                job, query, kind, next(ran) if kind == _RUN else found,
                job_outputs, report,
            )
            for job, (kind, found) in zip(jobs, prepared)
        ]

    def _prepare(
        self,
        job: PlannedJob,
        query: JoinQuery,
        schemas,
        base_files: Mapping[str, DistributedFile],
        job_outputs: Mapping[str, DistributedFile],
    ) -> Tuple[str, object]:
        """Everything of one job that precedes running it: ``(_EMPTY,
        None)``, ``(_RESTORED, (file, metrics, digest))`` or ``(_RUN,
        spec)``."""
        resolved = [
            base_files[ref.name] if ref.kind == "base" else job_outputs[ref.name]
            for ref in job.inputs
        ]
        if any(f.num_records == 0 for f in resolved):
            # An empty input (e.g. an upstream join with no matches)
            # makes the whole join empty.
            if self._ckpt is not None:
                # Not worth persisting (start-up charge only), but the key
                # must exist: downstream jobs chain through it.
                self._checkpoint_key(job, query)
            return _EMPTY, None
        if self._ckpt is not None:
            restored = self._checkpoint_restore(
                job, query, self._checkpoint_key(job, query)
            )
            if restored is not None:
                return _RESTORED, restored
        return _RUN, self._materialize(job, query, schemas, base_files, job_outputs)

    def _fold(
        self,
        job: PlannedJob,
        query: JoinQuery,
        kind: str,
        found,
        job_outputs: Dict[str, DistributedFile],
        report: ExecutionReport,
    ) -> float:
        """Publish one job's outcome — the empty output, the restored
        checkpoint, or the :class:`JobResult` of its run — into HDFS,
        ``job_outputs`` and the report; returns the job's duration."""
        name = f"{query.name}:{job.job_id}"
        digest: Optional[str] = None
        if kind == _EMPTY:
            # Emit an empty output and charge start-up only.
            file = DistributedFile(
                name=f"{name}.out", records=[], record_width=64, tag=f"{name}.out"
            )
            metrics = JobMetrics(job_name=name)
            metrics.total_time_s = (
                self.cluster.config.job_startup_s + job.extra_startup_s
            )
        elif kind == _RESTORED:
            file, metrics, digest = found
            report.checkpoint_hits += 1
        else:
            file, metrics = found.output, found.metrics
            metrics.total_time_s += job.extra_startup_s
            metrics.startup_time_s += job.extra_startup_s
            if self._ckpt is not None:
                digest = self._checkpoint_persist(
                    job, query, self._checkpoint_key(job, query), found
                )
                if digest is not None:
                    report.checkpoint_stores += 1
        # The job may have run against a forked (process backend) or
        # shipped (distributed backend) copy of the cluster; publish its
        # output in the parent's namespace.
        self.cluster.hdfs.put(file)
        job_outputs[job.job_id] = file
        report.job_metrics.append(metrics)
        if digest is not None and self.on_wave is not None:
            self.on_wave(job.job_id, digest, kind == _RESTORED)
        return metrics.total_time_s

    # -- wave checkpointing ---------------------------------------------

    def _checkpoint_key(self, job: PlannedJob, query: JoinQuery) -> str:
        """Content key of this job's output: Merkle over everything that
        determines it (and its metrics) — the job's shape, its condition
        semantics, the cluster's rates, and the identity of every input
        (base relations by content fingerprint, upstream jobs by *their*
        checkpoint key, which chains the whole DAG).  Two queries with
        different names but identical content share keys; name-dependent
        fields are rewritten on restore."""
        cached = self._ckpt_keys.get(job.job_id)
        if cached is not None:
            return cached
        inputs = []
        for ref in job.inputs:
            if ref.kind == "base":
                inputs.append(
                    ("base",) + relation_fingerprint(query.relations[ref.name])
                )
            else:
                inputs.append(("job", self._ckpt_keys[ref.name]))
        parts = (
            "wave-ckpt-v1",
            job.strategy,
            int(job.units),
            int(job.num_reducers),
            int(job.partition_bits),
            int(job.output_replication),
            float(job.extra_startup_s),
            tuple(repr(query.condition(cid)) for cid in job.condition_ids),
            tuple(self._input_aliases(ref) for ref in job.inputs),
            tuple(inputs),
            repr(self.cluster.config),
        )
        key = hashlib.sha256(stable_key_repr(parts).encode("utf-8")).hexdigest()
        self._ckpt_keys[job.job_id] = key
        return key

    def _checkpoint_restore(
        self, job: PlannedJob, query: JoinQuery, key: str
    ) -> Optional[Tuple[DistributedFile, JobMetrics, str]]:
        """Load a checkpointed wave output; None on any miss/corruption.

        Verify-on-read end to end: the keyed index rejects version/format
        skew, the blob store re-hashes the payload (deleting a corrupt
        file), and an undecodable payload discards the entry — a
        checkpoint can cost a recompute, never a wrong answer.
        """
        ctx = self._ckpt
        hit, entry = ctx.index.load("waves", key)
        if not hit or not isinstance(entry, dict) or "digest" not in entry:
            return None
        digest = entry["digest"]
        payload = ctx.blobs.get(digest)
        if payload is None:
            return None
        try:
            records, record_width, metrics = pickle.loads(payload)
        except Exception:
            ctx.blobs.discard(digest)
            return None
        # The stored output/metrics carry the *writing* query's name;
        # rebuild the name-dependent fields for this run so a restored
        # execution is bit-identical to a fresh one.
        name = f"{query.name}:{job.job_id}"
        metrics.job_name = name
        file = DistributedFile(
            name=f"{name}.out",
            records=records,
            record_width=record_width,
            tag=f"{name}.out",
        )
        _ckpt_account("hits")
        _ckpt_account("bytes_restored", len(payload))
        return file, metrics, digest

    def _checkpoint_persist(
        self, job: PlannedJob, query: JoinQuery, key: str, result
    ) -> Optional[str]:
        """Persist one completed job's output; returns its blob digest."""
        ctx = self._ckpt
        try:
            payload = pickle.dumps(
                (
                    list(result.output.records),
                    result.output.record_width,
                    result.metrics,
                ),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception:  # unpicklable record type: persistence is optional
            return None
        if len(payload) > CHECKPOINT_MAX_BYTES:
            _ckpt_account("skipped_oversize")
            return None
        digest = blob_digest(payload)
        if not ctx.blobs.put(digest, payload):
            return None
        ctx.index.store("waves", key, {"digest": digest, "bytes": len(payload)})
        _ckpt_account("stores")
        _ckpt_account("store_bytes", len(payload))
        return digest

    def _materialize(
        self,
        job: PlannedJob,
        query: JoinQuery,
        schemas,
        base_files: Mapping[str, DistributedFile],
        job_outputs: Mapping[str, DistributedFile],
    ):
        def resolve(ref: InputRef) -> DistributedFile:
            if ref.kind == "base":
                return base_files[ref.name]
            return job_outputs[ref.name]

        files = [resolve(ref) for ref in job.inputs]
        conditions = [query.condition(cid) for cid in job.condition_ids]
        name = f"{query.name}:{job.job_id}"

        if job.strategy in (
            STRATEGY_HYPERCUBE,
            STRATEGY_ONEBUCKET,
            STRATEGY_RANDOMCUBE,
        ):
            cards = [f.num_records for f in files]
            if any(c == 0 for c in cards):
                raise ExecutionError(
                    f"job {job.job_id!r}: empty input relation; no results"
                )
            reducers = min(job.num_reducers, max(1, min(cards)) * 4)
            partitioner_cls = (
                RandomPartitioner
                if job.strategy == STRATEGY_RANDOMCUBE
                else HypercubePartitioner
            )
            # Shared LRU instance: the planner's costing usually built the
            # very same partitioner, so run time pays no rebuild.
            partitioner = get_partitioner(
                partitioner_cls, tuple(cards), reducers, bits=job.partition_bits
            )
            dim_aliases = [self._input_aliases(ref) for ref in job.inputs]
            spec = make_hypercube_join_job(
                name,
                files,
                dim_aliases,
                partitioner,
                conditions,
                schemas,
                output_name=f"{name}.out",
            )
        elif job.strategy == STRATEGY_EQUICHAIN:
            spec = make_equichain_join_job(
                name,
                files,
                conditions,
                schemas,
                num_reducers=job.num_reducers,
                output_name=f"{name}.out",
                alias_groups=[self._input_aliases(ref) for ref in job.inputs],
            )
        elif job.strategy == STRATEGY_EQUI:
            spec = make_equi_join_job(
                name,
                files[0],
                files[1],
                conditions,
                schemas,
                num_reducers=job.num_reducers,
                output_name=f"{name}.out",
                left_aliases=self._input_aliases(job.inputs[0]),
                right_aliases=self._input_aliases(job.inputs[1]),
            )
        elif job.strategy == STRATEGY_BROADCAST:
            big, small = files[0], files[1]
            big_ref, small_ref = job.inputs[0], job.inputs[1]
            if small.size_bytes > big.size_bytes:
                big, small = small, big
                big_ref, small_ref = small_ref, big_ref
            spec = make_broadcast_join_job(
                name,
                big,
                small,
                conditions,
                schemas,
                num_reducers=job.num_reducers,
                output_name=f"{name}.out",
                big_aliases=self._input_aliases(big_ref),
                small_aliases=self._input_aliases(small_ref),
            )
        else:
            raise ExecutionError(f"unknown strategy {job.strategy!r}")
        spec.output_replication = job.output_replication
        return spec

    # ------------------------------------------------------------------
    # merge phase (Section 4.2)
    # ------------------------------------------------------------------

    def _merge_terminals(
        self,
        plan: ExecutionPlan,
        job_outputs: Mapping[str, DistributedFile],
        job_ends: Mapping[str, float],
    ) -> Tuple[List[Composite], Tuple[str, ...], float, float]:
        """Merge the terminal outputs pairwise, smallest pair first.

        Returns the final composites, their alias cover, the simulated
        time they are ready and the total merge time.
        """
        terminals = plan.terminal_jobs()
        #: Live partial results keyed by insertion sequence number.  List
        #: positions in the old quadratic scan preserved insertion order,
        #: so (size, seq_i, seq_j) ordering reproduces its pair choices.
        #: Covers are the static ones of ``_alias_cover``, never re-read
        #: from the records.
        pool: Dict[int, Tuple[Tuple[str, ...], List[Composite], float]] = {}
        for sequence, job in enumerate(terminals):
            output = job_outputs[job.job_id]
            composites: List[Composite] = list(output.records)  # type: ignore[arg-type]
            pool[sequence] = (
                self._alias_cover[job.job_id], composites, job_ends[job.job_id]
            )

        if not pool:
            return [], (), 0.0, 0.0

        # Candidate heap memoizes pair sizes: each mergeable pair is priced
        # once when both sides exist, instead of re-scanning all pairs per
        # merge (the old O(n^2 * merges) best-pair search).
        candidates: List[Tuple[int, int, int]] = []
        entries = list(pool.items())
        for a in range(len(entries)):
            seq_i, (cover_i, rows_i, _) = entries[a]
            for b in range(a + 1, len(entries)):
                seq_j, (cover_j, rows_j, _) = entries[b]
                if not set(cover_i).isdisjoint(cover_j):
                    heapq.heappush(
                        candidates, (len(rows_i) + len(rows_j), seq_i, seq_j)
                    )

        disk = self.cluster.config.disk_read_bytes_s
        merge_total = 0.0
        next_sequence = len(terminals)
        while len(pool) > 1:
            pair: Optional[Tuple[int, int]] = None
            while candidates:
                _size, seq_i, seq_j = heapq.heappop(candidates)
                if seq_i in pool and seq_j in pool:
                    pair = (seq_i, seq_j)
                    break
            if pair is None:
                raise ExecutionError(
                    "terminal results share no relation; cannot merge"
                )
            seq_i, seq_j = pair
            left_cover, left_rows, left_ready = pool.pop(seq_i)
            right_cover, right_rows, right_ready = pool.pop(seq_j)
            merged_rows = _hash_merge(left_rows, right_rows, left_cover, right_cover)
            duration = merge_duration_s(
                len(left_rows), len(right_rows), len(merged_rows), disk
            )
            merge_total += duration
            ready = max(left_ready, right_ready) + duration
            merged_cover = tuple(sorted(set(left_cover) | set(right_cover)))
            for seq_other, (cover_other, rows_other, _) in pool.items():
                if not set(merged_cover).isdisjoint(cover_other):
                    heapq.heappush(
                        candidates,
                        (
                            len(merged_rows) + len(rows_other),
                            seq_other,
                            next_sequence,
                        ),
                    )
            pool[next_sequence] = (merged_cover, merged_rows, ready)
            next_sequence += 1

        cover, composites, ready = next(iter(pool.values()))
        if len(terminals) == 1:
            ready = job_ends[terminals[0].job_id]
        return composites, cover, ready, merge_total


def _shared_ids(
    composites: Sequence[Composite], cover: Sequence[str], shared: Sequence[str]
):
    """The shared-alias global ids of each composite, in order: a bare id
    when one alias is shared (the Section 4.2 common case), else a tuple.

    Reading the ids is also where the static ``cover`` is held against
    the records: position-compiled merging never looks at an alias tag
    again, so a composite of another width, or with another alias in any
    slot, must fail here rather than come out as a wrong row.
    """

    def entries_at(position: int):
        return map(itemgetter(position), composites)

    if set(map(len, composites)) != {len(cover)} or any(
        set(map(entry_alias, entries_at(position))) != {alias}
        for position, alias in enumerate(cover)
    ):
        raise ExecutionError(
            f"merge input does not uniformly cover aliases {list(cover)}"
        )
    ids = [map(entry_global_id, entries_at(cover.index(alias))) for alias in shared]
    return ids[0] if len(ids) == 1 else zip(*ids)


def _hash_merge(
    left: List[Composite],
    right: List[Composite],
    left_cover: Sequence[str],
    right_cover: Sequence[str],
) -> List[Composite]:
    """Id-based hash join of two partial results on their shared relations.

    Every composite of one partial result covers the same statically known
    alias set, which admits the same position-compiled technique as the
    reduce-side kernel: shared-id keys and the merged entry picks are
    tuple indexing resolved once per merge.  Output order is left order,
    partners of one left composite in right arrival order; shared aliases
    keep the left entry (partners agree on the shared ids by key
    construction).  The nested-loop form is ``_reference_hash_merge`` in
    ``tests/joins/tail_oracle.py``.
    """
    if not left or not right:
        return []
    shared = sorted(set(left_cover) & set(right_cover))
    if not shared:
        raise ExecutionError("partial results share no relation; cannot merge")
    pick = merge_picker(left_cover, right_cover)
    index: Dict[object, List[Composite]] = {}
    for key, composite in zip(_shared_ids(right, right_cover, shared), right):
        index.setdefault(key, []).append(composite)
    partners_of = map(index.get, _shared_ids(left, left_cover, shared))
    return [
        pick(composite + partner)
        for composite, partners in zip(left, partners_of)
        if partners
        for partner in partners
    ]
