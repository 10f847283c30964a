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

import bisect
import heapq
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.checkpoint import (  # noqa: F401  (counters: perf/ reads them here)
    CheckpointStore,
    checkpoint_counters,
    reset_checkpoint_counters,
)
from repro.core.merge import merge_terminals
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
    PlannedJob,
)
from repro.errors import ExecutionError
from repro.joins.jobs import (
    make_broadcast_join_job,
    make_equi_join_job,
    make_equichain_join_job,
    make_hypercube_join_job,
)
from repro.joins.records import (
    CompositeSlab,
    compose,
    composite_width,
    composites_to_relation,
    relation_to_composite_file,
)
from repro.mapreduce.backend import get_backend
from repro.mapreduce.cancel import check_cancelled
from repro.mapreduce.config import execution_settings, settings_scope
from repro.mapreduce.counters import ExecutionReport, JobMetrics
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.stats_cache import relation_fingerprint
from repro.storage import LRUTable

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
    #: Raw result composites — index vectors into the base relations' row
    #: tables, alias-sorted ``(alias, global id, row)`` tuples when
    #: iterated — for result validation.
    composites: CompositeSlab
    #: Every job's output file by job id: the one registry of what the
    #: plan wrote (restored checkpoints and empty outputs included).
    job_outputs: Dict[str, DistributedFile]


#: What :meth:`PlanExecutor._prepare` found for one job of a wave: an
#: empty input (the join is empty, nothing runs, the output is an empty
#: slab), a checkpointed output to restore, or a materialized spec to run.
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
    _ckpt: Optional[CheckpointStore] = None

    def __init__(
        self,
        cluster: SimulatedCluster,
        on_wave: Optional[Callable[[str, str, bool], None]] = None,
    ) -> None:
        self.cluster = cluster
        self.on_wave = on_wave

    # ------------------------------------------------------------------

    def execute(self, plan: ExecutionPlan, query: JoinQuery) -> ExecutionOutcome:
        # The query's settings are resolved once: the caller's context
        # when it opened one (a serve session), else one read here.
        with settings_scope(None):
            return self._execute(plan, query)

    def _execute(self, plan: ExecutionPlan, query: JoinQuery) -> ExecutionOutcome:
        missing = set(c.condition_id for c in query.conditions) - set(
            plan.covered_condition_ids()
        )
        if missing:
            raise ExecutionError(
                f"plan {plan.name!r} does not cover conditions {sorted(missing)}"
            )

        schemas = {alias: rel.schema for alias, rel in query.relations.items()}
        base_files = {
            alias: lift_base_relation(relation, alias)
            for alias, relation in query.relations.items()
        }

        report = ExecutionReport(plan_name=plan.name)
        job_outputs: Dict[str, DistributedFile] = {}
        settings = execution_settings()
        # Simulated-time noise would make a restored wave replay the
        # *other* run's noise draw; checkpointing stays off under noise.
        checkpointing = settings.checkpoint and self.cluster.config.noise_sigma == 0.0
        self._ckpt = CheckpointStore(settings) if checkpointing else None
        job_ends = self._run_jobs(plan, query, schemas, base_files, job_outputs, report)

        final_composites, merge_end, merge_total = merge_terminals(
            plan, job_outputs, job_ends, self.cluster.config.disk_read_bytes_s
        )
        report.merge_time_s = merge_total
        report.makespan_s = max(max(job_ends.values(), default=0.0), merge_end)
        report.output_records = len(final_composites)

        result = composites_to_relation(
            final_composites,
            schemas,
            name=f"{query.name}-result",
            projection=query.projection,
        )
        return ExecutionOutcome(
            result=result,
            report=report,
            composites=final_composites,
            job_outputs=job_outputs,
        )

    # ------------------------------------------------------------------
    # job phase
    # ------------------------------------------------------------------

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
        done: Dict[str, float] = {}
        running: List[Tuple[float, str, int]] = []  # (end, job_id, units)
        wave_delay_s = execution_settings().wave_delay_s
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
                if wave_delay_s > 0:
                    # Chaos/test knob (REPRO_WAVE_DELAY_S): widen the
                    # inter-wave window so a kill lands after a known
                    # number of waves were checkpointed and journaled.
                    time.sleep(wave_delay_s)
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
        dispatched through the backend's ``run_tasks`` — the serial loop,
        threads or forked workers (both run a lone job in line), or
        remote worker daemons (even a lone job; the coordinator falls
        back to the in-line loop when no daemon answers).  Results are
        folded back strictly in wave order, so ``report.job_metrics``,
        ``job_outputs``, and every downstream decision are identical
        whatever ran the jobs.  The task closure captures the cluster
        (config only) and this wave's specs, so it ships exactly the
        wave's input files.
        """
        prepared = [
            self._prepare(job, query, schemas, base_files, job_outputs)
            for job in jobs
        ]
        cluster = self.cluster
        runnable = [
            (job, spec) for job, (kind, spec, _) in zip(jobs, prepared) if kind == _RUN
        ]

        def run_one(index: int):
            job, spec = runnable[index]
            return cluster.run_job(spec, map_units=job.units, reduce_units=job.units)

        ran = iter(get_backend().run_tasks(run_one, len(runnable)))
        return [
            self._fold(
                job, query, kind, next(ran) if kind == _RUN else found, key,
                job_outputs, report,
            )
            for job, (kind, found, key) in zip(jobs, prepared)
        ]

    def _prepare(
        self,
        job: PlannedJob,
        query: JoinQuery,
        schemas,
        base_files: Mapping[str, DistributedFile],
        job_outputs: Mapping[str, DistributedFile],
    ) -> Tuple[str, object, Optional[str]]:
        """Everything of one job that precedes running it: ``(_EMPTY,
        empty output file)``, ``(_RESTORED, (file, metrics, digest))`` or
        ``(_RUN, spec)``, each with the job's checkpoint key (None when
        checkpointing is off).  The key and the builders read the input
        covers from the input files' slabs."""
        files = [
            base_files[ref.name] if ref.kind == "base" else job_outputs[ref.name]
            for ref in job.inputs
        ]
        key = None
        if self._ckpt is not None:
            # Keyed even when the job is empty (not worth persisting, but
            # downstream jobs chain through its key).
            key = self._ckpt.key(
                job, query, [f.records.cover for f in files], self.cluster.config
            )
        if any(f.num_records == 0 for f in files):
            # An empty input (e.g. an upstream join with no matches)
            # makes the whole join empty; its output still carries the
            # union cover and base tables downstream builders and the merge read.
            records = compose([f.records for f in files], [np.empty(0, np.int64)] * len(files))
            name = f"{query.name}:{job.job_id}.out"
            empty = DistributedFile(
                name=name,
                records=records,
                record_width=composite_width(schemas, records.cover),
                tag=name,
            )
            return _EMPTY, empty, key
        if key is not None:
            restored = self._ckpt.restore(key, f"{query.name}:{job.job_id}")
            if restored is not None:
                return _RESTORED, restored, key
        return _RUN, self._materialize(job, query, schemas, files), key

    def _fold(
        self,
        job: PlannedJob,
        query: JoinQuery,
        kind: str,
        found,
        key: Optional[str],
        job_outputs: Dict[str, DistributedFile],
        report: ExecutionReport,
    ) -> float:
        """Publish one job's outcome — the empty output, the restored
        checkpoint, or the :class:`JobResult` of its run — into
        ``job_outputs`` and the report; returns the job's duration."""
        name = f"{query.name}:{job.job_id}"
        digest: Optional[str] = None
        if kind == _EMPTY:
            # The empty output is charged start-up only.
            file = found
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
            if key is not None:
                digest = self._ckpt.persist(key, found)
                if digest is not None:
                    report.checkpoint_stores += 1
        job_outputs[job.job_id] = file
        report.job_metrics.append(metrics)
        if digest is not None and self.on_wave is not None:
            self.on_wave(job.job_id, digest, kind == _RESTORED)
        return metrics.total_time_s

    def _materialize(
        self,
        job: PlannedJob,
        query: JoinQuery,
        schemas,
        files: Sequence[DistributedFile],
    ):
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
            spec = make_hypercube_join_job(
                name,
                files,
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
            )
        elif job.strategy == STRATEGY_BROADCAST:
            big, small = files[0], files[1]
            if small.size_bytes > big.size_bytes:
                big, small = small, big
            spec = make_broadcast_join_job(
                name,
                big,
                small,
                conditions,
                schemas,
                num_reducers=job.num_reducers,
                output_name=f"{name}.out",
            )
        else:
            raise ExecutionError(f"unknown strategy {job.strategy!r}")
        spec.output_replication = job.output_replication
        return spec
