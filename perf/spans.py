"""In-memory span recorder and the wrappers that feed it.

Spans are recorded from *outside* the program: :func:`install` replaces
public callables of ``repro`` (module functions wherever they were
imported to, and public methods on their classes) with timing wrappers.
Nothing under ``src/`` is edited and no ``_private`` name is touched.

A span is ``[name, start, end, parent, op_id]`` (``parent`` is an index
into the same list, ``-1`` for a root).  A layer's *self time* is its
span minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List

NAME, START, END, PARENT, OP = range(5)


class Recorder:
    """Collects spans in memory; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op_id = -1
        self._tls = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        spans = self.spans
        lock = self._lock
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    # -- aggregation -----------------------------------------------------

    def per_op(self, self_time: bool = False) -> Dict[str, Dict[int, float]]:
        """``name -> op_id -> seconds``: each op's total (or self) time
        per span name.  A span nested inside a span of the same name is
        not counted twice."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for index, span in enumerate(spans):
            ancestor = span[PARENT]
            while ancestor >= 0 and spans[ancestor][NAME] != span[NAME]:
                ancestor = spans[ancestor][PARENT]
            if ancestor >= 0:
                continue
            seconds = span[END] - span[START]
            if self_time:
                seconds -= child_time[index]
            totals[span[NAME]][span[OP]] += seconds
        return totals

    def counts_per_op(self) -> Dict[str, Dict[int, int]]:
        counts: Dict[str, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for span in self.spans:
            counts[span[NAME]][span[OP]] += 1
        return counts

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra)
        payload["span_fields"] = ["name", "start", "end", "parent", "op_id"]
        payload["spans"] = self.spans
        path.write_text(json.dumps(payload))


def _replace_everywhere(original: Callable, replacement: Callable) -> List[tuple]:
    """Rebind ``original`` in every loaded ``repro`` module namespace
    (``from x import f`` copies the reference, so the defining module
    alone is not enough).  Returns ``(namespace, key, original)`` undo
    records."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                undo.append((module, key, original))
    return undo


def install(recorder: Recorder, wrap_kernels: bool) -> Callable[[], None]:
    """Wrap the public layer boundaries; returns the uninstall callable.

    ``wrap_kernels`` additionally wraps each built job spec's
    ``batch_mapper``/``batch_reducer``.  It must be off when task
    closures leave the process (the wrapper would be pickled along).
    """
    import repro.core.executor as executor_mod
    import repro.core.hilbert as hilbert_mod
    import repro.core.join_path_graph as gjp_mod
    import repro.core.partitioner as partitioner_mod
    import repro.core.planner as planner_mod
    import repro.core.reducer_selection as reducer_mod
    import repro.joins.jobs as jobs_mod
    import repro.joins.records as records_mod
    import repro.mapreduce.backend as backend_mod
    import repro.mapreduce.runtime as runtime_mod
    import repro.relational.sampling as sampling_mod

    undo: List[tuple] = []

    def function(module, attr: str, name: str, post=None) -> None:
        original = getattr(module, attr)
        target = original if post is None else post(original)
        undo.extend(_replace_everywhere(original, recorder.wrap(target, name)))

    def method(cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, recorder.wrap(original, name))
        undo.append((cls, attr, original))

    def with_kernels(make_job):
        @functools.wraps(make_job)
        def build(*args, **kwargs):
            spec = make_job(*args, **kwargs)
            if spec.batch_mapper is not None:
                spec.batch_mapper = recorder.wrap(spec.batch_mapper, "joins.jobs.map_s")
            if spec.batch_reducer is not None:
                spec.batch_reducer = recorder.wrap(
                    spec.batch_reducer, "joins.jobs.reduce_s"
                )
            return spec

        return build

    method(planner_mod.ThetaJoinPlanner, "plan", "core.planner.plan_s")
    function(gjp_mod, "build_join_path_graph", "core.join_path_graph.build_s")
    method(sampling_mod.SampledJoinEstimator, "selectivity", "relational.sampling.busy_s")
    function(reducer_mod, "choose_reducer_count", "core.reducer_selection.sweep_s")
    function(partitioner_mod, "get_partitioner", "core.partitioner.build_s")
    method(partitioner_mod.HypercubePartitioner, "__init__", "core.partitioner.build_s")
    function(hilbert_mod, "encode_many", "core.hilbert.codec_s")
    function(hilbert_mod, "decode_many", "core.hilbert.codec_s")
    method(executor_mod.PlanExecutor, "execute", "core.executor.execute_s")
    for builder in (
        "make_hypercube_join_job",
        "make_equichain_join_job",
        "make_equi_join_job",
        "make_broadcast_join_job",
    ):
        function(
            jobs_mod, builder, "joins.jobs.build_s",
            post=with_kernels if wrap_kernels else None,
        )
    function(records_mod, "composites_to_relation", "joins.records.to_relation_s")
    function(executor_mod, "lift_base_relation", "joins.records.lift_s")
    method(runtime_mod.SimulatedCluster, "run_job", "mapreduce.runtime.run_job_s")
    for backend_cls in (
        backend_mod.SerialBackend,
        backend_mod.ThreadBackend,
        backend_mod.ProcessBackend,
        backend_mod.DistributedBackend,
    ):
        method(backend_cls, "run_tasks", "mapreduce.backend.run_tasks_s")

    def uninstall() -> None:
        for owner, key, original in reversed(undo):
            if isinstance(owner, type):
                setattr(owner, key, original)
            else:
                vars(owner)[key] = original

    return uninstall
