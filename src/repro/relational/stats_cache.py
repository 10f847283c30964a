"""Cross-query planning-statistics cache (the paper's upload-time stats).

The paper collects per-relation statistics *once*, when data is uploaded
(Section 6.3), and every later query plans against them.  Before this
module existed the repository recomputed them per planner instance: each
:class:`~repro.relational.sampling.SampledJoinEstimator` re-drew its
per-relation samples and re-joined them, and every
:class:`~repro.relational.statistics.StatisticsCatalog` re-scanned the
relations — so a four-planner comparison or a kR sweep paid the same
sampling work over and over.

:class:`PlanningCache` is the shared store that fixes this.  It caches

* per-relation **samples** keyed by ``(relation fingerprint, alias,
  sample_rows)`` — the RNG stream is derived from ``(relation name,
  alias)``, so the key pins everything the sample depends on.  The
  memory tier holds each sample as a :class:`ColumnarSample`: the rows
  plus one NumPy array per attribute the sample-join kernel has asked
  for, built once and dropped with the sample;
* **relation statistics** (:class:`RelationStats`) keyed by
  ``(relation fingerprint, sample_size, buckets)``;
* **join-sample observations** — the ``(matches, denominator)`` counts of
  a sample join (or ``None`` when the work cap was exceeded) — keyed by
  the structural signature of the condition set plus the fingerprints of
  every participating relation and the sample parameters.  Observations
  are cached instead of final selectivities so a different fallback
  estimator can never be served another estimator's blend.

Fingerprints are **content-based**: relation name, cardinality, schema
widths, and a digest of the rows.  Two relations with identical content
(e.g. the same deterministic workload generator called twice) therefore
share cache entries, while any change in content — or an in-place
``append`` — changes the fingerprint and orphans stale entries.  Rows
mutated *in place* (never done by this code base) are not detected;
call :meth:`PlanningCache.invalidate` after any such surgery.

A process-wide default instance (:func:`get_planning_cache`) is shared by
every planner, which is what lets the fig-10 four-planner comparison and
the benchmark sweeps skip redundant sampling.  Pass a private
:class:`PlanningCache` to the planner/estimator for isolation, or call
:meth:`PlanningCache.clear` between unrelated workloads.

Disk persistence (PR 4)
-----------------------
With ``REPRO_PLAN_DISK_CACHE=1`` (the CLI's default) the cache is backed
by the keyed planning tier under ``~/.cache/repro`` (override with
``REPRO_CACHE_DIR``): every computed sample, statistics object, and join
observation is written through to disk, and in-memory misses consult the
store before recomputing — so a *new process* planning the same content
starts warm.  Entries are keyed by the same content fingerprints as the
in-memory tables (serialized canonically, since ``frozenset`` iteration
order is not stable across processes), carry their full key in the
payload (a digest collision or stale format can never serve a wrong
value), and any unreadable or mismatching file is silently deleted and
rebuilt — a corrupt cache can cost time, never correctness.

The generic machinery (LRU tables, stable key serialization, atomic
keyed pickle files) lives in :mod:`repro.storage`; the disk tier is its
:func:`~repro.storage.planning_tier` (``samples`` / ``stats`` / ``joins``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.relational.columns import typed_column
from repro.relational.relation import Relation
from repro.relational.statistics import RelationStats, compute_relation_stats
from repro.storage import KeyedDiskStore, LRUTable, planning_tier
from repro.utils import make_rng

#: Relation fingerprint: (name, cardinality, row digest).
Fingerprint = Tuple[str, int, str]

#: A sample-join observation: (matches, denominator), or ``None`` when the
#: join exceeded its work cap (the caller falls back to histograms).
JoinObservation = Optional[Tuple[int, int]]

_FINGERPRINT_ATTR = "_planning_cache_fingerprint"


class ColumnarSample:
    """A per-alias sample with lazily built per-attribute column arrays.

    Columns are typed by :func:`repro.relational.columns.typed_column`:
    int64, float64, or ``object`` for anything whose NumPy comparison
    could differ from Python's.
    """

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self._columns: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.relation)

    def column(self, attr: str) -> np.ndarray:
        column = self._columns.get(attr)
        if column is None:
            column = typed_column(self.relation.column(attr))
            self._columns[attr] = column
        return column


def relation_fingerprint(relation: Relation) -> Fingerprint:
    """Content fingerprint of a relation, memoized on the instance.

    The memo is keyed by the current row count, so the common mutation
    path (``Relation.append``) naturally invalidates it.
    """
    count = len(relation)
    memo = getattr(relation, _FINGERPRINT_ATTR, None)
    if memo is not None and memo[0] == count:
        return memo[1]
    digest = hashlib.sha256()
    # The schema participates: statistics are keyed by attribute name and
    # samples/composite files carry the schema, so identical rows under
    # renamed or re-typed columns must not share entries.
    schema_signature = tuple(
        (field.name, field.kind, field.width) for field in relation.schema.fields
    )
    digest.update(repr((relation.name, schema_signature, count)).encode())
    for row in relation.rows:
        digest.update(repr(row).encode())
    fingerprint: Fingerprint = (relation.name, count, digest.hexdigest()[:16])
    try:
        setattr(relation, _FINGERPRINT_ATTR, (count, fingerprint))
    except AttributeError:
        pass  # exotic Relation subclass with __slots__; just recompute
    return fingerprint


class PlanningCache:
    """Shared per-relation samples, statistics, and join-sample counts."""

    def __init__(
        self,
        max_entries: int = 2048,
        disk: Optional[KeyedDiskStore] = None,
    ) -> None:
        self._samples = LRUTable(max_entries)
        self._stats = LRUTable(max_entries)
        self._joins = LRUTable(max_entries)
        #: Optional write-through disk tier consulted on in-memory misses.
        self.disk = disk

    # -- per-relation samples -------------------------------------------

    def sample(self, relation: Relation, alias: str, sample_rows: int) -> Relation:
        """The estimator's deterministic per-alias sample of ``relation``."""
        return self.columnar_sample(relation, alias, sample_rows).relation

    def columnar_sample(
        self, relation: Relation, alias: str, sample_rows: int
    ) -> ColumnarSample:
        """The same sample with its column arrays cached beside it (the
        disk tier stores the rows only; arrays are rebuilt on demand)."""
        key = (relation_fingerprint(relation), alias, sample_rows)
        hit, value = self._samples.lookup(key)
        if hit:
            return value  # type: ignore[return-value]
        sample = None
        if self.disk is not None:
            _, sample = self.disk.load("samples", key)
        if sample is None:
            sample = relation.sample(
                sample_rows, make_rng("join-sample", relation.name, alias)
            )
            if self.disk is not None:
                self.disk.store("samples", key, sample)
        columnar = ColumnarSample(sample)  # type: ignore[arg-type]
        self._samples.store(key, columnar)
        return columnar

    # -- relation statistics --------------------------------------------

    def relation_stats(
        self, relation: Relation, sample_size: int = 2000, buckets: int = 20
    ) -> RelationStats:
        """Upload-time :class:`RelationStats`, computed once per content."""
        key = (relation_fingerprint(relation), sample_size, buckets)
        hit, value = self._stats.lookup(key)
        if hit:
            return value  # type: ignore[return-value]
        if self.disk is not None:
            hit, value = self.disk.load("stats", key)
            if hit:
                self._stats.store(key, value)
                return value  # type: ignore[return-value]
        stats = compute_relation_stats(relation, sample_size=sample_size, buckets=buckets)
        self._stats.store(key, stats)
        if self.disk is not None:
            self.disk.store("stats", key, stats)
        return stats

    # -- join-sample observations ----------------------------------------

    def join_observation(self, signature: object) -> Tuple[bool, JoinObservation]:
        """Cached ``(matches, denominator)`` for a condition-set signature.

        Returns ``(hit, observation)``; the observation itself may be
        ``None`` (a cached work-cap overflow), which is why the hit flag
        is separate.
        """
        hit, value = self._joins.lookup(signature)
        if hit:
            return True, value  # type: ignore[return-value]
        if self.disk is not None:
            hit, value = self.disk.load("joins", signature)
            if hit:
                self._joins.store(signature, value)
                return True, value  # type: ignore[return-value]
        return False, None

    def store_join_observation(
        self, signature: object, observation: JoinObservation
    ) -> None:
        self._joins.store(signature, observation)
        if self.disk is not None:
            self.disk.store("joins", signature, observation)

    # -- invalidation -----------------------------------------------------

    def invalidate(self, relation_name: str) -> int:
        """Drop every entry touching ``relation_name``; returns drop count.

        Content fingerprints already make stale entries unreachable after
        a detected mutation; explicit invalidation is for callers that
        mutate rows in place or simply want the memory back.
        """

        def touches_sample(key) -> bool:
            return key[0][0] == relation_name

        def touches_join(key) -> bool:
            # Join signatures carry (alias, fingerprint) pairs up front.
            return any(fp[0] == relation_name for _, fp in key[0])

        dropped = self._samples.drop_where(touches_sample)
        dropped += self._stats.drop_where(touches_sample)
        dropped += self._joins.drop_where(touches_join)
        if self.disk is not None:
            dropped += self.disk.drop_where("samples", touches_sample)
            dropped += self.disk.drop_where("stats", touches_sample)
            dropped += self.disk.drop_where("joins", touches_join)
        return dropped

    def clear(self, disk: bool = False) -> None:
        """Empty the in-memory tables; ``disk=True`` also wipes the store."""
        for table in (self._samples, self._stats, self._joins):
            table.clear()
        if disk and self.disk is not None:
            self.disk.clear()

    # -- introspection ----------------------------------------------------

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/size counters per table, for tests and diagnostics."""
        counters = {
            name: {
                "hits": table.hits,
                "misses": table.misses,
                "entries": len(table.data),
            }
            for name, table in (
                ("samples", self._samples),
                ("stats", self._stats),
                ("joins", self._joins),
            )
        }
        if self.disk is not None:
            counters["disk"] = self.disk.counters()
        return counters


_DEFAULT_CACHE: Optional[PlanningCache] = None


def _disk_store_from_env() -> Optional[KeyedDiskStore]:
    from repro.mapreduce.config import execution_settings

    settings = execution_settings()
    return planning_tier(settings) if settings.plan_disk_cache else None


def get_planning_cache() -> PlanningCache:
    """The process-wide cache shared by all planners by default.

    Created lazily so ``REPRO_PLAN_DISK_CACHE`` / ``REPRO_CACHE_DIR``
    (set by the CLI or the environment *before* the first planner runs)
    decide whether it is disk-backed.
    """
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = PlanningCache(disk=_disk_store_from_env())
    return _DEFAULT_CACHE


def reset_default_planning_cache() -> None:
    """Drop the process-wide cache so the next use rebuilds it from the
    current environment (tests toggling the disk knobs call this)."""
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = None
