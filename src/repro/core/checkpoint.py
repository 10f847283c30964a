"""Wave checkpoints: completed job outputs, stored by content key.

With ``REPRO_CHECKPOINT=1`` the executor persists each completed
ready-wave job's output and restores it on the next identical run.  This
module is the one owner of how: the content key, the payload format (a
blob of pickled ``(records, record width, metrics)``, the records a join
output's ``CompositeSlab`` — index vectors and the base row tables they
index), the pointer ``<key>.ref`` that holds the blob's digest,
verify-on-read (a payload of another shape or slab layout is a miss), the
size cap and the process-wide counters the service's ``stats`` verb reports.  A
checkpoint can cost a recompute, never a wrong answer.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from typing import Dict, Optional, Sequence, Tuple

from repro.core.plan import PlannedJob
from repro.joins.records import CompositeSlab
from repro.mapreduce.config import ClusterConfig, ExecutionSettings
from repro.mapreduce.counters import JobMetrics
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import JobResult
from repro.relational.query import JoinQuery
from repro.relational.stats_cache import relation_fingerprint
from repro.storage import blob_digest, blob_tier, checkpoint_tier, stable_key_repr
from repro.utils import MB

#: Per-job checkpoint payload cap, bytes: a larger output is counted
#: (``skipped_oversize``) and not persisted — the recompute is cheaper
#: than the disk churn.
CHECKPOINT_MAX_BYTES = 64 * MB

_COUNTERS_LOCK = threading.Lock()
_COUNTERS = {
    "hits": 0,
    "stores": 0,
    "store_bytes": 0,
    "bytes_restored": 0,
    "skipped_oversize": 0,
}


def _account(name: str, delta: int = 1) -> None:
    with _COUNTERS_LOCK:
        _COUNTERS[name] += delta


def checkpoint_counters() -> Dict[str, int]:
    """Process-wide wave-checkpoint counters (snapshot)."""
    with _COUNTERS_LOCK:
        return dict(_COUNTERS)


def reset_checkpoint_counters() -> None:
    with _COUNTERS_LOCK:
        for name in _COUNTERS:
            _COUNTERS[name] = 0


def _current_layout(records: object) -> bool:
    """Whether ``records`` is a slab with one index vector and one 1-d
    object row table per cover alias (the current layout)."""
    return (
        isinstance(records, CompositeSlab)
        and len(records.tables) == len(records.cover) == len(records.index)
        and all(getattr(t, "dtype", None) == object and t.ndim == 1 for t in records.tables)
    )


def _valid_payload(value: object) -> bool:
    """Whether a decoded payload is ``(current-layout slab, int width
    >= 0, JobMetrics)``; raises on what does not unpack into three,
    which the decoder counts as a no."""
    records, record_width, metrics = value
    return (
        _current_layout(records)
        and isinstance(record_width, int)
        and record_width >= 0
        and isinstance(metrics, JobMetrics)
    )


class CheckpointStore:
    """The checkpoints one plan execution reads and writes."""

    def __init__(self, settings: ExecutionSettings) -> None:
        self._index = checkpoint_tier(settings)
        self._blobs = blob_tier(settings)
        #: job id -> content key, for the jobs keyed so far (a job's key
        #: chains the keys of the jobs it reads).
        self._keys: Dict[str, str] = {}

    def key(
        self,
        job: PlannedJob,
        query: JoinQuery,
        input_aliases: Sequence[Tuple[str, ...]],
        config: ClusterConfig,
    ) -> str:
        """Content key of this job's output: Merkle over everything that
        determines it (and its metrics) — the job's shape, its condition
        semantics, the cluster's rates, and the identity of every input
        (base relations by content fingerprint, upstream jobs by *their*
        checkpoint key, which chains the whole DAG).  Two queries with
        different names but identical content share keys; name-dependent
        fields are rewritten on restore."""
        cached = self._keys.get(job.job_id)
        if cached is not None:
            return cached
        inputs = []
        for ref in job.inputs:
            if ref.kind == "base":
                inputs.append(
                    ("base",) + relation_fingerprint(query.relations[ref.name])
                )
            else:
                inputs.append(("job", self._keys[ref.name]))
        parts = (
            "wave-ckpt-v3",
            job.strategy,
            int(job.units),
            int(job.num_reducers),
            int(job.partition_bits),
            int(job.output_replication),
            float(job.extra_startup_s),
            tuple(repr(query.condition(cid)) for cid in job.condition_ids),
            tuple(input_aliases),
            tuple(inputs),
            repr(config),
        )
        key = hashlib.sha256(stable_key_repr(parts).encode("utf-8")).hexdigest()
        self._keys[job.job_id] = key
        return key

    def restore(
        self, key: str, name: str
    ) -> Optional[Tuple[DistributedFile, JobMetrics, str]]:
        """Load the output checkpointed under ``key`` as job ``name``'s;
        None on any miss or corruption.

        Verify-on-read end to end: a pointer that is not a digest is a
        miss, the blob store re-hashes the payload (deleting a corrupt
        file), and a payload that does not decode into a current-layout
        slab, an ``int`` width and ``JobMetrics`` is discarded
        (:meth:`~repro.storage.blob.DiskBlobStore.decode`).  A miss past
        the pointer deletes the pointer too.
        """
        digest = self._index.load(key)
        if digest is None:
            return None
        loaded = self._blobs.decode(digest, _valid_payload)
        if loaded is None:
            self._index.discard(key)
            return None
        (records, record_width, metrics), size = loaded
        # The stored output/metrics carry the *writing* query's name;
        # rebuild the name-dependent fields for this run so a restored
        # execution is bit-identical to a fresh one.
        metrics.job_name = name
        file = DistributedFile(
            name=f"{name}.out",
            records=records,
            record_width=record_width,
            tag=f"{name}.out",
        )
        _account("hits")
        _account("bytes_restored", size)
        return file, metrics, digest

    def persist(self, key: str, result: JobResult) -> Optional[str]:
        """Persist one completed job's output; returns its blob digest."""
        try:
            payload = pickle.dumps(
                (
                    result.output.records,
                    result.output.record_width,
                    result.metrics,
                ),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception:  # unpicklable record type: persistence is optional
            return None
        if len(payload) > CHECKPOINT_MAX_BYTES:
            _account("skipped_oversize")
            return None
        digest = blob_digest(payload)
        if not self._blobs.put(digest, payload):
            return None
        self._index.store(key, digest)
        _account("stores")
        _account("store_bytes", len(payload))
        return digest
