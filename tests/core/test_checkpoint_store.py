"""``core.checkpoint.CheckpointStore`` alone: no plan, no executor.

Verify-on-read from the store's side: whatever is wrong with what is on
disk — a pointer whose blob is gone, a pointer that is not a digest, a
blob whose bytes changed, a blob that hashes right but does not decode,
decodes into the wrong shape or into a slab of another layout — reads as
a miss, is discarded, and the next ``persist`` under the same key serves
again.
"""

import pickle

import numpy as np
import pytest

from repro.core.checkpoint import (
    CheckpointStore,
    checkpoint_counters,
    reset_checkpoint_counters,
)
from repro.joins.records import CompositeSlab, relation_to_composite_file
from repro.mapreduce.config import execution_settings
from repro.mapreduce.counters import JobMetrics
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import JobResult
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.storage import blob_digest, blob_tier, checkpoint_tier

KEY = "k" * 64


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_checkpoint_counters()
    yield CheckpointStore(execution_settings())
    reset_checkpoint_counters()


def job_result(name="writer:j1", records=None):
    if records is None:
        relation = Relation("R", Schema.of("x:int", "y:int"), [(i, i * 2) for i in range(5)])
        records = relation_to_composite_file(relation, "a").records
    metrics = JobMetrics(job_name=name)
    metrics.total_time_s = 7.5
    return JobResult(DistributedFile(f"{name}.out", records, 16, tag=f"{name}.out"), metrics)


def blob_path(digest):
    (path,) = blob_tier(execution_settings()).root.rglob(f"{digest}.blob")
    return path


def test_round_trip_rewrites_the_name_dependent_fields(store):
    digest = store.persist(KEY, job_result())
    file, metrics, restored_digest = store.restore(KEY, "reader:j9")
    assert restored_digest == digest
    assert (file.name, file.tag, metrics.job_name) == (
        "reader:j9.out", "reader:j9.out", "reader:j9",
    )
    assert list(file.records) == list(job_result().output.records)
    assert (file.record_width, metrics.total_time_s) == (16, 7.5)
    counters = checkpoint_counters()
    assert (counters["stores"], counters["hits"]) == (1, 1)
    assert counters["bytes_restored"] == counters["store_bytes"] > 0


def test_unknown_key_is_a_miss(store):
    assert store.restore(KEY, "reader:j1") is None
    assert checkpoint_counters()["hits"] == 0


def pointer_path():
    return checkpoint_tier(execution_settings()).root / f"{KEY}.ref"


def test_stale_index_entry_reads_as_a_miss_and_is_replaced(store):
    digest = store.persist(KEY, job_result())
    blob_path(digest).unlink()  # evicted from the blob tier; the index still points at it
    assert store.restore(KEY, "reader:j1") is None
    assert not pointer_path().exists()
    assert store.persist(KEY, job_result()) == digest
    assert store.restore(KEY, "reader:j1") is not None


def test_malformed_index_entry_reads_as_a_miss(store):
    store.persist(KEY, job_result())
    pointer_path().write_bytes(b"not a digest")
    assert store.restore(KEY, "reader:j1") is None
    assert not pointer_path().exists()


def test_corrupt_blob_reads_as_a_miss_and_is_deleted(store):
    path = blob_path(store.persist(KEY, job_result()))
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    assert store.restore(KEY, "reader:j1") is None
    assert not path.exists()
    assert checkpoint_counters()["hits"] == 0


def plant(payload):
    """Point ``KEY`` at a blob holding ``payload`` (hashes fine)."""
    settings = execution_settings()
    digest = blob_digest(payload)
    assert blob_tier(settings).put(digest, payload)
    assert checkpoint_tier(settings).store(KEY, digest)
    return digest


def test_undecodable_payload_reads_as_a_miss_and_is_discarded(store):
    digest = plant(pickle.dumps(("only", "two")))  # is not (records, width, metrics)
    assert store.restore(KEY, "reader:j1") is None
    assert not blob_tier(execution_settings()).has(digest)
    assert not pointer_path().exists()


@pytest.mark.parametrize("width, metrics", [
    (16, None),
    (16, {"job_name": "writer:j1"}),
    (-1, JobMetrics(job_name="writer:j1")),
    ("16", JobMetrics(job_name="writer:j1")),
    (16.0, JobMetrics(job_name="writer:j1")),
], ids=["metrics-none", "metrics-dict", "width-negative", "width-str", "width-float"])
def test_payload_of_the_wrong_shape_reads_as_a_miss_and_is_discarded(
    store, width, metrics
):
    """A current slab beside a width that is no ``int`` >= 0, or metrics
    that are no ``JobMetrics``, is a miss — never an ``AttributeError``."""
    digest = plant(pickle.dumps((job_result().output.records, width, metrics)))
    assert store.restore(KEY, "reader:j1") is None
    assert not blob_tier(execution_settings()).has(digest)
    assert not pointer_path().exists()
    assert checkpoint_counters()["hits"] == 0


def previous_layout(slab):
    """``slab`` in the layout checkpoints held before a slab's tables were
    its base relations' row tables: per alias a ``(global ids, rows)``
    pair — here the identity ids, so it still reads as the same rows."""
    return CompositeSlab(
        slab.cover,
        [(np.arange(len(rows), dtype=np.int64), rows) for rows in slab.tables],
        slab.index,
    )


def test_a_slab_of_the_previous_layout_reads_as_a_miss_and_is_discarded(store):
    current = job_result().output.records
    digest = store.persist(KEY, job_result(records=previous_layout(current)))
    assert digest is not None
    assert store.restore(KEY, "reader:j1") is None
    assert not blob_tier(execution_settings()).has(digest)
    assert checkpoint_counters()["hits"] == 0
    # Recomputed and persisted in the current layout, it serves again.
    store.persist(KEY, job_result())
    file, _metrics, _digest = store.restore(KEY, "reader:j1")
    assert list(file.records) == list(current)
