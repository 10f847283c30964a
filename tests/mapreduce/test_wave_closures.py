"""What a wave's task closure ships to the worker daemons.

A job reads the files its spec names and nothing else, so the closure
the executor hands the distributed backend for one ready wave carries
the cluster's configuration and that wave's specs — never a registry of
files.  Both tests run the 3-wave ``pig`` cascade of the recovery drill
(mobile, volume 0) on two in-process worker daemons.
"""

import inspect
import io
import pickle

import cloudpickle
import pytest

from repro.baselines import PLANNERS
from repro.core.executor import PlanExecutor
from repro.mapreduce import wire
from repro.mapreduce.backend import close_backends
from repro.mapreduce.config import ClusterConfig, settings_scope
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.runtime import SimulatedCluster
from repro.mapreduce.worker import WorkerServer
from repro.relational.sql import parse_join_query
from repro.storage import blob_digest
from repro.workloads import workload_relations

CASCADE_SQL = (
    "SELECT t3.id FROM table t1, table t2, table t3, table t4 "
    "WHERE t1.d = t2.d AND t1.bt <= t2.bt AND t2.bsc = t3.bsc "
    "AND t3.d = t4.d AND t3.bt <= t4.bt"
)


@pytest.fixture
def workers(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    servers = [WorkerServer().start(), WorkerServer().start()]
    yield servers
    close_backends()
    for server in servers:
        server.stop()


def run_cascade(servers):
    relations = workload_relations("mobile", 0, 0)
    query = parse_join_query(CASCADE_SQL, relations, name="cascade")
    config = ClusterConfig()
    plan = PLANNERS["pig"](config).plan(query)
    knobs = {
        "REPRO_EXEC_BACKEND": "distributed",
        "REPRO_WORKERS_ADDRS": ",".join(server.address for server in servers),
        "REPRO_STRICT_FLEET": "1",
    }
    with settings_scope(knobs):
        return PlanExecutor(SimulatedCluster(config)).execute(plan, query)


def files_in(value):
    """The :class:`DistributedFile` objects directly in a container."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [item for item in value if isinstance(item, DistributedFile)]
    return []


def reachable_files(fn):
    """Names of every :class:`DistributedFile` pickling ``fn`` reaches,
    shipped as a payload of its own or inline in the closure body."""
    names = []

    class Recorder(cloudpickle.CloudPickler):
        def persistent_id(self, obj):
            if isinstance(obj, DistributedFile):
                names.append(obj.name)
            return None

    Recorder(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(fn)
    return names


def test_a_wave_ships_only_its_own_input_files(workers, monkeypatch):
    splits = []
    split = wire.split_task_fn

    def recording_split(fn):
        slim, payloads = split(fn)
        splits.append((fn, payloads))
        return slim, payloads

    monkeypatch.setattr(wire, "split_task_fn", recording_split)
    run_cascade(workers)
    assert len(splits) == 3  # one closure per ready wave
    shipped_as_payload = 0
    for fn, payloads in splits:
        runnable = inspect.getclosurevars(fn).nonlocals["runnable"]
        inputs = {file.name for _job, spec in runnable for file in spec.inputs}
        reached = reachable_files(fn)
        assert reached and set(reached) <= inputs
        decoded = {}

        def fetch(digest):
            if digest not in decoded:
                decoded[digest] = wire.load_payload(payloads[digest], fetch)
            return decoded[digest]

        for digest in payloads:
            value = fetch(digest)
            assert not files_in(value), f"a container of files ships: {value!r}"
            if isinstance(value, DistributedFile):
                assert value.name in inputs
                shipped_as_payload += 1
    assert shipped_as_payload


def test_worker_cache_payloads_still_match_their_digests(workers):
    run_cascade(workers)
    cached = {
        digest: value
        for server in workers
        for digest, value in server.blob_objects.data.items()
    }
    checked = 0
    for digest, value in cached.items():
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            continue  # a closure body: cloudpickle-only
        assert blob_digest(payload) == digest
        checked += 1
    assert checked
