"""A ``repro worker serve`` daemon keeps the heap pages its tasks free.

A warm task's output is freed once its reply is sent; with glibc's
default allocator policy those pages went back to the kernel and the
next task faulted them in again, thousands of minor faults per query.
:func:`repro.mapreduce.worker.steady_heap`, which only the daemon's
``serve()`` calls, keeps them.  The /proc reader and the query loop are
``benchmarks/daemon_faults.py``'s, which measures the same thing.
"""

import ctypes
import importlib.util
import os
import platform
from pathlib import Path

import pytest

from repro.mapreduce import wire, worker
from repro.mapreduce.backend import close_backends
from repro.workloads.synthetic import chain_query

ROOT = Path(__file__).resolve().parents[2]

#: Warm queries measured, and the minor faults one may cost the worker.
#: Without :func:`~repro.mapreduce.worker.steady_heap` the daemon faults
#: about 2–4k pages per query.
WARM_QUERIES = 20
MAX_FAULTS_PER_QUERY = 250


def load_daemon_faults():
    spec = importlib.util.spec_from_file_location(
        "daemon_faults", ROOT / "benchmarks" / "daemon_faults.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def daemon():
    if not Path(f"/proc/{os.getpid()}/stat").exists():
        pytest.skip("no /proc/<pid>/stat on this platform")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("not a glibc platform")
    if not wire.closure_transport_available():
        pytest.skip("closure transport unavailable")
    proc, addr = worker.spawn_daemon()
    try:
        yield proc, addr
    finally:
        close_backends()
        worker.stop_daemons([proc])


def test_warm_queries_reuse_the_worker_heap(daemon):
    proc, addr = daemon
    daemon_faults = load_daemon_faults()
    query = chain_query(3, rows=350, selectivity=0.05)
    # Cold, then two warm runs while the heap grows to size.
    rows = [daemon_faults.run_query(query, [addr]) for _ in range(3)]
    before = daemon_faults.proc_counters(proc.pid)["minflt"]
    rows += [daemon_faults.run_query(query, [addr]) for _ in range(WARM_QUERIES)]
    faults = daemon_faults.proc_counters(proc.pid)["minflt"] - before
    assert len(set(rows)) == 1 and rows[0] > 0
    assert faults / WARM_QUERIES <= MAX_FAULTS_PER_QUERY, (
        f"{faults} minor faults over {WARM_QUERIES} warm queries"
    )


def test_steady_heap_without_glibc_does_nothing(monkeypatch):
    def no_library(*args, **kwargs):
        raise OSError("libc.so.6: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    worker.steady_heap()


def test_steady_heap_without_mallopt_does_nothing(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    worker.steady_heap()
