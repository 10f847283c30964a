"""Cluster and Hadoop configuration for the simulated MapReduce substrate.

Defaults mirror the paper's test bed (Section 6.1): a 13-node cluster
(1 master + 12 workers), 104 cores total, TestDFSIO-measured disk rates
of 74.26 MB/s reading and 14.69 MB/s writing, a 10 GbE switch, and the
Hadoop parameter set of Table 1.

This module also owns :class:`ExecutionSettings` — the single typed home
of every environment knob that shapes *how* the repository itself runs
(which execution backend, how many workers, where the disk tiers live),
as opposed to the simulated hardware the dataclasses above
describe.  The README documents the full knob table.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Optional, Tuple

from repro.utils import MB


@dataclass(frozen=True)
class HadoopParameters:
    """The Hadoop knobs of the paper's Table 1 ("Set" column)."""

    fs_block_size: int = 64 * MB
    io_sort_mb: int = 512
    io_sort_record_percentage: float = 0.1
    io_sort_spill_percentage: float = 0.9
    io_sort_factor: int = 300
    dfs_replication: int = 3

    @property
    def io_sort_bytes(self) -> int:
        return self.io_sort_mb * MB

    @property
    def spill_threshold_bytes(self) -> float:
        """Bytes of map output buffered before a background spill starts."""
        return self.io_sort_bytes * self.io_sort_spill_percentage


@dataclass(frozen=True)
class ClusterConfig:
    """Hardware shape and measured rates of the simulated cluster."""

    #: Worker nodes (the paper has 13 nodes, one of which is the master).
    worker_nodes: int = 12
    #: Cores per worker; 2x quad-core i7 950 per node in the paper.
    cores_per_node: int = 8
    #: Sequential read rate per task, MB/s (TestDFSIO measurement).
    disk_read_mb_s: float = 74.26
    #: Sequential write rate per task, MB/s (TestDFSIO measurement).
    disk_write_mb_s: float = 14.69
    #: Effective per-stream network rate over the 10 GbE switch, MB/s.
    network_mb_s: float = 110.0
    #: Fixed per-job start-up latency (JVM spawn, scheduling), seconds.
    job_startup_s: float = 6.0
    #: Per-record CPU cost in map/reduce user code, seconds.
    cpu_per_record_s: float = 3.0e-7
    #: CPU cost of one theta-comparison in a reduce-side join, seconds.
    cpu_per_comparison_s: float = 6.0e-8
    #: Overhead of one shuffle connection served by a map task, seconds.
    connection_overhead_s: float = 0.012
    #: Multiplicative noise sigma applied to simulated phase times (0 = exact).
    noise_sigma: float = 0.0

    hadoop: HadoopParameters = field(default_factory=HadoopParameters)

    @property
    def total_units(self) -> int:
        """Total processing units kP available to run Map or Reduce tasks."""
        return self.worker_nodes * self.cores_per_node

    @property
    def disk_read_bytes_s(self) -> float:
        return self.disk_read_mb_s * MB

    @property
    def disk_write_bytes_s(self) -> float:
        return self.disk_write_mb_s * MB

    @property
    def network_bytes_s(self) -> float:
        return self.network_mb_s * MB

    def with_units(self, units: int) -> "ClusterConfig":
        """A copy of this config reshaped to expose exactly ``units`` slots.

        Used by the experiments that cap kP (e.g. kP <= 64 in Figures 10
        and 13): the hardware rates stay identical, only the degree of
        parallelism changes.
        """
        if units < 1:
            raise ValueError("units must be >= 1")
        per_node = max(1, min(self.cores_per_node, units))
        nodes = max(1, -(-units // per_node))
        config = replace(self, worker_nodes=nodes, cores_per_node=per_node)
        # Trim any rounding overshoot by reducing per-node cores if needed.
        while config.total_units > units and config.cores_per_node > 1:
            config = replace(config, cores_per_node=config.cores_per_node - 1)
        return config

    def with_noise(self, sigma: float) -> "ClusterConfig":
        return replace(self, noise_sigma=sigma)


#: The paper's test bed: 12 workers x 8 cores = 96 processing units.
PAPER_CLUSTER = ClusterConfig()

#: The constrained configuration used in Figures 10 and 13 (kP <= 64).
PAPER_CLUSTER_KP64 = PAPER_CLUSTER.with_units(64)


# ----------------------------------------------------------------------
# Execution settings: the repository's own runtime knobs (environment)
# ----------------------------------------------------------------------

#: Which executor runs independent map chunks / bucket ranges / ready
#: jobs: ``serial`` (in-line), ``thread`` (GIL-shared pool), ``process``
#: (fork-based pool), or
#: ``distributed`` (TCP dispatch to ``repro worker serve`` daemons).
EXEC_BACKEND_ENV = "REPRO_EXEC_BACKEND"
#: Worker count for the thread/process backends; 0 = auto (cpu count).
EXEC_WORKERS_ENV = "REPRO_EXEC_WORKERS"
#: Comma-separated ``host:port`` list of worker daemons for the
#: distributed backend.  Malformed entries are skipped; with no valid
#: entries the backend degrades to serial.  Setting this without a
#: backend choice selects the distributed backend.
WORKERS_ADDRS_ENV = "REPRO_WORKERS_ADDRS"
#: Seconds between liveness pings to each worker daemon; a worker that
#: misses one heartbeat window is declared lost and its in-flight task
#: is retried elsewhere.  A property of the process: read once, when the
#: one distributed backend is built (``close_backends()`` re-reads it).
WORKER_HEARTBEAT_ENV = "REPRO_WORKER_HEARTBEAT_S"
#: How many times one task may be re-queued after worker losses before
#: the coordinator stops trying workers and runs it locally.  Read per
#: batch from the calling query's settings, so a ``repro serve`` query
#: may scope it.
TASK_RETRIES_ENV = "REPRO_TASK_RETRIES"
#: Seconds allowed for the TCP connect + hello handshake per worker;
#: like the heartbeat, fixed when the distributed backend is built.
WORKER_CONNECT_TIMEOUT_ENV = "REPRO_WORKER_CONNECT_TIMEOUT_S"
#: "1" makes the distributed backend *fail* (a structured
#: ``fleet-exhausted`` error) instead of silently degrading to serial /
#: local execution when no worker daemon can run the tasks.  Production
#: services want the loud failure; the library default stays the quiet
#: degradation that can never break a result.
STRICT_FLEET_ENV = "REPRO_STRICT_FLEET"
#: Root directory of the on-disk tiers (wave checkpoints, worker blobs).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: "1" persists each completed ready-wave job's output by sha256 digest
#: into the blob tier (wave checkpointing): a retried phase, re-planned
#: query, or restarted run restores the completed waves instead of
#: recomputing them.  Off by default in the library; ``repro serve``
#: recovery relies on it being set for the daemon.
CHECKPOINT_ENV = "REPRO_CHECKPOINT"

#: Valid values for ``REPRO_EXEC_BACKEND``.
EXEC_BACKENDS = ("serial", "thread", "process", "distributed")


def _env_number(name: str, default, env: Mapping[str, str], minimum=0):
    """``env[name]`` as a number of ``default``'s type, floored at
    ``minimum``; a malformed value reads as the default (env-side parsing
    is lenient: a shell typo must never crash planning)."""
    cast = type(default)
    try:
        return max(cast(minimum), cast(env.get(name, default)))
    except ValueError:
        return default


#: Malformed ``REPRO_WORKERS_ADDRS`` entries already warned about, so a
#: fleet typo is named exactly once per process instead of on every
#: settings read (one per query entry) or not at all.
_warned_addr_entries: set = set()


def parse_workers_addrs(raw: str) -> Tuple[str, ...]:
    """Normalize a ``host:port,host:port`` list; malformed entries drop.

    An env typo must never crash planning: invalid entries (missing or
    out-of-range port, empty host) are skipped, duplicates collapse to
    their first occurrence, and an all-invalid value parses to the empty
    tuple — which simply leaves the distributed backend degraded to
    serial.  Every *dropped* entry is named in a one-time stderr warning:
    a silently shrunken fleet is the least diagnosable way to lose
    capacity to a typo.
    """
    from repro.mapreduce.wire import parse_addr

    seen = []
    for entry in raw.replace(";", ",").split(","):
        parsed = parse_addr(entry)
        if parsed is None:
            if entry.strip() and entry.strip() not in _warned_addr_entries:
                _warned_addr_entries.add(entry.strip())
                print(
                    f"repro: ignoring malformed worker address {entry.strip()!r} "
                    f"in {WORKERS_ADDRS_ENV} (expected host:port)",
                    file=sys.stderr,
                )
            continue
        normalized = f"{parsed[0]}:{parsed[1]}"
        if normalized not in seen:
            seen.append(normalized)
    return tuple(seen)


@dataclass(frozen=True)
class ExecutionSettings:
    """Typed snapshot of every ``REPRO_*`` execution knob.

    A query resolves one when it enters (:func:`settings_scope`) and
    every layer below reads that one through :func:`execution_settings`,
    so ``monkeypatch.setenv`` in tests and ``os.environ`` writes take
    effect at the next query entry.
    """

    #: ``serial`` | ``thread`` | ``process`` | ``distributed``.
    backend: str = "serial"
    #: Worker count for parallel backends; 0 means "auto" (cpu count).
    workers: int = 0
    #: Normalized ``host:port`` worker daemons (distributed backend).
    workers_addrs: Tuple[str, ...] = ()
    #: Liveness ping period, seconds (distributed backend).
    worker_heartbeat_s: float = 2.0
    #: Re-queue budget per task after worker losses (distributed backend).
    task_retries: int = 2
    #: TCP connect + hello handshake budget per worker, seconds.
    worker_connect_timeout_s: float = 1.0
    #: Root of the on-disk cache (``~/.cache/repro`` by default).
    cache_dir: Optional[str] = None
    #: Fail with ``fleet-exhausted`` instead of degrading to serial/local
    #: when the distributed fleet cannot run the tasks.
    strict_fleet: bool = False
    #: Wave checkpointing: persist completed ready-wave job outputs by
    #: digest so retries/restarts resume instead of recomputing.
    checkpoint: bool = False

    @classmethod
    def from_env(
        cls, overrides: Optional[Mapping[str, str]] = None
    ) -> "ExecutionSettings":
        """Settings from the environment, optionally shadowed by
        ``overrides`` (the per-query knob scope of ``repro serve``
        sessions — see :func:`settings_scope`)."""
        env: Mapping[str, str] = os.environ
        if overrides:
            env = {**os.environ, **{k: str(v) for k, v in overrides.items()}}
        backend = env.get(EXEC_BACKEND_ENV, "").strip().lower()
        workers_addrs = parse_workers_addrs(env.get(WORKERS_ADDRS_ENV, ""))
        if backend not in EXEC_BACKENDS:
            # Unset/invalid: configured worker daemons imply distributed;
            # otherwise everything stays serial.
            backend = "distributed" if workers_addrs else "serial"
        return cls(
            backend=backend,
            workers=_env_number(EXEC_WORKERS_ENV, 0, env),
            workers_addrs=workers_addrs,
            worker_heartbeat_s=_env_number(WORKER_HEARTBEAT_ENV, 2.0, env, minimum=0.05),
            task_retries=_env_number(TASK_RETRIES_ENV, 2, env),
            worker_connect_timeout_s=_env_number(
                WORKER_CONNECT_TIMEOUT_ENV, 1.0, env, minimum=0.05
            ),
            cache_dir=env.get(CACHE_DIR_ENV) or None,
            strict_fleet=env.get(STRICT_FLEET_ENV, "0") == "1",
            checkpoint=env.get(CHECKPOINT_ENV, "0") == "1",
        )

    @property
    def effective_workers(self) -> int:
        """Actual pool size: daemon count (distributed), explicit count,
        or cpu count."""
        if self.backend == "distributed":
            return max(1, len(self.workers_addrs))
        if self.workers > 0:
            return self.workers
        return os.cpu_count() or 1

    @property
    def parallel(self) -> bool:
        if self.backend == "distributed":
            # Even one remote daemon is worth dispatching to (it offloads
            # the coordinator); zero valid daemons means serial.
            return len(self.workers_addrs) > 0
        return self.backend != "serial" and self.effective_workers > 1

    @property
    def chunk_fanout(self) -> int:
        """Per-file chunk count for the batched map phase: one chunk per
        worker, so every worker has something to do."""
        return self.effective_workers if self.parallel else 1

    def resolved_cache_dir(self) -> Path:
        return Path(self.cache_dir or "~/.cache/repro").expanduser()


@dataclass(frozen=True)
class QueryContext:
    """Everything one query carries down the layers that do its work.

    ``settings`` is resolved once, when the query enters
    (:func:`settings_scope`), at monotonic time ``resolved_at`` (so
    ``get_backend`` can tell settings older than the fleet's last
    re-point); ``overrides`` are the ``REPRO_*`` keys it was resolved
    from, kept so a nested scope can fold its own keys on top.  ``token`` is the
    query's :class:`~repro.mapreduce.cancel.CancellationToken`, and
    ``in_task`` marks a backend task, inside which ``get_backend``
    returns the serial backend (a task must not fan out onto a pool
    again).
    """

    settings: Optional[ExecutionSettings] = None
    overrides: Mapping[str, str] = field(default_factory=dict)
    resolved_at: float = 0.0
    token: Optional[object] = None
    in_task: bool = False


#: The active :class:`QueryContext`.  A new thread (and so every backend
#: pool or dispatcher thread) starts with the empty default, so a
#: session's knobs and token never leak into tasks that share a pool.
CURRENT_QUERY = contextvars.ContextVar("repro_query", default=QueryContext())


@contextlib.contextmanager
def query_scope(**fields):
    """Install a copy of the active context with ``fields`` replaced;
    the outer context comes back on exit."""
    reset = CURRENT_QUERY.set(replace(CURRENT_QUERY.get(), **fields))
    try:
        yield CURRENT_QUERY.get()
    finally:
        CURRENT_QUERY.reset(reset)


@contextlib.contextmanager
def settings_scope(overrides: Optional[Mapping[str, str]]):
    """``with settings_scope({"REPRO_TASK_RETRIES": "0"}):`` — resolve the
    environment shadowed by ``overrides`` once and make it the
    :func:`execution_settings` of everything this thread runs inside.

    Reentrant: an inner scope's keys win over an outer scope's, and the
    outer context comes back on exit.  A scope that adds no keys to an
    already resolved context keeps its settings as they are.
    """
    outer = CURRENT_QUERY.get()
    if not overrides and outer.settings is not None:
        yield outer.overrides
        return
    merged = {**outer.overrides, **(overrides or {})}
    resolved_at = time.monotonic()
    settings = ExecutionSettings.from_env(merged)
    with query_scope(overrides=merged, settings=settings, resolved_at=resolved_at):
        yield merged


def execution_settings() -> ExecutionSettings:
    """The active query's settings; outside any query (CLI helpers,
    tests, a bare ``run_job``) a fresh read of the environment."""
    settings = CURRENT_QUERY.get().settings
    return ExecutionSettings.from_env() if settings is None else settings
