"""Cluster and Hadoop configuration for the simulated MapReduce substrate.

Defaults mirror the paper's test bed (Section 6.1): a 13-node cluster
(1 master + 12 workers), 104 cores total, TestDFSIO-measured disk rates
of 74.26 MB/s reading and 14.69 MB/s writing, a 10 GbE switch, and the
Hadoop parameter set of Table 1.

This module also owns :class:`ExecutionSettings` — the single typed home
of every environment knob that shapes *how* the repository itself runs
(which execution backend, how many workers, the disk-persistent planning
cache), as opposed to the simulated hardware the dataclasses above
describe.  The README documents the full knob table.
"""

from __future__ import annotations

import os
import sys
import threading
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

#: Which executor runs independent map chunks / reduce buckets / ready
#: jobs: ``serial`` (in-line), ``thread`` (GIL-shared pool, helps the
#: NumPy paths), ``process`` (fork-based pool, true multi-core), or
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
#: is retried elsewhere.
WORKER_HEARTBEAT_ENV = "REPRO_WORKER_HEARTBEAT_S"
#: How many times one task may be re-queued after worker losses before
#: the coordinator stops trying workers and runs it locally.
TASK_RETRIES_ENV = "REPRO_TASK_RETRIES"
#: Seconds allowed for the TCP connect + hello handshake per worker.
WORKER_CONNECT_TIMEOUT_ENV = "REPRO_WORKER_CONNECT_TIMEOUT_S"
#: "1" makes the distributed backend *fail* (a structured
#: ``fleet-exhausted`` error) instead of silently degrading to serial /
#: local execution when no worker daemon can run the tasks.  Production
#: services want the loud failure; the library default stays the quiet
#: degradation that can never break a result.
STRICT_FLEET_ENV = "REPRO_STRICT_FLEET"
#: "1" spills the PlanningCache to disk (samples/stats/join observations
#: persist across processes); "0" keeps it in-memory only.  The CLI turns
#: this on by default so repeated runs start warm.
PLAN_DISK_CACHE_ENV = "REPRO_PLAN_DISK_CACHE"
#: Root directory of the on-disk planning cache.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: "0" disables register-by-digest closure splitting on the distributed
#: backend: every batch ships its whole closure again (PR 5 behaviour).
#: On by default — workers cache content-addressed payload blobs, so a
#: warm re-run of the same query ships only the slim executable part.
BLOB_SHIP_ENV = "REPRO_BLOB_SHIP"
#: Containers (list/tuple/dict) below this element count are never
#: externalized into blobs — small captures ship inline.
BLOB_MIN_ITEMS_ENV = "REPRO_BLOB_MIN_ITEMS"
#: Pickled payloads below this byte count ship inline even when the item
#: gate passed (a digest round-trip costs more than it saves).
BLOB_MIN_BYTES_ENV = "REPRO_BLOB_MIN_BYTES"
#: Size budget of a worker's on-disk blob tier; LRU-evicted above it.
BLOB_MAX_BYTES_ENV = "REPRO_BLOB_MAX_BYTES"
#: Age budget of blob entries, seconds; untouched entries expire.
BLOB_MAX_AGE_ENV = "REPRO_BLOB_MAX_AGE_S"
#: Entry cap of a worker's in-memory decoded-blob cache.
BLOB_MEM_ENTRIES_ENV = "REPRO_BLOB_MEM_ENTRIES"
#: "1" persists each completed ready-wave job's output by sha256 digest
#: into the blob tier (wave checkpointing): a retried phase, re-planned
#: query, or restarted run restores the completed waves instead of
#: recomputing them.  Off by default in the library; ``repro serve``
#: recovery relies on it being set for the daemon.
CHECKPOINT_ENV = "REPRO_CHECKPOINT"
#: Per-wave checkpoint payload cap, bytes; larger outputs are not
#: persisted (the recompute is cheaper than the disk churn).
CHECKPOINT_MAX_BYTES_ENV = "REPRO_CHECKPOINT_MAX_BYTES"
#: Directory of the coordinator's session journal.  ``repro serve``
#: journals to ``<dir>/serve.journal`` when set (the ``--journal`` flag
#: overrides with an explicit file path).
JOURNAL_DIR_ENV = "REPRO_JOURNAL_DIR"
#: "0" skips the fsync after each journal append (faster, but a crash
#: may lose the tail records; replay still tolerates the torn tail).
JOURNAL_FSYNC_ENV = "REPRO_JOURNAL_FSYNC"
#: "0" disables straggler hedging on the distributed backend.  On by
#: default: an idle dispatcher speculatively re-dispatches an in-flight
#: task that has run far past the completed-duration quantile (duplicate
#: completions are safe — folding is exactly-once, first answer wins).
HEDGE_ENV = "REPRO_HEDGE"
#: Quantile of completed-task durations used as the straggler baseline.
HEDGE_QUANTILE_ENV = "REPRO_HEDGE_QUANTILE"
#: A task is hedge-eligible once its elapsed time exceeds
#: ``quantile * factor``.
HEDGE_FACTOR_ENV = "REPRO_HEDGE_FACTOR"
#: Completed-task samples required before any hedge may launch.
HEDGE_MIN_SAMPLES_ENV = "REPRO_HEDGE_MIN_SAMPLES"
#: Speculative copies allowed per task index per batch.
HEDGE_MAX_PER_TASK_ENV = "REPRO_HEDGE_MAX_PER_TASK"
#: Consecutive mid-batch losses before a worker's circuit breaker opens
#: (the daemon is quarantined instead of endlessly re-dialed).
BREAKER_THRESHOLD_ENV = "REPRO_BREAKER_THRESHOLD"
#: Base quarantine length, batches; doubles per consecutive trip.
BREAKER_COOLDOWN_ENV = "REPRO_BREAKER_COOLDOWN_BATCHES"
#: Seconds slept between executor ready waves (0 = none).  A chaos/test
#: knob: it widens the window in which a coordinator can be killed
#: mid-query with a known number of waves checkpointed.
WAVE_DELAY_ENV = "REPRO_WAVE_DELAY_S"
#: Anti-starvation aging rate of the serve scheduler: a queued query
#: gains one effective priority level per this many seconds waited, so a
#: low-priority session under a high-priority flood is delayed a bounded
#: (priority-gap x aging) time, never forever.  0 disables aging (pure
#: priority order).
SCHED_AGING_ENV = "REPRO_SCHED_AGING_S"
#: Per-client concurrency quota of the serve scheduler: at most this
#: many of one client's queries run at once (0 = no per-client cap; the
#: global ``--max-concurrent`` still binds).
CLIENT_MAX_RUNNING_ENV = "REPRO_CLIENT_MAX_RUNNING"
#: Per-client queue-depth quota: further submits from a client already
#: holding this many queue seats are shed with a structured
#: ``quota-exceeded`` error (0 = no per-client cap).
CLIENT_MAX_QUEUED_ENV = "REPRO_CLIENT_MAX_QUEUED"
#: Byte budget of one ``result`` reply frame from ``repro serve``.  A
#: DONE result whose encoded payload would exceed it is refused with a
#: structured ``result-too-large`` error steering the client to
#: paginated fetch (``offset``/``limit``) instead of killing the
#: connection with an unframeable reply.
RESULT_MAX_BYTES_ENV = "REPRO_RESULT_MAX_BYTES"
#: Inline cap on journaled DONE-result payloads.  Larger results are
#: spilled to the content-addressed blob tier and the journal records
#: only their digest, so the journal stays lifecycle-sized instead of
#: growing with answer volume; recovery reads either form.
JOURNAL_RESULT_MAX_ENV = "REPRO_JOURNAL_RESULT_MAX_BYTES"

#: Valid values for ``REPRO_EXEC_BACKEND``.
EXEC_BACKENDS = ("serial", "thread", "process", "distributed")


def _env_int(name: str, default: int, env: Mapping[str, str], minimum: int = 0) -> int:
    try:
        return max(minimum, int(env.get(name, str(default))))
    except ValueError:
        return default


def _env_float(
    name: str, default: float, env: Mapping[str, str], minimum: float = 0.0
) -> float:
    try:
        return max(minimum, float(env.get(name, str(default))))
    except ValueError:
        return default


#: Malformed ``REPRO_WORKERS_ADDRS`` entries already warned about, so a
#: fleet typo is named exactly once per process instead of on every
#: settings read (these are re-read per phase) or not at all.
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

    Build one from the environment with :func:`execution_settings` (a
    fresh read each call, so ``monkeypatch.setenv`` in tests and CLI
    ``os.environ`` writes take effect immediately — none of these knobs
    sit on a hot path).
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
    #: Whether the PlanningCache persists to disk across processes.
    plan_disk_cache: bool = False
    #: Root of the on-disk cache (``~/.cache/repro`` by default).
    cache_dir: Optional[str] = None
    #: Fail with ``fleet-exhausted`` instead of degrading to serial/local
    #: when the distributed fleet cannot run the tasks.
    strict_fleet: bool = False
    #: Register-by-digest closure splitting on the distributed backend.
    blob_ship: bool = True
    #: Container element-count gate for blob externalization (the byte
    #: gate below is the real protection; this just skips trial-pickling
    #: trivially small captures).
    blob_min_items: int = 4
    #: Pickled payload byte gate for blob externalization.
    blob_min_bytes: int = 4096
    #: Worker blob tier size budget (bytes; LRU eviction above it).
    blob_max_bytes: int = 1 << 30
    #: Worker blob tier age budget (seconds; 0 disables expiry).
    blob_max_age_s: float = 7 * 86400.0
    #: Worker in-memory decoded-blob cache entry cap.
    blob_mem_entries: int = 64
    #: Wave checkpointing: persist completed ready-wave job outputs by
    #: digest so retries/restarts resume instead of recomputing.
    checkpoint: bool = False
    #: Per-wave checkpoint payload cap (bytes); oversize waves skip.
    checkpoint_max_bytes: int = 64 * MB
    #: Session-journal directory (``repro serve``); None = no journal.
    journal_dir: Optional[str] = None
    #: fsync after every journal append (off trades the crash-safe tail
    #: for speed; replay tolerates the torn tail either way).
    journal_fsync: bool = True
    #: Straggler hedging on the distributed backend.
    hedge: bool = True
    #: Completed-duration quantile used as the straggler baseline.
    hedge_quantile: float = 0.95
    #: Hedge once elapsed > quantile * factor.
    hedge_factor: float = 3.0
    #: Completed samples required before hedging arms.
    hedge_min_samples: int = 3
    #: Speculative copies allowed per task index per batch.
    hedge_max_per_task: int = 1
    #: Consecutive mid-batch worker losses before the breaker opens.
    breaker_threshold: int = 3
    #: Base quarantine, batches; doubles per consecutive trip.
    breaker_cooldown_batches: int = 8
    #: Sleep between executor ready waves, seconds (chaos/test knob).
    wave_delay_s: float = 0.0
    #: Serve scheduler: seconds of queue wait worth one priority level
    #: (anti-starvation aging; 0 = pure priority order).
    sched_aging_s: float = 30.0
    #: Serve scheduler: per-client running-query quota (0 = uncapped).
    client_max_running: int = 0
    #: Serve scheduler: per-client queued-query quota (0 = uncapped).
    client_max_queued: int = 0
    #: Serve result endpoint: max encoded bytes of one result frame.
    result_max_bytes: int = 1 << 30
    #: Serve journal: max inline bytes of a journaled DONE result;
    #: larger results spill to the blob tier by digest.
    journal_result_max_bytes: int = 1 << 20

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
            workers=_env_int(EXEC_WORKERS_ENV, 0, env),
            workers_addrs=workers_addrs,
            worker_heartbeat_s=_env_float(WORKER_HEARTBEAT_ENV, 2.0, env, minimum=0.05),
            task_retries=_env_int(TASK_RETRIES_ENV, 2, env),
            worker_connect_timeout_s=_env_float(
                WORKER_CONNECT_TIMEOUT_ENV, 1.0, env, minimum=0.05
            ),
            plan_disk_cache=env.get(PLAN_DISK_CACHE_ENV, "0") == "1",
            cache_dir=env.get(CACHE_DIR_ENV) or None,
            strict_fleet=env.get(STRICT_FLEET_ENV, "0") == "1",
            blob_ship=env.get(BLOB_SHIP_ENV, "1") != "0",
            blob_min_items=_env_int(BLOB_MIN_ITEMS_ENV, 4, env, minimum=1),
            blob_min_bytes=_env_int(BLOB_MIN_BYTES_ENV, 4096, env),
            blob_max_bytes=_env_int(BLOB_MAX_BYTES_ENV, 1 << 30, env),
            blob_max_age_s=_env_float(BLOB_MAX_AGE_ENV, 7 * 86400.0, env),
            blob_mem_entries=_env_int(BLOB_MEM_ENTRIES_ENV, 64, env, minimum=1),
            checkpoint=env.get(CHECKPOINT_ENV, "0") == "1",
            checkpoint_max_bytes=_env_int(CHECKPOINT_MAX_BYTES_ENV, 64 * MB, env),
            journal_dir=env.get(JOURNAL_DIR_ENV) or None,
            journal_fsync=env.get(JOURNAL_FSYNC_ENV, "1") != "0",
            hedge=env.get(HEDGE_ENV, "1") != "0",
            hedge_quantile=min(
                1.0, _env_float(HEDGE_QUANTILE_ENV, 0.95, env, minimum=0.0)
            ),
            hedge_factor=_env_float(HEDGE_FACTOR_ENV, 3.0, env, minimum=1.0),
            hedge_min_samples=_env_int(HEDGE_MIN_SAMPLES_ENV, 3, env, minimum=1),
            hedge_max_per_task=_env_int(HEDGE_MAX_PER_TASK_ENV, 1, env),
            breaker_threshold=_env_int(BREAKER_THRESHOLD_ENV, 3, env, minimum=1),
            breaker_cooldown_batches=_env_int(
                BREAKER_COOLDOWN_ENV, 8, env, minimum=1
            ),
            wave_delay_s=_env_float(WAVE_DELAY_ENV, 0.0, env),
            sched_aging_s=_env_float(SCHED_AGING_ENV, 30.0, env),
            client_max_running=_env_int(CLIENT_MAX_RUNNING_ENV, 0, env),
            client_max_queued=_env_int(CLIENT_MAX_QUEUED_ENV, 0, env),
            result_max_bytes=_env_int(RESULT_MAX_BYTES_ENV, 1 << 30, env, minimum=1),
            journal_result_max_bytes=_env_int(
                JOURNAL_RESULT_MAX_ENV, 1 << 20, env
            ),
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
        if self.cache_dir:
            return Path(self.cache_dir).expanduser()
        return Path("~/.cache/repro").expanduser()


#: Thread-local ``REPRO_*`` override scope: ``repro serve`` runs each
#: query session on its own thread with the session's knob overrides
#: installed here, so concurrent queries can each see a different
#: backend / retry budget / heartbeat without fighting over the (process
#: global) ``os.environ``.
_SCOPE_TLS = threading.local()


class settings_scope:
    """``with settings_scope({"REPRO_TASK_RETRIES": "0"}):`` — shadow the
    environment for :func:`execution_settings` reads *on this thread*.

    Reentrant: an inner scope's keys win over an outer scope's, and the
    outer mapping is restored on exit.  Backend pool threads never
    inherit the scope (by design — a session's knobs must not leak into
    another session's tasks that happen to share a pool).
    """

    def __init__(self, overrides: Optional[Mapping[str, str]]) -> None:
        self._overrides = dict(overrides or {})
        self._outer: Optional[dict] = None

    def __enter__(self) -> dict:
        self._outer = getattr(_SCOPE_TLS, "overrides", None)
        merged = dict(self._outer or {})
        merged.update(self._overrides)
        _SCOPE_TLS.overrides = merged
        return merged

    def __exit__(self, *exc_info) -> None:
        _SCOPE_TLS.overrides = self._outer


def current_settings_overrides() -> Optional[Mapping[str, str]]:
    """The calling thread's active knob overrides, if any."""
    return getattr(_SCOPE_TLS, "overrides", None)


def execution_settings() -> ExecutionSettings:
    """The current environment's :class:`ExecutionSettings` (fresh read),
    folded with the calling thread's :class:`settings_scope` overrides."""
    return ExecutionSettings.from_env(current_settings_overrides())
