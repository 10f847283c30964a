"""``repro serve``: the long-lived query service.

A coordinator daemon (:mod:`repro.serve.coordinator`) accepts SQL
queries from many concurrent clients over the
:mod:`repro.mapreduce.wire` framing, runs each in an isolated session
(:mod:`repro.serve.session`) over the worker fleet it started with
(:mod:`repro.serve.fleet` probes it), and survives overload, worker loss,
deadlines, and cancellation with structured errors
(:mod:`repro.errors`) instead of hangs or tracebacks.
"""

from repro.serve.coordinator import QueryService, spawn_service
from repro.serve.fleet import probe_worker
from repro.serve.scheduler import (
    PRIORITY_DEFAULT,
    PRIORITY_MAX,
    PRIORITY_MIN,
    FairScheduler,
)
from repro.serve.session import (
    ADMITTED,
    CANCELLED,
    DONE,
    FAILED,
    PLANNING,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    TIMED_OUT,
    QuerySession,
)

__all__ = [
    "ADMITTED",
    "CANCELLED",
    "DONE",
    "FAILED",
    "FairScheduler",
    "PLANNING",
    "PRIORITY_DEFAULT",
    "PRIORITY_MAX",
    "PRIORITY_MIN",
    "QUEUED",
    "QueryService",
    "QuerySession",
    "RUNNING",
    "TERMINAL_STATES",
    "TIMED_OUT",
    "probe_worker",
    "spawn_service",
]
