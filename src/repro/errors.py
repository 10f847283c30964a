"""Exception hierarchy for the repro package.

Every error raised on purpose by the library derives from
:class:`ReproError`, so callers can catch a single type.

Service taxonomy
----------------
The ``repro serve`` query service needs errors that survive a TCP hop:
a client must be able to distinguish "the service shed load" from "your
deadline expired" from "the worker fleet is gone" without parsing
message strings.  Every such error derives from :class:`ServiceError`
and carries a stable ``code`` (the taxonomy) plus optional structured
``details``; :func:`error_to_wire` / :func:`error_from_wire` round-trip
them through plain dicts so the wire never ships exception *types* (a
skewed peer could not unpickle them) — only codes, which both ends map
back through :data:`SERVICE_ERROR_CODES`.
"""

from __future__ import annotations

from typing import Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SchemaError(ReproError):
    """A schema is malformed or a field reference cannot be resolved."""


class QueryError(ReproError):
    """A join query is malformed (unknown alias, disconnected graph, ...)."""


class PlanningError(ReproError):
    """The planner could not produce a valid execution plan."""


class SchedulingError(ReproError):
    """The scheduler could not place jobs within the given processing units."""


class ExecutionError(ReproError):
    """A MapReduce job failed during simulated execution."""


class PartitionError(ReproError):
    """Hypercube partitioning was asked for an invalid configuration."""


# ----------------------------------------------------------------------
# service taxonomy (structured, wire-serializable)
# ----------------------------------------------------------------------


class ServiceError(ReproError):
    """Base of the query-service taxonomy; ``code`` is the wire identity."""

    code = "service-error"

    def __init__(self, message: str = "", details: Optional[dict] = None) -> None:
        super().__init__(message or self.code)
        self.details: dict = dict(details or {})


class AdmissionRejected(ServiceError):
    """Load shedding: the admission queue is full (or the request is
    malformed enough to refuse before queuing).  Deliberately cheap —
    rejection happens before planning touches anything."""

    code = "admission-rejected"


class QuotaExceeded(AdmissionRejected):
    """Per-client fair-share quota hit: this *client* already holds its
    allowed share of queue seats (``repro serve --client-max-queued``) or
    concurrency slots.  A subclass of :class:`AdmissionRejected` so
    pre-quota clients that catch the broad shed error keep working; the
    distinct code tells a multi-tenant client it should back off while
    *other* clients are still being admitted."""

    code = "quota-exceeded"


class ResultTooLarge(ServiceError):
    """A result payload would exceed the service's per-frame byte budget
    (``coordinator.RESULT_MAX_BYTES``, never above the wire's hard frame cap).
    The query is DONE and its result is intact server-side — re-fetch it
    in pages with ``offset``/``limit`` (:meth:`repro.client.Client.iter_rows`)
    instead of one monolithic frame.  ``details`` carries ``total_rows``
    and a suggested ``page_size``."""

    code = "result-too-large"


class DeadlineExceeded(ServiceError):
    """The query's deadline budget ran out; execution stopped at the next
    cooperative checkpoint and in-flight remote tasks were abandoned."""

    code = "deadline-exceeded"


class QueryCancelled(ServiceError):
    """The client (or an operator) cancelled the query."""

    code = "cancelled"


class FleetExhausted(ServiceError):
    """No worker could run the tasks and strict-fleet mode forbids the
    silent serial/local degradation the library defaults to."""

    code = "fleet-exhausted"


class PlanningFailed(ServiceError):
    """The query could not be parsed or planned (bad SQL, unknown
    relation, disconnected join graph, planner failure)."""

    code = "planning-failed"


#: code -> class; the only types :func:`error_from_wire` will rebuild.
SERVICE_ERROR_CODES: Dict[str, type] = {
    cls.code: cls
    for cls in (
        ServiceError,
        AdmissionRejected,
        QuotaExceeded,
        ResultTooLarge,
        DeadlineExceeded,
        QueryCancelled,
        FleetExhausted,
        PlanningFailed,
    )
}


def error_to_wire(exc: BaseException) -> dict:
    """Flatten any exception into the taxonomy's wire dict.

    Non-service errors map onto stable codes too (a client should never
    see a raw traceback class name): planning-shaped failures become
    ``planning-failed``, everything else ``service-error`` with the
    original type recorded in ``details``.
    """
    if isinstance(exc, ServiceError):
        return {"code": exc.code, "message": str(exc), "details": exc.details}
    if isinstance(exc, (QueryError, SchemaError, PlanningError, SchedulingError)):
        return {
            "code": PlanningFailed.code,
            "message": str(exc),
            "details": {"type": type(exc).__name__},
        }
    return {
        "code": ServiceError.code,
        "message": f"{type(exc).__name__}: {exc}",
        "details": {"type": type(exc).__name__},
    }


def error_from_wire(payload: object) -> ServiceError:
    """Rebuild a :class:`ServiceError` subclass from its wire dict.

    Unknown codes (a newer peer) degrade to the base class with the code
    preserved in ``details`` rather than failing the decode.
    """
    if not isinstance(payload, dict):
        return ServiceError(f"malformed error payload: {payload!r}")
    code = payload.get("code", ServiceError.code)
    message = str(payload.get("message", "") or code)
    details = payload.get("details")
    details = dict(details) if isinstance(details, dict) else {}
    cls = SERVICE_ERROR_CODES.get(code)
    if cls is None:
        details.setdefault("unknown_code", code)
        cls = ServiceError
    return cls(message, details=details)
