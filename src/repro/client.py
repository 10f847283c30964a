"""The top-level client API: ``repro.connect(addr)``.

One import, one call, one object::

    import repro

    with repro.connect("127.0.0.1:7650") as client:
        query_id = client.execute("SELECT ...", deadline_s=5.0)
        print(client.status(query_id)["state"])
        rows = client.wait(query_id)["rows"]

:class:`Client` is the blocking client for the ``repro serve`` query
service — one TCP connection, request/response over the shared wire
framing, safe for one thread.  Structured service errors come back as
:class:`~repro.errors.ServiceError` subclasses rebuilt from their
taxonomy codes, so callers write

    try:
        result = client.run("SELECT ...", deadline_s=5.0)
    except DeadlineExceeded:
        ...
    except AdmissionRejected:
        ...

and never parse message strings.

The endpoint verbs mirror the service protocol: :meth:`Client.execute`
enqueues and returns a query id, :meth:`Client.status` /
:meth:`Client.cancel` / :meth:`Client.result` operate on it, and
:meth:`Client.wait` / :meth:`Client.run` are the blocking conveniences
built on top.
"""

from __future__ import annotations

import socket
import time
from typing import Dict, Optional

from repro.errors import ServiceError, error_from_wire
from repro.mapreduce import wire


class Client:
    """Blocking client over one connection; safe for one thread.

    ``client_id`` names the tenant every submit is accounted to (the
    service's fair scheduler isolates load per client id); ``priority``
    is the default urgency of this client's submits, both overridable
    per call.
    """

    def __init__(
        self,
        addr: str,
        timeout_s: float = 30.0,
        client_id: str = "default",
        priority: int = 1,
    ) -> None:
        self.addr = addr
        self.timeout_s = timeout_s
        self.client_id = client_id
        self.priority = priority
        self._sock: Optional[socket.socket] = None

    # -- connection ------------------------------------------------------

    def connect(self) -> "Client":
        self._sock, _info = wire.dial(self.addr, self.timeout_s)
        return self

    def close(self) -> None:
        if self._sock is not None:
            wire.close_socket(self._sock)
            self._sock = None

    def __enter__(self) -> "Client":
        if self._sock is None:
            self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call(self, message: tuple):
        if self._sock is None:
            self.connect()
        assert self._sock is not None
        try:
            wire.send_frame(self._sock, message)
            return wire.recv_frame(self._sock)
        except (OSError, wire.WireError) as exc:
            self.close()
            raise ServiceError(
                f"service connection lost: {exc}",
                details={"addr": self.addr},
            ) from exc

    @staticmethod
    def _raise_if_error(reply: object):
        if isinstance(reply, tuple) and reply:
            if reply[0] in ("error", "rejected"):
                raise error_from_wire(reply[1] if len(reply) > 1 else None)
            return reply
        raise ServiceError(f"malformed service reply: {reply!r}")

    # -- endpoints -------------------------------------------------------

    def execute(
        self,
        sql: str,
        workload: str = "mobile",
        volume: int = 0,
        seed: int = 0,
        method: str = "ours",
        deadline_s: Optional[float] = None,
        knobs: Optional[Dict[str, str]] = None,
        client_id: Optional[str] = None,
        priority: Optional[int] = None,
    ) -> str:
        """Enqueue a query; returns its id (raises ``AdmissionRejected``
        on load shed — or ``QuotaExceeded`` on this client's fair-share
        quota — before the query costs the service anything)."""
        spec = {
            "sql": sql,
            "workload": workload,
            "volume": volume,
            "seed": seed,
            "method": method,
            "deadline_s": deadline_s,
            "knobs": dict(knobs or {}),
            "client_id": self.client_id if client_id is None else client_id,
            "priority": self.priority if priority is None else priority,
        }
        reply = self._raise_if_error(self._call(("submit", spec)))
        if reply[0] != "submitted":
            raise ServiceError(f"unexpected submit reply: {reply!r}")
        return reply[1]

    #: Protocol-verb spelling of :meth:`execute`, kept for callers that
    #: mirror the wire conversation.
    submit = execute

    def status(self, query_id: str) -> dict:
        reply = self._raise_if_error(self._call(("status", query_id)))
        return reply[1]

    def cancel(self, query_id: str, reason: str = "client cancel") -> dict:
        reply = self._raise_if_error(self._call(("cancel", query_id, reason)))
        return reply[1]

    def result(
        self,
        query_id: str,
        timeout_s: float = 60.0,
        offset: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> dict:
        """One bounded wait for the terminal payload (may be non-terminal).

        ``offset``/``limit`` request one *page* of the DONE result: its
        ``result`` dict then carries the row slice plus ``total_rows``,
        ``offset``, and ``next_offset`` (``None`` on the last page).
        Left at ``None``, the full result comes back in one frame — or a
        ``ResultTooLarge`` error steers you to :meth:`iter_rows`.
        """
        if offset is None and limit is None:
            message: tuple = ("result", query_id, timeout_s)
        else:
            message = ("result", query_id, timeout_s, offset, limit)
        reply = self._raise_if_error(self._call(message))
        return reply[1]

    def iter_rows(
        self,
        query_id: str,
        page_size: int = 10_000,
        timeout_s: float = 300.0,
    ):
        """Stream a DONE result's rows page by page.

        Yields rows in result order; consecutive pages concatenate
        bit-identically to the unpaginated ``rows`` list, so
        ``list(client.iter_rows(qid))`` equals
        ``client.wait(qid)["rows"]`` without ever shipping a frame
        larger than ~``page_size`` rows.  Raises the query's taxonomy
        error if it ended non-DONE.
        """
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        deadline = time.monotonic() + timeout_s
        offset = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"query {query_id} still streaming after {timeout_s}s"
                )
            payload = self.result(
                query_id,
                timeout_s=min(remaining, 30.0),
                offset=offset,
                limit=page_size,
            )
            if not payload.get("terminal"):
                continue
            if payload.get("error"):
                raise error_from_wire(payload["error"])
            page = payload.get("result") or {}
            for row in page.get("rows") or []:
                yield row
            next_offset = page.get("next_offset")
            if next_offset is None:
                return
            offset = next_offset

    def wait(self, query_id: str, timeout_s: float = 300.0) -> dict:
        """Block until the query is terminal; raises its taxonomy error.

        Returns the result payload (rows, columns, report numbers) on
        ``DONE``; raises the rebuilt :class:`ServiceError` subclass on
        any other terminal state."""
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"query {query_id} still not terminal after {timeout_s}s"
                )
            payload = self.result(query_id, timeout_s=min(remaining, 30.0))
            if not payload.get("terminal"):
                continue
            if payload.get("error"):
                raise error_from_wire(payload["error"])
            result = payload.get("result")
            if result is None:
                raise ServiceError(
                    f"query {query_id} terminal without result: "
                    f"{payload.get('state')}"
                )
            return result

    def run(self, sql: str, timeout_s: float = 300.0, **submit_kwargs) -> dict:
        """Submit + wait, one call."""
        query_id = self.execute(sql, **submit_kwargs)
        return self.wait(query_id, timeout_s=timeout_s)

    def stats(self) -> dict:
        reply = self._raise_if_error(self._call(("stats",)))
        return reply[1]


def connect(
    addr: str,
    timeout_s: float = 30.0,
    client_id: str = "default",
    priority: int = 1,
) -> Client:
    """Dial a ``repro serve`` service and return a connected :class:`Client`.

    The returned client is a context manager; ``with repro.connect(addr)
    as client:`` closes the connection on exit.  Connection failures
    raise immediately (``OSError`` from the dial, its subclass
    :class:`~repro.mapreduce.wire.WireError` on a bad handshake) rather
    than on the first call.
    """
    return Client(
        addr, timeout_s=timeout_s, client_id=client_id, priority=priority
    ).connect()
