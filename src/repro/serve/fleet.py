"""Elastic worker fleet management under a live coordinator.

Two jobs live here:

* :func:`probe_worker` — one health probe: TCP connect, hello
  handshake, ping round-trip.  This is what ``repro worker list`` /
  ``repro worker status`` print, and what the service's ``fleet``
  endpoint reports.
* :class:`FleetManager` — the single writer of the process's worker
  address set.  ``set_addrs`` re-points ``REPRO_WORKERS_ADDRS`` (the
  source of truth every session resolves when it starts) *and*
  reconfigures the live :class:`~repro.mapreduce.backend.DistributedBackend`
  in place: removed workers drain (their in-flight task finishes, then
  the handle closes), added workers become dial-eligible with fresh
  backoff.  Running queries keep their results bit-identical — a
  drained worker's completed work is already folded, and anything it
  would have pulled goes to the survivors.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

from repro.mapreduce import wire
from repro.mapreduce.backend import live_distributed_backend
from repro.mapreduce.config import WORKERS_ADDRS_ENV, parse_workers_addrs


def probe_worker(addr: str, timeout_s: float = 1.0) -> dict:
    """Handshake + heartbeat probe of one ``host:port`` worker daemon.

    Never raises: unreachable/mismatched workers come back as a dict
    with ``alive: False`` and the failure in ``error``, so probing a
    half-dead fleet reports every member instead of stopping at the
    first corpse.
    """
    report: dict = {
        "addr": addr,
        "alive": False,
        "compatible": False,
        "rtt_ms": None,
        "info": None,
        "error": None,
    }
    started = time.perf_counter()
    try:
        sock, info = wire.dial(addr, timeout_s)
    except OSError as exc:  # unreachable, or no hello-ack (a WireError)
        report["error"] = f"connect failed: {exc}"
        return report
    try:
        report["info"] = info
        report["compatible"] = wire.compatible(info)
        # Heartbeat round-trip: the same ping the coordinator's liveness
        # thread sends, so "status says alive" and "backend keeps it"
        # measure the same thing.
        wire.send_frame(sock, ("ping", 0))
        pong = wire.recv_frame(sock)
        if not (isinstance(pong, tuple) and pong and pong[0] == "pong"):
            report["error"] = f"bad ping reply: {pong!r}"
            return report
        report["alive"] = True
        report["rtt_ms"] = (time.perf_counter() - started) * 1000.0
        if not report["compatible"]:
            report["error"] = "version/format mismatch (worker refused for work)"
        return report
    except OSError as exc:
        report["error"] = f"probe failed: {exc}"
        return report
    finally:
        wire.close_socket(sock)


class FleetManager:
    """Owns the live worker address set for a ``repro serve`` process."""

    def __init__(self, addrs: Optional[Tuple[str, ...]] = None) -> None:
        if addrs is None:
            addrs = parse_workers_addrs(os.environ.get(WORKERS_ADDRS_ENV, ""))
        self._addrs: Tuple[str, ...] = tuple(addrs)
        if self._addrs:
            os.environ[WORKERS_ADDRS_ENV] = ",".join(self._addrs)

    @property
    def addrs(self) -> Tuple[str, ...]:
        return self._addrs

    def set_addrs(self, raw: str) -> Dict[str, List[str]]:
        """Re-point the fleet at ``raw`` (``host:port,host:port``).

        Updates the environment, which every session resolves when it
        starts (per-session knobs may not override the fleet), and
        reconfigures the live distributed backend at once; a running
        session converges because ``get_backend`` never re-points it
        from settings older than its last re-point.  Returns the
        added/removed/kept address sets.
        """
        addrs = parse_workers_addrs(raw)
        self._addrs = addrs
        if addrs:
            os.environ[WORKERS_ADDRS_ENV] = ",".join(addrs)
        else:
            os.environ.pop(WORKERS_ADDRS_ENV, None)
        backend = live_distributed_backend()
        if backend is None:
            return {"added": [], "removed": [], "kept": list(addrs)}
        return backend.reconfigure(addrs)
