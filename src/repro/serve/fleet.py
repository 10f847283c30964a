"""Worker fleet health probes.

:func:`probe_worker` — one health probe: TCP connect, hello handshake,
ping round-trip.  This is what ``repro worker list`` / ``repro worker
status`` print.  The fleet itself is fixed when a process starts
(``--workers-addrs`` / ``REPRO_WORKERS_ADDRS``); nothing here changes it.
"""

from __future__ import annotations

import time

from repro.mapreduce import wire


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
