"""Chaos harness: scripted worker fault schedules against a live fleet.

The fault-injecting test worker's faults (``kill`` / ``stall`` /
``drop`` / ``slow``, ``tests/mapreduce/fault_worker.py``) arm at process
start or **over the wire** — a ``("fault", mode, after_tasks,
delay_s)`` message, which only that test worker understands — so one
test can run a whole schedule ("kill worker A after its 3rd task, slow
worker B by 200 ms from its 1st") against daemons that are mid-service,
which is exactly the situation the serve-layer isolation guarantee is
about:

* a killed/stalled worker must cost only retries, never results;
* a slowed worker must burn only the *slow query's* deadline budget;
* concurrent queries that never touched the faulty worker must finish
  bit-identical to a serial run.

:func:`arm_fault` returns once the worker acknowledged, so a test
that needs the fault in place before submitting queries can rely on it.

The harness also covers the *coordinator* side of the durability story:
:func:`spawn_paused_service` starts a ``repro serve`` (this module run
as a script) whose session thread stops for good once it has journaled
N wave records, :func:`wait_for_journal_waves` polls the journal
until those records are durably on disk, and
:func:`kill_coordinator` SIGKILLs the daemon — together they script the
crash-recovery drill (kill mid-query after exactly N checkpointed
waves, restart with ``--recover``, prove the waves were not
re-executed).
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

from repro.cli import main
from repro.mapreduce import wire
from repro.serve.durability import SessionLedger
from repro.storage import read_records


def arm_fault(addr: str, mode: str, after_tasks: int = 1, delay_s: float = 0.0) -> bool:
    """Arm a fault on one live test worker; whether it acknowledged (an
    unreachable daemon is ``False``, not an exception)."""
    try:
        sock = wire.connect(addr, timeout=2.0)
    except OSError:
        return False
    try:
        wire.send_frame(sock, ("fault", mode, after_tasks, delay_s))
        reply = wire.recv_frame(sock)
        return isinstance(reply, tuple) and bool(reply) and reply[0] == "fault-armed"
    except OSError:
        return False
    finally:
        wire.close_socket(sock)


# ----------------------------------------------------------------------
# coordinator crash drill
# ----------------------------------------------------------------------


def pause_after_waves(waves: int) -> None:
    """Make every session thread of this process block for good right
    after it journals its ``waves``-th wave record (the record itself is
    durable by then: ``SessionLedger.append`` fsyncs before it returns)."""
    append = SessionLedger.append
    journaled = 0
    lock = threading.Lock()

    def append_then_pause(self, record: dict) -> None:
        nonlocal journaled
        append(self, record)
        if record.get("kind") != "wave":
            return
        with lock:
            journaled += 1
            pause = journaled >= waves
        if pause:
            threading.Event().wait()

    SessionLedger.append = append_then_pause


def spawn_paused_service(waves: int, extra_args=(), env_extra=None):
    """Spawn ``repro serve --port 0 <extra_args>`` that pauses after
    ``waves`` wave records (:func:`pause_after_waves`); ``(proc, addr)``."""
    return wire.spawn_listening(
        (os.path.abspath(__file__), str(waves), "serve", "--port", "0", *extra_args),
        env_extra=env_extra,
    )


def wait_for_journal_waves(journal_path, waves: int, timeout_s: float = 30.0) -> None:
    """Poll a serve journal until ``waves`` wave records are on disk.

    The journal's fsync-before-ack contract makes this the drill's kill
    gate: once this returns, those checkpoints survive any SIGKILL that
    follows.  Raises ``TimeoutError`` with the journal's shape otherwise.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        records, _torn = read_records(journal_path)
        seen = sum(1 for record in records if record.get("kind") == "wave")
        if seen >= waves:
            return
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"journal never reached {waves} wave record(s): "
                f"{len(records)} record(s), {seen} wave(s)"
            )
        time.sleep(0.05)


def kill_coordinator(proc, timeout_s: float = 10.0) -> None:
    """SIGKILL a spawned ``repro serve`` subprocess and reap it.

    SIGKILL, not terminate: the drill must model a crash the daemon gets
    no chance to handle — no atexit, no socket teardown, no final
    journal flush beyond what ``append`` already fsynced.
    """
    if proc.poll() is None:
        os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=timeout_s)


if __name__ == "__main__":
    # python chaos.py WAVES <repro.cli arguments>
    pause_after_waves(int(sys.argv[1]))
    sys.exit(main(sys.argv[2:]))
