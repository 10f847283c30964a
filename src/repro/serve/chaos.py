"""Chaos harness: scripted worker fault schedules against a live fleet.

The worker daemon's fault hooks (``kill`` / ``stall`` / ``drop`` /
``slow``, :mod:`repro.mapreduce.worker`) originally armed only at
process start.  The harness arms them **over the wire** — a ``("fault",
mode, after_tasks, delay_s)`` message — so one test can run a whole
schedule ("kill worker A after its 3rd task, slow worker B by 200 ms
from its 1st") against daemons that are mid-service, which is exactly
the situation the serve-layer isolation guarantee is about:

* a killed/stalled worker must cost only retries, never results;
* a slowed worker must burn only the *slow query's* deadline budget;
* concurrent queries that never touched the faulty worker must finish
  bit-identical to a serial run.

Events arm synchronously in :meth:`ChaosHarness.start`, so a test that
needs the fault in place before submitting queries can rely on it.

The harness also covers the *coordinator* side of the durability story:
:func:`wait_for_journal_waves` polls a ``repro serve`` session journal
until enough completed-wave records are durably on disk, and
:func:`kill_coordinator` SIGKILLs the daemon — together they script the
crash-recovery drill (kill mid-query after N checkpointed waves,
restart with ``--recover``, prove the waves were not re-executed).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import List, Sequence

from repro.mapreduce import wire


def arm_fault(
    addr: str,
    mode: Optional[str],
    after_tasks: int = 1,
    delay_s: float = 0.0,
    timeout_s: float = 2.0,
) -> bool:
    """Arm (or, with ``mode=None``, clear) a fault on one live daemon.

    Returns whether the daemon acknowledged; an unreachable daemon is
    ``False``, not an exception — chaos schedules keep going when an
    earlier event already killed the target.
    """
    try:
        sock = wire.connect(addr, timeout=timeout_s)
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


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: arm ``mode`` on ``addr`` at ``at_s``."""

    addr: str
    mode: str
    after_tasks: int = 1
    delay_s: float = 0.0  # slow-mode per-task sleep


class ChaosHarness:
    """Runs a :class:`ChaosEvent` schedule against live worker daemons."""

    def __init__(self, schedule: Sequence[ChaosEvent]) -> None:
        self.schedule = list(schedule)
        self.armed: List[ChaosEvent] = []
        self.failed: List[ChaosEvent] = []

    def start(self) -> "ChaosHarness":
        """Arm every event, in order; ``failed`` lists the refused ones."""
        for event in self.schedule:
            ok = arm_fault(event.addr, event.mode, event.after_tasks, event.delay_s)
            (self.armed if ok else self.failed).append(event)
        return self


# ----------------------------------------------------------------------
# coordinator crash drill
# ----------------------------------------------------------------------


def wait_for_journal_waves(
    journal_path,
    min_waves: int = 2,
    timeout_s: float = 30.0,
    restored: Optional[bool] = False,
) -> List[dict]:
    """Poll a serve journal until ``min_waves`` wave records are on disk.

    The journal's fsync-before-ack contract makes this the drill's kill
    gate: once this returns, those checkpoints survive any SIGKILL that
    follows.  ``restored`` filters the records counted (``False`` =
    freshly computed waves only, ``None`` = any); raises ``TimeoutError``
    with the journal's current shape otherwise.
    """
    from repro.storage import read_records

    deadline = time.monotonic() + timeout_s
    while True:
        records, _torn = read_records(journal_path)
        waves = [
            record
            for record in records
            if isinstance(record, dict)
            and record.get("kind") == "wave"
            and (restored is None or bool(record.get("restored")) == restored)
        ]
        if len(waves) >= min_waves:
            return waves
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"journal never reached {min_waves} wave record(s): "
                f"{len(records)} record(s), {len(waves)} matching wave(s)"
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
