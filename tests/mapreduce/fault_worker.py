"""A worker daemon that injects faults, for the fault and chaos drills.

:class:`FaultyWorkerServer` is the production
:class:`~repro.mapreduce.worker.WorkerServer` plus one fault, fired when
the N-th task *starts*:

* ``kill``  — the process exits at once (``os._exit``), as a crashed
  host would: every socket dies and the coordinator's dispatcher sees a
  broken connection at once.
* ``stall`` — the daemon stops answering on *every* connection,
  heartbeats included, as a frozen host would: the coordinator's
  heartbeat thread is what must notice.
* ``drop``  — closes all sockets but leaves the process alive; for
  in-process servers (property suites run one on a thread, where
  ``os._exit`` would take the test runner with it).
* ``slow``  — sleeps ``delay_s`` before *every* task from the N-th on: a
  degraded-but-alive host, the shape that stresses hedging and deadline
  budgets rather than retry logic.

A ``("fault", mode, after_tasks, delay_s)`` frame re-arms it live and
resets the task counter; the chaos harness (``tests/serve/chaos.py``)
scripts its schedules that way.

Run as a script, ``python fault_worker.py [MODE AFTER_TASKS [DELAY_S]]``
is a drop-in ``repro worker serve --port 0`` with that fault armed;
:func:`spawn_fault_worker` spawns it and reads the same ``listening on``
banner.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.mapreduce import wire
from repro.mapreduce.config import EXEC_BACKEND_ENV, EXEC_WORKERS_ENV, WORKERS_ADDRS_ENV
from repro.mapreduce.worker import WorkerServer

FAULT_MODES = ("kill", "stall", "drop", "slow")


@dataclass(frozen=True)
class FaultSpec:
    """Fire ``mode`` when task number ``after_tasks`` starts.

    ``slow`` mode keeps firing: every task from the ``after_tasks``-th on
    sleeps ``delay_s`` first.  The terminal modes fire exactly once.
    """

    mode: str
    after_tasks: int
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(f"fault mode must be one of {FAULT_MODES}")
        if self.after_tasks < 1:
            raise ValueError("after_tasks must be >= 1")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")


class FaultyWorkerServer(WorkerServer):
    """A worker daemon with one armed fault and the ``fault`` verb."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, fault: Optional[FaultSpec] = None
    ) -> None:
        super().__init__(host, port)
        self.fault = fault
        self._lock = threading.Lock()
        #: Tasks started since the daemon started or a fault was last
        #: armed (what ``FaultSpec.after_tasks`` counts), all connections.
        self.tasks_started = 0
        self._stalled = threading.Event()

    def _reply_to(self, message, state):
        if self._stalled.is_set():
            threading.Event().wait()  # a frozen host: never answer again
        return super()._reply_to(message, state)

    def handle(self, message, registry):
        kind = message[0]
        if kind == "task":
            self._maybe_fault()
        elif kind == "fault":
            _kind, mode, after_tasks, delay_s = message
            spec = FaultSpec(str(mode), int(after_tasks), float(delay_s))
            with self._lock:
                self.fault = spec
                self.tasks_started = 0
            return ("fault-armed", spec.mode, spec.after_tasks)
        return super().handle(message, registry)

    def _maybe_fault(self) -> None:
        with self._lock:
            self.tasks_started += 1
            started = self.tasks_started
            fault = self.fault
        if fault is None:
            return
        if fault.mode == "slow":
            if started >= fault.after_tasks:
                time.sleep(fault.delay_s)
            return
        if started != fault.after_tasks:
            return
        if fault.mode == "kill":
            os._exit(1)
        if fault.mode == "stall":
            self._stalled.set()
            threading.Event().wait()  # never returns: this task hangs too
        if fault.mode == "drop":
            self.stop()
            raise wire.WireError("connections dropped by fault injection")


def spawn_fault_worker(*fault: str):
    """Spawn this module as a worker daemon on an OS-assigned port, with
    ``fault`` = ``(MODE, AFTER_TASKS[, DELAY_S])`` armed (or none);
    ``(proc, addr)`` as :func:`~repro.mapreduce.worker.spawn_daemon`
    returns them."""
    return wire.spawn_listening(
        (os.path.abspath(__file__), *fault),
        env_scrub=(EXEC_BACKEND_ENV, EXEC_WORKERS_ENV, WORKERS_ADDRS_ENV),
    )


if __name__ == "__main__":
    args = sys.argv[1:]
    fault = FaultSpec(args[0], int(args[1]), *map(float, args[2:])) if args else None
    sys.exit(FaultyWorkerServer(fault=fault).run())
