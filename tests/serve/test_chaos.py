"""The ISSUE-7 acceptance chaos drill.

One live :class:`QueryService` over a real spawned worker fleet, with
every failure mode at once:

* N >= 3 concurrent queries running over the distributed backend,
* one worker killed mid-phase (wire-armed kill fault),
* one query cancelled, one query past its deadline,

and the promises under test:

* every surviving query's rows are **bit-identical** to a serial run,
* the dead queries return structured taxonomy errors, the expired one
  within 2x its deadline,
* no session hangs, and the backend's in-flight accounting is zero
  afterwards,
* the fleet can then be live-reconfigured around the corpse and keeps
  answering correctly.

Planning caches are warmed by the serial baseline phase first — the
deadline bound measures the service's reaction latency, not a cold
statistics build.
"""

import sys
import time
from pathlib import Path

from chaos import arm_fault
from repro.mapreduce.backend import close_backends
import repro
from repro.serve.coordinator import QueryService
from repro.serve.session import CANCELLED, DONE, TIMED_OUT

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "mapreduce"))
from conformance import (  # noqa: E402
    assert_distributed_really_dispatched,
    execution_env,
    worker_pool,
)

#: Three distinct survivor queries (different shapes + seeds), plus the
#: doomed ones, all on the small mobile relation set.
SURVIVORS = [
    {
        "sql": (
            "SELECT t2.id FROM table t1, table t2 "
            "WHERE t1.d = t2.d AND t1.bt <= t2.bt"
        ),
        "seed": 0,
    },
    {
        "sql": (
            "SELECT t1.id FROM table t1, table t2 "
            "WHERE t1.d = t2.d AND t1.bt < t2.bt"
        ),
        "seed": 1,
    },
    {
        "sql": (
            "SELECT t1.id, t2.id FROM table t1, table t2 "
            "WHERE t1.bsc = t2.bsc AND t1.bt <= t2.bt"
        ),
        "seed": 2,
    },
]

DEADLINE_S = 0.75


def wait_terminal(client, query_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        snap = client.status(query_id)
        if snap["terminal"]:
            return snap
        time.sleep(0.02)
    raise AssertionError(f"query {query_id} hung: {client.status(query_id)}")


def test_chaos_drill():
    # Worker 0 is the fault-injecting test worker, armed over the wire.
    with worker_pool(3, faults=[()]) as addrs:
        with execution_env(
            REPRO_EXEC_BACKEND="distributed",
            REPRO_WORKERS_ADDRS=",".join(addrs),
            REPRO_WORKER_HEARTBEAT_S="0.2",
            REPRO_TASK_RETRIES="2",
        ):
            close_backends()
            service = QueryService(max_concurrent=6, max_queue=8).start()
            try:
                with repro.connect(service.address, timeout_s=30.0) as client:
                    _drill(service, client, addrs)
            finally:
                service.stop()
                close_backends()


def _drill(service, client, addrs):
    # ----- phase 0: serial baselines (also warms planning + relations) --
    baselines = [
        client.run(
            spec["sql"],
            seed=spec["seed"],
            knobs={"REPRO_EXEC_BACKEND": "serial"},
            timeout_s=120.0,
        )["rows"]
        for spec in SURVIVORS
    ]
    assert all(baselines), "degenerate baseline: a survivor query has no rows"

    # ----- phase 1: arm the chaos schedule ------------------------------
    # Worker 0 dies after executing two tasks of the concurrent phase —
    # i.e. mid-phase, with this run's work in flight on its socket.
    assert arm_fault(addrs[0], "kill", after_tasks=2), "chaos arming failed"

    # ----- phase 2: the concurrent storm --------------------------------
    # Everything is submitted while the test thread holds the planning
    # lock, so all five sessions are genuinely concurrent (parked at the
    # same gate) and the cancel/deadline outcomes are race-free.
    submitted_at = {}
    with service._planning_lock:
        survivor_ids = []
        for spec in SURVIVORS:
            query_id = client.submit(spec["sql"], seed=spec["seed"])
            submitted_at[query_id] = time.monotonic()
            survivor_ids.append(query_id)
        doomed_id = client.submit(
            SURVIVORS[0]["sql"], seed=0, deadline_s=DEADLINE_S
        )
        submitted_at[doomed_id] = time.monotonic()
        cancelled_id = client.submit(SURVIVORS[1]["sql"], seed=1)
        submitted_at[cancelled_id] = time.monotonic()
        client.cancel(cancelled_id, "chaos drill cancel")
        # Hold the gate until the doomed query's budget is burnt.
        time.sleep(DEADLINE_S + 0.15)

    # ----- phase 3: the promises ----------------------------------------
    # 3a. Survivors: bit-identical to serial, despite the killed worker.
    for query_id, expected in zip(survivor_ids, baselines):
        snap = wait_terminal(client, query_id)
        assert snap["state"] == DONE, f"{query_id} ended {snap['state']}: {snap}"
        assert client.result(query_id, timeout_s=5.0)["result"]["rows"] == expected

    # 3b. The expired query: structured taxonomy error, within 2x deadline.
    snap = wait_terminal(client, doomed_id, timeout_s=2 * DEADLINE_S)
    terminal_at = time.monotonic()
    assert snap["state"] == TIMED_OUT
    assert snap["error"]["code"] == "deadline-exceeded"
    assert terminal_at - submitted_at[doomed_id] <= 2 * DEADLINE_S, (
        "expired query took longer than 2x its deadline to terminalize"
    )

    # 3c. The cancelled query: structured taxonomy error, never DONE.
    snap = wait_terminal(client, cancelled_id, timeout_s=10.0)
    assert snap["state"] == CANCELLED
    assert snap["error"]["code"] == "cancelled"

    # 3d. No hung sessions anywhere, no leaked in-flight tasks.
    for query_id in submitted_at:
        assert client.status(query_id)["terminal"]
    stats = client.stats()
    assert stats["tasks_in_flight"] == 0
    assert stats["done"] == len(SURVIVORS) + len(baselines)
    assert stats["timed_out"] == 1
    assert stats["cancelled"] == 1
    assert stats["failed"] == 0

    # 3e. The distributed leg really dispatched (no silent serial run).
    assert_distributed_really_dispatched(addrs)

    # ----- phase 4: live reconfiguration around the corpse ---------------
    survivors_fleet = ",".join(addrs[1:])
    delta = client.fleet(survivors_fleet)
    assert addrs[0] in delta["removed"]
    assert delta["addrs"] == list(addrs[1:])
    rerun = client.run(SURVIVORS[0]["sql"], seed=0, timeout_s=120.0)
    assert rerun["rows"] == baselines[0]
    assert client.stats()["tasks_in_flight"] == 0
