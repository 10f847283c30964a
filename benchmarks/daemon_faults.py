"""Minor page faults and CPU time per warm distributed query, per process.

Starts two ``repro worker serve`` daemons with
:func:`repro.mapreduce.worker.spawn_daemon`, runs the ``dist2_chain``
query of the benchmark (a 3-way chain theta-join, 350 rows per relation,
selectivity 0.05) through the distributed backend cold once and warm a
few times, then times ``--queries`` warm queries.  For the coordinator
(this process) and for each worker it prints, per query, the minor page
faults and the user and system CPU milliseconds, and the process's
``VmHWM`` (peak resident set) and ``VmRSS`` after the run.  It only reads
``/proc``; nothing is written outside the daemons' cache directory.
``--rows`` runs the same chain query on larger relations (the result
grows with the cube of it), to see what a worker keeps after bigger
tasks.

    PYTHONPATH=src python3 benchmarks/daemon_faults.py [--queries 50] [--rows 350]
    make daemon-faults

A worker whose heap is steady re-uses the pages its previous task freed,
so its faults per warm query stay near zero; one that returns them to the
kernel faults them in again on every task.

``tests/mapreduce/test_worker_heap.py`` imports :func:`proc_counters` and
:func:`run_query` from this file.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from repro.core.executor import PlanExecutor
from repro.core.planner import ThetaJoinPlanner
from repro.mapreduce.backend import close_backends
from repro.mapreduce.config import PAPER_CLUSTER_KP64, settings_scope
from repro.mapreduce.runtime import SimulatedCluster
from repro.mapreduce.worker import spawn_daemon, stop_daemons
from repro.relational.query import JoinQuery
from repro.workloads.synthetic import chain_query

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_counters(pid: int) -> Dict[str, float]:
    """Minor faults, user and system CPU seconds of one live process."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # The command name may contain spaces; fields resume after ")".
    fields = stat.rsplit(")", 1)[1].split()
    return {
        "minflt": int(fields[7]),
        "utime": int(fields[11]) / _CLK_TCK,
        "stime": int(fields[12]) / _CLK_TCK,
    }


def memory_mb(pid: int) -> Dict[str, float]:
    """``VmHWM`` and ``VmRSS`` of one live process, MiB."""
    found = {}
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        key = line.split(":", 1)[0]
        if key in ("VmHWM", "VmRSS"):
            found[key] = int(line.split()[1]) / 1024.0
    return found


def run_query(query: JoinQuery, addrs: List[str]) -> int:
    """Plan and run ``query`` once on the worker daemons at ``addrs``;
    returns the number of result rows."""
    knobs = {
        "REPRO_EXEC_BACKEND": "distributed",
        "REPRO_WORKERS_ADDRS": ",".join(addrs),
        "REPRO_STRICT_FLEET": "1",
    }
    with settings_scope(knobs):
        plan = ThetaJoinPlanner(PAPER_CLUSTER_KP64).plan(query)
        outcome = PlanExecutor(SimulatedCluster(PAPER_CLUSTER_KP64)).execute(plan, query)
    return len(outcome.result.rows)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--queries", type=int, default=50, help="timed warm queries")
    parser.add_argument("--warmup", type=int, default=3, help="untimed warm queries")
    parser.add_argument("--rows", type=int, default=350, help="rows per chain relation")
    parser.add_argument("--seed", type=int, default=0, help="data seed of the chain query")
    args = parser.parse_args(argv)
    if args.queries < 1 or args.warmup < 0 or args.rows < 1:
        parser.error("--queries and --rows must be >= 1 and --warmup >= 0")
    if not Path(f"/proc/{os.getpid()}/stat").exists():
        print("daemon_faults: no /proc on this platform", file=sys.stderr)
        return 1

    query = chain_query(3, rows=args.rows, selectivity=0.05, seed=args.seed)
    with tempfile.TemporaryDirectory(prefix="daemon-faults-") as cache:
        os.environ["REPRO_CACHE_DIR"] = cache  # the daemons inherit it
        procs = []
        try:
            for _ in range(2):
                procs.append(spawn_daemon())
            addrs = [addr for _, addr in procs]
            for _ in range(1 + args.warmup):  # the first one ships every blob
                rows = run_query(query, addrs)
            roles = [("coordinator", os.getpid())] + [
                (f"worker {addr}", proc.pid) for proc, addr in procs
            ]
            before = {pid: proc_counters(pid) for _, pid in roles}
            for _ in range(args.queries):
                run_query(query, addrs)
            after = {pid: proc_counters(pid) for _, pid in roles}
            print(
                f"# chain query ({args.rows} rows per relation, seed {args.seed}, "
                f"{rows} result rows), {args.queries} warm queries after "
                f"{1 + args.warmup} untimed"
            )
            print(
                f"{'process':<28} {'minflt/q':>9} {'user ms/q':>10} {'sys ms/q':>9} "
                f"{'VmHWM MiB':>10} {'VmRSS MiB':>10}"
            )
            for role, pid in roles:
                delta = {key: after[pid][key] - before[pid][key] for key in after[pid]}
                memory = memory_mb(pid)
                print(
                    f"{role:<28} {delta['minflt'] / args.queries:>9.1f} "
                    f"{1000 * delta['utime'] / args.queries:>10.2f} "
                    f"{1000 * delta['stime'] / args.queries:>9.2f} "
                    f"{memory.get('VmHWM', 0.0):>10.1f} {memory.get('VmRSS', 0.0):>10.1f}"
                )
        finally:
            close_backends()
            stop_daemons([proc for proc, _ in procs])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
