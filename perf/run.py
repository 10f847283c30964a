"""The benchmark's one command.

Contract form (what ``BENCHMARK.json`` names; one workload, one result
line)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Full set (every workload untraced, then traced; prints every metric by
name with unit and n; writes a result file)::

    python3 perf/run.py [--seed N] [--seconds S] [--out FILE] [--smoke]

Compare two result files with the bounds of ``BENCHMARK.json``::

    python3 perf/run.py --compare A.json B.json

Each workload runs in its own child process (``--child``); set-up is
repeated in extra set-up-only children and ``setup_s`` is their median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import machine  # noqa: E402  (needs ROOT on the path)

#: Children per contract run that set up (the last one also measures).
SETUP_REPEATS = 3
#: Hard stop for one child beyond its measuring window.
CHILD_GRACE_S = 150.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (contract form)")
    parser.add_argument("--seed", type=int, default=0, help="reseeds the data generators")
    parser.add_argument("--seconds", type=float, default=None, help="measuring window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, 2 ops (self-test)")
    parser.add_argument("--out", help="result file of a full set")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, default=0.0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------


def spawn_child(workload: str, seed: int, seconds: float, trace: int,
                smoke: bool, setup_only: bool) -> dict:
    """Run one child to completion and return its report."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--t0", repr(time.time()),
    ]
    if smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=str(ROOT), start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: child timed out")
    finally:
        _kill_group(proc)  # the child if it hangs, and any daemon it left
    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload}: child exited {proc.returncode}\n{stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def _kill_group(proc: subprocess.Popen) -> None:
    """The child is a session leader: signal whatever is left of its
    process group, then reap it."""
    import signal

    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:  # pragma: no cover - unkillable
        pass


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> dict:
    """Set up ``SETUP_REPEATS`` times (the last child also measures) and
    fold the median set-up time into the measuring child's report."""
    # Only the untraced form reports setup_s; a traced run sets up once.
    repeats = 1 if (smoke or trace) else SETUP_REPEATS
    setups = []
    for _ in range(repeats - 1):
        only = spawn_child(workload, seed, seconds, trace, smoke, setup_only=True)
        setups.append(only["end_to_end"]["setup_s"]["value"])
    report = spawn_child(workload, seed, seconds, trace, smoke, setup_only=False)
    setups.append(report["end_to_end"]["setup_s"]["value"])
    report["end_to_end"]["setup_s"] = {
        "value": statistics.median(setups), "unit": "s", "n": len(setups),
    }
    # Set-up is the same work every time: if the repeats disagree, the
    # machine was disturbed while they ran.
    report["setup_disturbed"] = (
        max(setups) / min(setups) - 1.0 > machine.DISTURBED_DRIFT
    )
    return report


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------


def declared(spec: dict, section: str, report_section: dict) -> Dict[str, dict]:
    """Every metric ``BENCHMARK.json`` declares, in its order; a metric
    the workload has no stake in reads 0."""
    out = {}
    for entry in spec[section]:
        got = report_section.get(entry["name"])
        out[entry["name"]] = {
            "value": got["value"] if got else 0.0,
            "unit": entry["unit"],
            "n": got.get("n", 0) if got else 0,
        }
    return out


def print_metrics(title: str, metrics: Dict[str, dict]) -> None:
    print(f"# {title}")
    for name, got in metrics.items():
        print(f"{name:50s} {got['value']:>16.6g} {got['unit']:8s} n={got['n']}")


def contract_line(report: dict, metrics: Dict[str, dict]) -> str:
    return json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {
            name: {"value": got["value"], "unit": got["unit"]}
            for name, got in metrics.items()
        },
    })


def run_contract(args: argparse.Namespace, spec: dict) -> int:
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    report = run_workload(args.workload, args.seed, seconds, args.trace, args.smoke)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = declared(spec, section, report[section])
    print_metrics(f"{args.workload} seed={args.seed} {section}", metrics)
    for event in report.get("events", []):
        print(f"# event: {event}")
    if report.get("disturbed"):
        print("# disturbed: calibration drifted during this run")
    print(contract_line(report, metrics))
    return 0


# ----------------------------------------------------------------------
# full set
# ----------------------------------------------------------------------


def daemons_available() -> bool:
    from repro.mapreduce.wire import closure_transport_available

    return closure_transport_available()


def run_set(args: argparse.Namespace, spec: dict) -> int:
    from perf.workloads import DAEMON_WORKLOADS

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result = {
        "fingerprint": machine.fingerprint(ROOT),
        "seed": args.seed, "seconds": seconds, "smoke": args.smoke,
        "workloads": {},
    }
    for entry in spec["workloads"]:
        name = entry["name"]
        if name in DAEMON_WORKLOADS and not daemons_available():
            print(f"# {name}: skipped (cloudpickle missing)")
            continue
        if args.smoke:
            # One traced child gives both sections: its untraced stretch
            # carries the end-to-end metrics.
            traced = run_workload(name, args.seed, seconds, 1, smoke=True)
            plain = traced
        else:
            plain = run_workload(name, args.seed, seconds, 0)
            traced = run_workload(name, args.seed, seconds, 1)
        attempted = plain["attempted"] + (0 if plain is traced else traced["attempted"])
        failed = plain["failed"] + (0 if plain is traced else traced["failed"])
        row = {
            "end_to_end": declared(spec, "end_to_end", plain["end_to_end"]),
            "per_layer": declared(spec, "per_layer", traced["per_layer"]),
            "deterministic": {**plain["deterministic"], **traced["deterministic"]},
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted if attempted else 1.0,
            "disturbed": bool(plain["disturbed"] or traced["disturbed"]),
            "setup_disturbed": bool(plain["setup_disturbed"]),
            "calib_drift": max(
                plain["per_layer"]["machine.calib_drift"]["value"],
                traced["per_layer"]["machine.calib_drift"]["value"],
            ),
            "events": plain["events"] + (traced["events"] if traced is not plain else []),
        }
        result["workloads"][name] = row
        print_metrics(f"{name} end_to_end (tracing off)", row["end_to_end"])
        print_metrics(f"{name} per_layer (traced pass)", row["per_layer"])
        print(f"{'error_rate':50s} {row['error_rate']:>16.6g} {'ratio':8s} n={attempted}")
        if row["disturbed"]:
            print(f"# {name}: disturbed (calibration drift {row['calib_drift']:.3f})")
        for event in row["events"]:
            print(f"# event: {event}")

    chain = result["workloads"].get("chain_hypercube")
    dist = result["workloads"].get("dist2_chain")
    if chain and dist:
        same = all(
            chain["deterministic"].get(key) == value
            for key, value in dist["deterministic"].items()
            if key.startswith("mapreduce.runtime.") or key.endswith("sim_makespan_s")
        )
        ratio = chain["end_to_end"]["query_s"]["value"] / dist["end_to_end"]["query_s"]["value"]
        print(f"# chain_hypercube.query_s / dist2_chain.query_s = {ratio:.4f}")
        print(f"# dist2_chain counts identical to chain_hypercube: {same}")
        result["cross"] = {"serial_over_dist2_query_s": ratio, "dist2_counts_match": same}
        if not same:
            dist["failed"] += 1

    out = Path(args.out) if args.out else ROOT / "perf" / "out" / "set.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(f"# wrote {out}")
    bad = [n for n, row in result["workloads"].items() if row["failed"]]
    return 1 if bad else 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """B against A: a bounded metric may not get worse by more than its
    bound, a deterministic count must be identical, and a row whose
    workload was disturbed in either file is *unresolved*."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    regressions = unresolved = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name}: missing from {path_b}")
            regressions += 1
            continue
        row_a, row_b = a["workloads"][name], b["workloads"][name]
        disturbed = row_a.get("disturbed") or row_b.get("disturbed")
        for entry in spec["end_to_end"]:
            va = row_a["end_to_end"][entry["name"]]["value"]
            vb = row_b["end_to_end"][entry["name"]]["value"]
            if va == 0:
                change = 0.0 if vb == 0 else float("inf")
            else:
                change = (vb - va) / va
            worse = change if entry["better"] == "lower" else -change
            if entry["name"] == "setup_s":
                disturbed = disturbed or row_a.get("setup_disturbed") or row_b.get("setup_disturbed")
            if worse <= entry["bound"]:
                verdict = "ok"
            elif disturbed:
                verdict = "UNRESOLVED (disturbed)"
                unresolved += 1
            else:
                verdict = "REGRESSION"
                regressions += 1
            print(
                f"{name:16s} {entry['name']:18s} {va:12.5g} -> {vb:12.5g} "
                f"{change:+8.2%} (bound {entry['bound']:.0%}) {verdict}"
            )
        if row_b["error_rate"] > row_a["error_rate"]:
            print(f"{name:16s} error_rate {row_a['error_rate']} -> {row_b['error_rate']} REGRESSION")
            regressions += 1
        for key, va in row_a["deterministic"].items():
            vb = row_b["deterministic"].get(key)
            if va != vb:
                print(f"{name:16s} {key} {va} != {vb} COUNT DIFFERS")
                regressions += 1
    print(f"# {regressions} regression(s), {unresolved} unresolved")
    return 1 if regressions else 0


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perf/run.py: no src/repro next to perf/: nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload and args.workload not in names:
        print(f"unknown workload {args.workload!r}; have {names}", file=sys.stderr)
        return 2
    if args.child:
        from perf import child

        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        return child.main(args)
    if args.workload:
        return run_contract(args, spec)
    return run_set(args, spec)


if __name__ == "__main__":
    sys.exit(main())
