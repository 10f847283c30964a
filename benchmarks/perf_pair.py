"""Alternating parent/change pairs of one benchmark workload, or of all.

The procedure a PR that claims a gain has to follow (and PRs 13 and 14
performed by hand): clone ``--base`` into a temporary directory, then run
the benchmark's contract command

    python3 perf/run.py --workload W --seed S --seconds 12 --trace 0

once per side and pair, each side from its *own* checkout (so each runs
its own ``perf/`` and ``src/``), alternating which side goes first, on a
fresh seed per pair.  Prints every run as it lands, then per workload and
end-to-end metric both sides' median and quartiles, how many pairs the
change won, and the verdict of the choosing-metrics guide:

* ``gain`` — the change won at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  distance between the base's own quartiles;
* ``REGRESSION`` — the change's median is worse than the base's by more
  than the metric's ``BENCHMARK.json`` bound;
* ``unresolved`` — neither, but the base's own quartiles lie further
  apart than the bound and some base run reads better than some change
  run, so "unchanged" cannot be told from "worse";
* ``within-bound`` — everything else.

``--workload all`` runs every workload of ``BENCHMARK.json`` in each pair:
the pipeline rejects a PR on *any* workload, so the five have to be seen
together.

    python3 benchmarks/perf_pair.py --base HEAD~1 --workload exec_merge_q1
    make perf-pair BASE=HEAD~1 WORKLOAD=all PAIRS=10

The change side is the working tree this script sits in, uncommitted
edits included.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One contract run in ``checkout``; returns its result line."""
    proc = subprocess.run(
        [
            sys.executable, "perf/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: perf/run.py failed\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{low:.4g}, {high:.4g}]"


def verdict(
    base: List[float], change: List[float], wins: int, lower_is_better: bool, bound: float
) -> str:
    """The guide's reading of one workload x metric (see the module doc)."""
    sign = 1.0 if lower_is_better else -1.0
    base_median, change_median = statistics.median(base), statistics.median(change)
    spread = 0.0
    if len(base) >= 2:
        low, _median, high = statistics.quantiles(base, n=4, method="inclusive")
        spread = high - low
    improvement = sign * (base_median - change_median)
    if wins >= 0.9 * len(base) and improvement > spread:
        return "gain"
    if -improvement > bound * abs(base_median):
        return "REGRESSION"
    all_better = max(sign * v for v in change) < min(sign * v for v in base)
    if spread > bound * abs(base_median) and not all_better:
        return "unresolved"
    return "within-bound"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision of the parent side")
    parser.add_argument("--workload", required=True,
                        help="a BENCHMARK.json workload name, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: BENCHMARK.json run_seconds)")
    args = parser.parse_args()

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = (
        [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    )
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        workload: {side: {name: [] for name in better} for side in ("base", "change")}
        for workload in workloads
    }
    failed = {workload: {"base": 0, "change": 0} for workload in workloads}
    wins = {workload: {name: 0 for name in better} for workload in workloads}
    ties = {workload: {name: 0 for name in better} for workload in workloads}

    with tempfile.TemporaryDirectory(prefix="perf-pair-") as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "clone", "-q", str(REPO_ROOT), str(base)], check=True)
        subprocess.run(["git", "-C", str(base), "checkout", "-q", args.base], check=True)
        checkouts = {"base": base, "change": REPO_ROOT}
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for workload in workloads:
                got = {
                    side: run_once(checkouts[side], workload, seed, seconds)
                    for side in order
                }
                for side in order:
                    line = got[side]
                    failed[workload][side] += line["failed"] + (not line["correct"])
                    for name in better:
                        runs[workload][side][name].append(line["metrics"][name]["value"])
                for name, direction in better.items():
                    delta = got["change"]["metrics"][name]["value"] - (
                        got["base"]["metrics"][name]["value"]
                    )
                    wins[workload][name] += (delta < 0) if direction == "lower" else (delta > 0)
                    ties[workload][name] += delta == 0
                print(
                    f"pair {pair} seed {seed} first={order[0]} {workload} "
                    + " ".join(
                        f"{name}={got['base']['metrics'][name]['value']:.4g}"
                        f"->{got['change']['metrics'][name]['value']:.4g}"
                        for name in better
                    ),
                    flush=True,
                )

    for workload in workloads:
        print(f"\n{workload}: {args.pairs} pairs, base {args.base}, {seconds:g} s runs; "
              "median [quartiles]")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = runs[workload]
            print(
                f"{name:18s} base {quartiles(sides['base'][name]):32s} "
                f"change {quartiles(sides['change'][name]):32s} {metric['unit']:6s} "
                f"({metric['better']} is better) change wins "
                f"{wins[workload][name]}/{args.pairs}"
                + (f", {ties[workload][name]} ties" if ties[workload][name] else "")
                + " -> "
                + verdict(
                    sides["base"][name], sides["change"][name], wins[workload][name],
                    metric["better"] == "lower", metric["bound"],
                )
            )
        print(
            f"failed or wrong answers: base {failed[workload]['base']}, "
            f"change {failed[workload]['change']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
