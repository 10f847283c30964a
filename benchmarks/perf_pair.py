"""Alternating parent/change pairs of one benchmark workload.

The procedure a PR that claims a gain has to follow (and PRs 13 and 14
performed by hand): clone ``--base`` into a temporary directory, then run
the benchmark's contract command

    python3 perf/run.py --workload W --seed S --seconds 12 --trace 0

once per side and pair, each side from its *own* checkout (so each runs
its own ``perf/`` and ``src/``), alternating which side goes first, on a
fresh seed per pair.  Prints every run as it lands, then per end-to-end
metric both sides' median and quartiles and how many pairs the change won.

    python3 benchmarks/perf_pair.py --base HEAD~1 --workload exec_merge_q1
    make perf-pair BASE=HEAD~1 WORKLOAD=exec_merge_q1 PAIRS=10

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: BENCHMARK.json run_seconds)")
    args = parser.parse_args()

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs: Dict[str, Dict[str, List[float]]] = {
        side: {name: [] for name in better} for side in ("base", "change")
    }
    failed = {"base": 0, "change": 0}
    wins = {name: 0 for name in better}
    ties = {name: 0 for name in better}

    with tempfile.TemporaryDirectory(prefix="perf-pair-") as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "clone", "-q", str(REPO_ROOT), str(base)], check=True)
        subprocess.run(["git", "-C", str(base), "checkout", "-q", args.base], check=True)
        checkouts = {"base": base, "change": REPO_ROOT}
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            got = {
                side: run_once(checkouts[side], args.workload, seed, seconds)
                for side in order
            }
            for side in order:
                line = got[side]
                failed[side] += line["failed"] + (not line["correct"])
                for name in better:
                    runs[side][name].append(line["metrics"][name]["value"])
            for name, direction in better.items():
                delta = got["change"]["metrics"][name]["value"] - (
                    got["base"]["metrics"][name]["value"]
                )
                wins[name] += (delta < 0) if direction == "lower" else (delta > 0)
                ties[name] += delta == 0
            print(
                f"pair {pair} seed {seed} first={order[0]} "
                + " ".join(
                    f"{name}={got['base']['metrics'][name]['value']:.4g}"
                    f"->{got['change']['metrics'][name]['value']:.4g}"
                    for name in better
                ),
                flush=True,
            )

    print(f"\n{args.workload}: {args.pairs} pairs, base {args.base}, {seconds:g} s runs; "
          "median [quartiles]")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(
            f"{name:18s} base {quartiles(runs['base'][name]):32s} "
            f"change {quartiles(runs['change'][name]):32s} {metric['unit']:6s} "
            f"({metric['better']} is better) change wins {wins[name]}/{args.pairs}"
            + (f", {ties[name]} ties" if ties[name] else "")
        )
    print(f"failed or wrong answers: base {failed['base']}, change {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
