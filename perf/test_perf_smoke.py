"""Self-test of the benchmark (collected by the tier-1 ``pytest -x -q``).

Runs ``perf/run.py --smoke`` (tiny sizes, 2 ops per phase; the daemon
workloads are skipped when cloudpickle is missing) and checks the
benchmark's own contract: every declared name is printed with its unit,
nothing failed, the oracle can tell a wrong answer, and a result file
compares clean against itself.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perf" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf-smoke") / "set.json"
    done = subprocess.run(
        RUN + ["--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return out, done.stdout, json.loads(out.read_text())


def test_declared_names_are_well_formed_and_unique():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    assert "setup_s" in {entry["name"] for entry in SPEC["end_to_end"]}
    assert SPEC["paths"] == ["perf"]


def test_every_declared_metric_is_printed_with_its_unit(smoke):
    _, stdout, result = smoke
    assert result["workloads"], "smoke ran no workload"
    for name, row in result["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for entry in SPEC[section]:
                got = row[section][entry["name"]]
                assert got["unit"] == entry["unit"], (name, entry["name"])
                assert isinstance(got["value"], (int, float))
    printed = stdout.splitlines()
    for section in ("end_to_end", "per_layer"):
        for entry in SPEC[section]:
            pattern = re.compile(
                rf"^{re.escape(entry['name'])}\s+\S+\s+{re.escape(entry['unit'])}\s+n=\d+$"
            )
            assert any(pattern.match(line) for line in printed), entry["name"]


def test_smoke_answers_are_all_correct(smoke):
    _, _, result = smoke
    for name, row in result["workloads"].items():
        assert row["attempted"] >= 2, name
        assert row["error_rate"] == 0, (name, row["events"])
        for metric in ("query_s", "queries_per_s", "peak_rss_mb", "setup_s"):
            assert row["end_to_end"][metric]["value"] > 0, (name, metric)


def test_oracle_rejects_a_corrupted_result():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perf.oracle import digest_rows, sqlite_rows
    from repro.workloads.synthetic import chain_query

    query = chain_query(3, rows=40, selectivity=0.2, seed=3)
    rows = sqlite_rows(query)
    assert rows, "the oracle query should not be empty"
    expected = digest_rows(rows)
    assert digest_rows(list(reversed(rows))) == expected  # order-independent
    corrupted = [tuple(rows[0][:-1]) + (rows[0][-1] + 1,)] + rows[1:]
    assert digest_rows(corrupted) != expected
    assert digest_rows(rows[1:]) != expected
    assert digest_rows(rows + rows[:1]) != expected


def test_compare_of_a_run_with_itself_passes(smoke):
    out, _, _ = smoke
    done = subprocess.run(
        RUN + ["--compare", str(out), str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    assert "0 regression(s)" in done.stdout
