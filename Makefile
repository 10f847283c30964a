# Convenience targets for the reproduction repo.
#
#   make verify   - tier-1 test suite (ROADMAP.md's gate)
#   make smoke    - REPRO_QUICK=1 answer-agreement + batch-vs-oracle smoke:
#                   all four planners must produce identical answers, and
#                   every join job's batched map AND reduce phase must
#                   match the scalar oracle (tests/joins/scalar_oracle.py)
#                   bit for bit, on a trimmed volume grid (fast enough
#                   for CI)
#   make lint     - ruff check (config in pyproject.toml); skipped with a
#                   notice when ruff is not installed locally — CI always
#                   installs and enforces it
#   make serve-smoke - boot a real `repro serve` daemon + 2 worker daemons
#                   and drive 3 concurrent queries over the wire: one
#                   checked against a serial reference, one cancelled,
#                   one past its deadline (structured taxonomy errors);
#                   plus the two-client fairness drill (vip priority
#                   beats a bulk flood under quotas) and a paginated
#                   large-result fetch checked page-by-page
#   make serve-recovery - the durability drill: SIGKILL a journaled
#                   coordinator mid-query, restart it with --recover,
#                   and check the resumed query replays its checkpointed
#                   waves and lands bit-identical rows
#   make perf-smoke - the repo's benchmark (perf/run.py, BENCHMARK.json) at
#                   tiny sizes: all five workloads, every metric printed,
#                   every answer checked against sqlite (~10 s)
#   make perf-pair BASE=<rev> WORKLOAD=<name> [PAIRS=10] - the before/after
#                   procedure of a PR that claims a gain: clone BASE into a
#                   temp dir and run the benchmark's contract command on it
#                   and on this tree in alternating order, fresh seed per
#                   pair; prints per-metric median, quartiles and wins
#                   (benchmarks/perf_pair.py)
#   make ci       - the full local equivalent of the CI gate:
#                   lint + verify + smoke + serve-smoke + serve-recovery
#                   + perf-smoke
#   make loc      - the size numbers a simplicity PR quotes: lines of
#                   src/**/*.py and distinct quoted REPRO_* knob names

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
PYTEST := PYTHONPATH=$(PYTHONPATH) python -m pytest

.PHONY: verify smoke lint serve-smoke serve-recovery perf-smoke perf-pair ci loc

verify:
	$(PYTEST) -x -q

smoke:
	REPRO_QUICK=1 $(PYTEST) -q \
		tests/test_integration.py::TestBenchmarkQuerySmoke \
		tests/joins/test_batch_equivalence.py

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "ruff not installed; skipping lint (CI installs and enforces it)"; \
	fi

serve-smoke:
	$(PYTEST) -q tests/serve/test_smoke_subprocess.py

serve-recovery:
	$(PYTEST) -q tests/serve/test_recovery_subprocess.py

perf-smoke:
	python3 perf/run.py --smoke

PAIRS ?= 10

perf-pair:
	python3 benchmarks/perf_pair.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

ci: lint verify smoke serve-smoke serve-recovery perf-smoke

loc:
	@find src -name '*.py' | xargs wc -l | tail -1
	@echo "$$(grep -rhoE "[\"']REPRO_[A-Z0-9_]+[\"']" src | sort -u | wc -l) REPRO_* knobs"
