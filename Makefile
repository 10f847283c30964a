# Convenience targets for the reproduction repo.
#
#   make verify   - tier-1 test suite (ROADMAP.md's gate)
#   make smoke    - REPRO_QUICK=1 answer-agreement + batch-vs-oracle smoke:
#                   all four planners must produce identical answers, and
#                   every join job's batched map AND reduce phase must
#                   match the scalar oracle (tests/joins/scalar_oracle.py)
#                   bit for bit, on a trimmed volume grid (fast enough
#                   for CI), and so must the shares job, which no planner
#                   builds; merge and projection must match their per-row
#                   oracles (tests/joins/tail_oracle.py)
#   make lint     - ruff check (config in pyproject.toml); where ruff is
#                   not installed, tools/lint.py — a stdlib AST check for
#                   unused imports and unused locals, the two ruff rules
#                   dead code shows up as
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
#   make perf-pair BASE=<rev> WORKLOAD=<name>|all [PAIRS=10] - the
#                   before/after procedure of a PR that claims a gain:
#                   clone BASE into a temp dir and run the benchmark's
#                   contract command on it and on this tree in alternating
#                   order, fresh seed per pair; prints per workload and
#                   metric median, quartiles, wins and the guide's verdict
#                   (gain / within-bound / unresolved / REGRESSION);
#                   WORKLOAD=all runs all five per pair, which is what the
#                   pipeline judges (benchmarks/perf_pair.py)
#   make ci       - the full local equivalent of the CI gate:
#                   lint + verify + smoke + results-clean + serve-smoke
#                   + serve-recovery + perf-smoke; results-clean is `git
#                   diff --exit-code benchmarks/results`: the paper
#                   artefacts tier-1 rewrites must come out byte-identical
#   make loc      - the size numbers a simplicity PR quotes: lines of
#                   src/**/*.py, distinct quoted REPRO_* knob names,
#                   pickle decode sites, per-query state stores and the
#                   distinct verbs a peer can send either daemon
#   make census   - dead-code census (tools/census.py, stdlib only, ~15
#                   min): tier-1 + perf-smoke + the examples under a
#                   sys.settrace hook that every spawned daemon, pool
#                   worker and CLI subprocess installs too; prints executed
#                   / total statements of src/, every never-called function
#                   and every definition nothing else in src/ mentions;
#                   fails on a never-called function outside its allowlist.
#                   One caveat: pytest-benchmark removes tracers inside
#                   benchmark(...), so the census passes --benchmark-disable
#                   and benchmarks/ bodies count through their one plain call

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
PYTEST := PYTHONPATH=$(PYTHONPATH) python -m pytest
#: The modules whose ``kind == "..."`` branches are every verb a peer can
#: send a daemon (tests/test_docs.py holds the same list).
VERB_FILES := src/repro/mapreduce/wire.py src/repro/mapreduce/worker.py src/repro/serve/coordinator.py

.PHONY: verify smoke lint results-clean serve-smoke serve-recovery perf-smoke perf-pair ci loc census

verify:
	$(PYTEST) -x -q

smoke:
	REPRO_QUICK=1 $(PYTEST) -q \
		tests/test_integration.py::TestBenchmarkQuerySmoke \
		tests/joins/test_batch_equivalence.py \
		tests/joins/test_compiled_tail.py \
		tests/joins/test_shares.py::TestSharesJoin::test_reduce_side_matches_scalar_oracle

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		python3 tools/lint.py; \
	fi

results-clean:
	git diff --exit-code benchmarks/results

serve-smoke:
	$(PYTEST) -q tests/serve/test_smoke_subprocess.py

serve-recovery:
	$(PYTEST) -q tests/serve/test_recovery_subprocess.py

perf-smoke:
	python3 perf/run.py --smoke

PAIRS ?= 10

perf-pair:
	python3 benchmarks/perf_pair.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

ci: lint verify smoke results-clean serve-smoke serve-recovery perf-smoke

loc:
	@find src -name '*.py' | xargs wc -l | tail -1
	@echo "$$(grep -rhoE "[\"']REPRO_[A-Z0-9_]+[\"']" src | sort -u | wc -l) REPRO_* knobs"
	@echo "$$(grep -rhE 'pickle\.loads?\(|Unpickler\(' src | grep -vcE '^\s*class ') pickle decode sites"
	@echo "$$(grep -rhE 'threading\.local\(|ContextVar\(' src | wc -l) per-query state stores"
	@echo "$$(grep -ohE 'kind == "[a-z-]+"' $(VERB_FILES) | sort -u | wc -l) peer-reachable verbs"

census:
	python3 tools/census.py
