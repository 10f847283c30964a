"""The repository's benchmark: workloads, span recorder, sqlite oracle, runner.

Everything here measures the program **from outside** — it calls public
functions, classes and CLI daemons under ``src/`` and never edits them.
See ``perf/README.md``.
"""
