"""Documentation-consistency guards.

DESIGN.md maps paper pieces to modules and benchmarks; README.md lists
examples.  These tests keep those maps honest: every referenced file
must exist, and every example/benchmark must be documented.
"""

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestDesignReferences:
    def test_referenced_modules_exist(self):
        """Every `repro/...py` path in DESIGN.md points at a real file."""
        text = read("DESIGN.md")
        missing = []
        for match in re.finditer(r"`(repro/[\w/]+\.py)", text):
            path = ROOT / "src" / match.group(1)
            if not path.exists():
                missing.append(match.group(1))
        assert not missing, missing

    def test_referenced_benchmarks_exist(self):
        text = read("DESIGN.md")
        missing = []
        for match in re.finditer(r"`(benchmarks/test_[\w]+\.py)`", text):
            if not (ROOT / match.group(1)).exists():
                missing.append(match.group(1))
        assert not missing, missing

    def test_referenced_tests_exist(self):
        text = read("DESIGN.md")
        missing = []
        for match in re.finditer(r"`(tests/[\w/]+\.py)`", text):
            if not (ROOT / match.group(1)).exists():
                missing.append(match.group(1))
        assert not missing, missing

    def test_every_figure_benchmark_is_indexed(self):
        """Each benchmarks/test_fig*/table* file appears in DESIGN.md."""
        text = read("DESIGN.md")
        undocumented = []
        for path in sorted((ROOT / "benchmarks").glob("test_*.py")):
            if path.name not in text:
                undocumented.append(path.name)
        assert not undocumented, undocumented


class TestReadmeReferences:
    def test_example_table_matches_directory(self):
        text = read("README.md")
        on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
        documented = set(re.findall(r"`examples/([\w]+\.py)`", text))
        assert documented == on_disk

    def test_architecture_mentions_every_package(self):
        text = read("README.md")
        packages = {
            p.name
            for p in (ROOT / "src" / "repro").iterdir()
            if p.is_dir() and (p / "__init__.py").exists()
        }
        for package in packages:
            assert f"{package}/" in text, f"README architecture misses {package}/"

    @staticmethod
    def defined_knobs() -> set:
        """The ``REPRO_*`` names ``src/`` defines: quoted literals — the
        ``*_ENV`` constants of ``mapreduce/config.py`` and any module
        that names a variable itself."""
        defined = set()
        for path in (ROOT / "src").rglob("*.py"):
            defined.update(
                re.findall(r"""["'](REPRO_[A-Z0-9_]+)["']""", path.read_text("utf-8"))
            )
        return defined

    def test_every_repro_knob_is_documented(self):
        """The knobs ``src/`` defines are exactly the rows of README's
        knob table — a new knob cannot arrive undocumented, a deleted one
        cannot linger.  ``REPRO_QUICK`` is benchmarks-only."""
        documented = set(
            re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", read("README.md"), re.MULTILINE)
        )
        assert documented - {"REPRO_QUICK"} == self.defined_knobs()

    def test_knob_budget(self):
        """Every knob doubles the configurations tests and benchmarks
        must cover, so the count is a budget: a value only tests vary is
        a module constant beside the code it governs, not a knob.
        Raising the number is a one-line, reviewed edit."""
        assert len(self.defined_knobs()) <= 9

    def test_no_test_scaffolding_in_src(self):
        """A production daemon carries no test-only path: no process
        exit a peer can trigger, no option whose help says it is for
        tests.  Fault injection lives in ``tests/mapreduce/fault_worker.py``."""
        hits = [
            f"{path.relative_to(ROOT)}:{number}"
            for path in (ROOT / "src").rglob("*.py")
            for number, line in enumerate(path.read_text("utf-8").splitlines(), 1)
            if "os._exit(" in line or "TEST ONLY" in line
        ]
        assert hits == []

    def test_pickle_decode_budget(self):
        """Every line of ``src/`` that decodes pickle is a place where a
        byte from disk or a socket can run code, so the count is a
        budget that only goes down (``make loc`` prints it).  A
        ``class ...(pickle.Unpickler)`` line declares a decoder and is
        counted where it is constructed instead."""
        sites = [
            line
            for path in (ROOT / "src").rglob("*.py")
            for line in path.read_text("utf-8").splitlines()
            if re.search(r"pickle\.loads?\(|Unpickler\(", line)
            and not line.lstrip().startswith("class ")
        ]
        assert len(sites) <= 6

    def test_query_state_budget(self):
        """One query's state (settings, cancel token, in-task flag) lives
        in one ``QueryContext``: a second per-thread store would split it
        again (``make loc`` prints the count)."""
        stores = [
            line
            for path in (ROOT / "src").rglob("*.py")
            for line in path.read_text("utf-8").splitlines()
            if re.search(r"threading\.local\(|ContextVar\(", line)
        ]
        assert len(stores) <= 1

    #: The modules whose ``kind == "..."`` branches are every verb a peer
    #: can send a daemon (the Makefile's ``VERB_FILES``).
    VERB_FILES = (
        "src/repro/mapreduce/wire.py",
        "src/repro/mapreduce/worker.py",
        "src/repro/serve/coordinator.py",
    )

    def test_peer_verb_budget(self):
        """Every verb a peer can send a daemon is a way into it, so the
        count is a budget that only goes down (``make loc`` prints it)."""
        verbs = {
            verb
            for name in self.VERB_FILES
            for verb in re.findall(r'kind == "([a-z-]+)"', read(name))
        }
        assert len(verbs) <= 12

    def test_coordinator_verb_table_matches_its_handler(self):
        """The coordinator's docstring table names exactly the verbs
        ``QueryService.handle`` answers, plus the ``hello`` handshake the
        shared frame server answers."""
        import inspect

        from repro.serve import coordinator

        table = set(re.findall(r'^  ``\("([a-z-]+)"', coordinator.__doc__, re.MULTILINE))
        handled = set(
            re.findall(r'kind == "([a-z-]+)"', inspect.getsource(coordinator.QueryService.handle))
        )
        assert table == handled | {"hello"}


class TestExperimentsReferences:
    def test_result_files_come_from_real_benchmarks(self):
        """Every results file named in EXPERIMENTS.md is produced by some
        benchmark (its stem appears in a benchmark source)."""
        text = read("EXPERIMENTS.md")
        sources = "".join(
            p.read_text(encoding="utf-8")
            for p in (ROOT / "benchmarks").glob("*.py")
        )
        for name in set(re.findall(r"`(\w+\.txt)`", text)):
            assert name in sources, f"{name} not emitted by any benchmark"

    def test_every_paper_figure_covered(self):
        """Figures 1, 4-13 and Tables 1-3 all appear in EXPERIMENTS.md."""
        text = read("EXPERIMENTS.md")
        for figure in [1, 5, 6, 7, 8, 9, 10, 11, 12, 13]:
            assert re.search(rf"Fig(?:ure|\.) {figure}[ab]?\b", text), figure
        for table in [1, 2, 3]:
            assert re.search(rf"Table {table}\b", text), table
