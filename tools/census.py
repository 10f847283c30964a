#!/usr/bin/env python3
"""Dead-code census of ``src/``: which statements and functions does nothing run?

    python3 tools/census.py            # = make census  (several minutes)
    python3 tools/census.py --report DIR   # re-read an earlier run's hit logs

Stdlib only.  The driver writes a ``sitecustomize.py`` into a temporary
directory and puts it on ``PYTHONPATH``, so *every* interpreter the
workload starts — pytest, the spawned ``repro serve`` / ``repro worker
serve`` daemons, forked pool workers, CLI subprocesses, ``perf/`` children
— installs the same ``sys.settrace`` hook.  The hook follows only frames
whose code lives under ``src/`` and appends each (file, line) and each
function entry to a per-process log the first time it sees it (one
unbuffered ``O_APPEND`` write, so a daemon killed with SIGKILL loses
nothing).  The workload is tier-1 (``--benchmark-disable``:
pytest-benchmark removes tracers inside ``benchmark(...)``, so benchmark
bodies are counted through their one plain call instead),
``perf/run.py --smoke`` and the examples.

The report joins the logs with the AST of ``src/``: executed statements
over all statements, every function that was never entered (minus the
explicit ``ALLOWED`` list below), and every module- or class-level
definition whose name appears nowhere else in ``src/`` (a static reading;
``__init__.py`` re-exports do not count as a use).  Exit status 1 when a
never-called function is not on the allowlist.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Never-called functions that are product surface all the same: debugging
#: ``__repr__``s, and the ``FrameServer`` hooks a daemon may override but
#: whose defaults only run for a daemon that does not.
ALLOWED = {
    "__repr__",
    "FrameServer.handle",
    "FrameServer.oversized_reply",
}

HOOK = """\
import os, sys
sys.path.insert(0, {tools!r})
import census
census.install(os.environ["CENSUS_DIR"], {src!r})
"""


# ----------------------------------------------------------------------
# the hook (runs inside every traced interpreter)
# ----------------------------------------------------------------------


def install(out_dir: str, src_root: str) -> None:
    fd = os.open(
        os.path.join(out_dir, f"{os.getpid()}.log"),
        os.O_WRONLY | os.O_APPEND | os.O_CREAT,
        0o644,
    )
    seen: Set[Tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            key = (frame.f_code.co_filename, frame.f_lineno)
            if key not in seen:
                seen.add(key)
                os.write(fd, f"L {key[0]}:{key[1]}\n".encode())
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        filename = code.co_filename
        if not filename.startswith(src_root):
            return None
        key = (filename, -code.co_firstlineno)
        if key not in seen:
            seen.add(key)
            os.write(fd, f"C {filename}:{code.co_firstlineno}\n".encode())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------


def run_workload(out_dir: Path) -> None:
    hook_dir = out_dir / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(tools=str(REPO / "tools"), src=str(SRC))
    )
    env = dict(os.environ)
    env["CENSUS_DIR"] = str(out_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    # The CLI's plan cache must not write outside the run's own directory.
    env["REPRO_CACHE_DIR"] = str(out_dir / "cache")
    commands = [
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable"],
        [sys.executable, "perf/run.py", "--smoke"],
    ] + [
        [sys.executable, str(example)]
        for example in sorted((REPO / "examples").glob("*.py"))
    ]
    for command in commands:
        print("census:", " ".join(command[1:]), flush=True)
        status = subprocess.run(command, cwd=REPO, env=env).returncode
        if status:
            # Timing-sensitive tests may fail under a tracer; the lines they
            # ran are counted all the same.
            print(f"census: exit status {status} (hits kept)", flush=True)


def read_hits(out_dir: Path) -> Tuple[Set[Tuple[str, int]], Set[Tuple[str, int]]]:
    lines: Set[Tuple[str, int]] = set()
    calls: Set[Tuple[str, int]] = set()
    for log in out_dir.glob("*.log"):
        for record in log.read_text().splitlines():
            kind, _, where = record.partition(" ")
            filename, _, number = where.rpartition(":")
            if not number.isdigit():
                continue  # a record torn by SIGKILL
            target = lines if kind == "L" else calls
            target.add((os.path.realpath(filename), int(number)))
    return lines, calls


def is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def functions_of(tree: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """Every ``def`` in the module as (qualified name, node)."""

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
                yield from walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    return walk(tree, "")


def definitions_of(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """Module- and class-level names a caller could refer to."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node.lineno
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member.name, member.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def uses_in_package_init(source: str) -> str:
    """An ``__init__.py`` minus its re-exports (imports and ``__all__``)."""
    kept = []
    for node in ast.parse(source).body:
        reexport = isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        )
        if not reexport and not is_docstring(node):
            kept.append(ast.get_source_segment(source, node) or "")
    return "\n".join(kept)


def report(out_dir: Path) -> int:
    lines, calls = read_hits(out_dir)
    files = sorted(SRC.rglob("*.py"))
    sources = {path: path.read_text() for path in files}
    words: Dict[str, int] = {}
    for path, text in sources.items():
        if path.name == "__init__.py":
            text = uses_in_package_init(text)
        for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text):
            words[word] = words.get(word, 0) + 1

    statements = executed = functions = 0
    never: List[Tuple[str, int, str, int]] = []
    unreferenced: List[Tuple[str, int, str]] = []
    for path in files:
        tree = ast.parse(sources[path])
        real = os.path.realpath(path)
        relative = str(path.relative_to(REPO))
        for node in ast.walk(tree):
            if isinstance(node, ast.stmt) and not is_docstring(node):
                statements += 1
                executed += (real, node.lineno) in lines
        for name, node in functions_of(tree):
            functions += 1
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            if (real, first) not in calls and (real, node.lineno) not in calls:
                never.append(
                    (relative, node.lineno, name, node.end_lineno - node.lineno + 1)
                )
        if path.name != "__init__.py":
            for name, lineno in definitions_of(tree):
                if not name.startswith("__") and words.get(name, 0) <= 1:
                    unreferenced.append((relative, lineno, name))

    blocking = [
        entry for entry in never
        if entry[2] not in ALLOWED and entry[2].rpartition(".")[2] not in ALLOWED
    ]
    share = 100.0 * executed / statements if statements else 0.0
    print(f"\ncensus of src/: {executed} of {statements} statements executed "
          f"({share:.1f} %)")
    print(f"{len(never)} of {functions} functions never called "
          f"({sum(entry[3] for entry in never)} lines), "
          f"{len(never) - len(blocking)} of them on the allowlist")
    for relative, lineno, name, length in never:
        mark = " " if (relative, lineno, name, length) in blocking else "*"
        print(f"  {mark} {relative}:{lineno}  {name}  ({length} lines)")
    print(f"{len(unreferenced)} definitions with no other mention in src/ "
          "(static; tests, examples and perf/ may still use them)")
    for relative, lineno, name in unreferenced:
        print(f"    {relative}:{lineno}  {name}")
    return 1 if blocking else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", metavar="DIR",
                        help="only re-read the hit logs of an earlier run")
    parser.add_argument("--keep", metavar="DIR",
                        help="write the hit logs here instead of a temp dir")
    args = parser.parse_args()
    if args.report:
        return report(Path(args.report))
    if args.keep:
        out_dir = Path(args.keep)
        out_dir.mkdir(parents=True, exist_ok=True)
        run_workload(out_dir)
        return report(out_dir)
    with tempfile.TemporaryDirectory(prefix="repro-census-") as scratch:
        run_workload(Path(scratch))
        return report(Path(scratch))


if __name__ == "__main__":
    sys.exit(main())
