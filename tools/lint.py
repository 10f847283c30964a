#!/usr/bin/env python3
"""Stdlib fallback for ``make lint`` where ruff is not installed.

    python3 tools/lint.py [PATH ...]      # default: the whole checkout

Three of the pyflakes checks the ruff configuration in ``pyproject.toml``
enforces: the two that dead code shows up as, and the one a moved or
trimmed import shows up as:

* **unused import** (F401) — a name bound by ``import`` / ``from ... import``
  that the module never reads and does not list in ``__all__``;
* **unused local** (F841) — a plain ``name = ...`` assignment (or ``except
  ... as name``) inside a function that nothing in that function reads;
* **undefined name in an annotation** (F821) — a name an annotation
  reads (string annotations included) that nothing in the module binds
  and that is not a builtin.  With ``from __future__ import annotations``
  such a name never fails at run time, so only a linter sees it.

A ``# noqa`` comment on the line silences it, as it does for ruff.  Exit
status 1 when anything is reported.
"""

from __future__ import annotations

import ast
import builtins
import re
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SKIP_DIRS = {".git", "__pycache__", ".hypothesis", ".pytest_cache", "out"}
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

Finding = Tuple[int, str]


def loaded_names(tree: ast.AST) -> Set[str]:
    """Every name the code reads, string annotations included."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)  # ``x += 1`` reads x
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if len(node.value) < 200 and "\n" not in node.value:
                names.update(IDENTIFIER.findall(node.value))  # "Forward" refs
    return names


def exported_names(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                return {
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                }
    return set()


def unused_imports(tree: ast.Module) -> Iterator[Finding]:
    used = loaded_names(tree) | exported_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                yield node.lineno, f"F401 `{alias.name}` imported but unused"


def unused_locals(tree: ast.Module) -> Iterator[Finding]:
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = loaded_names(function)
        declared: Set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        if "locals" in read:
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target = node.target
            elif isinstance(node, ast.ExceptHandler) and node.name:
                target = ast.Name(id=node.name)
            else:
                continue
            if (
                isinstance(target, ast.Name)
                and target.id not in read
                and target.id not in declared
                and not target.id.startswith("_")
            ):
                yield node.lineno, f"F841 local `{target.id}` is assigned but never used"


def bound_names(tree: ast.Module) -> Set[str]:
    """Every name the module binds, at any scope."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
    return names


def annotation_names(annotation: ast.AST) -> Iterator[str]:
    """The names an annotation reads; a string annotation is parsed."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield from annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass


def undefined_annotation_names(tree: ast.Module) -> Iterator[Finding]:
    known = bound_names(tree) | set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for name in annotation_names(annotation) if annotation else ():
            if name not in known:
                yield annotation.lineno, f"F821 undefined name `{name}` in annotation"


def check(path: Path) -> List[Finding]:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    findings = (
        set(unused_imports(tree))
        | set(unused_locals(tree))
        | set(undefined_annotation_names(tree))
    )
    return sorted(
        (lineno, text) for lineno, text in findings if "# noqa" not in lines[lineno - 1]
    )


def python_files(roots: List[Path]) -> Iterator[Path]:
    for root in roots:
        if root.is_file():
            yield root
            continue
        for path in sorted(root.rglob("*.py")):
            if not SKIP_DIRS.intersection(path.relative_to(root).parts):
                yield path


def main(argv: List[str]) -> int:
    roots = [Path(arg) for arg in argv] or [REPO]
    count = 0
    for path in python_files(roots):
        for lineno, text in check(path):
            print(f"{path}:{lineno}: {text}")
            count += 1
    print(f"tools/lint.py: {count} finding(s)" if count else "tools/lint.py: clean")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
