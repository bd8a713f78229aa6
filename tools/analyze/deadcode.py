"""DEAD001 — package definitions that nothing outside ``tests/`` names.

Each ``def`` and ``class`` of the package, at module level or in a class
body (dunder names skipped), counts as used when its name occurs outside
its own body in a ``.py`` file under one of the scanned roots: the package
itself and the repository's ``src/``, ``benchmarks/``, ``perfbench/``,
``tools/`` and ``examples/`` directories.  An occurrence is a ``Name``, an
``Attribute`` or a string constant equal to the name; the string form
covers worker ops, which dispatch by method name.  Import aliases,
``__all__`` entries, docstrings and comments are not uses, so a definition
that is only re-exported, or only calls itself, is still reported.

The probe matches bare names, which leaves two blind spots: a definition
counts as used when unrelated code uses the same name, and a lookup through
``getattr`` with a computed name is invisible.  The roots are parsed on
every run; nothing here is cached with the call graph, whose cache key
covers the package only.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Set, Tuple

from .rules import Finding

RULE = "DEAD001"

#: Repository directories whose names count as uses (besides the package).
USE_DIRS = ("src", "benchmarks", "perfbench", "tools", "examples")

_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _span(node: ast.AST) -> Tuple[int, int]:
    """First line (decorators included) and last line of a definition."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno or node.lineno


def _definitions(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """Module-level and class-body definitions with their symbols
    (``Class.method`` or ``function``); nested classes recurse."""
    def walk(body, owner):
        for node in body:
            if not isinstance(node, _DEFINITION):
                continue
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node, f"{owner}.{node.name}" if owner else node.name
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, node.name)
    yield from walk(tree.body, None)


def _non_uses(tree: ast.Module) -> Set[int]:
    """Ids of string constants that are docstrings or ``__all__`` entries."""
    skipped: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITION)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skipped.add(id(first.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets) and node.value is not None:
                skipped.update(id(n) for n in ast.walk(node.value))
    return skipped


def _uses(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """Every name occurrence in ``tree`` that counts as a use."""
    skipped = _non_uses(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skipped):
            yield node.value, node.lineno


def _parse(path: Path) -> ast.Module:
    try:
        return ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError:
        return ast.Module(body=[], type_ignores=[])


def _python_files(roots: Iterable[Path]) -> Set[Path]:
    files: Set[Path] = set()
    for root in roots:
        if root.is_dir():
            files.update(p.resolve() for p in root.rglob("*.py")
                         if not any(part.startswith(".") for part in p.parts))
    return files


def find_dead_definitions(package_root: Path, use_roots: Iterable[Path],
                          relative: Callable[[Path], str] = Path.as_posix
                          ) -> List[Finding]:
    """DEAD001 findings for ``package_root``, counting the names used in the
    package and under ``use_roots``; ``relative`` maps a file to the path a
    finding reports (and the baseline matches)."""
    package_files = _python_files([package_root])
    trees = {path: _parse(path)
             for path in sorted(package_files | _python_files(use_roots))}
    sites: Dict[str, List[Tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _uses(tree):
            sites.setdefault(name, []).append((path, line))

    owned: Dict[Tuple[Path, str], List[ast.AST]] = {}
    for path in sorted(package_files):
        for node, symbol in _definitions(trees[path]):
            owned.setdefault((path, symbol), []).append(node)

    findings: List[Finding] = []
    for (path, symbol), nodes in owned.items():
        spans = [_span(node) for node in nodes]
        name = nodes[0].name
        if not any(site_path != path
                   or not any(lo <= line <= hi for lo, hi in spans)
                   for site_path, line in sites.get(name, ())):
            findings.append(Finding(
                RULE, relative(path), nodes[0].lineno, symbol,
                f"nothing outside tests/ names {name!r}: delete it, or "
                f"baseline it with the reason it stays"))
    return findings
