#!/usr/bin/env python
"""Documentation checks: docstrings, README snippets and doc references.

Four checks, all dependency-free so they run identically in CI and locally:

* :func:`find_missing_docstrings` walks the AST of the public-interface
  modules (``src/repro/summary.py`` and everything under
  ``src/repro/sharding/`` and ``src/repro/serving/``) and reports every
  module, public class, and public function/method without a docstring.
* :func:`run_readme_snippets` extracts every fenced ``python`` code block
  from ``README.md`` and executes it in a fresh namespace (with ``src`` on
  ``sys.path``), so the quickstart the README promises actually runs as-is.
* :func:`find_dangling_doc_references` scans every ``.py`` file under
  ``src/``, ``benchmarks/``, ``tools/``, ``tests/`` and ``examples/`` for
  uppercase document names such as ``README.md`` and reports each one that
  exists neither at the repository root nor in ``docs/``.
* :func:`find_dangling_path_references` scans ``README.md``, ``docs/*.md``
  and the skill notes under ``.claude/skills/`` for backticked paths
  anchored at a top-level directory, such as ``src/repro/summary.py``, and
  reports each one that names nothing in the repository.

Run from the repository root::

    python tools/check_docs.py

Exit status is non-zero when any check fails.  The tier-1 test
``tests/test_docs.py`` wraps the same functions, so a docs regression fails
the normal test suite too.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Files and directories whose public API must be fully documented.
DOCUMENTED_PATHS = (
    REPO_ROOT / "src" / "repro" / "summary.py",
    REPO_ROOT / "src" / "repro" / "sharding",
    REPO_ROOT / "src" / "repro" / "serving",
    REPO_ROOT / "src" / "repro" / "observability",
)

#: Directories whose Python files are scanned for cited document names.
REFERENCING_DIRS = ("src", "benchmarks", "tools", "tests", "examples")

#: An uppercase document name such as ``README.md``.
_DOC_REFERENCE = re.compile(r"\b[A-Z][A-Z0-9_]*\.md\b")

#: Markdown files whose backticked repository paths must exist.
PATH_CITING_DOCS = ("README.md", "docs/*.md", ".claude/skills/*/*.md")

#: The leading path of a code span anchored at a top-level directory, up to
#: whitespace or a ``::`` / ``:line`` suffix.
_PATH_REFERENCE = re.compile(
    r"`((?:src|tests|tools|benchmarks|perfbench|examples|docs)/[^`\s:]*)")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def find_missing_docstrings(paths=DOCUMENTED_PATHS) -> List[str]:
    """Return ``"file:line: description"`` entries for undocumented API.

    Checks module docstrings, public class docstrings, and docstrings of
    public functions and methods (names not starting with ``_``; ``__init__``
    is exempt because constructor parameters are documented in the class
    docstring, following the package's NumPy-style convention).
    """
    problems: List[str] = []
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    for file in files:
        rel = file.relative_to(REPO_ROOT)
        tree = ast.parse(file.read_text(encoding="utf-8"))
        if ast.get_docstring(tree) is None:
            problems.append(f"{rel}:1: module has no docstring")
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_public(node.name):
                if ast.get_docstring(node) is None:
                    problems.append(
                        f"{rel}:{node.lineno}: class {node.name} has no docstring")
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and _is_public(item.name)
                            and ast.get_docstring(item) is None):
                        problems.append(
                            f"{rel}:{item.lineno}: method "
                            f"{node.name}.{item.name} has no docstring")
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _is_public(node.name)
                    and ast.get_docstring(node) is None):
                problems.append(
                    f"{rel}:{node.lineno}: function {node.name} has no docstring")
    return problems


def extract_python_snippets(readme: Path = REPO_ROOT / "README.md"
                            ) -> List[Tuple[int, str]]:
    """Return ``(line_number, code)`` for every fenced python block."""
    text = readme.read_text(encoding="utf-8")
    snippets: List[Tuple[int, str]] = []
    for match in re.finditer(r"```python\n(.*?)```", text, flags=re.DOTALL):
        line = text[:match.start()].count("\n") + 2
        snippets.append((line, match.group(1)))
    return snippets


def run_readme_snippets(readme: Path = REPO_ROOT / "README.md") -> List[str]:
    """Execute every README python snippet; return failure descriptions."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    # Snippets may also demo the in-repo tooling (``tools.analyze``).
    root = str(REPO_ROOT)
    if root not in sys.path:
        sys.path.insert(1, root)
    failures: List[str] = []
    snippets = extract_python_snippets(readme)
    if not snippets:
        return [f"{readme.name}: no fenced python snippets found"]
    for line, code in snippets:
        try:
            exec(compile(code, f"{readme.name}:{line}", "exec"), {})
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            failures.append(f"{readme.name}:{line}: snippet failed: "
                            f"{type(exc).__name__}: {exc}")
    return failures


def find_dangling_doc_references(root: Path = REPO_ROOT) -> List[str]:
    """Return ``"file:line: <name> does not exist"`` for every cited
    uppercase document that is neither at ``root`` nor in ``root/docs``."""
    problems: List[str] = []
    for directory in REFERENCING_DIRS:
        for file in sorted((root / directory).rglob("*.py")):
            lines = file.read_text(encoding="utf-8").splitlines()
            for number, line in enumerate(lines, start=1):
                for name in _DOC_REFERENCE.findall(line):
                    if not ((root / name).is_file()
                            or (root / "docs" / name).is_file()):
                        problems.append(f"{file.relative_to(root)}:{number}: "
                                        f"{name} does not exist")
    return problems


def find_dangling_path_references(root: Path = REPO_ROOT) -> List[str]:
    """Return ``"file:line: <path> does not exist"`` for every backticked
    root-anchored path in the Markdown docs that names nothing in ``root``."""
    problems: List[str] = []
    for pattern in PATH_CITING_DOCS:
        for file in sorted(root.glob(pattern)):
            lines = file.read_text(encoding="utf-8").splitlines()
            for number, line in enumerate(lines, start=1):
                for path in _PATH_REFERENCE.findall(line):
                    if not (root / path).exists():
                        problems.append(f"{file.relative_to(root)}:{number}: "
                                        f"{path} does not exist")
    return problems


def main() -> int:
    """Run every check and report; returns a process exit code."""
    problems = find_missing_docstrings()
    for problem in problems:
        print(f"docstring: {problem}")
    failures = run_readme_snippets()
    for failure in failures:
        print(f"snippet: {failure}")
    dangling = find_dangling_doc_references()
    for reference in dangling:
        print(f"reference: {reference}")
    paths = find_dangling_path_references()
    for reference in paths:
        print(f"path: {reference}")
    if problems or failures or dangling or paths:
        print(f"FAILED: {len(problems)} docstring problem(s), "
              f"{len(failures)} snippet failure(s), "
              f"{len(dangling)} dangling doc reference(s), "
              f"{len(paths)} dangling path reference(s)")
        return 1
    print("docs checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
