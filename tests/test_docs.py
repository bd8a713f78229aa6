"""Tier-1 wrapper around the documentation checks in ``tools/check_docs.py``.

Keeps the docs honest from inside the normal test suite: the public API of
``summary.py`` and the sharding package must stay fully docstring'd, the
README's quickstart snippets must execute as written, every document a
Python file cites by name must exist, and so must every repository path the
Markdown docs cite in a code span.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()


class TestDocstrings:
    def test_public_api_is_fully_documented(self):
        problems = check_docs.find_missing_docstrings()
        assert problems == []


class TestReadmeSnippets:
    def test_readme_exists_with_python_snippets(self):
        assert (REPO_ROOT / "README.md").is_file()
        assert check_docs.extract_python_snippets()

    def test_architecture_doc_exists(self):
        assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").is_file()

    def test_readme_snippets_execute(self):
        assert check_docs.run_readme_snippets() == []


def _doc(stem: str) -> str:
    # Fixture names are assembled so this file itself cites no document.
    return stem + ".md"


class TestDocReferences:
    def test_every_cited_doc_exists(self):
        assert check_docs.find_dangling_doc_references() == []

    def test_dangling_reference_is_reported(self, tmp_path):
        at_root, in_docs, missing = (_doc("ROOTDOC"), _doc("GUIDE"),
                                     _doc("NOWHERE"))
        (tmp_path / at_root).write_text("", encoding="utf-8")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / in_docs).write_text("", encoding="utf-8")
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text(
            f'"""See {at_root} and docs/{in_docs}."""\n'
            f"# {missing} is gone; {_doc('lowercase')} is not checked\n",
            encoding="utf-8")
        assert check_docs.find_dangling_doc_references(tmp_path) == [
            f"src/mod.py:2: {missing} does not exist"]


class TestPathReferences:
    def test_every_cited_path_exists(self):
        assert check_docs.find_dangling_path_references() == []

    def test_dangling_path_is_reported(self, tmp_path):
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "kept.py").write_text("", encoding="utf-8")
        (tmp_path / "docs").mkdir()
        skill = tmp_path / ".claude" / "skills" / "verify"
        skill.mkdir(parents=True)
        (tmp_path / "notes").mkdir()
        (tmp_path / _doc("README")).write_text(
            "`src/pkg/kept.py`, `src/pkg/`, `src/pkg/kept.py --fast` and\n"
            "`tests/test_gone.py::test_case` (deleted)\n", encoding="utf-8")
        (tmp_path / "docs" / _doc("GUIDE")).write_text(
            "### Transport — `src/pkg/gone.py`\n", encoding="utf-8")
        (skill / _doc("SKILL")).write_text(
            "Run `tools/gone.py`; src/pkg/bare.py is not in a code span.\n",
            encoding="utf-8")
        (tmp_path / "notes" / _doc("NOTES")).write_text(
            "`src/pkg/unscanned.py`\n", encoding="utf-8")
        assert check_docs.find_dangling_path_references(tmp_path) == [
            f"{_doc('README')}:2: tests/test_gone.py does not exist",
            f"docs/{_doc('GUIDE')}:1: src/pkg/gone.py does not exist",
            f".claude/skills/verify/{_doc('SKILL')}:1: tools/gone.py does "
            "not exist"]
