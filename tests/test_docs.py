"""Tier-1 wrapper around the documentation checks in ``tools/check_docs.py``.

Keeps the docs honest from inside the normal test suite: the public API of
``summary.py`` and the sharding package must stay fully docstring'd, the
README's quickstart snippets must execute as written, and every document a
Python file cites by name must exist.
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
