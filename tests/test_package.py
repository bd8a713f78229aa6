"""Package-level tests: public exports, error hierarchy, example smoke run."""

from __future__ import annotations

import importlib
import runpy
import sys
from pathlib import Path

import pytest

import repro
from repro import errors


class TestPublicApi:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_top_level_exports(self):
        for name in ("Higgs", "HiggsConfig", "TemporalGraphSummary",
                     "GraphStream", "StreamEdge"):
            assert hasattr(repro, name)
            assert name in repro.__all__

    @pytest.mark.parametrize("module", [
        "repro.core", "repro.baselines", "repro.streams", "repro.queries",
        "repro.metrics", "repro.bench", "repro.bench.experiments",
        "repro.sharding", "repro.serving", "repro.observability",
    ])
    def test_subpackages_importable(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__, f"{module} is missing a module docstring"

    def test_all_exports_resolve(self):
        for module_name in ("repro", "repro.core", "repro.baselines",
                            "repro.streams", "repro.queries", "repro.metrics",
                            "repro.bench", "repro.sharding", "repro.serving",
                            "repro.observability"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.{name} missing"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in ("ConfigurationError", "InsertionError", "QueryError",
                     "DatasetError", "BenchmarkError"):
            error_type = getattr(errors, name)
            assert issubclass(error_type, errors.ReproError)
            assert issubclass(error_type, Exception)


class TestExamples:
    def test_quickstart_example_runs(self, capsys):
        examples_dir = Path(__file__).resolve().parent.parent / "examples"
        sys.path.insert(0, str(examples_dir))
        try:
            runpy.run_path(str(examples_dir / "quickstart.py"), run_name="__main__")
        finally:
            sys.path.remove(str(examples_dir))
        output = capsys.readouterr().out
        assert "edge   v2->v3 over [t5, t10]   = 3.0" in output
        assert "vertex v4 outgoing over [t1, t11] = 6.0" in output

    def test_example_scripts_exist_and_are_documented(self):
        examples_dir = Path(__file__).resolve().parent.parent / "examples"
        scripts = sorted(examples_dir.glob("*.py"))
        assert len(scripts) >= 3
        for script in scripts:
            text = script.read_text(encoding="utf-8")
            assert '"""' in text.split("\n", 3)[1] + text, script
            assert "def main()" in text, script
