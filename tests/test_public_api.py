"""Tests that the documented public API surface is importable and coherent."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import repro


class TestPublicApi:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_version_matches_pyproject(self):
        """``repro.__version__`` and ``pyproject.toml`` name one release."""
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = pyproject.read_text(encoding="utf-8").split("[project]", 1)[1]
        match = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
        assert match is not None, "no version in pyproject.toml [project]"
        assert repro.__version__ == match.group(1)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core",
            "repro.core.atc",
            "repro.core.backend",
            "repro.core.bytesort",
            "repro.core.container",
            "repro.core.histograms",
            "repro.core.intervals",
            "repro.core.inspect",
            "repro.core.lossless",
            "repro.core.lossy",
            "repro.traces",
            "repro.traces.trace",
            "repro.traces.synthetic",
            "repro.traces.spec_like",
            "repro.traces.filter",
            "repro.traces.records",
            "repro.traces.multicore",
            "repro.cache",
            "repro.cache.cache",
            "repro.cache.stackdist",
            "repro.cache.sweep",
            "repro.cache.hierarchy",
            "repro.cache.optimal",
            "repro.predictors",
            "repro.predictors.value",
            "repro.predictors.vpc",
            "repro.predictors.cdc",
            "repro.baselines",
            "repro.baselines.generic",
            "repro.baselines.unshuffle",
            "repro.baselines.delta",
            "repro.analysis",
            "repro.analysis.metrics",
            "repro.analysis.comparison",
            "repro.analysis.reporting",
            "repro.analysis.reuse",
            "repro.analysis.harness",
            "repro.cli",
            "repro.errors",
        ],
    )
    def test_every_module_imports(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core.bytesort",
            "repro.core.lossy",
            "repro.core.lossless",
            "repro.cache.stackdist",
            "repro.predictors.vpc",
            "repro.predictors.cdc",
            "repro.baselines.unshuffle",
            "repro.analysis.metrics",
        ],
    )
    def test_modules_define_all(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_error_hierarchy(self):
        assert issubclass(repro.TraceFormatError, repro.ReproError)
        assert issubclass(repro.ContainerError, repro.ReproError)
        assert issubclass(repro.CodecError, repro.ReproError)
        assert issubclass(repro.ConfigurationError, repro.ReproError)
