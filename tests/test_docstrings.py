"""Enforcement of the documentation contract on the public API surface.

Two rules, both enforced here so they cannot silently regress:

* every public symbol — everything exported from ``repro.__all__`` and
  from each subpackage's ``__all__`` — carries a docstring (classes and
  functions; constants are documented in their module docstring);
* the package carries runnable usage examples: the doctest corpus (run in
  CI via ``pytest --doctest-modules src/repro``) must not shrink below the
  floor asserted here, and every headline entry point keeps its example.
"""

from __future__ import annotations

import doctest
import importlib
import inspect
import pkgutil

import pytest

import repro

_PUBLIC_MODULES = (
    "repro",
    "repro.core",
    "repro.traces",
    "repro.cache",
    "repro.predictors",
    "repro.baselines",
    "repro.analysis",
    "repro.experiments",
    "repro.bench",
    "repro.service",
    "repro.cli",
    "repro.errors",
    "repro.testing",
)

#: Headline entry points that must keep a runnable Example in their docstring.
_MUST_HAVE_EXAMPLE = (
    "repro.core.bytesort.bytesort_transform",
    "repro.core.lossless.LosslessCodec",
    "repro.core.atc.compress_trace",
    "repro.core.backend.get_backend",
    "repro.core.stream.chunk_array",
    "repro.traces.trace.as_address_array",
    "repro.traces.spec_like.get_workload",
    "repro.traces.filter.filtered_spec_like_trace",
    "repro.cache.cache.CacheConfig.from_capacity",
    "repro.cache.sweep.miss_ratio_sweep",
    "repro.analysis.metrics.bits_per_address",
    "repro.analysis.reporting.render_table",
    "repro.experiments.spec.CodecSpec",
    "repro.experiments.runner",   # module example: run + cache + re-run
    "repro.experiments.store",    # module example: miss -> put -> hit
)


def _public_symbols():
    for module_name in _PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            yield module_name, name, getattr(module, name)


class TestDocstringPresence:
    @pytest.mark.parametrize(
        "module_name, name, obj",
        [pytest.param(m, n, o, id=f"{m}.{n}") for m, n, o in _public_symbols()],
    )
    def test_every_public_symbol_has_a_docstring(self, module_name, name, obj):
        if not (inspect.isclass(obj) or inspect.isroutine(obj)):
            # Constants (tuples, ints, frozen instances) document themselves
            # in the module docstring; the module must have one.
            module = importlib.import_module(module_name)
            assert module.__doc__, f"{module_name} needs a module docstring for {name}"
            return
        assert inspect.getdoc(obj), f"{module_name}.{name} has no docstring"

    def test_every_module_has_a_docstring(self):
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} has no module docstring"


class TestDoctestCorpus:
    def _count_examples(self, module) -> int:
        finder = doctest.DocTestFinder(exclude_empty=True)
        return sum(len(test.examples) for test in finder.find(module))

    @staticmethod
    def _resolve(path: str):
        parts = path.split(".")
        for split in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            for part in parts[split:]:
                obj = getattr(obj, part)
            return obj
        raise AssertionError(f"cannot resolve {path}")

    def test_headline_entry_points_keep_their_examples(self):
        for path in _MUST_HAVE_EXAMPLE:
            doc = inspect.getdoc(self._resolve(path)) or ""
            assert ">>>" in doc, f"{path} lost its runnable docstring example"

    def test_doctest_corpus_does_not_shrink(self):
        total = 0
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            total += self._count_examples(importlib.import_module(info.name))
        total += self._count_examples(repro)
        # CI runs the corpus via `pytest --doctest-modules src/repro`; this
        # floor keeps the corpus from being quietly deleted.
        assert total >= 60, f"doctest corpus shrank to {total} examples"

    def test_a_representative_doctest_actually_runs(self):
        from repro.core import bytesort

        failures, _ = doctest.testmod(bytesort, verbose=False)
        assert failures == 0
