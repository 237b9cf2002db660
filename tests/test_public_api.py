"""Tests that the documented public API surface is importable and coherent."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.cache
import repro.core.backend
import repro.predictors
import repro.predictors.value
import repro.predictors.vpc
from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.core.atc import AtcDecoder, AtcEncoder, atc_open
from repro.core.container import AtcContainer
from repro.core.kernels import simulate_batch
from repro.core.parallel import OrderedChunkWriter
from repro.experiments.spec import FilterSpec
from repro.predictors.vpc import VpcCodec
from repro.traces.synthetic import ReferenceStream, make_reference_stream

# Every module of the package, found by walking it, so a new or deleted
# module needs no edit here.  Importing each is side-effect free: the
# package has no ``__main__`` module and every script entry point is
# guarded.
ALL_MODULES = sorted(
    ["repro"] + [module.name for module in pkgutil.walk_packages(repro.__path__, "repro.")]
)

_BLOCKS = np.arange(3, dtype=np.uint64)
_ROWS = np.zeros(3, dtype=np.int64)


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

    @pytest.mark.parametrize("module_name", ALL_MODULES)
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

    @pytest.mark.parametrize(
        "removed, call",
        [
            ("policy", lambda: CacheConfig(num_sets=4, associativity=2, policy="lru")),
            ("seed", lambda: SetAssociativeCache(CacheConfig(num_sets=4, associativity=2), seed=1)),
            ("access_block_rw", lambda: SetAssociativeCache(CacheConfig(4, 2)).access_block_rw),
            ("policy", lambda: FilterSpec(policy="lru")),
            ("track_stamps", lambda: simulate_batch(_BLOCKS, _ROWS, 0, 2, track_stamps=False)),
            ("is_write", lambda: ReferenceStream(_BLOCKS, _BLOCKS > 0, is_write=_BLOCKS > 1)),
            ("write_fraction", lambda: make_reference_stream(_BLOCKS, write_fraction=0.5)),
            ("format_version", lambda: AtcEncoder(None, format_version=1)),
            ("access_batches", lambda: repro.cache.access_batches),
            ("suffix", lambda: AtcEncoder(None, suffix="gz")),
            ("suffix", lambda: atc_open(None, "c", suffix="gz")),
            ("backend", lambda: AtcDecoder(None, backend="bz2")),
            ("suffix", lambda: AtcDecoder(None, suffix="bz2")),
            ("executor", lambda: AtcEncoder(None, executor=None)),
            ("executor", lambda: AtcDecoder(None, executor=None)),
            ("executor", lambda: OrderedChunkWriter(print, executor=None)),
            ("max_pending", lambda: OrderedChunkWriter(print, max_pending=3)),
            ("suffix", lambda: AtcContainer(None, suffix="bz2")),
            ("canonical_backend_name", lambda: repro.core.backend.canonical_backend_name),
            ("predictor_specs", lambda: VpcCodec(predictor_specs=("LV", "ST"))),
            ("backend", lambda: VpcCodec(backend="zlib")),
            ("LastValuePredictor", lambda: repro.predictors.LastValuePredictor),
            ("StridePredictor", lambda: repro.predictors.StridePredictor),
            ("Predictor", lambda: repro.predictors.Predictor),
            ("make_predictor", lambda: repro.predictors.make_predictor),
            ("default_tcgen_predictors", lambda: repro.predictors.default_tcgen_predictors),
            ("_parse_order_depth", lambda: repro.predictors.value._parse_order_depth),
            ("vpc_compress", lambda: repro.predictors.vpc.vpc_compress),
            ("vpc_decompress", lambda: repro.predictors.vpc.vpc_decompress),
            ("DEFAULT_PREDICTOR_SPECS", lambda: repro.predictors.DEFAULT_PREDICTOR_SPECS),
        ],
        ids=[
            "CacheConfig.policy",
            "SetAssociativeCache.seed",
            "access_block_rw",
            "FilterSpec.policy",
            "simulate_batch.track_stamps",
            "ReferenceStream.is_write",
            "make_reference_stream.write_fraction",
            "AtcEncoder.format_version",
            "access_batches",
            "AtcEncoder.suffix",
            "atc_open.suffix",
            "AtcDecoder.backend",
            "AtcDecoder.suffix",
            "AtcEncoder.executor",
            "AtcDecoder.executor",
            "OrderedChunkWriter.executor",
            "OrderedChunkWriter.max_pending",
            "AtcContainer.suffix",
            "canonical_backend_name",
            "VpcCodec.predictor_specs",
            "VpcCodec.backend",
            "LastValuePredictor",
            "StridePredictor",
            "Predictor",
            "make_predictor",
            "default_tcgen_predictors",
            "_parse_order_depth",
            "vpc_compress",
            "vpc_decompress",
            "DEFAULT_PREDICTOR_SPECS",
        ],
    )
    def test_removed_write_and_policy_settings_fail_loudly(self, removed, call):
        """The cache model is LRU-only and read-only, the encoder writes
        only format v2, ``access_lanes`` is the one fused cache entry, a
        container's suffix is always its canonical back-end name, every
        fan-out runs on the one process pool, and the VPC codec is the
        paper's fixed TCgen bank over bzip2: an old policy, seed, stamp,
        write, suffix, back-end, pool or predictor setting, or a removed
        name, raises, naming itself, instead of being silently ignored."""
        with pytest.raises((TypeError, AttributeError), match=removed):
            call()

    def test_error_hierarchy(self):
        assert issubclass(repro.TraceFormatError, repro.ReproError)
        assert issubclass(repro.ContainerError, repro.ReproError)
        assert issubclass(repro.CodecError, repro.ReproError)
        assert issubclass(repro.ConfigurationError, repro.ReproError)
