"""Tests of the shared exception hierarchy and of error reporting paths."""

from __future__ import annotations

import pytest

from repro.errors import (
    CodecError,
    ConfigurationError,
    ContainerError,
    ReproError,
    TraceFormatError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [TraceFormatError, ContainerError, CodecError, ConfigurationError],
    )
    def test_all_errors_derive_from_repro_error(self, exception_type):
        assert issubclass(exception_type, ReproError)
        assert issubclass(exception_type, Exception)

    def test_catching_base_class_catches_all(self):
        from repro.core.backend import get_backend

        with pytest.raises(ReproError):
            get_backend("nope")

    def test_errors_carry_messages(self):
        try:
            raise CodecError("something broke")
        except ReproError as error:
            assert "something broke" in str(error)


class TestErrorPathsAcrossModules:
    def test_trace_errors_are_trace_format_errors(self):
        from repro.traces.trace import as_address_array

        with pytest.raises(TraceFormatError):
            as_address_array([-5])

    def test_cache_errors_are_configuration_errors(self):
        from repro.cache.cache import CacheConfig

        with pytest.raises(ConfigurationError):
            CacheConfig(num_sets=7, associativity=1)

    def test_codec_errors_from_corrupt_streams(self):
        from repro.core.lossless import LosslessCodec

        with pytest.raises(CodecError):
            LosslessCodec().decompress(b"not a stream")

    def test_container_errors_from_missing_directories(self, tmp_path):
        from repro.core.container import AtcContainer

        with pytest.raises(ContainerError):
            AtcContainer(tmp_path / "does-not-exist")

    def test_library_never_raises_bare_exception_for_bad_config(self):
        """Spot check: invalid user input maps to ReproError subclasses."""
        from repro.core.lossy import LossyConfig
        from repro.predictors.cdc import CdcConfig
        from repro.traces.synthetic import sequential_stream

        for call in (
            lambda: LossyConfig(interval_length=-1),
            lambda: CdcConfig(czone_bytes=5),
            lambda: sequential_stream(0),
        ):
            with pytest.raises(ReproError):
                call()
