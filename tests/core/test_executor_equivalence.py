"""Cross-worker equivalence: inline vs thread pool, byte for byte.

The pipeline's hard invariant is that the worker count is invisible in the
output: for every mode (lossless, lossy), every chunk/interval size and
every worker count, the ``.atc`` container bytes are identical.  This
module pins that invariant three ways:

* a matrix over chunk sizes {1, 7, 4096} and workers {1, 2, 4} for both
  modes (one worker runs serially, more on a thread pool), asserting
  container digests equal;
* the thread encoder reproducing the *committed golden fixtures* byte for
  byte (the strongest anchor: not just self-consistency, but the on-disk
  format as committed);
* a hypothesis property run on the process-wide thread pool, the way the
  service's jobs share it across requests.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import parallel
from repro.core.atc import MODE_LOSSLESS, MODE_LOSSY, AtcDecoder, AtcEncoder
from repro.core.lossy import LossyConfig

from test_golden_containers import (
    GOLDEN_VARIANTS,
    golden_addresses,
    golden_config,
    golden_directory,
)

#: Worker counts of the matrix: 1 is the serial reference, the rest threads.
WORKERS = (1, 2, 4)

#: (chunk size, trace length): tiny chunks get shorter traces so the
#: lossless matrix cell stays at hundreds — not thousands — of chunk tasks.
CHUNK_MATRIX = ((1, 120), (7, 700), (4096, 3000))


def _digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for entry in sorted(directory.iterdir()):
        digest.update(entry.name.encode())
        digest.update(entry.read_bytes())
    return digest.hexdigest()


def _encode(trace, directory, mode, chunk, workers) -> str:
    config = LossyConfig(
        interval_length=chunk,
        threshold=0.5,
        chunk_buffer_addresses=chunk,
        backend="zlib",
        workers=workers,
    )
    with AtcEncoder(directory, mode=mode, config=config) as encoder:
        encoder.code_many(trace)
    return _digest(directory)


class TestCrossExecutorMatrix:
    @pytest.mark.parametrize("mode", [MODE_LOSSLESS, MODE_LOSSY])
    @pytest.mark.parametrize("chunk,length", CHUNK_MATRIX)
    def test_containers_byte_identical_across_executors(self, tmp_path, mode, chunk, length):
        trace = golden_addresses()[:length]
        digests = {
            workers: _encode(trace, tmp_path / f"{mode}-{chunk}-{workers}", mode, chunk, workers)
            for workers in WORKERS
        }
        for workers in WORKERS:
            assert digests[workers] == digests[1], (mode, chunk, workers)

    @pytest.mark.parametrize("mode", [MODE_LOSSLESS, MODE_LOSSY])
    @pytest.mark.parametrize("chunk,length", CHUNK_MATRIX)
    def test_decode_identical_across_executors(self, tmp_path, mode, chunk, length):
        trace = golden_addresses()[:length]
        directory = tmp_path / "container"
        _encode(trace, directory, mode, chunk, 1)
        reference = AtcDecoder(directory, workers=1).read_all()
        for workers in WORKERS:
            decoder = AtcDecoder(directory, workers=workers)
            assert np.array_equal(decoder.read_all(), reference), (mode, chunk, workers)
            streamed = np.concatenate(list(AtcDecoder(directory, workers=workers).iter_chunks()))
            assert np.array_equal(streamed, reference), (mode, chunk, workers)
        if mode == MODE_LOSSLESS:
            assert np.array_equal(reference, trace)


class TestThreadExecutorMatchesGoldenFixtures:
    def test_thread_encoder_reproduces_committed_containers(self, tmp_path):
        """The strongest anchor: the thread pipeline must reproduce the
        committed on-disk golden bytes, not merely agree with itself."""
        for mode_name, mode, backend in GOLDEN_VARIANTS:
            committed = golden_directory(mode_name, backend)
            fresh = tmp_path / f"{mode_name}_{backend}"
            config = replace(golden_config(backend), workers=2)
            with AtcEncoder(fresh, mode=mode, config=config) as encoder:
                encoder.code_many(golden_addresses())
            expected = {entry.name: entry.read_bytes() for entry in sorted(committed.iterdir())}
            actual = {entry.name: entry.read_bytes() for entry in sorted(fresh.iterdir())}
            assert actual == expected, f"{mode_name}_{backend} drifted under the thread pool"
            decoded = AtcDecoder(committed, workers=2).read_all()
            assert np.array_equal(decoded, AtcDecoder(committed, workers=1).read_all())


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    addresses=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=120),
    interval_length=st.integers(min_value=1, max_value=31),
)
def test_thread_roundtrip_property(tmp_path_factory, monkeypatch, addresses, interval_length):
    """Lossless encode/decode on the process pool is exact for arbitrary traces."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)  # a pool on any host
    config = LossyConfig(
        interval_length=interval_length,
        chunk_buffer_addresses=interval_length,
        backend="zlib",
        workers=2,
    )
    directory = tmp_path_factory.mktemp("prop") / "container"
    with AtcEncoder(directory, mode=MODE_LOSSLESS, config=config) as enc:
        assert enc._pipeline.pool is parallel._process_pool()
        enc.code_many(np.array(addresses, dtype=np.uint64))
    decoded = AtcDecoder(directory, workers=2).read_all()
    assert decoded.tolist() == addresses
