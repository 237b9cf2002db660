"""The paper's contribution: bytesort, the lossy interval planner and ATC itself."""

from repro.core.atc import (
    AtcDecoder,
    AtcEncoder,
    atc_open,
    compress_stream,
    compress_trace,
    decompress_stream,
    decompress_trace,
)
from repro.core.backend import CompressionBackend, available_backends, get_backend
from repro.core.bytesort import (
    bytesort_inverse,
    bytesort_inverse_window,
    bytesort_transform,
    bytesort_window,
)
from repro.core.container import AtcContainer
from repro.core.fsck import repair_container, scrub_container, scrub_path
from repro.core.integrity import chunk_digest, json_digest
from repro.core.histograms import (
    IntervalSummary,
    apply_translation,
    byte_histograms,
    byte_translation,
    interval_distance,
    sort_histograms,
)
from repro.core.intervals import ChunkTable, IntervalRecord
from repro.core.lossless import LosslessCodec
from repro.core.parallel import OrderedChunkWriter, map_ordered, resolve_workers, usable_cpus
from repro.core.kernels import KernelBatchResult, simulate_batch
from repro.core.stream import (
    DEFAULT_CHUNK_ADDRESSES,
    chunk_array,
    map_chunks,
)
from repro.core.lossy import LossyConfig, LossyIntervalEncoder

__all__ = [
    "AtcEncoder",
    "AtcDecoder",
    "atc_open",
    "compress_trace",
    "decompress_trace",
    "compress_stream",
    "decompress_stream",
    "DEFAULT_CHUNK_ADDRESSES",
    "chunk_array",
    "map_chunks",
    "KernelBatchResult",
    "simulate_batch",
    "AtcContainer",
    "scrub_container",
    "repair_container",
    "scrub_path",
    "chunk_digest",
    "json_digest",
    "CompressionBackend",
    "get_backend",
    "available_backends",
    "OrderedChunkWriter",
    "map_ordered",
    "resolve_workers",
    "usable_cpus",
    "bytesort_window",
    "bytesort_inverse_window",
    "bytesort_transform",
    "bytesort_inverse",
    "byte_histograms",
    "sort_histograms",
    "interval_distance",
    "byte_translation",
    "apply_translation",
    "IntervalSummary",
    "ChunkTable",
    "IntervalRecord",
    "LosslessCodec",
    "LossyConfig",
    "LossyIntervalEncoder",
]
