"""Reproduction of "Online compression of cache-filtered address traces".

The library implements the ATC trace compressor (Michaud, ISPASS 2009) and
every substrate its evaluation relies on: synthetic SPEC-like workloads, the
L1 cache filter, multi-configuration cache simulation, value/address
predictors (the TCgen/VPC-style baseline and the C/DC predictor) and the
metric/reporting layer used by the benchmark harness.

Quick tour of the public API (see the package README for a walkthrough):

* :mod:`repro.core` — the paper's contribution: bytesort, the lossy
  interval planner, and the ATC streaming encoder/decoder + container.
* :mod:`repro.traces` — trace types, synthetic workloads and the cache
  filter that produces cache-filtered address traces.
* :mod:`repro.cache` — set-associative caches and the stack-distance
  simulator used for miss-ratio sweeps.
* :mod:`repro.predictors` — the VPC/TCgen baseline compressor and the C/DC
  address predictor.
* :mod:`repro.baselines` — the bzip2-alone and byte-unshuffling baselines.
* :mod:`repro.analysis` — metrics, exact-vs-lossy comparison pipelines and
  text-table reporting.
* :mod:`repro.experiments` — declarative experiment orchestration: TOML/JSON
  sweep specs, content-hash result caching, parallel execution and typed
  report tables (the ``repro sweep`` CLI).

The full documentation site lives under ``docs/`` (architecture overview,
paper-to-code map, the ATC container format specification and the sweep
spec reference).

Example:
    >>> import numpy as np, os, repro, tempfile
    >>> trace = np.arange(3000, dtype=np.uint64) % 500
    >>> config = repro.LossyConfig(chunk_buffer_addresses=1000)
    >>> directory = os.path.join(tempfile.mkdtemp(), "container")
    >>> decoder = repro.compress_trace(trace, directory, mode="c", config=config)
    >>> bool(np.array_equal(decoder.read_all(), trace))
    True
"""

from repro.core.atc import (
    AtcDecoder,
    AtcEncoder,
    atc_open,
    compress_stream,
    compress_trace,
    decompress_stream,
    decompress_trace,
)
from repro.core.bytesort import (
    bytesort_inverse,
    bytesort_inverse_window,
    bytesort_transform,
    bytesort_window,
)
from repro.core.lossless import LosslessCodec
from repro.core.lossy import LossyConfig
from repro.errors import (
    CodecError,
    ConfigurationError,
    ContainerError,
    IntegrityError,
    ReproError,
    TraceFormatError,
)
from repro.traces.filter import (
    CacheFilter,
    StreamingCacheFilter,
    filter_spec_like_traces,
    filtered_spec_like_trace,
)
from repro.traces.spec_like import SPEC_LIKE_NAMES, spec_like_suite
from repro.traces.trace import AddressTrace, iter_raw_chunks, read_raw_trace, write_raw_trace

__version__ = "1.24.0"

# The experiments subsystem imports the trace/codec layers above, so its
# re-exports come last to keep the import order acyclic.
from repro.experiments import (
    CodecSpec,
    FilterSpec,
    SweepRunner,
    SweepSpec,
    WorkloadSpec,
    load_sweep_spec,
    run_sweep,
)

__all__ = [
    "__version__",
    # core codecs
    "AtcEncoder",
    "AtcDecoder",
    "atc_open",
    "compress_trace",
    "decompress_trace",
    "compress_stream",
    "decompress_stream",
    "LosslessCodec",
    "LossyConfig",
    "bytesort_window",
    "bytesort_inverse_window",
    "bytesort_transform",
    "bytesort_inverse",
    # traces
    "AddressTrace",
    "read_raw_trace",
    "write_raw_trace",
    "iter_raw_chunks",
    "CacheFilter",
    "StreamingCacheFilter",
    "filtered_spec_like_trace",
    "filter_spec_like_traces",
    "spec_like_suite",
    "SPEC_LIKE_NAMES",
    # experiments
    "SweepSpec",
    "WorkloadSpec",
    "FilterSpec",
    "CodecSpec",
    "SweepRunner",
    "load_sweep_spec",
    "run_sweep",
    # errors
    "ReproError",
    "TraceFormatError",
    "ContainerError",
    "IntegrityError",
    "CodecError",
    "ConfigurationError",
]
