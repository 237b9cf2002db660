"""Trace substrate: trace types, synthetic workloads and the cache filter."""

from repro.traces.filter import (
    PAPER_L1_CONFIG,
    CacheFilter,
    FilterResult,
    StreamingCacheFilter,
    filter_reference_stream,
    filtered_spec_like_trace,
    iter_filtered_spec_like_chunks,
)
from repro.traces.formats import (
    TraceRecords,
    convert_to_atc,
    detect_format,
    export_from_atc,
    format_names,
    get_format,
)
from repro.traces.spec_like import (
    SPEC_LIKE_NAMES,
    SpecLikeWorkload,
    generate_reference_stream,
    get_workload,
    spec_like_suite,
)
from repro.traces.synthetic import ReferenceStream
from repro.traces.zoo import (
    ZOO_NAMES,
    ZooWorkload,
    get_zoo_workload,
    measure_mpki,
    zoo_suite,
    zoo_sweep_spec,
)
from repro.traces.trace import (
    ADDRESS_BYTES,
    AddressTrace,
    as_address_array,
    block_address,
    byte_address,
    iter_raw_addresses,
    iter_raw_chunks,
    read_raw_trace,
    write_raw_trace,
)

__all__ = [
    "ADDRESS_BYTES",
    "AddressTrace",
    "as_address_array",
    "block_address",
    "byte_address",
    "read_raw_trace",
    "write_raw_trace",
    "iter_raw_addresses",
    "iter_raw_chunks",
    "ReferenceStream",
    "SpecLikeWorkload",
    "SPEC_LIKE_NAMES",
    "spec_like_suite",
    "get_workload",
    "generate_reference_stream",
    "CacheFilter",
    "StreamingCacheFilter",
    "FilterResult",
    "PAPER_L1_CONFIG",
    "filter_reference_stream",
    "filtered_spec_like_trace",
    "iter_filtered_spec_like_chunks",
    "TraceRecords",
    "get_format",
    "format_names",
    "detect_format",
    "convert_to_atc",
    "export_from_atc",
    "ZooWorkload",
    "ZOO_NAMES",
    "zoo_suite",
    "get_zoo_workload",
    "zoo_sweep_spec",
    "measure_mpki",
]
