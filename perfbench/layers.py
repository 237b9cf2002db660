"""Per-layer tracing: timing wrappers installed at the library's import sites.

The traced run (``--trace 1``) wraps the functions the pipeline actually
calls — module attributes such as ``repro.core.lossless.bytesort_transform``
and methods such as ``AtcContainer.write_chunk`` — and re-registers the
``bz2`` back-end as a timed :class:`~repro.core.backend.CompressionBackend`.
Nothing under ``src/`` changes; :func:`traced` restores every original on
exit, and untraced runs never install anything.

Each wrapper records a span.  Spans nest per thread, and a layer's busy
time is its *self* time: the span's duration minus the time its child spans
cover (``AtcEncoder.close`` minus the bytesort, back-end, digest and
container spans it triggers, for example).  The sum of top-level span
durations is what the layers account for; the rest of a workload's wall
time is reported as unaccounted.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "traced", "installed", "layer_metrics", "LAYER_METRICS"]

#: Per-layer metrics in report order: name -> unit.  The service rows are
#: filled in by the serve workload from ``/v1/metrics`` and its own clients;
#: the ``trace.*`` rows by whichever workload ran the traced section.
LAYER_METRICS: Dict[str, str] = {
    "filter.busy_s": "s",
    "filter.refs": "count",
    "filter.survive_ratio": "ratio",
    "lossy.plan_busy_s": "s",
    "lossy.intervals": "count",
    "lossy.imitate_ratio": "ratio",
    "lossy.mr_err_max": "abs",
    "bytesort.fwd_busy_s": "s",
    "bytesort.inv_busy_s": "s",
    "backend.compress_busy_s": "s",
    "backend.decompress_busy_s": "s",
    "backend.bytes_in": "bytes",
    "backend.bytes_out": "bytes",
    "integrity.digest_busy_s": "s",
    "integrity.verify_busy_s": "s",
    "container.write_busy_s": "s",
    "container.read_busy_s": "s",
    "container.info_busy_s": "s",
    "container.chunks_written": "count",
    "container.bytes_written": "bytes",
    "atc.close_busy_s": "s",
    "atc.chunk_loads": "count",
    "atc.lru_hit_ratio": "ratio",
    "atc.materialize_busy_s": "s",
    "service.server_p50_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.bytes_in": "bytes",
    "service.bytes_out": "bytes",
    "service.rejected": "count",
    "service.timeouts": "count",
    "serve.compress_miss_p50_ms": "ms",
    "serve.compress_hit_p50_ms": "ms",
    "serve.decompress_p50_ms": "ms",
    "serve.transport_ms": "ms",
    "trace.wall_s": "s",
    "trace.unaccounted_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

_installed = False


def installed() -> bool:
    """True while :func:`traced` has wrappers in place."""
    return _installed


class Tracer:
    """Span recorder: per-layer self time and counters, safe across threads."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.accounted = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()

    def call(self, span: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``span`` and return its result."""
        stack: List[float] = self._local.__dict__.setdefault("stack", [])
        stack.append(0.0)  # time covered by this span's children
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = stack.pop()
            if stack:
                stack[-1] += duration
            with self._lock:
                self.busy[span] += duration - children
                if not stack:
                    self.accounted += duration

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def to_dict(self) -> Dict:
        return {"busy": dict(self.busy), "counts": dict(self.counts), "accounted": self.accounted}

    def merge(self, other: Dict) -> None:
        """Fold a :meth:`to_dict` snapshot (e.g. from the server process) in."""
        with self._lock:
            for name, value in other.get("busy", {}).items():
                self.busy[name] += value
            for name, value in other.get("counts", {}).items():
                self.counts[name] += value
            self.accounted += other.get("accounted", 0.0)


def _wrap(tracer: Tracer, span: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(span, fn, *args, **kwargs)
        if after is not None:
            after(tracer, result, *args)
        return result

    return wrapper


def _after_filter(tracer, miss, _self, chunk):
    tracer.count("filter.refs", len(chunk))
    tracer.count("filter.misses", len(miss))


def _after_plan(tracer, planned, _self, _interval):
    record, _needs_payload = planned
    tracer.count("lossy.intervals")
    tracer.count("lossy.imitated", record.kind == "imitate")


def _after_write_chunk(tracer, _path, _self, _chunk_id, payload):
    tracer.count("container.chunks_written")
    tracer.count("container.bytes_written", len(payload))


def _after_write_info(tracer, path, *_args):
    tracer.count("container.bytes_written", path.stat().st_size)


def _after_compress(tracer, result, data):
    tracer.count("backend.bytes_in", len(data))
    tracer.count("backend.bytes_out", len(result))


def _sites(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """Every (owner, attribute, wrapper) the traced run installs."""
    from repro.core import atc, container, lossless
    from repro.core.lossy import LossyIntervalEncoder
    from repro.traces.filter import StreamingCacheFilter

    Container = container.AtcContainer
    plan = [
        (StreamingCacheFilter, "filter_chunk", "filter", _after_filter),
        (LossyIntervalEncoder, "plan_interval", "lossy.plan", _after_plan),
        (lossless, "bytesort_transform", "bytesort.fwd", None),
        (lossless, "bytesort_inverse", "bytesort.inv", None),
        (atc, "chunk_digest", "integrity.digest", None),
        (container, "footer_digest", "integrity.digest", None),
        (container, "verify_chunk_payload", "integrity.verify", None),
        (Container, "write_chunk", "container.write", _after_write_chunk),
        (Container, "read_chunk", "container.read", lambda t, *_: t.count("atc.chunk_loads")),
        (Container, "write_info", "container.info", _after_write_info),
        (Container, "read_info", "container.info", None),
        (atc.AtcEncoder, "close", "atc.close", None),
        (atc, "materialize_interval", "atc.materialize", lambda t, *_: t.count("atc.records")),
    ]
    return [
        (owner, name, _wrap(tracer, span, getattr(owner, name), after))
        for owner, name, span, after in plan
    ]


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer wrapper for the duration of the block."""
    global _installed
    from repro.core.backend import CompressionBackend, get_backend, register_backend

    if _installed:
        raise RuntimeError("layer wrappers are already installed")
    bz2 = get_backend("bz2")
    timed_bz2 = CompressionBackend(
        name=bz2.name,
        compress=_wrap(tracer, "backend.compress", bz2.compress, _after_compress),
        decompress=_wrap(tracer, "backend.decompress", bz2.decompress),
    )
    sites = _sites(tracer)
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in sites]
    try:
        for owner, name, wrapper in sites:
            setattr(owner, name, wrapper)
        register_backend(timed_bz2)
        _installed = True
        yield tracer
    finally:
        register_backend(bz2)
        for owner, name, original in originals:
            setattr(owner, name, original)
        _installed = False


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The codec-layer rows of :data:`LAYER_METRICS` from a tracer's totals."""
    busy, counts = tracer.busy, tracer.counts
    refs = counts.get("filter.refs", 0.0)
    intervals = counts.get("lossy.intervals", 0.0)
    records = counts.get("atc.records", 0.0)
    loads = counts.get("atc.chunk_loads", 0.0)
    return {
        "filter.busy_s": busy.get("filter", 0.0),
        "filter.refs": refs,
        "filter.survive_ratio": counts.get("filter.misses", 0.0) / refs if refs else 0.0,
        "lossy.plan_busy_s": busy.get("lossy.plan", 0.0),
        "lossy.intervals": intervals,
        "lossy.imitate_ratio": counts.get("lossy.imitated", 0.0) / intervals if intervals else 0.0,
        "bytesort.fwd_busy_s": busy.get("bytesort.fwd", 0.0),
        "bytesort.inv_busy_s": busy.get("bytesort.inv", 0.0),
        "backend.compress_busy_s": busy.get("backend.compress", 0.0),
        "backend.decompress_busy_s": busy.get("backend.decompress", 0.0),
        "backend.bytes_in": counts.get("backend.bytes_in", 0.0),
        "backend.bytes_out": counts.get("backend.bytes_out", 0.0),
        "integrity.digest_busy_s": busy.get("integrity.digest", 0.0),
        "integrity.verify_busy_s": busy.get("integrity.verify", 0.0),
        "container.write_busy_s": busy.get("container.write", 0.0),
        "container.read_busy_s": busy.get("container.read", 0.0),
        "container.info_busy_s": busy.get("container.info", 0.0),
        "container.chunks_written": counts.get("container.chunks_written", 0.0),
        "container.bytes_written": counts.get("container.bytes_written", 0.0),
        "atc.close_busy_s": busy.get("atc.close", 0.0),
        "atc.chunk_loads": loads,
        "atc.lru_hit_ratio": 1.0 - loads / records if records else 0.0,
        "atc.materialize_busy_s": busy.get("atc.materialize", 0.0),
    }
