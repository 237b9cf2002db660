"""Byte-level compression back-ends used by the trace codecs.

The ATC program in the paper pipes bytesorted blocks through an external
``bzip2 -c`` process that runs on another core.  This reproduction uses the
equivalent in-process codecs from the Python standard library (``bz2``,
``zlib``, ``lzma``) plus a "store" back-end that performs no compression at
all (useful for testing and for measuring the size of a transformation
before entropy coding).

The ``bz2`` back-end is block-parallel, like pbzip2: bzip2's 900k blocks are
independent, so an input longer than one block is cut exactly where
libbzip2 at level 9 closes each block, and the pieces are compressed as
independent streams on every core and concatenated.  Each stream holds the
same block bytes serial bzip2 writes, plus 14-15 bytes of stream header and
trailer.  The cut points depend only on the data, so the output is the same
for every CPU count, and any multi-stream bzip2 reader decodes it.  Inputs
of one block or less compress exactly as before.

A back-end is a tiny object with two methods::

    compress(data: bytes) -> bytes
    decompress(data: bytes) -> bytes

Back-ends are looked up by name through :func:`get_backend` so that codec
constructors and the CLI can accept a plain string (``"bz2"``, ``"zlib"``,
``"lzma"``, ``"store"``), mirroring the paper's command-string argument to
``atc_open``.
"""

from __future__ import annotations

import bz2
import lzma
import os
import threading
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.core.executors import Executor, SerialExecutor, ThreadExecutor
from repro.errors import CodecError, ConfigurationError

__all__ = [
    "CompressionBackend",
    "get_backend",
    "canonical_backend_name",
    "available_backends",
    "backend_aliases",
    "register_backend",
    "register_alias",
    "bz2_block_starts",
]


@dataclass(frozen=True)
class CompressionBackend:
    """A named pair of ``compress``/``decompress`` functions.

    Attributes:
        name: Identifier used for lookup and for chunk-file suffixes
            (e.g. chunks written with the ``bz2`` back-end are stored as
            ``<n>.bz2`` like in the paper's container format).
        compress: Function mapping raw bytes to compressed bytes.
        decompress: Inverse of ``compress``.
    """

    name: str
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]

    def roundtrip(self, data: bytes) -> bytes:
        """Compress then decompress ``data`` (used by self-checks/tests)."""
        return self.decompress(self.compress(data))


def _store_compress(data: bytes) -> bytes:
    return bytes(data)


def _store_decompress(data: bytes) -> bytes:
    return bytes(data)


_BACKENDS: Dict[str, CompressionBackend] = {}
_ALIASES: Dict[str, str] = {}


def register_backend(backend: CompressionBackend, aliases: Iterable[str] = ()) -> None:
    """Register ``backend`` so :func:`get_backend` can find it by name.

    Registering a name twice replaces the previous back-end; this lets test
    code substitute instrumented back-ends.  ``aliases`` registers extra
    lookup names resolving to the same back-end object (no duplicate
    compress/decompress functions).
    """
    # A real back-end takes over its name: registering under a name that
    # currently is an alias (e.g. an instrumented "gz") drops the alias, so
    # substitution keeps working like it did when gz/xz were full back-ends.
    _ALIASES.pop(backend.name, None)
    _BACKENDS[backend.name] = backend
    for alias in aliases:
        register_alias(alias, backend.name)


def register_alias(alias: str, target: str) -> None:
    """Make ``alias`` resolve to the back-end registered as ``target``.

    Aliases are resolved at lookup time, so replacing the target back-end
    later also redirects its aliases.  An alias may not shadow a registered
    back-end name.
    """
    if target not in _BACKENDS:
        raise ConfigurationError(f"cannot alias {alias!r} to unknown backend {target!r}")
    if alias in _BACKENDS:
        raise ConfigurationError(f"alias {alias!r} collides with a registered backend name")
    _ALIASES[alias] = target


def available_backends() -> tuple:
    """Return the sorted tuple of all accepted back-end names.

    Aliases are included (they are valid configuration values), so the
    output is a deterministic, sorted union of canonical names and aliases.

    Example:
        >>> set(("bz2", "gz", "zlib", "xz", "lzma", "store")) <= set(available_backends())
        True
    """
    return tuple(sorted(set(_BACKENDS) | set(_ALIASES)))


def backend_aliases() -> Dict[str, str]:
    """Return the ``{alias: canonical_name}`` mapping, sorted by alias."""
    return dict(sorted(_ALIASES.items()))


def canonical_backend_name(name: str) -> str:
    """Resolve a back-end name or alias to its canonical (on-disk) name.

    The chunk-file suffix of a container *is* a canonical back-end name
    (``INFO.bz2``, ``INFO.zlib``, ...), so tools that open existing
    containers (``repro fsck``, the decoder probe) use this to turn a
    detected suffix back into a back-end.

    Example:
        >>> canonical_backend_name("gz")
        'zlib'
        >>> canonical_backend_name("bz2")
        'bz2'
    """
    return get_backend(name).name


def get_backend(name_or_backend) -> CompressionBackend:
    """Resolve a back-end from a name, an alias, or pass an instance through.

    Args:
        name_or_backend: Either a registered back-end name (``"bz2"``,
            ``"zlib"``, ``"lzma"``, ``"store"``), an alias (``"gz"`` for
            zlib, ``"xz"`` for lzma) or an already constructed
            :class:`CompressionBackend`.

    Raises:
        ConfigurationError: If the name is unknown.

    Example:
        >>> get_backend("gz").name                  # aliases resolve to canonical names
        'zlib'
        >>> get_backend("store").roundtrip(b"abc")
        b'abc'
    """
    if isinstance(name_or_backend, CompressionBackend):
        return name_or_backend
    # Registered names win over aliases, so a back-end registered under a
    # (former) alias name is found, not shadowed.
    backend = _BACKENDS.get(name_or_backend)
    if backend is not None:
        return backend
    try:
        return _BACKENDS[_ALIASES[name_or_backend]]
    except KeyError:
        known = ", ".join(available_backends())
        raise ConfigurationError(
            f"unknown compression backend {name_or_backend!r}; known backends: {known}"
        ) from None


def _checked_decompress(name: str, decompress: Callable[[bytes], bytes]) -> Callable[[bytes], bytes]:
    """Translate a stdlib decompressor's raw errors into :class:`CodecError`.

    The stdlib codecs raise an inconsistent zoo on corrupt or truncated
    input (``OSError`` from bz2, ``zlib.error``, ``lzma.LZMAError``,
    ``EOFError``); callers up to and including the HTTP service rely on
    every deliberate library failure being a :class:`~repro.errors.ReproError`,
    so bad compressed bytes must surface as a codec error, not as what
    looks like a programming bug or an I/O failure.
    """

    def checked(data: bytes) -> bytes:
        try:
            return decompress(data)
        except (OSError, EOFError, ValueError, zlib.error, lzma.LZMAError) as error:
            raise CodecError(f"corrupt or truncated {name} data: {error}") from None

    return checked


#: libbzip2's ``nblockMAX`` at level 9: a block is closed as soon as its
#: run-length-encoded (RLE1) input reaches this many bytes.
_BZ2_BLOCK_RLE_BYTES = 9 * 100_000 - 19
#: RLE1 grows its input by at most 5/4 (a run of 4 takes 5 bytes), so a
#: shorter input always fits in one block and is not scanned.
_BZ2_SPLIT_MIN_BYTES = _BZ2_BLOCK_RLE_BYTES * 4 // 5 + 1
#: Stream header plus first block magic of a level-9 bzip2 stream.
_BZ2_STREAM_START = b"BZh91AY&SY"
#: Input bytes scanned per step by :func:`bz2_block_starts`.
_SPLIT_WINDOW = 1 << 18

_pool: Optional[Executor] = None
_pool_lock = threading.Lock()


def _block_pool() -> Executor:
    """Helper threads for the bz2 pieces, one per usable CPU but the caller's.

    Created on first use.  It is not the chunk pipeline's executor: a chunk
    task waiting on its own pool for its pieces could deadlock.  With one
    usable CPU there are no helpers and the pieces run inline.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            if hasattr(os, "sched_getaffinity"):
                cpus = len(os.sched_getaffinity(0))
            else:
                cpus = os.cpu_count() or 1
            _pool = ThreadExecutor(cpus - 1) if cpus > 1 else SerialExecutor()
        return _pool


def _map_on_every_core(fn: Callable, items: list) -> list:
    """``[fn(item) for item in items]``, with the caller and the helpers sharing the items.

    The calling thread works too, rather than waiting on the pool: that
    needs one thread (and one malloc arena of retained bzip2 buffers) fewer.
    """
    pool = _block_pool()
    results = [None] * len(items)
    indexes = iter(range(len(items)))

    def drain() -> None:
        for index in indexes:
            results[index] = fn(items[index])

    helpers = [pool.submit(drain) for _ in range(min(pool.workers, len(items) - 1))]
    try:
        drain()
    finally:
        for helper in helpers:
            helper.result()
    return results


def _forget_block_pool() -> None:
    """Drop the parent's pool in a forked child: its threads did not fork."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_block_pool)


def _run_bound(values: np.ndarray, start: int, stop: int) -> int:
    """Where the run of equal bytes at ``start`` ends, scanning towards ``stop``.

    Scans forwards when ``stop > start`` (returning the run's end) and
    backwards otherwise (returning its first byte), in steps that double
    from 64 bytes, so short runs cost one small compare.
    """
    byte, step = values[start], 64
    if stop > start:
        low = start
        while low < stop:
            differs = np.flatnonzero(values[low : min(stop, low + step)] != byte)
            if differs.size:
                return low + int(differs[0])
            low, step = low + step, min(2 * step, _SPLIT_WINDOW)
        return stop
    high = start + 1
    while high > stop:
        differs = np.flatnonzero(values[max(stop, high - step) : high] != byte)
        if differs.size:
            return max(stop, high - step) + int(differs[-1]) + 1
        high, step = high - step, min(2 * step, _SPLIT_WINDOW)
    return stop


def _long_runs(region: np.ndarray):
    """``(starts, ends)`` of the runs of 4 or more equal bytes in ``region``."""
    same = region[1:] == region[:-1]
    opens_four = same[:-2] & same[1:-1]
    opens_four &= same[2:]  # bytes i..i+3 are equal
    edges = np.flatnonzero(opens_four[1:] != opens_four[:-1]) + 1
    if opens_four.size and opens_four[0]:
        edges = np.insert(edges, 0, 0)
    if opens_four.size and opens_four[-1]:
        edges = np.append(edges, opens_four.size)
    return edges[0::2], edges[1::2] + 3


def bz2_block_starts(data) -> List[int]:
    """Input offsets where libbzip2 at level 9 opens its 2nd, 3rd, ... block.

    libbzip2 first run-length encodes its input (RLE1): a run of equal
    bytes is cut into pieces of at most 255, and a piece of 4 or more bytes
    takes 5 (four copies and a count).  It closes a block once the block
    holds :data:`_BZ2_BLOCK_RLE_BYTES` RLE bytes, when the next piece
    starts; that piece opens the next block.  Each block therefore starts
    at a piece boundary with a fresh RLE state, so compressing the input
    between two offsets on its own yields the same block.

    Runs of 1-3 bytes are copied as they are, so only runs of 4 or more
    are located.  The input is scanned in fixed windows that end before
    the window's last run, so temporaries stay a few bytes per window byte
    whatever the input size.

    Example:
        >>> bz2_block_starts(b"ab" * 10)
        []
        >>> bz2_block_starts(bytes(range(256)) * 4000)
        [899981]
    """
    values = np.frombuffer(data, dtype=np.uint8)
    size = int(values.size)
    starts: List[int] = []
    used = 0  # RLE bytes in the open block
    pos = 0  # first input byte not yet counted: always a piece start
    while pos < size:
        stop = min(size, pos + _SPLIT_WINDOW)
        last_run_start = None
        if stop < size:
            # Stop before the window's last run, which may go on past it.
            last_run_start = _run_bound(values, stop - 1, pos)
            stop = _run_bound(values, pos, size) if last_run_start == pos else last_run_start
        if last_run_start == pos:  # the window is one run
            run_starts, run_ends = np.array([0]), np.array([stop - pos])
        else:
            run_starts, run_ends = _long_runs(values[pos:stop])
        lengths = run_ends - run_starts
        remainder = lengths % 255
        saved = lengths - 5 * (lengths // 255) - np.where(remainder < 4, remainder, 5)
        at_end = used + run_ends - np.cumsum(saved)  # RLE bytes after each long run
        at_start = at_end - lengths + saved
        run = int(np.searchsorted(at_end, _BZ2_BLOCK_RLE_BYTES))
        if run < lengths.size and at_start[run] < _BZ2_BLOCK_RLE_BYTES:
            # The block fills up inside this long run, at a piece of 255.
            pieces = -(-(_BZ2_BLOCK_RLE_BYTES - int(at_start[run])) // 5)
            cut = pos + int(run_starts[run])
            cut += 255 * pieces if pieces <= int(lengths[run]) // 255 else int(lengths[run])
        else:
            # Otherwise it fills up among runs of 1-3 bytes (or not at all).
            short_from = int(run_ends[run - 1]) if run else 0
            short_used = int(at_end[run - 1]) if run else used
            short_to = int(run_starts[run]) if run < lengths.size else stop - pos
            if short_used + short_to - short_from < _BZ2_BLOCK_RLE_BYTES:
                used = short_used + short_to - short_from
                pos = stop
                continue
            cut = pos + short_from + _BZ2_BLOCK_RLE_BYTES - short_used
            while cut < size and values[cut] == values[cut - 1]:
                cut += 1  # the piece holding the block's last byte ends with its run
        if cut >= size:
            break
        starts.append(cut)
        used, pos = 0, cut
    return starts


def _bz2_compress(data) -> bytes:
    """bzip2 level 9, one independent stream per libbzip2 block."""
    starts = bz2_block_starts(data) if len(data) >= _BZ2_SPLIT_MIN_BYTES else []
    if not starts:
        return bz2.compress(data, compresslevel=9)
    view = memoryview(data).cast("B")
    bounds = [0, *starts, len(view)]
    pieces = [view[low:high] for low, high in zip(bounds, bounds[1:])]
    return b"".join(_map_on_every_core(_compress_piece, pieces))


def _compress_piece(piece) -> bytes:
    return bz2.compress(piece, compresslevel=9)


def _decompress_stream(segment) -> bytes:
    """Decode ``segment`` as exactly one complete bzip2 stream."""
    decompressor = bz2.BZ2Decompressor()
    result = decompressor.decompress(segment)
    if not decompressor.eof or decompressor.unused_data:
        raise ValueError("segment is not exactly one bzip2 stream")
    return result


def _bz2_decompress(data) -> bytes:
    """Decode concatenated bzip2 streams, each on its own core.

    Every level-9 stream starts with ``BZh91AY&SY``.  A false match inside
    a stream leaves the segment before it without its end-of-stream
    marker, so that segment fails :func:`_decompress_stream`; any failure
    falls back to plain ``bz2.decompress``.  The result is therefore always
    exactly the serial one.
    """
    payload = data if isinstance(data, bytes) else bytes(data)
    bounds = [0]
    found = payload.find(_BZ2_STREAM_START, 1)
    while found != -1:
        bounds.append(found)
        found = payload.find(_BZ2_STREAM_START, found + 1)
    if len(bounds) > 1:
        view = memoryview(payload)
        bounds.append(len(payload))
        segments = [view[low:high] for low, high in zip(bounds, bounds[1:])]
        try:
            return b"".join(_map_on_every_core(_decompress_stream, segments))
        except (OSError, EOFError, ValueError):
            pass
    return bz2.decompress(payload)


register_backend(
    CompressionBackend(
        name="bz2",
        compress=_bz2_compress,
        decompress=_checked_decompress("bz2", _bz2_decompress),
    )
)
# "gz" accepts the paper's gzip-style name; "xz" the modern lzma name.
register_backend(
    CompressionBackend(
        name="zlib",
        compress=lambda data: zlib.compress(data, 9),
        decompress=_checked_decompress("zlib", zlib.decompress),
    ),
    aliases=("gz",),
)
register_backend(
    CompressionBackend(
        name="lzma",
        compress=lambda data: lzma.compress(data, preset=6),
        decompress=_checked_decompress("lzma", lzma.decompress),
    ),
    aliases=("xz",),
)
register_backend(
    CompressionBackend(name="store", compress=_store_compress, decompress=_store_decompress)
)
