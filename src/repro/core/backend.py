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
independent streams and concatenated.  Each stream holds the same block
bytes serial bzip2 writes, plus 14-15 bytes of stream header and trailer.
The cut points depend only on the data, so the output is the same for
every CPU count, and any multi-stream bzip2 reader decodes it.  Inputs of
one block or less compress exactly as before.  The calling thread and one
helper per further usable CPU share the pieces through
:func:`~repro.core.parallel.map_ordered`, on the process-wide pool that
also runs chunk tasks; its waiting rule lets a chunk task fan out its own
pieces without deadlock.

A back-end is a tiny object with two methods::

    compress(data: bytes) -> bytes
    decompress(data: bytes) -> bytes

plus an optional bounded decoder, ``decompress_bounded(data, max_length)``,
that stops inflating as soon as the output would pass ``max_length`` bytes.
Chunk payloads are decoded through :meth:`CompressionBackend.decompress_at_most`
with the size their header declares, so a few bytes of hostile input cannot
inflate into gigabytes.  The built-in back-ends all have a bounded decoder; a
back-end registered without one is decoded in full and checked afterwards.

Back-ends are looked up by name through :func:`get_backend` so that codec
constructors and the CLI can accept a plain string (``"bz2"``, ``"zlib"``,
``"lzma"``, ``"store"``), mirroring the paper's command-string argument to
``atc_open``.
"""

from __future__ import annotations

import bz2
import lzma
import sys
import threading
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.core.parallel import map_ordered
from repro.errors import CodecError, ConfigurationError

__all__ = [
    "CompressionBackend",
    "get_backend",
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
        decompress_bounded: Optional ``(data, max_length)`` variant of
            ``decompress`` that raises :class:`~repro.errors.CodecError`
            instead of producing more than ``max_length`` bytes, without
            inflating much past the bound.
    """

    name: str
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]
    decompress_bounded: Optional[Callable[[bytes, int], bytes]] = None

    def roundtrip(self, data: bytes) -> bytes:
        """Compress then decompress ``data`` (used by self-checks/tests)."""
        return self.decompress(self.compress(data))

    def decompress_at_most(self, data, max_length: int) -> bytes:
        """``decompress(data)``, or :class:`~repro.errors.CodecError` past ``max_length`` bytes.

        Uses the bounded decoder when the back-end has one.  Otherwise the
        data is decoded in full and the length is checked afterwards, which
        bounds what reaches the caller but not the decoder's own memory.

        Example:
            >>> len(get_backend("bz2").decompress_at_most(bz2.compress(bytes(64)), 64))
            64
            >>> get_backend("bz2").decompress_at_most(bz2.compress(bytes(64)), 8)
            Traceback (most recent call last):
            ...
            repro.errors.CodecError: bz2 data decompresses to more than 8 bytes
        """
        max_length = min(int(max_length), sys.maxsize - 1)
        if self.decompress_bounded is not None:
            return self.decompress_bounded(data, max_length)
        result = self.decompress(data)
        if len(result) > max_length:
            raise _overrun(self.name, max_length)
        return result


def _store_compress(data: bytes) -> bytes:
    return bytes(data)


def _store_decompress(data: bytes) -> bytes:
    return bytes(data)


def _store_decompress_bounded(data, max_length: int) -> bytes:
    if len(data) > max_length:
        raise _overrun("store", max_length)
    return bytes(data)


def _overrun(name: str, max_length: int) -> CodecError:
    return CodecError(f"{name} data decompresses to more than {max_length} bytes")


class _Budget:
    """Output bytes a group of decoders may still produce, shared across threads.

    A decoder asks for :meth:`cap` (one byte more than is left, so an
    overrun shows) before each call and reports what it produced through
    :meth:`spend`, which raises once the total passes the bound.  Decoders
    running at the same time may each overshoot by at most the bound before
    the first of them reports.  ``limit=None`` is unbounded.
    """

    def __init__(self, name: str, limit: Optional[int]) -> None:
        self.name = name
        self.limit = limit
        self.left = limit
        self._lock = threading.Lock()

    def cap(self) -> int:
        """``max_length`` for the next decoder call (``-1``: no bound)."""
        return -1 if self.left is None else max(self.left, 0) + 1

    def spend(self, produced: int) -> None:
        if self.left is None:
            return
        with self._lock:
            self.left -= produced
            if self.left < 0:
                raise _overrun(self.name, self.limit)


def _decode_streams(new_decoder: Callable, data, budget: _Budget) -> bytes:
    """Decode back-to-back compressed streams the way ``lzma.decompress`` does.

    Bytes after the last complete stream that do not start another stream
    are ignored, as in the stdlib; every decoder call is capped by
    ``budget``.
    """
    results = []
    while True:
        decoder = new_decoder()
        try:
            piece = decoder.decompress(data, budget.cap())
        except (OSError, lzma.LZMAError):
            if results:
                break  # trailing garbage after a complete stream
            raise
        budget.spend(len(piece))
        results.append(piece)
        if not decoder.eof:
            raise EOFError("Compressed data ended before the end-of-stream marker was reached")
        data = decoder.unused_data
        if not data:
            break
    return b"".join(results)


def _zlib_decompress_bounded(data, max_length: int) -> bytes:
    decoder = zlib.decompressobj()
    result = decoder.decompress(data, max_length + 1)
    if len(result) > max_length:
        raise _overrun("zlib", max_length)
    if not decoder.eof:
        raise zlib.error("incomplete or truncated stream")
    return result


def _lzma_decompress_bounded(data, max_length: int) -> bytes:
    return _decode_streams(lzma.LZMADecompressor, data, _Budget("lzma", max_length))


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


def _checked_decompress(name: str, decompress: Callable[..., bytes]) -> Callable[..., bytes]:
    """Translate a stdlib decompressor's raw errors into :class:`CodecError`.

    The stdlib codecs raise an inconsistent zoo on corrupt or truncated
    input (``OSError`` from bz2, ``zlib.error``, ``lzma.LZMAError``,
    ``EOFError``); callers up to and including the HTTP service rely on
    every deliberate library failure being a :class:`~repro.errors.ReproError`,
    so bad compressed bytes must surface as a codec error, not as what
    looks like a programming bug or an I/O failure.
    """

    def checked(data: bytes, *bound) -> bytes:
        try:
            return decompress(data, *bound)
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
    return b"".join(map_ordered(_compress_piece, pieces, workers=0))


def _compress_piece(piece) -> bytes:
    return bz2.compress(piece, compresslevel=9)


def _decompress_stream(segment, budget: _Budget) -> bytes:
    """Decode ``segment`` as exactly one complete bzip2 stream."""
    decompressor = bz2.BZ2Decompressor()
    result = decompressor.decompress(segment, budget.cap())
    budget.spend(len(result))
    if not decompressor.eof or decompressor.unused_data:
        raise ValueError("segment is not exactly one bzip2 stream")
    return result


def _bz2_decompress(data, max_length: Optional[int] = None) -> bytes:
    """Decode concatenated bzip2 streams, each on its own core.

    Every level-9 stream starts with ``BZh91AY&SY``.  A false match inside
    a stream leaves the segment before it without its end-of-stream
    marker, so that segment fails :func:`_decompress_stream`; any failure
    falls back to one serial pass over the streams, as ``bz2.decompress``
    makes.  The result is therefore always exactly the serial one.  With
    ``max_length`` every stream decoder draws on one shared budget of that
    many bytes and an overrun raises :class:`~repro.errors.CodecError`.
    """
    payload = data if isinstance(data, bytes) else bytes(data)
    if not payload:
        return b""  # like bz2.decompress
    bounds = [0]
    found = payload.find(_BZ2_STREAM_START, 1)
    while found != -1:
        bounds.append(found)
        found = payload.find(_BZ2_STREAM_START, found + 1)
    if len(bounds) > 1:
        view = memoryview(payload)
        bounds.append(len(payload))
        segments = [view[low:high] for low, high in zip(bounds, bounds[1:])]
        budget = _Budget("bz2", max_length)
        try:
            pieces = map_ordered(partial(_decompress_stream, budget=budget), segments, workers=0)
            return b"".join(pieces)
        except (OSError, EOFError, ValueError):
            pass
    return _decode_streams(bz2.BZ2Decompressor, payload, _Budget("bz2", max_length))


_checked_bz2 = _checked_decompress("bz2", _bz2_decompress)
register_backend(
    CompressionBackend(
        name="bz2",
        compress=_bz2_compress,
        decompress=_checked_bz2,
        decompress_bounded=_checked_bz2,
    )
)
# "gz" accepts the paper's gzip-style name; "xz" the modern lzma name.
register_backend(
    CompressionBackend(
        name="zlib",
        compress=lambda data: zlib.compress(data, 9),
        decompress=_checked_decompress("zlib", zlib.decompress),
        decompress_bounded=_checked_decompress("zlib", _zlib_decompress_bounded),
    ),
    aliases=("gz",),
)
register_backend(
    CompressionBackend(
        name="lzma",
        compress=lambda data: lzma.compress(data, preset=6),
        decompress=_checked_decompress("lzma", lzma.decompress),
        decompress_bounded=_checked_decompress("lzma", _lzma_decompress_bounded),
    ),
    aliases=("xz",),
)
register_backend(
    CompressionBackend(
        name="store",
        compress=_store_compress,
        decompress=_store_decompress,
        decompress_bounded=_store_decompress_bounded,
    )
)
