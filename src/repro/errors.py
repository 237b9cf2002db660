"""Exception hierarchy shared by every subsystem of the reproduction.

All errors raised deliberately by the library derive from :class:`ReproError`
so callers can catch library failures without also catching programming
errors (``TypeError``, ``KeyError`` ...) that indicate bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class TraceFormatError(ReproError):
    """A raw or compressed trace is malformed or truncated."""


class ContainerError(ReproError):
    """An on-disk ATC container (chunk directory) is invalid or corrupt."""


class IntegrityError(ContainerError):
    """Stored bytes failed an integrity check (digest mismatch, truncation).

    Raised by every decode path — :meth:`AtcDecoder.iter_chunks`, the chunk
    LRU cache, parallel prefetch, the HTTP service — when on-disk bytes do
    not match the digests recorded in a format-v2 container, or when a
    chunk/INFO stream fails to decompress at all.  Carries the damage
    location so callers (``repro fsck``, the quarantine layer) can localise
    it without re-parsing the message:

    Attributes:
        path: Path of the damaged file, when known.
        chunk_id: Zero-based chunk id of the damaged chunk, or ``None`` for
            INFO/footer damage.
        offset: Byte offset of the damage within the file, when it can be
            determined (e.g. the observed length of a truncated stream).
    """

    def __init__(self, message, path=None, chunk_id=None, offset=None):
        super().__init__(message)
        self.path = str(path) if path is not None else None
        self.chunk_id = chunk_id
        self.offset = offset


class CodecError(ReproError):
    """A compressor or decompressor was used incorrectly or hit bad data."""


class ConfigurationError(ReproError):
    """A simulator, workload or codec received an invalid configuration."""


class BenchmarkError(ReproError):
    """A benchmark report is malformed or a comparison was set up wrongly.

    Raised by :mod:`repro.bench` when a report fails schema validation or
    when two reports cannot be compared (e.g. they were run at different
    scales).  A *regression* is not an error — the comparator reports it as
    a failed check so callers can render every verdict before exiting.
    """


class ServiceError(ReproError):
    """The HTTP service (:mod:`repro.service`) was misconfigured or misused.

    Covers server-side configuration problems (invalid limits, an unusable
    cache directory) and service-internal protocol violations.  Client-side
    problems — malformed requests, bad container uploads — are mapped to
    4xx responses by the request dispatcher instead of raising."""
