"""On-disk ATC container: a directory of compressed chunks plus INFO.

The paper's compressor stores a trace as a directory (Figure 8)::

    foobar/1.bz2        first chunk, bytesorted then bzip2-compressed
    foobar/2.bz2        second chunk (if any)
    ...
    foobar/INFO.bz2     metadata + the interval trace (byte translations)

This module reproduces that layout.  ``INFO`` holds a small JSON header
(mode, configuration, original trace length) followed by the binary
*interval trace*: one record per interval saying either "this interval is
chunk ``k``" or "imitate chunk ``k`` with these byte translations".  Both
parts are compressed together with the same back-end as the chunks.

Binary interval-record layout (little endian)::

    kind      u8      0 = chunk, 1 = imitate
    chunk_id  u32
    length    u32     number of addresses in the interval
    [imitate only]
    active    u8      bit j set = byte order j is translated
    t[0..7]   8*256 bytes   byte translation tables (always all 8 rows,
                            "translations are completely described with
                            8 x 256 bytes" — paper, Section 5.2)
"""

from __future__ import annotations

import json
import re
import struct
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.backend import CompressionBackend, get_backend
from repro.core.integrity import FOOTER_BYTES, footer_digest, parse_chunk_digests, verify_chunk_payload
from repro.core.intervals import IntervalRecord, chunk_lengths
from repro.errors import CodecError, ConfigurationError, ContainerError, IntegrityError

__all__ = [
    "FORMAT_VERSION",
    "AtcContainer",
    "serialize_interval_trace",
    "deserialize_interval_trace",
]

_RECORD_FIXED = struct.Struct("<BII")
_TRANSLATION_BYTES = 8 * 256
_INFO_MAGIC_V1 = b"ATCINFO1"
_INFO_MAGIC_V2 = b"ATCINFO2"

#: Container format version the encoder writes (v2 = per-chunk digests +
#: INFO footer digest).  v1, the original unchecked layout, is readable
#: but no longer writable.
FORMAT_VERSION = 2


def serialize_interval_trace(records: List[IntervalRecord]) -> bytes:
    """Serialise interval records to the binary layout described above."""
    out = bytearray()
    for record in records:
        kind_code = 0 if record.kind == "chunk" else 1
        out.extend(_RECORD_FIXED.pack(kind_code, record.chunk_id, record.length))
        if kind_code == 1:
            active = 0
            active_bytes = np.asarray(record.active_bytes, dtype=bool)
            for j in range(8):
                if active_bytes[j]:
                    active |= 1 << j
            out.append(active)
            translations = np.asarray(record.translations, dtype=np.uint8)
            if translations.shape != (8, 256):
                raise ContainerError("translations must be an (8, 256) byte table")
            out.extend(translations.tobytes())
    return bytes(out)


def deserialize_interval_trace(payload: bytes) -> List[IntervalRecord]:
    """Invert :func:`serialize_interval_trace`."""
    records: List[IntervalRecord] = []
    offset = 0
    total = len(payload)
    while offset < total:
        if offset + _RECORD_FIXED.size > total:
            raise ContainerError("interval trace is truncated (incomplete record header)")
        kind_code, chunk_id, length = _RECORD_FIXED.unpack_from(payload, offset)
        offset += _RECORD_FIXED.size
        if kind_code == 0:
            records.append(IntervalRecord(kind="chunk", chunk_id=chunk_id, length=length))
            continue
        if kind_code != 1:
            raise ContainerError(f"invalid interval record kind byte {kind_code}")
        if offset + 1 + _TRANSLATION_BYTES > total:
            raise ContainerError("interval trace is truncated (incomplete imitation record)")
        active_bits = payload[offset]
        offset += 1
        active = np.array([(active_bits >> j) & 1 == 1 for j in range(8)], dtype=bool)
        translations = (
            np.frombuffer(payload[offset : offset + _TRANSLATION_BYTES], dtype=np.uint8)
            .reshape(8, 256)
            .copy()
        )
        offset += _TRANSLATION_BYTES
        records.append(
            IntervalRecord(
                kind="imitate",
                chunk_id=chunk_id,
                length=length,
                active_bytes=active,
                translations=translations,
            )
        )
    return records


#: INFO metadata fields that readers act on, with the JSON type each must have.
_METADATA_TYPES = {
    "backend": str,
    "chunk_buffer_addresses": int,
    "chunk_digests": dict,
    "format_version": int,
    "interval_length": int,
    "original_length": int,
}


def _check_metadata(metadata: Dict, version: int, target: Path) -> None:
    """Reject INFO metadata whose fields readers act on are unusable.

    A v2 footer digest is a checksum, not a signature: a rewritten INFO
    with a recomputed footer can carry any JSON.  So the fields readers
    act on are checked once, here, instead of trusted by every reader:
    their types (``bool`` is not an ``int``), ``format_version`` against
    the stream's magic, the two counts' ranges, and the ``chunk_digests``
    table, which a v2 stream must carry (dropping it would silently turn
    chunk verification off).
    """
    for key, kind in _METADATA_TYPES.items():
        if key in metadata and type(metadata[key]) is not kind:
            raise ContainerError(
                f"{target}: INFO metadata field {key!r} is not a JSON {kind.__name__}: "
                f"{metadata[key]!r:.60}"
            )
    if metadata.get("format_version", 1) != version:
        raise ContainerError(
            f"{target}: INFO metadata claims format_version {metadata['format_version']} "
            f"in a v{version} stream"
        )
    if version == 2 and "chunk_digests" not in metadata:
        raise ContainerError(f"{target}: v2 INFO metadata has no chunk_digests table")
    if metadata.get("chunk_buffer_addresses", 1) < 1 or metadata.get("original_length", 0) < 0:
        raise ContainerError(f"{target}: INFO metadata holds a negative or zero count")
    try:
        parse_chunk_digests(metadata)
    except IntegrityError as exc:
        raise IntegrityError(f"{target}: {exc}", path=target) from exc


class AtcContainer:
    """Reader/writer for the on-disk chunk-directory format.

    Every file suffix is the back-end's canonical name, like the paper's
    ``1.bz2``; :meth:`open` resolves an existing container's back-end from
    its ``INFO.<name>`` stream.

    Args:
        path: Directory that holds (or will hold) the compressed trace.
        backend: Byte-level back-end used for the INFO stream; chunk payloads
            are written verbatim (they are already compressed by the chunk
            codec), the back-end name only determines the file suffix.
        create: Create the directory (must not already contain a container).
    """

    INFO_BASENAME = "INFO"

    def __init__(self, path, backend="bz2", create: bool = False) -> None:
        self.path = Path(path)
        self.backend: CompressionBackend = get_backend(backend)
        if create:
            self.path.mkdir(parents=True, exist_ok=True)
            if self._info_path().exists():
                raise ContainerError(f"{self.path} already contains an ATC container")
        elif not self.path.is_dir():
            raise ContainerError(
                f"{self.path} is not an ATC container (not a directory of chunks)"
            )

    @classmethod
    def open(cls, path) -> "AtcContainer":
        """Open an existing container on the back-end its ``INFO.<name>`` names.

        Raises:
            ContainerError: ``path`` holds no INFO stream, or its suffix is
                not a back-end's canonical name.
        """
        name = cls.detect_suffix(path)
        if name is None:
            raise ContainerError(f"{path} is not an ATC container (no INFO.<backend> stream)")
        try:
            canonical = get_backend(name).name
        except ConfigurationError:
            canonical = None
        if canonical != name:
            raise ContainerError(
                f"{path} is not an ATC container (INFO.{name} names no back-end)"
            )
        return cls(path, backend=name)

    @classmethod
    def detect_suffix(cls, path) -> Optional[str]:
        """Return the file suffix of an existing container's INFO stream, if any.

        Looks for the ``INFO.<suffix>`` stream; returns ``None`` when the
        directory does not contain one (not a container, or not written yet).
        """
        directory = Path(path)
        if not directory.is_dir():
            return None
        for entry in directory.iterdir():
            if entry.is_file() and entry.name.startswith(f"{cls.INFO_BASENAME}."):
                return entry.name[len(cls.INFO_BASENAME) + 1 :]
        return None

    # -- paths --------------------------------------------------------------------------
    @property
    def suffix(self) -> str:
        """The suffix of every file in the container: the back-end's canonical name."""
        return self.backend.name

    def _info_path(self) -> Path:
        return self.path / f"{self.INFO_BASENAME}.{self.suffix}"

    def chunk_path(self, chunk_id: int) -> Path:
        """The file of chunk ``chunk_id``: 1-indexed, like the paper's ``foobar/1.bz2``."""
        return self.path / f"{chunk_id + 1}.{self.suffix}"

    # -- chunks --------------------------------------------------------------------------
    def write_chunk(self, chunk_id: int, payload: bytes) -> Path:
        """Write one chunk payload; returns the file path."""
        if chunk_id < 0:
            raise ContainerError("chunk ids must be non-negative")
        target = self.chunk_path(chunk_id)
        target.write_bytes(payload)
        return target

    def read_chunk(self, chunk_id: int, expected_digest: Optional[str] = None) -> bytes:
        """Read one chunk payload, verifying its recorded digest if given.

        With ``expected_digest`` (from a format-v2 ``chunk_digests`` table)
        the raw file bytes are checked before they reach any decompressor,
        so corruption raises :class:`~repro.errors.IntegrityError` instead
        of surfacing as a codec failure — or worse, decoding silently.
        """
        target = self.chunk_path(chunk_id)
        if not target.exists():
            raise ContainerError(f"missing chunk file {target}")
        try:
            payload = target.read_bytes()
        except OSError as exc:
            raise IntegrityError(
                f"{target}: I/O error reading chunk {chunk_id + 1}: {exc}",
                path=target,
                chunk_id=chunk_id,
            ) from exc
        return verify_chunk_payload(payload, expected_digest, path=target, chunk_id=chunk_id)

    def chunk_ids(self) -> List[int]:
        """Chunk ids present on disk, sorted."""
        pattern = re.compile(rf"^(\d+)\.{re.escape(self.suffix)}$")
        ids = []
        for entry in self.path.iterdir():
            match = pattern.match(entry.name)
            if match:
                ids.append(int(match.group(1)) - 1)
        return sorted(ids)

    # -- INFO ----------------------------------------------------------------------------
    def write_info(self, metadata: Dict, records: List[IntervalRecord]) -> Path:
        """Write the INFO stream (JSON metadata + binary interval trace).

        The format version comes from ``metadata["format_version"]`` (v1
        when absent): v1 bodies start with ``ATCINFO1`` and end after the
        interval trace; v2 bodies start with ``ATCINFO2`` and append the
        32-byte SHA-256 of every preceding body byte as a footer, all
        inside the compressed stream.
        """
        version = metadata.get("format_version", 1)
        if type(version) is not int or version not in (1, 2):
            raise ContainerError(f"unsupported container format version {version!r}")
        header = json.dumps(metadata, sort_keys=True).encode("utf-8")
        interval_payload = serialize_interval_trace(records)
        body = (
            (_INFO_MAGIC_V2 if version == 2 else _INFO_MAGIC_V1)
            + struct.pack("<I", len(header))
            + header
            + struct.pack("<I", len(interval_payload))
            + interval_payload
        )
        if version == 2:
            body += footer_digest(body)
        target = self._info_path()
        target.write_bytes(self.backend.compress(body))
        return target

    def read_info(self) -> Tuple[Dict, List[IntervalRecord]]:
        """Read the INFO stream; returns ``(metadata, interval_records)``.

        Reads both format versions.  For v2 the footer digest is verified
        before anything is parsed, so a corrupted INFO raises
        :class:`~repro.errors.IntegrityError`; a stream that is not an ATC
        INFO at all (bad magic, truncated header), whose metadata fails
        :func:`_check_metadata`, whose interval records do not add up to
        ``original_length``, whose chunk records outgrow the chunk unit,
        or whose imitate records replay more addresses than the chunk
        record they imitate stores (or a chunk no record stores) raises a
        plain :class:`~repro.errors.ContainerError` naming the file, before
        any chunk is read.
        """
        target = self._info_path()
        if not target.exists():
            raise ContainerError(f"{self.path} has no {target.name}; not an ATC container?")
        try:
            raw = target.read_bytes()
        except OSError as exc:
            raise IntegrityError(f"{target}: I/O error reading INFO: {exc}", path=target) from exc
        try:
            body = self.backend.decompress(raw)
        except CodecError as exc:
            raise IntegrityError(
                f"{target}: INFO stream fails to decompress "
                f"(corrupt, or not an ATC container): {exc}",
                path=target,
            ) from exc
        if body.startswith(_INFO_MAGIC_V2):
            if len(body) < len(_INFO_MAGIC_V2) + FOOTER_BYTES:
                raise IntegrityError(
                    f"{target}: INFO stream is truncated (no footer digest)",
                    path=target,
                    offset=len(body),
                )
            payload, footer = body[:-FOOTER_BYTES], body[-FOOTER_BYTES:]
            if footer_digest(payload) != footer:
                raise IntegrityError(
                    f"{target}: INFO footer digest mismatch (metadata is corrupt)",
                    path=target,
                )
            metadata, records = self._parse_info_body(payload, len(_INFO_MAGIC_V2), target)
            _check_metadata(metadata, 2, target)
        elif body.startswith(_INFO_MAGIC_V1):
            metadata, records = self._parse_info_body(body, len(_INFO_MAGIC_V1), target)
            _check_metadata(metadata, 1, target)
        else:
            raise ContainerError(f"{target}: INFO stream has an unknown magic; not an ATC container")
        if "original_length" in metadata:
            recorded = sum(record.length for record in records)
            if recorded != metadata["original_length"]:
                raise ContainerError(
                    f"{target}: INFO interval records cover {recorded} addresses but "
                    f"original_length is {metadata['original_length']}"
                )
        # a chunk holds one interval (lossy) or one bytesort buffer (lossless)
        unit_key = "interval_length" if metadata.get("mode") == "lossy" else "chunk_buffer_addresses"
        unit = metadata.get(unit_key)
        stored = chunk_lengths(records)
        for index, record in enumerate(records):
            if record.kind != "imitate":
                if unit is not None and record.length > unit:
                    raise ContainerError(
                        f"{target}: INFO record {index} stores {record.length} addresses in "
                        f"chunk {record.chunk_id + 1}, more than the {unit_key} of {unit}"
                    )
                continue
            if record.chunk_id not in stored:
                raise ContainerError(
                    f"{target}: INFO record {index} imitates chunk {record.chunk_id + 1}, "
                    f"which no chunk record stores"
                )
            if record.length > stored[record.chunk_id]:
                raise ContainerError(
                    f"{target}: INFO record {index} imitates {record.length} addresses of "
                    f"chunk {record.chunk_id + 1}, which stores only {stored[record.chunk_id]}"
                )
        return metadata, records

    def _parse_info_body(self, body: bytes, offset: int, target: Path) -> Tuple[Dict, List[IntervalRecord]]:
        """Parse the header + interval trace of a decompressed INFO body.

        Every length field is bounds-checked so a truncated body raises
        :class:`~repro.errors.ContainerError` naming the file, never a raw
        ``struct.error`` or ``json.JSONDecodeError``.
        """
        try:
            (header_length,) = struct.unpack_from("<I", body, offset)
            offset += 4
            if offset + header_length > len(body):
                raise ContainerError(
                    f"{target}: INFO stream is truncated mid-header; not an ATC container"
                )
            metadata = json.loads(body[offset : offset + header_length].decode("utf-8"))
            offset += header_length
            (interval_length,) = struct.unpack_from("<I", body, offset)
            offset += 4
            if offset + interval_length > len(body):
                raise ContainerError(
                    f"{target}: INFO interval trace is truncated; not an ATC container"
                )
            records = deserialize_interval_trace(body[offset : offset + interval_length])
        except ContainerError:
            raise
        except (struct.error, ValueError, UnicodeDecodeError) as exc:
            # json.JSONDecodeError is a ValueError; struct.error covers the
            # two fixed-width length fields when the body ends early.
            raise ContainerError(
                f"{target}: INFO stream is truncated or malformed "
                f"({exc}); not an ATC container"
            ) from exc
        if not isinstance(metadata, dict):
            raise ContainerError(f"{target}: INFO metadata is not a JSON object")
        return metadata, records

    # -- sizes ----------------------------------------------------------------------------
    def total_bytes(self) -> int:
        """Total on-disk size of the container (chunks + INFO)."""
        total = 0
        for entry in self.path.iterdir():
            if entry.is_file():
                total += entry.stat().st_size
        return total

    def exists(self) -> bool:
        """True when the directory contains an INFO stream."""
        return self._info_path().exists()
