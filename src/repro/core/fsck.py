"""Integrity scrubbing and salvage for on-disk ATC storage (``repro fsck``).

Every durable artifact this library writes can be checked and, where
possible, healed:

* **Containers** — :func:`scrub_container` verifies the INFO footer and
  every chunk digest of a format-v2 container (and attempts decompression
  for digestless v1 chunks), localising damage to chunk granularity;
  :func:`repair_container` salvages every intact chunk into a new, valid
  partial container whose metadata carries a damage report.
* **Result stores** — :func:`scrub_store` verifies the embedded
  self-digest of every ``ResultStore`` entry.
* **Cache roots** — :func:`scrub_cache_root` walks a service
  ``ContainerCache`` (an ``index/`` store plus ``containers/`` of packed
  containers) and scrubs both halves.

:func:`scrub_path` dispatches on what the path looks like, and the CLI's
``repro fsck`` subcommand is a thin formatter over these functions.
Scrubbing is strictly read-only; only an explicit repair mutates anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.core.container import AtcContainer
from repro.core.integrity import ENTRY_DIGEST_KEY, chunk_digest, parse_chunk_digests
from repro.core.intervals import chunk_lengths
from repro.core.lossless import LosslessCodec
from repro.errors import CodecError, ContainerError, IntegrityError

__all__ = [
    "ChunkStatus",
    "ContainerScrub",
    "EntryStatus",
    "StoreScrub",
    "ScrubReport",
    "RepairReport",
    "scrub_container",
    "repair_container",
    "scrub_store",
    "scrub_cache_root",
    "scrub_path",
]

#: Key under which a ``ResultStore`` entry embeds its own digest
#: (re-exported from :mod:`repro.core.integrity` for callers of the
#: scrubbers that want to strip or inspect it).
STORE_DIGEST_KEY = ENTRY_DIGEST_KEY


@dataclass(frozen=True)
class ChunkStatus:
    """Verdict for one chunk file of a scrubbed container.

    ``status`` is one of ``ok``, ``digest-mismatch``, ``corrupt`` (fails to
    decompress), ``unreadable`` (I/O error) or ``missing``; ``detail``
    carries the human-readable specifics (expected/found digests, the
    codec error, ...).
    """

    chunk_id: int
    file: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ContainerScrub:
    """Result of scrubbing one container: INFO verdict + per-chunk verdicts."""

    path: str
    format_version: int = 0
    info_status: str = "ok"
    info_detail: str = ""
    chunks: List[ChunkStatus] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.info_status == "ok" and all(chunk.ok for chunk in self.chunks)

    @property
    def damaged_chunks(self) -> List[ChunkStatus]:
        return [chunk for chunk in self.chunks if not chunk.ok]

    def to_json(self) -> Dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "format_version": self.format_version,
            "info": {"status": self.info_status, "detail": self.info_detail},
            "chunks": [
                {
                    "chunk_id": chunk.chunk_id,
                    "file": chunk.file,
                    "status": chunk.status,
                    "detail": chunk.detail,
                }
                for chunk in self.chunks
            ],
        }


@dataclass(frozen=True)
class EntryStatus:
    """Verdict for one ``ResultStore`` entry (``ok``/``legacy``/``corrupt``/
    ``digest-mismatch``; legacy = a pre-integrity entry with no digest)."""

    file: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "legacy")


@dataclass
class StoreScrub:
    """Result of scrubbing a ``ResultStore`` directory."""

    path: str
    entries: List[EntryStatus] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    @property
    def damaged_entries(self) -> List[EntryStatus]:
        return [entry for entry in self.entries if not entry.ok]

    def to_json(self) -> Dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "entries": [
                {"file": entry.file, "status": entry.status, "detail": entry.detail}
                for entry in self.entries
            ],
        }


@dataclass
class ScrubReport:
    """Top-level ``repro fsck`` result: what the path was, and every verdict."""

    path: str
    kind: str  # "container" | "store" | "cache"
    containers: List[ContainerScrub] = field(default_factory=list)
    stores: List[StoreScrub] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.containers) and all(s.ok for s in self.stores)

    def to_json(self) -> Dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "ok": self.ok,
            "containers": [c.to_json() for c in self.containers],
            "stores": [s.to_json() for s in self.stores],
        }


@dataclass
class RepairReport:
    """What :func:`repair_container` salvaged and what it had to drop."""

    source: str
    destination: str
    salvaged_chunks: List[int]
    dropped_chunks: List[int]
    records_kept: int
    records_dropped: int
    salvaged_addresses: int
    original_addresses: int

    def to_json(self) -> Dict:
        return {
            "source": self.source,
            "destination": self.destination,
            "salvaged_chunks": self.salvaged_chunks,
            "dropped_chunks": self.dropped_chunks,
            "records_kept": self.records_kept,
            "records_dropped": self.records_dropped,
            "salvaged_addresses": self.salvaged_addresses,
            "original_addresses": self.original_addresses,
        }


def scrub_container(path) -> ContainerScrub:
    """Verify one container end to end without decoding it.

    The INFO stream is read (which for v2 verifies the footer digest), then
    every chunk file is checked: against its recorded digest for v2, by
    attempted decompression for digestless v1 chunks, and in both against
    the address count its interval record gives.  Damage never raises
    — it is localised into the returned :class:`ContainerScrub` — but a
    path that is not a container at all raises :class:`ContainerError`.
    """
    path = Path(path)
    container = AtcContainer.open(path)
    scrub = ContainerScrub(path=str(path))
    try:
        metadata, records = container.read_info()
    except IntegrityError as exc:
        scrub.info_status = "corrupt"
        scrub.info_detail = str(exc)
        return scrub
    except ContainerError as exc:
        scrub.info_status = "malformed"
        scrub.info_detail = str(exc)
        return scrub
    scrub.format_version = metadata.get("format_version", 1)
    digests = parse_chunk_digests(metadata)
    codec = LosslessCodec(
        buffer_addresses=metadata.get("chunk_buffer_addresses", 1_000_000),
        backend=container.backend,
    )
    lengths = chunk_lengths(records)
    referenced = sorted(
        {record.chunk_id for record in records}
        | set(container.chunk_ids())
        | set(digests)
    )
    for chunk_id in referenced:
        target = container.chunk_path(chunk_id)
        file_name = target.name
        if not target.exists():
            scrub.chunks.append(ChunkStatus(chunk_id, file_name, "missing"))
            continue
        try:
            payload = target.read_bytes()
        except OSError as exc:
            scrub.chunks.append(ChunkStatus(chunk_id, file_name, "unreadable", str(exc)))
            continue
        expected = digests.get(chunk_id)
        if expected is not None:
            actual = chunk_digest(payload)
            if actual != expected:
                scrub.chunks.append(
                    ChunkStatus(
                        chunk_id,
                        file_name,
                        "digest-mismatch",
                        f"recorded {expected}, found {actual}",
                    )
                )
                continue
            try:
                LosslessCodec.read_header(payload, lengths.get(chunk_id))
            except CodecError as exc:
                scrub.chunks.append(ChunkStatus(chunk_id, file_name, "corrupt", str(exc)))
                continue
            scrub.chunks.append(ChunkStatus(chunk_id, file_name, "ok"))
            continue
        # v1 chunk: no digest recorded, so decompression is the only check.
        try:
            codec.decompress(payload, lengths.get(chunk_id))
        except CodecError as exc:
            scrub.chunks.append(ChunkStatus(chunk_id, file_name, "corrupt", str(exc)))
            continue
        scrub.chunks.append(ChunkStatus(chunk_id, file_name, "ok"))
    return scrub


def repair_container(source, destination) -> RepairReport:
    """Salvage every intact chunk of a damaged container into a new one.

    The destination is a *valid* partial container: all intact chunk files
    are copied verbatim, and the interval trace keeps its longest prefix of
    records whose chunks survived — so the salvaged container decodes to
    exactly the intact prefix of the original trace, byte-identically.  The
    rewritten INFO is format v2 with fresh digests, and its metadata gains
    a ``"salvage"`` damage report (readers ignore unknown keys).

    Raises :class:`IntegrityError` when the INFO stream itself is damaged
    (there is nothing to guide a salvage) and :class:`ContainerError` when
    the source is not a container.
    """
    source = Path(source)
    destination = Path(destination)
    scrub = scrub_container(source)
    if scrub.info_status != "ok":
        raise IntegrityError(
            f"{source}: INFO stream is damaged ({scrub.info_detail}); nothing can be salvaged",
            path=source,
        )
    container = AtcContainer.open(source)
    metadata, records = container.read_info()
    good = {chunk.chunk_id for chunk in scrub.chunks if chunk.ok}
    bad = sorted({chunk.chunk_id for chunk in scrub.chunks if not chunk.ok})

    kept = []
    for record in records:
        if record.chunk_id not in good:
            break
        kept.append(record)
    salvaged_addresses = sum(record.length for record in kept)

    out = AtcContainer(destination, backend=container.backend, create=True)
    digests: Dict[int, str] = {}
    for chunk_id in sorted(good):
        payload = container.read_chunk(chunk_id)
        out.write_chunk(chunk_id, payload)
        digests[chunk_id] = chunk_digest(payload)

    new_metadata = dict(metadata)
    new_metadata["format_version"] = 2
    new_metadata["original_length"] = salvaged_addresses
    new_metadata["num_chunks"] = len(digests)
    new_metadata["chunk_digests"] = {
        str(chunk_id): digest for chunk_id, digest in sorted(digests.items())
    }
    new_metadata["salvage"] = {
        "source": str(source),
        "original_length": metadata.get("original_length", 0),
        "damaged_chunks": bad,
        "records_dropped": len(records) - len(kept),
    }
    out.write_info(new_metadata, kept)
    return RepairReport(
        source=str(source),
        destination=str(destination),
        salvaged_chunks=sorted(good),
        dropped_chunks=bad,
        records_kept=len(kept),
        records_dropped=len(records) - len(kept),
        salvaged_addresses=int(salvaged_addresses),
        original_addresses=metadata.get("original_length", 0),
    )


def scrub_store(path) -> StoreScrub:
    """Verify every ``<sha256>.json`` entry of a ``ResultStore`` directory.

    Entries written since the integrity layer embed a self-digest
    (:data:`STORE_DIGEST_KEY`) over their canonical JSON encoding; older
    entries without one are reported as ``legacy`` (readable, unverified).
    """
    from repro.core.integrity import json_digest

    path = Path(path)
    scrub = StoreScrub(path=str(path))
    for entry in sorted(path.glob("*.json")):
        try:
            payload = json.loads(entry.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            scrub.entries.append(EntryStatus(entry.name, "corrupt", str(exc)))
            continue
        if not isinstance(payload, dict):
            scrub.entries.append(EntryStatus(entry.name, "corrupt", "entry is not an object"))
            continue
        expected = payload.pop(STORE_DIGEST_KEY, None)
        if expected is None:
            scrub.entries.append(EntryStatus(entry.name, "legacy"))
            continue
        actual = json_digest(payload)
        if actual != expected:
            scrub.entries.append(
                EntryStatus(entry.name, "digest-mismatch", f"recorded {expected}, found {actual}")
            )
            continue
        scrub.entries.append(EntryStatus(entry.name, "ok"))
    return scrub


def _scrub_member(path: Path) -> ContainerScrub:
    """Scrub one container of a store or cache root.

    A member whose ``INFO.<name>`` names no back-end cannot be opened; it
    is reported as a damaged container instead of aborting the whole scrub.
    """
    try:
        return scrub_container(path)
    except ContainerError as exc:
        return ContainerScrub(path=str(path), info_status="malformed", info_detail=str(exc))


def scrub_cache_root(path) -> ScrubReport:
    """Scrub a service ``ContainerCache`` root (``index/`` + ``containers/``)."""
    path = Path(path)
    report = ScrubReport(path=str(path), kind="cache")
    index = path / "index"
    if index.is_dir():
        report.stores.append(scrub_store(index))
    containers = path / "containers"
    if containers.is_dir():
        for entry in sorted(containers.iterdir()):
            if entry.is_dir() and AtcContainer.detect_suffix(entry) is not None:
                report.containers.append(_scrub_member(entry))
    return report


def scrub_path(path) -> ScrubReport:
    """Scrub whatever ``path`` is: a container, a store, or a cache root.

    Dispatch: a directory holding an ``INFO.<backend>`` stream is a
    container; one with ``index/`` and ``containers/`` subdirectories is a
    service cache root; one holding ``<hash>.json`` entries (or nothing
    but container subdirectories) is a result store.  Anything else raises
    :class:`ContainerError`.
    """
    path = Path(path)
    if not path.is_dir():
        raise ContainerError(f"{path} is not an ATC container (not a directory)")
    if AtcContainer.detect_suffix(path) is not None:
        report = ScrubReport(path=str(path), kind="container")
        report.containers.append(scrub_container(path))
        return report
    if (path / "index").is_dir() and (path / "containers").is_dir():
        return scrub_cache_root(path)
    json_entries = any(path.glob("*.json"))
    sub_containers = [
        entry
        for entry in sorted(path.iterdir())
        if entry.is_dir() and AtcContainer.detect_suffix(entry) is not None
    ]
    if json_entries or sub_containers:
        report = ScrubReport(path=str(path), kind="store")
        if json_entries:
            report.stores.append(scrub_store(path))
        for entry in sub_containers:
            report.containers.append(_scrub_member(entry))
        return report
    raise ContainerError(
        f"{path} is not an ATC container, result store or cache directory"
    )
