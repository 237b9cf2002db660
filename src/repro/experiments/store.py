"""On-disk result cache for sweep units, keyed by content hash.

A :class:`ResultStore` is a directory of ``<sha256>.json`` files, one per
completed grid cell.  The hash covers the resolved unit parameters *and* the
code version (see :meth:`~repro.experiments.plan.ExperimentUnit.unit_hash`),
so a stored result is returned only when both the cell and the code that
produced it are unchanged — re-running a sweep skips completed cells, a
resumed sweep picks up exactly where it stopped, and editing a parameter
invalidates exactly the affected cells.

Entries are small JSON documents (the measured metrics plus the unit's own
description for human inspection), so the cache is diff-able and safe to
prune by hand.

Example:
    >>> import tempfile
    >>> store = ResultStore(tempfile.mkdtemp())
    >>> key = "ab" * 32
    >>> store.get(key) is None
    True
    >>> store.put(key, {"bits_per_address": 1.5})
    >>> store.get(key)["bits_per_address"]
    1.5
    >>> store.size()
    1
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.integrity import ENTRY_DIGEST_KEY, json_digest
from repro.errors import ConfigurationError

__all__ = ["ResultStore", "DURABLE_FSYNC_ENV", "durable_fsync_enabled", "fsync_directory"]

_HASH_RE = re.compile(r"^[0-9a-f]{64}$")

#: Temp files older than this are considered crash debris by
#: :meth:`ResultStore.prune_tmp` (a live writer holds its temp file for
#: milliseconds, so an hour is conservative by orders of magnitude).
DEFAULT_TMP_MAX_AGE = 3600.0

#: Environment variable enabling fsync-on-commit for every durable store
#: (``ResultStore.put`` and the service cache commit).  Off by default:
#: atomic rename alone keeps the store *consistent* (an entry is either
#: old, new, or absent), but after a power loss a rename can survive while
#: the renamed file's *data* did not reach disk — a renamed-but-empty
#: entry.  Set to ``1`` to pay one fsync of the file and one of its
#: directory per commit and close that window.
DURABLE_FSYNC_ENV = "REPRO_DURABLE_FSYNC"

_tmp_counter = itertools.count()


def durable_fsync_enabled() -> bool:
    """True when :data:`DURABLE_FSYNC_ENV` requests fsync-on-commit."""
    return os.environ.get(DURABLE_FSYNC_ENV, "").strip().lower() in ("1", "true", "yes", "on")


def fsync_directory(directory) -> None:
    """fsync a directory so a completed rename inside it is durable."""
    fd = os.open(str(directory), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class ResultStore:
    """Directory-backed ``{unit_hash: result_dict}`` mapping.

    Args:
        directory: Cache directory; created on first write.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self._eviction_lock = threading.Lock()
        #: Entries quarantined by this store instance after failing their
        #: integrity check on read (each one was renamed aside, counted,
        #: and reported as a miss so the unit is recomputed).
        self.integrity_evictions = 0

    def _path(self, unit_hash: str) -> Path:
        if not _HASH_RE.match(unit_hash):
            raise ConfigurationError(f"malformed unit hash {unit_hash!r}")
        return self.directory / f"{unit_hash}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a failed entry aside (``<hash>.json.quarantine``) and count it.

        Renaming — not deleting — preserves the bad bytes for post-mortem
        (``repro fsck`` reports them) while guaranteeing the entry can
        never be served again; the next ``get`` is a clean miss.
        """
        try:
            path.replace(path.with_name(path.name + ".quarantine"))
        except OSError:
            # Racing another reader's quarantine (or the file vanished):
            # either way it is no longer servable, which is what matters.
            pass
        with self._eviction_lock:
            self.integrity_evictions += 1

    def get(self, unit_hash: str) -> Optional[Dict]:
        """Return the stored result for a hash, or ``None`` when absent.

        Every entry written since the integrity layer embeds its own digest
        (:data:`ENTRY_DIGEST_KEY`); an entry that fails to parse or fails
        its digest check is *quarantined* — renamed aside and counted in
        :attr:`integrity_evictions` — and reads as a miss, so the unit is
        recomputed rather than a corrupt result poisoning the sweep.
        Legacy digest-less entries are returned as-is.
        """
        path = self._path(unit_hash)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            # entry bytes are untrusted: invalid UTF-8, oversized integers
            # and nesting deep enough to exhaust the recursion limit are
            # corruption like any other parse failure
            data = json.loads(raw.decode("utf-8"))
            intact = isinstance(data, dict)
            if intact:
                expected = data.pop(ENTRY_DIGEST_KEY, None)
                intact = expected is None or json_digest(data) == expected
        except (ValueError, RecursionError):
            intact = False
        if not intact:
            self._quarantine(path)
            return None
        return data

    def put(self, unit_hash: str, result: Dict) -> None:
        """Store one result; the write is atomic (rename of a temp file).

        The temp name is unique per process, thread and call: concurrent
        writers of the *same* hash (two workers finishing one stolen unit
        at the same moment) each rename their own complete temp file onto
        the destination, so the store always holds one valid entry — the
        last rename wins — and no writer can trip over another's temp file.

        The entry embeds a digest over itself (:data:`ENTRY_DIGEST_KEY`)
        so later reads can detect corruption, and with
        :data:`DURABLE_FSYNC_ENV` set the file and directory are fsynced
        so a crash right after ``put`` cannot leave a renamed-but-empty
        entry.
        """
        path = self._path(unit_hash)
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = self.directory / (
            f"{unit_hash}.{os.getpid()}.{threading.get_ident()}.{next(_tmp_counter)}.tmp"
        )
        # Round-trip through JSON first so the digest is computed over
        # exactly what a later read will re-parse (tuples become lists,
        # NaN-free floats normalise, key order is canonicalised).
        payload = json.loads(json.dumps(result, sort_keys=True))
        payload[ENTRY_DIGEST_KEY] = json_digest(
            {key: value for key, value in payload.items() if key != ENTRY_DIGEST_KEY}
        )
        text = json.dumps(payload, sort_keys=True, indent=1)
        if durable_fsync_enabled():
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            tmp.replace(path)
            fsync_directory(self.directory)
        else:
            tmp.write_text(text, encoding="utf-8")
            tmp.replace(path)

    def __contains__(self, unit_hash: str) -> bool:
        """True when a *valid* entry exists for the hash.

        Goes through :meth:`get` rather than a bare ``exists()`` so that a
        corrupt entry reads as absent (and is quarantined on the spot) —
        this is what makes a distributed sweep *re-run* a unit whose
        stored result was damaged, instead of counting it complete and
        merging a hole.
        """
        return self.get(unit_hash) is not None

    def keys(self) -> List[str]:
        """Hashes of every stored result, sorted."""
        if not self.directory.is_dir():
            return []
        return sorted(
            path.stem for path in self.directory.glob("*.json") if _HASH_RE.match(path.stem)
        )

    def size(self) -> int:
        """Number of stored results."""
        return len(self.keys())

    def clear(self) -> int:
        """Delete every stored result; returns the number removed."""
        removed = 0
        for key in self.keys():
            self._path(key).unlink()
            removed += 1
        return removed

    def tmp_files(self) -> List[Path]:
        """Leftover ``*.tmp`` files (crash debris from interrupted writes)."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.tmp"))

    def quarantine_files(self) -> List[Path]:
        """Entries quarantined after failing their integrity check on read.

        Kept on disk for post-mortem; safe to delete once inspected (they
        are never read as results again).
        """
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.quarantine"))

    def prune_tmp(self, max_age_seconds: float = DEFAULT_TMP_MAX_AGE) -> int:
        """Remove temp files older than ``max_age_seconds``; returns the count.

        A crashed writer leaves its (uniquely named) temp file behind; a
        *live* writer holds one only for the instant between write and
        rename.  The age guard keeps pruning safe to run concurrently with
        active workers — pass ``0`` only when no worker can be writing.
        """
        removed = 0
        now = time.time()
        for tmp in self.tmp_files():
            try:
                if now - tmp.stat().st_mtime >= max_age_seconds:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue  # already gone, or racing a writer: both fine
        return removed
