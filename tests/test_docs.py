"""Tests of the documentation site: structure, links, and format-spec truth.

Two layers of enforcement:

* **Structure** — every page mkdocs.yml navigates to exists, and every
  relative markdown link inside ``docs/`` resolves to a real file/anchor
  target, so ``mkdocs build --strict`` cannot fail on the CI docs job for
  structural reasons the test suite would miss locally.
* **No stale names** — every backticked ``repro.…`` dotted path in the
  docs and README imports, and every code span that is an UPPER_SNAKE
  name (a constant or an environment variable) still occurs in the
  code, tests or CI (the "Measured and removed" table names deleted code
  on purpose and is exempt); the ``kind`` row of the sweep-spec reference
  lists exactly the codec kinds a spec accepts.
* **Spec truth** — ``docs/atc-format.md`` is a byte-level specification;
  this module re-parses the golden containers under ``tests/data/golden/``
  with an *independent* reader that follows the documented offsets and
  constants (never the library code) and checks the result against the
  library decoder.  If the format and the document drift apart, one of
  these tests fails.
"""

from __future__ import annotations

import bz2
import importlib
import json
import lzma
import re
import struct
import zlib
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent
_DOCS = _REPO / "docs"
_GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# Constants exactly as documented in docs/atc-format.md.
_INFO_MAGIC_V1 = b"ATCINFO1"
_INFO_MAGIC_V2 = b"ATCINFO2"
_FOOTER_BYTES = 32
_CHUNK_DIGEST_HEX = 16
_CHUNK_MAGIC = b"ATCL"
_RECORD_FIXED = struct.Struct("<BII")
_CHUNK_HEADER = struct.Struct("<4sBQQ")
_TRANSLATION_BYTES = 8 * 256
_DECOMPRESS = {"bz2": bz2.decompress, "zlib": zlib.decompress, "lzma": lzma.decompress}

_DOC_METADATA_KEYS_V1 = (
    "format",
    "format_version",
    "mode",
    "backend",
    "original_length",
    "interval_length",
    "threshold",
    "chunk_buffer_addresses",
    "enable_translation",
    "num_chunks",
)
# Format v2 adds exactly one key: the per-chunk digest table.
_DOC_METADATA_KEYS_V2 = _DOC_METADATA_KEYS_V1 + ("chunk_digests",)


def _golden_containers():
    """Top-level (format v2) golden containers — dirs holding an INFO stream."""
    return sorted(path for path in _GOLDEN.iterdir() if path.is_dir() and any(path.glob("INFO.*")))


def _golden_v1_containers():
    """The committed format-v1 twins under tests/data/golden/v1/."""
    return sorted(path for path in (_GOLDEN / "v1").iterdir() if path.is_dir())


def _container_suffix(container: Path) -> str:
    (info,) = container.glob("INFO.*")
    return info.name.split(".", 1)[1]


def _parse_info_per_spec(container: Path):
    """Parse INFO.<suffix> following docs/atc-format.md, not the library.

    Handles both documented format versions: v1 bodies start with
    ``ATCINFO1``; v2 bodies start with ``ATCINFO2`` and end with a 32-byte
    SHA-256 footer over every preceding body byte, verified here with
    ``hashlib`` alone.
    """
    import hashlib

    suffix = _container_suffix(container)
    body = _DECOMPRESS[suffix]((container / f"INFO.{suffix}").read_bytes())
    assert body[:8] in (_INFO_MAGIC_V1, _INFO_MAGIC_V2), "INFO must start with a documented magic"
    if body[:8] == _INFO_MAGIC_V2:
        payload, footer = body[:-_FOOTER_BYTES], body[-_FOOTER_BYTES:]
        assert hashlib.sha256(payload).digest() == footer, (
            "v2 footer is the SHA-256 of every preceding body byte"
        )
        body = payload
    (header_length,) = struct.unpack_from("<I", body, 8)
    metadata = json.loads(body[12 : 12 + header_length].decode("utf-8"))
    offset = 12 + header_length
    (interval_trace_length,) = struct.unpack_from("<I", body, offset)
    offset += 4
    interval_trace = body[offset : offset + interval_trace_length]
    assert offset + interval_trace_length == len(body), "no trailing bytes after interval trace"
    records = []
    position = 0
    while position < len(interval_trace):
        kind, chunk_id, length = _RECORD_FIXED.unpack_from(interval_trace, position)
        position += _RECORD_FIXED.size
        assert kind in (0, 1), "documented kinds are 0 (chunk) and 1 (imitate)"
        record = {"kind": kind, "chunk_id": chunk_id, "length": length}
        if kind == 1:
            record["active"] = interval_trace[position]
            position += 1 + _TRANSLATION_BYTES
        records.append(record)
    return metadata, records


class TestDocsStructure:
    def test_docs_directory_has_the_promised_pages(self):
        for page in ("index.md", "architecture.md", "paper-map.md", "atc-format.md",
                     "trace-formats.md", "workloads.md", "experiments.md",
                     "distributed-sweeps.md", "performance.md", "service.md", "cli.md",
                     "robustness.md"):
            assert (_DOCS / page).is_file(), f"docs/{page} missing"

    def test_mkdocs_nav_targets_exist(self):
        config = (_REPO / "mkdocs.yml").read_text(encoding="utf-8")
        for target in re.findall(r":\s*([\w-]+\.md)\s*$", config, flags=re.MULTILINE):
            assert (_DOCS / target).is_file(), f"mkdocs.yml navigates to missing docs/{target}"

    def test_relative_markdown_links_resolve(self):
        for page in _DOCS.glob("*.md"):
            text = page.read_text(encoding="utf-8")
            for match in re.finditer(r"\]\(([^)#\s]+\.md)(#[\w-]+)?\)", text):
                target = match.group(1)
                if target.startswith("http"):
                    continue
                resolved = (page.parent / target).resolve()
                assert resolved.is_file(), f"{page.name} links to missing {target}"

    def test_anchor_links_point_at_real_headings(self):
        pages = {page.name: page.read_text(encoding="utf-8") for page in _DOCS.glob("*.md")}
        for name, text in pages.items():
            for match in re.finditer(r"\]\(([\w-]+\.md)#([\w-]+)\)", text):
                target, anchor = match.group(1), match.group(2)
                headings = re.findall(r"^#+\s+(.*)$", pages[target], flags=re.MULTILINE)
                slugs = {
                    re.sub(r"[^\w\s-]", "", heading.lower()).strip().replace(" ", "-")
                    for heading in headings
                }
                assert anchor in slugs, f"{name} links to {target}#{anchor}, not a heading there"

    def test_readme_links_into_docs(self):
        readme = (_REPO / "README.md").read_text(encoding="utf-8")
        for target in re.findall(r"\]\((docs/[\w-]+\.md)\)", readme):
            assert (_REPO / target).is_file(), f"README links to missing {target}"
        assert "docs/" in readme, "README must link into the documentation site"


_CODE_DIRS = ("src", "benchmarks", "perfbench", "tests", "examples", ".github")
_CODE_SUFFIXES = {".py", ".yml", ".yaml", ".toml", ".cfg", ".ini", ".sh", ".md", ".json", ".txt"}


def _doc_code_spans():
    """``(page, span)`` for every inline code span of the docs and README.

    Fenced blocks are dropped first, and so is the "Measured and removed"
    section of ``docs/performance.md``, which names deleted code on purpose.
    """
    for page in sorted(_DOCS.glob("*.md")) + [_REPO / "README.md"]:
        text = re.sub(r"^```.*?^```", "", page.read_text(encoding="utf-8"), flags=re.MULTILINE | re.DOTALL)
        if page.name == "performance.md":
            text = re.sub(r"^## Measured and removed\n.*?(?=^## )", "", text, flags=re.MULTILINE | re.DOTALL)
        for span in re.findall(r"`([^`\n]+)`", text):
            yield page.name, span


def _resolves(dotted: str) -> bool:
    """Import the longest importable prefix of ``dotted``, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


class TestDocsNameLiveCode:
    def test_dotted_repro_paths_resolve(self):
        paths = {
            (page, dotted)
            for page, span in _doc_code_spans()
            for dotted in re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", span)
        }
        assert paths, "the docs name no repro.* paths; the extraction is broken"
        stale = sorted(f"{page}: {dotted}" for page, dotted in paths if not _resolves(dotted))
        assert not stale, f"docs name paths that do not resolve: {stale}"

    def test_upper_snake_constants_exist(self):
        constants = {
            (page, span)
            for page, span in _doc_code_spans()
            if re.fullmatch(r"[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+", span)
        }
        assert constants, "the docs name no constants; the extraction is broken"
        words = set()
        for directory in _CODE_DIRS:
            for path in (_REPO / directory).rglob("*"):
                if path.suffix in _CODE_SUFFIXES and path.is_file():
                    words.update(re.findall(r"\w+", path.read_text(encoding="utf-8", errors="ignore")))
        stale = sorted(f"{page}: {name}" for page, name in constants if name not in words)
        assert not stale, f"docs name constants the code no longer has: {stale}"

    def test_codec_kind_row_lists_exactly_the_spec_kinds(self):
        from repro.experiments.spec import CODEC_KINDS

        text = (_DOCS / "experiments.md").read_text(encoding="utf-8")
        row = re.search(r"^\| `kind` \|[^|\n]*\|([^|\n]*)\|$", text, re.MULTILINE)
        assert row, "docs/experiments.md has no `kind` row in its codec table"
        assert tuple(re.findall(r"`([^`]+)`", row.group(1))) == CODEC_KINDS


class TestAtcFormatSpecAgainstGoldenFixtures:
    """The independent, documentation-driven parser agrees with the library."""

    @pytest.fixture(
        scope="class",
        params=[
            str(p.relative_to(_GOLDEN))
            for p in (*_golden_containers(), *_golden_v1_containers())
        ],
    )
    def container(self, request):
        return _GOLDEN / request.param

    def test_chunk_files_are_one_indexed_atcl_streams(self, container):
        suffix = _container_suffix(container)
        chunk_files = sorted(
            (p for p in container.iterdir() if p.name[0].isdigit()),
            key=lambda p: int(p.name.split(".")[0]),
        )
        assert chunk_files, "every golden container stores at least one chunk"
        assert [int(p.name.split(".")[0]) for p in chunk_files] == list(
            range(1, len(chunk_files) + 1)
        )
        for path in chunk_files:
            payload = path.read_bytes()
            magic, version, count, buffer_addresses = _CHUNK_HEADER.unpack_from(payload)
            assert magic == _CHUNK_MAGIC
            assert version == 1
            assert count > 0
            assert buffer_addresses > 0

    def test_info_metadata_matches_documented_schema(self, container):
        metadata, _ = _parse_info_per_spec(container)
        is_v1 = container.parent.name == "v1"
        expected_keys = _DOC_METADATA_KEYS_V1 if is_v1 else _DOC_METADATA_KEYS_V2
        assert sorted(metadata) == sorted(expected_keys)
        assert metadata["format"] == "atc"
        assert metadata["format_version"] == (1 if is_v1 else 2)
        assert metadata["mode"] == ("lossy" if container.name.startswith("lossy") else "lossless")
        assert metadata["backend"] == _container_suffix(container)

    def test_v2_chunk_digests_match_the_documented_hash(self, container):
        """Recompute each chunk digest per the spec: SHA-256 of the raw
        chunk-file bytes, truncated to the first 16 hex characters."""
        import hashlib

        metadata, _ = _parse_info_per_spec(container)
        if metadata["format_version"] == 1:
            assert "chunk_digests" not in metadata
            return
        digests = metadata["chunk_digests"]
        suffix = _container_suffix(container)
        chunk_files = {
            int(p.name.split(".")[0]) - 1: p
            for p in container.iterdir()
            if p.name[0].isdigit()
        }
        assert sorted(digests) == sorted(str(i) for i in chunk_files)
        for chunk_id, path in chunk_files.items():
            recomputed = hashlib.sha256(path.read_bytes()).hexdigest()[:_CHUNK_DIGEST_HEX]
            assert digests[str(chunk_id)] == recomputed, f"chunk {chunk_id + 1}.{suffix}"

    def test_interval_trace_is_consistent_with_chunk_files(self, container):
        metadata, records = _parse_info_per_spec(container)
        chunk_ids_on_disk = {
            int(p.name.split(".")[0]) - 1 for p in container.iterdir() if p.name[0].isdigit()
        }
        assert metadata["num_chunks"] == len(chunk_ids_on_disk)
        referenced = {record["chunk_id"] for record in records}
        assert referenced == chunk_ids_on_disk, "records reference exactly the stored chunks"
        stored = [r for r in records if r["kind"] == 0]
        assert {r["chunk_id"] for r in stored} == chunk_ids_on_disk
        assert sum(r["length"] for r in records) == metadata["original_length"]
        if container.name.startswith("lossless"):
            assert all(r["kind"] == 0 for r in records), "lossless containers never imitate"
            assert [r["chunk_id"] for r in records] == list(range(len(records)))
        else:
            assert any(r["kind"] == 1 for r in records), "golden lossy fixtures cover imitation"

    def test_independent_parse_agrees_with_library_decoder(self, container):
        from repro.core.atc import AtcDecoder

        metadata, records = _parse_info_per_spec(container)
        decoder = AtcDecoder(container)
        assert decoder.metadata == metadata
        assert len(decoder.records) == len(records)
        for mine, theirs in zip(records, decoder.records):
            assert mine["kind"] == (0 if theirs.kind == "chunk" else 1)
            assert mine["chunk_id"] == theirs.chunk_id
            assert mine["length"] == theirs.length
        decoded = decoder.read_all()
        assert decoded.size == metadata["original_length"], "the documented integrity check"

    def test_gz_and_xz_aliases_store_canonical_suffixes(self):
        # Documented: aliases never appear on disk.
        names = {p.name for p in _golden_containers()}
        assert {"lossless_gz", "lossless_xz"} <= names
        assert _container_suffix(_GOLDEN / "lossless_gz") == "zlib"
        assert _container_suffix(_GOLDEN / "lossless_xz") == "lzma"

    def test_documented_constants_appear_in_the_spec_page(self):
        spec = (_DOCS / "atc-format.md").read_text(encoding="utf-8")
        for constant in ("ATCINFO1", "ATCINFO2", "ATCL", "'<BII'", "'<4sBQQ'", "2048",
                         "original_length", "u32 header_length", "chunk_digests",
                         "SHA-256", "footer"):
            assert constant in spec, f"atc-format.md no longer documents {constant}"


_TRACES = Path(__file__).resolve().parent / "data" / "traces"

# Constants exactly as documented in docs/trace-formats.md.
_K6_COMMANDS = {"P_MEM_RD": 0, "P_MEM_WR": 1, "P_FETCH": 2}
_SIDECAR_MAGIC = b"ATCSIDE1"


def _parse_k6_per_spec(path: Path):
    """Parse a k6 trace following docs/trace-formats.md, not the library.

    Grammar per the spec page: gz-transparent by filename, blank lines and
    ``#`` comment lines skipped, three whitespace-separated fields per
    record — hex address (optional ``0x``, any case), command token, and
    a decimal cycle count.
    """
    import gzip

    opener = gzip.open if path.name.endswith(".gz") else open
    records = []
    with opener(path, "rt", encoding="ascii") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            address, command, cycle = stripped.split()
            records.append((int(address, 16), _K6_COMMANDS[command], int(cycle)))
    return records


def _parse_sidecar_per_spec(path: Path):
    """Parse SIDECAR.bz2 following docs/trace-formats.md, not the library.

    Documented layout: one bz2 stream whose decompressed body starts with
    the ``ATCSIDE1`` magic, followed by frames of ``u32 count`` (LE, >= 1),
    ``count`` one-byte kinds, then ``count`` ``u64`` little-endian cycle
    deltas; absolute cycles are the running sum modulo 2^64 carried across
    frame boundaries from an initial cycle of 0.
    """
    body = bz2.decompress(path.read_bytes())
    assert body[:8] == _SIDECAR_MAGIC, "sidecar must start with the documented magic"
    offset, cycle, records = 8, 0, []
    while offset < len(body):
        (count,) = struct.unpack_from("<I", body, offset)
        assert count >= 1, "documented frames hold at least one record"
        offset += 4
        kinds = body[offset : offset + count]
        offset += count
        for index in range(count):
            (delta,) = struct.unpack_from("<Q", body, offset + 8 * index)
            cycle = (cycle + delta) % (1 << 64)
            records.append((kinds[index], cycle))
        offset += 8 * count
    assert offset == len(body), "no trailing bytes after the final frame"
    return records


class TestTraceFormatSpecAgainstFixtures:
    """docs/trace-formats.md re-parsed independently against the adapters."""

    @pytest.mark.parametrize("fixture", ["k6_mixed.trc", "k6_golden.trc.gz"])
    def test_doc_driven_k6_parser_agrees_with_the_adapter(self, fixture):
        from repro.traces.formats import concat_records, iter_k6_records

        path = _TRACES / fixture
        documented = _parse_k6_per_spec(path)
        library = concat_records(iter_k6_records(path))
        assert len(documented) == len(library)
        assert [a for a, _, _ in documented] == library.addresses.tolist()
        assert [k for _, k, _ in documented] == library.kinds.tolist()
        assert [c for _, _, c in documented] == library.cycles.tolist()

    def test_doc_driven_sidecar_parser_agrees_with_the_library(self):
        from repro.traces.formats import SidecarReader

        container = _GOLDEN / "lossless_k6"
        documented = _parse_sidecar_per_spec(container / "SIDECAR.bz2")
        reader = SidecarReader(container / "SIDECAR.bz2")
        kinds, cycles = reader.take(len(documented))
        reader.verify_exhausted()
        assert [k for k, _ in documented] == kinds.tolist()
        assert [c for _, c in documented] == cycles.tolist()

    def test_sidecar_covers_the_whole_container(self):
        metadata, _ = _parse_info_per_spec(_GOLDEN / "lossless_k6")
        documented = _parse_sidecar_per_spec(_GOLDEN / "lossless_k6" / "SIDECAR.bz2")
        assert len(documented) == metadata["original_length"]

    def test_documented_constants_appear_in_the_spec_page(self):
        spec = (_DOCS / "trace-formats.md").read_text(encoding="utf-8")
        for constant in ("ATCSIDE1", "SIDECAR.bz2", "P_MEM_RD", "P_MEM_WR", "P_FETCH",
                         "READ", "WRITE", "IFETCH", "u32 count", "mtime=0",
                         "record_bytes", "address_offset", "address_bytes"):
            assert constant in spec, f"trace-formats.md no longer documents {constant}"

    def test_workloads_page_catalogs_every_zoo_name(self):
        from repro.traces.zoo import ZOO_NAMES

        page = (_DOCS / "workloads.md").read_text(encoding="utf-8")
        for name in ZOO_NAMES:
            assert name in page, f"workloads.md does not catalog {name}"


# ``by_endpoint``/``by_status`` hold one entry per endpoint/status seen at
# runtime; the documented example shows plausible entries, a live snapshot
# shows whatever traffic happened — only their *type* is pinned.
_DYNAMIC_METRIC_MAPS = {"by_endpoint", "by_status"}


def _metrics_shape(value, name=""):
    """Reduce a metrics document to its key structure and value types."""
    if isinstance(value, dict):
        if name in _DYNAMIC_METRIC_MAPS:
            return "map"
        return {key: _metrics_shape(child, key) for key, child in sorted(value.items())}
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


class TestServiceMetricsSchemaAgainstLiveServer:
    """docs/service.md's /v1/metrics example is pinned against reality.

    The example JSON document in the service guide is parsed out of the
    page and its shape (keys, nesting, value types) compared with an
    actual ``GET /v1/metrics`` response from a real server — if the
    service grows or renames a counter without the documentation (and
    the schema string) moving with it, this fails.
    """

    def _documented_example(self):
        page = (_DOCS / "service.md").read_text(encoding="utf-8")
        match = re.search(r"```json\n(.*?)```", page, flags=re.DOTALL)
        assert match, "service.md must show the /v1/metrics example document"
        return json.loads(match.group(1))

    def test_documented_example_matches_a_live_snapshot(self):
        import http.client

        from repro.service import BackgroundServer, METRICS_SCHEMA, ServiceConfig

        documented = self._documented_example()
        assert documented["schema"] == METRICS_SCHEMA

        with BackgroundServer(ServiceConfig(port=0)) as server:
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                connection.request("GET", "/v1/metrics")
                live = json.loads(connection.getresponse().read())
            finally:
                connection.close()
        assert server.exit_code == 0
        assert _metrics_shape(live) == _metrics_shape(documented)

    def test_scraper_notes_match_the_documented_semantics(self):
        # The page promises these fields by name in its scraper notes;
        # keep the prose anchored to the real counter names.
        page = (_DOCS / "service.md").read_text(encoding="utf-8")
        for field in ("in_flight", "rejected", "aborted", "queue_depth",
                      "hit_rate", "Retry-After", "X-Atc-Cache", "X-Atc-Key"):
            assert field in page, f"service.md no longer documents {field}"
