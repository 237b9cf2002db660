"""Command-line tools mirroring the paper's example programs.

The paper demonstrates ATC with two tiny C programs (Figures 6-8):
``bin2atc`` reads raw 64-bit values from standard input and writes a
compressed container directory, and ``atc2bin`` does the reverse.  The same
pair is provided here (plus ``atc-inspect`` to print container metadata),
installed as console scripts by the package:

.. code-block:: console

    $ head -c 800000000 /dev/urandom | bin2atc foobar
    $ atc2bin foobar | wc -c
    800000000

``bin2atc`` defaults to lossy mode (the paper's ``'k'``); pass
``--lossless`` for the safe lossless mode.

Beyond the paper's tools, the ``repro`` umbrella script exposes the
declarative experiment-orchestration subsystem as ``repro sweep``
(``run`` / ``status`` / ``report``) — see :mod:`repro.experiments` and
``docs/experiments.md`` — and the continuous-benchmarking runner as
``repro bench`` (normalized ``BENCH_*.json`` reports plus the baseline
comparison the CI regression gate runs) — see :mod:`repro.bench` and
``docs/performance.md``.  Every parallel subcommand takes ``--jobs``:
one job runs inline, more run a thread pool of that size.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, Optional

from repro.core.atc import MODE_LOSSLESS, MODE_LOSSY, AtcDecoder, AtcEncoder
from repro.core.lossy import LossyConfig
from repro.errors import ContainerError, ReproError, TraceFormatError
from repro.traces.trace import DEFAULT_CHUNK_ADDRESSES, iter_raw_chunks

__all__ = [
    "bin2atc_main",
    "atc2bin_main",
    "inspect_main",
    "fsck_main",
    "convert_main",
    "zoo_main",
    "sweep_main",
    "bench_main",
    "main",
]

_READ_CHUNK_ADDRESSES = DEFAULT_CHUNK_ADDRESSES


def _silence_stdout() -> None:
    """Point stdout at devnull after a broken pipe.

    Redirecting the file descriptor *before* anything flushes again is the
    documented recipe: closing or flushing a broken pipe would raise a
    second ``BrokenPipeError`` from the interpreter's exit flush.  Under
    test harnesses stdout may be a pipe-less fake without a usable
    ``fileno``; fall back to swapping the object.
    """
    try:
        devnull_fd = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull_fd, sys.stdout.fileno())
        os.close(devnull_fd)
    except (OSError, ValueError, AttributeError):
        sys.stdout = open(os.devnull, "w")


def _exit_quietly_on_broken_pipe(entry):
    """Wrap a CLI entry point so ``tool | head`` and Ctrl-C never traceback.

    Every console script in ``pyproject.toml`` points at a wrapped main, so
    the standalone tools and the ``repro`` umbrella behave identically:

    * a reader closing the pipe early (``repro zoo | head``) is the normal
      end of output, not a failure — silence stdout (so the interpreter's
      exit flush cannot raise a second ``BrokenPipeError``), flush stderr
      and exit **0**, the convention of well-behaved Unix filters;
    * an interrupt (Ctrl-C) flushes stderr and exits **130**
      (``128 + SIGINT``), the shell's conventional interrupt status,
      instead of escaping ``main()`` as a ``KeyboardInterrupt`` traceback.
    """

    @functools.wraps(entry)
    def wrapper(argv: Optional[List[str]] = None) -> int:
        try:
            return entry(argv)
        except BrokenPipeError:
            _silence_stdout()
            try:
                sys.stderr.flush()
            except OSError:
                pass
            return 0
        except KeyboardInterrupt:
            try:
                sys.stderr.flush()
            except OSError:
                pass
            return 130

    return wrapper


def _build_bin2atc_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bin2atc",
        description="Compress a raw 64-bit value stream (stdin) into an ATC container directory.",
    )
    parser.add_argument("directory", help="container directory to create")
    parser.add_argument(
        "--lossless",
        action="store_true",
        help="use lossless mode ('c') instead of the default lossy mode ('k')",
    )
    parser.add_argument(
        "--interval-length",
        type=int,
        default=10_000_000,
        help="lossy interval length L in addresses (default: 10M, the paper's value)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.1,
        help="lossy interval-distance threshold epsilon (default: 0.1)",
    )
    parser.add_argument(
        "--buffer-addresses",
        type=int,
        default=1_000_000,
        help="bytesort buffer size in addresses (default: 1M)",
    )
    parser.add_argument(
        "--backend",
        default="bz2",
        help="byte-level compression backend: bz2, zlib, lzma, store (default: bz2)",
    )
    parser.add_argument(
        "--no-translation",
        action="store_true",
        help="disable byte translation when imitating intervals (Figure 4 ablation)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="compress up to N chunks concurrently (0 = one per usable CPU; default: 1, serial; "
        "output is byte-identical for any value)",
    )
    parser.add_argument("--input", default=None, help="read raw trace from this file instead of stdin")
    return parser


@_exit_quietly_on_broken_pipe
def bin2atc_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``bin2atc`` console script."""
    args = _build_bin2atc_parser().parse_args(argv)
    try:
        config = LossyConfig(
            interval_length=args.interval_length,
            threshold=args.threshold,
            chunk_buffer_addresses=args.buffer_addresses,
            backend=args.backend,
            enable_translation=not args.no_translation,
            workers=args.jobs,
        )
    except ReproError as error:
        print(f"bin2atc: error: {error}", file=sys.stderr)
        return 1
    mode = MODE_LOSSLESS if args.lossless else MODE_LOSSY
    try:
        stream = open(args.input, "rb") if args.input else sys.stdin.buffer
    except OSError as error:
        print(f"bin2atc: error: cannot open input: {error}", file=sys.stderr)
        return 1
    try:
        # Streaming pipeline: the raw input is read one fixed-size chunk at
        # a time and fed straight to the encoder, so memory stays bounded
        # by the chunk size (plus the encoder's interval buffer) no matter
        # how long the trace is.
        chunks = iter_raw_chunks(stream, _READ_CHUNK_ADDRESSES)
        with AtcEncoder(args.directory, mode=mode, config=config) as encoder:
            try:
                encoder.encode_stream(chunks)
            except TraceFormatError:
                # All complete records were already coded; only the final
                # partial record is dropped, like the paper's fread loop.
                print("warning: dropped a trailing partial record", file=sys.stderr)
            coded = encoder.addresses_coded
        print(f"coded {coded} addresses into {args.directory}", file=sys.stderr)
        return 0
    except ReproError as error:
        print(f"bin2atc: error: {error}", file=sys.stderr)
        return 1
    finally:
        if args.input:
            stream.close()


def _build_atc2bin_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atc2bin",
        description="Decompress an ATC container directory to raw 64-bit values on stdout.",
    )
    parser.add_argument("directory", help="container directory to read")
    parser.add_argument("--output", default=None, help="write to this file instead of stdout")
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="prefetch and decompress up to N chunks concurrently (0 = one per usable CPU; default: 1)",
    )
    return parser


@_exit_quietly_on_broken_pipe
def atc2bin_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``atc2bin`` console script.

    Exit codes: 0 success; 2 when the directory cannot be opened as an ATC
    container (missing, truncated or corrupt INFO); 1 for any other error,
    including integrity damage detected mid-decode.
    """
    args = _build_atc2bin_parser().parse_args(argv)
    try:
        decoder = AtcDecoder(args.directory, workers=args.jobs)
    except ContainerError as error:
        print(f"atc2bin: error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"atc2bin: error: {error}", file=sys.stderr)
        return 1
    try:
        sink = open(args.output, "wb") if args.output else sys.stdout.buffer
    except OSError as error:
        print(f"atc2bin: error: cannot open output: {error}", file=sys.stderr)
        return 1
    try:
        # Streaming pipeline: decoded intervals are re-chunked to a fixed
        # output chunk size, so writes are bounded-memory regardless of the
        # container's interval length or total trace length.
        for chunk in decoder.iter_chunks(_READ_CHUNK_ADDRESSES):
            sink.write(chunk.astype("<u8", copy=False).tobytes())
        return 0
    except ReproError as error:
        print(f"atc2bin: error: {error}", file=sys.stderr)
        return 1
    finally:
        if args.output:
            sink.close()


def _build_inspect_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atc-inspect",
        description="Print the metadata and interval-trace summary of an ATC container.",
    )
    parser.add_argument("directory", help="container directory to inspect")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="also check every chunk against its recorded digest (format v2) or by "
        "decompression (v1) without decoding the trace; exit 1 with a chunk-level "
        "damage table on mismatch",
    )
    return parser


def _print_damage_table(scrub, stream) -> None:
    """Render one container scrub as a chunk-level damage table."""
    if scrub.info_status != "ok":
        print(f"INFO             : {scrub.info_status} ({scrub.info_detail})", file=stream)
    for chunk in scrub.chunks:
        line = f"{chunk.file:<17}: {chunk.status}"
        if chunk.detail:
            line += f" ({chunk.detail})"
        print(line, file=stream)


@_exit_quietly_on_broken_pipe
def inspect_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``atc-inspect`` console script.

    Exit codes: 0 success; with ``--verify``, 1 when any chunk fails its
    integrity check; 2 when the directory is not an ATC container.
    """
    args = _build_inspect_parser().parse_args(argv)
    try:
        decoder = AtcDecoder(args.directory)
    except ContainerError as error:
        print(f"atc-inspect: error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"atc-inspect: error: {error}", file=sys.stderr)
        return 1
    metadata = decoder.metadata
    records = decoder.records
    imitations = sum(1 for record in records if record.kind == "imitate")
    print(f"container        : {args.directory}")
    for key in sorted(metadata):
        if key == "chunk_digests":
            # The digest table is per-chunk noise here; --verify checks it.
            print(f"{key:<17}: {len(metadata[key])} chunks digested")
            continue
        print(f"{key:<17}: {metadata[key]}")
    print(f"intervals        : {len(records)} ({imitations} imitated)")
    print(f"on-disk bytes    : {decoder.compressed_bytes()}")
    print(f"bits per address : {decoder.bits_per_address():.3f}")
    if args.verify:
        from repro.core.fsck import scrub_container

        scrub = scrub_container(args.directory)
        if not scrub.ok:
            print("verify           : FAILED", file=sys.stderr)
            _print_damage_table(scrub, sys.stderr)
            return 1
        print(f"verify           : ok ({len(scrub.chunks)} chunks checked)")
    return 0


def _build_fsck_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fsck",
        description=(
            "Scrub on-disk ATC storage for corruption: a container directory, a sweep "
            "ResultStore, or a service cache root.  Damage is localized to chunk (or "
            "store-entry) granularity; --repair salvages every intact chunk of a "
            "damaged container into a new, valid partial container.  See "
            "docs/robustness.md."
        ),
    )
    parser.add_argument("path", help="container, result-store or cache directory to scrub")
    parser.add_argument(
        "--repair",
        action="store_true",
        help="salvage a damaged container's intact chunks into a valid partial "
        "container (default destination: <path>.salvaged)",
    )
    parser.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="DIR",
        help="destination directory for --repair (default: <path>.salvaged)",
    )
    parser.add_argument(
        "--format",
        "-f",
        default="text",
        choices=("text", "json"),
        help="report format (default: text)",
    )
    return parser


@_exit_quietly_on_broken_pipe
def fsck_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro fsck`` subcommand.

    Exit codes: 0 when everything scrubbed clean; 1 when damage was found
    (even if --repair salvaged a partial container); 2 when the path is
    not scannable at all (not a container/store/cache directory).
    """
    args = _build_fsck_parser().parse_args(argv)
    from repro.core.fsck import repair_container, scrub_path

    try:
        report = scrub_path(args.path)
    except ContainerError as error:
        print(f"repro fsck: error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"repro fsck: error: {error}", file=sys.stderr)
        return 1

    repair = None
    repair_error = None
    if args.repair and not report.ok:
        damaged = [c for c in report.containers if not c.ok]
        if len(report.containers) == 1 and report.kind == "container" and damaged:
            destination = args.output if args.output else f"{args.path.rstrip('/')}.salvaged"
            try:
                repair = repair_container(args.path, destination)
            except ReproError as error:
                repair_error = str(error)
        elif damaged:
            repair_error = (
                "--repair salvages a single container; run it on each damaged "
                "container directory reported below"
            )

    if args.format == "json":
        import json

        document = report.to_json()
        if repair is not None:
            document["repair"] = repair.to_json()
        if repair_error is not None:
            document["repair_error"] = repair_error
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(f"path             : {report.path}")
        print(f"kind             : {report.kind}")
        for scrub in report.containers:
            verdict = "clean" if scrub.ok else "DAMAGED"
            print(f"container        : {scrub.path} ({verdict})")
            if not scrub.ok:
                _print_damage_table(scrub, sys.stdout)
        for store in report.stores:
            verdict = "clean" if store.ok else "DAMAGED"
            print(f"store            : {store.path} ({len(store.entries)} entries, {verdict})")
            for entry in store.damaged_entries:
                line = f"  {entry.file:<15}: {entry.status}"
                if entry.detail:
                    line += f" ({entry.detail})"
                print(line)
        if repair is not None:
            print(
                f"repair           : salvaged {len(repair.salvaged_chunks)} chunks "
                f"({repair.salvaged_addresses}/{repair.original_addresses} addresses) "
                f"into {repair.destination}"
            )
            print(f"dropped chunks   : {repair.dropped_chunks}")
        if repair_error is not None:
            print(f"repro fsck: repair failed: {repair_error}", file=sys.stderr)
        print(f"verdict          : {'clean' if report.ok else 'damage found'}")
    return 0 if report.ok else 1


def _build_convert_parser() -> argparse.ArgumentParser:
    from repro.traces.formats import format_names

    names = sorted(format_names())
    parser = argparse.ArgumentParser(
        prog="repro convert",
        description=(
            "Convert trace files between real simulator formats (DRAMSim2 k6/mase text, "
            "fixed-record binary dumps, raw 64-bit traces; .gz transparent) and ATC "
            "containers, streaming file-to-file at flat memory.  An existing container "
            "directory as SOURCE exports back out; any other SOURCE converts into a new "
            "container at DESTINATION.  See docs/trace-formats.md for the format specs."
        ),
    )
    parser.add_argument("source", help="input trace file, or an ATC container directory to export")
    parser.add_argument("destination", help="output container directory, or the trace file to write")
    parser.add_argument(
        "--from",
        dest="from_format",
        default=None,
        choices=names,
        help="input trace format (default: detect from the filename)",
    )
    parser.add_argument(
        "--to",
        dest="to_format",
        default=None,
        choices=names,
        help="output trace format when exporting (default: detect from the filename)",
    )
    parser.add_argument(
        "--lossy",
        action="store_true",
        help="encode the container in lossy mode 'k' (addresses approximated per the "
        "paper's codec; the command/cycle sidecar stays exact); default: lossless 'c'",
    )
    parser.add_argument(
        "--no-sidecar",
        action="store_true",
        help="do not store the command/cycle sidecar; exports then synthesize "
        "read commands and --cycle-gap spaced cycles",
    )
    parser.add_argument(
        "--interval-length",
        type=int,
        default=10_000_000,
        help="lossy interval length L in addresses (default: 10M, the paper's value)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.1,
        help="lossy interval-distance threshold epsilon (default: 0.1)",
    )
    parser.add_argument(
        "--buffer-addresses",
        type=int,
        default=1_000_000,
        help="bytesort buffer size in addresses (default: 1M)",
    )
    parser.add_argument(
        "--backend",
        default="bz2",
        help="byte-level compression backend: bz2, zlib, lzma, store (default: bz2)",
    )
    parser.add_argument(
        "--chunk-records",
        type=int,
        default=DEFAULT_CHUNK_ADDRESSES,
        help="streaming chunk size in records (bounds peak memory; default: 65536)",
    )
    parser.add_argument(
        "--cycle-gap",
        type=int,
        default=1,
        help="cycle spacing synthesized when exporting a container without a sidecar "
        "(default: 1)",
    )
    parser.add_argument(
        "--record-bytes",
        type=int,
        default=8,
        help="bin format: total bytes per record (default: 8)",
    )
    parser.add_argument(
        "--address-offset",
        type=int,
        default=0,
        help="bin format: byte offset of the address field (default: 0)",
    )
    parser.add_argument(
        "--address-bytes",
        type=int,
        default=8,
        help="bin format: width of the address field in bytes, 1..8 (default: 8)",
    )
    parser.add_argument(
        "--big-endian",
        action="store_true",
        help="bin format: address field is big-endian (default: little-endian)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="compress/decompress up to N chunks concurrently (0 = one per usable CPU; default: 1)",
    )
    return parser


@_exit_quietly_on_broken_pipe
def convert_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro convert`` subcommand (file <-> ATC)."""
    args = _build_convert_parser().parse_args(argv)
    from repro.traces.formats import (
        BinaryLayout,
        convert_to_atc,
        export_from_atc,
        get_format,
        is_atc_container,
    )

    try:
        layout = BinaryLayout(
            record_bytes=args.record_bytes,
            address_offset=args.address_offset,
            address_bytes=args.address_bytes,
            byteorder="big" if args.big_endian else "little",
        )
    except ReproError as error:
        print(f"repro convert: error: {error}", file=sys.stderr)
        return 1

    def options(format_name: Optional[str]) -> dict:
        # The layout knobs only apply to fixed-record formats ('raw' is the
        # fixed 8-byte little-endian special case and takes no overrides).
        return {"layout": layout} if format_name == "bin" else {}

    try:
        if is_atc_container(args.source):
            fmt = get_format(args.to_format) if args.to_format else None
            summary = export_from_atc(
                args.source,
                args.destination,
                format=fmt.name if fmt else None,
                chunk_addresses=args.chunk_records,
                cycle_gap=args.cycle_gap,
                workers=args.jobs,
                **options(fmt.name if fmt else args.to_format or _detected(args.destination)),
            )
            print(
                f"exported {summary['records']} records to {args.destination} "
                f"({summary['format']})",
                file=sys.stderr,
            )
            return 0
        config = LossyConfig(
            interval_length=args.interval_length,
            threshold=args.threshold,
            chunk_buffer_addresses=args.buffer_addresses,
            backend=args.backend,
            workers=args.jobs,
        )
        mode = MODE_LOSSY if args.lossy else MODE_LOSSLESS
        from_format = args.from_format or _detected(args.source)
        summary = convert_to_atc(
            args.source,
            args.destination,
            format=args.from_format,
            mode=mode,
            config=config,
            chunk_records=args.chunk_records,
            write_sidecar=not args.no_sidecar,
            **options(from_format),
        )
        print(
            f"coded {summary['addresses']} addresses from {args.source} "
            f"({summary['format']}) into {args.destination}",
            file=sys.stderr,
        )
        return 0
    except (ReproError, OSError) as error:
        print(f"repro convert: error: {error}", file=sys.stderr)
        return 1


def _detected(path: str) -> Optional[str]:
    from repro.traces.formats import detect_format

    return detect_format(path)


def _build_zoo_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro zoo",
        description=(
            "List the registered workload zoo (repro.traces.zoo): mix1-mix7 multi-core "
            "SPEC-2017-like mixes, GAP-like graph traversals and STREAM-like kernels.  "
            "Every name works as a sweep/bench workload; see docs/workloads.md."
        ),
    )
    parser.add_argument(
        "--family",
        default=None,
        choices=("mix", "gap", "stream"),
        help="only list one pattern family",
    )
    parser.add_argument(
        "--format",
        "-f",
        default="text",
        choices=("text", "json"),
        help="output format (default: text)",
    )
    return parser


@_exit_quietly_on_broken_pipe
def zoo_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro zoo`` subcommand (workload catalog)."""
    args = _build_zoo_parser().parse_args(argv)
    from repro.traces.zoo import zoo_suite

    entries = [e for e in zoo_suite() if args.family in (None, e.family)]
    if args.format == "json":
        import json

        print(
            json.dumps(
                [
                    {
                        "name": entry.name,
                        "family": entry.family,
                        "cores": entry.cores,
                        "components": list(entry.components),
                        "description": entry.description,
                    }
                    for entry in entries
                ],
                indent=2,
            )
        )
        return 0
    width = max(len(entry.name) for entry in entries)
    for entry in entries:
        print(f"{entry.name:<{width}}  {entry.family:<6}  {entry.cores} core(s)  {entry.description}")
    return 0


def _build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description=(
            "Run declarative experiment sweeps (repro.experiments): a TOML/JSON spec "
            "declares a workloads x filters x codecs grid; completed cells are cached "
            "on disk, so re-runs and resumed sweeps skip finished work."
        ),
    )
    actions = parser.add_subparsers(dest="action", metavar="{run,status,report,merge}")

    def add_common(sub) -> None:
        sub.add_argument("spec", help="sweep spec file (.toml, or JSON)")
        sub.add_argument(
            "--cache-dir",
            default=None,
            help="result-cache directory (default: <spec>.sweep-cache next to the spec)",
        )

    run = actions.add_parser("run", help="run (or resume) the sweep, then print the report")
    add_common(run)
    run.add_argument("--no-cache", action="store_true", help="recompute every cell, store nothing")
    run.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="evaluate up to N (workload, filter) groups concurrently (0 = one per usable CPU)",
    )
    run.add_argument(
        "--format",
        "-f",
        default="text",
        choices=("text", "markdown", "csv", "json"),
        help="report format (default: text)",
    )
    run.add_argument("--output", "-o", default=None, help="write the report to this file")
    run.add_argument(
        "--shard",
        default=None,
        metavar="i/N",
        help=(
            "run as distributed worker i of N (1-based): evaluate only the cells whose "
            "content hash falls in this shard; every worker sharing the cache directory "
            "computes the same partition (see docs/distributed-sweeps.md)"
        ),
    )
    run.add_argument(
        "--steal",
        action="store_true",
        help=(
            "after draining the own shard (or instead of one, without --shard), claim "
            "pending cells of other shards — including cells whose lease went stale "
            "because their worker crashed"
        ),
    )
    run.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="distributed lease lifetime (default: 600)",
    )
    run.add_argument(
        "--owner",
        default=None,
        help="lease identity of this worker (default: host:pid:token)",
    )

    status = actions.add_parser("status", help="show how many grid cells are already cached")
    add_common(status)
    status.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="also show per-shard progress under an N-way partition, plus lease counts",
    )

    merge = actions.add_parser(
        "merge",
        help=(
            "assemble the report from whatever the cache holds (possibly written by many "
            "workers), reporting missing cells instead of computing them"
        ),
    )
    add_common(merge)
    merge.add_argument(
        "--format",
        "-f",
        default="text",
        choices=("text", "markdown", "csv", "json"),
        help="report format (default: text)",
    )
    merge.add_argument("--output", "-o", default=None, help="write the report to this file")
    merge.add_argument(
        "--allow-partial",
        action="store_true",
        help="emit the partial report with exit status 0 even when cells are missing",
    )

    report = actions.add_parser("report", help="render the report from cached cells only")
    add_common(report)
    report.add_argument(
        "--format",
        "-f",
        default="text",
        choices=("text", "markdown", "csv", "json"),
        help="report format (default: text)",
    )
    report.add_argument("--output", "-o", default=None, help="write the report to this file")
    return parser


def _default_sweep_cache_dir(spec_path: str) -> str:
    from pathlib import Path

    path = Path(spec_path)
    return str(path.with_name(path.stem + ".sweep-cache"))


def _emit_report(report: str, output: Optional[str]) -> int:
    if output is None:
        print(report)
        return 0
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(report if report.endswith("\n") else report + "\n")
    except OSError as error:
        print(f"repro sweep: error: cannot write report: {error}", file=sys.stderr)
        return 1
    print(f"report written to {output}", file=sys.stderr)
    return 0


def _sweep_run_distributed(args, spec, cache_dir: str) -> int:
    """``repro sweep run --shard i/N [--steal]``: one cooperative worker."""
    from repro.experiments import DEFAULT_LEASE_TTL, DistributedSweepRunner

    runner = DistributedSweepRunner(
        spec,
        cache_dir,
        shard=args.shard,
        steal=args.steal,
        lease_ttl=args.lease_ttl if args.lease_ttl is not None else DEFAULT_LEASE_TTL,
        owner=args.owner,
        workers=getattr(args, "jobs", 1),
    )
    report = runner.run_worker()
    shard = f"{report.shard[0]}/{report.shard[1]}" if report.shard else "none"
    print(f"worker           : {report.owner}", file=sys.stderr)
    print(f"shard            : {shard} ({report.shard_units} cells)", file=sys.stderr)
    print(
        f"evaluated        : {report.evaluated} "
        f"({report.stolen} stolen, {report.reclaimed} leases reclaimed)",
        file=sys.stderr,
    )
    if report.skipped_leased:
        print(f"skipped (leased) : {report.skipped_leased}", file=sys.stderr)
    if report.integrity_evictions:
        print(
            f"quarantined      : {report.integrity_evictions} corrupt "
            f"store entr{'y' if report.integrity_evictions == 1 else 'ies'} (re-run)",
            file=sys.stderr,
        )
    print(
        f"sweep            : {report.total_units - report.remaining}/{report.total_units} "
        f"cells complete",
        file=sys.stderr,
    )
    if report.is_sweep_complete:
        print(
            f"assemble the report with: repro sweep merge {args.spec}"
            + (f" --cache-dir {args.cache_dir}" if args.cache_dir else ""),
            file=sys.stderr,
        )
    return 0


def _sweep_merge(args, spec, cache_dir: str) -> int:
    """``repro sweep merge``: report from the store, never computing."""
    from repro.experiments import ResultStore, merge_sweep

    merged = merge_sweep(spec, ResultStore(cache_dir))
    print(
        f"sweep {merged.result.name}: {merged.completed_units}/{merged.total_units} "
        f"cells merged from {cache_dir}",
        file=sys.stderr,
    )
    if not merged.is_complete:
        for label in merged.missing:
            print(f"missing          : {label}", file=sys.stderr)
        if not args.allow_partial:
            print(
                f"repro sweep: error: {len(merged.missing)} of {merged.total_units} cells "
                f"have no stored result; finish the workers or pass --allow-partial",
                file=sys.stderr,
            )
            return 1
    return _emit_report(merged.result.render(args.format), args.output)


@_exit_quietly_on_broken_pipe
def sweep_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro sweep`` subcommand (run/status/report/merge)."""
    parser = _build_sweep_parser()
    args = parser.parse_args(argv)
    if args.action is None:
        parser.print_usage(sys.stderr)
        print(
            "repro sweep: error: an action is required (run, status, report or merge)",
            file=sys.stderr,
        )
        return 2
    from repro.experiments import SweepRunner, load_sweep_spec

    try:
        spec = load_sweep_spec(args.spec)
    except ReproError as error:
        print(f"repro sweep: error: {error}", file=sys.stderr)
        return 1
    cache_dir = args.cache_dir if args.cache_dir is not None else _default_sweep_cache_dir(args.spec)
    distributed = args.action == "run" and (args.shard is not None or args.steal)
    if args.action == "run" and getattr(args, "no_cache", False):
        if distributed:
            print(
                "repro sweep: error: --no-cache is incompatible with --shard/--steal "
                "(the result cache is what distributed workers coordinate through)",
                file=sys.stderr,
            )
            return 2
        cache_dir = None
    try:
        if distributed:
            return _sweep_run_distributed(args, spec, cache_dir)
        if args.action == "merge":
            return _sweep_merge(args, spec, cache_dir)
        runner = SweepRunner(
            spec,
            cache_dir=cache_dir,
            workers=getattr(args, "jobs", 1),
        )
        if args.action == "status":
            status = runner.status()
            print(f"sweep            : {status.name}")
            print(f"cache directory  : {cache_dir}")
            print(f"cells            : {status.completed_units}/{status.total_units} cached")
            if args.shards is not None:
                from repro.experiments import ResultStore, lease_census, shard_progress

                for shard in shard_progress(spec, ResultStore(cache_dir), args.shards):
                    print(
                        f"shard {shard.index}/{shard.count}      : "
                        f"{shard.completed_units}/{shard.total_units} cached"
                    )
                census = lease_census(cache_dir)
                print(f"leases           : {census.active} active, {census.stale} stale")
            for label in status.pending:
                print(f"pending          : {label}")
            return 0
        if args.action == "report":
            status = runner.status()
            if not status.is_complete:
                print(
                    f"repro sweep: error: {len(status.pending)} of {status.total_units} cells "
                    f"have no cached result; run 'repro sweep run {args.spec}' first",
                    file=sys.stderr,
                )
                return 1
        result = runner.run()
        print(
            f"sweep {result.name}: {len(result.rows)} cells, "
            f"{result.cached_count()} from cache",
            file=sys.stderr,
        )
        return _emit_report(result.render(args.format), args.output)
    except ReproError as error:
        print(f"repro sweep: error: {error}", file=sys.stderr)
        return 1


def _build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Run the operational benchmark suite (repro.bench) and emit a normalized "
            "machine-readable report; optionally compare it against a committed "
            "baseline with a tolerance band (the CI regression gate)."
        ),
    )
    parser.add_argument(
        "--refs",
        type=int,
        default=30_000,
        help="data references generated before cache filtering (default: 30000, the CI scale)",
    )
    parser.add_argument(
        "--workload", default="429.mcf", help="spec-like workload to measure (default: 429.mcf)"
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker count for the parallel benchmark cases (0 = one per usable CPU; default: 1)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the report as JSON on stdout instead of the text table",
    )
    parser.add_argument(
        "--output", "-o", default=None, help="also write the JSON report to this file"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="compare against this baseline report; exit 1 on any regression "
        "(e.g. benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=1.25,
        help="wall-time tolerance band for --baseline (default: 1.25 = fail beyond +25%%)",
    )
    def _positive_int(value: str) -> int:
        parsed = int(value)
        if parsed < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return parsed

    parser.add_argument(
        "--profile",
        type=_positive_int,
        nargs="?",
        const=15,
        default=None,
        metavar="N",
        help="also profile every case under cProfile and print its top-N "
        "cumulative-time table on stderr (default N: 15); profiled times "
        "are for locating hot paths, not for comparison",
    )
    return parser


@_exit_quietly_on_broken_pipe
def bench_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro bench`` subcommand (run + optional gate)."""
    args = _build_bench_parser().parse_args(argv)
    from repro.bench import (
        BenchScale,
        build_report,
        compare_reports,
        load_report,
        render_report_text,
        resolved_executor_name,
        run_suite,
        save_report,
    )
    from repro.core.parallel import resolve_workers

    try:
        workers = resolve_workers(args.jobs)
        scale = BenchScale(references=args.refs, workload=args.workload)
        results = run_suite(scale, workers=workers)
        report = build_report(results, scale, resolved_executor_name(workers), workers)
        if args.output is not None:
            save_report(report, args.output)
            print(f"benchmark report written to {args.output}", file=sys.stderr)
        if args.json:
            save_report(report, None)
        else:
            print(render_report_text(report))
        if args.profile is not None:
            from repro.bench import run_profile

            # stderr, like the gate verdicts: --json owns stdout
            tables = run_profile(scale, workers=workers, top=args.profile)
            for name, table in tables.items():
                print(
                    f"\n=== profile: {name} (top {args.profile} by cumulative time) ===",
                    file=sys.stderr,
                )
                print(table.rstrip(), file=sys.stderr)
        if args.baseline is None:
            return 0
        comparison = compare_reports(
            report, load_report(args.baseline), max_slowdown=args.max_slowdown
        )
        print(comparison.render(), file=sys.stderr)
        return 0 if comparison.ok else 1
    except ReproError as error:
        print(f"repro bench: error: {error}", file=sys.stderr)
        return 1


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the ATC compression service: an HTTP server exposing "
            "/v1/compress, /v1/decompress, /v1/inspect, /v1/sweep, /v1/healthz "
            "and /v1/metrics with bounded memory, connection backpressure and "
            "graceful SIGTERM drain."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: loopback only)")
    parser.add_argument(
        "--port", type=int, default=8742, help="TCP port; 0 picks an ephemeral port (default: 8742)"
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=8,
        metavar="N",
        help="connection-gate capacity; excess connections get 429 + Retry-After (default: 8)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "chunks each compress/decompress job keeps in flight on the process-wide "
            "thread pool: 1 = inline, 0 = one per usable CPU; jobs always run on the "
            "event loop's default executor (default: 1)"
        ),
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="per-request processing budget; exceeding it answers 504 (default: 300)",
    )
    parser.add_argument(
        "--max-body-bytes",
        type=int,
        default=1 << 30,
        metavar="BYTES",
        help="cap on any request body; larger uploads answer 413 (default: 1 GiB)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="dedup-cache directory shared across restarts; default: a private "
        "temporary directory removed at shutdown",
    )
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro serve`` subcommand."""
    args = _build_serve_parser().parse_args(argv)
    from repro.service import AtcService, ServiceConfig

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            max_connections=args.max_connections,
            workers=args.workers,
            request_timeout=args.request_timeout if args.request_timeout > 0 else None,
            max_body_bytes=args.max_body_bytes,
            cache_dir=args.cache_dir,
        )
        service = AtcService(config)
    except ReproError as error:
        print(f"repro serve: error: {error}", file=sys.stderr)
        return 1

    def announce() -> None:
        print(f"repro serve: listening on http://{config.host}:{service.port}", file=sys.stderr)
        sys.stderr.flush()

    try:
        return service.run(ready=announce)
    except ReproError as error:
        print(f"repro serve: error: {error}", file=sys.stderr)
        return 1


#: ``repro`` subcommands: name -> (entry point, one-line help).  The usage
#: text below is generated from this registry, so adding a subcommand here
#: is all it takes for it to appear in ``repro --help``.
_SUBCOMMANDS = {
    "compress": (bin2atc_main, "raw 64-bit value stream -> ATC container (bin2atc)"),
    "decompress": (atc2bin_main, "ATC container -> raw 64-bit value stream (atc2bin)"),
    "inspect": (inspect_main, "print container metadata and sizes (atc-inspect)"),
    "fsck": (fsck_main, "scrub containers/stores/caches for corruption; --repair salvages"),
    "convert": (convert_main, "convert k6/mase/binary trace files to and from ATC containers"),
    "zoo": (zoo_main, "list the registered workload zoo (mixes, GAP-like, STREAM-like)"),
    "sweep": (sweep_main, "run declarative experiment sweeps (run, status, report)"),
    "bench": (bench_main, "run the benchmark suite; emit/compare BENCH JSON reports"),
    "serve": (serve_main, "run the ATC compression service (HTTP, backpressure, metrics)"),
}


def _print_repro_usage(stream) -> None:
    """Render the umbrella usage from the subcommand registry."""
    names = "|".join(_SUBCOMMANDS)
    width = max(len(name) for name in _SUBCOMMANDS)
    print(f"usage: repro {{{names}}} [options]", file=stream)
    print("", file=stream)
    print("subcommands:", file=stream)
    for name, (_, help_line) in _SUBCOMMANDS.items():
        print(f"  {name:<{width}}  {help_line}", file=stream)
    print("", file=stream)
    print("run 'repro <subcommand> --help' for the subcommand's options", file=stream)


@_exit_quietly_on_broken_pipe
def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the umbrella ``repro`` console script.

    Dispatches ``repro compress`` / ``repro decompress`` / ``repro inspect``
    / ``repro sweep`` to the corresponding tool main, so a single installed
    script exposes the whole pipeline — compression (with its ``--jobs``
    parallelism knob), container inspection, and the declarative
    experiment-sweep subsystem.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        _print_repro_usage(sys.stdout if argv else sys.stderr)
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    entry = _SUBCOMMANDS.get(command)
    if entry is None:
        print(f"repro: error: unknown subcommand {command!r}", file=sys.stderr)
        _print_repro_usage(sys.stderr)
        return 2
    handler, _ = entry
    return handler(rest)


if __name__ == "__main__":  # pragma: no cover - exercised via console scripts
    sys.exit(main())
