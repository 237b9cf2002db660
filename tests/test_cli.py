"""Tests of the repro / bin2atc / atc2bin / atc-inspect command-line tools."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import atc2bin_main, bin2atc_main, inspect_main, main
from repro.traces.trace import read_raw_trace, write_raw_trace


@pytest.fixture
def raw_trace_file(tmp_path, working_set_addresses):
    path = tmp_path / "trace.bin"
    write_raw_trace(working_set_addresses, path)
    return path


class TestBin2Atc:
    def test_lossless_roundtrip_via_files(self, tmp_path, raw_trace_file, working_set_addresses):
        container = tmp_path / "container"
        exit_code = bin2atc_main(
            [
                str(container),
                "--lossless",
                "--input",
                str(raw_trace_file),
                "--buffer-addresses",
                "10000",
            ]
        )
        assert exit_code == 0
        output = tmp_path / "out.bin"
        assert atc2bin_main([str(container), "--output", str(output)]) == 0
        recovered = read_raw_trace(output)
        assert np.array_equal(recovered.addresses, working_set_addresses)

    def test_lossy_preserves_length(self, tmp_path, raw_trace_file, working_set_addresses):
        container = tmp_path / "container"
        exit_code = bin2atc_main(
            [
                str(container),
                "--input",
                str(raw_trace_file),
                "--interval-length",
                "10000",
                "--buffer-addresses",
                "10000",
            ]
        )
        assert exit_code == 0
        output = tmp_path / "out.bin"
        assert atc2bin_main([str(container), "--output", str(output)]) == 0
        assert len(read_raw_trace(output)) == working_set_addresses.size

    def test_lossy_stationary_trace_creates_single_chunk(self, tmp_path, raw_trace_file):
        container = tmp_path / "container"
        bin2atc_main(
            [
                str(container),
                "--input",
                str(raw_trace_file),
                "--interval-length",
                "10000",
                "--buffer-addresses",
                "10000",
            ]
        )
        chunk_files = [p for p in container.iterdir() if p.name[0].isdigit()]
        assert len(chunk_files) == 1

    def test_alternate_backend(self, tmp_path, raw_trace_file):
        container = tmp_path / "container"
        exit_code = bin2atc_main(
            [
                str(container),
                "--lossless",
                "--backend",
                "zlib",
                "--input",
                str(raw_trace_file),
                "--buffer-addresses",
                "10000",
            ]
        )
        assert exit_code == 0
        assert (container / "INFO.zlib").exists()

    def test_existing_container_rejected(self, tmp_path, raw_trace_file):
        container = tmp_path / "container"
        assert bin2atc_main([str(container), "--lossless", "--input", str(raw_trace_file)]) == 0
        assert bin2atc_main([str(container), "--lossless", "--input", str(raw_trace_file)]) == 1


class TestAtc2Bin:
    def test_missing_container_is_a_usage_error(self, tmp_path):
        # A path that is not an ATC container at all is exit 2 (usage),
        # distinct from exit 1 (a real container that fails mid-decode).
        assert atc2bin_main([str(tmp_path / "missing")]) == 2


class TestJobsFlag:
    def test_parallel_encode_decode_roundtrip(self, tmp_path, raw_trace_file, working_set_addresses):
        container = tmp_path / "container"
        exit_code = bin2atc_main(
            [
                str(container),
                "--lossless",
                "--input",
                str(raw_trace_file),
                "--buffer-addresses",
                "10000",
                "--jobs",
                "4",
            ]
        )
        assert exit_code == 0
        output = tmp_path / "out.bin"
        assert atc2bin_main([str(container), "--output", str(output), "--jobs", "4"]) == 0
        assert np.array_equal(read_raw_trace(output).addresses, working_set_addresses)

    def test_missing_input_file_fails_cleanly(self, tmp_path, capsys):
        container = tmp_path / "container"
        args = [str(container), "--lossless", "--input", str(tmp_path / "nope.bin")]
        assert bin2atc_main(args) == 1
        assert "cannot open input" in capsys.readouterr().err

    def test_unwritable_output_fails_cleanly(self, tmp_path, raw_trace_file, capsys):
        container = tmp_path / "container"
        bin2atc_main([str(container), "--lossless", "--input", str(raw_trace_file)])
        capsys.readouterr()
        args = [str(container), "--output", str(tmp_path / "no-dir" / "out.bin")]
        assert atc2bin_main(args) == 1
        assert "cannot open output" in capsys.readouterr().err

    def test_invalid_jobs_fails_cleanly(self, tmp_path, raw_trace_file, capsys):
        container = tmp_path / "container"
        args = [str(container), "--lossless", "--input", str(raw_trace_file), "--jobs", "-3"]
        assert bin2atc_main(args) == 1
        assert "workers" in capsys.readouterr().err

    def test_invalid_backend_fails_cleanly(self, tmp_path, raw_trace_file, capsys):
        container = tmp_path / "container"
        args = [str(container), "--input", str(raw_trace_file), "--backend", "bzip99"]
        assert bin2atc_main(args) == 1
        assert "unknown compression backend" in capsys.readouterr().err

    def test_jobs_containers_are_byte_identical(self, tmp_path, raw_trace_file):
        containers = []
        for jobs in ("1", "4"):
            container = tmp_path / f"container-{jobs}"
            bin2atc_main(
                [
                    str(container),
                    "--lossless",
                    "--input",
                    str(raw_trace_file),
                    "--buffer-addresses",
                    "10000",
                    "--jobs",
                    jobs,
                ]
            )
            containers.append(
                {entry.name: entry.read_bytes() for entry in container.iterdir()}
            )
        assert containers[0] == containers[1]


class TestReproUmbrella:
    def test_compress_decompress_inspect(self, tmp_path, raw_trace_file, working_set_addresses, capsys):
        container = tmp_path / "container"
        assert (
            main(
                [
                    "compress",
                    str(container),
                    "--lossless",
                    "--input",
                    str(raw_trace_file),
                    "--buffer-addresses",
                    "10000",
                    "--jobs",
                    "2",
                ]
            )
            == 0
        )
        output = tmp_path / "out.bin"
        assert main(["decompress", str(container), "--output", str(output)]) == 0
        assert np.array_equal(read_raw_trace(output).addresses, working_set_addresses)
        assert main(["inspect", str(container)]) == 0
        assert "lossless" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 2
        captured = capsys.readouterr().err
        assert "unknown subcommand" in captured
        # The error path prints the full usage, which must list every
        # subcommand registered in the dispatch table.
        for subcommand in ("compress", "decompress", "inspect", "convert", "zoo", "sweep", "bench"):
            assert subcommand in captured

    def test_no_arguments_prints_usage(self, capsys):
        assert main([]) == 2
        captured = capsys.readouterr().err
        assert "usage: repro" in captured
        assert "sweep" in captured

    def test_help_flag(self, capsys):
        assert main(["--help"]) == 0
        captured = capsys.readouterr().out
        assert "subcommands" in captured
        assert "sweep       run declarative experiment sweeps" in captured
        assert "convert" in captured
        assert "zoo" in captured


@pytest.fixture
def sweep_spec_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(
        """
        {
          "workloads": [{"name": "429.mcf", "references": 5000},
                        {"name": "433.milc", "references": 5000}],
          "filters": [{"label": "l1-paper"},
                      {"label": "l1-8KB", "capacity_bytes": 8192, "associativity": 2}],
          "codecs": [{"kind": "lossless"}, {"kind": "lossless", "backend": "zlib"}],
          "scale": {"small_buffer": 1000, "interval_length": 1000}
        }
        """
    )
    return path


class TestSweepSubcommand:
    def test_run_prints_report_and_populates_cache(self, sweep_spec_file, capsys):
        assert main(["sweep", "run", str(sweep_spec_file)]) == 0
        captured = capsys.readouterr()
        assert "bits per address" in captured.out
        assert "8 cells, 0 from cache" in captured.err
        cache_dir = sweep_spec_file.parent / "grid.sweep-cache"
        assert len(list(cache_dir.glob("*.json"))) == 8

    def test_second_run_serves_from_cache(self, sweep_spec_file, capsys):
        assert main(["sweep", "run", str(sweep_spec_file)]) == 0
        capsys.readouterr()
        assert main(["sweep", "run", str(sweep_spec_file)]) == 0
        assert "8 from cache" in capsys.readouterr().err

    def test_status_before_and_after(self, sweep_spec_file, capsys):
        assert main(["sweep", "status", str(sweep_spec_file)]) == 0
        before = capsys.readouterr().out
        assert "0/8 cached" in before
        assert "pending" in before
        main(["sweep", "run", str(sweep_spec_file)])
        capsys.readouterr()
        assert main(["sweep", "status", str(sweep_spec_file)]) == 0
        assert "8/8 cached" in capsys.readouterr().out

    def test_report_requires_a_complete_cache(self, sweep_spec_file, capsys):
        assert main(["sweep", "report", str(sweep_spec_file)]) == 1
        assert "no cached result" in capsys.readouterr().err
        main(["sweep", "run", str(sweep_spec_file)])
        capsys.readouterr()
        assert main(["sweep", "report", str(sweep_spec_file), "--format", "csv"]) == 0
        report = capsys.readouterr().out
        assert report.startswith("workload,filter,codec,")
        assert len(report.strip().splitlines()) == 9

    def test_run_writes_markdown_report_to_file(self, sweep_spec_file, tmp_path, capsys):
        output = tmp_path / "report.md"
        args = ["sweep", "run", str(sweep_spec_file), "-f", "markdown", "-o", str(output)]
        assert main(args) == 0
        assert "| workload |" in output.read_text()

    def test_missing_spec_fails_cleanly(self, tmp_path, capsys):
        assert main(["sweep", "run", str(tmp_path / "absent.json")]) == 1
        assert "cannot read sweep spec" in capsys.readouterr().err

    def test_invalid_spec_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"workloads": [], "codecs": ["raw"]}')
        assert main(["sweep", "run", str(bad)]) == 1
        assert "at least one workload" in capsys.readouterr().err

    def test_missing_action_fails_cleanly(self, capsys):
        assert main(["sweep"]) == 2
        assert "an action is required" in capsys.readouterr().err

    def test_broken_pipe_exits_quietly(self, sweep_spec_file, monkeypatch):
        # `repro sweep status SPEC | head` closes stdout early; a
        # well-behaved Unix filter exits 0 (the downstream consumer got all
        # it wanted), not with an error code or a BrokenPipeError traceback.
        import sys as _sys

        class _ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def close(self):
                pass

        saved = _sys.stdout
        monkeypatch.setattr(_sys, "stdout", _ClosedPipe())
        try:
            assert main(["sweep", "status", str(sweep_spec_file)]) == 0
        finally:
            monkeypatch.setattr(_sys, "stdout", saved)

    def test_keyboard_interrupt_exits_130(self, sweep_spec_file, monkeypatch):
        # Ctrl-C must map to the shell convention 128 + SIGINT = 130 so that
        # callers (make, CI, xargs) see the run as interrupted, not failed.
        import repro.cli as cli_module

        def _interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli_module._SUBCOMMANDS, "sweep", (_interrupted, "interrupted"))
        assert main(["sweep", "status", str(sweep_spec_file)]) == 130


class TestInspect:
    def test_inspect_prints_metadata(self, tmp_path, raw_trace_file, capsys):
        container = tmp_path / "container"
        bin2atc_main(
            [
                str(container),
                "--input",
                str(raw_trace_file),
                "--interval-length",
                "10000",
                "--buffer-addresses",
                "10000",
            ]
        )
        assert inspect_main([str(container)]) == 0
        captured = capsys.readouterr().out
        assert "mode" in captured
        assert "lossy" in captured
        assert "bits per address" in captured

    def test_inspect_missing_container(self, tmp_path):
        assert inspect_main([str(tmp_path / "missing")]) == 2


def _inspect_fields(directory, capsys) -> dict:
    """Run ``atc-inspect`` on ``directory``; returns its ``key : value`` lines."""
    assert inspect_main([str(directory)]) == 0
    fields = {}
    for line in capsys.readouterr().out.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


@pytest.fixture(scope="module")
def stationary_container(tmp_path_factory):
    """A lossy container whose first interval is imitated by all the rest."""
    from repro.core.atc import MODE_LOSSY, compress_trace
    from repro.core.lossy import LossyConfig

    rng = np.random.default_rng(42)
    trace = rng.integers(0, 2_048, size=50_000, dtype=np.uint64) + np.uint64(1 << 24)
    directory = tmp_path_factory.mktemp("inspect") / "c"
    config = LossyConfig(interval_length=10_000)
    decoder = compress_trace(trace, directory, mode=MODE_LOSSY, config=config)
    return trace, directory, decoder


class TestInspectSummary:
    """The summary ``atc-inspect`` prints agrees with the decoder's own view."""

    def test_interval_counts_match_the_decoder(self, stationary_container, capsys):
        _, directory, decoder = stationary_container
        fields = _inspect_fields(directory, capsys)
        num_intervals = len(decoder.records)
        num_chunks = decoder.metadata["num_chunks"]
        assert num_intervals > num_chunks  # the fixture must exercise imitation
        assert fields["intervals"] == f"{num_intervals} ({num_intervals - num_chunks} imitated)"
        assert fields["num_chunks"] == str(num_chunks)

    def test_original_length_is_the_trace_length(self, stationary_container, capsys):
        trace, directory, _ = stationary_container
        assert _inspect_fields(directory, capsys)["original_length"] == str(trace.size)

    def test_sizes_match_the_decoder(self, stationary_container, capsys):
        _, directory, decoder = stationary_container
        fields = _inspect_fields(directory, capsys)
        assert fields["on-disk bytes"] == str(decoder.compressed_bytes())
        assert fields["bits per address"] == f"{decoder.bits_per_address():.3f}"

    def test_digest_table_counts_every_stored_chunk(self, stationary_container, capsys):
        _, directory, decoder = stationary_container
        fields = _inspect_fields(directory, capsys)
        stored = len(decoder.container.chunk_ids())
        assert fields["chunk_digests"] == f"{stored} chunks digested"

    def test_empty_trace_container(self, tmp_path, capsys):
        from repro.core.atc import MODE_LOSSY, compress_trace
        from repro.core.lossy import LossyConfig

        config = LossyConfig(interval_length=1_000)
        compress_trace(np.empty(0, dtype=np.uint64), tmp_path / "c", mode=MODE_LOSSY, config=config)
        fields = _inspect_fields(tmp_path / "c", capsys)
        assert fields["intervals"] == "0 (0 imitated)"
        assert fields["bits per address"] == "0.000"

    def test_lossless_container_never_imitates(self, tmp_path, capsys):
        from repro.core.atc import MODE_LOSSLESS, compress_trace
        from repro.core.lossy import LossyConfig

        trace = np.arange(20_000, dtype=np.uint64)
        config = LossyConfig(chunk_buffer_addresses=5_000)
        compress_trace(trace, tmp_path / "c", mode=MODE_LOSSLESS, config=config)
        fields = _inspect_fields(tmp_path / "c", capsys)
        assert fields["mode"] == "lossless"
        assert fields["num_chunks"] == "4"
        assert fields["intervals"] == "4 (0 imitated)"


@pytest.fixture
def k6_trace_file(tmp_path):
    from repro.traces.formats import TraceRecords, write_k6_records

    path = tmp_path / "k6_small.trc.gz"
    addresses = (np.arange(5000, dtype=np.uint64) * np.uint64(2654435761)) % np.uint64(1 << 24)
    kinds = (np.arange(5000) % 3).astype(np.uint8)
    cycles = np.arange(5000, dtype=np.uint64) * np.uint64(3)
    records = TraceRecords(addresses, kinds, cycles)
    write_k6_records(path, [records])
    return path, records


class TestConvertSubcommand:
    def test_k6_gz_round_trips_through_a_container(self, tmp_path, k6_trace_file, capsys):
        from repro.traces.formats import iter_k6_records, records_equal

        source, records = k6_trace_file
        container = tmp_path / "container"
        assert (
            main(["convert", str(source), str(container), "--buffer-addresses", "2000"]) == 0
        )
        assert "coded 5000 addresses" in capsys.readouterr().err
        assert (container / "SIDECAR.bz2").is_file()

        back = tmp_path / "back.k6.trc.gz"
        assert main(["convert", str(container), str(back)]) == 0
        assert "exported 5000 records" in capsys.readouterr().err
        chunks = list(iter_k6_records(back))
        parsed = chunks[0] if len(chunks) == 1 else None
        if parsed is None:
            from repro.traces.formats import concat_records

            parsed = concat_records(chunks)
        assert records_equal(parsed, records)

    def test_explicit_format_flags_and_binary_layout(self, tmp_path, k6_trace_file):
        from repro.traces.formats import BinaryLayout, iter_binary_records

        source, records = k6_trace_file
        container = tmp_path / "container"
        assert main(["convert", str(source), str(container), "--buffer-addresses", "2000"]) == 0
        out = tmp_path / "mystery.out"
        assert (
            main(
                ["convert", str(container), str(out), "--to", "bin",
                 "--record-bytes", "12", "--address-bytes", "4"]
            )
            == 0
        )
        layout = BinaryLayout(record_bytes=12, address_bytes=4)
        with open(out, "rb") as handle:
            chunks = list(iter_binary_records(handle, layout=layout))
        total = sum(len(chunk) for chunk in chunks)
        assert total == len(records)

    def test_undetectable_format_is_a_runtime_error(self, tmp_path, capsys):
        source = tmp_path / "mystery.txt"
        source.write_text("0x40 P_MEM_RD 1\n")
        assert main(["convert", str(source), str(tmp_path / "container")]) == 1
        assert "repro convert: error:" in capsys.readouterr().err

    def test_missing_source_is_a_runtime_error(self, tmp_path, capsys):
        assert main(["convert", str(tmp_path / "absent.k6.trc"), str(tmp_path / "c")]) == 1
        assert "repro convert: error:" in capsys.readouterr().err


class TestZooSubcommand:
    def test_text_listing_covers_the_catalog(self, capsys):
        from repro.traces.zoo import ZOO_NAMES

        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        for name in ZOO_NAMES:
            assert name in out

    def test_family_filter_and_json(self, capsys):
        import json

        assert main(["zoo", "--family", "stream", "-f", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in entries} == {
            "stream.add", "stream.copy", "stream.scale", "stream.triad"
        }
        assert all(entry["family"] == "stream" for entry in entries)
        assert all(entry["cores"] == 1 for entry in entries)


@pytest.fixture
def small_container(tmp_path, raw_trace_file):
    """A freshly encoded multi-chunk lossless container for damage tests."""
    container = tmp_path / "container"
    assert (
        bin2atc_main(
            [
                str(container),
                "--lossless",
                "--input",
                str(raw_trace_file),
                "--buffer-addresses",
                "10000",
            ]
        )
        == 0
    )
    return container


class TestContainerOpenFailures:
    """Things that are not ATC containers: typed error naming the file, exit 2."""

    def test_empty_file_is_not_a_container(self, tmp_path, capsys):
        target = tmp_path / "empty.atc"
        target.write_bytes(b"")
        assert atc2bin_main([str(target)]) == 2
        err = capsys.readouterr().err
        assert "empty.atc" in err and "not an ATC container" in err

    def test_empty_info_stream_is_exit_2(self, tmp_path, capsys):
        container = tmp_path / "c"
        container.mkdir()
        (container / "INFO.bz2").write_bytes(b"")
        assert atc2bin_main([str(container)]) == 2
        err = capsys.readouterr().err
        assert "INFO.bz2" in err and "not an ATC container" in err

    def test_short_magic_is_exit_2(self, tmp_path, capsys):
        import bz2

        container = tmp_path / "c"
        container.mkdir()
        (container / "INFO.bz2").write_bytes(bz2.compress(b"ATC?"))
        assert atc2bin_main([str(container)]) == 2
        err = capsys.readouterr().err
        assert "not an ATC container" in err

    def test_mid_header_truncation_is_exit_2(self, tmp_path, capsys):
        import bz2
        import struct

        container = tmp_path / "c"
        container.mkdir()
        # Header claims 999 bytes of JSON; the body ends after one byte.
        body = b"ATCINFO1" + struct.pack("<I", 999) + b"{"
        (container / "INFO.bz2").write_bytes(bz2.compress(body))
        assert atc2bin_main([str(container)]) == 2
        err = capsys.readouterr().err
        assert "not an ATC container" in err

    def test_inspect_uses_the_same_exit_code(self, tmp_path, capsys):
        target = tmp_path / "empty.atc"
        target.write_bytes(b"")
        assert inspect_main([str(target)]) == 2
        assert "not an ATC container" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", ["foo", "gz"])
    def test_a_suffix_that_is_no_canonical_back_end_is_exit_2(self, tmp_path, capsys, suffix):
        # The lossy bz2 golden with every file renamed to ``.<suffix>``: no
        # tool guesses a back-end for it, and fsck does not call it clean.
        import shutil
        from pathlib import Path

        golden = Path(__file__).parent / "data" / "golden" / "lossy_bz2"
        container = tmp_path / "c"
        container.mkdir()
        for path in golden.iterdir():
            shutil.copyfile(path, container / f"{path.stem}.{suffix}")
        for tool in (
            lambda: main(["fsck", str(container)]),
            lambda: atc2bin_main([str(container), "--output", str(tmp_path / "out.bin")]),
            lambda: inspect_main([str(container)]),
        ):
            assert tool() == 2
            err = capsys.readouterr().err
            assert "not an ATC container" in err and f"INFO.{suffix}" in err

    def test_integrity_damage_mid_decode_is_exit_1(self, small_container, capsys):
        from repro.testing.faults import flip_bit

        chunks = sorted(
            p for p in small_container.iterdir() if not p.name.startswith("INFO.")
        )
        flip_bit(chunks[0], 17)
        # The container *opens* fine (INFO intact) but decode hits damage:
        # a runtime failure (1), not a usage error (2).
        assert atc2bin_main([str(small_container), "--output", "/dev/null"]) == 1
        err = capsys.readouterr().err
        assert "digest mismatch" in err


class TestInspectVerify:
    def test_verify_passes_on_a_clean_container(self, small_container, capsys):
        assert inspect_main([str(small_container), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verify" in out and "ok" in out

    def test_verify_reports_a_damage_table_and_exit_1(self, small_container, capsys):
        from repro.testing.faults import flip_bit

        chunks = sorted(
            p for p in small_container.iterdir() if not p.name.startswith("INFO.")
        )
        flip_bit(chunks[1], 3)
        assert inspect_main([str(small_container), "--verify"]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        assert chunks[1].name in captured.err
        assert "digest-mismatch" in captured.err


class TestFsckSubcommand:
    def test_clean_container_exits_0(self, small_container, capsys):
        assert main(["fsck", str(small_container)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_damage_exits_1_and_names_the_chunk(self, small_container, capsys):
        from repro.testing.faults import flip_bit

        chunks = sorted(
            p for p in small_container.iterdir() if not p.name.startswith("INFO.")
        )
        flip_bit(chunks[0], 12)
        assert main(["fsck", str(small_container)]) == 1
        captured = capsys.readouterr()
        assert "damage found" in captured.out
        assert chunks[0].name in captured.out + captured.err

    def test_not_a_container_exits_2(self, tmp_path, capsys):
        assert main(["fsck", str(tmp_path / "nothing")]) == 2
        assert "not an ATC container" in capsys.readouterr().err

    def test_repair_writes_a_salvaged_container(self, small_container, capsys):
        import json as json_module

        from repro.core.atc import AtcDecoder
        from repro.testing.faults import flip_bit

        chunks = sorted(
            p for p in small_container.iterdir() if not p.name.startswith("INFO.")
        )
        flip_bit(chunks[-1], 9)
        salvaged = small_container.parent / "salvaged"
        assert main(["fsck", str(small_container), "--repair", "-o", str(salvaged)]) == 1
        out = capsys.readouterr().out
        assert "salvage" in out.lower()
        # The salvage decodes (damage was the last chunk, so a clean prefix).
        assert main(["fsck", str(salvaged)]) == 0
        AtcDecoder(salvaged).read_all()

    def test_json_format_reports_structured_verdicts(self, small_container, capsys):
        import json as json_module

        from repro.testing.faults import flip_bit

        chunks = sorted(
            p for p in small_container.iterdir() if not p.name.startswith("INFO.")
        )
        flip_bit(chunks[0], 12)
        assert main(["fsck", str(small_container), "-f", "json"]) == 1
        document = json_module.loads(capsys.readouterr().out)
        assert document["kind"] == "container"
        assert document["ok"] is False
        statuses = [c["status"] for c in document["containers"][0]["chunks"]]
        assert statuses.count("digest-mismatch") == 1

    def test_fsck_scrubs_a_sweep_store(self, tmp_path, capsys):
        from repro.experiments.store import ResultStore

        store_dir = tmp_path / "cache"
        ResultStore(store_dir).put("ab" * 32, {"metric": 1})
        assert main(["fsck", str(store_dir)]) == 0
        entry = store_dir / ("ab" * 32 + ".json")
        entry.write_text(entry.read_text().replace("1", "7"))
        assert main(["fsck", str(store_dir)]) == 1
        captured = capsys.readouterr()
        assert "digest-mismatch" in captured.out + captured.err

    def test_fsck_reports_a_store_member_naming_no_back_end(self, tmp_path, capsys):
        # One good and one ``.foo`` container in a store: exit 1 (damage
        # found), with the good container still scrubbed and reported.
        import json as json_module
        import shutil
        from pathlib import Path

        golden = Path(__file__).parent / "data" / "golden" / "lossy_bz2"
        store_dir = tmp_path / "cache"
        shutil.copytree(golden, store_dir / "good")
        (store_dir / "renamed").mkdir()
        for path in golden.iterdir():
            shutil.copyfile(path, store_dir / "renamed" / f"{path.stem}.foo")
        assert main(["fsck", str(store_dir), "-f", "json"]) == 1
        document = json_module.loads(capsys.readouterr().out)
        verdicts = {Path(c["path"]).name: c for c in document["containers"]}
        assert verdicts["good"]["ok"] is True
        assert verdicts["renamed"]["info"]["status"] == "malformed"
