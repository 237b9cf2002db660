"""Tests of the fan-out primitives: ordering, errors, cancellation, shutdown.

The worker count alone picks how work runs — inline for one worker, a
stdlib thread pool beyond — and a live pool can be shared through
``OrderedChunkWriter`` and the codec facades without being closed by them.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.parallel import OrderedChunkWriter, map_ordered, resolve_workers, usable_cpus
from repro.errors import ConfigurationError

WORKER_COUNTS = (1, 2)


def _double(value):
    return value * 2


def _boom(_value):
    raise ValueError("task failure")


def _slow_identity(value):
    time.sleep(0.05)
    return value


def _container(directory, executor=None, chunks=10):
    """Write a lossless zlib container of ``chunks`` chunks; return its addresses."""
    from repro.core.atc import MODE_LOSSLESS, AtcEncoder
    from repro.core.lossy import LossyConfig

    addresses = np.arange(chunks * 2_000, dtype=np.uint64) * np.uint64(8)
    config = LossyConfig(interval_length=2_000, chunk_buffer_addresses=2_000, backend="zlib")
    with AtcEncoder(directory, mode=MODE_LOSSLESS, config=config, executor=executor) as encoder:
        encoder.code_many(addresses)
    return addresses


def _writer(workers=2, **kwargs):
    written = []
    writer = OrderedChunkWriter(lambda cid, payload: written.append(cid), workers=workers, **kwargs)
    return writer, written


class TestUsableCpus:
    def test_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert usable_cpus() == 3
        assert resolve_workers(0) == resolve_workers(None) == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1

    def test_booleans_are_not_worker_counts(self):
        for flag in (True, False):
            with pytest.raises(ConfigurationError, match="workers"):
                resolve_workers(flag)
            with pytest.raises(ConfigurationError, match="workers"):
                OrderedChunkWriter(lambda cid, payload: None, workers=flag)

    def test_writer_takes_zero_as_one_worker_per_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        writer, written = _writer(workers=0)
        try:
            assert writer.workers == 3 and writer.pool is not None
            writer.submit(0, _double, 1)
        finally:
            writer.close()
        assert written == [0]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        writer, _ = _writer(workers=0)
        assert writer.workers == 1 and writer.pool is None  # one CPU: inline
        writer.close()


class TestOrderingAndErrors:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_map_ordered_preserves_input_order(self, workers):
        items = list(range(24))
        assert map_ordered(_double, items, workers=workers) == [value * 2 for value in items]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_task_exceptions_propagate_unchanged(self, workers):
        with pytest.raises(ValueError, match="task failure"):
            map_ordered(_boom, [1, 2], workers=workers)
        writer, written = _writer(workers=workers)
        with pytest.raises(ValueError, match="task failure"):
            writer.submit(0, _boom, 1)
            writer.close()
        assert written == []

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_writer_preserves_submission_order(self, workers):
        writer, written = _writer(workers=workers)
        with writer:
            for chunk_id in range(24):
                writer.submit(chunk_id, _slow_identity if chunk_id % 5 == 0 else _double, chunk_id)
        assert written == list(range(24))

    def test_inline_writer_runs_the_task_inside_submit(self):
        ran = []
        writer, written = _writer(workers=1)
        assert writer.pool is None
        writer.submit(0, lambda: ran.append("now") or b"")
        assert ran == ["now"] and written == [0]  # before close() was ever called
        writer.close()

    def test_map_ordered_helper_uses_threads_beyond_one_worker(self):
        caller = threading.get_ident()
        idents = map_ordered(lambda _: threading.get_ident(), range(8), workers=2)
        assert caller not in idents

    def test_map_ordered_helper_stays_inline_for_one_worker(self):
        calls = []

        def local_closure(value):
            calls.append(threading.get_ident())
            return value

        assert map_ordered(local_closure, [1, 2], workers=1) == [1, 2]
        assert calls == [threading.get_ident()] * 2

    def test_map_ordered_joins_its_pool_even_on_failure(self):
        before = threading.active_count()
        assert map_ordered(_slow_identity, range(6), workers=3) == list(range(6))
        assert threading.active_count() <= before
        with pytest.raises(ValueError):
            map_ordered(_boom, range(6), workers=3)
        assert threading.active_count() <= before

    def test_map_ordered_failure_cancels_unstarted_items(self):
        started = []

        def first_fails(value):
            started.append(value)
            if value == 0:
                raise ValueError("task failure")
            time.sleep(0.02)
            return value

        with pytest.raises(ValueError, match="task failure"):
            map_ordered(first_fails, range(200), workers=2)
        # 200 items x 20 ms on 2 threads is 2 s; the queued tail is dropped.
        assert len(started) < 50


class TestSharedPool:
    def test_shared_pool_is_borrowed_not_closed(self):
        with ThreadPoolExecutor(2) as pool:
            writer, written = _writer(executor=pool)
            assert writer.pool is pool
            writer.submit(0, _double, 1)
            writer.close()
            assert written == [0]
            # Borrowed: the writer must not have shut it down.
            assert pool.submit(_double, 21).result() == 42

    def test_owned_pool_is_shut_down_on_close(self):
        writer, _ = _writer(workers=2)
        pool = writer.pool
        writer.submit(0, _double, 1)
        writer.close()
        with pytest.raises(RuntimeError):
            pool.submit(_double, 1)

    def test_cancel_reclaims_finished_results_on_a_borrowed_pool(self):
        """Cancelling a writer on a shared pool drops its finished results
        at once and leaves the pool open for the owner to reuse."""
        with ThreadPoolExecutor(1) as pool:
            writer, written = _writer(executor=pool, max_pending=8)
            for chunk_id in range(3):
                writer.submit(chunk_id, _double, chunk_id)
            pool.submit(_double, 1).result()  # barrier: every chunk finished
            writer.cancel()
            assert written == []
            assert not writer._pending
            assert pool.submit(_double, 21).result() == 42  # pool still usable

    def test_cancel_drops_only_unstarted_work(self):
        gate = threading.Event()
        ran = []

        def blocked(value):
            gate.wait(5)
            ran.append(value)
            return value

        with ThreadPoolExecutor(1) as pool:
            writer, written = _writer(executor=pool, max_pending=8)
            writer.submit(0, blocked, "first")
            writer.submit(1, blocked, "second")
            running, queued = (future for _, future in writer._pending)
            writer.cancel()
            gate.set()
            assert running.result() == "first"
            assert queued.cancelled()
            assert pool.submit(_double, 5).result() == 10
        assert ran == ["first"] and written == []


    def test_encoder_borrows_a_shared_pool_without_closing_it(self, tmp_path):
        from repro.core.atc import AtcDecoder

        with ThreadPoolExecutor(2) as pool:
            addresses = _container(tmp_path / "shared", executor=pool)
            assert pool.submit(_double, 21).result() == 42  # still open after close()
        _container(tmp_path / "inline")
        for name in ("shared", "inline"):
            np.testing.assert_array_equal(AtcDecoder(tmp_path / name).read_all(), addresses)
        assert sorted(p.read_bytes() for p in (tmp_path / "shared").iterdir()) == sorted(
            p.read_bytes() for p in (tmp_path / "inline").iterdir()
        )

    def test_decoder_loads_chunks_on_a_shared_pool_and_leaves_it_open(self, tmp_path):
        from repro.core.atc import AtcDecoder

        addresses = _container(tmp_path / "c")
        caller = threading.get_ident()
        with ThreadPoolExecutor(2) as pool:
            for read in (
                lambda decoder: decoder.read_all(),
                lambda decoder: np.concatenate(list(decoder.iter_intervals())),
            ):
                decoder = AtcDecoder(tmp_path / "c", executor=pool)
                loader, idents = decoder._load_chunk, []
                decoder._load_chunk = lambda cid: idents.append(threading.get_ident()) or loader(cid)
                np.testing.assert_array_equal(read(decoder), addresses)
                assert idents and caller not in idents
                assert pool.submit(_double, 21).result() == 42


class TestCleanShutdown:
    def test_aborted_encoder_context_closes_its_thread_pool(self, tmp_path):
        from repro.core.atc import MODE_LOSSLESS, AtcEncoder
        from repro.core.lossy import LossyConfig

        before = threading.active_count()
        config = LossyConfig(
            interval_length=5_000, chunk_buffer_addresses=5_000, backend="zlib", workers=2
        )
        encoder = AtcEncoder(tmp_path / "container", mode=MODE_LOSSLESS, config=config)
        with pytest.raises(RuntimeError):
            with encoder:
                encoder.code_many(np.arange(20_000, dtype=np.uint64))
                raise RuntimeError("abort")
        assert threading.active_count() <= before

    def test_close_is_idempotent_and_rejects_new_work(self):
        writer, written = _writer(workers=2)
        writer.submit(0, _double, 4)
        writer.close()
        writer.close()
        assert written == [0]
        with pytest.raises(ConfigurationError):
            writer.submit(1, _double, 1)

    def test_slow_queue_cancel_returns_promptly(self):
        writer, written = _writer(workers=2, max_pending=100)
        started = time.perf_counter()
        for value in range(80):
            writer.submit(value, _slow_identity, value)
        writer.cancel()
        # 80 tasks x 50 ms on 2 threads would take 2 s to drain;
        # cancellation must drop the unstarted tail instead.
        assert time.perf_counter() - started < 1.0
        assert written == []

    def test_crash_inside_pipeline_surfaces_and_cleans_up(self):
        before = threading.active_count()
        writer, written = _writer(workers=2)
        writer.submit(0, _double, 1)
        writer.submit(1, _boom, 2)
        writer.submit(2, _double, 3)
        with pytest.raises(ValueError, match="task failure"):
            writer.close()
        assert written == [0]  # nothing after the failed chunk is written
        assert threading.active_count() <= before

    def test_writer_callback_failure_propagates_and_closes_owned_pool(self):
        before = threading.active_count()

        def failing_write(chunk_id, payload):
            raise OSError(f"disk full at chunk {chunk_id}")

        writer = OrderedChunkWriter(failing_write, workers=2)
        writer.submit(0, _double, 1)
        with pytest.raises(OSError, match="chunk 0"):
            writer.close()
        assert threading.active_count() <= before
        with pytest.raises(ConfigurationError):
            writer.submit(1, _double, 2)

    def test_cancelled_pipeline_discards_results_without_leaks(self):
        before = threading.active_count()
        writer, written = _writer(workers=2, max_pending=8)
        for chunk_id in range(6):
            writer.submit(chunk_id, _slow_identity, chunk_id)
        writer.cancel()
        assert written == []
        assert threading.active_count() <= before
        with pytest.raises(ConfigurationError):
            writer.submit(6, _double, 6)


    def test_abandoned_prefetch_stream_cancels_its_window(self, tmp_path):
        """A decoder stream the consumer walks away from cancels its queued
        prefetches: at most the chunk already running is still loaded."""
        from repro.core.atc import AtcDecoder

        _container(tmp_path / "c")
        gate = threading.Event()
        started = []
        with ThreadPoolExecutor(1) as pool:
            decoder = AtcDecoder(tmp_path / "c", workers=4, executor=pool)
            loader = decoder._load_chunk

            def gated(chunk_id):
                started.append(chunk_id)
                if chunk_id:
                    gate.wait(5)  # holds the single thread on chunk 1
                return loader(chunk_id)

            decoder._load_chunk = gated
            stream = decoder.iter_intervals()
            next(stream)  # chunks 0..7 were queued as the prefetch window
            stream.close()
            gate.set()
        assert started in ([0], [0, 1])  # chunks 2..7 never start

    def test_abandoned_decoder_stream_joins_its_own_pool(self, tmp_path):
        from repro.core.atc import AtcDecoder

        _container(tmp_path / "c")
        before = threading.active_count()
        stream = AtcDecoder(tmp_path / "c", workers=2).iter_chunks(3_000)
        next(stream)
        assert threading.active_count() > before  # the prefetch pool is running
        stream.close()
        assert threading.active_count() <= before


def test_only_the_remaining_primitives_are_exported():
    import repro
    import repro.core as core
    import repro.core.parallel as parallel

    assert set(parallel.__all__) == {
        "usable_cpus",
        "resolve_workers",
        "map_ordered",
        "OrderedChunkWriter",
    }
    assert core.OrderedChunkWriter is OrderedChunkWriter
    assert core.map_ordered is map_ordered and core.usable_cpus is usable_cpus
    for removed in ("Executor", "SerialExecutor", "ThreadExecutor", "resolve_executor"):
        assert not hasattr(repro, removed) and not hasattr(core, removed)
        assert not hasattr(parallel, removed)
    assert not hasattr(parallel, "imap_ordered") and not hasattr(parallel, "executor_scope")
