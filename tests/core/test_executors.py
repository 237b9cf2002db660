"""Tests of the fan-out primitives: ordering, errors, cancellation, the process pool.

The worker count alone picks how work runs — inline for one worker, the
process-wide thread pool beyond — and one waiting rule (a pool thread
never blocks on a task no thread has started) keeps fan-outs nested on
that bounded pool deadlock-free.  Tests that need the pool report two (or
four) usable CPUs through ``usable_cpus``, so they also run under a
one-CPU affinity mask, where the library itself makes no pool.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import parallel
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


def _container(directory, workers=1, chunks=10):
    """Write a lossless zlib container of ``chunks`` chunks; return its addresses."""
    from repro.core.atc import MODE_LOSSLESS, AtcEncoder
    from repro.core.lossy import LossyConfig

    addresses = np.arange(chunks * 2_000, dtype=np.uint64) * np.uint64(8)
    config = LossyConfig(
        interval_length=2_000, chunk_buffer_addresses=2_000, backend="zlib", workers=workers
    )
    with AtcEncoder(directory, mode=MODE_LOSSLESS, config=config) as encoder:
        encoder.code_many(addresses)
    return addresses


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def _writer(workers=2):
    written = []
    writer = OrderedChunkWriter(lambda cid, payload: written.append(cid), workers=workers)
    return writer, written


def _outside_pool():
    """Live threads that are not threads of the process pool."""
    return {
        thread
        for thread in threading.enumerate()
        if not thread.name.startswith(parallel.POOL_THREAD_PREFIX)
    }


def _is_pool_thread():
    return threading.current_thread().name.startswith(parallel.POOL_THREAD_PREFIX)


@pytest.fixture
def pool_cpus(monkeypatch):
    """Report two usable CPUs, so the process pool exists on any host."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)


@pytest.fixture
def one_thread_pool(monkeypatch):
    """Make the process pool one thread while four CPUs are reported usable."""
    pool = ThreadPoolExecutor(1, thread_name_prefix=parallel.POOL_THREAD_PREFIX)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    monkeypatch.setattr(parallel, "_pool", pool)
    yield pool
    # no wait: a deadlocked test must fail, not hang the session here
    pool.shutdown(wait=False, cancel_futures=True)


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

    def test_one_usable_cpu_has_no_pool(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        assert parallel._process_pool() is None
        writer, _ = _writer(workers=4)
        assert writer.pool is None
        writer.close()
        calls = []
        assert map_ordered(lambda value: calls.append(_is_pool_thread()) or value, [1, 2], 4) == [1, 2]
        assert calls == [False, False]

    def test_every_fan_out_shares_one_pool(self, pool_cpus):
        writer, _ = _writer(workers=2)
        assert writer.pool is parallel._process_pool() is parallel._process_pool()
        writer.close()


@pytest.mark.usefixtures("pool_cpus")
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

    def test_map_ordered_runs_items_on_the_caller_and_pool_threads(self):
        """With two workers the caller works too, next to a pool helper."""
        caller = threading.current_thread()

        def where(_):
            time.sleep(0.02)
            return threading.current_thread()

        threads = set(map_ordered(where, range(8), workers=2))
        assert caller in threads
        helpers = threads - {caller}
        assert helpers and all(t.name.startswith(parallel.POOL_THREAD_PREFIX) for t in helpers)

    def test_map_ordered_helper_stays_inline_for_one_worker(self):
        calls = []

        def local_closure(value):
            calls.append(threading.get_ident())
            return value

        assert map_ordered(local_closure, [1, 2], workers=1) == [1, 2]
        assert calls == [threading.get_ident()] * 2

    def test_map_ordered_starts_no_thread_outside_the_pool(self):
        """Neither a run nor a failure leaves a thread behind but the pool's."""
        before = _outside_pool()
        assert map_ordered(_slow_identity, range(6), workers=3) == list(range(6))
        assert _outside_pool() <= before
        with pytest.raises(ValueError):
            map_ordered(_boom, range(6), workers=3)
        assert _outside_pool() <= before

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

    def test_map_ordered_runs_every_item_exactly_once_under_contention(self, monkeypatch):
        """The shared index hands each item to exactly one thread, with more
        helpers than cores and a thread switch after almost every bytecode."""
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
        calls = [0] * 2_000

        def count(index):
            calls[index] += 1  # lost or repeated hand-outs show as 0 or 2
            return index

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert map_ordered(count, range(len(calls)), workers=8) == list(range(len(calls)))
        finally:
            sys.setswitchinterval(interval)
        assert calls == [5] * len(calls)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_map_ordered_failure_returns_after_every_started_item(self, workers):
        """A failed item stops new items from starting, and the call returns
        only once every started item has finished, whichever thread failed."""
        started, finished = set(), set()

        def task(value):
            started.add(value)
            if value == 1:
                time.sleep(0.02)
                raise ValueError("task failure")
            time.sleep(0.1 if value == 0 else 0.02)
            finished.add(value)
            return value

        with pytest.raises(ValueError, match="task failure"):
            map_ordered(task, range(100), workers=workers)
        assert started - {1} == finished
        assert len(started) < 10


class TestProcessPool:
    def test_closing_never_shuts_the_process_pool_down(self, pool_cpus, tmp_path):
        """Closing or cancelling a writer, an encoder or a decoder leaves the
        process pool open for the next fan-out."""
        from repro.core.atc import AtcDecoder

        pool = parallel._process_pool()
        writer, written = _writer(workers=2)
        writer.submit(0, _double, 1)
        writer.close()
        assert written == [0]
        writer, _ = _writer(workers=2)
        writer.submit(0, _double, 1)
        writer.cancel()
        addresses = _container(tmp_path / "c", workers=2)
        np.testing.assert_array_equal(AtcDecoder(tmp_path / "c", workers=2).read_all(), addresses)
        assert parallel._process_pool() is pool
        assert pool.submit(_double, 21).result() == 42

    def test_cancel_reclaims_finished_results(self, one_thread_pool):
        """Cancelling a writer drops its finished results at once and leaves
        the pool open."""
        writer, written = _writer(workers=4)  # up to 8 chunks in flight
        for chunk_id in range(3):
            writer.submit(chunk_id, _double, chunk_id)
        one_thread_pool.submit(_double, 1).result()  # barrier: every chunk finished
        writer.cancel()
        assert written == []
        assert not writer._pending
        assert one_thread_pool.submit(_double, 21).result() == 42  # pool still usable

    def test_cancel_drops_only_unstarted_work(self, one_thread_pool):
        gate, first_started = threading.Event(), threading.Event()
        ran = []

        def blocked(value):
            first_started.set()
            gate.wait(5)
            ran.append(value)
            return value

        writer, written = _writer(workers=4)
        writer.submit(0, blocked, "first")
        assert first_started.wait(5)  # the pool's one thread holds "first"
        writer.submit(1, blocked, "second")
        running, queued = (call.future for _, call in writer._pending)
        writer.cancel()
        gate.set()
        assert running.result() == "first"
        assert queued.cancelled()
        assert one_thread_pool.submit(_double, 5).result() == 10
        assert ran == ["first"] and written == []

    def test_encoder_on_the_pool_matches_inline(self, pool_cpus, tmp_path):
        from repro.core.atc import AtcDecoder

        addresses = _container(tmp_path / "pooled", workers=2)
        _container(tmp_path / "inline")
        for name in ("pooled", "inline"):
            np.testing.assert_array_equal(AtcDecoder(tmp_path / name).read_all(), addresses)
        assert _files(tmp_path / "pooled") == _files(tmp_path / "inline")

    def test_decoder_loads_chunks_on_pool_threads(self, pool_cpus, tmp_path):
        """With ``workers=2`` at least one chunk load of ``read_all`` and of a
        prefetching stream runs on a pool thread, and the pool stays open."""
        from repro.core.atc import AtcDecoder

        addresses = _container(tmp_path / "c")
        for read in (
            lambda decoder: decoder.read_all(),
            lambda decoder: np.concatenate(list(decoder.iter_intervals())),
        ):
            decoder = AtcDecoder(tmp_path / "c", workers=2)
            loader, on_pool = decoder._load_chunk, []

            def load(chunk_id, loader=loader, on_pool=on_pool):
                on_pool.append(_is_pool_thread())
                time.sleep(0.01)  # long enough for a helper to take a share
                return loader(chunk_id)

            decoder._load_chunk = load
            np.testing.assert_array_equal(read(decoder), addresses)
            assert len(on_pool) == 10 and any(on_pool)
            assert parallel._process_pool().submit(_double, 21).result() == 42


class TestWaitingRule:
    """Fan-outs nested on a one-thread pool finish: a pool thread never
    blocks on a task that no thread has started, it runs the task itself."""

    @staticmethod
    def _traces():
        rng = np.random.default_rng(5)
        # 240k random addresses in 120k-address chunks: ~960 kB of
        # incompressible bytes per chunk, so every bz2 payload is two blocks.
        return [rng.integers(0, 1 << 63, 240_000, dtype=np.uint64) for _ in range(4)]

    @staticmethod
    def _encode(trace, directory, workers):
        from repro.core.atc import MODE_LOSSLESS, AtcDecoder, AtcEncoder
        from repro.core.lossy import LossyConfig

        config = LossyConfig(chunk_buffer_addresses=120_000, backend="bz2", workers=workers)
        with AtcEncoder(directory, mode=MODE_LOSSLESS, config=config) as encoder:
            encoder.code_many(trace)
        decoded = AtcDecoder(directory, workers=workers).read_all()
        np.testing.assert_array_equal(decoded, trace)
        return _files(directory)

    def test_pool_threads_run_unstarted_calls_and_other_threads_wait(self, one_thread_pool):
        def where():
            return threading.current_thread().name

        def nested():  # the pool's only thread waits on a call queued behind it
            return parallel._Call(one_thread_pool, where).result()

        outer = parallel._Call(one_thread_pool, nested)
        assert outer.future.result(timeout=30).startswith(parallel.POOL_THREAD_PREFIX)
        gate = threading.Event()
        one_thread_pool.submit(gate.wait, 5)  # holds the pool's only thread
        queued = parallel._Call(one_thread_pool, where)
        threading.Timer(0.1, gate.set).start()
        # the caller waits for the pool instead of running the call itself
        assert queued.result().startswith(parallel.POOL_THREAD_PREFIX)

    def test_nested_fan_outs_on_a_one_thread_pool_finish(self, one_thread_pool, tmp_path):
        traces = self._traces()
        outcome = {}

        def run():
            try:
                outcome["files"] = map_ordered(
                    lambda item: self._encode(item[1], tmp_path / f"pooled-{item[0]}", 2),
                    list(enumerate(traces)),
                    workers=4,
                )
            except BaseException as exc:  # reported by the assertion below
                outcome["error"] = exc

        watchdog = threading.Thread(target=run, daemon=True)
        watchdog.start()
        watchdog.join(120)
        assert not watchdog.is_alive(), "nested fan-outs deadlocked on a one-thread pool"
        assert "error" not in outcome, outcome.get("error")
        for index, trace in enumerate(traces):
            assert outcome["files"][index] == self._encode(trace, tmp_path / f"inline-{index}", 1)
        chunk = (tmp_path / "inline-0" / "1.bz2").read_bytes()
        assert chunk.count(b"BZh91AY&SY") >= 2  # the chunks really were multi-block

    def test_abandoned_prefetch_stream_cancels_its_window(self, one_thread_pool, tmp_path):
        """A decoder stream the consumer walks away from cancels its queued
        prefetches and waits for the one the pool thread had started."""
        from repro.core.atc import AtcDecoder

        _container(tmp_path / "c")
        gate = threading.Event()
        started, finished = [], []
        decoder = AtcDecoder(tmp_path / "c", workers=4)
        loader = decoder._load_chunk

        def gated(chunk_id):
            started.append(chunk_id)
            if chunk_id:
                gate.wait(5)  # holds the single thread on chunk 1
            finished.append(chunk_id)
            return loader(chunk_id)

        decoder._load_chunk = gated
        stream = decoder.iter_intervals()
        next(stream)  # chunks 0..7 were queued as the prefetch window
        threading.Timer(0.2, gate.set).start()
        stream.close()
        assert sorted(started) in ([0], [0, 1])  # chunks 2..7 never start
        assert sorted(finished) == sorted(started)  # close() waited for the started load


@pytest.mark.usefixtures("pool_cpus")
class TestCleanShutdown:
    def test_aborted_encoder_starts_no_thread_outside_the_pool(self, tmp_path):
        from repro.core.atc import MODE_LOSSLESS, AtcEncoder
        from repro.core.lossy import LossyConfig

        before = _outside_pool()
        config = LossyConfig(
            interval_length=5_000, chunk_buffer_addresses=5_000, backend="zlib", workers=2
        )
        encoder = AtcEncoder(tmp_path / "container", mode=MODE_LOSSLESS, config=config)
        with pytest.raises(RuntimeError):
            with encoder:
                encoder.code_many(np.arange(20_000, dtype=np.uint64))
                raise RuntimeError("abort")
        assert _outside_pool() <= before

    def test_close_is_idempotent_and_rejects_new_work(self):
        writer, written = _writer(workers=2)
        writer.submit(0, _double, 4)
        writer.close()
        writer.close()
        assert written == [0]
        with pytest.raises(ConfigurationError):
            writer.submit(1, _double, 1)

    def test_slow_queue_cancel_returns_promptly(self):
        writer, written = _writer(workers=50)  # up to 100 chunks in flight
        started = time.perf_counter()
        for value in range(80):
            writer.submit(value, _slow_identity, value)
        writer.cancel()
        # 80 tasks x 50 ms on 2 threads would take 2 s to drain;
        # cancellation must drop the unstarted tail instead.
        assert time.perf_counter() - started < 1.0
        assert written == []

    def test_crash_inside_pipeline_surfaces_and_cleans_up(self):
        before = _outside_pool()
        writer, written = _writer(workers=2)
        writer.submit(0, _double, 1)
        writer.submit(1, _boom, 2)
        writer.submit(2, _double, 3)
        with pytest.raises(ValueError, match="task failure"):
            writer.close()
        assert written == [0]  # nothing after the failed chunk is written
        assert _outside_pool() <= before

    def test_writer_callback_failure_propagates_and_closes_the_writer(self):
        before = _outside_pool()

        def failing_write(chunk_id, payload):
            raise OSError(f"disk full at chunk {chunk_id}")

        writer = OrderedChunkWriter(failing_write, workers=2)
        writer.submit(0, _double, 1)
        with pytest.raises(OSError, match="chunk 0"):
            writer.close()
        assert _outside_pool() <= before
        with pytest.raises(ConfigurationError):
            writer.submit(1, _double, 2)

    def test_cancelled_pipeline_discards_results_without_leaks(self):
        before = _outside_pool()
        writer, written = _writer(workers=4)  # up to 8 chunks in flight
        for chunk_id in range(6):
            writer.submit(chunk_id, _slow_identity, chunk_id)
        writer.cancel()
        assert written == []
        assert _outside_pool() <= before
        with pytest.raises(ConfigurationError):
            writer.submit(6, _double, 6)

    def test_abandoned_decoder_stream_waits_for_its_started_loads(self, tmp_path):
        """Closing a prefetching stream early returns only once no chunk
        load is running, and starts no thread outside the pool."""
        from repro.core.atc import AtcDecoder

        _container(tmp_path / "c")
        before = _outside_pool()
        decoder = AtcDecoder(tmp_path / "c", workers=2)
        loader, lock, running, pooled = decoder._load_chunk, threading.Lock(), [0], []

        def slow_load(chunk_id):
            with lock:
                running[0] += 1
            pooled.append(_is_pool_thread())
            time.sleep(0.02)
            with lock:
                running[0] -= 1
            return loader(chunk_id)

        decoder._load_chunk = slow_load
        stream = decoder.iter_chunks(3_000)
        next(stream)
        assert any(pooled)  # the prefetch ran on the pool
        stream.close()
        assert running[0] == 0
        assert _outside_pool() <= before


def test_only_the_remaining_primitives_are_exported():
    import repro
    import repro.core as core

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
