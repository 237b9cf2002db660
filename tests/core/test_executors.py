"""Tests of the executor engine: selection, ordering, errors, shutdown.

The worker count alone picks the strategy — serial for one worker, a
thread pool beyond — and a live executor can be shared through
``executor_scope`` and ``OrderedChunkWriter`` without being closed by them.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.parallel import (
    Executor,
    OrderedChunkWriter,
    SerialExecutor,
    ThreadExecutor,
    executor_scope,
    map_ordered,
    resolve_executor,
)
from repro.errors import ConfigurationError

STRATEGY_WORKERS = {"serial": 1, "thread": 2}


def _double(value):
    return value * 2


def _boom(_value):
    raise ValueError("task failure")


def _slow_identity(value):
    time.sleep(0.05)
    return value


class TestResolveExecutor:
    def test_auto_is_serial_for_one_worker_and_threads_beyond(self):
        assert resolve_executor(1).name == "serial"
        executor = resolve_executor(3)
        try:
            assert executor.name == "thread"
            assert executor.workers == 3
        finally:
            executor.close()

    def test_unknown_name_rejected(self):
        """Strategy names are gone: only a live Executor instance is accepted."""
        with pytest.raises(ConfigurationError, match="Executor instance"):
            with executor_scope("thread", workers=2):
                pass
        with pytest.raises(ConfigurationError, match="Executor instance"):
            OrderedChunkWriter(lambda cid, payload: None, workers=2, executor="process")

    def test_instance_passes_through_and_scope_borrows_it(self):
        with ThreadExecutor(2) as executor:
            with executor_scope(executor, workers=8) as scoped:
                assert scoped is executor
            # Borrowed: the scope must not have closed it.
            assert executor.map_ordered(_double, [1, 2]) == [2, 4]

    def test_scope_closes_executors_it_created(self):
        with executor_scope(None, workers=2) as executor:
            assert executor.map_ordered(_double, [3]) == [6]
        with pytest.raises(ConfigurationError):
            executor.submit(_double, 1)


class TestOrderingAndErrors:
    @pytest.mark.parametrize("name", sorted(STRATEGY_WORKERS))
    def test_map_ordered_preserves_input_order(self, name):
        with resolve_executor(STRATEGY_WORKERS[name]) as executor:
            assert executor.name == name
            items = list(range(24))
            assert executor.map_ordered(_double, items) == [value * 2 for value in items]

    @pytest.mark.parametrize("name", sorted(STRATEGY_WORKERS))
    def test_imap_ordered_streams_in_order(self, name):
        with resolve_executor(STRATEGY_WORKERS[name]) as executor:
            items = list(range(15))
            assert list(executor.imap_ordered(_double, items, lookahead=3)) == [
                value * 2 for value in items
            ]

    @pytest.mark.parametrize("name", sorted(STRATEGY_WORKERS))
    def test_task_exceptions_propagate_unchanged(self, name):
        with resolve_executor(STRATEGY_WORKERS[name]) as executor:
            with pytest.raises(ValueError, match="task failure"):
                executor.map_ordered(_boom, [1, 2])
            with pytest.raises(ValueError, match="task failure"):
                executor.submit(_boom, 1).result()

    def test_serial_submit_runs_inline(self):
        executor = SerialExecutor()
        ran = []
        future = executor.submit(ran.append, "now")
        assert ran == ["now"]  # before result() was ever called
        assert future.done() and not future.cancel()  # finished: nothing to cancel
        assert executor.is_async is False

    def test_only_the_thread_path_is_async(self):
        assert SerialExecutor().is_async is False
        with ThreadExecutor(2) as threads:
            assert threads.is_async is True

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
        executor = ThreadExecutor(1)
        assert executor.submit(_double, 4).result() == 8
        executor.close()
        executor.close()
        with pytest.raises(ConfigurationError):
            executor.submit(_double, 1)

    def test_slow_queue_cancel_returns_promptly(self):
        executor = ThreadExecutor(1)
        started = time.perf_counter()
        for value in range(40):
            executor.submit(_slow_identity, value)
        executor.close(cancel=True)
        # 40 tasks x 50 ms would be 2 s serially; cancellation must drop
        # the unstarted tail instead of draining it.
        assert time.perf_counter() - started < 1.5

    def test_crash_inside_pipeline_surfaces_and_cleans_up(self):
        before = threading.active_count()
        written = []
        writer = OrderedChunkWriter(lambda cid, payload: written.append(cid), workers=2)
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
        written = []
        writer = OrderedChunkWriter(
            lambda cid, payload: written.append(cid), workers=2, max_pending=8
        )
        for chunk_id in range(6):
            writer.submit(chunk_id, _slow_identity, chunk_id)
        writer.cancel()
        assert written == []
        assert threading.active_count() <= before
        with pytest.raises(ConfigurationError):
            writer.submit(6, _double, 6)

    def test_cancel_reclaims_finished_results_on_a_borrowed_pool(self):
        """Cancelling a writer on a shared pool drops its finished results
        at once and leaves the pool open for the owner to reuse."""
        with ThreadExecutor(1) as executor:
            written = []
            writer = OrderedChunkWriter(
                lambda cid, payload: written.append(cid), executor=executor, max_pending=8
            )
            for chunk_id in range(3):
                writer.submit(chunk_id, _double, chunk_id)
            executor.submit(_double, 1).result()  # barrier: every chunk finished
            writer.cancel()
            assert written == []
            assert not writer._pending
            assert executor.submit(_double, 21).result() == 42  # pool still usable

    def test_cancelled_future_drops_only_unstarted_work(self):
        gate = threading.Event()
        ran = []

        def blocked(value):
            gate.wait(5)
            ran.append(value)
            return value

        with ThreadExecutor(1) as executor:
            running = executor.submit(blocked, "first")
            queued = executor.submit(blocked, "second")
            assert queued.cancel()
            gate.set()
            assert running.result() == "first"
            assert queued.cancelled()
            assert executor.submit(_double, 5).result() == 10
        assert ran == ["first"]

    def test_abandoned_imap_stream_cancels_its_window(self):
        gate = threading.Event()
        started = []

        def gated(value):
            started.append(value)
            if value:
                gate.wait(5)  # holds the single worker on task 1
            return value

        with ThreadExecutor(1) as executor:
            stream = executor.imap_ordered(gated, range(100), lookahead=4)
            assert next(stream) == 0
            stream.close()  # consumer walks away: the queued window is cancelled
            gate.set()
        assert started in ([0], [0, 1])  # at most the running task; 2..4 never start


def test_engine_module_is_exported_from_core():
    import repro
    import repro.core as core

    assert core.ThreadExecutor is ThreadExecutor
    assert repro.resolve_executor is resolve_executor
    assert issubclass(SerialExecutor, Executor) and issubclass(ThreadExecutor, Executor)
