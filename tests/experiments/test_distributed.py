"""Distributed-sweep correctness: sharding, leases, crash/resume, merge.

The headline suite here is the **crash/resume fault-injection harness**
(:class:`FaultingRunner` + ``TestFaultInjection``): real worker processes
are killed mid-sweep via the library's env-triggered fault hook
(``REPRO_SWEEP_FAULT_EXIT_AFTER`` -> ``os._exit(42)`` after the K-th stored
unit, *before* the lease release), then the sweep is resumed and the tests
assert the protocol's whole contract at once:

* the resumed sweep completes, whatever the worker count or steal setting;
* every unit was evaluated **exactly once** across all processes (counted
  through the ``REPRO_SWEEP_EVAL_LOG`` append-only spy);
* the merged result is **byte-identical** to an uninterrupted serial run
  (via :meth:`SweepResult.normalized`);
* no ``.lease`` or ``.tmp`` debris survives.

The hypothesis properties then generalise the scheduling half: *any* sweep
spec, *any* ``i/N`` partition (empty shards included), run in *any* order,
merges to exactly the unsharded result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.experiments import (
    DistributedSweepRunner,
    LeaseManager,
    ResultStore,
    SweepRunner,
    default_code_version,
    expand_sweep,
    lease_census,
    merge_sweep,
    parse_shard,
    shard_progress,
    sweep_spec_from_dict,
)
from repro.experiments.distributed import EVAL_LOG_ENV, FAULT_EXIT_CODE, FAULT_EXIT_ENV

_SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])

_SPEC_DICT = {
    "name": "dist",
    "workloads": [
        {"name": "429.mcf", "references": 3000},
        {"name": "433.milc", "references": 3000},
    ],
    "codecs": ["raw", "unshuffle", "lossless"],
    "scale": {"small_buffer": 1000, "interval_length": 1000},
}
_SPEC = sweep_spec_from_dict(_SPEC_DICT)


def _write_spec(tmp_path) -> Path:
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(_SPEC_DICT), encoding="utf-8")
    return path


def _leftovers(cache_dir) -> list:
    cache_dir = Path(cache_dir)
    return list(cache_dir.glob("*.lease")) + list(cache_dir.glob("*.tmp"))


# ---------------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------------
class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard(" 3/8 ") == (3, 8)

    @pytest.mark.parametrize("text", ["", "0/2", "3/2", "1/0", "a/b", "1-2", "1/2/3", "-1/2"])
    def test_parse_shard_rejects(self, text):
        with pytest.raises(ConfigurationError):
            parse_shard(text)

    @pytest.mark.parametrize("shard_count", [1, 2, 3, 5, 8, 13])
    def test_partition_is_disjoint_and_exhaustive(self, shard_count):
        plan = expand_sweep(_SPEC)
        version = default_code_version()
        seen = []
        for index in range(1, shard_count + 1):
            seen.extend(u.label for u in plan.shard_units(index, shard_count, version))
        assert sorted(seen) == sorted(u.label for u in plan.units)
        assert len(seen) == len(set(seen))

    def test_large_shard_counts_leave_some_shards_empty(self):
        plan = expand_sweep(_SPEC)
        version = default_code_version()
        sizes = [len(plan.shard_units(i, 13, version)) for i in range(1, 14)]
        assert sum(sizes) == len(plan.units)
        assert 0 in sizes  # 6 units over 13 shards: pigeonhole

    def test_shard_validation(self):
        plan = expand_sweep(_SPEC)
        with pytest.raises(ConfigurationError):
            plan.shard_units(0, 2, "v")
        with pytest.raises(ConfigurationError):
            plan.shard_units(3, 2, "v")
        with pytest.raises(ConfigurationError):
            plan.shard_units(1, 0, "v")


# ---------------------------------------------------------------------------------
# Leases
# ---------------------------------------------------------------------------------
class _FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


_HASH = "ab" * 32


class TestLeaseManager:
    def test_acquire_is_exclusive_while_fresh(self, tmp_path):
        first = LeaseManager(tmp_path, owner="first")
        second = LeaseManager(tmp_path, owner="second")
        assert first.acquire(_HASH) == "fresh"
        assert second.acquire(_HASH) is None
        assert first.read(_HASH).owner == "first"

    def test_release_only_by_owner(self, tmp_path):
        first = LeaseManager(tmp_path, owner="first")
        second = LeaseManager(tmp_path, owner="second")
        first.acquire(_HASH)
        assert second.release(_HASH) is False
        assert first.read(_HASH) is not None
        assert first.release(_HASH) is True
        assert first.read(_HASH) is None

    def test_expired_lease_is_reclaimed_via_fake_clock(self, tmp_path):
        clock = _FakeClock(0.0)
        holder = LeaseManager(tmp_path, owner="holder", ttl=100.0, clock=clock)
        stealer = LeaseManager(tmp_path, owner="stealer", ttl=100.0, clock=clock)
        holder.acquire(_HASH)
        clock.now = 99.0
        assert stealer.acquire(_HASH) is None
        clock.now = 100.0  # expiry is inclusive: expires <= now
        assert stealer.acquire(_HASH) == "reclaimed"
        assert stealer.read(_HASH).owner == "stealer"

    def test_dead_same_host_pid_is_reclaimed_immediately(self, tmp_path):
        # A subprocess we already reaped is a guaranteed-dead same-host pid.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        manager = LeaseManager(tmp_path, owner="live", ttl=10_000.0)
        (tmp_path / f"{_HASH}.lease").write_text(
            json.dumps(
                {"owner": "crashed", "host": manager.host, "pid": child.pid,
                 "expires": manager.clock() + 10_000.0}
            ),
            encoding="utf-8",
        )
        assert manager.acquire(_HASH) == "reclaimed"

    def test_corrupt_lease_is_reclaimed(self, tmp_path):
        (tmp_path / f"{_HASH}.lease").write_text("not json", encoding="utf-8")
        manager = LeaseManager(tmp_path, owner="m")
        assert manager.acquire(_HASH) == "reclaimed"

    def test_census_counts_active_and_stale(self, tmp_path):
        clock = _FakeClock(0.0)
        manager = LeaseManager(tmp_path, owner="m", ttl=50.0, clock=clock)
        manager.acquire("11" * 32)
        manager.acquire("22" * 32)
        clock.now = 60.0
        manager.acquire("33" * 32)  # reclaims nothing; new hash, fresh at t=60
        census = lease_census(tmp_path, clock=clock)
        assert (census.active, census.stale, census.total) == (1, 2, 3)

    def test_prune_completed_only_removes_moot_leases(self, tmp_path):
        store = ResultStore(tmp_path)
        manager = LeaseManager(tmp_path, owner="m")
        done, pending = "44" * 32, "55" * 32
        manager.acquire(done)
        manager.acquire(pending)
        store.put(done, {"bits_per_address": 1.0})
        assert manager.prune_completed(store) == 1
        assert manager.read(done) is None
        assert manager.read(pending) is not None

    @settings(max_examples=30, deadline=None)
    @given(
        ttl=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        advance=st.floats(min_value=0.0, max_value=2e6, allow_nan=False),
    )
    def test_property_reclaim_iff_expired(self, tmp_path_factory, ttl, advance):
        """A foreign-host lease is re-claimable exactly when its TTL elapsed."""
        directory = tmp_path_factory.mktemp("leases")
        clock = _FakeClock(0.0)
        stealer = LeaseManager(directory, owner="stealer", ttl=ttl, clock=clock)
        (directory / f"{_HASH}.lease").write_text(
            json.dumps({"owner": "remote", "host": "elsewhere", "pid": 1, "expires": ttl}),
            encoding="utf-8",
        )
        clock.now = advance
        status = stealer.acquire(_HASH)
        assert status == ("reclaimed" if advance >= ttl else None)


# ---------------------------------------------------------------------------------
# Satellite 3 regression: concurrent writers of the same hash
# ---------------------------------------------------------------------------------
class TestConcurrentStoreWriters:
    def test_same_hash_concurrent_puts_never_collide(self, tmp_path):
        """Two workers finishing the same stolen unit race `put` safely.

        With the old shared ``<hash>.json.tmp`` temp name, one writer's
        rename yanked the file out from under the other's
        (``FileNotFoundError``); unique temp names make every rename a
        complete, valid entry — last one wins.
        """
        store = ResultStore(tmp_path / "cache")
        writers = 8
        rounds = 25
        barrier = threading.Barrier(writers)
        errors = []

        def write(worker: int) -> None:
            try:
                for round_no in range(rounds):
                    barrier.wait()
                    store.put(_HASH, {"worker": worker, "round": round_no})
            except Exception as error:  # noqa: BLE001 - the regression IS the exception
                errors.append(error)

        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        winner = store.get(_HASH)
        assert winner is not None and winner["round"] == rounds - 1
        assert 0 <= winner["worker"] < writers
        assert store.tmp_files() == []

    def test_prune_tmp_is_age_guarded(self, tmp_path):
        store = ResultStore(tmp_path)
        store.directory.mkdir(parents=True, exist_ok=True)
        debris = store.directory / f"{_HASH}.999.1.0.tmp"
        debris.write_text("{}", encoding="utf-8")
        assert store.prune_tmp() == 0  # fresh file: under the default age
        assert store.prune_tmp(max_age_seconds=0.0) == 1
        assert store.tmp_files() == []


# ---------------------------------------------------------------------------------
# In-process distributed runner (stubbed evaluation: scheduling only)
# ---------------------------------------------------------------------------------
class _StubDistributedRunner(DistributedSweepRunner):
    """Deterministic, trace-free evaluation: isolates the scheduling logic."""

    def _filtered_trace(self, workload, filter_spec):
        return np.arange(8, dtype=np.uint64)

    def _evaluate_unit(self, unit, addresses):
        return _stub_entry(unit, addresses)


class _StubSerialRunner(SweepRunner):
    def _filtered_trace(self, workload, filter_spec):
        return np.arange(8, dtype=np.uint64)

    def _evaluate_unit(self, unit, addresses):
        return _stub_entry(unit, addresses)


def _stub_entry(unit, addresses):
    return {
        "addresses": int(addresses.size),
        "payload_bytes": len(unit.label),
        "bits_per_address": float(len(unit.label)),
        "seconds": 0.25,
        "extra": {},
        "unit": unit.to_dict(),
    }


class TestDistributedRunner:
    def test_sharded_workers_complete_and_merge_byte_identically(self, tmp_path):
        serial = _StubSerialRunner(_SPEC, cache_dir=tmp_path / "serial").run()
        cache = tmp_path / "dist"
        evaluated = []
        for index in (2, 1, 3):  # any order
            report = _StubDistributedRunner(
                _SPEC, cache, shard=(index, 3), on_unit=lambda u, e: evaluated.append(u.label)
            ).run_worker()
            assert report.stolen == 0
        merged = merge_sweep(_SPEC, ResultStore(cache))
        assert merged.is_complete
        assert merged.result.normalized().to_json() == serial.normalized().to_json()
        assert sorted(evaluated) == sorted(u.label for u in expand_sweep(_SPEC).units)
        assert _leftovers(cache) == []

    def test_corrupt_store_entry_is_quarantined_and_rerun(self, tmp_path):
        """The exactly-once contract survives on-disk corruption.

        A completed sweep whose store loses one entry to bit rot must heal
        itself on the next worker pass: the damaged entry is quarantined
        (counted in the report), exactly that one unit is re-evaluated, and
        the merged result is byte-identical to the uncorrupted run.
        """
        cache = tmp_path / "cache"
        first = _StubDistributedRunner(_SPEC, cache).run_worker()
        assert first.remaining == 0 and first.integrity_evictions == 0
        baseline = merge_sweep(_SPEC, ResultStore(cache)).result.normalized().to_json()

        victim = sorted(Path(cache).glob("*.json"))[0]
        victim.write_text(victim.read_text().replace(":", ";", 1))

        second = _StubDistributedRunner(_SPEC, cache).run_worker()
        assert second.integrity_evictions == 1
        assert second.evaluated == 1  # only the damaged unit re-ran
        assert second.remaining == 0
        assert list(Path(cache).glob("*.quarantine"))  # bad bytes kept aside
        merged = merge_sweep(_SPEC, ResultStore(cache))
        assert merged.is_complete
        assert merged.result.normalized().to_json() == baseline

    @pytest.mark.parametrize(
        "code_version", [None, "repro-1.21.0", "repro-1.22.0", "repro-1.23.0", "test-a", "test-b"]
    )
    def test_stealer_finishes_an_abandoned_shard(self, tmp_path, code_version):
        # Unit hashes mix in the code version, so which shard of two owns
        # the units moves with it; abandon one that owns at least one unit.
        version = code_version if code_version is not None else default_code_version()
        plan = expand_sweep(_SPEC)
        abandoned = 1 if plan.shard_units(1, 2, version) else 2
        cache = tmp_path / "cache"
        first = _StubDistributedRunner(
            _SPEC, cache, shard=(3 - abandoned, 2), code_version=code_version
        ).run_worker()
        assert first.remaining == len(plan.shard_units(abandoned, 2, version)) > 0
        stealer = _StubDistributedRunner(
            _SPEC, cache, steal=True, code_version=code_version
        ).run_worker()
        assert stealer.shard_units == 0  # a pure stealer owns nothing
        assert stealer.evaluated == stealer.stolen == first.remaining
        assert stealer.remaining == 0
        assert merge_sweep(_SPEC, ResultStore(cache), code_version=code_version).is_complete

    def test_active_foreign_lease_is_skipped_not_duplicated(self, tmp_path):
        cache = tmp_path / "cache"
        plan = expand_sweep(_SPEC)
        held = plan.units[0].unit_hash(default_code_version())
        LeaseManager(cache, owner="other-live-worker").acquire(held)
        report = _StubDistributedRunner(_SPEC, cache).run_worker()
        assert report.skipped_leased == 1
        assert report.evaluated == len(plan.units) - 1
        assert report.remaining == 1
        # The foreign lease survives the prune: its unit has no result yet.
        assert (cache / f"{held}.lease").exists()

    def test_stale_lease_is_reclaimed_with_fake_clock(self, tmp_path):
        cache = tmp_path / "cache"
        plan = expand_sweep(_SPEC)
        held = plan.units[0].unit_hash(default_code_version())
        dead = _FakeClock(0.0)
        LeaseManager(cache, owner="crashed", ttl=100.0, clock=dead).acquire(held)
        # Make the crashed holder's lease look foreign so only the clock,
        # not the dead-pid fast path, can decide staleness.
        lease_path = cache / f"{held}.lease"
        body = json.loads(lease_path.read_text(encoding="utf-8"))
        body["host"] = "elsewhere"
        lease_path.write_text(json.dumps(body), encoding="utf-8")
        late = _FakeClock(1000.0)
        report = _StubDistributedRunner(_SPEC, cache, clock=late).run_worker()
        assert report.reclaimed == 1
        assert report.remaining == 0
        assert _leftovers(cache) == []

    def test_completed_units_are_never_reevaluated(self, tmp_path):
        cache = tmp_path / "cache"
        counts = []
        _StubDistributedRunner(_SPEC, cache, on_unit=lambda u, e: counts.append(u.label)).run_worker()
        again = _StubDistributedRunner(
            _SPEC, cache, on_unit=lambda u, e: counts.append(u.label)
        ).run_worker()
        assert again.evaluated == 0
        assert again.already_complete == len(counts) == len(expand_sweep(_SPEC).units)

    def test_run_is_a_worker_alias_and_cache_is_required(self, tmp_path):
        report = _StubDistributedRunner(_SPEC, tmp_path / "c").run()
        assert report.is_sweep_complete
        assert report.to_dict()["evaluated"] == report.evaluated
        with pytest.raises(ConfigurationError):
            DistributedSweepRunner(_SPEC, None)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_threaded_worker_merges_byte_identically(self, tmp_path, workers):
        serial = _StubSerialRunner(_SPEC, cache_dir=tmp_path / "serial").run()
        cache = tmp_path / "threaded"
        report = _StubDistributedRunner(_SPEC, cache, workers=workers).run_worker()
        assert report.remaining == 0
        merged = merge_sweep(_SPEC, ResultStore(cache))
        assert merged.is_complete
        assert merged.result.normalized().to_json() == serial.normalized().to_json()
        assert _leftovers(cache) == []

    def test_merge_reports_missing_units_in_grid_order(self, tmp_path):
        cache = tmp_path / "cache"
        _StubDistributedRunner(_SPEC, cache, shard="1/2").run_worker()
        merged = merge_sweep(_SPEC, ResultStore(cache))
        plan = expand_sweep(_SPEC)
        version = default_code_version()
        expected = tuple(
            u.label for u in plan.units if u.unit_hash(version) not in ResultStore(cache)
        )
        assert merged.missing == expected
        assert not merged.is_complete
        assert merged.completed_units + len(merged.missing) == merged.total_units

    def test_shard_progress_accounts_every_unit(self, tmp_path):
        cache = tmp_path / "cache"
        _StubDistributedRunner(_SPEC, cache, shard="2/3").run_worker()
        progress = shard_progress(_SPEC, ResultStore(cache), 3)
        assert sum(p.total_units for p in progress) == len(expand_sweep(_SPEC).units)
        by_index = {p.index: p for p in progress}
        assert by_index[2].is_complete
        assert all(p.completed_units == 0 for p in progress if p.index != 2)


# ---------------------------------------------------------------------------------
# Satellite 2: hypothesis — any spec, any partition, any order == serial
# ---------------------------------------------------------------------------------
_WORKLOAD_NAMES = ("429.mcf", "433.milc", "462.libquantum")
_CODEC_KINDS = ("raw", "unshuffle", "lossless")


@st.composite
def _sweep_schedules(draw):
    workloads = draw(
        st.lists(st.sampled_from(_WORKLOAD_NAMES), min_size=1, max_size=3, unique=True)
    )
    codecs = draw(
        st.lists(st.sampled_from(_CODEC_KINDS), min_size=1, max_size=len(_CODEC_KINDS), unique=True)
    )
    shard_count = draw(st.integers(min_value=1, max_value=8))
    order = draw(st.permutations(list(range(1, shard_count + 1))))
    stealer_at = draw(st.integers(min_value=0, max_value=len(order)))
    spec = sweep_spec_from_dict(
        {
            "name": "prop",
            "workloads": [{"name": name, "references": 2000} for name in workloads],
            "codecs": list(codecs),
            "scale": {"small_buffer": 500, "interval_length": 500},
        }
    )
    return spec, shard_count, order, stealer_at


class TestShardingProperties:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(schedule=_sweep_schedules())
    def test_any_partition_any_order_merges_to_the_serial_result(self, tmp_path, schedule):
        """Shards in any interleaving (+ a stealer anywhere) == unsharded run.

        Also asserts exactly-once evaluation across the whole schedule: the
        shards partition the grid and the store marks completion, so no two
        workers may ever evaluate the same unit.
        """
        spec, shard_count, order, stealer_at = schedule
        # tmp_path is per-test, not per-example: give every drawn schedule a
        # fresh cache so a re-drawn example never starts fully cached.
        cache = Path(tempfile.mkdtemp(dir=tmp_path))
        serial = _StubSerialRunner(spec, cache_dir=cache / "serial").run()
        evaluated = []
        workers = [(index, False) for index in order]
        workers.insert(stealer_at, (None, True))
        for shard_index, steal in workers:
            shard = (shard_index, shard_count) if shard_index is not None else None
            _StubDistributedRunner(
                spec, cache / "dist", shard=shard, steal=steal,
                on_unit=lambda u, e: evaluated.append(u.label),
            ).run_worker()
        merged = merge_sweep(spec, ResultStore(cache / "dist"))
        assert merged.is_complete
        assert merged.result.normalized().to_json() == serial.normalized().to_json()
        labels = [u.label for u in expand_sweep(spec).units]
        assert sorted(evaluated) == sorted(labels)  # exactly once, no duplicates
        assert _leftovers(cache / "dist") == []


# ---------------------------------------------------------------------------------
# Satellite 1: crash/resume fault injection over real worker processes
# ---------------------------------------------------------------------------------
class FaultingRunner:
    """Launches real ``repro sweep run`` workers with the fault hooks armed.

    ``exit_after=K`` arms :data:`FAULT_EXIT_ENV`, so the worker process
    dies with ``os._exit(FAULT_EXIT_CODE)`` right after storing its K-th
    unit — with that unit's lease still on disk, which is the crash the
    protocol must absorb.  Every worker appends to the same
    :data:`EVAL_LOG_ENV` spy file, giving the tests a cross-process,
    exactly-once evaluation count.
    """

    def __init__(self, spec_path: Path, cache_dir: Path, eval_log: Path) -> None:
        self.spec_path = Path(spec_path)
        self.cache_dir = Path(cache_dir)
        self.eval_log = Path(eval_log)

    def run(self, shard=None, steal=False, exit_after=None, jobs=1):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC_ROOT + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env[EVAL_LOG_ENV] = str(self.eval_log)
        env.pop(FAULT_EXIT_ENV, None)
        if exit_after is not None:
            env[FAULT_EXIT_ENV] = str(exit_after)
        command = [
            sys.executable,
            "-c",
            "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
            "sweep", "run", str(self.spec_path),
            "--cache-dir", str(self.cache_dir),
            "--jobs", str(jobs),
        ]
        if shard is not None:
            command += ["--shard", shard]
        if steal:
            command += ["--steal"]
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)

    def evaluations(self):
        """(owner, unit_hash) pairs the spy recorded, across all workers."""
        if not self.eval_log.exists():
            return []
        pairs = []
        for line in self.eval_log.read_text(encoding="utf-8").splitlines():
            owner, unit_hash, _label = line.split(" ", 2)
            pairs.append((owner, unit_hash))
        return pairs


@pytest.mark.slow
class TestFaultInjection:
    """The acceptance suite: kill workers mid-sweep, resume, demand identity."""

    def _serial_oracle_json(self, tmp_path) -> str:
        oracle = SweepRunner(_SPEC, cache_dir=tmp_path / "serial-oracle").run()
        return oracle.normalized().to_json()

    def _assert_completed_exactly_once(self, harness, cache_dir, tmp_path):
        merged = merge_sweep(_SPEC, ResultStore(cache_dir))
        assert merged.is_complete, f"missing after resume: {merged.missing}"
        assert merged.result.normalized().to_json() == self._serial_oracle_json(tmp_path)
        hashes = [unit_hash for _owner, unit_hash in harness.evaluations()]
        assert len(hashes) == len(expand_sweep(_SPEC).units)
        assert len(hashes) == len(set(hashes)), "a unit was evaluated twice"
        assert _leftovers(cache_dir) == []

    def test_kill_single_worker_then_resume_same_worker_count(self, tmp_path):
        cache = tmp_path / "cache"
        harness = FaultingRunner(_write_spec(tmp_path), cache, tmp_path / "evals.log")
        # --shard 1/1 is "one distributed worker owning the whole grid" —
        # the plain (non-distributed) run path has no fault hooks.
        crashed = harness.run(shard="1/1", exit_after=2)
        assert crashed.returncode == FAULT_EXIT_CODE, crashed.stderr
        assert ResultStore(cache).size() == 2
        # The crash window left leases behind: the just-stored unit's (the
        # exit fires before its release) plus any units the worker had
        # claimed ahead within the group...
        assert len(list(cache.glob("*.lease"))) >= 1
        resumed = harness.run(shard="1/1")
        assert resumed.returncode == 0, resumed.stderr
        # ...and the resumed worker (new pid, same host) reclaimed it
        # immediately via the dead-pid fast path — no TTL wait.
        self._assert_completed_exactly_once(harness, cache, tmp_path)

    def test_kill_one_shard_then_resume_with_different_workers_stealing(self, tmp_path):
        cache = tmp_path / "cache"
        harness = FaultingRunner(_write_spec(tmp_path), cache, tmp_path / "evals.log")
        crashed = harness.run(shard="1/2", exit_after=1)
        assert crashed.returncode == FAULT_EXIT_CODE, crashed.stderr
        healthy = harness.run(shard="2/2")
        assert healthy.returncode == 0, healthy.stderr
        # Resume with a *different* worker layout: three shards, stealing on,
        # so whoever owns the crashed unit now — or any stealer — finishes it.
        for index in (1, 2, 3):
            resumed = harness.run(shard=f"{index}/3", steal=True)
            assert resumed.returncode == 0, resumed.stderr
        self._assert_completed_exactly_once(harness, cache, tmp_path)

    def test_kill_at_every_position_of_a_serial_worker(self, tmp_path):
        """The crash point must not matter: kill after unit K for every K."""
        cache = tmp_path / "cache"
        harness = FaultingRunner(_write_spec(tmp_path), cache, tmp_path / "evals.log")
        total = len(expand_sweep(_SPEC).units)
        for position in range(1, total):
            outcome = harness.run(shard="1/1", exit_after=position)
            if outcome.returncode == 0:
                break  # sweep finished before the hook could fire
            assert outcome.returncode == FAULT_EXIT_CODE, outcome.stderr
        final = harness.run(shard="1/1")
        assert final.returncode == 0, final.stderr
        self._assert_completed_exactly_once(harness, cache, tmp_path)


# ---------------------------------------------------------------------------------
# CLI surface (in-process; the subprocess paths are covered above)
# ---------------------------------------------------------------------------------
class TestDistributedCli:
    def test_merge_reports_missing_and_respects_allow_partial(self, tmp_path, capsys):
        spec = _write_spec(tmp_path)
        cache = tmp_path / "cache"
        assert cli_main(["sweep", "merge", str(spec), "--cache-dir", str(cache)]) == 1
        captured = capsys.readouterr()
        assert "missing" in captured.err and "--allow-partial" in captured.err
        assert (
            cli_main(
                ["sweep", "merge", str(spec), "--cache-dir", str(cache), "--allow-partial",
                 "--format", "csv"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert captured.out.startswith("workload,filter,codec")

    def test_status_shards_shows_partition_and_leases(self, tmp_path, capsys):
        spec = _write_spec(tmp_path)
        cache = tmp_path / "cache"
        _StubDistributedRunner(_SPEC, cache, shard="1/2").run_worker()
        LeaseManager(cache, owner="busy").acquire(_HASH.replace("a", "c"))
        assert cli_main(["sweep", "status", str(spec), "--cache-dir", str(cache),
                         "--shards", "2"]) == 0
        captured = capsys.readouterr()
        assert "shard 1/2" in captured.out and "shard 2/2" in captured.out
        assert "leases           : 1 active, 0 stale" in captured.out

    def test_run_rejects_no_cache_with_shard(self, tmp_path, capsys):
        spec = _write_spec(tmp_path)
        assert cli_main(["sweep", "run", str(spec), "--shard", "1/2", "--no-cache"]) == 2
        assert "--no-cache is incompatible" in capsys.readouterr().err
