"""Distributed, resumable sweeps: sharding, lease/steal, merge.

One sweep, N independent worker processes (or hosts sharing a filesystem),
no coordinator.  The whole protocol rests on two facts the rest of the
experiments subsystem already guarantees:

* every grid cell is **content-addressed** (:meth:`~repro.experiments.plan.
  ExperimentUnit.unit_hash` covers the resolved parameters and the code
  version), and
* the :class:`~repro.experiments.store.ResultStore` write is an **atomic
  rename**, so a result file either exists completely or not at all.

Therefore *a unit is done iff its result file exists* — the store is the
single source of truth, and resuming after any crash is simply running the
same spec against the same cache directory again.  On top of that this
module provides:

* **Deterministic sharding** — shard ``i`` of ``N`` (1-based) owns the
  units with ``int(unit_hash, 16) % N == i - 1``; every worker computes
  the same disjoint, exhaustive partition with no communication
  (:meth:`~repro.experiments.plan.ExperimentPlan.shard_units`).
* **Lease files for work stealing** — a worker evaluating a unit holds
  ``<hash>.lease`` next to the result store (JSON: owner, host, pid,
  expiry), acquired via atomic ``O_EXCL`` create.  A lease is *stale* when
  its expiry has passed, or when it was taken by a now-dead process on
  this host; stale leases are re-claimed through an atomic rename, so of
  any number of concurrent stealers exactly one wins.  Leases are
  advisory: a lost lease race at worst duplicates one idempotent
  evaluation, and the store's atomic, uniquely-named temp writes make the
  duplicate harmless.
* **Merge** — :func:`merge_sweep` assembles a
  :class:`~repro.experiments.results.SweepResult` from a (possibly still
  partial) store, with an explicit missing-units report.

The protocol's crash/resume correctness is pinned down by the
fault-injection harness in ``tests/experiments/test_distributed.py``; the
byte-level walkthrough lives in ``docs/distributed-sweeps.md``.

Example:
    >>> import tempfile
    >>> from repro.experiments.spec import loads_sweep_spec
    >>> from repro.experiments.store import ResultStore
    >>> spec = loads_sweep_spec(
    ...     '{"name": "d", "workloads": [{"name": "433.milc", "references": 3000}],'
    ...     ' "codecs": ["raw", "unshuffle"], "scale": {"small_buffer": 1000}}',
    ...     format="json")
    >>> cache = tempfile.mkdtemp()
    >>> reports = [DistributedSweepRunner(spec, cache, shard=f"{i}/2").run_worker()
    ...            for i in (1, 2)]
    >>> sum(report.evaluated for report in reports)
    2
    >>> merged = merge_sweep(spec, ResultStore(cache))
    >>> merged.is_complete
    True
    >>> [row.codec for row in merged.result.rows]
    ['raw', 'unshuffle']
"""

from __future__ import annotations

import json
import os
import re
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.parallel import map_ordered
from repro.errors import ConfigurationError
from repro.experiments.plan import ExperimentUnit, default_code_version, expand_sweep
from repro.experiments.results import SweepResult
from repro.experiments.runner import SweepRunner, entry_is_complete, row_from_entry
from repro.experiments.spec import SweepSpec
from repro.experiments.store import ResultStore

__all__ = [
    "DEFAULT_LEASE_TTL",
    "FAULT_EXIT_CODE",
    "FAULT_EXIT_ENV",
    "EVAL_LOG_ENV",
    "parse_shard",
    "LeaseInfo",
    "LeaseCensus",
    "LeaseManager",
    "lease_census",
    "WorkerReport",
    "DistributedSweepRunner",
    "MergeReport",
    "merge_sweep",
    "ShardProgress",
    "shard_progress",
]

#: Default lease lifetime in seconds.  Units at sweep scale finish in
#: seconds, so ten minutes means a lease outliving its unit is a crashed
#: worker with overwhelming probability — and a crash on the *same host*
#: is reclaimed immediately via the dead-pid fast path, without waiting.
DEFAULT_LEASE_TTL = 600.0

#: Exit status of a worker killed by the fault-injection hook, chosen to
#: collide with no CLI convention (0 ok, 1 error, 2 usage, 130 SIGINT).
FAULT_EXIT_CODE = 42

#: Fault-injection hook: when set to an integer K, a worker calls
#: ``os._exit(FAULT_EXIT_CODE)`` immediately after storing its K-th
#: evaluated unit — *before* releasing the unit's lease, which is exactly
#: the crash window the lease-reclaim path exists for.  Test-harness
#: surface; never set it in production.
FAULT_EXIT_ENV = "REPRO_SWEEP_FAULT_EXIT_AFTER"

#: Evaluation spy: when set to a file path, a worker appends one line
#: ``<owner> <unit_hash> <label>`` per unit it evaluates (O_APPEND, one
#: write per line).  The fault-injection harness counts these lines across
#: workers and resumes to assert every unit was evaluated exactly once.
EVAL_LOG_ENV = "REPRO_SWEEP_EVAL_LOG"

_SHARD_RE = re.compile(r"^(\d+)/(\d+)$")


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a 1-based ``"i/N"`` shard assignment into ``(index, count)``.

    Example:
        >>> parse_shard("2/4")
        (2, 4)
    """
    match = _SHARD_RE.match(text.strip())
    if not match:
        raise ConfigurationError(
            f"malformed shard {text!r}: expected 'i/N' with 1 <= i <= N, e.g. '2/4'"
        )
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1 or not 1 <= index <= count:
        raise ConfigurationError(
            f"shard index out of range: {text!r} (expected 1 <= i <= N)"
        )
    return index, count


def _normalize_shard(shard) -> Optional[Tuple[int, int]]:
    if shard is None:
        return None
    if isinstance(shard, str):
        return parse_shard(shard)
    index, count = shard
    parsed = (int(index), int(count))
    if parsed[1] < 1 or not 1 <= parsed[0] <= parsed[1]:
        raise ConfigurationError(f"shard index out of range: {parsed[0]}/{parsed[1]}")
    return parsed


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0); unknown errors read as alive."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM and friends: the process exists
        return True
    return True


@dataclass(frozen=True)
class LeaseInfo:
    """The decoded content of one ``<hash>.lease`` file.

    Attributes:
        owner: Unique worker identity string (``host:pid:token`` by
            default, or whatever the worker was configured with).
        host: Hostname of the worker that took the lease.
        pid: Process id of the worker on that host.
        expires: Absolute expiry deadline on the lease clock.
    """

    owner: str
    host: str
    pid: int
    expires: float


@dataclass(frozen=True)
class LeaseCensus:
    """Lease-file counts of one store directory (``repro sweep status``).

    Attributes:
        active: Leases whose holder is (presumed) alive and unexpired.
        stale: Expired or dead-holder leases, re-claimable by any worker.
    """

    active: int
    stale: int

    @property
    def total(self) -> int:
        """All lease files present."""
        return self.active + self.stale


def _lease_is_stale(info: LeaseInfo, now: float, host: str) -> bool:
    """Stale = past expiry, or taken by a dead process on this host.

    The dead-pid fast path makes same-host crash/resume immediate: the
    resumed worker need not wait out the TTL of its predecessor's leases.
    A *remote* host's leases can only age out — pids are not comparable
    across hosts.
    """
    if info.expires <= now:
        return True
    return info.host == host and not _pid_alive(info.pid)


class LeaseManager:
    """Advisory per-unit lease files in a store directory.

    Acquisition is an atomic ``O_EXCL`` create of ``<hash>.lease``; stale
    leases (expired, or held by a dead same-host process) are stolen by
    atomically renaming the stale file away — of any number of concurrent
    stealers exactly one rename succeeds — then re-creating.  Leases are
    *advisory*: they minimise duplicate work, while the result store's
    atomic writes keep even a lost race harmless.

    Args:
        directory: The store directory leases live next to.
        owner: Unique worker identity; defaults to ``host:pid:token``.
        ttl: Lease lifetime in seconds from acquisition.
        clock: Injectable time source (``time.time`` by default) — the
            fault-injection tests drive expiry with a fake clock.
    """

    def __init__(
        self,
        directory,
        owner: Optional[str] = None,
        ttl: float = DEFAULT_LEASE_TTL,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if ttl <= 0:
            raise ConfigurationError(f"lease ttl must be positive, got {ttl}")
        self.directory = Path(directory)
        self.host = socket.gethostname()
        self.pid = os.getpid()
        self.owner = owner if owner else f"{self.host}:{self.pid}:{uuid.uuid4().hex[:8]}"
        self.ttl = float(ttl)
        self.clock: Callable[[], float] = clock if clock is not None else time.time

    def _path(self, unit_hash: str) -> Path:
        return self.directory / f"{unit_hash}.lease"

    def read(self, unit_hash: str) -> Optional[LeaseInfo]:
        """Decode a lease file; a missing or corrupt file reads as ``None``."""
        return _read_lease(self._path(unit_hash))

    def is_stale(self, info: LeaseInfo) -> bool:
        """Whether a lease is re-claimable from this worker's point of view."""
        return _lease_is_stale(info, self.clock(), self.host)

    def acquire(self, unit_hash: str) -> Optional[str]:
        """Try to take the unit's lease.

        Returns ``"fresh"`` (no lease existed), ``"reclaimed"`` (a stale
        lease was stolen), or ``None`` — another worker holds an active
        lease, or this worker lost the steal race.
        """
        path = self._path(unit_hash)
        self.directory.mkdir(parents=True, exist_ok=True)
        if self._create(path):
            return "fresh"
        info = _read_lease(path)
        if info is not None and not self.is_stale(info):
            return None
        # Stale (or corrupt) lease: the rename is the steal's atomic
        # arbiter.  Exactly one concurrent stealer's rename succeeds; the
        # losers get FileNotFoundError and back off without ever touching
        # the winner's fresh lease.
        trash = path.with_name(f"{path.name}.stale.{self.pid}.{uuid.uuid4().hex[:8]}")
        try:
            os.rename(path, trash)
        except OSError:
            return None
        try:
            os.unlink(trash)
        except OSError:
            pass
        return "reclaimed" if self._create(path) else None

    def _create(self, path: Path) -> bool:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        body = json.dumps(
            {
                "owner": self.owner,
                "host": self.host,
                "pid": self.pid,
                "expires": self.clock() + self.ttl,
            },
            sort_keys=True,
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(body)
        return True

    def release(self, unit_hash: str) -> bool:
        """Drop the unit's lease if this worker still owns it.

        A lease stolen out from under us (we overran our TTL) is left
        alone — it now belongs to the stealer.
        """
        path = self._path(unit_hash)
        info = _read_lease(path)
        if info is not None and info.owner != self.owner:
            return False
        try:
            os.unlink(path)
        except OSError:
            return False
        return True

    def prune_completed(self, store: ResultStore) -> int:
        """Remove lease files whose unit already has a stored result.

        A result's existence makes its lease moot regardless of owner (the
        protocol's single truth), so this is always safe — it sweeps up the
        leases crashed workers left behind on units that did complete.
        """
        removed = 0
        for path in sorted(self.directory.glob("*.lease")):
            unit_hash = path.name[: -len(".lease")]
            if len(unit_hash) == 64 and unit_hash in store:
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    continue
        return removed


def _read_lease(path: Path) -> Optional[LeaseInfo]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return LeaseInfo(
            owner=str(data["owner"]),
            host=str(data["host"]),
            pid=int(data["pid"]),
            expires=float(data["expires"]),
        )
    except (OSError, ValueError, TypeError, KeyError):
        return None


def lease_census(
    directory, clock: Optional[Callable[[], float]] = None
) -> LeaseCensus:
    """Count the active and stale leases in a store directory."""
    now = (clock if clock is not None else time.time)()
    host = socket.gethostname()
    active = stale = 0
    directory = Path(directory)
    if not directory.is_dir():
        return LeaseCensus(active=0, stale=0)
    for path in directory.glob("*.lease"):
        info = _read_lease(path)
        if info is None or _lease_is_stale(info, now, host):
            stale += 1
        else:
            active += 1
    return LeaseCensus(active=active, stale=stale)


@dataclass
class WorkerReport:
    """What one distributed worker did in one ``run_worker`` invocation.

    Attributes:
        owner: The worker's lease identity.
        shard: The ``(index, count)`` assignment, or ``None``.
        steal: Whether work stealing was enabled.
        total_units: Grid size of the whole sweep.
        shard_units: Units this worker's shard owns (= ``total_units``
            for an unsharded worker, ``0`` for a pure stealer).
        already_complete: Units that had a stored result before this
            worker started.
        evaluated: Units this worker evaluated and stored (stolen ones
            included).
        stolen: Evaluated units that were outside the worker's own shard.
        reclaimed: Stale leases this worker stole.
        skipped_leased: Pending units skipped because another worker held
            an active lease.
        pruned_leases: Moot lease files removed at the end of the run.
        remaining: Units still missing from the store when this worker
            finished (0 = the sweep is complete and mergeable).
        integrity_evictions: Store entries this worker quarantined after
            they failed their digest check on read (each one was re-run,
            so a nonzero count means corruption was found *and healed*).
    """

    owner: str
    shard: Optional[Tuple[int, int]] = None
    steal: bool = False
    total_units: int = 0
    shard_units: int = 0
    already_complete: int = 0
    evaluated: int = 0
    stolen: int = 0
    reclaimed: int = 0
    skipped_leased: int = 0
    pruned_leases: int = 0
    remaining: int = 0
    integrity_evictions: int = 0

    @property
    def is_sweep_complete(self) -> bool:
        """True when every grid cell had a result as this worker exited."""
        return self.remaining == 0

    def to_dict(self) -> Dict:
        """Plain-data form (CLI/JSON surface)."""
        return {
            "owner": self.owner,
            "shard": list(self.shard) if self.shard else None,
            "steal": self.steal,
            "total_units": self.total_units,
            "shard_units": self.shard_units,
            "already_complete": self.already_complete,
            "evaluated": self.evaluated,
            "stolen": self.stolen,
            "reclaimed": self.reclaimed,
            "skipped_leased": self.skipped_leased,
            "pruned_leases": self.pruned_leases,
            "remaining": self.remaining,
            "integrity_evictions": self.integrity_evictions,
        }


class DistributedSweepRunner(SweepRunner):
    """A cooperative sweep worker: shard-local evaluation plus stealing.

    Built on :class:`~repro.experiments.runner.SweepRunner`'s trace and
    evaluation machinery, but instead of computing the whole grid it

    1. evaluates the pending units of its own shard (every unit, when
       unsharded), taking a lease per unit so concurrent workers never
       duplicate in-flight work;
    2. with ``steal=True``, claims pending units outside its shard —
       including units whose lease went stale because their worker
       crashed — so stragglers finish without manual intervention;
    3. prunes moot lease files and aged-out temp files on the way out.

    ``run_worker`` returns a :class:`WorkerReport`, *not* a
    :class:`~repro.experiments.results.SweepResult` — one worker only ever
    sees part of the grid; :func:`merge_sweep` assembles the result from
    the store once ``report.remaining == 0``.

    Args:
        spec: The sweep to cooperate on.
        cache_dir: The shared result-store directory — the coordination
            substrate; required (there is nothing to coordinate through
            without it).
        shard: ``"i/N"`` (1-based) or ``(i, N)`` deterministic assignment;
            ``None`` plus ``steal=False`` claims the whole grid.
        steal: Claim pending units outside the shard after the shard
            drains.  ``steal=True`` with no shard is a pure stealing
            worker (every evaluation counts as stolen).
        lease_ttl: Lease lifetime in seconds.
        owner: Lease identity; defaults to ``host:pid:token``.
        clock: Injectable lease clock (tests drive expiry with it).
        on_unit: Optional ``(unit, entry) -> None`` callback after each
            evaluated unit is stored (the in-process evaluation spy).
        workers, code_version, trace_provider: As in
            :class:`~repro.experiments.runner.SweepRunner`.
    """

    def __init__(
        self,
        spec: SweepSpec,
        cache_dir,
        shard=None,
        steal: bool = False,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        owner: Optional[str] = None,
        clock: Optional[Callable[[], float]] = None,
        workers: int = 1,
        code_version: Optional[str] = None,
        trace_provider=None,
        on_unit=None,
    ) -> None:
        if cache_dir is None:
            raise ConfigurationError(
                "distributed sweeps need a cache directory: the result store is "
                "the coordination substrate"
            )
        super().__init__(
            spec,
            cache_dir=cache_dir,
            workers=workers,
            code_version=code_version,
            trace_provider=trace_provider,
        )
        self.shard = _normalize_shard(shard)
        self.steal = bool(steal)
        self.leases = LeaseManager(
            self.store.directory, owner=owner, ttl=lease_ttl, clock=clock
        )
        self.on_unit = on_unit
        self._count_lock = threading.Lock()
        fault_after = os.environ.get(FAULT_EXIT_ENV, "").strip()
        self._fault_after: Optional[int] = int(fault_after) if fault_after else None
        self._eval_log = os.environ.get(EVAL_LOG_ENV, "").strip() or None

    # -- the work loop ----------------------------------------------------------------
    def run_worker(self) -> WorkerReport:
        """Drain this worker's share of the sweep (plus stolen stragglers).

        Safe to call on a partially complete, crashed, or concurrently
        running sweep: completed units are skipped (done iff the result
        exists), in-flight units of live workers are lease-skipped, and
        stale leases are reclaimed so crashed workers' units get re-run.
        """
        report = WorkerReport(
            owner=self.leases.owner,
            shard=self.shard,
            steal=self.steal,
            total_units=len(self.plan.units),
        )
        hashes = {unit.label: unit.unit_hash(self.code_version) for unit in self.plan.units}
        if self.shard is not None:
            home = self.plan.shard_units(self.shard[0], self.shard[1], self.code_version)
        elif self.steal:
            home = ()  # a pure stealer has no shard of its own
        else:
            home = self.plan.units
        report.shard_units = len(home)
        report.already_complete = sum(
            1 for unit in self.plan.units if hashes[unit.label] in self.store
        )
        self._drain(home, hashes, stolen=False, report=report)
        if self.steal:
            home_labels = {unit.label for unit in home}
            strays = tuple(u for u in self.plan.units if u.label not in home_labels)
            self._drain(strays, hashes, stolen=True, report=report)
        report.pruned_leases = self.leases.prune_completed(self.store)
        self.store.prune_tmp()
        report.remaining = sum(
            1 for unit in self.plan.units if hashes[unit.label] not in self.store
        )
        report.integrity_evictions = self.store.integrity_evictions
        return report

    def run(self):  # type: ignore[override]
        """Alias of :meth:`run_worker` (returns a :class:`WorkerReport`).

        The distributed runner never holds the full grid, so unlike the
        base class it cannot return a
        :class:`~repro.experiments.results.SweepResult`; merge the store
        with :func:`merge_sweep` once the sweep is complete.
        """
        return self.run_worker()

    def _drain(self, units, hashes, stolen: bool, report: WorkerReport) -> None:
        """Lease-claim and evaluate the pending subset of ``units``."""
        pending = [u for u in units if hashes[u.label] not in self.store]
        if not pending:
            return
        grouped: Dict = {}
        for unit in pending:
            grouped.setdefault((unit.workload, unit.filter), []).append(unit)
        groups = [(key, tuple(members)) for key, members in grouped.items()]
        map_ordered(
            lambda group: self._run_group_leased(group, stolen, report),
            groups,
            workers=self.workers,
        )

    def _run_group_leased(self, group, stolen: bool, report: WorkerReport) -> None:
        (workload, filter_spec), units = group
        claimed: List[Tuple[ExperimentUnit, str]] = []
        for unit in units:
            unit_hash = unit.unit_hash(self.code_version)
            if unit_hash in self.store:
                continue  # finished elsewhere since the pending scan
            status = self.leases.acquire(unit_hash)
            if status is None:
                with self._count_lock:
                    report.skipped_leased += 1
                continue
            if status == "reclaimed":
                with self._count_lock:
                    report.reclaimed += 1
            claimed.append((unit, unit_hash))
        if not claimed:
            return
        addresses = self._filtered_trace(workload, filter_spec)
        for unit, unit_hash in claimed:
            if unit_hash in self.store:
                # Completed between claim and now (e.g. we reclaimed a
                # lease whose holder was slow, not dead, and it finished).
                self.leases.release(unit_hash)
                continue
            entry = self._evaluate_unit(unit, addresses)
            self.store.put(unit_hash, entry)
            self._record_evaluation(unit, unit_hash, entry, stolen, report)
            self.leases.release(unit_hash)

    def _record_evaluation(
        self, unit: ExperimentUnit, unit_hash: str, entry: Dict, stolen: bool, report: WorkerReport
    ) -> None:
        """Bookkeeping after a stored evaluation: spy log, hooks, fault exit.

        The fault-injection exit fires *after* the result is stored but
        *before* the lease is released (the caller releases) — the exact
        crash window the stale-lease reclaim path must cover.
        """
        with self._count_lock:
            report.evaluated += 1
            if stolen:
                report.stolen += 1
            count = report.evaluated
        if self._eval_log:
            line = f"{self.leases.owner} {unit_hash} {unit.label}\n"
            fd = os.open(self._eval_log, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
            try:
                os.write(fd, line.encode("utf-8"))
            finally:
                os.close(fd)
        if self.on_unit is not None:
            self.on_unit(unit, entry)
        if self._fault_after is not None and count >= self._fault_after:
            os._exit(FAULT_EXIT_CODE)


@dataclass(frozen=True)
class MergeReport:
    """A merge of a (possibly partial) store into a sweep result.

    Attributes:
        result: The completed cells, in grid order (``cached=True`` rows;
            merge is a pure function of the store's metric content, so two
            stores holding the same completed grid merge byte-identically
            no matter which workers — or how many crashes — produced them).
        missing: Labels of the cells with no stored result, grid order.
        total_units: Grid size of the sweep.
    """

    result: SweepResult
    missing: Tuple[str, ...] = ()
    total_units: int = 0

    @property
    def is_complete(self) -> bool:
        """True when every grid cell merged."""
        return not self.missing

    @property
    def completed_units(self) -> int:
        """Number of cells with a stored result."""
        return self.total_units - len(self.missing)


def merge_sweep(
    spec: SweepSpec, store: ResultStore, code_version: Optional[str] = None
) -> MergeReport:
    """Assemble a sweep result from whatever the store holds.

    Never runs anything: cells without a (complete) stored result are
    reported in ``missing`` rather than computed, so merging is safe —
    and meaningful — while workers are still running.
    """
    version = code_version if code_version is not None else default_code_version()
    plan = expand_sweep(spec)
    rows = []
    missing: List[str] = []
    for unit in plan.units:
        entry = store.get(unit.unit_hash(version))
        if entry_is_complete(entry):
            rows.append(row_from_entry(unit, entry, cached=True))
        else:
            missing.append(unit.label)
    return MergeReport(
        result=SweepResult(name=spec.name, rows=tuple(rows)),
        missing=tuple(missing),
        total_units=len(plan.units),
    )


@dataclass(frozen=True)
class ShardProgress:
    """Completion state of one shard of a sweep.

    Attributes:
        index: 1-based shard index.
        count: Total number of shards in the partition.
        total_units: Units the shard owns (may be 0 on small grids).
        completed_units: Owned units with a stored result.
    """

    index: int
    count: int
    total_units: int
    completed_units: int

    @property
    def is_complete(self) -> bool:
        """True when every owned unit has a result (vacuously for 0)."""
        return self.completed_units == self.total_units


def shard_progress(
    spec: SweepSpec,
    store: ResultStore,
    shard_count: int,
    code_version: Optional[str] = None,
) -> Tuple[ShardProgress, ...]:
    """Per-shard completion of a sweep under an ``N``-way partition."""
    if shard_count < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {shard_count}")
    version = code_version if code_version is not None else default_code_version()
    totals = [0] * shard_count
    done = [0] * shard_count
    for unit in expand_sweep(spec).units:
        unit_hash = unit.unit_hash(version)
        shard = int(unit_hash, 16) % shard_count
        totals[shard] += 1
        if unit_hash in store:
            done[shard] += 1
    return tuple(
        ShardProgress(
            index=index + 1,
            count=shard_count,
            total_units=totals[index],
            completed_units=done[index],
        )
        for index in range(shard_count)
    )
