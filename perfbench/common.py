"""Shared plumbing: checkout paths, the pinned environment, statistics and results.

Nothing here imports ``repro`` at module level: :func:`import_repro` is the
single place the benchmark binds to the library, and it insists on the copy
under ``<checkout>/src`` so a stray installed package can never be measured
by mistake.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of a run (containers, server cache, spool files); removed
#: when the run ends and listed in the checkout's ``.gitignore``.
WORK_ROOT = ROOT / ".perfbench_work"

#: Library knobs that would silently change what is measured.  They are
#: removed so every run uses the out-of-the-box configuration: serial
#: executor, NumPy kernels, fsync off, default start method and shm cut-off.
PINNED_ENV = (
    "REPRO_EXECUTOR",
    "REPRO_KERNEL_BACKEND",
    "REPRO_DURABLE_FSYNC",
    "REPRO_MP_CONTEXT",
    "REPRO_SHM_MIN_BYTES",
)

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


class CheckFailed(Exception):
    """An output check did not hold (counted as a failed operation)."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


def pin_environment(work_dir: Path) -> List[str]:
    """Remove :data:`PINNED_ENV` and point temporary files into ``work_dir``.

    Returns the names that were set (and are now removed).  Child
    processes (the ``repro serve`` server) inherit the scrubbed
    environment, so their spool directories land inside the checkout too.
    """
    removed = [name for name in PINNED_ENV if os.environ.pop(name, None) is not None]
    os.environ["TMPDIR"] = str(work_dir)
    import tempfile

    tempfile.tempdir = str(work_dir)
    return removed


def child_env(*extra_paths: Path) -> Dict[str, str]:
    """Environment of a child Python process that imports ``repro`` from source."""
    env = dict(os.environ)
    paths = [str(path) for path in extra_paths] + [str(SRC)]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def import_repro():
    """Import ``repro`` from ``<checkout>/src``; exit nonzero if that fails."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {error}") from None
    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"perfbench: repro was imported from {location}, not from {SRC}")
    return repro


def filesystem_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from ``/proc/mounts``)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount_point = fields[1]
                inside = target == mount_point or target.startswith(mount_point.rstrip("/") + "/")
                if inside and len(mount_point) > len(best):
                    best, kind = mount_point, fields[2]
    except OSError:
        pass
    return kind


def environment_record(repro, seed: int, removed: Sequence[str], work_dir: Path) -> Dict:
    """What a result was measured on, stamped from the running tree."""
    import numpy

    from repro.experiments.store import durable_fsync_enabled

    return {
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
        "workdir_fs": filesystem_type(work_dir),
        "fsync": "on" if durable_fsync_enabled() else "off",
        "removed_env": list(removed),
    }


# -- memory -----------------------------------------------------------------------------------
def _status_kib(pid: str, key: str) -> Optional[float]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith(key + ":"):
                    return float(line.split()[1])
    except OSError:
        return None
    return None


def reset_peak_rss() -> None:
    """Restart this process's RSS high-water mark (Linux ``clear_refs``)."""
    with contextlib.suppress(OSError):
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """RSS high-water mark in MB of ``pid`` (this process by default)."""
    kib = _status_kib(str(pid) if pid is not None else "self", "VmHWM")
    if kib is None and pid is None:
        kib = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return (kib or 0.0) / 1024.0


# -- statistics -------------------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    """Median of ``values`` (0.0 when empty, so a failed run still prints)."""
    return percentile(values, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class HostClock:
    """Yardstick for the host's speed, so timings compare across a drifting machine.

    On a shared VM the same code runs up to 20% faster or slower from one
    minute to the next.  A fixed kernel that touches no ``repro`` code (bz2
    on a constant buffer, a NumPy sort, an interpreter loop: the three
    kinds of work the workloads do) is timed before and after each measured
    stretch; :meth:`factor` turns the pair into the scale that maps the
    stretch's timings onto a host where the kernel takes :data:`NOMINAL_S`.
    A change to the program cannot move the kernel, so the scaling removes
    host drift without hiding the program's own cost.  Each reading is the
    fastest of :data:`READS` back-to-back runs: the first run after an idle
    spell (a server shutting down, say) is up to 50% slower.
    """

    #: Kernel time that defines the reference host speed, per thread count:
    #: about its median on a 2-vCPU x86-64 VM.
    NOMINAL_S = {1: 0.035, 2: 0.032}
    READS = 3

    def __init__(self, threads: int = 1) -> None:
        """``threads`` is how many cores the measured work keeps busy.

        With one, the kernel is bz2 + sort + interpreter loop on this
        thread; with more, it is bz2 on that many threads at once, which
        also feels the host taking one of the VM's cores away.
        """
        import numpy as np

        self.threads = threads
        self.nominal_s = self.NOMINAL_S[threads]
        rng = np.random.default_rng(2009)
        self._bytes = rng.integers(0, 1 << 20, 30_000, dtype=np.uint64).tobytes()
        self._array = rng.integers(0, 1 << 40, 200_000, dtype=np.uint64)
        self.factors: List[float] = []
        self._last = self._read()

    def _read(self) -> float:
        import bz2

        import numpy as np

        fastest = float("inf")
        for _ in range(self.READS):
            began = time.perf_counter()
            if self.threads == 1:
                bz2.compress(self._bytes, 9)
                np.sort(self._array)
                total = 0
                for value in range(100_000):
                    total += value & 7
            else:
                workers = [
                    threading.Thread(target=bz2.compress, args=(self._bytes, 9))
                    for _ in range(self.threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join()
            fastest = min(fastest, time.perf_counter() - began)
        return fastest

    def factor(self) -> float:
        """Time the kernel again; returns the scale for the work since the last call."""
        before, self._last = self._last, self._read()
        scale = self.nominal_s / ((before + self._last) / 2)
        self.factors.append(scale)
        return scale


def timed_setup(build):
    """Run ``build()`` :data:`SETUP_REPEATS` times; returns (last result, median s)."""
    durations = []
    result = None
    for _ in range(SETUP_REPEATS):
        result = None  # release the previous copy before building the next
        start = time.perf_counter()
        result = build()
        durations.append(time.perf_counter() - start)
    return result, median(durations)


# -- outcome accounting -----------------------------------------------------------------------
@dataclass
class Tally:
    """Attempted and failed operations of one run.

    Every checked operation runs inside :meth:`operation`: an exception
    (a failed :func:`require`, or any error the library raises) is logged
    to stderr and counted, and the run goes on with the next operation.
    """

    attempted: int = 0
    failed: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @contextlib.contextmanager
    def operation(self, what: str) -> Iterator[None]:
        with self._lock:
            self.attempted += 1
        try:
            yield
        except Exception as error:  # boundary: one bad operation must not end the run
            with self._lock:
                self.failed += 1
            print(f"perfbench: FAILED {what}: {type(error).__name__}: {error}", file=sys.stderr)
            if not isinstance(error, CheckFailed):
                traceback.print_exc(file=sys.stderr)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class RunResult:
    """What one workload run reports: the end-to-end or per-layer metrics."""

    tally: Tally
    metrics: Dict[str, tuple]
    notes: Dict[str, object] = field(default_factory=dict)

    def result_line(self) -> str:
        """The final stdout line, in the benchmark's result schema."""
        return json.dumps(
            {
                "correct": self.tally.failed == 0 and self.tally.attempted > 0,
                "attempted": max(self.tally.attempted, 1),
                "failed": self.tally.failed if self.tally.attempted else 1,
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )
