"""Statistics and process probes shared by the workloads."""

from __future__ import annotations

import ctypes
import math
import os
import resource
import signal
import sys
import time
from collections import Counter
from pathlib import Path

SHM_DIR = Path("/dev/shm")
#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36
#: Prefix of the kernel's shared-memory CSR segments.
SHM_PREFIX = "rk3"


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - max(1, math.ceil(fraction * count))


class Tally:
    """Requests attempted and failed; a failure keeps its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason or "unspecified"] += 1
        return ok

    def fail(self, reason: str) -> None:
        """A failure found outside any one request (a leak, a daemon that
        would not stop): it counts as one more failed attempt."""
        self.record(False, reason)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_memory_mb(pid: int, field: str) -> float:
    """A ``/proc/<pid>/status`` memory field (``VmRSS``, ``VmHWM``) in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    raise KeyError(field)


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


def adopt_orphans() -> bool:
    """Make this process the reaper of its orphaned descendants.

    A pool worker or resource tracker whose parent exits first is then
    re-parented here, not to init, so :func:`reap_children` can wait for
    it. Returns whether the kernel accepted the request.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (AttributeError, OSError):
        return False


def stop_resource_tracker() -> None:
    """Stop the ``multiprocessing`` resource tracker if this process
    started it, and wait until it has ended.

    The kernel's shared-memory sweeps start the tracker; left alone it
    outlives its parent by a moment and is re-parented away.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is None:
        return
    running = tracker._resource_tracker
    if getattr(running, "_pid", None) is None:
        return
    try:
        running._stop()
    except ChildProcessError:
        running._pid = None


def _children() -> list[int]:
    """Pids whose parent is this process, from ``/proc``."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; the fields after it do not.
        if stat.rsplit(")", 1)[1].split()[1] == me:
            found.append(int(entry))
    return found


def reap_children(timeout: float) -> int:
    """Wait until every child of this process has ended.

    Children still running after ``timeout`` seconds are killed, and so
    are any they leave behind. Returns how many had to be killed.
    """
    deadline = time.monotonic() + timeout
    killed = 0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.01)
            continue
        for child in _children():
            try:
                os.kill(child, signal.SIGKILL)
                killed += 1
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 1.0
