"""The content-addressed verdict store: sharded buckets, warm tier, eviction.

:class:`~repro.verification.service.VerificationService` originally kept
its persistent verdict layer as a flat directory of JSON files — fine
for a benchmark rerun, wrong for a long-running daemon whose corpus
grows without bound and whose hot set is a small fraction of it. This
module factors that layer into an explicit :class:`VerdictStore`:

- **sharded buckets** — with ``shards=N`` entries are spread over ``N``
  subdirectories keyed by the leading hex digits of the content
  fingerprint, so no single directory grows unboundedly and bucket
  scans stay cheap (``shards=0`` reproduces the historical flat layout
  byte for byte, which is what the process-pool workers still use);
- **an LRU warm tier** — the most recently touched records stay decoded
  in memory (capacity ``warm_capacity``), so a hot fingerprint is
  answered without re-reading or re-parsing its file;
- **size-bounded eviction** — ``max_entries`` / ``max_bytes`` budgets
  are enforced after every write by evicting the least recently used
  entries (an in-memory LRU index seeded from the directory at startup,
  so restarts preserve recency ordering by file mtime);
- **observability** — ``store.hit`` / ``store.miss`` / ``store.evict``
  events and counters, surfaced through :meth:`stats` (and, in the
  daemon, through ``GET /stats`` and RunReports).

A process-local key (:func:`repro.core.fingerprint.is_process_local`)
names an object only the current process can identify, so the store
neither writes nor reads it.

:class:`LRUDict` is the bounded dict behind the warm tier, and behind
the service's and the daemon's in-memory tiers.

Writes are **atomic and crash-safe**: each record lands in a uniquely
named temporary file in the target directory and is published with
:func:`os.replace`, so a reader can never observe a partially written
entry and an interrupted writer never poisons the cache. A truncated or
corrupt entry (e.g. from a pre-fix writer or disk fault) is treated as a
miss, deleted, and recomputed by the caller.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.core.fingerprint import is_process_local
from repro.observability import events as ev
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer

__all__ = ["LRUDict", "VerdictStore"]

#: Default shard count for daemon-grade stores (0 = flat compat layout).
DEFAULT_SHARDS = 16

#: Default decoded-record capacity of the warm tier.
DEFAULT_WARM_CAPACITY = 128


class LRUDict(OrderedDict):
    """A dict of at most ``capacity`` entries.

    Inserting beyond the capacity evicts the least recently used entry;
    :meth:`get` and assignment refresh an entry's recency. Both are
    atomic: the daemon's executor threads share one service.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity
        self._lock = threading.Lock()

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            if key not in self:
                return default
            self.move_to_end(key)
            return self[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        with self._lock:
            super().__setitem__(key, value)
            self.move_to_end(key)
            while len(self) > self.capacity:
                self.popitem(last=False)


class VerdictStore:
    """A content-addressed JSON record store with budgets and a warm tier.

    Records are keyed by ``(kind, key)`` where ``kind`` is a short label
    (``"tolerance"``, ``"lint"``, ...) and ``key`` is a content
    fingerprint from :mod:`repro.core.fingerprint`. The store never
    interprets records beyond JSON round-tripping.

    Args:
        root: Directory the store owns (created if missing).
        shards: Bucket-directory count; ``0`` keeps every entry directly
            under ``root`` in the historical flat layout.
        warm_capacity: Decoded records kept in the in-memory LRU warm
            tier; ``0`` disables the tier (every hit re-reads disk).
        max_entries: Evict least-recently-used entries beyond this count
            (``None`` = unbounded).
        max_bytes: Evict least-recently-used entries once the on-disk
            footprint exceeds this many bytes (``None`` = unbounded).
        tracer: Optional tracer for ``store.*`` events.
        metrics: Optional registry for ``store.*`` counters.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        shards: int = DEFAULT_SHARDS,
        warm_capacity: int = DEFAULT_WARM_CAPACITY,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if shards < 0:
            raise ValueError(f"shards must be >= 0, got {shards}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.shards = shards
        self.warm_capacity = warm_capacity
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.tracer = tracer
        self.metrics = metrics
        #: (kind, key40) -> size in bytes, in LRU order (oldest first).
        self._index: OrderedDict[tuple[str, str], int] = OrderedDict()
        #: (kind, key40) -> decoded record, in LRU order (oldest first).
        self._warm: LRUDict = LRUDict(max(warm_capacity, 0))
        self.hits_warm = 0
        self.hits_disk = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self._bytes = 0
        self._load_index()

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    def _bucket(self, key: str) -> Path:
        if self.shards == 0:
            return self.root
        try:
            prefix = int(key[:8], 16)
        except ValueError:
            prefix = abs(hash(key))
        return self.root / f"{prefix % self.shards:02x}"

    def path(self, kind: str, key: str) -> Path:
        """Where the record for ``(kind, key)`` lives (whether or not
        it exists). The filename truncates the fingerprint to 40 hex
        digits, matching the historical flat layout."""
        return self._bucket(key) / f"{kind}-{key[:40]}.json"

    @staticmethod
    def _parse_name(name: str) -> tuple[str, str] | None:
        if not name.endswith(".json"):
            return None
        stem = name[: -len(".json")]
        kind, sep, key = stem.rpartition("-")
        if not sep or not kind or not key:
            return None
        return kind, key

    def _load_index(self) -> None:
        """Seed the LRU index from disk, oldest mtime first."""
        found: list[tuple[float, tuple[str, str], int]] = []
        directories = [self.root]
        directories.extend(
            child for child in self.root.iterdir() if child.is_dir()
        )
        for directory in directories:
            for entry in directory.iterdir():
                if not entry.is_file():
                    continue
                parsed = self._parse_name(entry.name)
                if parsed is None:
                    continue
                try:
                    stat = entry.stat()
                except OSError:
                    continue
                found.append((stat.st_mtime, parsed, stat.st_size))
        for _, parsed, size in sorted(found, key=lambda item: item[0]):
            self._index[parsed] = size
            self._bytes += size

    # ------------------------------------------------------------------
    # Counters and events
    # ------------------------------------------------------------------

    def _note_hit(self, kind: str, key: str, tier: str) -> None:
        if tier == "warm":
            self.hits_warm += 1
        else:
            self.hits_disk += 1
        if self.metrics is not None:
            self.metrics.counter("store.hit").add()
            self.metrics.counter(f"store.hit.{tier}").add()
        if self.tracer is not None:
            self.tracer.emit(
                ev.STORE_HIT, record_kind=kind, key=key[:16], tier=tier
            )

    def _note_miss(self, kind: str, key: str) -> None:
        self.misses += 1
        if self.metrics is not None:
            self.metrics.counter("store.miss").add()
        if self.tracer is not None:
            self.tracer.emit(ev.STORE_MISS, record_kind=kind, key=key[:16])

    def _note_evict(self, kind: str, key: str, reason: str) -> None:
        self.evictions += 1
        if self.metrics is not None:
            self.metrics.counter("store.evict").add()
        if self.tracer is not None:
            self.tracer.emit(
                ev.STORE_EVICT, record_kind=kind, key=key[:16], reason=reason
            )

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------

    def get(self, kind: str, key: str) -> dict[str, Any] | None:
        """The record for ``(kind, key)``, or ``None`` on a miss.

        Checks the warm tier first, then disk. A corrupt or truncated
        disk entry counts as a miss and is deleted — an interrupted
        writer must never poison later reads. A process-local key is
        never looked up.
        """
        if is_process_local(key):
            return None
        entry = (kind, key[:40])
        record = self._warm.get(entry)
        if record is not None:
            if entry in self._index:
                self._index.move_to_end(entry)
            self._note_hit(kind, key, "warm")
            return record
        path = self.path(kind, key)
        try:
            text = path.read_text()
        except OSError:
            self._note_miss(kind, key)
            return None
        try:
            record = json.loads(text)
        except ValueError:
            # Truncated/corrupt entry: drop it so it cannot shadow a
            # future write, and report a miss.
            self._discard(entry, path)
            self._note_miss(kind, key)
            return None
        if entry in self._index:
            self._index.move_to_end(entry)
        else:
            self._index[entry] = len(text)
            self._bytes += len(text)
        self._warm[entry] = record
        self._note_hit(kind, key, "disk")
        return record

    def put(self, kind: str, key: str, record: dict[str, Any]) -> Path | None:
        """Persist ``record`` under ``(kind, key)`` atomically.

        The record is serialized to a uniquely named temporary file in
        the destination directory and published with :func:`os.replace`
        — concurrent writers race benignly (last write wins, readers
        always see a complete entry) and an interrupted writer leaves
        only a stray ``.tmp`` file, never a partial record. A
        process-local key is not written; the result is then ``None``.
        """
        if is_process_local(key):
            return None
        path = self.path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(record, indent=2, sort_keys=True)
        descriptor, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        entry = (kind, key[:40])
        previous = self._index.pop(entry, 0)
        self._bytes += len(payload) - previous
        self._index[entry] = len(payload)
        self._warm[entry] = record
        self.writes += 1
        if self.metrics is not None:
            self.metrics.counter("store.write").add()
        self._enforce_budget()
        return path

    def _discard(self, entry: tuple[str, str], path: Path) -> None:
        size = self._index.pop(entry, 0)
        self._bytes -= size
        self._warm.pop(entry, None)
        try:
            path.unlink()
        except OSError:
            pass

    def _enforce_budget(self) -> None:
        def over_budget() -> str | None:
            if self.max_entries is not None and len(self._index) > self.max_entries:
                return "max_entries"
            if self.max_bytes is not None and self._bytes > self.max_bytes:
                return "max_bytes"
            return None

        while self._index:
            reason = over_budget()
            if reason is None:
                break
            entry, _ = next(iter(self._index.items()))
            kind, key = entry
            self._discard(entry, self.path(kind, key))
            self._note_evict(kind, key, reason)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __contains__(self, entry: tuple[str, str]) -> bool:
        kind, key = entry
        return (kind, key[:40]) in self._index

    def __len__(self) -> int:
        return len(self._index)

    @property
    def bytes(self) -> int:
        """Tracked on-disk footprint of every indexed entry."""
        return self._bytes

    def stats(self) -> dict[str, Any]:
        """Hit-rate and budget counters for ``/stats`` and RunReports."""
        hits = self.hits_warm + self.hits_disk
        lookups = hits + self.misses
        return {
            "entries": len(self._index),
            "bytes": self._bytes,
            "shards": self.shards,
            "warm_capacity": self.warm_capacity,
            "warm_entries": len(self._warm),
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "hits": hits,
            "hits_warm": self.hits_warm,
            "hits_disk": self.hits_disk,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }
