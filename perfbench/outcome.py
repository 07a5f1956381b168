"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from perfbench import oracle
from perfbench.measure import Tally
from perfbench.spans import SpanRecorder


@dataclass
class Outcome:
    tally: Tally = field(default_factory=Tally)
    #: Latency samples in seconds.
    samples: list[float] = field(default_factory=list)
    #: End-to-end metrics the workload computes itself.
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics the workload measures outside the spans.
    layer: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)
    traced_requests: int = 0
    #: Mean traced over mean untraced request time, minus one.
    tracing_overhead: float = 0.0
    table_hits: int = 0
    table_misses: int = 0
    peak_bytes: int = 0

    def check(self, label: str, expected: oracle.Expected, record: dict) -> bool:
        reason = oracle.mismatch(expected, record)
        return self.tally.record(not reason, f"{label}: {reason}")

    def note_registry(self, metrics: Any) -> None:
        """Fold one request's kernel counters from the program's own
        ``MetricsRegistry`` into the totals."""
        def count(name: str) -> int:
            counter = metrics.counters.get(name)
            return 0 if counter is None else counter.count

        self.table_hits += count("kernel.table_hits")
        self.table_misses += count("kernel.table_misses")
        self.peak_bytes = max(self.peak_bytes, count("kernel.mem.peak_bytes"))


def passes(seconds: float, recorder: SpanRecorder | None) -> Iterator[bool]:
    """Whole passes over a workload's request list until ``seconds`` pass.

    Yields whether each pass is traced. An untraced run makes at least
    one pass. A traced run alternates untraced and traced passes, starting
    untraced, so the untraced ones are a baseline for the tracing overhead
    taken under the same conditions; it makes at least one of each.
    """
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < seconds or (
        recorder is not None and index < 2
    ):
        tracing = recorder is not None and index % 2 == 1
        if tracing:
            recorder.install()
        try:
            yield tracing
        finally:
            if tracing:
                recorder.restore()
        index += 1
