"""In-memory spans recorded around calls into the verifier's layers.

Nothing inside ``src/`` is instrumented: :func:`install_layers` replaces
each layer's public entry points with wrappers that record a span (name,
start, end, parent, request id) and restores the originals on
:meth:`SpanRecorder.restore`. A layer's self time is its span's duration
minus the part its direct child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    request: Any
    info: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from every thread of one process.

    Each thread keeps its own stack, so a span's parent is the innermost
    open span of the thread that opened it. ``request`` labels the spans
    of the request being timed; a span opened with no request set and no
    open parent starts a request of its own (its id).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: Any = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        """Start tracing: wrap every layer entry point."""
        install_layers(self)

    def _stack(self) -> list[tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record a span around the ``with`` body. The body may set
        ``info[0]`` on the yielded list; the span keeps it."""
        stack = self._stack()
        sid = next(self._ids)
        parent, request = stack[-1] if stack else (None, self.request)
        request = sid if request is None else request
        stack.append((sid, request))
        info = [None]
        start = time.perf_counter()
        try:
            yield info
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, request, info[0]))

    def traced(
        self,
        fn: Callable,
        name: str,
        capture: Callable[[Any], Any] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``capture(result)`` of a result that
        is not ``None`` is kept as its info."""

        def wrapper(*args, **kwargs):
            with self.span(name) as info:
                result = fn(*args, **kwargs)
                if capture is not None and result is not None:
                    info[0] = capture(result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: Iterable[Span]) -> dict[str, tuple[float, int]]:
    """``name -> (total self seconds, span count)``.

    A span's self time is its duration minus the summed durations of its
    direct children.
    """
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        entry = totals[span.name]
        entry[0] += span.seconds - covered[span.id]
        entry[1] += 1
    return {name: (seconds, count) for name, (seconds, count) in totals.items()}


def children(spans: Iterable[Span]) -> dict[int, list[Span]]:
    """Direct child spans by parent id, in start order."""
    by_parent: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            by_parent[span.parent].append(span)
    for group in by_parent.values():
        group.sort(key=lambda span: span.start)
    return by_parent


# ----------------------------------------------------------------------
# The layers
# ----------------------------------------------------------------------

#: Kernel phases whose time counts as covered inside ``kernel.check``;
#: the rest of that span is ``kernel.residual``.
KERNEL_PHASES = (
    "kernel.compile",
    "kernel.plan",
    "kernel.plan_shards",
    "kernel.sweep",
    "kernel.stream",
    "kernel.closure",
    "kernel.deadlock",
    "kernel.acyclic",
)


def _report_bits(report) -> dict[str, Any]:
    convergence = report.convergence
    counterexample = convergence.counterexample
    return {
        "ok": report.ok,
        "s_closure": report.s_closure.ok,
        "t_closure": report.t_closure.ok,
        "convergence": convergence.ok,
        "counterexample": None if counterexample is None else counterexample.kind,
        "states": report.total_states,
        "span_states": convergence.span_states,
        "bad_states": convergence.bad_states,
    }


#: (module, attribute path, span name, capture) for every layer entry
#: point. Module-level names are patched where callers look them up: a
#: caller that imported a function by name gets its own entry.
LAYER_ENTRY_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.protocols.library", "build_case", "protocols.build", None),
    ("repro.protocols.library", "build_case_design", "protocols.build", None),
    ("repro.verification.service", "tolerance_fingerprint", "service.fingerprint", None),
    ("repro.verification.server", "tolerance_fingerprint", "service.fingerprint", None),
    ("repro.verification.service", "VerificationService.cached_record", "service.lookup", None),
    ("repro.verification.store", "VerdictStore.get", "store.get", None),
    ("repro.verification.store", "VerdictStore.put", "store.put", None),
    ("repro.kernel.verify", "check_tolerance_packed", "kernel.check", _report_bits),
    ("repro.kernel.verify", "compile_program", "kernel.compile", None),
    ("repro.kernel", "compile_program", "kernel.compile", None),
    ("repro.kernel.verify", "_streaming_full_space", "kernel.stream",
     lambda report: "streamed"),
    ("repro.kernel.sweeps", "SweepPlan", "kernel.plan", None),
    ("repro.kernel.shard", "plan_shards", "kernel.plan_shards", None),
    ("repro.kernel.shard", "sweep_merged", "kernel.sweep",
     lambda result: int(result[0][2][-1])),
    ("repro.kernel.sweeps", "closure_scan", "kernel.closure",
     lambda result: bool(result[0])),
    # A found deadlock is a state index; no deadlock is None (no info).
    ("repro.kernel.sweeps", "first_bad_deadlock", "kernel.deadlock",
     lambda result: True),
    ("repro.kernel.sweeps", "bad_region_acyclic", "kernel.acyclic", bool),
    ("repro.quantitative", "quantify", "quantitative.solve", None),
    ("repro.staticcheck", "lint_program", "staticcheck.lint", None),
    ("repro.staticcheck", "lint_case", "staticcheck.lint", None),
    ("repro.compositional", "certify_compositional", "compositional.certify",
     lambda certificate: certificate.status),
    ("repro.core.design", "NonmaskingDesign.validate", "theorems.validate", None),
)


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def install_layers(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point, plus the two that need care.

    ``VerificationService.memo`` is the lookup around a cache miss's
    compute callback: the callback gets its own ``service.compute`` span
    so the lookup's self time is the cache work alone. The daemon's
    response serialization is its module's ``json.dumps``; the daemon
    gets a ``json`` stand-in so no other caller of ``json`` is traced.
    """
    for module_name, path, name, capture in LAYER_ENTRY_POINTS:
        owner, attr = _resolve(module_name, path)
        recorder.patch(owner, attr, recorder.traced(getattr(owner, attr), name, capture))

    from repro.verification import server, service

    memo = service.VerificationService.memo

    def traced_memo(self, kind, key, compute):
        return memo(self, kind, key, recorder.traced(compute, "service.compute"))

    recorder.patch(
        service.VerificationService, "memo",
        recorder.traced(traced_memo, "service.lookup"),
    )

    class _TracedJson:
        dumps = staticmethod(recorder.traced(json.dumps, "serialize"))
        loads = staticmethod(json.loads)
        JSONDecodeError = json.JSONDecodeError

    recorder.patch(server, "json", _TracedJson)
