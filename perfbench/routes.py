"""library-routes: every library case through every route to a verdict.

Each request builds its instance, asks a fresh ``VerificationService``
once cold and then three times warm; the warm answers must equal the cold
one. Three asks in four are cache hits, so per-call fixed costs (the
cache key above all) dominate and the kernel sweep does little: this is
the no-change control for kernel optimisations.
"""

from __future__ import annotations

import json
import random
import time
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

from perfbench import oracle
from perfbench.measure import own_peak_rss_mb
from perfbench.outcome import Outcome, passes

WARM_ASKS = 3
#: Far below star-7's materialized sweep, so the streaming path runs.
STREAMING_BUDGET = 1024

Ask = Callable[[Any], tuple[dict, Any]]


@dataclass(frozen=True)
class Request:
    label: str
    route: str
    expected: oracle.Expected
    #: Builds the instance; returns the ask to put to a service.
    prepare: Callable[[], Ask]


def _verify(build: Callable[[], tuple], **options) -> Callable[[], Ask]:
    def prepare() -> Ask:
        program, invariant, *design = build()

        def ask(service):
            verdict = service.verify_tolerance(
                program, invariant,
                design=design[0] if design else None, **options,
            )
            return verdict.record, verdict.to_json()

        return ask

    return prepare


def _validate(build: Callable[[], tuple], theorem: str) -> Callable[[], Ask]:
    def prepare() -> Ask:
        design, window = build()

        def ask(service):
            record = service.validate_design(
                design, window, theorem=theorem, states_key="window"
            )
            return record, record

        return ask

    return prepare


def _library_case(name: str, size: int) -> Callable[[], tuple]:
    from repro.protocols.library import build_case

    return lambda: build_case(name, size)


def _library_design(name: str, size: int) -> Callable[[], tuple]:
    from repro.protocols.library import build_case_design

    def build():
        design = build_case_design(name, size)
        return design.program, design.candidate.invariant, design

    return build


def _star7():
    from repro.protocols.diffusing import build_diffusing_design
    from repro.topology import star_tree

    design = build_diffusing_design(star_tree(7))
    return design.program, design.candidate.invariant


def _ring(nodes: int, k: int) -> Callable[[], tuple]:
    from repro.protocols.token_ring import build_dijkstra_ring

    return lambda: build_dijkstra_ring(nodes, k)


def _token_ring_window():
    from repro.protocols.token_ring import build_token_ring_design, window_states

    return build_token_ring_design(3), window_states(3, 0, 2)


def _xyz_window(builder_name: str) -> Callable[[], tuple]:
    from repro.protocols import three_constraint

    builder = getattr(three_constraint, builder_name)
    return lambda: (builder(3), three_constraint.window_states(3))


def requests() -> list[Request]:
    """The request list of one pass, in registration order."""
    from repro.protocols.library import CASES

    listed = []
    for name, case in CASES.items():
        size = case.default_size
        expected = oracle.LIBRARY[(name, size)]
        build = _library_case(name, size)
        for route, options in (
            ("auto", {}),
            ("dict", {"engine": "dict"}),
            ("quantify", {"quantify": True}),
            ("lint", {"lint": True}),
        ):
            listed.append(Request(f"{name}/{route}", route, expected,
                                  _verify(build, **options)))
        if case.build_design is not None:
            listed.append(Request(
                f"{name}/compositional", "compositional", expected,
                _verify(_library_design(name, size), method="compositional"),
            ))
    listed.append(Request("token-ring/theorem3", "validate",
                          oracle.DESIGNS["token-ring"],
                          _validate(_token_ring_window, "3")))
    for design, builder in (
        ("out-tree", "build_out_tree_design"),
        ("ordered", "build_ordered_design"),
        ("oscillating", "build_oscillating_design"),
    ):
        listed.append(Request(f"xyz-{design}/theorem", "validate",
                              oracle.DESIGNS[design],
                              _validate(_xyz_window(builder), "auto")))
    star7 = oracle.RUNGS["star7"]
    listed.append(Request("star7/budget", "budget", star7,
                          _verify(_star7, memory_budget=STREAMING_BUDGET)))
    listed.append(Request("star7/shards", "shards", star7,
                          _verify(_star7, shards=2)))
    for (nodes, k), expected in oracle.FAILING_RINGS.items():
        listed.append(Request(f"ring{nodes}-k{k}", "failing", expected,
                              _verify(_ring(nodes, k))))
    return listed


def setup(seed: int) -> tuple[random.Random, list[Request]]:
    from repro.verification.service import VerificationService

    # One untimed pass fills the process-wide memo tables (kernel tables,
    # proof memos, design builders), so every timed pass does equal work.
    listed = requests()
    for request in listed:
        ask = request.prepare()
        service = VerificationService()
        for _ in range(1 + WARM_ASKS):
            ask(service)
    return random.Random(seed), listed


def _states(record: dict) -> int:
    return record.get("total_states", record.get("states", 0))


def run(state, seconds: float, recorder=None) -> Outcome:
    from repro.observability.metrics import MetricsRegistry
    from repro.verification.service import VerificationService

    rng, listed = state
    outcome = Outcome()
    busy = {False: 0.0, True: 0.0}
    asks = {False: 0, True: 0}
    states = 0
    hits = lookups = 0
    for tracing in passes(seconds, recorder):
        order = list(listed)
        rng.shuffle(order)
        for request in order:
            span = recorder.span if tracing else lambda name: nullcontext()
            with span("protocols.build"):
                ask = request.prepare()
            metrics = MetricsRegistry() if tracing else None
            service = VerificationService(metrics=metrics)
            cold = None
            for index in range(1 + WARM_ASKS):
                if tracing:
                    recorder.request = (request.label, outcome.traced_requests)
                    outcome.traced_requests += 1
                begin = time.perf_counter()
                with span(f"route.{request.route}"):
                    record, payload = ask(service)
                    with span("serialize"):
                        json.dumps(payload)
                took = time.perf_counter() - begin
                busy[tracing] += took
                asks[tracing] += 1
                if tracing == (recorder is not None):
                    outcome.samples.append(took)
                    states += _states(record)
                if index == 0:
                    cold = record
                    outcome.check(request.label, request.expected, record)
                else:
                    outcome.tally.record(
                        record == cold, f"{request.label}: warm answer differs"
                    )
            if tracing:
                outcome.note_registry(metrics)
                hits += service.hits
                lookups += service.hits + service.misses
    measured = recorder is not None
    outcome.end_to_end.update(
        requests_per_s=asks[measured] / busy[measured],
        states_per_s=states / busy[measured],
        peak_rss_mb=own_peak_rss_mb(),
    )
    if recorder is not None:
        outcome.layer["cache.hit_ratio"] = hits / lookups if lookups else 0.0
        outcome.tracing_overhead = (busy[True] / asks[True]) / (
            busy[False] / asks[False]
        ) - 1
    outcome.lines.append(
        f"  {len(listed)} requests x {1 + WARM_ASKS} asks per pass, "
        f"{asks[measured]} asks measured"
    )
    return outcome
