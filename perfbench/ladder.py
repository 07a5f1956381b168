"""kernel-ladder: cold full-space verdicts on a ladder of instance sizes.

Every request builds its instance afresh and asks a fresh
``VerificationService``, so no verdict and no compiled kernel carries
over, and garbage from the previous request is collected before it
starts. The rungs run in whole passes, each pass in a seeded order; a
rung's time to verdict is its median over the passes; a latency sample
is one pass, the time to all five verdicts, and throughput is verdicts
(or states) per second of verdict time over the passes. (Per-verdict samples
would put the median on whichever of span6 and ring7 is faster in that
run.) The 10^7-state rung is
left out on purpose: at about 12 s and 1-3 GB per verdict it does not fit
a benchmark run on a small shared machine (experiment E20 keeps it).
"""

from __future__ import annotations

import gc
import json
import random
import time
from contextlib import nullcontext
from statistics import median

from perfbench import oracle
from perfbench.measure import own_peak_rss_mb
from perfbench.outcome import Outcome, passes
from perfbench.spec import RUNGS


def build(rung: str):
    """``(program, invariant, fault_span)`` of a rung, freshly built."""
    from repro.protocols.diffusing import build_diffusing_design
    from repro.protocols.library import build_case
    from repro.protocols.spanning_tree import spanning_tree_stair
    from repro.protocols.token_ring import build_dijkstra_ring
    from repro.topology import path_graph, star_tree

    if rung == "star7":
        design = build_diffusing_design(star_tree(7))
        return design.program, design.candidate.invariant, None
    if rung == "span6":
        program, invariant = build_case("spanning-tree-path", 6)
        return program, invariant, spanning_tree_stair(path_graph(6), 0)[1]
    nodes, k = {"ring6": (6, 6), "ring7": (7, 7), "ring7-k5": (7, 5)}[rung]
    program, invariant = build_dijkstra_ring(nodes, k)
    return program, invariant, None


def setup(seed: int) -> random.Random:
    import repro.kernel.shard  # noqa: F401  (imports numpy)
    import repro.verification.service  # noqa: F401

    for rung in RUNGS:
        build(rung)
    return random.Random(seed)


def run(rng: random.Random, seconds: float, recorder=None) -> Outcome:
    from repro.observability.metrics import MetricsRegistry
    from repro.verification.service import VerificationService

    outcome = Outcome()
    untraced = {rung: [] for rung in RUNGS}
    traced = {rung: [] for rung in RUNGS}
    pass_seconds: dict[bool, list[float]] = {False: [], True: []}
    for tracing in passes(seconds, recorder):
        order = list(RUNGS)
        rng.shuffle(order)
        pass_seconds[tracing].append(0.0)
        for rung in order:
            gc.collect()
            span = recorder.span if tracing else lambda name: nullcontext()
            if tracing:
                recorder.request = (rung, outcome.traced_requests)
                outcome.traced_requests += 1
            with span("protocols.build"):
                program, invariant, fault_span = build(rung)
            metrics = MetricsRegistry() if tracing else None
            service = VerificationService(metrics=metrics)
            begin = time.perf_counter()
            verdict = service.verify_tolerance(
                program, invariant, fault_span, case=rung
            )
            with span("serialize"):
                json.dumps(verdict.to_json())
            took = time.perf_counter() - begin
            (traced if tracing else untraced)[rung].append(took)
            pass_seconds[tracing][-1] += took
            outcome.check(rung, oracle.RUNGS[rung], verdict.record)
            if tracing:
                outcome.note_registry(metrics)
    measured = traced if recorder is not None else untraced
    medians = {rung: median(measured[rung]) for rung in RUNGS}
    total = sum(medians.values())
    # Throughput over whole passes: a mean follows the host's speed
    # smoothly where a median jumps between its fast and slow spells.
    samples = outcome.samples = pass_seconds[recorder is not None]
    outcome.end_to_end.update(
        requests_per_s=len(RUNGS) * len(samples) / sum(samples),
        states_per_s=sum(oracle.RUNGS[r].states for r in RUNGS)
        * len(samples) / sum(samples),
        peak_rss_mb=own_peak_rss_mb(),
    )
    outcome.layer.update({f"verdict_s.{rung}": medians[rung] for rung in RUNGS})
    if recorder is not None:
        outcome.tracing_overhead = total / sum(
            median(untraced[rung]) for rung in RUNGS
        ) - 1
    outcome.lines.extend(
        f"  {rung:9s} {oracle.RUNGS[rung].states:>8d} states  "
        f"median {medians[rung] * 1e3:9.2f} ms  (n={len(measured[rung])})"
        for rung in RUNGS
    )
    return outcome
