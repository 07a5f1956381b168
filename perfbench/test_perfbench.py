"""Tests of the benchmark's own helpers.

Run from the root of the checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from perfbench import mixed, oracle
from perfbench.layers import KernelCall, consistency_errors, kernel_calls, layer_metrics
from perfbench.measure import Tally, percentile, samples_beyond
from perfbench.outcome import Outcome
from perfbench.spans import Span, SpanRecorder, self_times


def test_p99_of_a_thousand_samples_has_ten_beyond_it():
    values = list(range(1000, 0, -1))
    assert percentile(values, 0.99) == 990
    assert samples_beyond(len(values), 0.99) == 10
    assert sum(1 for v in values if v > percentile(values, 0.99)) == 10
    assert samples_beyond(500, 0.99) == 5
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, None, "outer", 0.0, 10.0, "r"),
        Span(2, 1, "inner", 2.0, 5.0, "r"),
        Span(3, 2, "leaf", 3.0, 4.0, "r"),
        Span(4, 1, "leaf", 6.0, 7.5, "r"),
    ]
    times = self_times(spans)
    assert times["outer"] == (pytest.approx(5.5), 1)
    assert times["inner"] == (pytest.approx(2.0), 1)
    assert times["leaf"] == (pytest.approx(2.5), 2)


def test_recorder_links_nested_spans_and_requests():
    recorder = SpanRecorder()
    leaf = recorder.traced(lambda x: x * 2, "leaf", capture=lambda r: r + 1)
    recorder.request = "req-1"
    with recorder.span("outer"):
        assert leaf(20) == 40
    recorder.request = None
    leaf(1)
    inner, outer, alone = recorder.spans
    assert (outer.name, outer.parent, outer.request) == ("outer", None, "req-1")
    assert (inner.parent, inner.request, inner.info) == (outer.id, "req-1", 41)
    assert alone.parent is None and alone.request == alone.id


def test_recorder_restores_what_it_patched():
    class Owner:
        def method(self):
            return "original"

    recorder = SpanRecorder()
    original = Owner.__dict__["method"]
    recorder.patch(Owner, "method", recorder.traced(original, "owner.method"))
    assert Owner().method() == "original"
    assert [span.name for span in recorder.spans] == ["owner.method"]
    recorder.restore()
    assert Owner.__dict__["method"] is original


def test_fail_ratio_counts_failures_against_attempts():
    tally = Tally()
    assert tally.fail_ratio == 1.0  # nothing attempted is no success
    tally.record(True)
    tally.record(False, "wrong verdict")
    tally.fail("leaked segment")
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.fail_ratio == pytest.approx(2 / 3)
    assert tally.reasons == {"wrong verdict": 1, "leaked segment": 1}


def test_a_deliberately_wrong_expectation_is_counted():
    from repro.protocols.token_ring import build_dijkstra_ring
    from repro.verification.service import VerificationService

    program, invariant = build_dijkstra_ring(4, 4)
    record = VerificationService().verify_tolerance(program, invariant).record
    outcome = Outcome()
    assert outcome.check("ring4", oracle._ring(4, 4), record)
    wrong = [
        dataclasses.replace(oracle._ring(4, 4), ok=False),
        dataclasses.replace(oracle._ring(4, 4), states=255),
        dataclasses.replace(oracle._ring(4, 4), classification="masking"),
    ]
    for expected in wrong:
        assert not outcome.check("ring4", expected, record)
    assert (outcome.tally.attempted, outcome.tally.failed) == (4, 3)
    assert outcome.tally.fail_ratio == 0.75


def test_oracle_checks_theorem_records():
    expected = oracle.DESIGNS["oscillating"]
    record = {"ok": False, "theorem": "Theorem 2 (self-looping)", "states": 343}
    assert oracle.mismatch(expected, record) == ""
    assert "theorem" in oracle.mismatch(expected, {**record, "theorem": "Theorem 1"})
    assert "ok=" in oracle.mismatch(expected, {**record, "ok": True})


def test_request_plan_is_a_function_of_the_seed():
    plan = mixed.request_plan(7, 2000)
    assert plan == mixed.request_plan(7, 2000)
    assert plan != mixed.request_plan(8, 2000)
    quantify = [body for path, body in plan if body.get("quantify")]
    lint = [body for path, body in plan if path == "/lint"]
    assert 150 < len(quantify) < 250 and 150 < len(lint) < 250
    rates = [body["fault_rate"] for body in quantify]
    assert len(set(rates)) == len(rates)  # every quantify request misses
    assert all(key in oracle.LIBRARY for key in mixed.ROSTER)


def test_library_routes_plan_covers_every_route():
    from perfbench import routes
    from perfbench.spec import ROUTES

    listed = routes.requests()
    assert {request.route for request in listed} == set(ROUTES)
    assert len({request.label for request in listed}) == len(listed)


def _traced_check(nodes: int, k: int) -> list[KernelCall]:
    from repro.protocols.token_ring import build_dijkstra_ring
    from repro.verification.service import VerificationService

    recorder = SpanRecorder()
    recorder.install()
    try:
        program, invariant = build_dijkstra_ring(nodes, k)
        VerificationService().verify_tolerance(program, invariant)
    finally:
        recorder.restore()
    return recorder.spans


def test_kernel_trace_agrees_with_the_whole_call():
    spans = _traced_check(7, 4)  # 16,384 states: vectorized, not tolerant
    (call,) = kernel_calls(spans)
    assert call.route == "vectorized"
    assert {p.name for p in call.phases} >= {"kernel.sweep", "kernel.acyclic"}
    assert consistency_errors(call) == []
    assert 0 < call.covered < call.span.seconds
    metrics = layer_metrics(spans, 1)
    assert metrics["kernel.route.vectorized"] == 1
    assert metrics["kernel.states"] == 4**7
    assert 0 < metrics["kernel.trace_coverage"] < 1


def test_kernel_trace_disagreement_is_reported():
    (call,) = kernel_calls(_traced_check(7, 4))
    tampered = dataclasses.replace(
        call.span, info={**call.span.info, "s_closure": False, "counterexample": "deadlock"}
    )
    errors = consistency_errors(KernelCall(tampered, call.phases))
    assert any("s_closure" in error for error in errors)
    assert any("deadlock" in error for error in errors)


def test_orphaned_grandchildren_are_waited_for_or_killed():
    # In a child interpreter: the subreaper setting would outlive the test.
    script = textwrap.dedent("""
        import subprocess, sys, time
        from perfbench.measure import adopt_orphans, reap_children
        assert adopt_orphans()

        def orphan(seconds):
            grandchild = f"import time; time.sleep({seconds})"
            subprocess.run([sys.executable, "-c",
                            "import subprocess, sys; "
                            f"subprocess.Popen([sys.executable, '-c', {grandchild!r}])"])

        orphan(60)
        began = time.monotonic()
        print(reap_children(0.5), time.monotonic() - began < 30)
        orphan(0.3)
        print(reap_children(30.0))
    """)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        cwd=Path(__file__).resolve().parents[1],
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "True", "0"]
