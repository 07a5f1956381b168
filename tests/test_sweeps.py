"""Kernel v2 tests: vectorized sweeps, sharding, and engine parity.

Four layers:

- unit tests for the array primitives in :mod:`repro.kernel.sweeps`
  (closure scan, deadlock scan, Kahn acyclicity peel, frontier BFS, CSR
  fragment merging) against hand-built CSR graphs;
- differential tests pinning the vectorized full-space path and the
  sharded path bit-identical to the scalar route (called directly on
  the full space) and the dict engine across the protocol library,
  tiny edge-case spaces and crafted failing instances;
- whole-space predicate leaves: stair-step fault spans agree on every
  route, projections enumerate in key order, and a leaf that raises
  while tabulated is refused;
- engine-parity tests at the ``max_states`` boundary and pool-robustness
  tests for the ``BrokenProcessPool`` sequential fallback.
"""

import itertools
import multiprocessing
import os

import pytest

from repro.core import (
    Action,
    Assignment,
    FALSE,
    IntegerRangeDomain,
    Predicate,
    Program,
    State,
    Variable,
)
from repro.core.errors import StateSpaceTooLargeError
from repro.core.predicates import TRUE
from repro.kernel import sweeps
from repro.kernel.engine import compile_program
from repro.kernel.shard import plan_shards
from repro.kernel.verify import check_tolerance_packed
from repro.protocols.library import build_case, case_names
from repro.protocols.spanning_tree import spanning_tree_stair
from repro.topology import path_graph
from repro.verification.checker import _check_tolerance as check_tolerance

from tests.test_peel import _assert_routes_agree, _routes, _scalar_report

needs_numpy = pytest.mark.skipif(
    not sweeps.HAVE_NUMPY, reason="numpy is not installed"
)

if sweeps.HAVE_NUMPY:
    import numpy as np


# ----------------------------------------------------------------------
# Array primitives over hand-built CSR graphs
# ----------------------------------------------------------------------


def _csr(edges, n):
    """Build (offsets, targets) from {source: [targets...]}."""
    offsets = [0]
    targets = []
    for source in range(n):
        targets.extend(edges.get(source, []))
        offsets.append(len(targets))
    return (
        np.asarray(offsets, dtype=np.int64),
        np.asarray(targets, dtype=np.int64),
    )


@needs_numpy
class TestClosureScan:
    def test_closed_set(self):
        offsets, targets = _csr({0: [1], 1: [0], 2: [2]}, 3)
        mask = np.array([True, True, False])
        ok, checked, witnesses = sweeps.closure_scan(mask, offsets, targets)
        assert ok and checked == 2 and witnesses == []

    def test_failing_edges_in_order(self):
        # 0 -> 2 and 1 -> 2 leave the set {0, 1}.
        offsets, targets = _csr({0: [1, 2], 1: [2]}, 3)
        mask = np.array([True, True, False])
        ok, checked, witnesses = sweeps.closure_scan(mask, offsets, targets)
        assert not ok
        assert witnesses == [1, 2]  # CSR edge indices, edge order
        assert checked == 2

    def test_early_exit_checked_matches_scalar_walk(self):
        # Six failing edges from six sources: the scalar walk stops after
        # the fifth witness, having examined five sources.
        offsets, targets = _csr({i: [6] for i in range(6)}, 7)
        mask = np.array([True] * 6 + [False])
        ok, checked, witnesses = sweeps.closure_scan(mask, offsets, targets)
        assert not ok
        assert len(witnesses) == 5
        assert checked == 5


@needs_numpy
class TestDeadlockAndAcyclicity:
    def test_first_bad_deadlock(self):
        offsets, targets = _csr({0: [1]}, 3)
        bad = np.array([True, True, True])
        # States 1 and 2 both deadlock; the scan reports the first.
        assert sweeps.first_bad_deadlock(bad, offsets) == 1

    def test_no_deadlock(self):
        offsets, targets = _csr({0: [1], 1: [0], 2: [0]}, 3)
        assert sweeps.first_bad_deadlock(np.ones(3, dtype=bool), offsets) is None

    def test_acyclic_chain_peels(self):
        offsets, targets = _csr({0: [1], 1: [2], 2: [3]}, 4)
        bad = np.array([True, True, True, False])
        assert sweeps.bad_region_acyclic(bad, offsets, targets)

    def test_cycle_is_detected(self):
        offsets, targets = _csr({0: [1], 1: [0], 2: [0]}, 3)
        bad = np.ones(3, dtype=bool)
        assert not sweeps.bad_region_acyclic(bad, offsets, targets)

    def test_self_loop_is_a_cycle(self):
        offsets, targets = _csr({1: [1]}, 2)
        bad = np.array([False, True])
        assert not sweeps.bad_region_acyclic(bad, offsets, targets)

    def test_edges_through_good_states_do_not_count(self):
        # 0 -> 1 -> 0 would be a cycle, but 1 is good: the bad region
        # {0} only has the outgoing edge and is acyclic.
        offsets, targets = _csr({0: [1], 1: [0]}, 2)
        bad = np.array([True, False])
        assert sweeps.bad_region_acyclic(bad, offsets, targets)


@needs_numpy
class TestFrontierReach:
    def test_reaches_closure_of_roots(self):
        offsets, targets = _csr({0: [1], 1: [2], 3: [4]}, 5)
        visited = sweeps.frontier_reach(offsets, targets, [0], 5)
        assert visited.tolist() == [True, True, True, False, False]

    def test_multiple_roots_and_cycles(self):
        offsets, targets = _csr({0: [1], 1: [0], 2: [2], 4: [3]}, 5)
        visited = sweeps.frontier_reach(offsets, targets, [1, 4], 5)
        assert visited.tolist() == [True, True, False, True, True]

    def test_no_roots(self):
        offsets, targets = _csr({}, 3)
        assert not sweeps.frontier_reach(offsets, targets, [], 3).any()


class TestPlanShards:
    def test_auto_single_shard_below_threshold(self):
        assert plan_shards(1000) == [(0, 1000)]

    def test_explicit_shards_partition_contiguously(self):
        ranges = plan_shards(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]
        assert ranges[0][0] == 0 and ranges[-1][1] == 10
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo

    def test_shards_clamped_to_size(self):
        assert plan_shards(2, 100) == [(0, 1), (1, 2)]
        assert plan_shards(5, 0) == [(0, 5)]

    def test_empty_space(self):
        assert plan_shards(0) == []

    def test_auto_large_space_targets_shard_size(self):
        ranges = plan_shards(1 << 23)
        assert 1 < len(ranges) <= 64
        assert ranges[0][0] == 0 and ranges[-1][1] == 1 << 23


# ----------------------------------------------------------------------
# Differential: vectorized (and sharded) vs scalar packed sweep
# ----------------------------------------------------------------------


def _packed_report(program, invariant, fault_span, *, fairness="weak", **kw):
    return check_tolerance_packed(
        program, invariant, fault_span, fairness=fairness, **kw
    )


@needs_numpy
@pytest.mark.parametrize("name", case_names())
@pytest.mark.parametrize("fairness", ["weak", "none"])
def test_library_vectorized_matches_scalar(name, fairness):
    program, invariant = build_case(name)
    scalar = _scalar_report(program, invariant, TRUE, fairness=fairness)
    vectorized = _packed_report(program, invariant, TRUE, fairness=fairness)
    sharded = _packed_report(
        program, invariant, TRUE, fairness=fairness, shards=3
    )
    dict_report = check_tolerance(
        program, invariant, TRUE, fairness=fairness, engine="dict"
    )
    assert vectorized == scalar
    assert sharded == scalar
    assert dict_report == scalar


@needs_numpy
@pytest.mark.parametrize("name", case_names())
def test_library_sharded_matches_unsharded(name):
    program, invariant = build_case(name)
    unsharded = _packed_report(program, invariant, TRUE, shards=1)
    sharded = _packed_report(program, invariant, TRUE, shards=4)
    assert sharded == unsharded


def _counter(hi=3) -> Program:
    inc = Action(
        "inc",
        Predicate(lambda s: s["n"] < hi, name=f"n < {hi}", support=("n",)),
        Assignment({"n": lambda s: s["n"] + 1}),
        reads=("n",),
        process="p",
    )
    reset = Action(
        "reset",
        Predicate(lambda s: s["n"] == hi, name=f"n = {hi}", support=("n",)),
        Assignment({"n": 0}),
        reads=("n",),
        process="p",
    )
    return Program(
        "counter", [Variable("n", IntegerRangeDomain(0, hi), process="p")], [inc, reset]
    )


@needs_numpy
class TestFailingVerdictsVectorized:
    """Counterexample paths: witnesses, deadlocks, cycles, open spans."""

    def _both(self, program, invariant, fault_span, *, fairness="weak"):
        scalar = _scalar_report(
            program, invariant, fault_span, fairness=fairness
        )
        vectorized = _packed_report(
            program, invariant, fault_span, fairness=fairness
        )
        sharded = _packed_report(
            program, invariant, fault_span, fairness=fairness, shards=3
        )
        assert vectorized == scalar
        assert sharded == scalar
        return scalar

    def test_s_closure_witness_order_and_checked(self):
        program = _counter()
        invariant = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))
        report = self._both(program, invariant, TRUE)
        assert not report.s_closure.ok
        witness = report.s_closure.witnesses[0]
        assert witness.before == State({"n": 0})
        assert witness.action_name == "inc"
        assert witness.after == State({"n": 1})

    def test_cycle_counterexamples(self):
        program = _counter()
        for fairness in ("weak", "none"):
            report = self._both(program, FALSE, TRUE, fairness=fairness)
            assert report.convergence.counterexample.kind == "cycle"

    def test_deadlock_counterexample(self):
        dec = Action(
            "dec",
            Predicate(lambda s: s["n"] > 0, name="n > 0", support=("n",)),
            Assignment({"n": lambda s: s["n"] - 1}),
            reads=("n",),
            process="p",
        )
        program = Program(
            "dec-only", [Variable("n", IntegerRangeDomain(0, 2), process="p")], [dec]
        )
        invariant = Predicate(lambda s: s["n"] == 2, name="n = 2", support=("n",))
        report = self._both(program, invariant, TRUE)
        assert report.convergence.counterexample.kind == "deadlock"
        assert report.convergence.counterexample.states == (State({"n": 0}),)

    def test_unclosed_span_fails_without_counterexample(self):
        program = _counter()
        invariant = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))
        span = Predicate(lambda s: s["n"] <= 1, name="n <= 1", support=("n",))
        report = self._both(program, invariant, span)
        assert not report.t_closure.ok
        assert report.convergence.counterexample is None

    def test_implication_failure(self):
        program = _counter()
        invariant = Predicate(lambda s: s["n"] <= 2, name="n <= 2", support=("n",))
        span = Predicate(lambda s: s["n"] <= 1, name="n <= 1", support=("n",))
        report = self._both(program, invariant, span)
        assert not report.implication_ok

    def test_nontrivial_closed_span(self):
        # T = (n >= 1) is closed under inc/reset-to-1 and S = (n = hi).
        hi = 3
        inc = Action(
            "inc",
            Predicate(lambda s: s["n"] < hi, name=f"n < {hi}", support=("n",)),
            Assignment({"n": lambda s: s["n"] + 1}),
            reads=("n",),
            process="p",
        )
        program = Program(
            "climber",
            [Variable("n", IntegerRangeDomain(0, hi), process="p")],
            [inc],
        )
        invariant = Predicate(lambda s: s["n"] == hi, name="n = hi", support=("n",))
        span = Predicate(lambda s: s["n"] >= 1, name="n >= 1", support=("n",))
        report = self._both(program, invariant, span)
        assert report.ok
        assert not report.stabilizing


@needs_numpy
def test_raw_successors_fall_back_to_scalar():
    # The increment overflows its domain: raw successor states are
    # outside the vectorized fragment, so the full-space check must
    # still produce the scalar route's exact witnesses.
    inc = Action(
        "inc",
        Predicate(lambda s: True, name="true", support=()),
        Assignment({"n": lambda s: s["n"] + 1}),
        reads=("n",),
        process="p",
    )
    program = Program(
        "overflowing", [Variable("n", IntegerRangeDomain(0, 3), process="p")], [inc]
    )
    span = Predicate(lambda s: s["n"] <= 3, name="n <= 3", support=("n",))
    scalar = _scalar_report(program, FALSE, span)
    vectorized = _packed_report(program, FALSE, span)
    assert vectorized == scalar
    assert vectorized.t_closure.witnesses[0].after == State({"n": 4})


@needs_numpy
def test_opaque_predicate_without_support_falls_back():
    program = _counter()
    # No declared support and no symbolic source: the mask compiler must
    # refuse, and the scalar sweep must give the same report.
    opaque = Predicate(lambda s: s["n"] == 0, name="opaque")
    scalar = _scalar_report(program, opaque, TRUE)
    assert _packed_report(program, opaque, TRUE) == scalar


# ----------------------------------------------------------------------
# Tiny spaces: every full-space verdict takes the vectorized sweep
# ----------------------------------------------------------------------


def _countdown(actions=True) -> Program:
    dec = Action(
        "dec",
        Predicate(lambda s: s["n"] > 0, name="n > 0", support=("n",)),
        Assignment({"n": lambda s: s["n"] - 1}),
        reads=("n",),
        process="p",
    )
    return Program(
        "countdown" if actions else "idle",
        [Variable("n", IntegerRangeDomain(0, 3), process="p")],
        [dec] if actions else [],
    )


def _is(variable: str, value: int) -> Predicate:
    return Predicate(
        lambda s: s[variable] == value,
        name=f"{variable} = {value}",
        support=(variable,),
    )


def _one_state() -> Program:
    stay = Action(
        "stay",
        Predicate(lambda s: True, name="true", support=()),
        Assignment({"x": 0}),
        reads=("x",),
        process="p",
    )
    return Program(
        "one-state", [Variable("x", IntegerRangeDomain(0, 0), process="p")], [stay]
    )


#: name -> (program, invariant, fault span, check options, sweep path).
TINY_SPACES = {
    "one-state": lambda: (_one_state(), _is("x", 0), TRUE, {}, "vectorized"),
    # S is empty, so the lone state's self-loop is a bad cycle.
    "one-state-bad-cycle": lambda: (_one_state(), FALSE, TRUE, {}, "vectorized"),
    # No actions: every bad state is a deadlock (the first is n = 1).
    "no-actions": lambda: (
        _countdown(actions=False), _is("n", 0), TRUE, {}, "vectorized"
    ),
    "s-true": lambda: (_counter(), TRUE, TRUE, {}, "vectorized"),
    "nonmasking-t": lambda: (
        _countdown(),
        _is("n", 0),
        Predicate(lambda s: s["n"] <= 2, name="n <= 2", support=("n",)),
        {},
        "vectorized",
    ),
    "memory-budget": lambda: (
        _countdown(), _is("n", 0), TRUE, {"memory_budget": 1}, "streaming"
    ),
}


@needs_numpy
@pytest.mark.parametrize("fairness", ["weak", "none"])
@pytest.mark.parametrize("name", sorted(TINY_SPACES))
def test_tiny_space_reports_equal_scalar_and_dict(name, fairness):
    from repro.observability.events import KERNEL_MEM
    from repro.observability.tracer import Tracer

    program, invariant, span, options, path = TINY_SPACES[name]()
    tracer = Tracer.buffered()
    swept = _packed_report(
        program, invariant, span, fairness=fairness, tracer=tracer, **options
    )
    (memory,) = [event for event in tracer.events if event.kind == KERNEL_MEM]
    assert memory.fields["path"] == path
    scalar = _scalar_report(program, invariant, span, fairness=fairness)
    dict_report = check_tolerance(
        program, invariant, span, fairness=fairness, engine="dict"
    )
    assert swept == scalar
    assert swept == dict_report


@needs_numpy
@pytest.mark.parametrize("fairness", ["weak", "none"])
def test_tiny_space_verdicts(fairness):
    def report(name):
        program, invariant, span, options, _ = TINY_SPACES[name]()
        return _packed_report(
            program, invariant, span, fairness=fairness, **options
        )

    assert report("one-state").ok and report("one-state").total_states == 1
    cycle = report("one-state-bad-cycle").convergence.counterexample
    assert cycle.kind == "cycle" and cycle.states == (State({"x": 0}),)
    deadlock = report("no-actions").convergence.counterexample
    assert deadlock.kind == "deadlock"
    assert deadlock.states == (State({"n": 1}),)
    assert report("s-true").classification == "masking"
    nonmasking = report("nonmasking-t")
    assert nonmasking.ok and nonmasking.classification == "nonmasking"
    assert nonmasking.convergence.span_states == 3
    assert report("memory-budget").ok


# ----------------------------------------------------------------------
# Whole-space leaves: stair-step fault spans and projection enumeration
# ----------------------------------------------------------------------


def _stair_instance(nodes: int, step: int = 1):
    """A spanning tree on a path, ``T`` a stair step reading every variable."""
    program, invariant = build_case("spanning-tree-path", nodes)
    return program, invariant, spanning_tree_stair(path_graph(nodes), 0)[step]


@needs_numpy
@pytest.mark.parametrize("fairness", ["weak", "none"])
@pytest.mark.parametrize("step", [1, 2, 3])
def test_stair_span_routes_agree_on_a_short_path(fairness, step):
    program, invariant, span = _stair_instance(4, step)
    assert set(span.support) == set(program.variables)
    reports = _routes(program, invariant, span, fairness)
    _assert_routes_agree(reports)
    assert reports["scalar"].ok
    assert reports["scalar"].classification == "nonmasking"


@needs_numpy
@pytest.mark.parametrize("fairness", ["weak", "none"])
def test_span6_stair_span_is_vectorized(fairness):
    from repro.observability.events import KERNEL_MEM, KERNEL_SWEEP
    from repro.observability.tracer import Tracer

    program, invariant, span = _stair_instance(6)
    # 7^6 = 117,649 entries: the whole space, one leaf table.
    assert compile_program(program).codec.size == 7**6
    reports = _routes(program, invariant, span, fairness)
    _assert_routes_agree(reports)
    assert reports["scalar"].ok
    assert not reports["scalar"].stabilizing
    # The full-space check takes the vectorized sweep.
    tracer = Tracer.buffered()
    traced = _packed_report(
        program, invariant, span, fairness=fairness, tracer=tracer
    )
    assert traced == reports["scalar"]
    assert KERNEL_SWEEP in [event.kind for event in tracer.events]
    (memory,) = [event for event in tracer.events if event.kind == KERNEL_MEM]
    assert memory.fields["path"] == "vectorized"


def _mixed_radix_program() -> Program:
    """Radices 3, 1, 2, 1, 4 — including two single-value variables."""
    return Program(
        "mixed-radix",
        [
            Variable(name, IntegerRangeDomain(0, top), process="p")
            for name, top in (("a", 2), ("b", 0), ("c", 1), ("d", 0), ("e", 3))
        ],
        [],
    )


@needs_numpy
@pytest.mark.parametrize(
    "positions", [(0, 1, 2, 3, 4), (0, 2, 4), (1, 3), (4,), (2, 3, 4), ()]
)
def test_projection_enumerates_like_product(positions):
    codec = compile_program(_mixed_radix_program()).codec
    pairs = tuple((position, codec.radices[position]) for position in positions)
    size, keys = sweeps._projection(codec, pairs)
    combos = list(
        itertools.product(*[range(radix) for _, radix in pairs])
    )
    assert size == len(combos)
    seen = []
    for key, digits, values in keys:
        seen.append(key)
        combo = combos[key]
        expected = [0] * len(codec.radices)
        for (position, _), digit in zip(pairs, combo):
            expected[position] = digit
        assert digits == expected
        assert values == [
            codec.domain_values[position][digit]
            for position, digit in enumerate(expected)
        ]
    assert seen == list(range(size))


def test_iter_range_decodes_every_code():
    kernel = compile_program(_mixed_radix_program())
    codec = kernel.codec
    for lo, hi in ((0, codec.size), (5, 17), (23, 24), (7, 7)):
        walked = [
            (code, list(digits), list(values))
            for code, digits, values in kernel.iter_range(lo, hi)
        ]
        assert walked == [
            (code, codec.decode_digits(code), codec.decode_values(code))
            for code in range(lo, hi)
        ]


@needs_numpy
def test_empty_support_leaf_is_one_entry():
    program = _mixed_radix_program()
    codec = compile_program(program).codec
    leaf = sweeps._LeafMask(
        Predicate(lambda s: True, name="true", support=()), codec, []
    )
    assert leaf.table.tolist() == [True]


def _grid(top: int = 3) -> Program:
    """``x, y`` in ``0..top``, each counting down to 0."""
    return Program(
        "grid",
        [
            Variable(name, IntegerRangeDomain(0, top), process="p")
            for name in ("x", "y")
        ],
        [
            Action(
                f"dec-{name}",
                Predicate(
                    lambda s, name=name: s[name] > 0,
                    name=f"{name} > 0",
                    support=(name,),
                ),
                Assignment({name: lambda s, name=name: s[name] - 1}),
                reads=(name,),
                process="p",
            )
            for name in ("x", "y")
        ],
    )


@needs_numpy
def test_leaf_raising_partway_through_tabulation_refuses():
    program = _grid()
    invariant = Predicate(
        lambda s: s["x"] == 0 and s["y"] == 0, name="origin", support=("x", "y")
    )
    guard = Predicate(
        lambda s: (s["x"], s["y"]) != (2, 1), name="not (2, 1)", support=("x", "y")
    )

    def risky(s):
        if (s["x"], s["y"]) == (2, 1):
            raise ValueError("undefined at (2, 1)")
        return s["x"] <= s["y"] + 2

    # The scalar sweep short-circuits past ``risky`` where it raises; the
    # whole-space tabulation reaches that key (9 of 16) and must refuse.
    span = guard & Predicate(risky, name="risky", support=("x", "y"))
    with pytest.raises(sweeps.SweepUnsupported, match="during tabulation"):
        sweeps.SweepPlan(compile_program(program), invariant, span)
    scalar = _scalar_report(program, invariant, span)
    assert _packed_report(program, invariant, span) == scalar
    assert _packed_report(program, invariant, span, shards=3) == scalar


@needs_numpy
def test_refused_actions_skip_leaf_tabulation():
    calls = []
    inc = Action(
        "inc",
        Predicate(lambda s: True, name="true", support=()),
        Assignment({"n": lambda s: s["n"] + 1}),
        reads=("n",),
        process="p",
    )
    # ``m`` widens the space so ``inc`` compiles to a successor table.
    program = Program(
        "overflowing",
        [
            Variable("n", IntegerRangeDomain(0, 3), process="p"),
            Variable("m", IntegerRangeDomain(0, 15), process="p"),
        ],
        [inc],
    )
    kernel = compile_program(program)
    assert kernel.modes()["table"] == 1
    counted = Predicate(
        lambda s: calls.append(s) or s["n"] <= 3, name="n <= 3", support=("n",)
    )
    # The raw successor is refused while the actions are laid out, before
    # any predicate is probed or tabulated.
    with pytest.raises(sweeps.SweepUnsupported, match="out-of-domain"):
        sweeps.SweepPlan(kernel, counted, counted)
    assert calls == []


@needs_numpy
def test_sweep_events_and_counters():
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.tracer import Tracer

    program, invariant = build_case("dijkstra-ring")
    tracer = Tracer.buffered()
    metrics = MetricsRegistry()
    check_tolerance_packed(
        program, invariant, TRUE, shards=3, tracer=tracer, metrics=metrics
    )
    kinds = [event.kind for event in tracer.events]
    assert "kernel.sweep.vectorized" in kinds
    assert "kernel.shard.merged" in kinds
    report = metrics.report()
    assert report.counters["kernel.sweep.vectorized"] == 3
    assert report.counters["kernel.shard.merged"] == 3


# ----------------------------------------------------------------------
# Engine parity at the max_states boundary
# ----------------------------------------------------------------------


class TestMaxStatesParity:
    """Both engines agree — verdict or identical error — at the limit."""

    def test_at_exactly_max_states_both_verify(self):
        program, invariant = build_case("coloring-chain")
        size = len(list(program.state_space()))
        dict_report = check_tolerance(
            program, invariant, TRUE, engine="dict", max_states=size
        )
        packed_report = check_tolerance(
            program, invariant, TRUE, engine="packed", max_states=size
        )
        assert packed_report == dict_report
        assert packed_report.total_states == size

    def test_one_below_max_states_identical_error(self):
        program, invariant = build_case("coloring-chain")
        size = len(list(program.state_space()))
        with pytest.raises(StateSpaceTooLargeError) as dict_error:
            check_tolerance(
                program, invariant, TRUE, engine="dict", max_states=size - 1
            )
        with pytest.raises(StateSpaceTooLargeError) as packed_error:
            check_tolerance(
                program, invariant, TRUE, engine="packed", max_states=size - 1
            )
        assert str(packed_error.value) == str(dict_error.value)

    def test_service_threads_max_states_through(self):
        from repro.verification.service import VerificationService

        program, invariant = build_case("coloring-chain")
        size = len(list(program.state_space()))
        for engine in ("dict", "packed"):
            with pytest.raises(StateSpaceTooLargeError):
                VerificationService().verify_tolerance(
                    program,
                    invariant,
                    engine=engine,
                    case="boundary",
                    max_states=size - 1,
                )

    def test_raised_limit_allows_larger_spaces(self):
        # A limit above the instance is as good as the default.
        program, invariant = build_case("coloring-chain")
        report = check_tolerance(
            program, invariant, TRUE, engine="packed", max_states=10**9
        )
        assert report.ok


# ----------------------------------------------------------------------
# Pool robustness: BrokenProcessPool degrades to sequential
# ----------------------------------------------------------------------


def _die_in_worker(value):
    """Top-level pool fn: kill the worker process, succeed in-process."""
    if multiprocessing.current_process().name != "MainProcess":
        os._exit(1)
    return value * 2


def _build_case_killing_workers(name):
    """Builder that hard-kills any pool worker that runs it."""
    if multiprocessing.current_process().name != "MainProcess":
        os._exit(1)
    return build_case(name)


def _build_case_ignoring(arg):
    """Builder whose argument only matters for pickling."""
    return build_case("coloring-chain")


class TestBrokenPoolFallback:
    def test_run_on_pool_falls_back_sequentially(self):
        from repro.verification.parallel import run_on_pool

        assert run_on_pool(_die_in_worker, [1, 2, 3], workers=2) == [2, 4, 6]

    def test_run_on_pool_sequential_modes(self):
        from repro.verification.parallel import run_on_pool

        assert run_on_pool(_die_in_worker, [], workers=4) == []
        assert run_on_pool(_die_in_worker, [5], workers=4) == [10]
        assert run_on_pool(_die_in_worker, [1, 2], workers=1) == [2, 4]

    def test_run_batch_falls_back_sequentially(self):
        from repro.verification.parallel import VerificationTask, run_batch

        tasks = [
            VerificationTask(
                case=f"killer-{index}",
                builder=f"{__name__}:_build_case_killing_workers",
                args=("coloring-chain",),
            )
            for index in range(2)
        ]
        records = run_batch(tasks, workers=2)
        assert len(records) == 2
        assert all(record["ok"] for record in records)
        assert all(
            record["worker"] == "MainProcess" for record in records
        )

    def test_unpicklable_probe_task_degrades(self):
        # An unpicklable first task defeats the representative probe and
        # the whole batch runs sequentially in-process.
        from repro.verification.parallel import VerificationTask, run_batch

        bad = VerificationTask(
            case="unpicklable-arg",
            builder=f"{__name__}:_build_case_ignoring",
            args=(lambda: None,),  # closures do not pickle
        )
        records = run_batch([bad], workers=2)
        assert records[0]["ok"]
        assert records[0]["worker"] == "MainProcess"

    def test_unpicklable_task_past_the_probe_degrades(self):
        # The probe only checks tasks[0]; a later unpicklable task fails
        # at submit time and the pool degrades to the sequential rerun.
        from repro.verification.parallel import VerificationTask, run_batch

        good = VerificationTask(
            case="picklable",
            builder=f"{__name__}:_build_case_ignoring",
            args=("anything",),
        )
        bad = VerificationTask(
            case="unpicklable-arg",
            builder=f"{__name__}:_build_case_ignoring",
            args=(lambda: None,),
        )
        records = run_batch([good, bad], workers=2)
        assert len(records) == 2
        assert all(record["ok"] for record in records)


# ----------------------------------------------------------------------
# Sharding plumbing: service and CLI
# ----------------------------------------------------------------------


@needs_numpy
def test_service_shards_do_not_change_record():
    from repro.verification.service import VerificationService

    program, invariant = build_case("dijkstra-ring")
    plain = VerificationService().verify_tolerance(
        program, invariant, engine="packed", case="s"
    )
    sharded = VerificationService().verify_tolerance(
        program, invariant, engine="packed", case="s", shards=4
    )
    assert sharded.report == plain.report
    ignore = ("seconds",)
    assert {k: v for k, v in sharded.record.items() if k not in ignore} == {
        k: v for k, v in plain.record.items() if k not in ignore
    }


@needs_numpy
def test_shards_hit_the_service_cache(tmp_path):
    # shards= is deliberately NOT part of the cache key: a sharded run
    # re-answers an unsharded run's cached verdict and vice versa.
    from repro.verification.service import VerificationService

    program, invariant = build_case("dijkstra-ring")
    service = VerificationService(cache_dir=str(tmp_path))
    first = service.verify_tolerance(
        program, invariant, engine="packed", case="c", shards=3
    )
    second = service.verify_tolerance(
        program, invariant, engine="packed", case="c"
    )
    assert not first.cached
    assert second.cached
