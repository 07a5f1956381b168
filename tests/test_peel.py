"""The Kahn peel and the residue-only exact convergence check.

Every acyclicity check of the vectorized kernel runs one peel core
(:func:`repro.kernel.sweeps.peel_residue`); when the bad region is
cyclic, the exact SCC-and-fairness analysis runs only over the peel's
residue. Two layers pin that down:

- property tests on random small CSR graphs: the residue equals the
  brute-force set of bad states on, or able to reach, a bad cycle, and
  the shard-local peels plus the boundary exchange of the streaming
  path leave exactly the in-memory residue, for random shard cuts;
- a differential regression: the vectorized, scalar, sharded and
  memory-budgeted (streaming, then materialized) routes produce equal
  full reports, cycle counterexample states included, on failing
  Dijkstra rings and on a hand-made instance whose bad region mixes
  peelable and unpeelable states around one cycle.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    Action,
    Assignment,
    IntegerRangeDomain,
    Predicate,
    Program,
    State,
    Variable,
)
from repro.core.predicates import TRUE
from repro.kernel import sweeps
from repro.kernel.engine import compile_program
from repro.kernel.verify import _scalar_route, check_tolerance_packed
from repro.protocols.token_ring import build_dijkstra_ring
from repro.verification.checker import _check_tolerance as check_tolerance

needs_numpy = pytest.mark.skipif(
    not sweeps.HAVE_NUMPY, reason="numpy is not installed"
)

if sweeps.HAVE_NUMPY:
    import numpy as np


# ----------------------------------------------------------------------
# Random CSR graphs against a brute-force residue
# ----------------------------------------------------------------------


@st.composite
def bad_regions(draw):
    """``(rows, bad)``: successor lists (duplicates and self-loops
    allowed, edges through good states included) and a bad mask that
    may be empty."""
    n = draw(st.integers(min_value=1, max_value=12))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), max_size=4),
            min_size=n,
            max_size=n,
        )
    )
    bad = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return rows, bad


def _brute_residue(rows, bad) -> set[int]:
    """Bad states that lie on, or can reach, a cycle of the bad region."""

    def reach(start):
        seen: set[int] = set()
        stack = [t for t in rows[start] if bad[t]]
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(t for t in rows[node] if bad[t])
        return seen

    reachable = {v: reach(v) for v in range(len(rows)) if bad[v]}
    on_cycle = {v for v, seen in reachable.items() if v in seen}
    return {v for v, seen in reachable.items() if v in on_cycle or seen & on_cycle}


def _arrays(rows, bad, dtype):
    offsets = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    targets = np.asarray([t for row in rows for t in row], dtype=dtype)
    return np.asarray(bad, dtype=bool), offsets, targets


@needs_numpy
@settings(max_examples=300, deadline=None)
@given(bad_regions(), st.sampled_from(["int16", "int32"]))
# An empty bad region; a duplicated edge and a self-loop; cycles that
# run through the good state 2 only, so the bad region is acyclic.
@example(([[1], [0]], [False, False]), "int16")
@example(([[1, 1], [2], [2]], [True, True, True]), "int32")
@example(([[2], [2], [0, 1]], [True, True, False]), "int16")
def test_residue_matches_brute_force(region, dtype):
    rows, bad = region
    bad_mask, offsets, targets = _arrays(rows, bad, dtype)
    peel = sweeps.bad_region_acyclic(bad_mask, offsets, targets)
    expected = _brute_residue(rows, bad)
    assert peel.residue.tolist() == sorted(expected)
    assert bool(peel) == (not expected)


@needs_numpy
@settings(max_examples=300, deadline=None)
@given(bad_regions(), st.sampled_from(["int16", "int32"]), st.data())
def test_shard_peels_and_exchange_match_in_memory_peel(region, dtype, data):
    rows, bad = region
    n = len(rows)
    bad_mask, offsets, targets = _arrays(rows, bad, dtype)
    cuts = sorted(
        data.draw(st.sets(st.integers(1, n - 1), max_size=3)) if n > 1 else []
    )
    bounds = [0, *cuts, n]

    resolved = np.zeros(n, dtype=bool)
    kept_sources, kept_sinks = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        edges = [
            (source, sink)
            for source in range(lo, hi)
            for sink in rows[source]
            if bad[source] and bad[sink]
        ]
        sources = np.asarray([s for s, _ in edges], dtype=dtype)
        sinks = np.asarray([t for _, t in edges], dtype=dtype)
        drained, sources, sinks = sweeps.peel_shard_edges(
            lo, hi, bad_mask[lo:hi], sources, sinks
        )
        resolved[lo:hi] = drained
        kept_sources.append(sources)
        kept_sinks.append(sinks)
    # The exchange: edges into a sink its own shard drained are gone.
    sources = np.concatenate(kept_sources)
    sinks = np.concatenate(kept_sinks)
    alive = ~resolved[sinks]
    sources, sinks = sources[alive], sinks[alive]
    unresolved = bad_mask & ~resolved

    exchanged = sweeps.peel_residue(unresolved, sources, sinks)
    in_memory = sweeps.bad_region_acyclic(bad_mask, offsets, targets)
    assert np.flatnonzero(exchanged).tolist() == in_memory.residue.tolist()
    assert sweeps.edge_list_acyclic(sources, sinks, unresolved) == bool(
        in_memory
    )


@needs_numpy
@settings(max_examples=100, deadline=None)
@given(bad_regions())
def test_reverse_csr_lists_every_predecessor(region):
    rows, _ = region
    n = len(rows)
    sources = np.asarray(
        [s for s, row in enumerate(rows) for _ in row], dtype=np.int32
    )
    sinks = np.asarray([t for row in rows for t in row], dtype=np.int32)
    indptr, preds = sweeps.reverse_csr(sources, sinks, n)
    for v in range(n):
        expected = sorted(s for s, row in enumerate(rows) for t in row if t == v)
        assert sorted(preds[indptr[v] : indptr[v + 1]].tolist()) == expected


@needs_numpy
@settings(max_examples=100, deadline=None)
@given(bad_regions(), st.data())
def test_frontier_reach_matches_brute_force(region, data):
    rows, _ = region
    n = len(rows)
    roots = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    targets = np.asarray([t for row in rows for t in row], dtype=np.int32)
    seen, stack = set(roots), list(roots)
    while stack:
        for t in rows[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    visited = sweeps.frontier_reach(offsets, targets, roots, n)
    assert np.flatnonzero(visited).tolist() == sorted(seen)


# The int16 code width ends at exactly 2**15 states, and a frontier drawn
# from predecessor or target lists carries that width: the last state
# must still find its row when it joins a frontier after the first round.
INT16_STATES = 1 << 15
LAST = INT16_STATES - 1


@needs_numpy
def test_int16_boundary_peels_the_last_state_late():
    # LAST -> 0 and LAST-1 -> LAST: 0 peels in round one, LAST in round
    # two, LAST-1 in round three; every other state has no edge at all.
    rows = {LAST: [0], LAST - 1: [LAST]}
    bad = np.ones(INT16_STATES, dtype=bool)
    offsets = np.zeros(INT16_STATES + 1, dtype=np.int32)
    np.cumsum(
        [len(rows.get(v, [])) for v in range(INT16_STATES)], out=offsets[1:]
    )
    # Rows in state order: LAST-1's edge, then LAST's.
    targets = np.asarray([LAST, 0], dtype=np.int16)
    assert bool(sweeps.bad_region_acyclic(bad, offsets, targets))
    # The streaming exchange hands over global codes in the code dtype.
    sources = np.asarray([LAST, LAST - 1], dtype=np.int16)
    sinks = np.asarray([0, LAST], dtype=np.int16)
    assert sweeps.edge_list_acyclic(sources, sinks, bad)
    # A self-loop on LAST-1 keeps it, and only it, in the residue.
    sources = np.asarray([LAST, LAST - 1, LAST - 1], dtype=np.int16)
    sinks = np.asarray([0, LAST, LAST - 1], dtype=np.int16)
    residue = sweeps.peel_residue(bad, sources, sinks)
    assert np.flatnonzero(residue).tolist() == [LAST - 1]


@needs_numpy
def test_int16_boundary_frontier_reach_expands_the_last_state():
    # 0 -> LAST -> 1: LAST is reached in round one and must expand.
    offsets = np.zeros(INT16_STATES + 1, dtype=np.int32)
    offsets[1:] = 1
    offsets[-1] = 2
    targets = np.asarray([LAST, 1], dtype=np.int16)
    visited = sweeps.frontier_reach(offsets, targets, [0], INT16_STATES)
    assert np.flatnonzero(visited).tolist() == [0, 1, LAST]


@needs_numpy
def test_spaces_beyond_the_peel_limit_are_refused():
    with pytest.raises(sweeps.SweepUnsupported):
        sweeps.reverse_csr(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            sweeps.MAX_PEEL_STATES + 1,
        )
    # 2**16 * (2**15 + 1) states: the plan refuses before any sweep, so
    # the kernel routes the instance to the scalar engines.
    bump = Action(
        "bump",
        Predicate(lambda s: s["b"] < 1 << 15, name="b < 2**15", support=("b",)),
        Assignment({"b": lambda s: s["b"] + 1}),
        reads=("b",),
        process="p",
    )
    program = Program(
        "beyond-peel-limit",
        [
            Variable("a", IntegerRangeDomain(0, (1 << 16) - 1), process="p"),
            Variable("b", IntegerRangeDomain(0, 1 << 15), process="p"),
        ],
        [bump],
    )
    kernel = compile_program(program)
    assert kernel.codec.size > sweeps.MAX_PEEL_STATES
    invariant = Predicate(lambda s: s["b"] == 0, name="b == 0", support=("b",))
    with pytest.raises(sweeps.SweepUnsupported):
        sweeps.SweepPlan(kernel, invariant, None)


# ----------------------------------------------------------------------
# Differential: every full-space route, equal reports
# ----------------------------------------------------------------------


def _scalar_report(program, invariant, fault_span, *, fairness="weak"):
    """The scalar route's report over the full space, called directly."""
    return _scalar_route(
        compile_program(program), invariant, fault_span, None, fairness=fairness
    )


def _routes(program, invariant, fault_span, fairness):
    """The report of every full-space route, keyed by route."""
    reports = {
        "scalar": _scalar_report(
            program, invariant, fault_span, fairness=fairness
        )
    }
    for route, options in (
        ("vectorized", {}),
        ("shards=3", {"shards": 3}),
        ("memory_budget=1", {"memory_budget": 1}),
    ):
        reports[route] = check_tolerance_packed(
            program, invariant, fault_span, fairness=fairness, **options
        )
    return reports


def _assert_routes_agree(reports):
    scalar = reports["scalar"]
    for route, report in reports.items():
        assert report == scalar, route


@pytest.mark.parametrize("nodes,k", [(7, 5), (7, 4), (6, 4), (5, 3)])
@pytest.mark.parametrize("fairness", ["weak", "none"])
def test_failing_rings_agree_on_every_route(nodes, k, fairness):
    program, invariant = build_dijkstra_ring(nodes, k)
    reports = _routes(program, invariant, TRUE, fairness)
    _assert_routes_agree(reports)
    counterexample = reports["scalar"].convergence.counterexample
    assert counterexample is not None and counterexample.kind == "cycle"


def _table_action(name, table) -> Action:
    return Action(
        name,
        Predicate(
            lambda s: s["x"] in table,
            name=f"x in {sorted(table)}",
            support=("x",),
        ),
        Assignment({"x": lambda s: table[s["x"]]}),
        reads=("x",),
        process="p",
    )


def _peel_shapes() -> tuple[Program, Predicate]:
    """A bad cycle 3 <-> 4 with every peel shape around it.

    - 4 -leak-> 5 -> 6 -> 0: a peelable tail off the cycle;
    - 1 -> 2 -> 3: an unpeelable chain leading into the cycle;
    - 8 -> 7 -> 9 -> 3: a peeled branch that reaches the cycle only
      through the good state 9 (so ``S`` is not closed either).

    Good states are 0 and 9. Under weak fairness the cycle is a trap:
    ``spin`` is enabled throughout it and has internal transitions.
    """
    step = _table_action(
        "step", {1: 2, 2: 3, 5: 6, 6: 0, 7: 9, 8: 7, 9: 3}
    )
    spin = _table_action("spin", {3: 4, 4: 3})
    leak = _table_action("leak", {4: 5})
    program = Program(
        "peel-shapes",
        [Variable("x", IntegerRangeDomain(0, 9), process="p")],
        [step, spin, leak],
    )
    invariant = Predicate(
        lambda s: s["x"] in (0, 9), name="x in {0, 9}", support=("x",)
    )
    return program, invariant


@needs_numpy
def test_peel_shapes_residue():
    # The transition graph of ``_peel_shapes``, in action order.
    bad = np.ones(10, dtype=bool)
    bad[[0, 9]] = False
    rows = {1: [2], 2: [3], 3: [4], 4: [3, 5], 5: [6], 6: [0], 7: [9], 8: [7], 9: [3]}
    offsets = np.zeros(11, dtype=np.int32)
    np.cumsum([len(rows.get(v, [])) for v in range(10)], out=offsets[1:])
    targets = np.asarray(
        [t for v in range(10) for t in rows.get(v, [])], dtype=np.int16
    )
    # Only the chain into the cycle and the cycle itself stay.
    assert sweeps.bad_region_acyclic(bad, offsets, targets).residue.tolist() == [
        1, 2, 3, 4,
    ]


@pytest.mark.parametrize("fairness", ["weak", "none"])
def test_peel_shapes_agree_on_every_route(fairness):
    program, invariant = _peel_shapes()
    reports = _routes(program, invariant, TRUE, fairness)
    reports["dict"] = check_tolerance(
        program, invariant, TRUE, fairness=fairness, engine="dict"
    )
    _assert_routes_agree(reports)
    convergence = reports["scalar"].convergence
    assert not reports["scalar"].s_closure.ok
    assert convergence.bad_states == 8
    assert convergence.counterexample.kind == "cycle"
    assert set(convergence.counterexample.states) == {
        State({"x": 3}),
        State({"x": 4}),
    }
