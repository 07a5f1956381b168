"""E10 — Theorem 2's linear-order condition separates the terminating
from the oscillating same-target designs.

Paper claim (Section 6): when two convergence actions target the same
node, "executing the convergence action of one of the constraints may
violate the other constraint, and vice versa" — unless the actions can
be linearly ordered so that each preserves the constraints of its
predecessors. The ordered decrement design terminates ("every
computation of these two convergence actions is finite"); the increment
design oscillates.

The table sweeps the window bound B and shows the dichotomy is exact and
independent of B: the order exists iff convergence holds iff the bad
subgraph is acyclic. The reported oscillation cycle is always the paper's
2-state ping-pong.
"""

import math

from repro.analysis import render_table
from repro.core import find_linear_order
from repro.protocols.three_constraint import (
    build_ordered_design,
    build_oscillating_design,
    window_states,
    xyz_invariant,
)
from repro.quantitative import worst_case_steps
from repro.verification import check_convergence, explore


def analyze(build, bound):
    design = build(bound)
    window = window_states(bound)
    order = find_linear_order(list(design.bindings), window)
    ts = explore(design.program, window)
    invariant = xyz_invariant()
    convergence = check_convergence(
        design.program, ts.states, invariant, fairness="weak", system=ts
    )
    worst = max(
        worst_case_steps(design.program, ts.states, invariant, system=ts),
        default=0.0,
    )
    cycle = (
        len(convergence.counterexample.states)
        if convergence.counterexample is not None
        and convergence.counterexample.kind == "cycle"
        else None
    )
    return design, len(ts), order, convergence.ok, worst, cycle


def test_e10_ordering_dichotomy(benchmark, report):
    benchmark(lambda: analyze(build_ordered_design, 3))

    rows = []
    for bound in (2, 3, 4, 5):
        for build, label in [
            (build_ordered_design, "ordered (x decreases)"),
            (build_oscillating_design, "oscillating (x increases)"),
        ]:
            design, reachable, order, converges, worst, cycle = analyze(build, bound)
            rows.append(
                [
                    label,
                    bound,
                    reachable,
                    order is not None,
                    " < ".join(b.constraint.name for b in order) if order else "-",
                    converges,
                    "unbounded" if math.isinf(worst) else int(worst),
                    cycle if cycle is not None else "-",
                ]
            )
    table = render_table(
        ["design", "B", "reachable states", "order exists", "order",
         "converges", "worst-case steps", "cycle length"],
        rows,
        title="E10: Theorem 2's linear-order condition vs actual convergence",
    )
    report("e10_theorem2_ordering", table)
    for row in rows:
        assert row[3] == row[5]  # order exists <=> converges
    bad = [row for row in rows if not row[5]]
    assert all(row[7] == 2 for row in bad)  # the paper's 2-state ping-pong
