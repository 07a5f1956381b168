"""E1 — the Section 4/6 x/y/z example: three designs, three outcomes.

Paper claims reproduced:
- Section 4: fixing ``x = y`` by changing y and ``x > z`` by changing z
  yields an out-tree constraint graph (Theorem 1 applies).
- Section 6, second example: fixing both constraints by changing x, with
  the ``x = y`` repair decreasing x, admits a linear order (Theorem 2).
- Section 6, first example: with the ``x = y`` repair increasing x,
  "executing one can violate the constraint of the other ... and so on"
  — no linear order exists and the program oscillates forever.

The table reports, per design: graph class, certificate verdict, model-
checked convergence under weak and no fairness, and the worst-case steps
to converge (unbounded = an oscillation exists).
"""

import math

from repro.analysis import render_table
from repro.protocols.three_constraint import (
    build_ordered_design,
    build_oscillating_design,
    build_out_tree_design,
    window_states,
    xyz_invariant,
)
from repro.quantitative import worst_case_steps
from repro.verification import check_convergence, explore

BOUND = 3


def analyze(build):
    design = build(BOUND)
    window = window_states(BOUND)
    certificate = design.validate(window)
    ts = explore(design.program, window)
    invariant = xyz_invariant()
    weak = check_convergence(design.program, ts.states, invariant,
                             fairness="weak", system=ts)
    unfair = check_convergence(design.program, ts.states, invariant,
                               fairness="none", system=ts)
    worst = max(
        worst_case_steps(design.program, ts.states, invariant, system=ts),
        default=0.0,
    )
    return design, certificate, weak, unfair, worst


def test_e1_three_designs(benchmark, report):
    designs = [build_out_tree_design, build_ordered_design, build_oscillating_design]

    # Benchmark the full analysis of the ordered (Theorem 2) design.
    benchmark(lambda: analyze(build_ordered_design))

    rows = []
    for build in designs:
        design, certificate, weak, unfair, worst = analyze(build)
        rows.append(
            [
                design.name,
                design.graph.classification(),
                certificate.selected.theorem.split(" (")[0],
                certificate.ok,
                weak.ok,
                unfair.ok,
                "unbounded" if math.isinf(worst) else int(worst),
            ]
        )
    table = render_table(
        ["design", "graph", "theorem tried", "certified", "converges (weak)",
         "converges (unfair)", "worst-case steps"],
        rows,
        title=f"E1: x/y/z designs over window [-{BOUND}, {BOUND}]^3",
    )
    report("e1_three_constraint", table)

    # The paper's claims, as assertions.
    assert rows[0][3] and rows[1][3] and not rows[2][3]
    assert rows[0][4] and rows[1][4] and not rows[2][4]
    assert rows[2][6] == "unbounded"
