"""Tests for the x/y/z running example (paper Sections 4 and 6).

The example's whole point is the contrast between three convergence
designs for the same constraint set {x != y, x <= z}: an out-tree design
(Theorem 1), an ordered same-target design (Theorem 2), and an
oscillating design that fails both the theorem conditions *and* actual
convergence.
"""

import pytest

from repro.core import State
from repro.protocols.three_constraint import (
    build_ordered_design,
    build_oscillating_design,
    build_out_tree_design,
    window_states,
    xyz_invariant,
)
from repro.quantitative import worst_case_steps
from repro.scheduler import FirstEnabledScheduler, RandomScheduler
from repro.simulation import run
from repro.verification import check_convergence, explore

WINDOW = window_states(3)
S = xyz_invariant()


class TestGraphShapes:
    def test_out_tree_shape(self):
        graph = build_out_tree_design().graph
        assert graph.classification() == "out-tree"
        edges = {(e.source.name, e.target.name) for e in graph.edges}
        assert edges == {("x", "y"), ("x", "z")}

    def test_ordered_shape(self):
        graph = build_ordered_design().graph
        assert graph.classification() == "self-looping"
        targets = {e.target.name for e in graph.edges}
        assert targets == {"x"}

    def test_oscillating_shares_the_ordered_shape(self):
        # The graphs are identical in shape — only the statements differ.
        good = build_ordered_design().graph
        bad = build_oscillating_design().graph
        assert good.classification() == bad.classification() == "self-looping"


class TestCertificates:
    def test_out_tree_validates(self):
        report = build_out_tree_design().validate(WINDOW)
        assert report.ok and "Theorem 1" in report.selected.theorem

    def test_ordered_validates(self):
        report = build_ordered_design().validate(WINDOW)
        assert report.ok and "Theorem 2" in report.selected.theorem

    def test_oscillating_rejected(self):
        report = build_oscillating_design().validate(WINDOW)
        assert not report.ok
        assert any(
            "linear order" in c.name for c in report.selected.failures()
        )


class TestModelChecking:
    @pytest.mark.parametrize(
        "build", [build_out_tree_design, build_ordered_design],
        ids=["out-tree", "ordered"],
    )
    def test_good_designs_converge_even_unfairly(self, build):
        design = build(3)
        ts = explore(design.program, WINDOW)
        result = check_convergence(
            design.program, ts.states, S, fairness="none", system=ts
        )
        assert result.ok

    def test_oscillating_design_diverges(self):
        design = build_oscillating_design(3)
        ts = explore(design.program, WINDOW)
        result = check_convergence(
            design.program, ts.states, S, fairness="weak", system=ts
        )
        assert not result.ok
        # The paper's oscillation: the two convergence actions alternate.
        cycle = result.counterexample.states
        assert len(cycle) == 2

    def test_good_designs_quiesce_quickly(self):
        # Worst case over the whole window is tiny: each action fires at
        # most a couple of times (the paper's termination argument).
        design = build_ordered_design(3)
        ts = explore(design.program, WINDOW)
        steps = max(worst_case_steps(design.program, ts.states, S, system=ts))
        assert steps <= 3


class TestConcreteOscillation:
    def test_paper_style_ping_pong(self):
        # From x = y = z the bad design bounces between fixing c1 and c2.
        design = build_oscillating_design()
        program = design.program
        initial = State({"x": 0, "y": 0, "z": 0})
        result = run(program, initial, FirstEnabledScheduler(), max_steps=50)
        assert result.steps == 50  # never quiesces
        assert not any(S(state) for state in result.computation.states())

    def test_good_design_from_same_state_quiesces(self):
        design = build_ordered_design()
        program = design.program
        initial = State({"x": 0, "y": 0, "z": 0})
        result = run(program, initial, FirstEnabledScheduler(), max_steps=50)
        assert result.terminated
        assert S(result.computation.final_state)

    def test_random_runs_establish_invariant(self):
        design = build_out_tree_design()
        program = design.program
        for seed in range(10):
            initial = program.random_state(__import__("random").Random(seed))
            result = run(
                program,
                initial,
                RandomScheduler(seed),
                max_steps=100,
                target=S,
                stop_on_target=True,
            )
            assert result.reached_target
