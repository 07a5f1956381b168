"""Unit tests for convergence checking with and without fairness.

The fairness-sensitive cases are the heart of this module: a cycle among
bad states kills convergence under an arbitrary daemon, but under weak
fairness only cycles that a fair computation can actually follow count —
an SCC from which some always-enabled action forcibly exits is harmless.
"""

import math

import pytest

from repro.core import (
    Action,
    Assignment,
    IntegerRangeDomain,
    Predicate,
    Program,
    State,
    ValidationError,
    Variable,
)
from repro.quantitative import worst_case_steps
from repro.verification import check_convergence

TARGET = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))


def program_with(actions) -> Program:
    return Program("p", [Variable("n", IntegerRangeDomain(0, 5))], actions)


def dec() -> Action:
    return Action(
        "dec",
        Predicate(lambda s: s["n"] > 0, name="n > 0", support=("n",)),
        Assignment({"n": lambda s: s["n"] - 1}),
        reads=("n",),
    )


def spin() -> Action:
    """A self-loop available at every bad state."""
    return Action(
        "spin",
        Predicate(lambda s: s["n"] > 0, name="n > 0", support=("n",)),
        Assignment({"n": lambda s: s["n"]}),
        reads=("n",),
    )


def all_states():
    return [State({"n": v}) for v in range(6)]


class TestUnfairConvergence:
    def test_countdown_converges(self):
        result = check_convergence(
            program_with([dec()]), all_states(), TARGET, fairness="none"
        )
        assert result.ok
        assert result.bad_states == 5

    def test_self_loop_breaks_unfair_convergence(self):
        result = check_convergence(
            program_with([dec(), spin()]), all_states(), TARGET, fairness="none"
        )
        assert not result.ok
        assert result.counterexample.kind == "cycle"
        assert len(result.counterexample.states) == 1

    def test_deadlock_outside_target_detected(self):
        # dec disabled at n = 1 leaves a stuck bad state.
        lame_dec = Action(
            "dec",
            Predicate(lambda s: s["n"] > 1, name="n > 1", support=("n",)),
            Assignment({"n": lambda s: s["n"] - 1}),
            reads=("n",),
        )
        result = check_convergence(
            program_with([lame_dec]), all_states(), TARGET, fairness="none"
        )
        assert not result.ok
        assert result.counterexample.kind == "deadlock"
        assert result.counterexample.states[0] == State({"n": 1})


class TestWeakFairConvergence:
    def test_spin_plus_dec_converges_weakly_fair(self):
        # The spin cycle is unfair: dec is enabled at every state of the
        # cycle but all its transitions leave it, so weak fairness forces
        # the exit.
        result = check_convergence(
            program_with([dec(), spin()]), all_states(), TARGET, fairness="weak"
        )
        assert result.ok

    def test_fair_oscillation_detected(self):
        # Two actions alternating between 1 and 2: each is executed inside
        # the cycle, so the cycle is fair and convergence fails.
        up = Action(
            "up",
            Predicate(lambda s: s["n"] == 1, name="n = 1", support=("n",)),
            Assignment({"n": 2}),
            reads=("n",),
        )
        down = Action(
            "down",
            Predicate(lambda s: s["n"] == 2, name="n = 2", support=("n",)),
            Assignment({"n": 1}),
            reads=("n",),
        )
        escape = Action(
            "escape",
            Predicate(lambda s: s["n"] >= 3, name="n >= 3", support=("n",)),
            Assignment({"n": 0}),
            reads=("n",),
        )
        result = check_convergence(
            program_with([up, down, escape]), all_states(), TARGET, fairness="weak"
        )
        assert not result.ok
        cycle_values = {s["n"] for s in result.counterexample.states}
        assert cycle_values == {1, 2}

    def test_oscillation_with_always_enabled_exit_converges(self):
        # Same oscillation, but an exit action enabled at BOTH cycle
        # states: weak fairness must eventually take it.
        up = Action(
            "up",
            Predicate(lambda s: s["n"] == 1, name="n = 1", support=("n",)),
            Assignment({"n": 2}),
            reads=("n",),
        )
        down = Action(
            "down",
            Predicate(lambda s: s["n"] == 2, name="n = 2", support=("n",)),
            Assignment({"n": 1}),
            reads=("n",),
        )
        exit_both = Action(
            "exit",
            Predicate(lambda s: s["n"] in (1, 2), name="n in {1,2}", support=("n",)),
            Assignment({"n": 0}),
            reads=("n",),
        )
        drain = Action(
            "drain",
            Predicate(lambda s: s["n"] >= 3, name="n >= 3", support=("n",)),
            Assignment({"n": 0}),
            reads=("n",),
        )
        result = check_convergence(
            program_with([up, down, exit_both, drain]),
            all_states(),
            TARGET,
            fairness="weak",
        )
        assert result.ok

    def test_weak_fairness_deadlock_still_fails(self):
        result = check_convergence(
            program_with([]), all_states(), TARGET, fairness="weak"
        )
        assert not result.ok
        assert result.counterexample.kind == "deadlock"


def _assert_followable_cycle(program, states):
    """The listed states must form an actual cycle of the program: each
    state steps to the next by some enabled action, and the last steps
    back to the first."""
    assert states, "a cycle counterexample cannot be empty"
    for before, after in zip(states, states[1:] + (states[0],)):
        stepped = any(
            action.enabled(before) and action.effect.apply(before) == after
            for action in program.actions
        )
        assert stepped, f"no action steps {dict(before)} -> {dict(after)}"


class TestCycleCounterexampleShape:
    """``describe()`` claims a cycle, so the states must actually be one."""

    def _figure_eight_actions(self):
        # Bad SCC {1, 2, 3} shaped like a figure eight: 1<->2 and 1<->3.
        # The component is strongly connected but is NOT itself a cycle
        # (no single cycle visits all three states), so emitting the
        # whole SCC would not be followable.
        def hop(name, source, target):
            return Action(
                name,
                Predicate(
                    lambda s, source=source: s["n"] == source,
                    name=f"n = {source}",
                    support=("n",),
                ),
                Assignment({"n": target}),
                reads=("n",),
            )

        return [hop("a12", 1, 2), hop("a21", 2, 1), hop("a13", 1, 3), hop("a31", 3, 1)]

    @pytest.mark.parametrize("fairness", ["weak", "none"])
    def test_figure_eight_emits_followable_cycle(self, fairness):
        program = program_with(self._figure_eight_actions())
        states = [State({"n": v}) for v in (0, 1, 2, 3)]
        result = check_convergence(program, states, TARGET, fairness=fairness)
        assert not result.ok
        ce = result.counterexample
        assert ce.kind == "cycle"
        values = {s["n"] for s in ce.states}
        assert values <= {1, 2, 3}
        _assert_followable_cycle(program, ce.states)

    def test_always_enabled_trap_emits_followable_cycle(self):
        # up/down oscillation plus a self-loop everywhere: "loop" is
        # always enabled and internal, so the trap is fair; the emitted
        # states must still chain into a cycle.
        up = Action(
            "up",
            Predicate(lambda s: s["n"] == 1, name="n = 1", support=("n",)),
            Assignment({"n": 2}),
            reads=("n",),
        )
        down = Action(
            "down",
            Predicate(lambda s: s["n"] == 2, name="n = 2", support=("n",)),
            Assignment({"n": 1}),
            reads=("n",),
        )
        loop = Action(
            "loop",
            Predicate(lambda s: s["n"] in (1, 2), name="n in {1,2}", support=("n",)),
            Assignment({"n": lambda s: s["n"]}),
            reads=("n",),
        )
        program = program_with([up, down, loop])
        states = [State({"n": v}) for v in (0, 1, 2)]
        result = check_convergence(program, states, TARGET, fairness="weak")
        assert not result.ok
        assert result.counterexample.kind == "cycle"
        _assert_followable_cycle(program, result.counterexample.states)

    def test_both_engines_emit_the_same_followable_cycle(self):
        from repro.core import IntegerRangeDomain, Program, Variable
        from repro.core.predicates import TRUE
        from repro.verification.checker import _check_tolerance

        # Restrict the domain so the full space is exactly the span;
        # n = 0 satisfies the invariant, so the figure eight is the
        # whole bad region and the counterexample must be a cycle.
        program = Program(
            "figure-eight",
            [Variable("n", IntegerRangeDomain(0, 3))],
            self._figure_eight_actions(),
        )
        reports = [
            _check_tolerance(program, TARGET, TRUE, fairness="weak", engine=engine)
            for engine in ("dict", "packed")
        ]
        assert reports[0] == reports[1]
        ce = reports[0].convergence.counterexample
        assert ce is not None and ce.kind == "cycle"
        _assert_followable_cycle(program, ce.states)


class TestValidation:
    def test_unknown_fairness_rejected(self):
        with pytest.raises(ValidationError, match="fairness"):
            check_convergence(
                program_with([dec()]), all_states(), TARGET, fairness="strong"
            )

    def test_non_closed_span_rejected(self):
        result_states = [State({"n": v}) for v in (0, 2, 3)]  # 1 missing
        with pytest.raises(ValidationError, match="not closed"):
            check_convergence(
                program_with([dec()]), result_states, TARGET, fairness="none"
            )


def worst_case(program, states):
    return max(worst_case_steps(program, states, TARGET), default=0.0)


class TestWorstCase:
    def test_countdown_worst_case(self):
        assert worst_case(program_with([dec()]), all_states()) == 5

    def test_cycle_makes_worst_case_unbounded(self):
        steps = worst_case(program_with([dec(), spin()]), all_states())
        assert steps == math.inf

    def test_bad_deadlock_is_unbounded(self):
        # dec is disabled at n = 1, so every start above 0 ends stuck
        # outside the target: no step bound exists.
        lame_dec = Action(
            "dec",
            Predicate(lambda s: s["n"] > 1, name="n > 1", support=("n",)),
            Assignment({"n": lambda s: s["n"] - 1}),
            reads=("n",),
        )
        program = program_with([lame_dec])
        result = check_convergence(program, all_states(), TARGET, fairness="none")
        assert not result.ok and result.counterexample.kind == "deadlock"
        assert worst_case(program, all_states()) == math.inf

    def test_already_converged_is_zero(self):
        assert worst_case(program_with([dec()]), [State({"n": 0})]) == 0

    def test_branching_takes_longest_path(self):
        # From n, either jump straight to 0 or step down by 1: the
        # adversary can force n steps.
        jump = Action(
            "jump",
            Predicate(lambda s: s["n"] > 0, name="n > 0", support=("n",)),
            Assignment({"n": 0}),
            reads=("n",),
        )
        assert worst_case(program_with([dec(), jump]), all_states()) == 5
