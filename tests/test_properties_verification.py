"""Property-based cross-validation of the verification stack.

These tests generate *random small programs* and check meta-level laws
that must relate the independent analyses:

- fairness monotonicity: convergence under no fairness implies
  convergence under weak fairness (weak fairness only removes schedules);
- worst-case duality: a finite worst-case step bound exists iff the
  program converges under an arbitrary daemon;
- Markov consistency: unfair convergence forces finite expected hitting
  times, and infinite expected time from some state forbids unfair
  convergence;
- explorer soundness: every reachable-set is closed and reproduces the
  full-space edges on its states.

Any violation would expose a bug in one of the three independently
implemented analyses, so these are the library's strongest self-checks.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Action,
    Assignment,
    IntegerRangeDomain,
    Predicate,
    Program,
    Variable,
)
from repro.quantitative import hitting_times, worst_case_steps
from repro.verification import (
    build_transition_system,
    check_convergence,
    explore,
)

HI = 2  # each variable ranges over 0..2
VARIABLES = ("u", "v")


@st.composite
def random_programs(draw):
    """A random program over two small variables plus a random target."""
    action_count = draw(st.integers(min_value=1, max_value=4))
    actions = []
    for index in range(action_count):
        guard_var = draw(st.sampled_from(VARIABLES))
        guard_op = draw(st.sampled_from(("eq", "ne", "lt", "ge")))
        guard_val = draw(st.integers(min_value=0, max_value=HI))
        target_var = draw(st.sampled_from(VARIABLES))
        rhs_kind = draw(st.sampled_from(("const", "copy", "inc")))
        rhs_val = draw(st.integers(min_value=0, max_value=HI))
        other = "u" if target_var == "v" else "v"

        def guard_fn(s, gv=guard_var, op=guard_op, val=guard_val):
            current = s[gv]
            if op == "eq":
                return current == val
            if op == "ne":
                return current != val
            if op == "lt":
                return current < val
            return current >= val

        if rhs_kind == "const":
            rhs = rhs_val
        elif rhs_kind == "copy":
            rhs = (lambda s, o=other: s[o])
        else:
            rhs = (lambda s, tv=target_var: (s[tv] + 1) % (HI + 1))

        actions.append(
            Action(
                f"a{index}",
                Predicate(
                    guard_fn,
                    name=f"{guard_var} {guard_op} {guard_val}",
                    support=(guard_var,),
                ),
                Assignment({target_var: rhs}),
                reads=VARIABLES,
                process=f"p{index}",
            )
        )
    program = Program(
        "random",
        [Variable(name, IntegerRangeDomain(0, HI)) for name in VARIABLES],
        actions,
    )
    target_var = draw(st.sampled_from(VARIABLES))
    target_val = draw(st.integers(min_value=0, max_value=HI))
    target = Predicate(
        lambda s, tv=target_var, val=target_val: s[tv] == val,
        name=f"{target_var} = {target_val}",
        support=(target_var,),
    )
    return program, target


@settings(max_examples=120, deadline=None)
@given(random_programs())
def test_fairness_monotonicity(case):
    program, target = case
    states = list(program.state_space())
    ts = build_transition_system(program, states)
    unfair = check_convergence(program, states, target, fairness="none", system=ts)
    weak = check_convergence(program, states, target, fairness="weak", system=ts)
    if unfair.ok:
        assert weak.ok


@settings(max_examples=120, deadline=None)
@given(random_programs())
def test_worst_case_duality(case):
    program, target = case
    states = list(program.state_space())
    ts = build_transition_system(program, states)
    unfair = check_convergence(program, states, target, fairness="none", system=ts)
    worst = max(worst_case_steps(program, states, target, system=ts), default=0.0)
    assert math.isinf(worst) == (not unfair.ok)
    if unfair.ok:
        assert worst <= len(states)


@settings(max_examples=100, deadline=None)
@given(random_programs())
def test_markov_consistency(case):
    program, target = case
    states = list(program.state_space())
    ts = build_transition_system(program, states)
    unfair = check_convergence(program, states, target, fairness="none", system=ts)
    hitting = hitting_times(program, states, target, system=ts)
    if unfair.ok:
        assert hitting.all_finite
        assert hitting.maximum <= len(states)  # acyclic: path-bounded
    if not hitting.all_finite:
        assert not unfair.ok


@settings(max_examples=80, deadline=None)
@given(random_programs(), st.integers(min_value=0, max_value=8))
def test_explorer_soundness(case, start_index):
    program, _ = case
    states = list(program.state_space())
    start = states[start_index % len(states)]
    reachable = explore(program, [start])
    full = build_transition_system(program, states)
    # Reachable sets are closed and edge-consistent with the full space.
    member = set(reachable.states)
    for index, state in enumerate(reachable.states):
        full_edges = {
            (name, full.states[dest])
            for name, dest in full.edges[full.index_of(state)]
        }
        local_edges = {
            (name, reachable.states[dest])
            for name, dest in reachable.edges[index]
        }
        assert local_edges == full_edges
        for _, successor in local_edges:
            assert successor in member


@settings(max_examples=60, deadline=None)
@given(random_programs())
def test_synchronous_orbit_well_formed(case):
    from repro.core import ValidationError
    from repro.verification import synchronous_orbit

    program, _ = case
    states = list(program.state_space())
    try:
        orbit = synchronous_orbit(program, states[0])
    except ValidationError:
        # Random programs may give two processes the same write target,
        # which the synchronous daemon legitimately rejects.
        return
    assert len(orbit.cycle) >= 1
    # The cycle really cycles: stepping from its last state leads to its
    # first (or the single state is a fixed point).
    from repro.scheduler import SynchronousDaemon

    daemon = SynchronousDaemon()
    last = orbit.cycle[-1]
    outcome = daemon.advance(program, last, 0)
    if outcome is None:
        assert len(orbit.cycle) == 1
    else:
        assert outcome[0] == orbit.cycle[0]
