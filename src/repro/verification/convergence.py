"""Convergence checking.

Convergence (Section 3): every computation of the program that starts at
any state where ``T`` holds reaches a state where ``S`` holds. On a finite
instance this is decidable from the transition graph of the ``T``-states:

- A **deadlock** outside ``S`` (a ``T ∧ ¬S`` state with no enabled action)
  violates convergence — the maximal finite computation ends outside ``S``.
- An infinite computation avoiding ``S`` exists iff the subgraph induced
  by the ``¬S`` states contains a cycle that the daemon can follow:

  * Under **no fairness** ("none"), any cycle among ``¬S`` states is a
    violation: the daemon may loop on it forever.
  * Under **weak fairness** ("weak" — the paper's computation model),
    a cycle is followable iff it lies in a strongly connected component
    ``C`` of the ``¬S`` subgraph such that every action enabled at *all*
    states of ``C`` has some transition inside ``C``. If instead some
    action is enabled throughout ``C`` but all its transitions leave
    ``C``, weak fairness forces the computation out of ``C`` (and out of
    any subset of ``C``, since the action is enabled there too); such a
    component cannot trap a fair computation. Conversely, when every
    always-enabled action has an internal transition, a walk that
    traverses all of ``C``'s internal transitions infinitely often is
    fair and never reaches ``S``. The SCC test is therefore exact.

The checker returns concrete counterexamples (a deadlock state, or the
states of a followable cycle) so a failed design can be debugged.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.errors import ValidationError
from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.state import State
from repro.verification.explorer import TransitionSystem, build_transition_system

__all__ = [
    "ConvergenceCounterexample",
    "ConvergenceResult",
    "check_convergence",
]

FAIRNESS_MODES = ("none", "weak")


@dataclass(frozen=True)
class ConvergenceCounterexample:
    """Why convergence fails: a deadlock state or a followable cycle."""

    kind: str  # "deadlock" or "cycle"
    states: tuple[State, ...]

    def describe(self) -> str:
        if self.kind == "deadlock":
            return f"deadlock outside the target at {self.states[0]!r}"
        lines = [f"followable cycle of {len(self.states)} states outside the target:"]
        lines.extend(f"  {state!r}" for state in self.states[:10])
        if len(self.states) > 10:
            lines.append(f"  ... and {len(self.states) - 10} more")
        return "\n".join(lines)


@dataclass(frozen=True)
class ConvergenceResult:
    """Outcome of a convergence check."""

    ok: bool
    fairness: str
    span_states: int
    bad_states: int
    counterexample: ConvergenceCounterexample | None = None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        verdict = "converges" if self.ok else "does NOT converge"
        base = (
            f"{verdict} under {self.fairness!r} fairness "
            f"({self.span_states} span states, {self.bad_states} outside target)"
        )
        if self.counterexample is None:
            return base
        return f"{base}\n{self.counterexample.describe()}"


def _strongly_connected_components(
    node_ids: Sequence[int],
    successors: dict[int, list[int]],
) -> list[list[int]]:
    """Iterative Tarjan SCC over the given nodes."""
    index_counter = 0
    stack: list[int] = []
    on_stack: set[int] = set()
    indices: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    components: list[list[int]] = []

    for root in node_ids:
        if root in indices:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, child_cursor = work.pop()
            if child_cursor == 0:
                indices[node] = index_counter
                lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            recursed = False
            children = successors.get(node, [])
            for position in range(child_cursor, len(children)):
                child = children[position]
                if child not in indices:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    recursed = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], indices[child])
            if recursed:
                continue
            if lowlink[node] == indices[node]:
                component: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def _internal_successors(
    ts: TransitionSystem,
    bad: list[int],
    bad_set: set[int],
) -> dict[int, list[int]]:
    """Per-bad-state successors staying inside the bad region.

    Reads the packed engine's CSR arrays directly when the system carries
    them, one row slice per state, skipping ``ts.edges``'s per-edge tuple
    materialization.
    """
    offsets = getattr(ts, "offsets", None)
    if offsets is None:
        return {
            position: [
                target_index
                for _, target_index in ts.edges[position]
                if target_index in bad_set
            ]
            for position in bad
        }
    targets = ts.targets
    return {
        position: [
            target_index
            for target_index in targets[
                offsets[position] : offsets[position + 1]
            ].tolist()
            if target_index in bad_set
        ]
        for position in bad
    }


def _component_has_internal_edge(
    component: list[int],
    successors: dict[int, list[int]],
) -> bool:
    members = set(component)
    if len(component) > 1:
        return True
    node = component[0]
    return node in successors and node in successors[node] and node in members


def _find_cycle_in_component(
    component: list[int],
    successors: dict[int, list[int]],
) -> list[int]:
    """A concrete cycle inside a nontrivial SCC, as a list of node ids."""
    members = set(component)
    start = component[0]
    # DFS until we revisit a node on the current path.
    path: list[int] = [start]
    position_on_path = {start: 0}
    while True:
        node = path[-1]
        advanced = False
        for child in successors.get(node, []):
            if child not in members:
                continue
            if child in position_on_path:
                return path[position_on_path[child] :]
            path.append(child)
            position_on_path[child] = len(path) - 1
            advanced = True
            break
        if not advanced:
            # Within an SCC every node has an internal successor, so this
            # is unreachable; guard against malformed input anyway.
            raise ValidationError("component is not strongly connected")


def _require_fairness_mode(fairness: str) -> None:
    if fairness not in FAIRNESS_MODES:
        raise ValidationError(
            f"unknown fairness mode {fairness!r}; expected one of {FAIRNESS_MODES}"
        )


def check_convergence(
    program: Program,
    span_states: Iterable[State],
    target: Predicate,
    *,
    fairness: str = "weak",
    system: TransitionSystem | None = None,
) -> ConvergenceResult:
    """Decide whether every computation from ``span_states`` reaches ``target``.

    Args:
        program: The program under test.
        span_states: The extension of the fault-span ``T`` on this finite
            instance. Must be closed under the program (checked; a
            transition escaping the set raises :class:`ValidationError`
            since convergence is only defined relative to a closed span).
        target: The invariant ``S``.
        fairness: ``"weak"`` (the paper's computation model) or ``"none"``
            (arbitrary daemon; the Section 8 remark).
        system: Optionally a prebuilt transition system over exactly the
            span states, to share work across checks.
    """
    _require_fairness_mode(fairness)
    ts = system if system is not None else build_transition_system(program, span_states)
    if ts.escapes:
        index, action_name, successor = ts.escapes[0]
        raise ValidationError(
            "span is not closed under the program: "
            f"{ts.states[index]!r} --{action_name}--> {successor!r} leaves the span"
        )

    # satisfying() is memoized on the system, so the tolerance checker's
    # earlier invariant evaluations are reused here (the packed engine
    # pre-populates the memo from its membership masks).
    good = set(ts.satisfying(target))
    bad = [position for position in range(len(ts)) if position not in good]

    offsets = getattr(ts, "offsets", None)
    for position in bad:
        if (
            offsets[position] == offsets[position + 1]
            if offsets is not None
            else not ts.edges[position]
        ):
            return ConvergenceResult(
                ok=False,
                fairness=fairness,
                span_states=len(ts),
                bad_states=len(bad),
                counterexample=ConvergenceCounterexample(
                    kind="deadlock", states=(ts.states[position],)
                ),
            )

    return _cycle_verdict(ts, bad, fairness=fairness, bad_states=len(bad))


def _cycle_verdict(
    ts: TransitionSystem,
    region: list[int],
    *,
    fairness: str,
    bad_states: int,
) -> ConvergenceResult:
    """The SCC-and-fairness half of :func:`check_convergence`.

    ``region`` lists deadlock-free bad positions in ascending order. It
    may leave out bad states that can reach no bad cycle — the vectorized
    kernel passes only its Kahn peel's residue — because such a state's
    DFS reaches only other left-out states and each is a trivial SCC:
    Tarjan then emits the same non-trivial components, in the same order
    and with their members in the same order, so the verdict and the
    counterexample are those of the whole bad region. ``bad_states`` is
    the whole region's count, reported as is.
    """
    _require_fairness_mode(fairness)
    internal = _internal_successors(ts, region, set(region))
    components = _strongly_connected_components(region, internal)
    for component in components:
        if not _component_has_internal_edge(component, internal):
            continue
        if fairness == "none":
            cycle = _find_cycle_in_component(component, internal)
            return ConvergenceResult(
                ok=False,
                fairness=fairness,
                span_states=len(ts),
                bad_states=bad_states,
                counterexample=ConvergenceCounterexample(
                    kind="cycle",
                    states=tuple(ts.states[node] for node in cycle),
                ),
            )
        members = set(component)
        # Only the component's rows are read, not the whole edge list.
        edges = {node: ts.successors(node) for node in component}
        enabled_sets = [{name for name, _ in edges[node]} for node in component]
        always_enabled = set.intersection(*enabled_sets)
        internal_actions = {
            name
            for node in component
            for name, target_index in edges[node]
            if target_index in members
        }
        if always_enabled <= internal_actions:
            # Emit an actual followable cycle, not the whole component:
            # ``describe()`` claims a cycle, so the listed states must
            # form one. Prefer a cycle along always-enabled actions (a
            # weakly-fair daemon can repeat it verbatim); when those
            # edges do not close a cycle on their own, any internal
            # cycle of the component still witnesses the trap.
            cycle = None
            if always_enabled:
                restricted = {
                    node: [
                        target_index
                        for name, target_index in edges[node]
                        if target_index in members and name in always_enabled
                    ]
                    for node in component
                }
                if all(restricted[node] for node in component):
                    try:
                        cycle = _find_cycle_in_component(component, restricted)
                    except ValidationError:
                        cycle = None
            if cycle is None:
                cycle = _find_cycle_in_component(component, internal)
            return ConvergenceResult(
                ok=False,
                fairness=fairness,
                span_states=len(ts),
                bad_states=bad_states,
                counterexample=ConvergenceCounterexample(
                    kind="cycle",
                    states=tuple(ts.states[node] for node in cycle),
                ),
            )
    return ConvergenceResult(
        ok=True,
        fairness=fairness,
        span_states=len(ts),
        bad_states=bad_states,
    )

