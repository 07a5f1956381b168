"""Atomicity refinement by neighbor caching.

Section 8 of the paper: "one of the closure actions in the stabilizing
diffusing computation involves accessing the state of a node and all its
children nodes ... This action has high atomicity and may therefore be
unsuitable for a distributed implementation" — and the paper defers a
convergence-preserving refinement to a companion paper.

This module implements the classical *caching* refinement and exposes it
to the library's verification tools, so the convergence-preservation
question the paper raises can be answered mechanically per protocol:

- for every process ``p`` and every foreign variable ``v`` that ``p``'s
  actions read, introduce a cache variable ``p.cache(v)`` (same domain,
  owned by ``p``);
- add a low-atomicity *copy action* per (process, foreign variable):
  ``p.cache(v) != v  ->  p.cache(v) := v`` — it reads exactly one remote
  variable and writes exactly one local one;
- rewrite ``p``'s original actions to read the caches instead of the
  foreign variables (their write sets are unchanged).

Every refined action reads at most one non-local variable, the usual
read/write-atomicity model of distributed shared memory.

Whether the refinement preserves convergence is *not* claimed here —
that is precisely the nontrivial question. The refined program is a
plain :class:`~repro.core.program.Program`, so
:func:`repro.verify` decides it exhaustively on
small instances, and the E11 benchmark records the answer per protocol
and fairness mode (notably: refined programs generally need weak
fairness, because an unfair daemon can starve the copy actions forever).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Hashable

from repro.core.actions import Action, Assignment
from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.state import State
from repro.core.variables import Variable

__all__ = ["cache_var", "refine_with_caches", "cache_coherence"]


def cache_var(process: Hashable, variable: str) -> str:
    """The cache of ``variable`` held at ``process``."""
    return f"cache.{process}.{variable}"


class _ViewState(Mapping[str, Any]):
    """A read view of a state with some variable names redirected.

    Guards and right-hand sides of the original actions evaluate against
    this view, so reads of foreign variables transparently hit the
    process's caches instead.
    """

    __slots__ = ("_state", "_redirect")

    def __init__(self, state: State, redirect: Mapping[str, str]) -> None:
        self._state = state
        self._redirect = redirect

    def __getitem__(self, name: str) -> Any:
        return self._state[self._redirect.get(name, name)]

    def __iter__(self):
        return iter(self._state)

    def __len__(self) -> int:
        return len(self._state)


def refine_with_caches(
    program: Program,
    *,
    max_remote_processes: int = 0,
    name: str | None = None,
) -> Program:
    """The caching refinement of ``program``.

    Every variable must have an owning process (locality is otherwise
    undefined). Actions whose reads are already local are kept verbatim.

    Args:
        program: The high-atomicity program.
        max_remote_processes: Actions reading variables of at most this
            many remote processes are considered low-atomicity already
            and kept verbatim. ``0`` refines everything that touches any
            remote variable; ``1`` refines only actions that read *two or
            more* neighbors in one step — the paper's Section 8 notion of
            "high atomicity" (its example is the reflect action, which
            reads all children; the propagate action reads one parent and
            is fine).
        name: Optional name for the refined program.

    Returns:
        A new program over the original variables plus the caches, whose
        refined actions read only local variables.
    """
    owner = {}
    for variable in program.variables.values():
        if variable.process is None:
            raise ValueError(
                f"variable {variable.name!r} has no owning process; the "
                "caching refinement needs per-process locality"
            )
        owner[variable.name] = variable.process

    def foreign_reads(action: Action) -> set[str]:
        reads = {read for read in action.reads if owner[read] != action.process}
        remote_processes = {owner[read] for read in reads}
        if len(remote_processes) <= max_remote_processes:
            return set()
        return reads

    # Which (process, foreign variable) caches are needed?
    needed: dict[Hashable, set[str]] = {}
    for action in program.actions:
        if action.process is None:
            raise ValueError(
                f"action {action.name!r} has no owning process"
            )
        foreign = foreign_reads(action)
        if foreign:
            needed.setdefault(action.process, set()).update(foreign)

    variables: list[Variable] = list(program.variables.values())
    copy_actions: list[Action] = []
    for process in sorted(needed, key=str):
        for foreign in sorted(needed[process]):
            cname = cache_var(process, foreign)
            variables.append(
                Variable(cname, program.variables[foreign].domain, process=process)
            )
            copy_actions.append(
                Action(
                    f"copy.{process}.{foreign}",
                    Predicate(
                        lambda s, cname=cname, foreign=foreign: s[cname] != s[foreign],
                        name=f"{cname} != {foreign}",
                        support=(cname, foreign),
                    ),
                    Assignment({cname: lambda s, foreign=foreign: s[foreign]}),
                    reads=(cname, foreign),
                    process=process,
                )
            )

    refined_actions: list[Action] = []
    for action in program.actions:
        foreign = foreign_reads(action)
        if not foreign:
            refined_actions.append(action)
            continue
        redirect = {v: cache_var(action.process, v) for v in sorted(foreign)}
        original_guard = action.guard
        original_effect = action.effect

        def guard_fn(s: State, g=original_guard, redirect=redirect) -> bool:
            return g(_ViewState(s, redirect))  # type: ignore[arg-type]

        new_reads = (action.reads - foreign) | set(redirect.values())
        guard = Predicate(
            guard_fn,
            name=f"{original_guard.name} [cached]",
            support=new_reads if original_guard.support is not None else None,
        )
        effect = _rewritten_assignment(original_effect, redirect)
        refined_actions.append(
            Action(
                action.name,
                guard,
                effect,
                reads=new_reads,
                process=action.process,
            )
        )

    return Program(
        name if name is not None else f"{program.name}+caches",
        variables,
        refined_actions + copy_actions,
    )


def _rewritten_assignment(effect: Assignment, redirect: Mapping[str, str]) -> Assignment:
    """An assignment whose right-hand sides read through the redirect view."""
    updates: dict[str, Any] = {}
    for target in effect.writes:
        updates[target] = _make_rhs(effect, target, redirect)
    return Assignment(updates)


def _make_rhs(effect: Assignment, target: str, redirect: Mapping[str, str]):
    def rhs(s: State) -> Any:
        view = _ViewState(s, redirect)
        # Evaluate the whole original assignment against the view, then
        # project the one target. Assignment semantics are simultaneous,
        # so per-target evaluation against the same view is faithful.
        evaluated = effect.evaluate(view)  # type: ignore[arg-type]
        return evaluated[target]

    return rhs


def cache_coherence(program: Program, refined: Program) -> Predicate:
    """The predicate "every cache equals its source variable".

    Useful as an intermediate predicate in convergence stairs over the
    refined program, and as the refinement relation between refined and
    original states.
    """
    pairs = []
    for name in refined.variables:
        if name.startswith("cache."):
            _, process, source = name.split(".", 2)
            pairs.append((name, source))

    return Predicate(
        lambda s: all(s[cache] == s[source] for cache, source in pairs),
        name="caches coherent",
        support=[n for pair in pairs for n in pair],
    )
