"""Programs.

A program is a finite set of variables and a finite set of actions
(Section 2). :class:`Program` validates that every action reads and writes
only declared variables, and provides the operations every other subsystem
builds on: enabled-action queries, validated steps, successor expansion
for exhaustive exploration, state-space enumeration, and augmentation
(the design method of Section 3 augments a closure-only program with
convergence actions).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import Any

from repro.core.actions import Action
from repro.core.errors import DomainError, UnknownVariableError
from repro.core.state import (
    DEFAULT_MAX_STATES,
    State,
    count_states,
    enumerate_states,
    random_state,
)
from repro.core.variables import Variable

__all__ = ["Program"]


class Program:
    """A finite set of variables plus a finite set of guarded actions.

    Programs are immutable; :meth:`augmented` returns a new program with
    extra actions rather than mutating in place.
    """

    def __init__(
        self,
        name: str,
        variables: Iterable[Variable],
        actions: Iterable[Action],
    ) -> None:
        self.name = name
        self.variables: dict[str, Variable] = {}
        for variable in variables:
            if variable.name in self.variables:
                raise ValueError(f"duplicate variable {variable.name!r}")
            self.variables[variable.name] = variable
        self.actions: tuple[Action, ...] = tuple(actions)
        #: Memos filled at first use, on the assumption that a program
        #: is never mutated: its structural digest
        #: (:func:`repro.core.fingerprint.fingerprint_program`) and its
        #: packed kernel (:func:`repro.kernel.compile_program`), which
        #: dies with the program.
        self._digest: str | None = None
        self._kernel: Any = None
        names_seen: set[str] = set()
        for action in self.actions:
            if action.name in names_seen:
                raise ValueError(f"duplicate action name {action.name!r}")
            names_seen.add(action.name)
            unknown = (action.reads | action.writes) - self.variables.keys()
            if unknown:
                raise UnknownVariableError(
                    f"action {action.name!r} references undeclared variables "
                    f"{sorted(unknown)}"
                )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def action(self, name: str) -> Action:
        """The action with the given name.

        Raises:
            KeyError: if no action has that name.
        """
        for action in self.actions:
            if action.name == name:
                return action
        raise KeyError(f"program {self.name!r} has no action {name!r}")

    @property
    def variable_names(self) -> frozenset[str]:
        return frozenset(self.variables)

    def processes(self) -> list[Any]:
        """The distinct process identifiers owning variables, in order."""
        seen: list[Any] = []
        for variable in self.variables.values():
            if variable.process is not None and variable.process not in seen:
                seen.append(variable.process)
        return seen

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def make_state(self, values: Mapping[str, Any], *, validate: bool = True) -> State:
        """Build a state, checking coverage and domain membership."""
        missing = self.variables.keys() - values.keys()
        if missing:
            raise UnknownVariableError(
                f"state is missing variables {sorted(missing)}"
            )
        extra = values.keys() - self.variables.keys()
        if extra:
            raise UnknownVariableError(
                f"state sets undeclared variables {sorted(extra)}"
            )
        if validate:
            for name, value in values.items():
                if not self.variables[name].accepts(value):
                    raise DomainError(
                        f"value {value!r} outside domain of variable {name!r}"
                    )
        return State(values)

    def enabled_actions(self, state: State) -> list[Action]:
        """The actions whose guards hold at ``state``, in program order."""
        return [action for action in self.actions if action.enabled(state)]

    def is_terminal(self, state: State) -> bool:
        """Whether no action is enabled (a finite computation may end here)."""
        return not any(action.enabled(state) for action in self.actions)

    def step(self, state: State, action: Action, *, validate: bool = False) -> State:
        """Execute ``action`` at ``state``.

        With ``validate=True`` the successor is checked against variable
        domains — useful in tests to catch statements that escape their
        domain, at a per-step cost.
        """
        successor = action.execute(state)
        if validate:
            for name, value in successor.items():
                if not self.variables[name].accepts(value):
                    raise DomainError(
                        f"action {action.name!r} drove variable {name!r} to "
                        f"{value!r}, outside its domain"
                    )
        return successor

    def successors(self, state: State) -> list[tuple[Action, State]]:
        """All one-step successors ``(action, next_state)`` of ``state``."""
        return [
            (action, action.execute(state))
            for action in self.actions
            if action.enabled(state)
        ]

    # ------------------------------------------------------------------
    # State spaces
    # ------------------------------------------------------------------

    def state_count(self) -> int:
        """Size of the full state space (finite domains only)."""
        return count_states(self.variables.values())

    def state_space(self, *, max_states: int = DEFAULT_MAX_STATES) -> Iterator[State]:
        """Enumerate every state of the program (finite domains only)."""
        return enumerate_states(self.variables.values(), max_states=max_states)

    def random_state(self, rng: Any) -> State:
        """A uniformly random state — the image of an arbitrary transient fault."""
        return random_state(self.variables.values(), rng)

    # ------------------------------------------------------------------
    # Design-method support
    # ------------------------------------------------------------------

    def augmented(self, extra_actions: Iterable[Action], *, name: str | None = None) -> "Program":
        """A new program with ``extra_actions`` added.

        This is the augmentation step of the design problem (Section 3):
        ``p union {ca.1, ..., ca.n}``.
        """
        return Program(
            name if name is not None else f"{self.name}+convergence",
            self.variables.values(),
            (*self.actions, *extra_actions),
        )

    def restricted(self, action_names: Iterable[str], *, name: str | None = None) -> "Program":
        """A new program containing only the named actions."""
        wanted = set(action_names)
        unknown = wanted - {action.name for action in self.actions}
        if unknown:
            raise KeyError(f"unknown actions {sorted(unknown)}")
        return Program(
            name if name is not None else f"{self.name}|restricted",
            self.variables.values(),
            (action for action in self.actions if action.name in wanted),
        )

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, {len(self.variables)} variables, "
            f"{len(self.actions)} actions)"
        )
