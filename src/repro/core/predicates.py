"""State predicates.

A state predicate is a boolean expression over program variables
(Section 2). :class:`Predicate` wraps an evaluation function together with
a *support* — the set of variable names the predicate reads. Supports are
what connect predicates to the constraint graph: a constraint whose support
is contained in ``vars(v) | vars(w)`` can label the edge ``v -> w``.

Predicates form a small algebra::

    inside = Predicate(lambda s: s["x"] <= s["z"], name="x<=z", support={"x", "z"})
    both = inside & distinct          # conjunction
    either = inside | distinct       # disjunction
    outside = ~inside                 # negation
    weaker = inside.implies(other)    # implication

Combinators union the supports and build readable names, so diagnostics
from verification tools stay legible.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any

from repro.core.state import State

__all__ = ["Predicate", "TRUE", "FALSE", "all_of", "any_of", "count_of", "var_equals"]


class Predicate:
    """A named boolean function of states with a declared support.

    Attributes:
        name: Human-readable description, used in reports and traces.
        support: The variable names the predicate may read, or ``None``
            when unknown. Tools that need a support (the constraint graph
            builder) reject predicates without one.
        source: The symbolic expression this predicate was lowered from
            (a :class:`~repro.core.expr.BoolExpr`), or ``None`` for
            opaque callables. When present, static analysis can recover
            the *exact* read set via ``source.variables()`` instead of
            trusting the declared support.
        parts: The combinator structure this predicate was built from,
            or ``None`` for a leaf. Combinators record their operator
            and operand predicates — ``("and", (p, q))``, ``("or", (p,
            q))``, ``("not", (p,))``, ``("implies", (p, q))``, ``("all",
            operands)``, ``("any", operands)`` and ``("count", operands,
            k)`` — so analyses (the vectorized kernel sweeps) can
            decompose a predicate into small-support leaves instead of
            treating the composed callable as opaque. The recorded
            operands are the predicates actually evaluated by the
            wrapped function, so any structural evaluation is
            extensionally identical to calling the predicate.
    """

    __slots__ = ("_fn", "name", "support", "source", "parts", "_digest")

    def __init__(
        self,
        fn: Callable[[State], bool],
        *,
        name: str | None = None,
        support: Iterable[str] | None = None,
        source: Any = None,
        parts: tuple | None = None,
    ) -> None:
        self._fn = fn
        self.name = name if name is not None else getattr(fn, "__name__", "<predicate>")
        self.support = frozenset(support) if support is not None else None
        self.source = source
        self.parts = parts
        #: The structural digest, filled at first use by
        #: :func:`repro.core.fingerprint.fingerprint_predicate`.
        self._digest: str | None = None

    def __call__(self, state: State) -> bool:
        return bool(self._fn(state))

    def holds(self, state: State) -> bool:
        """Whether the predicate is true at ``state`` (alias of call)."""
        return self(state)

    def holds_everywhere(self, states: Iterable[State]) -> bool:
        """Whether the predicate is true at every state in ``states``."""
        return all(self(state) for state in states)

    def _merged_support(self, other: "Predicate") -> frozenset[str] | None:
        if self.support is None or other.support is None:
            return None
        return self.support | other.support

    def __and__(self, other: "Predicate") -> "Predicate":
        return Predicate(
            lambda state: self(state) and other(state),
            name=f"({self.name} and {other.name})",
            support=self._merged_support(other),
            parts=("and", (self, other)),
        )

    def __or__(self, other: "Predicate") -> "Predicate":
        return Predicate(
            lambda state: self(state) or other(state),
            name=f"({self.name} or {other.name})",
            support=self._merged_support(other),
            parts=("or", (self, other)),
        )

    def __invert__(self) -> "Predicate":
        return Predicate(
            lambda state: not self(state),
            name=f"not ({self.name})",
            support=self.support,
            parts=("not", (self,)),
        )

    def implies(self, other: "Predicate") -> "Predicate":
        """The predicate ``self => other``."""
        return Predicate(
            lambda state: (not self(state)) or other(state),
            name=f"({self.name} => {other.name})",
            support=self._merged_support(other),
            parts=("implies", (self, other)),
        )

    def renamed(self, name: str) -> "Predicate":
        """A copy of this predicate carrying a new display name."""
        return Predicate(
            self._fn,
            name=name,
            support=self.support,
            source=self.source,
            parts=self.parts,
        )

    def with_support(self, support: Iterable[str]) -> "Predicate":
        """A copy of this predicate carrying an explicit support."""
        return Predicate(
            self._fn,
            name=self.name,
            support=support,
            source=self.source,
            parts=self.parts,
        )

    def __repr__(self) -> str:
        return f"Predicate({self.name!r})"


#: The predicate that holds at every state. This is the fault-span ``T``
#: of a *stabilizing* program (Section 5).
TRUE = Predicate(lambda state: True, name="true", support=())

#: The predicate that holds at no state.
FALSE = Predicate(lambda state: False, name="false", support=())


def all_of(predicates: Iterable[Predicate], *, name: str | None = None) -> Predicate:
    """Conjunction of ``predicates``; of an empty iterable, ``TRUE``.

    This is how an invariant ``S`` is recovered from its constraint
    decomposition: ``S == all_of(constraint predicates) & T``.
    """
    preds = list(predicates)
    if not preds:
        return TRUE if name is None else TRUE.renamed(name)
    supports = [p.support for p in preds]
    support = None
    if all(s is not None for s in supports):
        support = frozenset().union(*supports)  # type: ignore[arg-type]
    display = name if name is not None else " and ".join(p.name for p in preds)
    return Predicate(
        lambda state: all(p(state) for p in preds),
        name=display,
        support=support,
        parts=("all", tuple(preds)),
    )


def any_of(predicates: Iterable[Predicate], *, name: str | None = None) -> Predicate:
    """Disjunction of ``predicates``; of an empty iterable, ``FALSE``."""
    preds = list(predicates)
    if not preds:
        return FALSE if name is None else FALSE.renamed(name)
    supports = [p.support for p in preds]
    support = None
    if all(s is not None for s in supports):
        support = frozenset().union(*supports)  # type: ignore[arg-type]
    display = name if name is not None else " or ".join(p.name for p in preds)
    return Predicate(
        lambda state: any(p(state) for p in preds),
        name=display,
        support=support,
        parts=("any", tuple(preds)),
    )


def count_of(
    predicates: Iterable[Predicate], count: int, *, name: str | None = None
) -> Predicate:
    """The predicate "exactly ``count`` of ``predicates`` hold".

    A counting combinator: global specifications like a token ring's
    "exactly one node is privileged" are conjunctions over *how many*
    local conditions hold, not which — recording the count structure
    keeps every operand's small support visible (each privilege tests
    two adjacent counters) where a hand-written monolithic callable
    would force readers of the predicate to treat the whole variable
    set as one opaque block.
    """
    preds = list(predicates)
    supports = [p.support for p in preds]
    support = None
    if all(s is not None for s in supports):
        support = frozenset().union(*supports)  # type: ignore[arg-type]
    display = (
        name
        if name is not None
        else f"exactly {count} of [" + ", ".join(p.name for p in preds) + "]"
    )
    return Predicate(
        lambda state: sum(1 for p in preds if p(state)) == count,
        name=display,
        support=support,
        parts=("count", tuple(preds), count),
    )


def var_equals(name: str, value: Any) -> Predicate:
    """The predicate ``name == value``."""
    return Predicate(
        lambda state: state[name] == value,
        name=f"{name} == {value!r}",
        support=(name,),
    )
