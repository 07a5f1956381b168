"""Known answers for every request the benchmark makes.

Written by hand, never produced by the code under test:

- every library protocol stabilizes (the paper's designs and the
  classic protocols it covers), so its verdict is ``ok`` and, since its
  invariant ``S`` is a strict subset of ``T = true``, nonmasking;
- Dijkstra's K-state ring of ``n`` nodes stabilizes exactly when
  ``K >= n - 1`` (the minimal-K table of experiment E4a), so rings with
  a smaller ``K`` fail;
- the token ring meets Theorem 3 (Section 7.1), the out-tree and
  ordered x/y/z designs meet Theorems 1 and 2, and the oscillating
  design fails Theorem 2 (Section 6);
- a state count is the product of the declared variable domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

NONMASKING = "nonmasking"


@dataclass(frozen=True)
class Expected:
    ok: bool
    states: int
    classification: str | None = NONMASKING
    theorem: str | None = None


def _tolerant(states: int) -> Expected:
    return Expected(ok=True, states=states)


def _ring(nodes: int, k: int) -> Expected:
    return Expected(ok=k >= nodes - 1, states=k**nodes)


#: ``(case, size) -> Expected`` for the registered library cases.
LIBRARY: dict[tuple[str, int], Expected] = {
    # Four states per node: a colour and a session bit.
    ("diffusing-chain", 3): _tolerant(4**3),
    ("diffusing-chain", 4): _tolerant(4**4),
    ("diffusing-star", 3): _tolerant(4**3),
    # K = size counters, one per node.
    ("dijkstra-ring", 3): _ring(3, 3),
    ("dijkstra-ring", 4): _ring(4, 4),
    ("dijkstra-ring", 5): _ring(5, 5),
    # Three colours per node.
    ("coloring-chain", 3): _tolerant(3**3),
    ("coloring-chain", 4): _tolerant(3**4),
    ("leader-election-star", 3): _tolerant(3**3),
    # Distance estimates 0..size per node.
    ("spanning-tree-path", 4): _tolerant(5**4),
    # A pointer per node: left, right or none.
    ("matching-cycle", 3): _tolerant(3**3),
    ("matching-cycle", 4): _tolerant(3**4),
    # One membership bit per node.
    ("mis-cycle", 4): _tolerant(2**4),
    ("mis-cycle", 5): _tolerant(2**5),
    # Counter (K = 3) times channel contents (4) per node.
    ("mp-token-ring", 3): _tolerant(12**3),
    ("reset-chain", 3): _tolerant(8**3),
    ("graph-coloring-cycle", 4): _tolerant(3**4),
    # Two-state end nodes, four-state inner nodes.
    ("four-state-line", 4): _tolerant(2 * 4**2 * 2),
    ("four-state-line", 5): _tolerant(2 * 4**3 * 2),
}

#: The kernel-ladder rungs.
RUNGS: dict[str, Expected] = {
    # Diffusing computation on a star of 7 nodes.
    "star7": _tolerant(4**7),
    "ring6": _ring(6, 6),
    "ring7": _ring(7, 7),
    # Spanning tree on a 6-node path (distances 0..6) with T = H_0, the
    # first stair step: S != T, so the triple is nonmasking.
    "span6": _tolerant(7**6),
    "ring7-k5": _ring(7, 5),
}

#: Failing rings on the counterexample route.
FAILING_RINGS: dict[tuple[int, int], Expected] = {
    (5, 3): _ring(5, 3),
    (7, 4): _ring(7, 4),
}

#: Theorem validation over finite windows.
DESIGNS: dict[str, Expected] = {
    # Token ring of 3 nodes over counter window [0, 2]: 3^3 states.
    "token-ring": Expected(True, 3**3, None, "Theorem 3"),
    # x/y/z designs over the window [-3, 3]^3.
    "out-tree": Expected(True, 7**3, None, "Theorem 1"),
    "ordered": Expected(True, 7**3, None, "Theorem 2"),
    "oscillating": Expected(False, 7**3, None, "Theorem 2"),
}


def mismatch(expected: Expected, record: dict[str, Any]) -> str:
    """Why ``record`` disagrees with ``expected``; ``""`` when it agrees.

    A verification record carries ``ok``, ``classification`` and
    ``total_states``; a theorem-validation record carries ``ok``,
    ``theorem`` and ``states``.
    """
    if record.get("ok") is not expected.ok:
        return f"ok={record.get('ok')!r}, expected {expected.ok}"
    if expected.theorem is not None:
        theorem = str(record.get("theorem", ""))
        if not theorem.startswith(expected.theorem):
            return f"theorem {theorem!r}, expected {expected.theorem}"
        states = record.get("states")
    else:
        if record.get("classification") != expected.classification:
            return (
                f"classification {record.get('classification')!r}, "
                f"expected {expected.classification}"
            )
        states = record.get("total_states")
    if states != expected.states:
        return f"{states!r} states, expected {expected.states}"
    return ""
