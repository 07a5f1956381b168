"""The dense hitting-time solve: the reference the CSR solver is pinned to.

:func:`dense_hitting_times` materializes the transient-state matrix and
solves it with ``numpy.linalg.solve`` — exact, but O(states^2) memory
and O(states^3) time, so it only runs at toy sizes. The differential
suite (``tests/test_quantitative.py``) requires
:func:`repro.quantitative.hitting_times` to agree with it within
:data:`DENSE_AGREEMENT_RTOL` on every library protocol. Callers need
numpy; the import is deferred so that collecting the suite does not.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import Any

from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.state import State
from repro.quantitative import HittingTimes, _classify_scalar
from repro.verification.explorer import build_transition_system

#: The agreement bar between the CSR value iteration and the dense
#: solve (relative, on every finite expectation).
DENSE_AGREEMENT_RTOL = 1e-6


def dense_hitting_times(
    program: Program,
    states: Iterable[State],
    target: Predicate,
    *,
    system: Any = None,
) -> HittingTimes:
    """Random-daemon expected steps-to-target, by one dense linear solve.

    Raises:
        ValueError: if the supplied state set is not closed.
    """
    import numpy as np

    ts = system if system is not None else build_transition_system(program, states)
    if ts.escapes:
        raise ValueError("the state set is not closed under the program")

    n = len(ts)
    is_target = [bool(target(state)) for state in ts.states]
    doomed = _classify_scalar(*_dense_csr(ts), is_target)

    transient = [i for i in range(n) if not is_target[i] and not doomed[i]]
    position = {state_index: k for k, state_index in enumerate(transient)}

    values = np.zeros(n)
    for i in range(n):
        if doomed[i]:
            values[i] = math.inf

    if transient:
        m = len(transient)
        matrix = np.eye(m)
        rhs = np.ones(m)
        for k, state_index in enumerate(transient):
            edges = ts.edges[state_index]
            weight = 1.0 / len(edges)
            for _, destination in edges:
                if destination in position:
                    matrix[k, position[destination]] -= weight
                # Destinations in the target contribute 0; doomed
                # destinations are impossible here by construction.
        solution = np.linalg.solve(matrix, rhs)
        for k, state_index in enumerate(transient):
            values[state_index] = solution[k]

    has_inf = bool(np.isinf(values).any())
    return HittingTimes(
        expectations=tuple(float(v) for v in values),
        mean=math.inf if has_inf else float(values.mean()),
        maximum=float(values.max()) if n else 0.0,
        system=ts,
    )


def _dense_csr(ts) -> tuple[int, list[int], list[int]]:
    offsets = [0]
    targets: list[int] = []
    for row in ts.edges:
        targets.extend(destination for _name, destination in row)
        offsets.append(len(targets))
    return len(ts), offsets, targets
