"""Vectorized frontier sweeps over packed code and CSR arrays.

The packed kernel (PR 4) already stores the state space as mixed-radix
integer codes and the transition relation as CSR arrays — but every hot
sweep still walked those arrays one state at a time in Python. This
module rewrites the sweeps as numpy array operations:

- **Membership masks**: a predicate is decomposed along its recorded
  combinator structure (``Predicate.parts``) into small-support leaves;
  each leaf becomes a projection table indexed by the leaf's mixed-radix
  key, so the mask of a code range is a handful of table gathers and
  boolean reductions instead of one Python call per state.
- **Successor columns**: a table-mode action's memoized entries are laid
  out as flat arrays over its read projection, so the successors of a
  whole code range are ``codes + shift[key]`` (every write also read) or
  ``codes + Σ_w (digit_w[key] - digit_w(codes)) * weight_w`` (general
  digit replacement). Direct-mode actions still evaluate per state.
- **CSR assembly**: the per-action columns are interleaved into the
  exact row-major ``offsets``/``targets``/``action_ids`` order the
  scalar sweep produces, so everything downstream is bit-identical.
- **Closure checks**: one boolean reduction per predicate —
  ``mask[sources] & ~mask[targets]`` — with the first five failing edges
  decoded into the same witnesses the scalar walk reports.
- **Deadlock/bad-state partitioning**: the convergence prefilter finds
  the first bad deadlock by mask arithmetic and proves the bad-state
  subgraph acyclic with a vectorized Kahn peel (:func:`peel_residue`,
  the one peel every acyclicity check here shares); only when a cycle
  actually exists does the exact SCC analysis
  (:mod:`repro.verification.convergence`) run, and then only over the
  peel's residue — the bad states that never peel.
- **Frontier BFS**: reachability over ``offsets``/``targets`` as array
  gather/scatter (:func:`frontier_reach`).

Everything here is soundness-gated exactly like the scalar kernel's
table tier: a leaf predicate is only projected onto its support after
the same probe-based read inference that gates action tables (RW001),
and symbolic leaves use their exact read set. Whenever a construct falls
outside the vectorized fragment — an opaque monolithic predicate, a raw
(out-of-domain) successor, a missing numpy — :class:`SweepUnsupported`
is raised and the caller falls back to the pure-Python scalar sweep,
whose results the differential suite pins bit-identical.
"""

from __future__ import annotations

import itertools

from repro.core.expr import BoolExpr
from repro.core.predicates import Predicate
from repro.kernel.compile import _MISSING, compile_predicate_fn
from repro.kernel.engine import PackedKernel

try:  # numpy is optional: without it every entry point raises
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the fallback CI leg
    _np = None

__all__ = [
    "FORCE_CODE_DTYPE",
    "HAVE_NUMPY",
    "MAX_ACTION_PROJECTION",
    "MAX_LEAF_PROJECTION",
    "MAX_PEEL_STATES",
    "SweepUnsupported",
    "SweepPlan",
    "VECTOR_MIN_STATES",
    "BadRegionPeel",
    "bad_region_acyclic",
    "closure_scan",
    "edge_list_acyclic",
    "first_bad_deadlock",
    "frontier_reach",
    "merge_fragments",
    "peel_residue",
    "peel_shard_edges",
    "reverse_csr",
    "vectorizable",
]

#: Whether numpy was importable; without it the scalar sweep is used.
HAVE_NUMPY = _np is not None

#: Below this state count the scalar sweep wins (numpy's fixed per-array
#: overhead dominates); tests force the vectorized path by lowering it.
VECTOR_MIN_STATES = 1024

#: A predicate leaf whose support projection exceeds this is not
#: tabulated; the whole sweep falls back to the scalar path.
MAX_LEAF_PROJECTION = 1 << 16

#: An action whose read projection exceeds this is not laid out as flat
#: arrays (enumerating it would cost as much as the scalar sweep).
MAX_ACTION_PROJECTION = 1 << 20

#: The largest state count the peel's packed edge keys hold (two state
#: indices in one int64, see :func:`reverse_csr`); a larger space is
#: outside the vectorized fragment.
MAX_PEEL_STATES = 1 << 31

#: Override the per-instance code dtype (``"int16"``/``"int32"``/
#: ``"int64"`` or ``None`` for the codec's own width). The differential
#: suite flips this to pin that narrow-dtype sweeps are bit-identical to
#: the int64 baseline, and benchmarks use it to emulate the kernel v2
#: memory profile.
FORCE_CODE_DTYPE: str | None = None


class SweepUnsupported(Exception):
    """The instance falls outside the vectorized fragment.

    Raised during planning or sweeping; callers catch it and fall back
    to the scalar packed sweep, which handles every instance.
    """


def vectorizable(size: int) -> bool:
    """Whether the vectorized sweep should be attempted at all."""
    return HAVE_NUMPY and size >= VECTOR_MIN_STATES


def _require_numpy() -> None:
    if _np is None:
        raise SweepUnsupported("numpy is not installed")


# ----------------------------------------------------------------------
# Range context: digit and key arrays of a contiguous code range
# ----------------------------------------------------------------------


class _RangeContext:
    """Digit/key arrays for the codes ``lo .. hi-1``, computed lazily."""

    __slots__ = ("lo", "hi", "codes", "_weights", "_radices", "_digits")

    def __init__(self, codec, lo: int, hi: int, dtype=None) -> None:
        self.lo = lo
        self.hi = hi
        self.codes = _np.arange(
            lo, hi, dtype=_np.int64 if dtype is None else dtype
        )
        self._weights = codec.weights
        self._radices = codec.radices
        self._digits: dict[int, object] = {}

    def digit(self, position: int):
        """The digit of every code in the range at ``position``."""
        cached = self._digits.get(position)
        if cached is None:
            cached = (self.codes // self._weights[position]) % self._radices[
                position
            ]
            self._digits[position] = cached
        return cached

    def key(self, pairs: tuple[tuple[int, int], ...]):
        """Mixed-radix projection keys onto ``(position, radix)`` pairs.

        Matches the scalar kernel's per-action key layout
        (:meth:`CompiledAction._key_fn`): digits of ascending positions,
        most significant first.
        """
        if not pairs:
            return _np.zeros(self.hi - self.lo, dtype=_np.int32)
        # Projections are capped at 2^20 entries, so int32 keys always
        # suffice regardless of the code dtype.
        key = self.digit(pairs[0][0]).astype(_np.int32)
        for position, radix in pairs[1:]:
            key = key * radix + self.digit(position)
        return key


# ----------------------------------------------------------------------
# Predicate masks
# ----------------------------------------------------------------------


class _LeafMask:
    """One leaf predicate tabulated over its support projection."""

    __slots__ = ("pairs", "table")

    def __init__(self, predicate: Predicate, codec, positions: list[int]) -> None:
        self.pairs = tuple(
            (position, codec.radices[position]) for position in positions
        )
        projection = 1
        for _, radix in self.pairs:
            projection *= radix
        if projection > MAX_LEAF_PROJECTION:
            raise SweepUnsupported(
                f"predicate {predicate.name!r} projects onto {projection} "
                "entries, above the leaf-table cap"
            )
        from repro.kernel.compile import DigitStateView

        view = DigitStateView(codec)
        evaluate = compile_predicate_fn(predicate, codec, view)
        values = [column[0] for column in codec.domain_values]
        table = _np.empty(projection, dtype=bool)
        domain_values = codec.domain_values
        try:
            for key, combo in enumerate(
                itertools.product(*[range(radix) for _, radix in self.pairs])
            ):
                for (position, _), digit in zip(self.pairs, combo):
                    values[position] = domain_values[position][digit]
                table[key] = bool(evaluate(values))
        except SweepUnsupported:
            raise
        except Exception as error:
            # The scalar engines may never evaluate this predicate on
            # these representative states (short-circuiting); do not
            # let the tabulation crash where they would not.
            raise SweepUnsupported(
                f"predicate {predicate.name!r} raised during tabulation: "
                f"{error!r}"
            ) from error
        self.table = table

    def mask(self, ctx: _RangeContext):
        if not self.pairs:
            value = bool(self.table[0])
            return _np.full(ctx.hi - ctx.lo, value, dtype=bool)
        return self.table[ctx.key(self.pairs)]


class _MaskNode:
    """A predicate compiled to a mask evaluator over code ranges."""

    __slots__ = ("kind", "operands", "count", "leaf")

    def __init__(self, kind, operands=(), count=0, leaf=None) -> None:
        self.kind = kind
        self.operands = operands
        self.count = count
        self.leaf = leaf

    def mask(self, ctx: _RangeContext):
        kind = self.kind
        if kind == "leaf":
            return self.leaf.mask(ctx)
        masks = [operand.mask(ctx) for operand in self.operands]
        if kind == "all":
            out = masks[0].copy()
            for mask in masks[1:]:
                out &= mask
            return out
        if kind == "any":
            out = masks[0].copy()
            for mask in masks[1:]:
                out |= mask
            return out
        if kind == "not":
            return ~masks[0]
        if kind == "implies":
            return ~masks[0] | masks[1]
        # count: exactly ``self.count`` of the operands hold
        total = _np.zeros(masks[0].size, dtype=_np.int16)
        for mask in masks:
            total += mask
        return total == self.count


def _compile_mask(
    predicate: Predicate, codec, battery_of: "_BatteryCache"
) -> _MaskNode:
    """Recursively compile ``predicate`` into a :class:`_MaskNode`.

    Raises:
        SweepUnsupported: when some leaf cannot be soundly tabulated.
    """
    parts = getattr(predicate, "parts", None)
    if parts is not None:
        kind = parts[0]
        operands = tuple(
            _compile_mask(operand, codec, battery_of) for operand in parts[1]
        )
        if kind in ("and", "all"):
            return _MaskNode("all", operands)
        if kind in ("or", "any"):
            return _MaskNode("any", operands)
        if kind in ("not", "implies"):
            return _MaskNode(kind, operands)
        if kind == "count":
            return _MaskNode("count", operands, count=parts[2])
        raise SweepUnsupported(f"unknown predicate combinator {kind!r}")

    # Leaf: find a sound support to project onto. Symbolic leaves carry
    # their exact read set; opaque leaves must pass the same probe-based
    # read inference that gates action tables (RW001).
    source = getattr(predicate, "source", None)
    if isinstance(source, BoolExpr):
        names = source.variables()
    else:
        if predicate.support is None:
            raise SweepUnsupported(
                f"predicate {predicate.name!r} has no declared support"
            )
        names = predicate.support
        inferred = battery_of.predicate_reads(predicate)
        if not inferred <= names:
            raise SweepUnsupported(
                f"predicate {predicate.name!r} reads outside its declared "
                "support; projection would be unsound"
            )
    positions = []
    for name in names:
        position = codec._positions.get(name)
        if position is None:
            raise SweepUnsupported(
                f"predicate {predicate.name!r} reads unknown variable {name!r}"
            )
        positions.append(position)
    return _MaskNode(
        "leaf", leaf=_LeafMask(predicate, codec, sorted(positions))
    )


class _BatteryCache:
    """Lazily computed probe battery shared across leaf gates."""

    __slots__ = ("program", "_battery")

    def __init__(self, program) -> None:
        self.program = program
        self._battery = None

    def predicate_reads(self, predicate: Predicate) -> frozenset[str]:
        from repro.core.introspect import infer_predicate_reads
        from repro.kernel.compile import probe_battery

        if self._battery is None:
            self._battery = probe_battery(self.program)
        try:
            return infer_predicate_reads(predicate, self._battery).reads
        except Exception as error:
            raise SweepUnsupported(
                f"probing predicate {predicate.name!r} failed: {error!r}"
            ) from error


# ----------------------------------------------------------------------
# Action successor columns
# ----------------------------------------------------------------------


class _TableColumns:
    """A table-mode action laid out as flat arrays over its projection.

    The layout mirrors the scalar memo's normalized entries: a
    *shift-form* action (every written variable also read) stores one
    packed-code shift per key; a *delta-form* action stores the target
    digit of every written position per key. Both evaluate a whole code
    range with a couple of gathers. Enumerating the projection also
    fills the action's scalar memo (``action._table``), so table
    hit/miss accounting is identical on both paths.
    """

    __slots__ = ("pairs", "enabled", "shift", "deltas")

    def __init__(self, action, codec, dtype) -> None:
        pairs = action._read_pairs
        projection = 1
        for _, radix in pairs:
            projection *= radix
        if projection > MAX_ACTION_PROJECTION:
            raise SweepUnsupported(
                f"action {action.name!r} projects onto {projection} entries, "
                "above the action-table cap"
            )
        self.pairs = pairs
        written = [
            (position, codec.weights[position])
            for _target, position, _weight, _digits, _evaluator in action._updates
        ]
        shift_form = all(position in action._read_set for position, _ in written)
        enabled = _np.zeros(projection, dtype=bool)
        # Shifts (``successor - code``) range over ``(-size, size)`` and
        # per-position deltas are digits, so both fit the code dtype.
        shift = _np.zeros(projection, dtype=dtype) if shift_form else None
        deltas = (
            None
            if shift_form
            else [
                (position, weight, _np.zeros(projection, dtype=dtype))
                for position, weight in written
            ]
        )
        digits = [0] * len(codec.names)
        values = [column[0] for column in codec.domain_values]
        domain_values = codec.domain_values
        table = action._table
        evaluate = action._evaluate
        try:
            for key, combo in enumerate(
                itertools.product(*[range(radix) for _, radix in pairs])
            ):
                for (position, _), digit in zip(pairs, combo):
                    digits[position] = digit
                    values[position] = domain_values[position][digit]
                entry = table.get(key, _MISSING)
                if entry is _MISSING:
                    entry = evaluate(0, digits, values)
                    table[key] = entry
                if entry is None:
                    continue
                enabled[key] = True
                if type(entry) is int:
                    shift[key] = entry
                    continue
                tag, payload = entry
                if tag != "delta":  # "raw": out-of-domain successor value
                    raise SweepUnsupported(
                        f"action {action.name!r} produces an out-of-domain "
                        "successor; raw states need the scalar sweep"
                    )
                by_position = {position: digit for position, digit, _ in payload}
                for position, _weight, column in deltas:
                    column[key] = by_position[position]
        except SweepUnsupported:
            raise
        except Exception as error:
            raise SweepUnsupported(
                f"action {action.name!r} raised during tabulation: {error!r}"
            ) from error
        self.enabled = enabled
        self.shift = shift
        self.deltas = deltas

    def columns(self, ctx: _RangeContext):
        key = ctx.key(self.pairs)
        enabled = self.enabled[key]
        if self.shift is not None:
            return enabled, ctx.codes + self.shift[key]
        successors = ctx.codes.copy()
        for position, weight, column in self.deltas:
            successors += (column[key] - ctx.digit(position)) * weight
        return enabled, successors


class _DirectColumns:
    """Direct/fallback-mode actions, evaluated per state in one shared walk."""

    __slots__ = ("members",)

    def __init__(self, members: list[tuple[int, object]]) -> None:
        self.members = members  # [(action_id, CompiledAction)]

    def columns(self, kernel: PackedKernel, ctx: _RangeContext):
        n = ctx.hi - ctx.lo
        dtype = ctx.codes.dtype
        results = {
            action_id: (
                _np.zeros(n, dtype=bool),
                _np.zeros(n, dtype=dtype),
            )
            for action_id, _ in self.members
        }
        members = [
            (results[action_id], action.successor, action.name)
            for action_id, action in self.members
        ]
        lo = ctx.lo
        for code, digits, values in kernel.iter_range(ctx.lo, ctx.hi):
            row = code - lo
            for (enabled, successors), successor_fn, name in members:
                successor = successor_fn(code, digits, values)
                if successor is None:
                    continue
                if type(successor) is not int:
                    raise SweepUnsupported(
                        f"action {name!r} produces an out-of-domain "
                        "successor; raw states need the scalar sweep"
                    )
                enabled[row] = True
                successors[row] = successor
        return results


# ----------------------------------------------------------------------
# The sweep plan: compiled once, swept per shard
# ----------------------------------------------------------------------


class Fragment:
    """One swept code range: masks plus a local CSR fragment.

    ``offsets`` is local (``offsets[0] == 0``); ``targets`` hold global
    packed codes. Fragments merge by concatenation in shard order, which
    reproduces the unsharded sweep exactly.
    """

    __slots__ = ("lo", "hi", "s_mask", "t_mask", "offsets", "targets", "action_ids")

    def __init__(self, lo, hi, s_mask, t_mask, offsets, targets, action_ids):
        self.lo = lo
        self.hi = hi
        self.s_mask = s_mask
        self.t_mask = t_mask
        self.offsets = offsets
        self.targets = targets
        self.action_ids = action_ids


class SweepPlan:
    """Vectorized evaluators for one ``(program, S, T)`` instance.

    Built once — leaf and action projection tables are enumerated here,
    in the parent process, so forked shard workers inherit them — then
    :meth:`sweep_range` turns any contiguous code range into a
    :class:`Fragment` with pure array operations (plus one per-state
    walk when the program has direct-mode actions).

    Raises:
        SweepUnsupported: when the instance falls outside the vectorized
            fragment; the caller falls back to the scalar sweep.
    """

    def __init__(self, kernel: PackedKernel, invariant, fault_span) -> None:
        _require_numpy()
        self.kernel = kernel
        codec = kernel.codec
        if codec.size > MAX_PEEL_STATES:
            raise SweepUnsupported(
                f"{codec.size} states exceed the peel's limit of "
                f"{MAX_PEEL_STATES}"
            )
        forced = FORCE_CODE_DTYPE
        self.code_dtype = _np.dtype(
            codec.code_dtype if forced is None else forced
        )
        # Offsets count edges, bounded by size * n_actions; int32 when
        # that bound fits, int64 otherwise (or when the width is forced
        # wide to emulate the v2 memory profile).
        edge_bound = codec.size * max(1, len(kernel.actions))
        wide_offsets = forced == "int64" or edge_bound > 2**31 - 1
        self.offset_dtype = _np.dtype(_np.int64 if wide_offsets else _np.int32)
        battery = _BatteryCache(kernel.program)
        self.s_node = _compile_mask(invariant, codec, battery)
        # fault_span is None for the stabilizing span (T == TRUE).
        self.t_node = (
            None
            if fault_span is None
            else _compile_mask(fault_span, codec, battery)
        )
        table_members: list[tuple[int, _TableColumns]] = []
        direct_members: list[tuple[int, object]] = []
        for action_id, action in enumerate(kernel.actions):
            if action.mode == "table":
                table_members.append(
                    (action_id, _TableColumns(action, codec, self.code_dtype))
                )
            else:
                direct_members.append((action_id, action))
        self.table_members = table_members
        self.direct = (
            _DirectColumns(direct_members) if direct_members else None
        )
        self.n_actions = len(kernel.actions)

    def _context(self, lo: int, hi: int) -> _RangeContext:
        return _RangeContext(self.kernel.codec, lo, hi, self.code_dtype)

    def mask_range(self, lo: int, hi: int):
        """Only the ``(s_mask, t_mask)`` of ``lo .. hi-1`` (no CSR).

        The streaming verdict path sweeps masks first — one byte per
        state — so closure, implication, and span classification never
        require the materialized transition relation.
        """
        ctx = self._context(lo, hi)
        s_mask = self.s_node.mask(ctx)
        t_mask = None if self.t_node is None else self.t_node.mask(ctx)
        return s_mask, t_mask

    def column_range(self, lo: int, hi: int):
        """The per-action ``(enabled, successors)`` columns of a range.

        Returns ``(ctx, columns)`` where ``columns[action_id]`` is the
        pair of arrays; nothing is interleaved into CSR form, so the
        streaming path can reduce and free each column set shard by
        shard.
        """
        ctx = self._context(lo, hi)
        columns: dict[int, tuple] = {}
        for action_id, member in self.table_members:
            columns[action_id] = member.columns(ctx)
        if self.direct is not None:
            columns.update(self.direct.columns(self.kernel, ctx))
        return ctx, columns

    def sweep_range(self, lo: int, hi: int) -> Fragment:
        """Sweep the codes ``lo .. hi-1`` into a :class:`Fragment`."""
        ctx = self._context(lo, hi)
        n = hi - lo
        s_mask = self.s_node.mask(ctx)
        t_mask = None if self.t_node is None else self.t_node.mask(ctx)

        columns: dict[int, tuple] = {}
        for action_id, member in self.table_members:
            columns[action_id] = member.columns(ctx)
        if self.direct is not None:
            columns.update(self.direct.columns(self.kernel, ctx))

        # Row-major CSR assembly in (state, action) order — the exact
        # edge order of the scalar sweep.
        degrees = _np.zeros(n, dtype=_np.int16)
        for action_id in range(self.n_actions):
            degrees += columns[action_id][0]
        offsets = _np.empty(n + 1, dtype=self.offset_dtype)
        offsets[0] = 0
        _np.cumsum(degrees, dtype=self.offset_dtype, out=offsets[1:])
        targets = _np.empty(int(offsets[-1]), dtype=self.code_dtype)
        action_ids = _np.empty(int(offsets[-1]), dtype=_np.int16)
        cursor = offsets[:-1].copy()
        for action_id in range(self.n_actions):
            enabled, successors = columns[action_id]
            rows = _np.flatnonzero(enabled)
            slots = cursor[rows]
            targets[slots] = successors[rows]
            action_ids[slots] = action_id
            cursor[rows] += 1
        return Fragment(lo, hi, s_mask, t_mask, offsets, targets, action_ids)


def merge_fragments(fragments: list[Fragment]):
    """Concatenate shard fragments into global sweep arrays.

    Fragments must be contiguous and in code order; the result is then
    bit-identical to a single sweep of the full range.

    Returns ``(s_mask, t_mask, offsets, targets, action_ids)`` with
    ``t_mask`` ``None`` when the span is TRUE.
    """
    _require_numpy()
    if len(fragments) == 1:
        fragment = fragments[0]
        return (
            fragment.s_mask,
            fragment.t_mask,
            fragment.offsets,
            fragment.targets,
            fragment.action_ids,
        )
    s_mask = _np.concatenate([fragment.s_mask for fragment in fragments])
    t_mask = (
        None
        if fragments[0].t_mask is None
        else _np.concatenate([fragment.t_mask for fragment in fragments])
    )
    sizes = [fragment.offsets.size - 1 for fragment in fragments]
    offsets = _np.empty(sum(sizes) + 1, dtype=fragments[0].offsets.dtype)
    offsets[0] = 0
    base_state = 1
    base_edge = 0
    for fragment in fragments:
        span = fragment.offsets.size - 1
        offsets[base_state : base_state + span] = fragment.offsets[1:] + base_edge
        base_state += span
        base_edge += int(fragment.offsets[-1])
    targets = _np.concatenate([fragment.targets for fragment in fragments])
    action_ids = _np.concatenate([fragment.action_ids for fragment in fragments])
    return s_mask, t_mask, offsets, targets, action_ids


# ----------------------------------------------------------------------
# Sweeps over assembled CSR arrays
# ----------------------------------------------------------------------


def closure_scan(mask, offsets, targets, *, max_witnesses: int = 5):
    """Closure check of the state set ``mask`` over the CSR arrays.

    One boolean reduction: an edge fails iff its source is in the set
    and its target is not. Returns ``(ok, checked, witness_edges)``
    where ``witness_edges`` are the CSR indices of the first
    ``max_witnesses`` failing edges (in edge order, which is the scalar
    walk's witness order) and ``checked`` reproduces the scalar walk's
    early-exit count: sources examined up to and including the one
    carrying the last reported witness.
    """
    _require_numpy()
    edge_sources = _np.repeat(mask, _np.diff(offsets))
    failing = _np.flatnonzero(edge_sources & ~mask[targets])
    if failing.size == 0:
        return True, int(_np.count_nonzero(mask)), []
    witnesses = failing[:max_witnesses]
    if failing.size >= max_witnesses:
        last_source = int(
            _np.searchsorted(offsets, witnesses[-1], side="right") - 1
        )
        checked = int(_np.count_nonzero(mask[: last_source + 1]))
    else:
        checked = int(_np.count_nonzero(mask))
    return False, checked, [int(k) for k in witnesses]


def edge_sources_of(offsets, edge_indices):
    """The source row of each CSR edge index."""
    _require_numpy()
    return _np.searchsorted(offsets, edge_indices, side="right") - 1


def first_bad_deadlock(bad_mask, offsets):
    """The first (lowest-position) bad state with no outgoing edge.

    This is the deadlock the scalar convergence scan reports (it walks
    bad positions in ascending order). Returns the position or ``None``.
    """
    _require_numpy()
    deadlocks = _np.flatnonzero(bad_mask & (_np.diff(offsets) == 0))
    if deadlocks.size == 0:
        return None
    return int(deadlocks[0])


def _gather_ranges(starts, counts):
    """Indices covering ``[starts[i], starts[i]+counts[i])`` for all i."""
    total = int(counts.sum())
    if total == 0:
        return _np.empty(0, dtype=_np.int64)
    bases = _np.repeat(
        starts - _np.concatenate(([0], _np.cumsum(counts)[:-1])), counts
    )
    return bases + _np.arange(total, dtype=_np.int64)


def _dedup(values, stamp):
    """``values`` without repeats, in no particular order, in O(len(values)).

    ``stamp`` is a scratch int64 array indexed by value, reused across
    calls. Each occurrence writes its own position; whichever write
    survives, exactly one occurrence of every value reads it back.
    """
    if values.size < 2:
        return values
    positions = _np.arange(values.size, dtype=_np.int64)
    stamp[values] = positions
    return values[stamp[values] == positions]


def reverse_csr(sources, sinks, n: int):
    """Predecessor lists of the edges ``sources[k] -> sinks[k]``.

    Returns ``(indptr, preds)``: the sources of the edges into state
    ``v`` are ``preds[indptr[v]:indptr[v+1]]``, in ``sources``' dtype.
    Each edge is packed into one int64 key (sink high, source low) and
    the keys are sorted by value, which is several times faster than an
    argsort of the sinks.

    Raises:
        SweepUnsupported: when ``n`` exceeds :data:`MAX_PEEL_STATES`.
    """
    _require_numpy()
    if n > MAX_PEEL_STATES:
        raise SweepUnsupported(
            f"{n} states exceed the peel's limit of {MAX_PEEL_STATES}"
        )
    bits = max(1, (n - 1).bit_length())
    indptr = _np.empty(n + 1, dtype=_np.int64)
    indptr[0] = 0
    _np.cumsum(_np.bincount(sinks, minlength=n), out=indptr[1:])
    keys = sinks.astype(_np.int64)
    keys <<= bits
    keys |= sources
    keys.sort()
    keys &= (1 << bits) - 1
    return indptr, keys.astype(sources.dtype)


def peel_residue(alive, sources, sinks):
    """The Kahn peel shared by every acyclicity check: what never peels.

    ``alive`` marks the region's states; ``sources -> sinks`` are its
    edges, every source alive. A sink outside ``alive`` never peels, so
    it pins its predecessors. Rounds remove the alive states with no
    remaining successor, decrementing their predecessors' out-degrees
    through :func:`reverse_csr`. The result marks the residue: the alive
    states that lie on, or can reach, a cycle of the region (or a pinned
    sink). Edge order does not matter, so nothing is sorted stably.

    A peeled state has out-degree zero, so it never appears as a
    predecessor of a later frontier, and a state enters the frontier
    exactly once (the round its counter reaches zero); the residue is
    the alive states whose counter never does.
    """
    _require_numpy()
    n = alive.size
    outdegree = _np.bincount(sources, minlength=n)
    indptr, preds = reverse_csr(sources, sinks, n)
    # Row ends are read through a view, never as ``frontier + 1``: a
    # frontier drawn from ``preds`` has the code dtype, where state
    # ``2**15 - 1`` plus one wraps in int16.
    ends = indptr[1:]
    stamp = _np.empty(n, dtype=_np.int64)
    frontier = _np.flatnonzero(alive & (outdegree == 0))
    while frontier.size:
        starts = indptr[frontier]
        predecessors = preds[_gather_ranges(starts, ends[frontier] - starts)]
        if predecessors.size == 0:
            break
        _np.subtract.at(outdegree, predecessors, 1)
        # Only states whose counter just hit zero can join the frontier.
        frontier = _dedup(predecessors[outdegree[predecessors] == 0], stamp)
    return alive & (outdegree != 0)


class BadRegionPeel:
    """The outcome of :func:`bad_region_acyclic`; truthy iff acyclic.

    ``residue`` holds the ascending positions of the bad states that
    never peel: those on, or able to reach, a bad cycle. They are the
    only states the exact SCC analysis has to look at.
    """

    __slots__ = ("residue",)

    def __init__(self, residue) -> None:
        self.residue = residue

    def __bool__(self) -> bool:
        return self.residue.size == 0


def bad_region_acyclic(bad_mask, offsets, targets) -> BadRegionPeel:
    """Whether the subgraph induced by the bad states is acyclic.

    Runs :func:`peel_residue` over the bad→bad edges of the CSR arrays.
    The region is acyclic iff everything peels away — in which case
    convergence holds under *any* fairness and the exact SCC analysis is
    skipped entirely; otherwise the returned peel carries the residue
    that analysis is confined to.
    """
    _require_numpy()
    degrees = _np.diff(offsets)
    internal = _np.repeat(bad_mask, degrees)
    internal &= bad_mask[targets]
    sources = _np.repeat(
        _np.arange(bad_mask.size, dtype=targets.dtype), degrees
    )[internal]
    residue = peel_residue(bad_mask, sources, targets[internal])
    return BadRegionPeel(_np.flatnonzero(residue))


def peel_shard_edges(lo, hi, bad_slice, sources, sinks):
    """Shard-local :func:`peel_residue` treating out-of-shard sinks as alive.

    ``sources``/``sinks`` are the global codes of the bad→bad edges
    whose source lies in ``lo .. hi-1``; ``bad_slice`` is the bad mask
    over that range. Every in-shard chain that provably drains without
    leaving the shard is peeled here (sound: a state peels only once all
    its bad successors have, and boundary-crossing sinks never do), so
    the streaming verdict path retains only the boundary frontier for
    the global exchange.

    Returns ``(resolved, sources, sinks)``: ``resolved`` marks the
    locally-drained states over the range, and the returned edge arrays
    keep only edges between still-unresolved endpoints (an out-of-shard
    sink counts as unresolved here — the global exchange filters it once
    its own shard has peeled).
    """
    _require_numpy()
    n = hi - lo
    # Every out-of-shard sink becomes one extra state ``n`` that is not
    # alive, so it never peels and pins its predecessors.
    alive = _np.zeros(n + 1, dtype=bool)
    alive[:n] = bad_slice
    local_sources = sources.astype(_np.int64) - lo
    local_sinks = sinks.astype(_np.int64) - lo
    local_sinks[(local_sinks < 0) | (local_sinks >= n)] = n
    peeled = alive & ~peel_residue(alive, local_sources, local_sinks)
    keep = ~peeled[local_sources] & ~peeled[local_sinks]
    return peeled[:n], sources[keep], sinks[keep]


def edge_list_acyclic(sources, sinks, bad_mask) -> bool:
    """:func:`peel_residue` over an explicit global bad→bad edge list.

    The streaming verdict path's boundary-frontier exchange: after the
    shard-local peels (:func:`peel_shard_edges`) drained everything they
    could, ``bad_mask`` marks the still-unresolved bad states and
    ``sources``/``sinks`` the surviving edges between them. The region
    is acyclic iff this global peel empties it — the same fixpoint
    :func:`bad_region_acyclic` computes over a materialized CSR.
    """
    return not peel_residue(bad_mask, sources, sinks).any()


def frontier_reach(offsets, targets, roots, size: int):
    """The states reachable from ``roots``, as a boolean mask.

    Frontier BFS as array gather/scatter: each round gathers the whole
    frontier's CSR edge ranges at once, drops visited states, dedupes
    (:func:`_dedup`) and scatters into the visited mask — no per-state
    Python.
    """
    _require_numpy()
    offsets = _np.asarray(offsets)
    targets = _np.asarray(targets)
    # Row ends through a view, as in :func:`peel_residue`: a frontier
    # drawn from ``targets`` has their (possibly int16) dtype.
    ends = offsets[1:]
    visited = _np.zeros(size, dtype=bool)
    stamp = _np.empty(size, dtype=_np.int64)
    frontier = _dedup(_np.asarray(roots, dtype=_np.int64), stamp)
    visited[frontier] = True
    while frontier.size:
        starts = offsets[frontier]
        successors = targets[_gather_ranges(starts, ends[frontier] - starts)]
        frontier = _dedup(successors[~visited[successors]], stamp)
        visited[frontier] = True
    return visited
