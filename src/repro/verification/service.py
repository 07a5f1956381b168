"""The verification service: cached exhaustive verification.

Every benchmark and the CLI used to rebuild full transition systems and
re-run closure/convergence/theorem checks from scratch for every
instance. This module packages those checks behind a service with a
content-addressed cache so repeated verification of the same instance —
within a process, across processes, and across sessions — is answered
from the cache instead of recomputed:

- instances are keyed by :func:`repro.core.fingerprint_instance`
  (an exact structural digest, memoized on the program), so a cache
  entry survives rebuilding the same protocol and is invalidated by any
  change to its variables, domains, guards or statements; a state set
  the caller does not label is keyed by its content;
- **in-memory**: built :class:`TransitionSystem` objects, full verdict
  reports and verdict records are memoized per service instance, each
  tier an LRU bounded by a module-level capacity;
- **on-disk** (optional ``cache_dir``): JSON verdict records persist
  across processes, which is what makes the parallel worker pool in
  :mod:`repro.verification.parallel` and cache-warm benchmark reruns
  cheap. Transition systems are not persisted — they embed program
  callables and are process-local.

The historical liveness analysis that used to live in this module moved
to :mod:`repro.verification.liveness`; its names are re-exported here
for compatibility.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.design import NonmaskingDesign
from repro.core.errors import ValidationError
from repro.core.fingerprint import (
    fingerprint_instance,
    fingerprint_predicate,
    fingerprint_program,
    fingerprint_states,
)
from repro.core.predicates import TRUE, Predicate
from repro.core.program import Program
from repro.core.state import State
from repro.observability import events as ev
from repro.observability.metrics import MetricsRegistry
from repro.observability.report import RunReport
from repro.observability.tracer import Tracer
from repro.quantitative import DEFAULT_FAULT_RATE, QuantitativeReport
from repro.verification.checker import ToleranceReport, _check_tolerance
from repro.verification.explorer import (
    TransitionSystem,
    build_transition_system,
    validate_engine,
)
from repro.verification.store import LRUDict, VerdictStore

__all__ = [
    "METHODS",
    "ServiceVerdict",
    "VerificationService",
    "tolerance_fingerprint",
    "validate_method",
]

#: Valid values of the ``method`` switch on :meth:`verify_tolerance`.
METHODS = ("auto", "full", "compositional")

#: Capacities of a service's in-memory tiers; beyond them the least
#: recently used entry goes. Records are small JSON dicts (an evicted
#: one comes back from the store, if there is one); reports carry
#: witnesses.
RECORD_CAPACITY = 4096
REPORT_CAPACITY = 256

#: The historical liveness analysis moved to
#: :mod:`repro.verification.liveness`; importing its names from this
#: module is deprecated.
_MOVED_TO_LIVENESS = (
    "RecurrentClass",
    "ServiceReport",
    "check_service",
    "recurrent_classes",
)


def __getattr__(name: str) -> Any:
    if name in _MOVED_TO_LIVENESS:
        import warnings

        warnings.warn(
            f"importing {name} from repro.verification.service is "
            f"deprecated; import it from repro.verification.liveness "
            "(or the repro.verification package)",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.verification import liveness

        return getattr(liveness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def tolerance_fingerprint(
    program: Program,
    invariant: Predicate,
    fault_span: Predicate | None = None,
    *,
    fairness: str = "weak",
    method: str = "full",
    states_extra: tuple[str, ...] = ("states=full",),
    quantify: bool = False,
    fault_rate: float = DEFAULT_FAULT_RATE,
) -> str:
    """The cache key of one tolerance verdict, as the service computes it.

    Exposed so out-of-process callers (the daemon, pool orchestration)
    can address the same cache entries the service reads and writes —
    ``method`` must be the *resolved* method (``"full"`` or
    ``"compositional"``), never ``"auto"``. A quantify-carrying record
    embeds the quantitative report, so ``quantify`` (and the
    ``fault_rate`` it was computed under) are part of the key: plain and
    quantitative verdicts of the same instance never collide.
    """
    extra = states_extra + (f"method={method}",)
    if quantify:
        extra = extra + (f"quantify=rate{fault_rate!r}",)
    return fingerprint_instance(
        program, invariant,
        fault_span if fault_span is not None else TRUE,
        fairness=fairness,
        extra=extra,
    )


def _states_token(states: list[State], states_key: str | None) -> str:
    """The key part naming a supplied state set: the caller's label, or
    a digest of the content."""
    return states_key if states_key is not None else fingerprint_states(states)


def validate_method(method: str) -> None:
    """Raise :class:`~repro.core.errors.ValidationError` unless ``method``
    is one of :data:`METHODS`."""
    if method not in METHODS:
        raise ValidationError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )


@dataclass(frozen=True)
class ServiceVerdict:
    """The service's answer to one tolerance-verification request.

    ``record`` is the JSON-able verdict summary (the unit of caching);
    ``report`` is the full :class:`ToleranceReport` with witnesses and
    counterexamples, available unless the verdict came from the on-disk
    cache of another process or the report left the bounded report tier.
    """

    record: dict[str, Any]
    report: ToleranceReport | None
    cached: bool
    #: "" (computed), "memory" or "disk".
    cache_layer: str
    #: Wall-clock seconds spent answering *this* call.
    seconds: float

    @property
    def ok(self) -> bool:
        return bool(self.record["ok"])

    @property
    def quantitative(self) -> QuantitativeReport | None:
        """The attached quantitative report (``quantify=True`` verdicts).

        Rebuilt from the cached record, so it is available whether the
        verdict was computed now or answered from any cache layer.
        """
        data = self.record.get("quantitative")
        if data is None:
            return None
        return QuantitativeReport.from_record(data)

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict[str, Any]:
        """JSON-able verdict: the cached record plus call provenance."""
        return {
            **self.record,
            "cached": self.cached,
            "cache_layer": self.cache_layer,
            "call_seconds": self.seconds,
        }

    def describe(self) -> str:
        suffix = f" [cache: {self.cache_layer}]" if self.cached else ""
        if self.record.get("method") == "compositional":
            r = self.record
            if r.get("status") == "refused":
                return (
                    f"compositional certification REFUSED for {r['case']}: "
                    f"{r['refusal']}"
                )
            kind = r["classification"] + (
                " (stabilizing)" if r["stabilizing"] else ""
            )
            return (
                f"T-tolerant for S [{kind}] by {r['theorem']}{suffix}\n"
                f"  compositional: {r['obligations']} obligations over "
                f"{r['edges']} edges, max projection {r['max_projection']} "
                f"of {r['total_states']} states"
            )
        if "lint" in self.record:
            lint = self.record["lint"]
            counts = lint["counts"]
            lines = [
                f"lint precheck FAILED for {self.record['case']}: "
                f"{counts['error']} error(s), {counts['warning']} warning(s) — "
                "state-space verification was not attempted",
            ]
            lines.extend(
                f"  {d['code']} {d['severity']}: {d['subject']}: {d['message']}"
                for d in lint["diagnostics"]
            )
            return "\n".join(lines)
        if self.report is not None:
            return self.report.describe() + suffix + self._quantitative_suffix()
        r = self.record
        verdict = "T-tolerant for S" if r["ok"] else "NOT T-tolerant for S"
        kind = r["classification"] + (" (stabilizing)" if r["stabilizing"] else "")
        return "\n".join(
            [
                f"{verdict} [{kind}] over {r['total_states']} states{suffix}",
                f"  S => T: {'ok' if r['implication_ok'] else 'FAIL'}",
                f"  closure of S: {'ok' if r['s_closure_ok'] else 'FAIL'}",
                f"  closure of T: {'ok' if r['t_closure_ok'] else 'FAIL'}",
                f"  convergence: "
                f"{'converges' if r['convergence_ok'] else 'does NOT converge'} "
                f"under {r['fairness']!r} fairness "
                f"({r['span_states']} span states, "
                f"{r['bad_states']} outside target)",
            ]
        ) + self._quantitative_suffix()

    def _quantitative_suffix(self) -> str:
        quantitative = self.quantitative
        if quantitative is None:
            return ""
        return "\n" + quantitative.describe()


def _tolerance_record(
    report: ToleranceReport, *, case: str, fairness: str, engine: str, seconds: float
) -> dict[str, Any]:
    return {
        "case": case,
        "engine": engine,
        "method": "full",
        "ok": report.ok,
        "implication_ok": report.implication_ok,
        "s_closure_ok": report.s_closure.ok,
        "t_closure_ok": report.t_closure.ok,
        "convergence_ok": report.convergence.ok,
        "classification": report.classification,
        "stabilizing": report.stabilizing,
        "total_states": report.total_states,
        "span_states": report.convergence.span_states,
        "bad_states": report.convergence.bad_states,
        "fairness": fairness,
        "seconds": seconds,
    }


def _compositional_record(
    certificate, *, case: str, fairness: str, seconds: float
) -> dict[str, Any]:
    counts = {"enumerated": 0, "disjoint-writes": 0, "trivial": 0, "static": 0}
    for obligation in certificate.obligations:
        counts[obligation.discharged_by] += 1
    return {
        "case": case,
        "method": "compositional",
        "ok": certificate.ok,
        "status": certificate.status,
        "refusal": certificate.refusal,
        "theorem": certificate.theorem,
        "classification": certificate.classification,
        "stabilizing": certificate.stabilizing,
        "obligations": len(certificate.obligations),
        "enumerated": counts["enumerated"],
        "vacuous": counts["disjoint-writes"],
        "trivial": counts["trivial"],
        "static": counts["static"],
        "edges": certificate.edges,
        "max_projection": certificate.max_projection,
        "total_states": certificate.total_states,
        "fairness": fairness,
        "seconds": seconds,
    }


class _CompositionalRefused(Exception):
    """Internal: the certifier refused — never cache, maybe fall back."""

    def __init__(self, certificate) -> None:
        super().__init__(certificate.refusal)
        self.certificate = certificate


class VerificationService:
    """Cached closure/convergence/theorem verification.

    One service instance owns one in-memory cache; pass ``cache_dir`` to
    add a persistent JSON layer shared between service instances and
    between processes (the parallel worker pool relies on this).

    Observability is opt-in: pass ``tracer=`` to emit ``cache.hit`` /
    ``cache.miss`` events, and ``metrics=`` (a
    :class:`~repro.observability.MetricsRegistry`) to aggregate cache
    counters and per-verdict wall-clock timers — both default to
    ``None`` and cost a single ``is not None`` check per cache lookup
    when unused. The plain integer counters (``hits``, ``misses`` and
    the per-layer splits) are always maintained; :meth:`stats` and
    :meth:`report` expose them.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        *,
        store: VerdictStore | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if store is not None:
            self.store: VerdictStore | None = store
        elif cache_dir is not None:
            # Flat, unbounded, no warm tier: byte-identical to the
            # historical layout, so pool workers sharing a cache_dir
            # keep interoperating across versions. No tracer/metrics —
            # the service's own cache.hit/cache.miss layer already
            # covers this store one-to-one; ``store.*`` events belong
            # to explicitly constructed (daemon-grade) stores.
            self.store = VerdictStore(cache_dir, shards=0, warm_capacity=0)
        else:
            self.store = None
        self.cache_dir = self.store.root if self.store is not None else None
        self.tracer = tracer
        self.metrics = metrics
        self._records: LRUDict = LRUDict(RECORD_CAPACITY)
        self._reports: LRUDict = LRUDict(REPORT_CAPACITY)
        self._systems: LRUDict = LRUDict(16)
        self.hits = 0
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
        #: Wall-clock seconds spent actually computing verdict records
        #: (cache misses) vs. answering from a cache layer.
        self.seconds_computing = 0.0
        self.seconds_cached = 0.0

    # ------------------------------------------------------------------
    # Generic record memoization (in-memory + on-disk JSON)
    # ------------------------------------------------------------------

    def _note_hit(self, kind: str, key: str, layer: str) -> None:
        self.hits += 1
        if layer == "memory":
            self.hits_memory += 1
        else:
            self.hits_disk += 1
        if self.metrics is not None:
            self.metrics.counter("cache.hit").add()
            self.metrics.counter(f"cache.hit.{layer}").add()
        if self.tracer is not None:
            self.tracer.emit(
                ev.CACHE_HIT, record_kind=kind, key=key[:16], layer=layer
            )

    def _note_verdict(self, operation: str, layer: str, seconds: float) -> None:
        """Fold one answered request into the wall-clock aggregates."""
        if layer:
            self.seconds_cached += seconds
        else:
            self.seconds_computing += seconds
        if self.metrics is not None:
            suffix = "cached" if layer else "computed"
            self.metrics.timer(f"{operation}.{suffix}").record(seconds)

    def _note_miss(self, kind: str, key: str) -> None:
        self.misses += 1
        if self.metrics is not None:
            self.metrics.counter("cache.miss").add()
        if self.tracer is not None:
            self.tracer.emit(ev.CACHE_MISS, record_kind=kind, key=key[:16])

    def memo(
        self,
        kind: str,
        key: str,
        compute: Callable[[], dict[str, Any]],
    ) -> tuple[dict[str, Any], str]:
        """The cached record for ``(kind, key)``, computing it on a miss.

        Returns ``(record, layer)`` where ``layer`` is ``""`` when the
        record was computed now, else ``"memory"`` or ``"disk"``.
        """
        memo_key = (kind, key)
        record = self._records.get(memo_key)
        if record is not None:
            self._note_hit(kind, key, "memory")
            return record, "memory"
        if self.store is not None:
            record = self.store.get(kind, key)
            if record is not None:
                self._records[memo_key] = record
                self._note_hit(kind, key, "disk")
                return record, "disk"
        self._note_miss(kind, key)
        record = compute()
        self._records[memo_key] = record
        if self.store is not None:
            # Atomic tempfile + os.replace publication inside the store:
            # concurrent workers race benignly and an interrupted writer
            # can never leave a partial (cache-poisoning) entry behind.
            self.store.put(kind, key, record)
        return record, ""

    def cached_record(
        self, kind: str, key: str, *, count_miss: bool = False
    ) -> tuple[dict[str, Any], str] | None:
        """Peek the cache for ``(kind, key)`` without ever computing.

        Returns ``(record, layer)`` on a hit (counting it as usual), or
        ``None`` — the daemon uses this to answer warm requests inline
        and route only true misses onto the worker pool. A miss is
        normally silent (probing several candidate keys for one request
        must not inflate the counters); pass ``count_miss=True`` on the
        last probe so each fully-missed request counts exactly once.
        """
        memo_key = (kind, key)
        record = self._records.get(memo_key)
        if record is not None:
            self._note_hit(kind, key, "memory")
            return record, "memory"
        if self.store is not None:
            record = self.store.get(kind, key)
            if record is not None:
                self._records[memo_key] = record
                self._note_hit(kind, key, "disk")
                return record, "disk"
        if count_miss:
            self._note_miss(kind, key)
        return None

    def ingest(self, kind: str, key: str, record: dict[str, Any]) -> None:
        """Adopt an externally computed ``record`` into every cache layer.

        The daemon verifies cache misses on the process pool (whose
        workers cannot share this service's memory); ingesting the
        returned records makes later duplicates memory hits here and
        persists them through the store.
        """
        self._records[(kind, key)] = record
        if self.store is not None:
            self.store.put(kind, key, record)

    # ------------------------------------------------------------------
    # Transition systems
    # ------------------------------------------------------------------

    def transition_system(
        self,
        program: Program,
        states: Iterable[State],
        *,
        states_key: str,
        engine: str = "auto",
    ) -> TransitionSystem:
        """The (memoized) transition graph of ``program`` over ``states``.

        ``states_key`` discriminates different state sets of the same
        program (e.g. ``"full"`` vs a window label); the full key also
        covers the program fingerprint. ``engine`` selects the packed or
        dict representation (see :func:`build_transition_system`) and is
        part of the memo key — the two representations are behaviourally
        interchangeable but not the same object shape.
        """
        key = f"{fingerprint_program(program)}:{states_key}:{engine}"
        system = self._systems.get(key)
        if system is None:
            system = build_transition_system(program, states, engine=engine)
            self._systems[key] = system
        return system

    # ------------------------------------------------------------------
    # Tolerance verification
    # ------------------------------------------------------------------

    def verify_tolerance(
        self,
        program: Program,
        invariant: Predicate,
        fault_span: Predicate | None = None,
        states: Iterable[State] | None = None,
        *,
        fairness: str = "weak",
        engine: str = "auto",
        method: str = "auto",
        design: NonmaskingDesign | None = None,
        case: str | None = None,
        states_key: str | None = None,
        lint: bool = False,
        max_states: int | None = None,
        shards: int | None = None,
        memory_budget: int | None = None,
        quantify: bool = False,
        fault_rate: float = DEFAULT_FAULT_RATE,
    ) -> ServiceVerdict:
        """Cached tolerance verification (the engine behind :func:`repro.verify`).

        Args:
            program: The augmented program.
            invariant: ``S``.
            fault_span: ``T``; defaults to ``TRUE`` (stabilization).
            states: The instance's state set; defaults to the full state
                space. Without ``states_key`` the set is keyed by a
                digest of its content, which costs one pass over it on
                every call.
            fairness: Computation model for convergence.
            engine: ``"packed"``, ``"dict"`` or ``"auto"`` (see
                :func:`~repro.verification.checker.check_tolerance`). The
                engine is **not** part of the cache key — both engines
                produce identical verdicts — but the record notes which
                one computed it under ``record["engine"]``.
            method: ``"full"`` explores the product state space;
                ``"compositional"`` certifies from per-edge projections
                (:mod:`repro.compositional` — requires ``design`` and the
                full state space, and returns a failed, *uncached*
                verdict naming the refused obligation when the theorems
                do not apply); ``"auto"`` (default) tries compositional
                when a design is available and silently falls back to
                full exploration on refusal. The method **is** part of
                the cache key — the two methods certify through different
                evidence — and is recorded under ``record["method"]``.
            design: The :class:`~repro.core.design.NonmaskingDesign` the
                instance came from; enables the compositional method.
                ``design.program`` must be the same instance as
                ``program``.
            case: Display name recorded in the verdict.
            states_key: Cache discriminator for the state set. The caller
                vouches that equal labels mean equal sets.
            lint: Run the :mod:`repro.staticcheck` passes first and, on
                any error-severity finding, short-circuit with a failed
                verdict carrying the lint report under ``record["lint"]``
                instead of exploring the state space. The lint costs
                O(actions x probe states); a failed precheck is never
                cached (fixing the declarations must retrigger it).
            max_states: Full-space size guard threaded to both engines
                (``None`` means the library default). Like the engine, it
                is not part of the cache key: it never changes a verdict,
                only whether oversize instances error out before one.
            shards: Shard count for the packed engine's vectorized
                full-space sweep; ``None`` picks automatically (one shard
                until the space is large enough to amortize worker
                startup). It never changes which route runs, and explicit
                ``states`` and the scalar fallback ignore it. Sharded and
                unsharded runs are bit-identical, so this is not part of
                the cache key either.
            memory_budget: Peak-bytes target for the packed engine's
                vectorized full-space sweep; above it the streaming
                count-only path runs (see
                :func:`~repro.kernel.verify.check_tolerance_packed`);
                explicit ``states`` and the scalar fallback ignore it.
                Like ``shards``, it is a memory/latency trade that never
                changes verdicts, so it is not part of the cache key.
            quantify: Also run the quantitative tolerance analysis
                (:func:`repro.quantitative.quantify`) over the instance
                and attach its report under ``record["quantitative"]``
                (surfaced as :attr:`ServiceVerdict.quantitative`).
                Quantification needs the explored state space, so it
                composes with full exploration only: ``method="auto"``
                resolves to ``"full"`` and an explicit
                ``method="compositional"`` is a
                :class:`~repro.core.errors.ValidationError`. Quantified
                records carry strictly more than plain ones, so
                ``quantify`` (with its ``fault_rate``) **is** part of
                the cache key.
            fault_rate: Relative fault-action weight for the weighted
                convergence expectation (quantify only).
        """
        validate_engine(engine)
        validate_method(method)
        if quantify and method == "compositional":
            raise ValidationError(
                "quantify=True requires state-space exploration; it cannot "
                "be combined with method='compositional' (use method='full' "
                "or 'auto')"
            )
        if method == "compositional" and design is None:
            raise ValidationError(
                "method='compositional' requires the design= argument; "
                "only a NonmaskingDesign carries the constraint graph the "
                "certifier decomposes over"
            )
        span = fault_span if fault_span is not None else TRUE
        started = time.perf_counter()
        if lint:
            from repro.staticcheck import lint_program

            lint_report = lint_program(
                program,
                invariant=invariant,
                tracer=self.tracer,
                metrics=self.metrics,
                subject=case if case is not None else program.name,
            )
            if not lint_report.ok:
                elapsed = time.perf_counter() - started
                return ServiceVerdict(
                    record={
                        "case": case if case is not None else program.name,
                        "ok": False,
                        "lint_ok": False,
                        "lint": lint_report.as_dict(),
                        "fairness": fairness,
                        "seconds": elapsed,
                    },
                    report=None,
                    cached=False,
                    cache_layer="",
                    seconds=elapsed,
                )
        if states is None:
            state_list: list[State] | None = None
            extra = ("states=full",)
        else:
            state_list = list(states)
            extra = (_states_token(state_list, states_key),)
        name = case if case is not None else program.name

        if method != "full" and design is not None and not quantify:
            verdict = self._verify_compositional(
                program,
                invariant,
                span,
                design,
                fairness=fairness,
                method=method,
                extra=extra,
                name=name,
                supplied_states=states is not None,
                started=started,
            )
            if verdict is not None:
                return verdict
            # auto: the certifier refused — fall back to full exploration.

        key = tolerance_fingerprint(
            program, invariant, span, fairness=fairness,
            method="full", states_extra=extra,
            quantify=quantify, fault_rate=fault_rate,
        )

        def compute() -> dict[str, Any]:
            from repro.kernel import kernel_supported

            compute_started = time.perf_counter()
            resolved = engine
            if resolved == "auto":
                resolved = "packed" if kernel_supported(program) else "dict"
            if resolved == "packed" and engine == "auto":
                # ``kernel_supported`` vets the program, but a *supplied*
                # state can still carry an out-of-domain value only the
                # codec notices; fall back per the auto contract.
                from repro.kernel import PackedUnsupported

                try:
                    report = _check_tolerance(
                        program,
                        invariant,
                        span,
                        state_list,
                        fairness=fairness,
                        engine="packed",
                        max_states=max_states,
                        shards=shards,
                        memory_budget=memory_budget,
                        tracer=self.tracer,
                        metrics=self.metrics,
                    )
                except PackedUnsupported:
                    resolved = "dict"
                    report = _check_tolerance(
                        program, invariant, span, state_list,
                        fairness=fairness, engine="dict",
                        max_states=max_states,
                    )
            else:
                report = _check_tolerance(
                    program,
                    invariant,
                    span,
                    state_list,
                    fairness=fairness,
                    engine=resolved,
                    max_states=max_states,
                    shards=shards,
                    memory_budget=memory_budget,
                    tracer=self.tracer,
                    metrics=self.metrics,
                )
            quantitative = None
            if quantify:
                from repro.quantitative import quantify as run_quantify

                quantitative = run_quantify(
                    program,
                    invariant,
                    span,
                    state_list,
                    engine=engine,
                    fault_rate=fault_rate,
                    shards=shards,
                    memory_budget=memory_budget,
                    case=name,
                    tracer=self.tracer,
                    metrics=self.metrics,
                ).to_json()
            seconds = time.perf_counter() - compute_started
            self._reports[key] = report
            record = _tolerance_record(
                report, case=name, fairness=fairness, engine=resolved,
                seconds=seconds,
            )
            if quantitative is not None:
                record["quantitative"] = quantitative
            return record

        record, layer = self.memo("tolerance", key, compute)
        elapsed = time.perf_counter() - started
        self._note_verdict("verify_tolerance", layer, elapsed)
        return ServiceVerdict(
            record=record,
            report=self._reports.get(key),
            cached=bool(layer),
            cache_layer=layer,
            seconds=elapsed,
        )

    def _verify_compositional(
        self,
        program: Program,
        invariant: Predicate,
        span: Predicate,
        design: NonmaskingDesign,
        *,
        fairness: str,
        method: str,
        extra: tuple[str, ...],
        name: str,
        supplied_states: bool,
        started: float,
    ) -> ServiceVerdict | None:
        """The compositional leg of :meth:`verify_tolerance`.

        Returns a :class:`ServiceVerdict` when the request is answered
        compositionally — a (cached) certificate, or a failed *uncached*
        refusal when ``method="compositional"`` was explicit. Returns
        ``None`` when ``method="auto"`` and the certifier refused, so the
        caller falls back to full exploration. Refused certifications are
        never cached: they carry no verdict, and fixing the design must
        retrigger them.
        """
        from repro.compositional import certify_compositional

        key = tolerance_fingerprint(
            program, invariant, span, fairness=fairness,
            method="compositional", states_extra=extra,
        )

        def compute() -> dict[str, Any]:
            compute_started = time.perf_counter()
            if supplied_states:
                # A state subset cannot be certified edge-locally: the
                # projections quantify over the full product space.
                from repro.compositional import CompositionalCertificate

                raise _CompositionalRefused(
                    CompositionalCertificate(
                        design=design.name,
                        theorem="",
                        status="refused",
                        classification="",
                        stabilizing=False,
                        obligations=(),
                        refusal="supplied-states: compositional "
                        "certification covers the full state space only",
                        total_states=0,
                        max_projection=0,
                        seconds=0.0,
                    )
                )
            certificate = certify_compositional(
                design,
                fairness=fairness,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            if not certificate.ok:
                raise _CompositionalRefused(certificate)
            return _compositional_record(
                certificate,
                case=name,
                fairness=fairness,
                seconds=time.perf_counter() - compute_started,
            )

        try:
            record, layer = self.memo("tolerance", key, compute)
        except _CompositionalRefused as refused:
            if method != "compositional":
                return None  # auto: fall back to full exploration
            elapsed = time.perf_counter() - started
            return ServiceVerdict(
                record=_compositional_record(
                    refused.certificate,
                    case=name,
                    fairness=fairness,
                    seconds=elapsed,
                ),
                report=None,
                cached=False,
                cache_layer="",
                seconds=elapsed,
            )
        elapsed = time.perf_counter() - started
        self._note_verdict("verify_tolerance", layer, elapsed)
        return ServiceVerdict(
            record=record,
            report=None,
            cached=bool(layer),
            cache_layer=layer,
            seconds=elapsed,
        )

    # ------------------------------------------------------------------
    # Theorem certificates
    # ------------------------------------------------------------------

    def validate_design(
        self,
        design: NonmaskingDesign,
        states: Iterable[State],
        *,
        theorem: str = "auto",
        case: str | None = None,
        states_key: str | None = None,
    ) -> dict[str, Any]:
        """Cached theorem-certificate validation of a nonmasking design.

        Returns a JSON-able record summarizing the certificate; the full
        :class:`~repro.core.design.DesignReport` is recomputed only on a
        cache miss.
        """
        started = time.perf_counter()
        state_list = list(states)
        name = case if case is not None else design.name
        tokens = [f"theorem={theorem}", _states_token(state_list, states_key)]
        tokens.extend(
            fingerprint_predicate(c.predicate)
            for c in design.candidate.constraints
        )
        key = fingerprint_instance(
            design.program,
            design.candidate.invariant,
            design.candidate.fault_span,
            extra=tuple(tokens),
        )

        def compute() -> dict[str, Any]:
            compute_started = time.perf_counter()
            report = design.validate(state_list, theorem=theorem)
            seconds = time.perf_counter() - compute_started
            certificate = report.selected
            return {
                "case": name,
                "ok": report.ok,
                "theorem": certificate.theorem,
                "conditions": len(certificate.conditions),
                "conditions_ok": sum(1 for c in certificate.conditions if c.ok),
                "states": len(state_list),
                "seconds": seconds,
            }

        record, layer = self.memo("design", key, compute)
        self._note_verdict("validate_design", layer, time.perf_counter() - started)
        return record

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Cache-effectiveness counters for reports and benchmarks.

        ``hits`` is always ``hits_memory + hits_disk``;
        ``seconds_computing`` / ``seconds_cached`` split the total
        answering wall-clock by whether a cache layer supplied the
        record.
        """
        return {
            "hits": self.hits,
            "hits_memory": self.hits_memory,
            "hits_disk": self.hits_disk,
            "misses": self.misses,
            "records": len(self._records),
            "systems": len(self._systems),
            "seconds_computing": self.seconds_computing,
            "seconds_cached": self.seconds_cached,
        }

    def report(self, **meta) -> RunReport:
        """A :class:`~repro.observability.RunReport` of this service.

        Counters come from :meth:`stats`; timers come from the attached
        metrics registry when one was passed at construction (empty
        otherwise). Extra keyword arguments land in the report's
        ``meta``.
        """
        stats = self.stats()
        counters = {
            "cache.hit": self.hits,
            "cache.hit.memory": self.hits_memory,
            "cache.hit.disk": self.hits_disk,
            "cache.miss": self.misses,
            "records": int(stats["records"]),
            "systems": int(stats["systems"]),
        }
        if self.metrics is not None:
            # Surface registry-only counters (e.g. the packed engine's
            # ``kernel.*``) next to the service's own cache counters.
            for name, counter in sorted(self.metrics.counters.items()):
                counters.setdefault(name, counter.count)
        timers = (
            {
                name: timer.snapshot()
                for name, timer in sorted(self.metrics.timers.items())
            }
            if self.metrics is not None
            else {}
        )
        return RunReport(
            counters=counters,
            timers=timers,
            meta={
                "seconds_computing": round(self.seconds_computing, 6),
                "seconds_cached": round(self.seconds_cached, 6),
                **meta,
            },
        )
