"""Per-layer metrics from recorded spans, and the trace consistency check."""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.spans import KERNEL_PHASES, Span, children, self_times
from perfbench.spec import PER_LAYER

#: Span name -> (per-layer metric, scale from seconds to its unit).
SELF_TIME_METRICS = {
    "kernel.compile": ("kernel.compile_s", 1.0),
    "kernel.plan": ("kernel.plan_s", 1.0),
    "kernel.plan_shards": ("kernel.sweep_s", 1.0),
    "kernel.sweep": ("kernel.sweep_s", 1.0),
    "kernel.stream": ("kernel.sweep_s", 1.0),
    "kernel.closure": ("kernel.closure_s", 1.0),
    "kernel.deadlock": ("kernel.deadlock_s", 1.0),
    "kernel.acyclic": ("kernel.acyclic_s", 1.0),
    "kernel.check": ("kernel.residual_s", 1.0),
    "service.fingerprint": ("service.fingerprint_ms", 1e3),
    "service.lookup": ("service.lookup_ms", 1e3),
    "store.get": ("store.get_ms", 1e3),
    "store.put": ("store.put_ms", 1e3),
    "quantitative.solve": ("quantitative.solve_ms", 1e3),
    "staticcheck.lint": ("staticcheck.lint_ms", 1e3),
    "compositional.certify": ("compositional.certify_ms", 1e3),
    "theorems.validate": ("theorems.validate_ms", 1e3),
    "serialize": ("serialize_ms", 1e3),
    "protocols.build": ("protocols.build_ms", 1e3),
}


@dataclass(frozen=True)
class KernelCall:
    """One ``check_tolerance_packed`` call and the phases it ran."""

    span: Span
    phases: tuple[Span, ...]

    @property
    def route(self) -> str:
        names = {p.name for p in self.phases if p.info is not None}
        if "kernel.stream" in names:
            return "streaming"
        return "vectorized" if "kernel.sweep" in names else "scalar"

    @property
    def covered(self) -> float:
        return sum(p.seconds for p in self.phases if p.name in KERNEL_PHASES)

    @property
    def edges(self) -> int:
        return sum(p.info or 0 for p in self.phases if p.name == "kernel.sweep")


def kernel_calls(spans: list[Span]) -> list[KernelCall]:
    by_parent = children(spans)
    return [
        KernelCall(span, tuple(by_parent.get(span.id, ())))
        for span in spans
        if span.name == "kernel.check" and span.info is not None
    ]


def consistency_errors(call: KernelCall) -> list[str]:
    """Where the decomposed phases disagree with the whole call's report.

    The S- then T-closure scans must give the report's closure bits; a
    bad deadlock is found exactly when the report's counterexample is a
    deadlock; an acyclic bad region means convergence holds outright,
    and a cyclic one hands over to the exact checker, whose answer is
    never a deadlock.
    """
    bits = call.span.info
    errors = []
    closures = [p.info for p in call.phases if p.name == "kernel.closure"]
    for scanned, field in zip(closures, ("s_closure", "t_closure")):
        if scanned != bits[field]:
            errors.append(f"{field}: scan {scanned}, report {bits[field]}")
    deadlock = bits["counterexample"] == "deadlock"
    for phase in call.phases:
        if phase.name == "kernel.deadlock" and bool(phase.info) != deadlock:
            errors.append(f"deadlock: scan {bool(phase.info)}, report {deadlock}")
        if phase.name == "kernel.acyclic":
            if phase.info and not (bits["convergence"] and bits["counterexample"] is None):
                errors.append("acyclic bad region but convergence not proven")
            if not phase.info and deadlock:
                errors.append("cyclic bad region reported as a deadlock")
    return errors


def layer_metrics(spans: list[Span], requests: int) -> dict[str, float]:
    """Every per-layer metric the spans determine; the rest stay 0."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    requests = max(1, requests)
    for name, (seconds, count) in self_times(spans).items():
        target = SELF_TIME_METRICS.get(name)
        if target is not None:
            metric, scale = target
            values[metric] += seconds * scale / requests
        elif name.startswith("route."):
            # Per ask of that route, not per request of the workload.
            values[f"routes.{name[len('route.'):]}_ms"] = seconds * 1e3 / count
    values["compositional.refusals"] = sum(
        1 for span in spans
        if span.name == "compositional.certify" and span.info == "refused"
    ) / requests
    calls = kernel_calls(spans)
    whole = sum(call.span.seconds for call in calls)
    if whole:
        values["kernel.trace_coverage"] = sum(c.covered for c in calls) / whole
    for call in calls:
        values[f"kernel.route.{call.route}"] += 1 / requests
        values["kernel.states"] += call.span.info["states"] / requests
        values["kernel.bad_states"] += call.span.info["bad_states"] / requests
        values["kernel.span_states"] += call.span.info["span_states"] / requests
        values["kernel.edges"] += call.edges / requests
    return values
