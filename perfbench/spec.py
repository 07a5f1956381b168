"""What the benchmark measures: workloads, metrics, units, directions.

``python3 perfbench/run.py --write-manifest`` writes this catalogue to
``BENCHMARK.json``. Which end-to-end metric each per-layer metric should
move, on which workload, is tabled in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = {
    "kernel-ladder": (
        "Cold full-space verdicts on 5 rungs (16K-824K states; span6 is "
        "nonmasking and takes the scalar sweep, ring7-k5 fails); the kernel "
        "does the work. The 10^7 rung is left out on purpose."
    ),
    "library-routes": (
        "Every library case through every route to a verdict, cold then 3 "
        "warm asks; per-call fixed costs dominate, the no-change control "
        "for kernel work."
    ),
    "service-mixed": (
        "A repro serve daemon in a subprocess, 2 keep-alive clients: 80% warm "
        "/verify, 10% quantify misses that fill the store, 10% /lint; the "
        "socket, cache and pool do the work."
    ),
}

#: ``name -> (unit, better, bound)``. Every workload reports every one.
#: On the 2-core shared host this was built on, a plain Python loop's
#: speed swings up to 2x in spells of 10-40 s, 30-second runs spread as
#: widely as 10-second ones, and ten-run quartile spreads of these metrics
#: came out at 0.02-0.27. The bounds therefore sit at the 0.25 ceiling,
#: set-up keeping the largest.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "requests_per_s": ("1/s", "higher", 0.24),
    "states_per_s": ("states/s", "higher", 0.24),
    "latency_p50_ms": ("ms", "lower", 0.24),
    "latency_p99_ms": ("ms", "lower", 0.24),
    "peak_rss_mb": ("MB", "lower", 0.24),
}

RUNGS = ("star7", "ring6", "ring7", "span6", "ring7-k5")
ROUTES = (
    "auto", "dict", "quantify", "lint", "compositional", "validate",
    "budget", "shards", "failing",
)

#: ``name -> unit``. Times and counts are per timed request unless the
#: unit says otherwise; a layer a workload never calls reports 0.
PER_LAYER = {
    "kernel.compile_s": "s",
    "kernel.table_hits": "count/req",
    "kernel.table_misses": "count/req",
    "kernel.plan_s": "s",
    "kernel.sweep_s": "s",
    "kernel.closure_s": "s",
    "kernel.deadlock_s": "s",
    "kernel.acyclic_s": "s",
    "kernel.residual_s": "s",
    "kernel.states": "count/req",
    "kernel.edges": "count/req",
    "kernel.bad_states": "count/req",
    "kernel.span_states": "count/req",
    "kernel.route.vectorized": "count/req",
    "kernel.route.scalar": "count/req",
    "kernel.route.streaming": "count/req",
    "kernel.mem.peak_bytes": "bytes",
    "kernel.trace_coverage": "ratio",
    **{f"verdict_s.{rung}": "s" for rung in RUNGS},
    "service.fingerprint_ms": "ms",
    "service.lookup_ms": "ms",
    "cache.hit_ratio": "ratio",
    "store.get_ms": "ms",
    "store.put_ms": "ms",
    "store.writes": "count/req",
    "store.hits": "count/req",
    "store.misses": "count/req",
    "store.evictions": "count/req",
    "server.call_ms": "ms",
    "server.transport_ms": "ms",
    "server.computed": "count/req",
    "server.deduped": "count/req",
    "server.batches": "count/req",
    "server.batch_size": "count",
    "server.rss_growth_mb": "MB",
    "quantitative.solve_ms": "ms",
    "staticcheck.lint_ms": "ms",
    "compositional.certify_ms": "ms",
    "compositional.refusals": "count/req",
    "theorems.validate_ms": "ms",
    **{f"routes.{route}_ms": "ms" for route in ROUTES},
    "serialize_ms": "ms",
    "protocols.build_ms": "ms",
    "tracing_overhead": "ratio",
    "fail_ratio": "ratio",
}

def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": _better(name)}
            for name, unit in PER_LAYER.items()
        ],
    }


def _better(name: str) -> str:
    higher = ("kernel.table_hits", "cache.hit_ratio", "store.hits",
              "server.deduped", "server.batch_size", "kernel.trace_coverage",
              "kernel.route.vectorized")
    return "higher" if name in higher else "lower"


def write_manifest(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    return path
