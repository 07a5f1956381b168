"""E21 — quantitative tolerance league table over the protocol library.

For every registered protocol this experiment runs the full quantitative
analysis (:func:`repro.quantitative.quantify`): random-daemon expected
convergence time, the fault-rate-weighted expectation, the adversarial
worst-case span, and the masking-distance-style score — and renders them
as one league table, ranked by score. The CSR value iteration's
agreement with a dense reference solve is pinned by the test suite
(``tests/test_quantitative.py::TestLibraryDifferential``), not here.

Timings land in ``BENCH_verification.json`` under the ``quantitative``
suite. The CI perf smoke runs the league plus the cache-key separation
of quantified verdicts::

    PYTHONPATH=src python benchmarks/bench_e21_quantitative.py --quick
"""

import json
import math
import time

from repro.analysis import render_table
from repro.protocols.library import CASES, build_case
from repro.quantitative import hitting_times, quantify


def _fmt(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.3f}"


def league_table() -> list[dict]:
    """Quantify every library protocol at its registered default size."""
    rows = []
    for name, entry in CASES.items():
        program, invariant = build_case(name, entry.default_size)
        started = time.perf_counter()
        report = quantify(program, invariant, case=f"{name} (n={entry.default_size})")
        rows.append(
            {
                "case": name,
                "size": entry.default_size,
                "states": report.states,
                "mean_steps": report.mean_steps,
                "weighted_mean_steps": report.weighted_mean_steps,
                "worst_case_steps": report.worst_case_steps,
                "score": report.score,
                "path": report.path,
                "converged": report.converged,
                "seconds": time.perf_counter() - started,
            }
        )
    rows.sort(key=lambda row: row["score"], reverse=True)
    return rows


def cache_key_separation() -> None:
    """A quantified verdict must not collide with the plain verdict."""
    import repro
    from repro.verification import VerificationService

    service = VerificationService()
    plain = repro.verify("coloring-chain", size=3, service=service)
    quantified = repro.verify("coloring-chain", size=3, quantify=True,
                              service=service)
    assert plain.quantitative is None
    assert quantified.cached is False, "quantify hit the plain cache entry"
    assert quantified.quantitative is not None
    again = repro.verify("coloring-chain", size=3, quantify=True,
                         service=service)
    assert again.cached and again.quantitative == quantified.quantitative


def test_e21_quantitative_league(benchmark, report, bench_timings):
    program, invariant = build_case("dijkstra-ring", 3)
    states = list(program.state_space())
    benchmark(lambda: hitting_times(program, states, invariant))

    cache_key_separation()

    rows = league_table()
    assert all(row["converged"] for row in rows)
    assert all(0.0 <= row["score"] < 1.0 for row in rows)
    table = render_table(
        ["protocol", "n", "states", "E[steps]", "weighted E",
         "worst case", "score", "path", "seconds"],
        [
            [
                row["case"],
                row["size"],
                row["states"],
                _fmt(row["mean_steps"]),
                _fmt(row["weighted_mean_steps"]),
                _fmt(row["worst_case_steps"]),
                f"{row['score']:.4f}",
                row["path"],
                f"{row['seconds']:.3f}",
            ]
            for row in rows
        ],
        title="E21: quantitative tolerance league (ranked by score)",
    )
    report("e21_quantitative", table)
    bench_timings("quantitative", {"league": rows})


# ----------------------------------------------------------------------
# CI perf smoke: python benchmarks/bench_e21_quantitative.py --quick
# ----------------------------------------------------------------------


def run_quick() -> int:
    """Seconds-scale smoke: cache-key separation + the league."""
    print("quantitative perf smoke: cache keys + league")
    try:
        cache_key_separation()
        print("  cache keys: quantify records separate from plain verdicts")
        rows = league_table()
    except AssertionError as error:
        print(f"  FAILED: {error}")
        return 1
    slowest = max(rows, key=lambda row: row["seconds"])
    print(f"  league: {len(rows)} protocols, all converged; slowest "
          f"{slowest['case']} at {slowest['seconds']:.3f}s ({slowest['path']})")
    print("quantitative perf smoke: OK")
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="run the seconds-scale CI smoke instead of the full league",
    )
    arguments = parser.parse_args()
    if arguments.quick:
        sys.exit(run_quick())
    from conftest import record_verification_timings

    league = league_table()
    record_verification_timings("quantitative", {"league": league})
    print(json.dumps({"league": league}, indent=2))
