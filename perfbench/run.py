"""The repository benchmark: three workloads behind one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kernel-ladder --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn
    python3 perfbench/run.py --write-manifest            # rewrite BENCHMARK.json

Each run prints its metrics by name and unit, then, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Every answer is checked against the known answers in
``perfbench/oracle.py``; ``failed`` counts wrong verdicts, errors,
non-200 responses, leaked shared-memory segments, daemons that would not
stop and kernel traces that disagree with their verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("kernel-ladder", "library-routes", "service-mixed")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Where runs keep temporary files (verdict stores, daemon logs).
SCRATCH = ".perfbench-tmp"
#: Seconds a run waits for its child processes to end before killing them.
REAP_TIMEOUT = 10.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_manifest:
        parser.error("--workload is required")
    return args


def _child_setup(workload: str, seed: int) -> float:
    """Seconds from a fresh interpreter's start until it is ready to time
    its first request."""
    began = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = child.stdout.readline()
        took = time.perf_counter() - began
    finally:
        child.stdout.close()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up of {workload} failed (exit {code})")
    return took


def _module(workload: str):
    from perfbench import ladder, routes

    return {"kernel-ladder": ladder, "library-routes": routes}[workload]


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    from perfbench import mixed
    from perfbench.layers import consistency_errors, kernel_calls, layer_metrics
    from perfbench.measure import percentile, shm_segments
    from perfbench.spans import SpanRecorder

    shm_before = shm_segments()
    if workload == "service-mixed":
        state = mixed.setup(ROOT, workdir, seed, trace)
        try:
            outcome = mixed.run(state, seconds)
        finally:
            if state.daemon.process.poll() is None:
                state.daemon.stop()
        setup_seconds = state.setup_seconds
    else:
        setup_seconds = [_child_setup(workload, seed) for _ in range(SETUPS)]
        module = _module(workload)
        recorder = SpanRecorder() if trace else None
        try:
            outcome = module.run(module.setup(seed), seconds, recorder)
        finally:
            if recorder is not None:
                recorder.restore()
        if recorder is not None:
            outcome.spans = recorder.spans
    leaked = shm_segments() - shm_before
    if leaked:
        outcome.tally.fail(f"leaked shared-memory segments {sorted(leaked)}")

    for call in kernel_calls(outcome.spans):
        for error in consistency_errors(call):
            outcome.tally.fail(f"trace of {call.span.request}: {error}")
    samples = outcome.samples
    end_to_end = {
        "setup_s": median(setup_seconds),
        "latency_p50_ms": percentile(samples, 0.50) * 1e3,
        "latency_p99_ms": percentile(samples, 0.99) * 1e3,
        **outcome.end_to_end,
    }
    layer = {}
    if trace:
        requests = max(1, outcome.traced_requests)
        layer = layer_metrics(outcome.spans, requests)
        layer.update(outcome.layer)
        layer.update({
            "kernel.table_hits": outcome.table_hits / requests,
            "kernel.table_misses": outcome.table_misses / requests,
            "kernel.mem.peak_bytes": outcome.peak_bytes,
            "tracing_overhead": outcome.tracing_overhead,
            "fail_ratio": outcome.tally.fail_ratio,
        })
    return outcome, end_to_end, layer, setup_seconds


def _report(workload, outcome, end_to_end, layer, setup_seconds, trace) -> dict:
    from perfbench.measure import samples_beyond
    from perfbench.spec import END_TO_END, PER_LAYER

    tally = outcome.tally
    print(f"{workload}: {tally.attempted} requests, {tally.failed} failed "
          f"(fail_ratio {tally.fail_ratio:.6f})")
    for reason, count in tally.reasons.most_common(10):
        print(f"  FAIL x{count}: {reason}")
    print(*outcome.lines, sep="\n")
    n = len(outcome.samples)
    counts = {
        "setup_s": f"n={len(setup_seconds)}",
        "latency_p50_ms": f"n={n}",
        "latency_p99_ms": f"n={n}, {samples_beyond(n, 0.99)} beyond",
    }
    if trace:
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, (unit, _, _) in END_TO_END.items()}
    for name, metric in metrics.items():
        note = counts.get(name, "") if not trace else ""
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']:10s} {note}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _run_all(args) -> int:
    """Every workload in its own process; the last line sums them up."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__)), "--workload", workload,
                   "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="")
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][workload] = result["metrics"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no verifier sources under {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import adopt_orphans, reap_children, stop_resource_tracker
    from perfbench.spec import RUN_SECONDS, write_manifest

    if args.write_manifest:
        print(f"wrote {write_manifest(ROOT)}")
        return 0
    if args.workload == "all":
        return _run_all(args)
    if args.setup_only:
        if args.workload != "service-mixed":
            _module(args.workload).setup(args.seed)
        print("ready", flush=True)
        stop_resource_tracker()
        return 0
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    # A terminated run still stops its daemon and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Orphaned descendants (a set-up child's resource tracker, the daemon's
    # pool workers) come back here, so the run can wait for every one.
    adopt_orphans()
    workdir = ROOT / SCRATCH / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Temporary files of this process and its children stay in the checkout.
    os.environ["TMPDIR"] = str(workdir)
    try:
        results = measure(args.workload, args.seed, seconds, bool(args.trace), workdir)
    finally:
        stop_resource_tracker()
        killed = reap_children(REAP_TIMEOUT)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / SCRATCH).rmdir()
        except OSError:
            pass
    if killed:
        results[0].tally.fail(f"{killed} child processes still running after the run")
    print(json.dumps(_report(args.workload, *results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
