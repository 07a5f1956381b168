"""service-mixed: a ``repro serve`` daemon under a closed-loop request mix.

The daemon runs in a subprocess with a 2-process pool and a per-run
verdict store. It is warmed over a roster of library instances; then
two keep-alive connections (one thread each, no more than the machine's
2 cores) each send their next seeded request as soon as the previous one
is answered:

- 80% warm ``/verify`` of a roster instance (reads);
- 10% ``/verify`` with ``quantify`` and a fresh seeded ``fault_rate``:
  a guaranteed miss that builds, fingerprints, batches, computes and
  writes the store (writes);
- 10% ``/lint`` of a roster instance.

Writes sit beside reads, so a change that speeds hits by slowing fills
shows in the tail.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any

from perfbench import oracle
from perfbench.measure import process_memory_mb
from perfbench.outcome import Outcome
from perfbench.spans import Span

CLIENTS = 2
POOL_WORKERS = 2
SETUPS = 3
#: Requests generated per run; far more than a run can send.
PLAN_LENGTH = 200_000
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0

ROSTER = (
    ("dijkstra-ring", 3), ("dijkstra-ring", 4), ("dijkstra-ring", 5),
    ("mis-cycle", 4), ("mis-cycle", 5),
    ("matching-cycle", 3), ("matching-cycle", 4),
    ("coloring-chain", 3), ("coloring-chain", 4),
    ("diffusing-chain", 3), ("diffusing-star", 3),
    ("leader-election-star", 3),
    ("four-state-line", 4), ("four-state-line", 5),
    ("graph-coloring-cycle", 4),
)


def request_plan(seed: int, count: int) -> list[tuple[str, dict[str, Any]]]:
    """The seeded ``(path, body)`` requests of one run."""
    rng = random.Random(seed)
    plan = []
    for _ in range(count):
        draw = rng.random()
        case, size = rng.choice(ROSTER)
        body: dict[str, Any] = {"case": case, "size": size}
        if draw < 0.8:
            plan.append(("/verify", body))
        elif draw < 0.9:
            body.update(quantify=True, fault_rate=rng.uniform(0.01, 1.0))
            plan.append(("/verify", body))
        else:
            plan.append(("/lint", body))
    return plan


def check_response(path: str, body: dict, status: int, answer: dict) -> str:
    """Why a response is wrong; ``""`` when it is right."""
    if status != 200:
        return f"HTTP {status}: {answer.get('error', '')}"
    if path == "/lint":
        return "" if answer.get("ok") is True else "lint not clean"
    reason = oracle.mismatch(oracle.LIBRARY[(body["case"], body["size"])], answer)
    if not reason and body.get("quantify") and "quantitative" not in answer:
        reason = "no quantitative report"
    return reason


def _call(connection, path: str, body: dict | None = None) -> tuple[int, dict]:
    if body is None:
        connection.request("GET", path)
    else:
        connection.request(
            "POST", path, body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
    response = connection.getresponse()
    return response.status, json.loads(response.read())


@dataclass
class Daemon:
    process: subprocess.Popen
    port: int
    log: Path
    spans_file: Path | None

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def stats(self) -> dict:
        connection = self.connect()
        try:
            return _call(connection, "/stats")[1]
        finally:
            connection.close()

    def stop(self) -> str:
        """Stop the daemon; why it did not exit cleanly, or ``""``."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return "daemon did not exit on SIGTERM"
        return "" if code == 0 else f"daemon exited with code {code}"


def start_daemon(root: Path, workdir: Path, index: int, traced: bool) -> Daemon:
    log = workdir / f"daemon-{index}.log"
    serve = ["--port", "0", "--workers", str(POOL_WORKERS),
             "--cache", str(workdir / f"store-{index}")]
    spans_file = workdir / f"spans-{index}.json" if traced else None
    if traced:
        command = [sys.executable, str(root / "perfbench" / "daemon.py"),
                   str(spans_file), *serve]
    else:
        command = [sys.executable, "-m", "repro", "serve", *serve]
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    with open(log, "wb") as out:
        process = subprocess.Popen(
            command, cwd=root, env=env, stdout=out, stderr=subprocess.STDOUT
        )
    deadline = time.monotonic() + START_TIMEOUT
    marker = "listening on http://127.0.0.1:"
    while time.monotonic() < deadline:
        text = log.read_text(errors="replace")
        if marker in text:
            port = int(text.split(marker, 1)[1].split()[0].rstrip("/"))
            return Daemon(process, port, log, spans_file)
        if process.poll() is not None:
            break
        time.sleep(0.01)
    Daemon(process, 0, log, None).stop()
    raise RuntimeError(f"daemon did not start:\n{log.read_text(errors='replace')}")


def warm_up(daemon: Daemon, outcome: Outcome) -> None:
    connection = daemon.connect()
    try:
        for case, size in ROSTER:
            for path in ("/verify", "/lint"):
                body = {"case": case, "size": size}
                status, answer = _call(connection, path, body)
                reason = check_response(path, body, status, answer)
                outcome.tally.record(not reason, f"warm-up {path} {case}/{size}: {reason}")
    finally:
        connection.close()


@dataclass
class State:
    root: Path
    workdir: Path
    seed: int
    traced: bool
    outcome: Outcome = field(default_factory=Outcome)
    setup_seconds: list[float] = field(default_factory=list)
    daemon: Daemon | None = None


def setup(root: Path, workdir: Path, seed: int, traced: bool) -> State:
    """Start and warm the daemon ``SETUPS`` times; keep the last one.

    Each set-up runs from the daemon's process start until its warm-up
    completes; the earlier daemons are stopped, and a daemon that will
    not stop counts as a failure.
    """
    state = State(root, workdir, seed, traced)
    for index in range(SETUPS):
        began = time.perf_counter()
        daemon = start_daemon(root, workdir, index, traced)
        try:
            warm_up(daemon, state.outcome)
        except BaseException:
            daemon.stop()
            raise
        state.setup_seconds.append(time.perf_counter() - began)
        if index < SETUPS - 1:
            reason = daemon.stop()
            if reason:
                state.outcome.tally.fail(reason)
        else:
            state.daemon = daemon
    return state


@dataclass
class Reply:
    """One request as a client saw it; checked once the clients stop."""

    path: str
    body: dict
    latency: float
    traced: bool
    status: int = 0
    answer: dict = field(default_factory=dict)
    #: The transport error, when there was no response.
    error: str = ""

    @property
    def states(self) -> int:
        """States the answer decided: the instance's size for ``/verify``."""
        if self.path != "/verify":
            return 0
        return oracle.LIBRARY[(self.body["case"], self.body["size"])].states


def _client(daemon: Daemon, plan, cursor, lock, deadline, tracing, replies):
    """Send plan entries in turn until ``deadline``; only ``cursor`` is shared."""
    connection = daemon.connect()
    try:
        while time.perf_counter() < deadline:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(plan):
                return
            path, body = plan[index]
            began = time.perf_counter()
            try:
                status, answer = _call(connection, path, body)
            except (OSError, http.client.HTTPException, ValueError) as error:
                replies.append(Reply(path, body, 0.0, tracing.is_set(),
                                     error=type(error).__name__))
                connection.close()
                connection = daemon.connect()
                continue
            replies.append(Reply(path, body, time.perf_counter() - began,
                                 tracing.is_set(), status, answer))
    finally:
        connection.close()


def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def run(state: State, seconds: float) -> Outcome:
    """The timed closed loop; a traced run traces its last two thirds."""
    daemon, outcome = state.daemon, state.outcome
    rss_warm = process_memory_mb(daemon.process.pid, "VmRSS")
    plan = request_plan(state.seed, PLAN_LENGTH)
    replies: list[list[Reply]] = [[] for _ in range(CLIENTS)]
    cursor, lock = [0], threading.Lock()
    tracing = threading.Event()
    started = time.perf_counter()
    untraced_until = started + (seconds / 3 if state.traced else 0)
    deadline = started + seconds
    threads = [
        threading.Thread(
            target=_client,
            args=(daemon, plan, cursor, lock, deadline, tracing, own),
            daemon=True,
        )
        for own in replies
    ]
    for thread in threads:
        thread.start()
    if state.traced:
        time.sleep(max(0.0, untraced_until - time.perf_counter()))
        before = daemon.stats()
        daemon.process.send_signal(signal.SIGUSR1)
        marker = daemon.spans_file.with_suffix(".on")
        while not marker.exists() and time.perf_counter() < deadline:
            time.sleep(0.001)
        tracing.set()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - (untraced_until if state.traced else started)
    after = daemon.stats()
    rss_after = process_memory_mb(daemon.process.pid, "VmRSS")
    peak = process_memory_mb(daemon.process.pid, "VmHWM")
    reason = daemon.stop()
    if reason:
        outcome.tally.fail(reason)

    answered = []
    for reply in (reply for own in replies for reply in own):
        reason = reply.error or check_response(
            reply.path, reply.body, reply.status, reply.answer
        )
        label = f"{reply.path} {reply.body['case']}: {reason}"
        if outcome.tally.record(not reason, label):
            answered.append(reply)
    measured = [s for s in answered if s.traced == state.traced]
    outcome.samples = [s.latency for s in measured]
    completed = max(1, len(measured))
    outcome.end_to_end.update(
        requests_per_s=len(measured) / wall,
        states_per_s=sum(s.states for s in measured) / wall,
        peak_rss_mb=peak,
    )
    outcome.lines.append(
        f"  {len(measured)} requests from {CLIENTS} connections in {wall:.2f} s; "
        f"median latency {median(outcome.samples) * 1e3:.3f} ms"
    )
    if state.traced:
        spans = [Span(*fields) for fields in json.loads(daemon.spans_file.read_text())]
        outcome.spans = spans
        outcome.traced_requests = completed
        untraced = [s.latency for s in answered if not s.traced]
        if untraced and measured:
            outcome.tracing_overhead = (
                sum(outcome.samples) / len(outcome.samples)
            ) / (sum(untraced) / len(untraced)) - 1
        hits = _delta(after, before, "service", "hits")
        lookups = hits + _delta(after, before, "service", "misses")
        batches = _delta(after, before, "requests", "batches")
        outcome.layer.update({
            "server.call_ms": sum(s.answer["call_seconds"] for s in measured)
            * 1e3 / completed,
            "server.transport_ms": sum(
                s.latency - s.answer["call_seconds"] for s in measured
            ) * 1e3 / completed,
            "server.computed": _delta(after, before, "requests", "computed") / completed,
            "server.deduped": _delta(after, before, "requests", "deduped") / completed,
            "server.batches": batches / completed,
            "server.batch_size": (
                _delta(after, before, "requests", "batched_tasks") / batches
                if batches else 0.0
            ),
            "server.rss_growth_mb": rss_after - rss_warm,
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            **{
                f"store.{name}": _delta(after, before, "store", key) / completed
                for name, key in (("writes", "writes"), ("hits", "hits"),
                                  ("misses", "misses"), ("evictions", "evictions"))
            },
        })
    return outcome

