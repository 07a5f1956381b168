"""Tests for the observability subsystem.

Three layers are covered: the primitives (events, sinks, tracer,
counters, timers, reports), the hot-path integrations (engine,
schedulers, verification service, batch pool), and the golden no-op
guarantee — a run with a tracer attached produces bit-identical results
to one without.
"""

import io
import json
import random

import pytest

from repro.faults.injectors import corrupt_everything
from repro.kernel.sweeps import HAVE_NUMPY
from repro.faults.scenarios import ScheduledFaults
from repro.observability import (
    CountingSink,
    JsonlSink,
    LogSink,
    MetricsRegistry,
    RingBufferSink,
    RunReport,
    TraceEvent,
    Tracer,
)
from repro.protocols.library import build_case
from repro.scheduler import (
    FirstEnabledScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    SynchronousDaemon,
)
from repro.simulation import run, stabilization_trials
from repro.verification import (
    VerificationService,
    batch_report,
    run_batch,
)
from repro.verification.parallel import VerificationTask


class TestTracer:
    def test_events_get_dense_sequence_numbers(self):
        tracer = Tracer.buffered()
        tracer.emit("a.one", value=1)
        tracer.emit("a.two")
        tracer.emit("b.one", value=3)
        assert [event.seq for event in tracer.events] == [0, 1, 2]
        assert [event.kind for event in tracer.events] == ["a.one", "a.two", "b.one"]

    def test_events_of_filters_by_kind(self):
        tracer = Tracer.buffered()
        tracer.emit("keep.me")
        tracer.emit("drop.me")
        tracer.emit("keep.me")
        assert [e.kind for e in tracer.events_of("keep.me")] == ["keep.me", "keep.me"]

    def test_events_requires_a_ring_buffer(self):
        with pytest.raises(ValueError, match="RingBufferSink"):
            _ = Tracer().events

    def test_reserved_field_names_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="reserved"):
            tracer.emit("x", kind="oops")
        with pytest.raises(ValueError, match="reserved"):
            tracer.emit("x", seq=1, time=2.0)

    def test_fans_out_to_every_sink(self):
        ring, counting = RingBufferSink(), CountingSink()
        tracer = Tracer(sinks=[ring, counting])
        tracer.emit("a")
        tracer.emit("a")
        tracer.emit("b")
        assert len(ring) == 3
        assert counting.counts == {"a": 2, "b": 1}
        assert counting.total() == 3

    def test_context_manager_closes_sinks(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(sinks=[JsonlSink(path)]) as tracer:
            tracer.emit("x", n=1)
        record = json.loads(path.read_text().splitlines()[0])
        assert record["seq"] == 0
        assert record["kind"] == "x"
        assert record["n"] == 1


class TestSinks:
    def test_ring_buffer_evicts_oldest(self):
        sink = RingBufferSink(capacity=2)
        tracer = Tracer(sinks=[sink])
        for index in range(5):
            tracer.emit("tick", index=index)
        assert [event.fields["index"] for event in sink.events] == [3, 4]

    def test_ring_buffer_unbounded(self):
        sink = RingBufferSink(capacity=None)
        tracer = Tracer(sinks=[sink])
        for _ in range(5000):
            tracer.emit("tick")
        assert len(sink) == 5000

    def test_jsonl_lines_are_parseable_and_flat(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        tracer.emit("fault.injected", step=3, fault="corrupt(x)")
        tracer.emit("action.fired", actions=("a", "b"))
        tracer.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["kind"] == "fault.injected"
        assert records[0]["step"] == 3
        assert records[1]["actions"] == ["a", "b"]
        assert all({"seq", "time", "kind"} <= set(r) for r in records)

    def test_jsonl_borrowed_handle_left_open(self):
        handle = io.StringIO()
        sink = JsonlSink(handle)
        Tracer(sinks=[sink]).emit("x")
        sink.close()
        assert not handle.closed
        assert json.loads(handle.getvalue())["kind"] == "x"

    def test_log_sink_is_human_readable(self):
        stream = io.StringIO()
        tracer = Tracer(sinks=[LogSink(stream)])
        tracer.emit("target.established", index=7)
        line = stream.getvalue()
        assert "target.established" in line
        assert "index=7" in line

    def test_event_str_and_as_dict(self):
        event = TraceEvent(seq=1, time=2.5, kind="k", fields={"a": 1})
        assert event.as_dict() == {"seq": 1, "time": 2.5, "kind": "k", "a": 1}
        assert "k" in str(event)


class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("cache.hit")
        assert counter.add() == 1
        assert counter.add(4) == 5
        assert registry.counter("cache.hit") is counter
        assert int(counter) == 5

    def test_timer_aggregates(self):
        timer = MetricsRegistry().timer("op")
        timer.record(0.5)
        timer.record(1.5)
        timer.record(1.0)
        assert timer.count == 3
        assert timer.total == pytest.approx(3.0)
        assert timer.mean == pytest.approx(1.0)
        assert timer.min == pytest.approx(0.5)
        assert timer.max == pytest.approx(1.5)
        snapshot = timer.snapshot()
        assert set(snapshot) == {"count", "total", "mean", "min", "max"}

    def test_timer_context_manager(self):
        timer = MetricsRegistry().timer("op")
        with timer.time():
            pass
        assert timer.count == 1
        assert timer.total >= 0.0

    def test_empty_timer_snapshot_has_no_infinities(self):
        snapshot = MetricsRegistry().timer("op").snapshot()
        assert snapshot["min"] == 0.0
        assert snapshot["mean"] == 0.0

    def test_report_round_trips_and_renders(self):
        registry = MetricsRegistry()
        registry.counter("tasks").add(3)
        registry.timer("task").record(0.25)
        report = registry.report(workers=2)
        assert report.counters == {"tasks": 3}
        assert report.meta == {"workers": 2}
        payload = report.as_dict()
        assert set(payload) == {"meta", "counters", "timers"}
        assert json.dumps(payload)  # JSON-able
        text = report.describe()
        assert "tasks" in text and "workers=2" in text

    def test_empty_report_renders(self):
        assert "empty" in RunReport().describe()


def _small_instance():
    return build_case("coloring-chain", 3)


def _ring_instance():
    # The token ring never terminates (some action is always enabled),
    # so scheduled faults reliably fire and runs span the full budget.
    return build_case("dijkstra-ring", 3)


class TestEngineTracing:
    def test_results_identical_with_and_without_tracer(self):
        # The golden no-op guarantee: attaching a tracer (and watches)
        # changes nothing about the run itself.
        program, invariant = _ring_instance()
        initial = program.random_state(random.Random(7))
        fault = corrupt_everything(program)
        kwargs = dict(
            max_steps=500,
            target=invariant,
            stop_on_target=False,
            faults=ScheduledFaults({5: fault}),
        )
        plain = run(program, initial, RandomScheduler(3), **kwargs)
        tracer = Tracer.buffered()
        traced = run(
            program,
            initial,
            RandomScheduler(3),
            tracer=tracer,
            watch={"inv": invariant},
            **kwargs,
        )
        assert plain.steps == traced.steps
        assert plain.fault_count == traced.fault_count
        assert plain.terminated == traced.terminated
        assert plain.reached_target == traced.reached_target
        assert plain.target_index == traced.target_index
        assert plain.stabilization_index == traced.stabilization_index
        assert list(plain.computation.states()) == list(traced.computation.states())

    def test_event_taxonomy_of_a_faulty_run(self):
        program, invariant = _ring_instance()
        initial = program.random_state(random.Random(1))
        fault = corrupt_everything(program)
        tracer = Tracer.buffered()
        result = run(
            program,
            initial,
            RandomScheduler(0),
            max_steps=400,
            target=invariant,
            faults=ScheduledFaults({3: fault, 9: fault}),
            tracer=tracer,
        )
        kinds = [event.kind for event in tracer.events]
        assert kinds[0] == "run.start"
        assert kinds[-1] == "run.finish"
        assert kinds.count("fault.injected") == result.fault_count == 2
        assert kinds.count("action.fired") == result.steps
        start = tracer.events[0]
        assert start.fields["program"] == program.name
        assert start.fields["scheduler"] == "random"
        finish = tracer.events[-1]
        assert finish.fields["steps"] == result.steps
        assert finish.fields["stabilization_index"] == result.stabilization_index

    def test_target_flip_events_alternate(self):
        program, invariant = _ring_instance()
        initial = program.random_state(random.Random(1))
        tracer = Tracer.buffered()
        run(
            program,
            initial,
            RandomScheduler(0),
            max_steps=400,
            target=invariant,
            faults=ScheduledFaults({6: corrupt_everything(program)}),
            tracer=tracer,
        )
        flips = tracer.events_of("target.established", "target.violated")
        assert flips, "expected at least one target flip event"
        for first, second in zip(flips, flips[1:]):
            assert first.kind != second.kind  # strict alternation
        indices = [event.fields["index"] for event in flips]
        assert indices == sorted(indices)

    def test_watch_emits_constraint_events(self):
        program, invariant = _small_instance()
        initial = program.random_state(random.Random(5))
        tracer = Tracer.buffered()
        run(
            program,
            initial,
            RandomScheduler(0),
            max_steps=400,
            target=invariant,
            stop_on_target=True,
            tracer=tracer,
            watch={"invariant": invariant},
        )
        constraint_events = tracer.events_of(
            "constraint.established", "constraint.violated"
        )
        assert constraint_events
        assert all(
            event.fields["constraint"] == "invariant"
            for event in constraint_events
        )
        # The invariant held at the end (stop_on_target reached it).
        assert constraint_events[-1].kind == "constraint.established"

    def test_stabilization_trials_passthrough(self):
        program, invariant = _small_instance()
        tracer = Tracer.buffered()
        stats = stabilization_trials(
            program,
            invariant,
            lambda seed: RandomScheduler(seed),
            trials=3,
            max_steps=400,
            base_seed=0,
            tracer=tracer,
        )
        assert stats.stabilized_count == 3
        kinds = [event.kind for event in tracer.events]
        assert kinds.count("run.start") == 3
        assert kinds.count("run.finish") == 3


class TestSchedulerTracing:
    @pytest.mark.parametrize(
        "make_scheduler",
        [
            lambda: FirstEnabledScheduler(),
            lambda: RandomScheduler(0),
            lambda: RoundRobinScheduler(),
            lambda: SynchronousDaemon(),
        ],
        ids=["first-enabled", "random", "round-robin", "synchronous"],
    )
    def test_scheduler_step_events(self, make_scheduler):
        program, invariant = _small_instance()
        initial = program.random_state(random.Random(2))
        tracer = Tracer.buffered()
        scheduler = make_scheduler().attach_tracer(tracer)
        result = run(
            program,
            initial,
            scheduler,
            max_steps=50,
            target=invariant,
            stop_on_target=True,
        )
        steps = tracer.events_of("scheduler.step")
        assert len(steps) == result.steps
        for event in steps:
            assert event.fields["scheduler"] == scheduler.name
            assert event.fields["enabled"] >= len(event.fields["actions"]) >= 1

    def test_attach_tracer_returns_self_and_detaches(self):
        scheduler = FirstEnabledScheduler()
        tracer = Tracer.buffered()
        assert scheduler.attach_tracer(tracer) is scheduler
        assert scheduler.tracer is tracer
        scheduler.attach_tracer(None)
        assert scheduler.tracer is None


class TestServiceObservability:
    def test_cache_events_and_layered_counters(self, tmp_path):
        program, invariant = _small_instance()
        tracer = Tracer.buffered()
        service = VerificationService(
            cache_dir=tmp_path, tracer=tracer, metrics=MetricsRegistry()
        )
        service.verify_tolerance(program, invariant, case="first")
        service.verify_tolerance(program, invariant, case="second")
        kinds = [event.kind for event in tracer.events]
        # The miss computes on the packed engine, so the one-time kernel
        # compilation, the full-space sweep (vectorized when numpy is
        # installed) and memory-accounting events land between miss and
        # hit.
        assert kinds == [
            "cache.miss",
            "kernel.build",
            *(["kernel.sweep.vectorized"] if HAVE_NUMPY else []),
            "kernel.mem.sweep",
            "cache.hit",
        ]
        assert tracer.events[-1].fields["layer"] == "memory"

        # A fresh service sharing the disk cache hits the disk layer.
        other = VerificationService(cache_dir=tmp_path, tracer=tracer)
        other.verify_tolerance(program, invariant, case="third")
        assert tracer.events[-1].kind == "cache.hit"
        assert tracer.events[-1].fields["layer"] == "disk"
        assert other.stats()["hits_disk"] == 1

        stats = service.stats()
        assert stats["hits"] == stats["hits_memory"] + stats["hits_disk"] == 1
        assert stats["misses"] == 1
        assert stats["seconds_computing"] > 0.0

    def test_service_report_schema(self):
        program, invariant = _small_instance()
        service = VerificationService(metrics=MetricsRegistry())
        service.verify_tolerance(program, invariant)
        service.verify_tolerance(program, invariant)
        report = service.report(case="x")
        assert report.counters["cache.hit"] == 1
        assert report.counters["cache.miss"] == 1
        assert "verify_tolerance.computed" in report.timers
        assert "verify_tolerance.cached" in report.timers
        assert report.meta["case"] == "x"
        assert json.dumps(report.as_dict())

    def test_validate_design_feeds_timers(self):
        from repro.protocols.diffusing import build_diffusing_design
        from repro.topology import chain_tree

        design = build_diffusing_design(chain_tree(3))
        service = VerificationService(metrics=MetricsRegistry())
        service.validate_design(design, design.program.state_space())
        service.validate_design(design, design.program.state_space())
        assert service.metrics.timers["validate_design.computed"].count == 1
        assert service.metrics.timers["validate_design.cached"].count == 1

    def test_untraced_service_unchanged(self):
        program, invariant = _small_instance()
        service = VerificationService()
        assert service.tracer is None and service.metrics is None
        verdict = service.verify_tolerance(program, invariant)
        assert verdict.ok
        assert service.stats()["misses"] == 1


class TestBatchObservability:
    def _tasks(self):
        return [
            VerificationTask(
                case=name,
                builder="repro.protocols.library:build_case",
                args=(name, 3),
            )
            for name in ("coloring-chain", "leader-election-star")
        ]

    def test_sequential_batch_emits_task_events(self):
        tracer = Tracer.buffered()
        records = run_batch(self._tasks(), workers=1, tracer=tracer)
        kinds = [event.kind for event in tracer.events]
        assert kinds[0] == "batch.start"
        assert kinds[-1] == "batch.finish"
        assert kinds.count("worker.task.start") == 2
        assert kinds.count("worker.task.finish") == 2
        assert tracer.events[0].fields["tasks"] == 2
        for record in records:
            assert record["worker"]
            assert record["task_seconds"] >= record["call_seconds"] >= 0.0

    def test_batch_report_sums_per_worker_timings(self):
        records = run_batch(self._tasks(), workers=1)
        report = batch_report(records, wall_clock_seconds=1.0, workers=1)
        assert report.counters["tasks"] == 2
        assert report.counters["ok"] == 2
        assert report.counters["cache.miss"] == 2
        worker_total = sum(
            stats["total"]
            for name, stats in report.timers.items()
            if name.startswith("worker.")
        )
        assert worker_total == pytest.approx(report.timers["task"]["total"])
        assert report.meta == {"workers": 1, "wall_clock_seconds": 1.0}

    def test_parallel_batch_replays_finish_events(self):
        tracer = Tracer.buffered()
        records = run_batch(self._tasks(), workers=2, tracer=tracer)
        assert len(records) == 2
        kinds = [event.kind for event in tracer.events]
        assert kinds[0] == "batch.start"
        assert kinds[-1] == "batch.finish"
        # Pool workers cannot share the parent tracer: only the replayed
        # finish events appear, one per task, in task order.
        finishes = tracer.events_of("worker.task.finish")
        assert [e.fields["case"] for e in finishes] == [t.case for t in self._tasks()]
