"""Soundness and cost of the verdict cache keys.

A cached verdict must equal the verdict a cold check gives, so two
programs that behave differently must never share a key. The reproducer
below differs from its edited twin only in a guard body, and only on
states no fixed probe battery visits: the edited guard deadlocks at
``(7, 3, 5)``. Every route that answers from a cache must miss on it.

The file also pins the rest of the key contract: rebuilt programs hit,
digests are the same in a process with another ``PYTHONHASHSEED``,
entries written under the earlier key format are never served, programs
that capture an object the encoder cannot walk stay out of the store,
unlabeled state windows are keyed by content, and every in-memory tier
is bounded.
"""

import collections
import datetime
import enum
import functools
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
import threading
import types
import weakref
from pathlib import Path

import pytest

from repro.api import verify
from repro.core import (
    TRUE,
    Action,
    Assignment,
    IntegerRangeDomain,
    Predicate,
    Program,
    Variable,
    fingerprint_instance,
    fingerprint_predicate,
    fingerprint_program,
)
from repro.core.fingerprint import (
    KEY_SCHEMA,
    fingerprint_states,
    is_process_local,
    probe_states,
)
from repro.verification import service as service_module
from repro.verification.service import VerificationService, tolerance_fingerprint
from repro.verification.store import LRUDict, VerdictStore

ROOT = Path(__file__).resolve().parent.parent


def reproducer(edited: bool = False):
    """``a != 0 -> a := 0`` over ``a, b, c in 0..9``, invariant ``a == 0``.

    The edited twin changes only the guard's body, so that ``(7, 3, 5)``
    deadlocks outside the invariant: it is not stabilizing.
    """
    variables = [Variable(name, IntegerRangeDomain(0, 9)) for name in "abc"]
    if edited:
        guard = lambda s: s["a"] != 0 and (s["a"], s["b"], s["c"]) != (7, 3, 5)
    else:
        guard = lambda s: s["a"] != 0
    zero = Action(
        "zero",
        Predicate(guard, name="a != 0", support=("a", "b", "c")),
        Assignment({"a": lambda s: 0}),
        reads=("a", "b", "c"),
    )
    invariant = Predicate(lambda s: s["a"] == 0, name="a == 0", support=("a",))
    return Program("reproducer", variables, [zero]), invariant


def _run(code: str, *, env: dict | None = None) -> str:
    """Run ``code`` in a fresh interpreter at the repository root."""
    environment = {**os.environ, **(env or {})}
    environment["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=ROOT, env=environment, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return completed.stdout


class TestReproducerMisses:
    def test_cold_verdicts_differ(self):
        assert VerificationService().verify_tolerance(*reproducer()).ok
        assert not VerificationService().verify_tolerance(*reproducer(True)).ok

    def test_service_misses(self):
        service = VerificationService()
        assert service.verify_tolerance(*reproducer()).ok
        verdict = service.verify_tolerance(*reproducer(edited=True))
        assert not verdict.ok
        assert verdict.cache_layer == ""

    def test_shared_default_service_misses(self):
        program, invariant = reproducer()
        assert verify(program, s=invariant).ok
        program, invariant = reproducer(edited=True)
        verdict = verify(program, s=invariant)
        assert not verdict.ok
        assert not verdict.cached

    def test_store_backed_service_in_a_fresh_process_misses(self, tmp_path):
        assert VerificationService(cache_dir=tmp_path).verify_tolerance(
            *reproducer()
        ).ok
        assert list(tmp_path.glob("tolerance-*.json"))
        output = _run(f"""
            from repro.verification.service import VerificationService
            from tests.test_cache_keys import reproducer

            service = VerificationService(cache_dir={str(tmp_path)!r})
            verdict = service.verify_tolerance(*reproducer(edited=True))
            print(verdict.ok, repr(verdict.cache_layer))
        """)
        assert output.split() == ["False", "''"]


# The edit matrix: one base module source, and one edit per row. Each
# edit changes what the program computes, so each must change its key.
_BASE = '''
import enum
import types

from repro.core import Action, Assignment, IntegerRangeDomain, Predicate, Program, Variable
from repro.core.expr import V, expr_action

helpers = types.ModuleType("helpers")
helpers.blocked = lambda s: s["c"] == 5
helpers.offset = 0


class Limits:
    FLOOR = 0


class Mode(enum.Enum):
    ZERO = 0


def helper(s):
    return s["b"] == 3


def build(limit=7):
    cap = 9
    tools = helpers

    def guard(s, bound=limit):
        return s["a"] != 0 and not (s["a"] == bound and helper(s) and helpers.blocked(s))

    def reset(s):
        pick = lambda v: v * 0
        return pick(s["a"]) % cap + tools.offset + Limits.FLOOR + Mode.ZERO.value

    zero = Action(
        "zero",
        Predicate(guard, name="a != 0", support=("a", "b", "c")),
        Assignment({"a": reset}),
        reads=("a", "b", "c"),
    )
    dsl = expr_action("dsl", V("b") == 2, {"b": 1})
    variables = [Variable(name, IntegerRangeDomain(0, 9)) for name in "abc"]
    return Program("edits", variables, [zero, dsl])
'''

_EDITS = {
    "guard body": ('s["a"] != 0 and', 's["a"] > 0 and'),
    "statement body": ('pick(s["a"]) % cap', 'pick(s["a"]) // cap'),
    "closure cell": ("cap = 9", "cap = 8"),
    "default": ("def build(limit=7)", "def build(limit=6)"),
    "global helper": ('return s["b"] == 3', 'return s["b"] == 4'),
    "module.helper attribute": ('s["c"] == 5', 's["c"] == 6'),
    "module attribute through a closure cell": (
        "helpers.offset = 0", "helpers.offset = 1"
    ),
    "nested lambda constant": ("v * 0", "v * 1"),
    "class constant": ("FLOOR = 0", "FLOOR = 1"),
    "enum member": ("ZERO = 0", "ZERO = 1"),
    "DSL constant": ('{"b": 1}', '{"b": 0}'),
}


def _build(source: str) -> Program:
    namespace: dict = {}
    exec(compile(source, "<edits>", "exec"), namespace)
    return namespace["build"]()


class TestEditMatrix:
    def test_rebuild_from_the_same_source_hits(self):
        assert fingerprint_program(_build(_BASE)) == fingerprint_program(
            _build(_BASE)
        )

    @pytest.mark.parametrize("row", sorted(_EDITS))
    def test_edit_misses(self, row):
        old, new = _EDITS[row]
        assert _BASE.count(old) == 1
        edited = _BASE.replace(old, new)
        assert fingerprint_program(_build(edited)) != fingerprint_program(
            _build(_BASE)
        )

    def test_moving_a_function_keeps_its_key(self):
        moved = _BASE.replace("\ndef helper(s):", "\n\n\n\ndef helper(s):")
        assert fingerprint_program(_build(moved)) == fingerprint_program(
            _build(_BASE)
        )


def _capturing(value) -> Predicate:
    return Predicate(lambda s: value is not None, name="captures")


class _Tagged(list):
    __slots__ = ("tag",)

    def __init__(self, tag):
        super().__init__()
        self.tag = tag


class _Color(enum.Enum):
    RED = 1


class TestCapturedValues:
    Pair = collections.namedtuple("Pair", "x y")

    @pytest.mark.parametrize("first, second", [
        (Pair(1, 2), Pair(1, 3)),
        ([1, 2], [2, 1]),
        ({"a": 1, "b": 2}, {"b": 2, "a": 1}),  # insertion order is observable
        (1, True),
        (1, 1.0),
        ("1", 1),
        (types.MappingProxyType({0: 1}), types.MappingProxyType({0: 2})),
        (datetime.date(2024, 1, 1), datetime.date(2025, 1, 1)),
        (collections.defaultdict(lambda: 0), collections.defaultdict(lambda: 1)),
        (staticmethod(lambda: 0), staticmethod(lambda: 1)),
        (_Tagged(1), _Tagged(2)),
    ], ids=["namedtuple", "list order", "dict order", "int-bool", "int-float",
            "str-int", "mappingproxy", "date", "defaultdict factory",
            "staticmethod", "list subclass slot"])
    def test_different_values_miss(self, first, second):
        assert fingerprint_predicate(_capturing(first)) != fingerprint_predicate(
            _capturing(second)
        )

    @pytest.mark.parametrize("value", [
        types.MappingProxyType({0: 1}),
        datetime.date(2024, 1, 1),
        collections.defaultdict(int),
        collections.OrderedDict(a=1),
        functools.partial(int, base=2),
        random.Random(1),
        object(),
    ], ids=["mappingproxy", "date", "defaultdict", "OrderedDict", "partial",
            "Random", "object"])
    def test_c_level_state_is_process_local(self, value):
        assert is_process_local(fingerprint_predicate(_capturing(value)))

    @pytest.mark.parametrize("value", [
        Pair(1, 2),
        collections.Counter("aab"),
        _Color.RED,
        staticmethod(len),
        _Tagged(1),
    ], ids=["namedtuple", "Counter", "enum member", "staticmethod",
            "list subclass with slots"])
    def test_python_classes_are_walked(self, value):
        assert not is_process_local(fingerprint_predicate(_capturing(value)))

    def test_set_order_does_not_matter(self):
        names = ["x%d" % index for index in range(20)]
        forward, backward = set(names), set(reversed(names))
        assert fingerprint_predicate(_capturing(forward)) == fingerprint_predicate(
            _capturing(backward)
        )

    def test_cycles_are_encoded(self):
        def cyclic(tail):
            items = [tail]
            items.append(items)
            return items

        assert fingerprint_predicate(_capturing(cyclic(1))) == fingerprint_predicate(
            _capturing(cyclic(1))
        )
        assert fingerprint_predicate(_capturing(cyclic(1))) != fingerprint_predicate(
            _capturing(cyclic(2))
        )


class TestStability:
    def test_library_rebuilds_hit(self):
        from repro.protocols.library import CASES

        for case in CASES.values():
            first = case.build(case.default_size)
            again = case.build(case.default_size)
            assert fingerprint_instance(*first) == fingerprint_instance(*again)
            assert not is_process_local(fingerprint_instance(*first))

    def test_other_hash_seed_gives_equal_digests(self):
        from repro.protocols.library import CASES

        here = {
            name: fingerprint_instance(*case.build(case.default_size))
            for name, case in CASES.items()
        }
        code = """
            import json
            from repro.core import fingerprint_instance
            from repro.protocols.library import CASES

            print(json.dumps({
                name: fingerprint_instance(*case.build(case.default_size))
                for name, case in CASES.items()
            }))
        """
        for seed in ("1", "4242"):
            assert json.loads(_run(code, env={"PYTHONHASHSEED": seed})) == here

    def test_digest_carries_the_schema_token(self, monkeypatch):
        from repro.core import fingerprint

        assert KEY_SCHEMA.encode() in fingerprint._SCHEMA_TOKEN
        assert sys.implementation.cache_tag.encode() in fingerprint._SCHEMA_TOKEN
        before = fingerprint_instance(*reproducer())
        monkeypatch.setattr(fingerprint, "_SCHEMA_TOKEN", b"schema=other")
        assert fingerprint_instance(*reproducer()) != before

    def test_memo_is_a_string_on_the_program(self):
        program, invariant = reproducer()
        digest = fingerprint_program(program)
        assert program._digest == digest
        assert invariant._digest is None
        fingerprint_instance(program, invariant)
        assert isinstance(invariant._digest, str)

    def test_program_captured_in_a_closure_is_encoded_by_its_digest(self):
        inner, _ = reproducer()
        outer = Predicate(lambda s: inner.is_terminal(s), name="terminal")
        before = fingerprint_instance(*reproducer(), outer)
        # Filling the captured program's memos must not move the key.
        fingerprint_program(inner)
        from repro.kernel import compile_program

        compile_program(inner)
        outer_again = Predicate(lambda s: inner.is_terminal(s), name="terminal")
        assert fingerprint_instance(*reproducer(), outer_again) == before


def _head_key(program: Program, invariant: Predicate) -> str:
    """The full-space tolerance key in the earlier probe format."""

    def digest(tokens):
        hasher = hashlib.sha256()
        for token in tokens:
            hasher.update(token.encode())
            hasher.update(b"\x00")
        return hasher.hexdigest()

    states = probe_states(program)
    tokens = [f"program={program.name}"]
    for name in sorted(program.variables):
        variable = program.variables[name]
        tokens.append(
            f"var={name};domain={variable.domain!r};process={variable.process!r}"
        )
    for action in program.actions:
        support = sorted(action.guard.support)
        tokens.append(
            f"action={action.name};process={action.process!r};"
            f"reads={sorted(action.reads)};writes={sorted(action.writes)};"
            f"guard={action.guard.name};support={support}"
        )
    for position, state in enumerate(states):
        for action in program.actions:
            if action.enabled(state):
                successor = action.effect.evaluate(state)
                writes = ",".join(
                    f"{name}={type(successor[name]).__name__}:{successor[name]!r}"
                    for name in sorted(successor)
                )
                tokens.append(f"s{position}:{action.name}->{writes}")
            else:
                tokens.append(f"s{position}:{action.name}:off")

    def predicate_digest(predicate):
        support = sorted(predicate.support) if predicate.support is not None else "?"
        verdicts = "".join("1" if predicate(state) else "0" for state in states)
        return digest(
            [f"predicate={predicate.name};support={support}", f"verdicts={verdicts}"]
        )

    return digest([
        f"program={digest(tokens)}",
        f"invariant={predicate_digest(invariant)}",
        f"fault_span={predicate_digest(TRUE)}",
        "fairness=weak",
        "extra=states=full",
        "extra=method=full",
    ])


class TestEarlierKeyFormat:
    def test_twins_shared_one_earlier_key(self):
        assert _head_key(*reproducer()) == _head_key(*reproducer(edited=True))

    def test_entry_under_the_earlier_key_is_never_served(self, tmp_path):
        program, invariant = reproducer(edited=True)
        stale = _head_key(program, invariant)
        poisoned = {"case": "poisoned", "ok": True}
        VerdictStore(tmp_path, shards=0, warm_capacity=0).put(
            "tolerance", stale, poisoned
        )
        verdict = VerificationService(cache_dir=tmp_path).verify_tolerance(
            program, invariant
        )
        assert verdict.cache_layer == ""
        assert not verdict.ok
        assert tolerance_fingerprint(program, invariant)[:40] != stale[:40]


class TestProcessLocalKeys:
    @staticmethod
    def _opaque_program():
        rng = random.Random(7)  # C-level state the encoder cannot see
        variables = [Variable("x", IntegerRangeDomain(0, 3))]
        step = Action(
            "step",
            Predicate(lambda s: s["x"] != 0 and rng is not None, name="x != 0",
                      support=("x",)),
            Assignment({"x": lambda s: 0}),
            reads=("x",),
        )
        invariant = Predicate(lambda s: s["x"] == 0, name="x == 0", support=("x",))
        return Program("opaque", variables, [step]), invariant

    def test_unwalkable_capture_makes_the_key_process_local(self):
        program, invariant = self._opaque_program()
        assert is_process_local(fingerprint_program(program))
        assert is_process_local(tolerance_fingerprint(program, invariant))

    def test_hits_in_memory_and_writes_nothing(self, tmp_path):
        program, invariant = self._opaque_program()
        service = VerificationService(cache_dir=tmp_path)
        assert service.verify_tolerance(program, invariant).cache_layer == ""
        again = service.verify_tolerance(program, invariant)
        assert again.ok and again.cache_layer == "memory"
        assert not list(tmp_path.iterdir())
        assert service.store.writes == 0
        # Another service over the same store computes afresh.
        other = VerificationService(cache_dir=tmp_path)
        assert other.verify_tolerance(program, invariant).cache_layer == ""

    def test_rebuilt_opaque_programs_get_distinct_keys(self):
        first, _ = self._opaque_program()
        second, _ = self._opaque_program()
        assert fingerprint_program(first) != fingerprint_program(second)


def _window(b: int):
    return [
        state for state in reproducer()[0].state_space() if state["b"] == b
    ]


class TestUnlabeledWindows:
    def test_equal_size_windows_do_not_share_a_key(self):
        program, invariant = reproducer(edited=True)
        service = VerificationService()
        quiet, deadlocking = _window(0), _window(3)
        assert len(quiet) == len(deadlocking) == 100
        assert service.verify_tolerance(program, invariant, states=quiet).ok
        verdict = service.verify_tolerance(program, invariant, states=deadlocking)
        assert verdict.cache_layer == ""
        assert not verdict.ok
        # The same content, asked again, is a hit.
        again = service.verify_tolerance(program, invariant, states=_window(3))
        assert again.cache_layer == "memory"

    def test_state_digest_is_by_content(self):
        assert fingerprint_states(_window(0)) == fingerprint_states(_window(0))
        assert fingerprint_states(_window(0)) != fingerprint_states(_window(3))

    def test_unlabeled_design_windows_do_not_share_a_key(self):
        from repro.protocols import three_constraint

        design = three_constraint.build_out_tree_design(3)
        window = three_constraint.window_states(3)
        service = VerificationService()
        service.validate_design(design, window)
        service.validate_design(design, window[::-1])
        assert service.misses == 2
        service.validate_design(design, list(window))
        assert service.hits == 1


class TestKernelLifetime:
    def test_dropped_compiled_program_is_collected(self):
        from repro.kernel import compile_program

        program, _ = reproducer()
        kernel = compile_program(program)
        assert compile_program(program) is kernel
        ref = weakref.ref(program)
        del program, kernel
        gc.collect()
        assert ref() is None

    def test_fresh_builds_leave_no_live_kernels(self):
        from repro.kernel import compile_program
        from repro.protocols.token_ring import build_dijkstra_ring

        refs = []
        for _ in range(10):
            program = build_dijkstra_ring(4, k=4)[0]
            compile_program(program)
            refs.append(weakref.ref(program))
        del program
        gc.collect()
        assert not any(ref() is not None for ref in refs)


class TestBoundedTiers:
    def test_lru_dict_evicts_least_recently_used(self):
        lru = LRUDict(2)
        lru["a"], lru["b"] = 1, 2
        assert lru.get("a") == 1  # refreshes "a"
        lru["c"] = 3
        assert list(lru) == ["a", "c"]
        assert lru.get("b") is None

    def test_lru_dict_survives_concurrent_threads(self):
        lru = LRUDict(8)
        errors = []

        def hammer(offset):
            try:
                for index in range(2_000):
                    lru[(offset, index % 13)] = index
                    lru.get((offset - 1, index % 13))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(offset,))
                for offset in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(lru) == 8

    def test_ten_thousand_keys_leave_each_tier_at_capacity(self):
        service = VerificationService()
        for index in range(10_000):
            service.memo("probe", f"k{index}", lambda: {"ok": True})
        assert len(service._records) == service_module.RECORD_CAPACITY

        for index in range(10_000):
            service._reports[f"r{index}"] = None
        assert len(service._reports) == service_module.REPORT_CAPACITY

    def test_daemon_key_cache_is_bounded(self):
        from repro.verification import server

        daemon = server.VerificationDaemon(workers=1)
        try:
            for index in range(10_000):
                daemon._key_cache[("case", index)] = {"full": f"k{index}"}
            assert len(daemon._key_cache) == server.KEY_CACHE_CAPACITY
        finally:
            daemon._executor.shutdown(wait=False)

    def test_evicted_record_comes_back_from_disk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_module, "RECORD_CAPACITY", 4)
        service = VerificationService(cache_dir=tmp_path)
        for index in range(10):
            service.memo("probe", f"{index:x}" * 40, lambda: {"index": index})
        assert len(service._records) == 4
        record, layer = service.cached_record("probe", "0" * 40)
        assert layer == "disk"
        assert record == {"index": 0}


class TestWarmHitCost:
    def test_warm_hit_does_not_rewalk_the_program(self, monkeypatch):
        from repro.core import fingerprint

        program, invariant = reproducer()
        service = VerificationService()
        service.verify_tolerance(program, invariant)
        calls = []
        walk = fingerprint._Encoder.compound

        def counting(self, obj, *args, **kwargs):
            calls.append(obj)
            return walk(self, obj, *args, **kwargs)

        monkeypatch.setattr(fingerprint._Encoder, "compound", counting)
        assert service.verify_tolerance(program, invariant).cache_layer == "memory"
        assert not calls
