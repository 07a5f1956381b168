"""Unit tests for content-addressed program/instance fingerprints.

The soundness contract (edit matrix, hash-seed stability, process-local
keys) lives in ``tests/test_cache_keys.py``.
"""

from repro.core import (
    Action,
    Assignment,
    IntegerRangeDomain,
    Predicate,
    Program,
    Variable,
    fingerprint_instance,
    fingerprint_predicate,
    fingerprint_program,
    probe_states,
)


def make_counter(limit: int = 3, *, reset_to: int = 0, name: str = "counter"):
    n = Variable("n", IntegerRangeDomain(0, limit))
    inc = Action(
        "inc",
        Predicate(lambda s: s["n"] < limit, name=f"n < {limit}", support=("n",)),
        Assignment({"n": lambda s: s["n"] + 1}),
        reads=("n",),
    )
    reset = Action(
        "reset",
        Predicate(lambda s: s["n"] == limit, name=f"n = {limit}", support=("n",)),
        Assignment({"n": lambda s: reset_to}),
        reads=("n",),
    )
    return Program(name, [n], [inc, reset])


ZERO = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))


class TestProbeStates:
    def test_deterministic(self):
        program = make_counter()
        assert probe_states(program) == probe_states(program)

    def test_states_are_valid(self):
        program = make_counter()
        for state in probe_states(program):
            assert 0 <= state["n"] <= 3


class TestProgramFingerprint:
    def test_stable_across_rebuilds(self):
        # Rebuilding the identical program (fresh lambda objects) must
        # hash to the same fingerprint — that is the whole point of a
        # structural digest over object identity.
        assert fingerprint_program(make_counter()) == fingerprint_program(
            make_counter()
        )

    def test_is_hex_digest(self):
        digest = fingerprint_program(make_counter())
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_domain_change_detected(self):
        assert fingerprint_program(make_counter(3)) != fingerprint_program(
            make_counter(4)
        )

    def test_behaviour_change_detected(self):
        # Same variables, same action names and guards; only the reset
        # assignment's *behaviour* (a captured constant) differs.
        assert fingerprint_program(make_counter(reset_to=0)) != fingerprint_program(
            make_counter(reset_to=1)
        )

    def test_name_change_detected(self):
        assert fingerprint_program(make_counter(name="a")) != fingerprint_program(
            make_counter(name="b")
        )


class TestPredicateFingerprint:
    def test_stable_across_rebuilds(self):
        again = Predicate(lambda s: s["n"] == 0, name="n = 0", support=("n",))
        assert fingerprint_predicate(ZERO) == fingerprint_predicate(again)

    def test_verdict_change_detected(self):
        one = Predicate(lambda s: s["n"] == 1, name="n = 0", support=("n",))
        # Same display name, a different body.
        assert fingerprint_predicate(ZERO) != fingerprint_predicate(one)


class TestInstanceFingerprint:
    def test_stable_across_rebuilds(self):
        a = fingerprint_instance(make_counter(), ZERO)
        b = fingerprint_instance(make_counter(), ZERO)
        assert a == b

    def test_fairness_discriminates(self):
        a = fingerprint_instance(make_counter(), ZERO, fairness="weak")
        b = fingerprint_instance(make_counter(), ZERO, fairness="none")
        assert a != b

    def test_extra_tokens_discriminate(self):
        a = fingerprint_instance(make_counter(), ZERO, extra=("states=full",))
        b = fingerprint_instance(make_counter(), ZERO, extra=("window[0,3]",))
        assert a != b

    def test_fault_span_discriminates(self):
        span = Predicate(lambda s: s["n"] <= 2, name="n <= 2", support=("n",))
        a = fingerprint_instance(make_counter(), ZERO)
        b = fingerprint_instance(make_counter(), ZERO, span)
        assert a != b
