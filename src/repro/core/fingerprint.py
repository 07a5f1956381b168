"""Content-addressed fingerprints of programs, predicates and instances.

The verification service caches transition systems and verdicts keyed by
*what is being verified*, not by object identity: two calls that build
the same protocol instance must hit the same cache entry, and any change
to the instance — a variable, a domain, an action guard or statement —
must miss it.

A fingerprint is an exact structural digest (SHA-256) of the object
graph behind the instance:

- **programs** — the program name, every variable with its domain and
  owning process, and every action with its name, process, read set,
  write set, guard and statement;
- **predicates** — name, support, the evaluation callable, and the DSL
  source and combinator parts when present;
- **DSL expressions** (:mod:`repro.core.expr`) and every other instance
  of a Python class — hashed by their tree of slots and ``__dict__``
  attributes, so a changed constant or operator changes the digest;
  Python subclasses of the builtin containers and primitives (named
  tuples, ``Counter``, int enums) add the builtin value;
- **opaque callables** — hashed by code: bytecode, names, constants,
  nested code, argument counts and flags, plus the closure cells,
  defaults and keyword defaults, and the globals the code names, with
  functions walked recursively. A module or Python class reached
  through a global or a closure cell adds the attributes the code names
  (``helpers.blocked``, ``Config.LIMIT``, ``Color.RED``). File names,
  line numbers and whether the code is nested in another function are
  left out, so moving a function keeps its digest.

Digests are stable across processes and ``PYTHONHASHSEED`` values (pool
workers and :class:`~repro.verification.store.VerdictStore` share them):
set members are sorted, and neither ``hash()`` nor ``marshal`` feeds a
digest. Dicts keep their insertion order, which Python code can observe.
Every digest carries :data:`KEY_SCHEMA` and the interpreter's
``sys.implementation.cache_tag`` (bytecode differs between versions), so
keys from an older scheme are never served.

Primitives, the builtin containers, functions, builtins, types, modules
and the ``property``/``staticmethod``/``classmethod`` wrappers are read
directly. Any other object whose class has something other than a
Python class in its MRO — a static C type (``datetime.date``,
``types.MappingProxyType``, ``collections.defaultdict``) or a heap type
an extension builds (``functools.partial``, the base of
``random.Random``, numpy arrays) — holds state the encoder cannot see,
and so does a bare ``object()``. Such an object gets a token from a
process-wide counter, and the digests that contain it start with
:data:`PROCESS_LOCAL`: they still key the in-memory caches, but the
store never writes or reads them (:func:`is_process_local`).

Digests are memoized: on the :class:`~repro.core.program.Program` and
the :class:`~repro.core.predicates.Predicate` (a slot), and per code
object in a process-wide weak map. The memos hold digest strings only.
A program or predicate met inside a closure is encoded by its own
digest, never through its attributes, so filling a memo cannot change a
key. Known limits:

- a class is named by module and qualified name, plus the attributes
  code names when it reaches the class through a global or a closure
  cell. The class of a captured instance, or a class inside a
  container, is named only: its methods and constants are not hashed;
- a digest is taken at first use: mutating a program, a closure cell or
  a global helper afterwards is not seen. The packed kernel caches its
  successor tables per program on the same immutability assumption.

:func:`probe_states` is not part of any key any more; the kernel
compiler, the static checker and the compositional certifier use its
deterministic battery to infer read sets.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import random
import struct
import sys
import types
from collections.abc import Callable, Iterable
from typing import Any
from weakref import WeakKeyDictionary

from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.state import State

__all__ = [
    "KEY_SCHEMA",
    "PROCESS_LOCAL",
    "fingerprint_program",
    "fingerprint_predicate",
    "fingerprint_instance",
    "fingerprint_states",
    "is_process_local",
    "probe_states",
]

#: Version of the key scheme; bump it whenever a digest's inputs change.
KEY_SCHEMA = "repro-key/2"

#: Prefix of a digest that covers an object only this process can name.
PROCESS_LOCAL = "local-"

#: Number of probe states in :func:`probe_states`.
PROBE_STATES = 32

#: Values drawn per infinite domain when building probe states.
_INFINITE_DOMAIN_DRAWS = 8

#: Fixed seed for infinite-domain draws — the battery must be stable
#: across processes and sessions.
_PROBE_SEED = 0x5EED

_SCHEMA_TOKEN = f"schema={KEY_SCHEMA};{sys.implementation.cache_tag}".encode()

#: Code object -> (digest, every name its code and nested code use).
_CODE_INFO: "WeakKeyDictionary[types.CodeType, tuple[str, tuple[str, ...]]]" = (
    WeakKeyDictionary()
)

#: Class -> its slot descriptors, or None when the encoder cannot walk it.
_LAYOUTS: "WeakKeyDictionary[type, tuple[tuple[str, Any], ...] | None]" = (
    WeakKeyDictionary()
)

#: Tokens for objects the encoder cannot walk. Never ``id()``, which a
#: later object may reuse.
_LOCAL_TOKENS = itertools.count(1)

_PRIMITIVES = frozenset(
    {type(None), bool, int, float, complex, str, bytes, range, slice,
     type(Ellipsis), type(NotImplemented)}
)

_PRIMITIVE_TYPES = tuple(_PRIMITIVES)

#: Longest packed token kept inline; longer ones are hashed.
_INLINE_LIMIT = 256

#: Type flags (``Include/object.h``): a heap type, and instances whose
#: ``__dict__`` or ``__weakref__`` live outside the fixed layout.
_HEAPTYPE = 1 << 9
_MANAGED_DICT = 1 << 4
_MANAGED_WEAKREF = 1 << 3

_POINTER = struct.calcsize("P")

#: Builtins the encoder reads itself; a subclass walks as one of them
#: plus its own slots and ``__dict__``.
_BUILTIN_BASES = frozenset({object, list, tuple, dict, set, frozenset, *_PRIMITIVES})

#: C-level descriptors that name one attribute of their owner.
_DESCRIPTORS = (types.MemberDescriptorType, types.GetSetDescriptorType)

_BUILTIN_CALLABLES = (
    types.BuiltinFunctionType,
    types.MethodWrapperType,
    types.WrapperDescriptorType,
    types.MethodDescriptorType,
    types.ClassMethodDescriptorType,
)

_UNSET = object()


def is_process_local(key: str) -> bool:
    """Whether ``key`` covers an object only this process can name.

    Such keys are valid for in-memory caches only; the verdict store
    neither writes nor reads them.
    """
    return key.startswith(PROCESS_LOCAL)


def probe_states(program: Program, *, limit: int = PROBE_STATES) -> list[State]:
    """A deterministic battery of states of ``program``.

    States are built directly from the domains (value ``(j * (i + 3) + i)
    mod |D_i|`` of variable ``i`` in probe state ``j``), so the cost does
    not depend on the size of the full state space and unbounded domains
    are supported through their seeded sampling windows.
    """
    variables = list(program.variables.values())
    if not variables:
        return []
    rng = random.Random(_PROBE_SEED)
    per_variable: list[list[Any]] = []
    for variable in variables:
        if variable.domain.is_finite:
            values = list(variable.domain.values())
        else:
            values = [
                variable.domain.sample(rng) for _ in range(_INFINITE_DOMAIN_DRAWS)
            ]
        per_variable.append(values)
    states = []
    for j in range(limit):
        values = {
            variable.name: per_variable[i][(j * (i + 3) + i) % len(per_variable[i])]
            for i, variable in enumerate(variables)
        }
        states.append(State(values))
    return states


# ----------------------------------------------------------------------
# Hashing helpers
# ----------------------------------------------------------------------


def _payload(tokens: Iterable[str]) -> str:
    # Length prefixes keep the concatenation unambiguous.
    return "".join([f"{len(token)}:{token}" for token in tokens])


def _hash(tokens: Iterable[str]) -> str:
    return hashlib.sha256(
        _SCHEMA_TOKEN + _payload(tokens).encode("utf-8", "surrogatepass")
    ).hexdigest()


def _digest(tokens: Iterable[str], local: bool) -> str:
    digest = _hash(tokens)
    return PROCESS_LOCAL + digest if local else digest


def _pack(tokens: Iterable[str]) -> str:
    """A compound's token: its children inline while short, else hashed."""
    payload = _payload(tokens)
    if len(payload) <= _INLINE_LIMIT:
        return f"[{payload}]"
    return "#" + hashlib.sha256(payload.encode("utf-8", "surrogatepass")).hexdigest()


def _qualified(obj: Any) -> str:
    return f"{getattr(obj, '__module__', None)}.{getattr(obj, '__qualname__', '?')}"


def _code_info(code: types.CodeType) -> tuple[str, tuple[str, ...]]:
    """The digest of ``code`` and the sorted names it and its nested code use."""
    info = _CODE_INFO.get(code)
    if info is not None:
        return info
    names = set(code.co_names)
    for const in code.co_consts:
        if type(const) is types.CodeType:
            names.update(_code_info(const)[1])
    # Constants are literals, tuples, frozensets and code: no cycles and
    # nothing process-local, so a throwaway encoder gives their tokens.
    encoder = _Encoder()
    tokens = [
        "code",
        code.co_code.hex(),
        repr(getattr(code, "co_exceptiontable", b"")),
        f"args={code.co_argcount},{code.co_posonlyargcount},"
        f"{code.co_kwonlyargcount};flags={code.co_flags & ~inspect.CO_NESTED}",
        "names=" + ",".join(code.co_names),
        "varnames=" + ",".join(code.co_varnames),
        "freevars=" + ",".join(code.co_freevars),
        "cellvars=" + ",".join(code.co_cellvars),
        *[encoder.token(const) for const in code.co_consts],
    ]
    info = (_hash(tokens), tuple(sorted(names)))
    _CODE_INFO[code] = info
    return info


def _is_python_class(cls: type) -> bool:
    """Whether ``cls`` is laid out like a ``class`` statement's class.

    It must be a heap type, and its instances may grow over its base's
    only by its own slots and the ``__dict__``/``__weakref__`` pointers
    it adds. A C-level type — static (``datetime.date``,
    ``collections.defaultdict``) or a heap type built by an extension
    (``functools.partial``, ``_random.Random``) — holds state no
    attribute shows.
    """
    if not cls.__flags__ & _HEAPTYPE:
        return False
    base = cls.__base__
    own = cls.__dict__.get("__slots__", ())
    own = (own,) if isinstance(own, str) else tuple(own)
    size = base.__basicsize__ + _POINTER * len(
        [name for name in own if name not in ("__dict__", "__weakref__")]
    )
    if cls.__dictoffset__ and not base.__dictoffset__ and not (
        cls.__flags__ & _MANAGED_DICT
    ):
        size += _POINTER
    if cls.__weakrefoffset__ and not base.__weakrefoffset__ and not (
        cls.__flags__ & _MANAGED_WEAKREF
    ):
        size += _POINTER
    return cls.__basicsize__ == size


def _slot_layout(cls: type) -> tuple[tuple[str, Any], ...] | None:
    """The slot descriptors of ``cls``, or ``None`` if it cannot be walked.

    Every class in the MRO must be a Python class (:func:`_is_python_class`)
    or one of the builtins the encoder reads itself (``object``,
    containers, primitives). A bare ``object()`` has no class of its
    own: it is only an identity, so it cannot be walked either.
    """
    if cls in _BUILTIN_BASES:
        return None if cls is object else ()
    try:
        return _LAYOUTS[cls]
    except KeyError:
        pass
    layout: list[tuple[str, Any]] = []
    result: tuple[tuple[str, Any], ...] | None = None
    for klass in reversed(cls.__mro__):
        if klass in _BUILTIN_BASES:
            continue
        if not _is_python_class(klass):
            break
        own = klass.__dict__.get("__slots__", ())
        for name in (own,) if isinstance(own, str) else own:
            if name in ("__dict__", "__weakref__"):
                continue
            if name.startswith("__") and not name.endswith("__"):
                name = f"_{klass.__name__.lstrip('_')}{name}"
            layout.append((name, klass.__dict__[name]))
    else:
        result = tuple(layout)
    _LAYOUTS[cls] = result
    return result


# ----------------------------------------------------------------------
# The encoder
# ----------------------------------------------------------------------


class _Encoder:
    """Turns one object graph into tokens, Merkle style.

    A compound object's token packs its children's tokens, hashed once
    they grow long. A back-edge to an object still being encoded becomes
    its distance on the stack; a token that contains such an edge depends
    on where it was reached from, so it is neither reused nor memoized.
    ``local`` is set while the innermost compound contains an unwalkable
    object.
    """

    def __init__(self) -> None:
        self.local = False
        self._active: dict[Any, int] = {}
        self._low = sys.maxsize
        #: key -> (object kept alive so its id stays unique, token, local).
        self._done: dict[Any, tuple[Any, str, bool]] = {}

    def token(self, obj: Any) -> str:
        kind = type(obj)
        if kind in _PRIMITIVES:
            return f"{kind.__name__}:{obj!r}"
        # Immutable containers cannot close a cycle on their own, so they
        # skip the cycle bookkeeping.
        if kind is tuple:
            return _pack(["tuple", *[self.token(item) for item in obj]])
        if kind is frozenset:
            return _pack(["frozenset", *sorted([self.token(item) for item in obj])])
        if isinstance(obj, Program):
            return "program:" + self.memoized(obj, self._program)
        if isinstance(obj, Predicate):
            return "predicate:" + self.memoized(obj, self._predicate)
        if kind is types.CodeType:
            return "code:" + _code_info(obj)[0]
        if isinstance(obj, type):
            return "type:" + _qualified(obj)
        if kind is types.ModuleType:
            return self._module(obj, ())
        return self.compound(obj, self._walk)[0]

    def memoized(self, obj: Any, walk: Callable[[Any], list[str]]) -> str:
        """The digest of a program or predicate, memoized on the object."""
        digest = obj._digest
        if digest is None:
            digest, escaped = self.compound(obj, walk, final=True)
            if not escaped:
                obj._digest = digest
        if is_process_local(digest):
            self.local = True
        return digest

    def compound(
        self,
        obj: Any,
        walk: Callable[[Any], list[str]],
        *,
        key: Any = None,
        final: bool = False,
    ) -> tuple[str, bool]:
        """``(token, escaped)`` of ``obj``, whose children ``walk`` lists.

        ``final`` makes the token a full digest (with the process-local
        prefix when it applies) instead of a packed token.
        """
        key = id(obj) if key is None else key
        position = self._active.get(key)
        if position is not None:
            self._low = min(self._low, position)
            return f"cycle:{len(self._active) - position}", True
        done = self._done.get(key)
        if done is not None:
            self.local = self.local or done[2]
            return done[1], False
        position = len(self._active)
        self._active[key] = position
        outer_low, self._low = self._low, position
        outer_local, self.local = self.local, False
        try:
            tokens = walk(obj)
        finally:
            del self._active[key]
        local = self.local
        token = _digest(tokens, local) if final else _pack(tokens)
        escaped = self._low < position
        self._low = min(outer_low, self._low)
        self.local = outer_local or local
        if not escaped:
            self._done[key] = (obj, token, local)
        return token, escaped

    # -- the special forms ---------------------------------------------

    def _program(self, program: Program) -> list[str]:
        tokens = ["program", program.name]
        for name, variable in program.variables.items():
            tokens.append(
                f"var={name};domain={self.token(variable.domain)};"
                f"process={self.token(variable.process)}"
            )
        tokens.extend([self.token(action) for action in program.actions])
        return tokens

    def _predicate(self, predicate: Predicate) -> list[str]:
        support = predicate.support
        return [
            "predicate",
            predicate.name,
            "?" if support is None else ",".join(sorted(support)),
            self.token(predicate._fn),
            self.token(predicate.source),
            self.token(predicate.parts),
        ]

    def _function(self, fn: types.FunctionType) -> list[str]:
        digest, names = _code_info(fn.__code__)
        tokens = ["function", digest]
        for cell in fn.__closure__ or ():
            try:
                tokens.append(self._seen_by(names, cell.cell_contents))
            except ValueError:
                tokens.append("cell:empty")
        tokens.append(self.token(fn.__defaults__))
        tokens.append(self.token(fn.__kwdefaults__))
        self._named(fn.__globals__, names, tokens)
        if fn.__dict__:
            tokens.append(self.token(fn.__dict__))
        return tokens

    def _seen_by(self, names: tuple[str, ...], value: Any) -> str:
        """The token of ``value`` as code using ``names`` sees it: of a
        module or a Python class, the attributes those names pick."""
        if type(value) is types.ModuleType:
            return self._module(value, names)
        if isinstance(value, type) and value.__flags__ & _HEAPTYPE:
            return self._class(value, names)
        return self.token(value)

    def _named(self, scope: dict, names: tuple[str, ...], tokens: list[str]) -> None:
        """Append the tokens of the entries of ``scope`` that ``names`` picks."""
        for name in names:
            value = scope.get(name, _UNSET)
            if value is not _UNSET:
                tokens.append(f"name={name}")
                tokens.append(self._seen_by(names, value))

    def _module(self, module: types.ModuleType, names: tuple[str, ...]) -> str:
        """A module, with the attributes ``names`` picks out of it.

        The key includes ``names``: the same module reached from code
        that names other attributes is a different token.
        """

        def walk(module: types.ModuleType) -> list[str]:
            tokens = ["module", module.__name__]
            self._named(vars(module), names, tokens)
            return tokens

        return self.compound(module, walk, key=(id(module), names))[0]

    def _class(self, cls: type, names: tuple[str, ...]) -> str:
        """A class by name, with the attributes ``names`` picks out of
        each Python class in its MRO (constants, enum members, methods).
        """

        def walk(cls: type) -> list[str]:
            tokens = ["class", _qualified(cls)]
            for klass in cls.__mro__:
                if klass.__flags__ & _HEAPTYPE:
                    tokens.append(_qualified(klass))
                    self._named(vars(klass), names, tokens)
            return tokens

        return self.compound(cls, walk, key=(id(cls), names))[0]

    # -- everything else -------------------------------------------------

    def _walk(self, obj: Any) -> list[str]:
        kind = type(obj)
        if kind is types.FunctionType:
            return self._function(obj)
        if kind is State:
            return ["state", *[
                f"{name}={self.token(value)}" for name, value in sorted(obj.items())
            ]]
        if kind is types.MethodType:
            return ["method", self.token(obj.__func__), self.token(obj.__self__)]
        if isinstance(obj, _BUILTIN_CALLABLES):
            owner = getattr(obj, "__self__", None)
            if owner is None or isinstance(owner, (type, types.ModuleType)):
                return ["builtin", _qualified(obj), str(getattr(owner, "__name__", ""))]
            return ["builtin", _qualified(obj), self.token(owner)]
        if kind in _DESCRIPTORS:
            return ["descriptor", _qualified(obj.__objclass__), obj.__name__]
        if kind is property:
            return ["property", *[self.token(fn) for fn in (obj.fget, obj.fset, obj.fdel)]]
        if kind is staticmethod or kind is classmethod:
            tokens = [kind.__name__, self.token(obj.__func__)]
        else:
            layout = _slot_layout(kind)
            if layout is None:
                self.local = True
                return [f"opaque:{next(_LOCAL_TOKENS)}"]
            # Containers, and Python subclasses of the builtins (named
            # tuples, int enums, ...): the builtin value plus the
            # subclass's slots and attributes.
            if isinstance(obj, (list, tuple)):
                tokens = [_qualified(kind), *[self.token(item) for item in obj]]
            elif isinstance(obj, (set, frozenset)):
                tokens = [_qualified(kind), *sorted([self.token(item) for item in obj])]
            elif isinstance(obj, dict):
                tokens = [_qualified(kind)]
                for name, value in obj.items():
                    tokens += (self.token(name), self.token(value))
            elif isinstance(obj, _PRIMITIVE_TYPES):
                # The builtin's own repr: a subclass may override __str__
                # or __int__.
                base = next(b for b in kind.__mro__ if b in _PRIMITIVES)
                tokens = [_qualified(kind), f"{base.__name__}:{base.__repr__(obj)}"]
            else:
                tokens = ["object", _qualified(kind)]
            for name, descriptor in layout:
                try:
                    value = descriptor.__get__(obj, kind)
                except AttributeError:
                    tokens.append(f"{name}:unset")
                    continue
                tokens.append(f"{name}={self.token(value)}")
        state = getattr(obj, "__dict__", None)
        if state:
            tokens.append(self.token(state))
        return tokens

    def root(self, obj: Any, walk: Callable[[Any], list[str]]) -> str:
        try:
            return self.memoized(obj, walk)
        except RecursionError:
            # Too deep to walk: sound, but this process only.
            obj._digest = _digest([f"opaque:{next(_LOCAL_TOKENS)}"], True)
            return obj._digest


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def fingerprint_program(program: Program) -> str:
    """The structural digest of ``program``, memoized on it.

    Covers variables, domains, processes, action names, read/write sets,
    guards and statements (see the module docstring).
    """
    digest = program._digest
    if digest is not None:
        return digest
    encoder = _Encoder()
    return encoder.root(program, encoder._program)


def fingerprint_predicate(predicate: Predicate) -> str:
    """The structural digest of ``predicate``, memoized on it."""
    digest = predicate._digest
    if digest is not None:
        return digest
    encoder = _Encoder()
    return encoder.root(predicate, encoder._predicate)


def fingerprint_states(states: Iterable[State]) -> str:
    """A digest of a state sequence's content, in order.

    Keys a state set the caller did not label: two windows of the same
    size but different states get different keys.
    """
    encoder = _Encoder()
    tokens = ["states"]
    for state in states:
        tokens.append(";".join(
            f"{name}={encoder.token(value)}"
            for name, value in sorted(state.items())
        ))
    return _digest(tokens, encoder.local)


def fingerprint_instance(
    program: Program,
    invariant: Predicate,
    fault_span: Predicate | None = None,
    *,
    fairness: str = "weak",
    extra: tuple[str, ...] = (),
) -> str:
    """The cache key of one verification instance.

    Combines the program and predicate digests with the computation model
    and any caller-supplied discriminators (e.g. a state-window label for
    instances verified over a subset of the space). The key is process
    local when any part is.
    """
    parts = [
        fingerprint_program(program),
        fingerprint_predicate(invariant),
        fingerprint_predicate(fault_span) if fault_span is not None else "none",
        *extra,
    ]
    tokens = [
        f"program={parts[0]}",
        f"invariant={parts[1]}",
        f"fault_span={parts[2]}",
        f"fairness={fairness}",
        *(f"extra={item}" for item in extra),
    ]
    return _digest(tokens, any(is_process_local(part) for part in parts))
