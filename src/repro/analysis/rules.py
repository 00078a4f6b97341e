"""The invariant rules enforced by ``repro check``.

Each rule is a small AST visitor registered in the :data:`RULES` registry
(the same :class:`~repro.api.registry.Registry` machinery that backs
mappers and droppers, so rule names get aliases, parameter validation and
did-you-mean suggestions for free).

Rule families
-------------
``determinism`` (DET1xx)
    The simulation paths (``sim/``, ``stream/``, ``mapping/``, ``core/``)
    must be pure functions of their seeds: no unseeded RNGs, no wall-clock
    or entropy reads, no iteration order taken from hash-based containers,
    and no ``id()``-derived keys without a written justification.
``serialization`` (SER2xx)
    Every ``to_dict`` has a ``from_dict`` consuming the same key set, and
    performance counters riding on result objects are ``compare=False`` so
    cache behaviour never breaks metric equality.
``registry`` (REG3xx)
    Registries are populated at module top level only, and importing a
    module must not mutate ambient global state.
``typing`` (API4xx)
    The public API (``api/``, ``stream/``) is fully annotated, so the mypy
    gate (and downstream users, via ``py.typed``) can hold it to account.

A violation on a line carrying ``repro: allow[rule-name] <reason>`` is
suppressed; the reason is part of the contract and is what review audits.
"""

from __future__ import annotations

import ast
from typing import (Dict, Iterator, List, Mapping, Optional, Sequence, Set,
                    Tuple, TYPE_CHECKING)

from ..api.registry import Registry
from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .engine import ParsedModule

__all__ = ["RULES", "Rule", "DETERMINISTIC_PATHS", "TYPED_API_PATHS"]

#: Package-relative directories whose modules must be deterministic.
DETERMINISTIC_PATHS: Tuple[str, ...] = ("sim", "stream", "mapping", "core")

#: Package-relative directories whose public surface must be annotated.
TYPED_API_PATHS: Tuple[str, ...] = ("api", "stream")

#: Registry of all invariant rules, keyed by canonical rule name.
RULES: Registry["Rule"] = Registry("analysis rule")


class Rule:
    """Base class of one invariant rule.

    Subclasses set the class attributes and implement :meth:`check`.

    Attributes
    ----------
    name:
        Canonical registry name (kebab-case).
    code:
        Stable short code (``DET101`` ...), grouped by family.
    family:
        One of ``determinism`` / ``serialization`` / ``registry`` /
        ``typing``.
    paths:
        Package-relative directory prefixes the rule applies to, or
        ``None`` to scan every module.
    description:
        One-paragraph statement of the invariant, shown by
        ``repro list-rules``.
    """

    name: str = ""
    code: str = ""
    family: str = ""
    paths: Optional[Tuple[str, ...]] = None
    description: str = ""

    def applies_to(self, module: "ParsedModule") -> bool:
        """Whether ``module`` falls inside this rule's path scope."""
        if self.paths is None:
            return True
        head = module.relpath.split("/", 1)[0]
        return head in self.paths

    def check(self, module: "ParsedModule") -> Iterator[Finding]:
        """Yield findings for one parsed module."""
        raise NotImplementedError

    def finding(self, module: "ParsedModule", node: ast.AST,
                message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(rule=self.name, code=self.code, path=module.relpath,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted module/object paths they import.

    ``import numpy as np`` maps ``np -> numpy``; ``from datetime import
    datetime`` maps ``datetime -> datetime.datetime``.  Only top-of-chain
    names are tracked -- enough to resolve calls like ``np.random.rand()``
    back to ``numpy.random.rand``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else local
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def _dotted_name(node: ast.AST, aliases: Mapping[str, str]) -> Optional[str]:
    """Resolve an attribute chain to its imported dotted path, if any.

    Returns ``None`` when the chain does not bottom out in an imported
    name, so ``self.time()`` never resolves to ``time.time``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def _walk_scopes(tree: ast.Module) -> Iterator[Tuple[ast.AST, List[ast.stmt]]]:
    """Yield ``(scope_node, body)`` for the module, classes and functions."""
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node, node.body


def _walk_scope(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk a scope's nodes without descending into nested scopes.

    Nested functions and classes are separate scopes (yielded by
    :func:`_walk_scopes` in their own right); stopping at their boundary
    keeps every node attributed to exactly one scope.
    """
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue  # nested scope: its body belongs to its own walk
        stack.extend(ast.iter_child_nodes(node))


_SET_METHODS = frozenset({"union", "intersection", "difference",
                          "symmetric_difference"})


def _annotation_is_set(annotation: ast.expr) -> bool:
    """Whether a ``x: Set[...]`` / ``x: frozenset`` annotation names a set."""
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr in ("Set", "FrozenSet", "AbstractSet", "MutableSet")
    if isinstance(target, ast.Name):
        return target.id in ("set", "frozenset", "Set", "FrozenSet",
                            "AbstractSet", "MutableSet")
    return False


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    """Best-effort: does ``node`` evaluate to a ``set``/``frozenset``?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        # Set algebra preserves set-ness; require one known-set operand so
        # integer arithmetic is never misread as a set expression.
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return _is_set_expr(func.value, set_names)
    return False


def _set_typed_names(body: Sequence[ast.stmt]) -> Set[str]:
    """Local names that are only ever bound to set expressions.

    A name assigned a non-set value anywhere in the scope is dropped, so
    rebinding ``items = sorted(items)`` clears the taint.
    """
    names: Set[str] = set()
    tainted: Set[str] = set()
    for node in _walk_scope(body):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            if _annotation_is_set(node.annotation):
                if isinstance(target, ast.Name):
                    names.add(target.id)
                continue
            value = node.value
        if not isinstance(target, ast.Name) or value is None:
            continue
        if _is_set_expr(value, names):
            names.add(target.id)
        else:
            tainted.add(target.id)
    return names - tainted


def _iteration_sites(scope_body: Sequence[ast.stmt]
                     ) -> Iterator[Tuple[ast.expr, str]]:
    """Yield ``(iterable_expr, context)`` for every iteration in a scope."""
    for node in _walk_scope(scope_body):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, "for loop"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter, "comprehension"
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name)
                    and func.id in ("list", "tuple")
                    and len(node.args) == 1 and not node.keywords):
                yield node.args[0], f"{func.id}() conversion"


# ----------------------------------------------------------------------
# Determinism rules (DET1xx)
# ----------------------------------------------------------------------
#: numpy.random constructors that are deterministic *when seeded*.
_SEEDED_RNG_CTORS = frozenset({
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.PCG64", "numpy.random.SeedSequence",
    "numpy.random.RandomState",
})


@RULES.register("unseeded-random", aliases=("DET101",),
                summary="No unseeded random / np.random calls in "
                        "simulation paths.")
class UnseededRandomRule(Rule):
    """Unseeded randomness breaks seed-replay bit-identity.

    The simulation paths thread explicit ``numpy.random.Generator``
    instances derived from the trial seeds; any call into the stdlib
    ``random`` module, the legacy ``numpy.random`` global functions, or a
    seedless ``default_rng()`` / ``RandomState()`` introduces state the
    seeds do not control and silently breaks cached==naive, vector==loop
    and snapshot-replay equality.
    """

    name = "unseeded-random"
    code = "DET101"
    family = "determinism"
    paths = DETERMINISTIC_PATHS
    description = ("Simulation modules must draw randomness only from "
                   "explicitly seeded numpy Generators; stdlib random, the "
                   "numpy.random global functions and seedless RNG "
                   "constructors are forbidden.")

    def check(self, module: "ParsedModule") -> Iterator[Finding]:
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func, aliases)
            if dotted is None:
                continue
            if dotted == "random.Random" or dotted in _SEEDED_RNG_CTORS:
                if not node.args and not node.keywords:
                    yield self.finding(
                        module, node,
                        f"{dotted}() without a seed draws entropy from the "
                        f"OS; pass an explicit seed")
            elif dotted.startswith("random."):
                yield self.finding(
                    module, node,
                    f"call to stdlib {dotted}() uses hidden global RNG "
                    f"state; thread a seeded numpy Generator instead")
            elif dotted.startswith("numpy.random."):
                yield self.finding(
                    module, node,
                    f"legacy global-state call {dotted}(); use a seeded "
                    f"numpy.random.Generator instead")


_WALL_CLOCK_CALLS: Dict[str, str] = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy read",
    "uuid.uuid1": "host/time-derived identifier",
    "uuid.uuid4": "OS entropy read",
}


@RULES.register("wall-clock", aliases=("DET102",),
                summary="No wall-clock or OS-entropy reads in simulation "
                        "paths.")
class WallClockRule(Rule):
    """Simulated time is the engine clock, never the host clock.

    ``time.time()``, ``datetime.now()``, ``os.urandom()`` and friends make
    results depend on when/where a run executes.  ``time.perf_counter()``
    is deliberately allowed: it feeds only the compare-excluded
    ``PerfStats.wall_time_s`` counter.
    """

    name = "wall-clock"
    code = "DET102"
    family = "determinism"
    paths = DETERMINISTIC_PATHS
    description = ("Simulation modules must not read the host clock, OS "
                   "entropy or host-derived identifiers (time.time, "
                   "datetime.now, os.urandom, uuid.uuid4, secrets.*); "
                   "time.perf_counter is allowed for compare-excluded "
                   "perf counters only.")

    def check(self, module: "ParsedModule") -> Iterator[Finding]:
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func, aliases)
            if dotted is None:
                continue
            kind = _WALL_CLOCK_CALLS.get(dotted)
            if kind is None and dotted.startswith("secrets."):
                kind = "OS entropy read"
            if kind is not None:
                yield self.finding(
                    module, node,
                    f"{dotted}() is a {kind}; simulation results must be "
                    f"a pure function of the seeds")


_ENV_DICT_CALLS = frozenset({"vars", "globals", "locals"})


@RULES.register("unordered-iteration", aliases=("DET103",),
                summary="No iteration over sets (or environment dicts) in "
                        "simulation paths.")
class UnorderedIterationRule(Rule):
    """Hash-order iteration leaks ``PYTHONHASHSEED`` into results.

    Iterating a ``set``/``frozenset`` (directly, via set algebra, or via a
    local variable holding one) in a for loop, comprehension or
    ``list()``/``tuple()`` conversion makes event order depend on string
    hashing.  Wrap the iterable in ``sorted(...)`` or iterate the ordered
    source collection instead.  Plain dict iteration is insertion-ordered
    and allowed; ``vars()`` / ``globals()`` / ``__dict__`` reflection is
    not, because their population order is an implementation detail.
    """

    name = "unordered-iteration"
    code = "DET103"
    family = "determinism"
    paths = DETERMINISTIC_PATHS
    description = ("Simulation modules must not take iteration order from "
                   "hash-based containers: no for/comprehension/list()/"
                   "tuple() over set expressions or environment-reflection "
                   "dicts (vars, globals, __dict__); order every such "
                   "iterable explicitly, e.g. with sorted().")

    def check(self, module: "ParsedModule") -> Iterator[Finding]:
        for _scope, body in _walk_scopes(module.tree):
            set_names = _set_typed_names(body)
            for iterable, context in _iteration_sites(body):
                if _is_set_expr(iterable, set_names):
                    yield self.finding(
                        module, iterable,
                        f"{context} iterates a set; set order follows the "
                        f"process hash seed -- use sorted(...) or iterate "
                        f"the ordered source")
                elif self._is_env_dict(iterable):
                    yield self.finding(
                        module, iterable,
                        f"{context} iterates an environment-reflection "
                        f"dict; its population order is an implementation "
                        f"detail -- use an explicit field list")

    @staticmethod
    def _is_env_dict(node: ast.expr) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in _ENV_DICT_CALLS
        if isinstance(node, ast.Attribute):
            return node.attr == "__dict__"
        return False


@RULES.register("id-keyed-state", aliases=("DET104",),
                summary="id()-derived keys need a written justification in "
                        "simulation paths.")
class IdKeyedStateRule(Rule):
    """``id()`` keys are only sound under documented lifetime guarantees.

    An ``id()``-keyed container gives wrong answers when an object dies
    and another reuses its address, and its contents are meaningless after
    snapshot/restore.  The PMF memos in ``core/completion.py`` are sound
    (each entry holds strong references to its key objects, so their ids
    stay live, and every hit re-checks identity with ``is``) -- but every such
    use must say so in an inline ``repro: allow[id-keyed-state]``
    justification, so new id-keyed state cannot slip in unreviewed.
    """

    name = "id-keyed-state"
    code = "DET104"
    family = "determinism"
    paths = DETERMINISTIC_PATHS
    description = ("Every id(...) call in simulation modules must carry an "
                   "inline 'repro: allow[id-keyed-state]' comment "
                   "explaining why address reuse and snapshot/restore "
                   "cannot corrupt the keyed state.")

    def check(self, module: "ParsedModule") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "id"
                    and len(node.args) == 1):
                yield self.finding(
                    module, node,
                    "id()-derived key: justify the object-lifetime "
                    "guarantee with 'repro: allow[id-keyed-state] "
                    "<reason>' or key by value")


# ----------------------------------------------------------------------
# Serialization rules (SER2xx)
# ----------------------------------------------------------------------
def _method_defs(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {stmt.name: stmt for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _literal_dict_keys(func: ast.FunctionDef) -> Tuple[Set[str], bool]:
    """String keys a ``to_dict`` emits, plus a dynamic-payload marker."""
    keys: Set[str] = set()
    dynamic = False
    for node in ast.walk(func):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
                else:  # dict unpacking or computed key
                    dynamic = True
        elif isinstance(node, (ast.DictComp, ast.GeneratorExp)):
            dynamic = True
        elif isinstance(node, ast.Call):
            func_expr = node.func
            if (isinstance(func_expr, ast.Name)
                    and func_expr.id in ("dict", "asdict", "vars")):
                dynamic = True
        elif (isinstance(node, ast.Assign)
              and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Subscript)):
            sub = node.targets[0].slice
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                keys.add(sub.value)
    return keys, dynamic


def _consumed_dict_keys(func: ast.FunctionDef) -> Tuple[Set[str], bool]:
    """String keys a ``from_dict`` consumes, plus a dynamic marker."""
    keys: Set[str] = set()
    dynamic = False
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript):
            sub = node.slice
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                keys.add(sub.value)
        elif isinstance(node, ast.Call):
            if any(kw.arg is None for kw in node.keywords):
                dynamic = True  # cls(**payload) consumes every key
            func_expr = node.func
            if (isinstance(func_expr, ast.Attribute)
                    and func_expr.attr in ("get", "pop", "setdefault")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                keys.add(node.args[0].value)
    return keys, dynamic


@RULES.register("serialization-symmetry", aliases=("SER201",),
                summary="Every to_dict has a from_dict consuming the same "
                        "keys.")
class SerializationSymmetryRule(Rule):
    """One-way serialization rots: writers evolve, readers stay behind.

    The spool/snapshot replay guarantees rest on ``to_dict`` /
    ``from_dict`` pairs that cover the same field set.  A class exposing
    ``to_dict`` without ``from_dict`` (or whose pair disagrees on the
    statically visible key set) is an asymmetry waiting to break a resume;
    genuinely one-way summary exports must say so with an inline
    ``repro: allow[serialization-symmetry]`` justification.
    """

    name = "serialization-symmetry"
    code = "SER201"
    family = "serialization"
    paths = None
    description = ("A class defining to_dict must define from_dict, and "
                   "when both sides use statically visible string keys the "
                   "key sets must match; declared one-way exports need an "
                   "inline allow comment.")

    def check(self, module: "ParsedModule") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = _method_defs(node)
            to_dict = methods.get("to_dict")
            if to_dict is None:
                continue
            from_dict = methods.get("from_dict")
            if from_dict is None:
                yield self.finding(
                    module, to_dict,
                    f"class {node.name} defines to_dict but no from_dict; "
                    f"add the inverse constructor or declare the export "
                    f"one-way with an allow comment")
                continue
            emitted, to_dynamic = _literal_dict_keys(to_dict)
            consumed, from_dynamic = _consumed_dict_keys(from_dict)
            if to_dynamic or from_dynamic or not emitted or not consumed:
                continue
            missing = sorted(emitted - consumed)
            extra = sorted(consumed - emitted)
            if missing:
                yield self.finding(
                    module, from_dict,
                    f"{node.name}.from_dict never consumes serialized "
                    f"key(s): {', '.join(missing)}")
            if extra:
                yield self.finding(
                    module, from_dict,
                    f"{node.name}.from_dict consumes key(s) to_dict never "
                    f"emits: {', '.join(extra)}")


def _is_dataclass_decorated(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute):
            if target.attr == "dataclass":
                return True
        elif isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


@RULES.register("compare-excluded-perf", aliases=("SER202",),
                summary="Perf-counter dataclass fields must declare "
                        "compare=False.")
class CompareExcludedPerfRule(Rule):
    """Perf counters must never participate in result equality.

    Bit-identity pins (cached==naive, resume replay, snapshot/restore)
    compare result dataclasses directly; a perf/wall-time field that takes
    part in ``__eq__`` would fail every equivalence test the moment cache
    behaviour differs.  Any dataclass field named ``perf``/``*_perf`` or
    ``wall_time*`` must therefore be declared
    ``field(..., compare=False)``.
    """

    name = "compare-excluded-perf"
    code = "SER202"
    family = "serialization"
    paths = None
    description = ("Dataclass fields holding performance counters (perf, "
                   "*_perf, wall_time*) must be declared with "
                   "field(compare=False) so cache behaviour never breaks "
                   "metric equality.")

    @staticmethod
    def _is_perf_field(name: str) -> bool:
        return (name == "perf" or name.endswith("_perf")
                or name.startswith("wall_time"))

    @staticmethod
    def _declares_compare_false(value: Optional[ast.expr]) -> bool:
        if not isinstance(value, ast.Call):
            return False
        target = value.func
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else "")
        if name != "field":
            return False
        for kw in value.keywords:
            if (kw.arg == "compare" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False):
                return True
        return False

    def check(self, module: "ParsedModule") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _is_dataclass_decorated(node):
                continue
            if node.name == "PerfStats":
                continue  # the counters themselves, not a result carrier
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                target = stmt.target
                if not isinstance(target, ast.Name):
                    continue
                if not self._is_perf_field(target.id):
                    continue
                if not self._declares_compare_false(stmt.value):
                    yield self.finding(
                        module, stmt,
                        f"dataclass field {node.name}.{target.id} holds "
                        f"perf counters but is not "
                        f"field(..., compare=False); cache behaviour "
                        f"would leak into result equality")


# ----------------------------------------------------------------------
# Registry hygiene rules (REG3xx)
# ----------------------------------------------------------------------
def _registry_call_name(node: ast.Call) -> Optional[str]:
    """``SOME_REGISTRY.register(...)`` / ``.add(...)`` receiver, if any."""
    func = node.func
    if (isinstance(func, ast.Attribute) and func.attr in ("register", "add")
            and isinstance(func.value, ast.Name)):
        receiver = func.value.id
        if receiver.isupper() and len(receiver) > 1:
            return receiver
    return None


@RULES.register("nested-registration", aliases=("REG301",),
                summary="Registry registrations happen at module top level "
                        "only.")
class NestedRegistrationRule(Rule):
    """Registrations buried in functions make the registry call-order
    dependent.

    The registries (MAPPERS, DROPPERS, TRAFFIC, RULES, ...) are module
    state: a registration executed inside a function appears or disappears
    depending on who called what first, which breaks did-you-mean
    suggestions, ``list-*`` output and worker-process reconstruction.
    Register at module top level (the decorator form) so one import yields
    one complete registry.
    """

    name = "nested-registration"
    code = "REG301"
    family = "registry"
    paths = None
    description = ("Calls to <REGISTRY>.register/.add on an ALL_CAPS "
                   "registry must execute at module import time, not "
                   "inside a function or method body.")

    def check(self, module: "ParsedModule") -> Iterator[Finding]:
        yield from self._scan(module, module.tree.body, inside=False)

    def _scan(self, module: "ParsedModule", body: Sequence[ast.stmt],
              inside: bool) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Decorators evaluate in the enclosing scope.
                for deco in stmt.decorator_list:
                    yield from self._scan_expr(module, deco, inside)
                yield from self._scan(module, stmt.body, inside=True)
            elif isinstance(stmt, ast.ClassDef):
                for deco in stmt.decorator_list:
                    yield from self._scan_expr(module, deco, inside)
                yield from self._scan(module, stmt.body, inside)
            else:
                yield from self._scan_expr(module, stmt, inside)

    def _scan_expr(self, module: "ParsedModule", root: ast.AST,
                   inside: bool) -> Iterator[Finding]:
        if not inside:
            return
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                receiver = _registry_call_name(node)
                if receiver is not None:
                    yield self.finding(
                        module, node,
                        f"registration on {receiver} inside a function "
                        f"body; registries must be fully populated at "
                        f"import time")


_IMPORT_EFFECT_CALLS: Dict[str, str] = {
    "random.seed": "seeds the process-global RNG",
    "numpy.random.seed": "seeds the process-global RNG",
    "logging.basicConfig": "reconfigures process-wide logging",
    "warnings.simplefilter": "mutates the process-wide warning filters",
    "warnings.filterwarnings": "mutates the process-wide warning filters",
    "os.environ.update": "mutates the process environment",
    "os.chdir": "changes the process working directory",
    "sys.setrecursionlimit": "mutates interpreter limits",
    "sys.path.append": "mutates the import path",
    "sys.path.insert": "mutates the import path",
    "sys.path.extend": "mutates the import path",
}


@RULES.register("import-side-effects", aliases=("REG302",),
                summary="Importing a module must not mutate ambient global "
                        "state.")
class ImportSideEffectsRule(Rule):
    """Import-time mutation makes behaviour depend on import order.

    A module that seeds global RNGs, edits ``os.environ``/``sys.path`` or
    reconfigures logging at import time changes the behaviour of every
    *other* module depending on who imported it first -- exactly the
    spooky action the explicit-seed discipline exists to prevent.
    """

    name = "import-side-effects"
    code = "REG302"
    family = "registry"
    paths = None
    description = ("Module top-level code must not seed global RNGs, "
                   "mutate os.environ or sys.path, or reconfigure "
                   "logging/warnings; do such setup inside explicit "
                   "entry points.")

    def check(self, module: "ParsedModule") -> Iterator[Finding]:
        aliases = _import_aliases(module.tree)
        for stmt in self._top_level(module.tree.body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    dotted = _dotted_name(node.func, aliases)
                    effect = (_IMPORT_EFFECT_CALLS.get(dotted)
                              if dotted is not None else None)
                    if effect is not None:
                        yield self.finding(
                            module, node,
                            f"import-time call {dotted}() {effect}")
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        if (isinstance(target, ast.Subscript)
                                and _dotted_name(target.value, aliases)
                                == "os.environ"):
                            yield self.finding(
                                module, node,
                                "import-time assignment into os.environ "
                                "mutates the process environment")

    @staticmethod
    def _top_level(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
        """Module statements executed at import, descending into if/try."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                yield from ImportSideEffectsRule._top_level(
                    stmt.body + stmt.orelse)
            elif isinstance(stmt, ast.Try):
                nested = (stmt.body + stmt.orelse + stmt.finalbody
                          + [s for h in stmt.handlers for s in h.body])
                yield from ImportSideEffectsRule._top_level(nested)
            else:
                yield stmt


# ----------------------------------------------------------------------
# Typing rules (API4xx)
# ----------------------------------------------------------------------
@RULES.register("untyped-public-api", aliases=("API401",),
                summary="Public api/ and stream/ callables carry full "
                        "annotations.")
class UntypedPublicApiRule(Rule):
    """The typed surface is what the mypy gate (and users) check against.

    Every public function, method and property in ``repro/api/`` and
    ``repro/stream/`` must annotate all parameters and its return type
    (``__init__`` may omit the return annotation; mypy infers ``None``).
    The package ships ``py.typed``, so these annotations are the contract
    downstream type checkers see.
    """

    name = "untyped-public-api"
    code = "API401"
    family = "typing"
    paths = TYPED_API_PATHS
    description = ("Public callables in repro/api/ and repro/stream/ must "
                   "annotate every parameter (except self/cls) and the "
                   "return type; __init__ may omit its return annotation.")

    def check(self, module: "ParsedModule") -> Iterator[Finding]:
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_def(module, stmt, owner=None)
            elif isinstance(stmt, ast.ClassDef):
                if stmt.name.startswith("_"):
                    continue
                for inner in stmt.body:
                    if isinstance(inner, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        yield from self._check_def(module, inner,
                                                   owner=stmt.name)

    def _check_def(self, module: "ParsedModule", func: ast.FunctionDef,
                   owner: Optional[str]) -> Iterator[Finding]:
        public_dunder = func.name.startswith("__") and func.name.endswith("__")
        if func.name.startswith("_") and not public_dunder:
            return
        where = f"{owner}.{func.name}" if owner else func.name
        args = func.args
        positional = list(args.posonlyargs) + list(args.args)
        if owner is not None and positional and positional[0].arg in (
                "self", "cls"):
            positional = positional[1:]
        missing = [a.arg for a in positional + list(args.kwonlyargs)
                   if a.annotation is None]
        for star in (args.vararg, args.kwarg):
            if star is not None and star.annotation is None:
                missing.append(("*" if star is args.vararg else "**")
                               + star.arg)
        if missing:
            yield self.finding(
                module, func,
                f"public callable {where} has unannotated parameter(s): "
                f"{', '.join(missing)}")
        if func.returns is None and func.name != "__init__":
            yield self.finding(
                module, func,
                f"public callable {where} has no return annotation")
