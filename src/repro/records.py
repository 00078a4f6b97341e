"""One codec for every persisted dataclass.

A :class:`Record` dataclass is written by ``to_dict`` (fields in order)
and read by ``from_dict``, both derived from its annotations: ``int``/
``float``/``bool`` (a bool is never a number, a float never an integer),
``str``, ``Enum``, ``Optional[X]``, a nested ``Record``, ``List[X]``,
``Tuple[X, ...]``, a ``NamedTuple`` (a fixed list), ``Dict[str|int, X]``,
:data:`Params` (an object) and ``Annotated[Base, {kind: class}]`` (tagged
by a ``"kind"`` key).  Reading rejects unknown keys with a did-you-mean
hint, ill-typed values with their path (``snapshot tasks[2].id must be an
integer, got [1, 'a']``) and a missing field by its record's path
(``snapshot tasks[2] is missing key 'id'``), all as ``ValueError``.  Records
declare ``DROPPED_KEYS`` (read and discarded) and ``CONDITIONAL`` (fields
omitted while ``None``).
"""

from __future__ import annotations

import dataclasses
import difflib
import enum
import functools
import numbers
import typing
from typing import (Any, Callable, ClassVar, Dict, List, Mapping, NoReturn,
                    Optional, Sequence, Tuple, Type, TypeVar)

__all__ = ["Record", "Params", "SCALARS", "check_scalar", "freeze_params",
           "check_keys", "require_mapping"]

#: Keyword parameters as a hashable tuple of ``(key, value)`` pairs.
Params = Tuple[Tuple[str, Any], ...]

#: Field annotations :func:`check_scalar` checks, by name.
SCALARS = {"int": int, "float": float, "bool": bool}

_R = TypeVar("_R", bound="Record")
_Convert = Callable[[Any], Any]
_Pair = Tuple[_Convert, _Convert]  # (encoder, decoder)


class _Invalid(Exception):
    """A rejected value: ``message`` follows its path (or, if callable,
    renders it); ``steps`` (field, index, (dict key,)) lead up from it."""

    def __init__(self, message: Any,
                 cause: Optional[ValueError] = None) -> None:
        super().__init__(message)
        self.message, self.cause = message, cause
        self.steps: List[Any] = []

    def raise_for(self, path: str, name: str) -> NoReturn:
        """Raise the public error; ``path`` is a label (``snapshot``, a
        space before the first field) or an element (``trials[0]``)."""
        steps = "".join(f"[{s}]" if isinstance(s, int) else
                        f"[{s[0]!r}]" if isinstance(s, tuple) else f".{s}"
                        for s in reversed(self.steps))
        if not steps:
            subject = path or name
        elif not path or path.endswith("]"):
            subject = (path + steps).lstrip(".")
        else:
            subject = f"{path} {steps[1:]}"
        raise ValueError(self.message(subject) if callable(self.message)
                         else f"{subject} {self.message}") from None


def _at(step: Any, dec: _Convert, value: Any) -> Any:
    try:
        return dec(value)
    except _Invalid as exc:
        exc.steps.append(step)
        raise


def _check(ok: Callable[[Any], bool], noun: str,
           make: Optional[type] = None) -> _Convert:
    """A leaf decoder: ``value`` (as ``make``) if ``ok(value)``."""
    def decode(value: Any) -> Any:
        if value.__class__ is make:
            return value
        if not ok(value):
            raise _Invalid(f"must be {noun}, got {value!r}")
        return value if make is None else make(value)
    return decode


def _params(value: Any) -> Params:
    if isinstance(value, Mapping):
        return tuple(sorted(value.items()))
    try:
        return tuple((str(k), v) for k, v in value)
    except (TypeError, ValueError):
        raise _Invalid(f"must be a table of KEY = VALUE, "
                       f"got {type(value).__name__}") from None


_LEAVES: Dict[Any, _Convert] = {
    int: _check(lambda v: isinstance(v, numbers.Integral)
                and not isinstance(v, bool), "an integer", int),
    float: _check(lambda v: isinstance(v, numbers.Real)
                  and not isinstance(v, bool), "a number", float),
    bool: _check(lambda v: isinstance(v, bool), "true or false"),
    str: _check(lambda v: isinstance(v, str), "a string")}


def _keyed(dec: _Convert, value: Any, key: str) -> Any:
    try:
        return dec(value)
    except _Invalid as exc:
        raise ValueError(f"{key} {exc.message}") from None


def check_scalar(value: Any, kind: str, key: str) -> Any:
    """``value`` as a scalar of annotation ``kind`` (a :data:`SCALARS`
    key), else a ``ValueError`` naming ``key``.  A bool is never a number
    and a float never an integer, so ``trials = 2.7`` fails, not truncates.
    """
    return _keyed(_LEAVES[SCALARS[kind]], value, key)


def freeze_params(value: Any, key: str) -> Params:
    """Coerce a params table (mapping, sorted by key, or a sequence of
    pairs, kept in order) to a hashable tuple; else a ``ValueError``
    naming ``key`` and the offending type."""
    return _keyed(_params, value, key)


def _unknown_keys(where: str, unknown: Sequence[str],
                  allowed: Sequence[str]) -> str:
    hints = []
    for key in unknown:
        close = difflib.get_close_matches(str(key), list(allowed), n=1)
        hints.append(f"{key!r}" + (f" (did you mean {close[0]!r}?)"
                                   if close else ""))
    return (f"unknown {where} key(s) {', '.join(hints)}; "
            f"accepted: {', '.join(allowed)}")


def check_keys(mapping: Mapping[str, Any], allowed: Sequence[str],
               where: str, error: Type[Exception] = ValueError) -> None:
    """Reject unknown keys of ``mapping`` with a did-you-mean hint, as an
    ``error`` naming ``where``."""
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise error(_unknown_keys(where, unknown, allowed))


def require_mapping(payload: object, what: str) -> None:
    """Reject a JSON/TOML value that should be an object but is not (a
    list, a string); ``what`` names the value in the error."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"{what} must be a mapping, "
                         f"got {type(payload).__name__}")


def _same(value: Any) -> Any:
    return value


def _container(value: Any, kind: Any, noun: str) -> None:
    if not isinstance(value, kind):
        raise _Invalid(f"must be a {noun}, got {type(value).__name__}")


def _choice(table: Mapping[Any, Any], value: Any) -> Any:
    try:
        return table[value]
    except (KeyError, TypeError):
        raise _Invalid(f"must be one of {', '.join(map(repr, table))}, "
                       f"got {value!r}") from None


def _converter(hint: Any) -> _Pair:
    """The (encoder, decoder) of one annotation."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if isinstance(hint, type) and hint in _LEAVES:
        return _same, _LEAVES[hint]
    if hint == Params:
        return dict, _params
    if isinstance(hint, type) and issubclass(hint, Record):
        return _codec(hint).encode, _codec(hint).decode
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        members = {member.value: member for member in hint}
        return (lambda v: v.value), lambda v: _choice(members, v)
    if isinstance(hint, type) and issubclass(hint, tuple):  # a NamedTuple
        parts = [_converter(h) for h in typing.get_type_hints(hint).values()]
        shape = (f"[{', '.join(hint._fields)}] "
                 f"{'pair' if len(parts) == 2 else 'list'}")

        def fixed(value: Any) -> Any:
            if not isinstance(value, (list, tuple)) \
                    or len(value) != len(parts):
                raise _Invalid(f"must be a {shape}, got {value!r}")
            return hint(*(_at(i, dec, v) for i, ((_, dec), v)
                          in enumerate(zip(parts, value))))
        return (lambda t: [enc(v) for (enc, _), v in zip(parts, t)]), fixed
    if origin is typing.Union and len(args) == 2 and args[1] is type(None):
        enc, dec = _converter(args[0])
        return (enc if enc is _same else
                (lambda v: None if v is None else enc(v))), \
            lambda v: None if v is None else dec(v)
    if origin is typing.Annotated:
        kinds = {kind: _codec(cls) for kind, cls in
                 hint.__metadata__[0].items()}
        names = {codec.cls: kind for kind, codec in kinds.items()}

        def tagged(value: Any) -> Any:
            _container(value, Mapping, "mapping")
            codec = _at("kind", lambda k: _choice(kinds, k),
                        value.get("kind"))
            return codec.decode({k: v for k, v in value.items()
                                 if k != "kind"})
        return (lambda v: {"kind": names[type(v)],
                           **kinds[names[type(v)]].encode(v)}), tagged
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        enc, dec = _converter(args[0])

        def sequence(value: Any) -> Any:
            _container(value, (list, tuple), "list")
            return origin([_at(i, dec, v) for i, v in enumerate(value)])
        return ((lambda v: [enc(x) for x in v]) if enc is not _same
                else list), sequence
    if origin is dict and args[0] in (int, str):
        enc, dec = _converter(args[1])
        key = _LEAVES[str] if args[0] is str else _check(
            lambda k: isinstance(k, str) and k.lstrip("-").isdigit(),
            "an integer key", int)

        def mapping(value: Any) -> Any:
            _container(value, Mapping, "mapping")
            return {_at((k,), key, k): _at((k,), dec, v)
                    for k, v in value.items()}
        if args[0] is str and enc is _same:
            return dict, mapping
        return (lambda m: {str(k): enc(v) for k, v in m.items()}), mapping
    raise TypeError(f"a record field cannot be annotated {hint!r}")


class _Codec:
    """The compiled encoder and decoder of one record class."""

    def __init__(self, cls: Any) -> None:
        hints = typing.get_type_hints(cls, include_extras=True)
        fields = dataclasses.fields(cls)
        self.cls, self.names = cls, [f.name for f in fields]
        self.accepted = frozenset(self.names) | frozenset(cls.DROPPED_KEYS)
        pairs = [_converter(hints[name]) for name in self.names]
        # A None encoder saves a call per written scalar.
        self.writes = [(f.name, None if enc is _same else enc,
                        f.name in cls.CONDITIONAL)
                       for f, (enc, _) in zip(fields, pairs)]
        self.reads = [(f.name, dec, f.default is dataclasses.MISSING
                       and f.default_factory is dataclasses.MISSING)
                      for f, (_, dec) in zip(fields, pairs)]
        #: The scalar, string and params fields ``_check_fields`` coerces
        #: (optional ones included).
        self.leaves = [(f.name, dec) for f, (enc, dec) in zip(fields, pairs)
                       if enc is _same or dec is _params]

    def encode(self, obj: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {}
        for name, enc, omit_none in self.writes:
            value = getattr(obj, name)
            if value is None and omit_none:
                continue
            payload[name] = value if enc is None else enc(value)
        return payload

    def decode(self, payload: Any) -> Any:
        _container(payload, Mapping, "mapping")
        if not self.accepted.issuperset(payload):
            unknown = sorted(set(payload) - self.accepted, key=str)
            raise _Invalid(lambda where: _unknown_keys(where, unknown,
                                                       self.names))
        kwargs = {}
        for name, dec, required in self.reads:
            if name in payload:
                try:
                    kwargs[name] = dec(payload[name])
                except _Invalid as exc:
                    exc.steps.append(name)
                    raise
            elif required:
                raise _Invalid(f"is missing key {name!r}")
        try:
            return self.cls(**kwargs)
        except ValueError as exc:
            raise _Invalid(f"is invalid: {exc}", cause=exc) from None


@functools.lru_cache(maxsize=None)
def _codec(cls: type) -> _Codec:
    return _Codec(cls)


class Record:
    """Mixin of a dataclass persisted as a JSON object."""

    #: Keys read and discarded (derived values, retired switches).
    DROPPED_KEYS: ClassVar[Tuple[str, ...]] = ()
    #: Fields omitted from :meth:`to_dict` while ``None``.
    CONDITIONAL: ClassVar[Tuple[str, ...]] = ()

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serialisable representation, fields in order."""
        return _codec(type(self)).encode(self)

    @classmethod
    def from_dict(cls: Type[_R], payload: Any, path: str = "") -> _R:
        """Rebuild a record from :meth:`to_dict` output; ``path`` names the
        payload in error messages (default: the class name)."""
        require_mapping(payload, f"{path or cls.__name__} payload")
        try:
            return _codec(cls).decode(payload)
        except _Invalid as exc:
            if exc.cause is not None and not exc.steps:
                raise exc.cause from None  # the record's own check
            exc.raise_for(path, cls.__name__)

    def _check_fields(self) -> None:
        """Check and coerce the scalar, string and params fields in place,
        so direct construction follows :meth:`from_dict`'s rules."""
        for name, dec in _codec(type(self)).leaves:
            object.__setattr__(self, name, _keyed(dec, getattr(self, name),
                                                  name))
