"""Generic named-factory registry with aliases, validation and introspection.

Every pluggable axis of the reproduction -- mapping heuristics, dropping
policies, scenario presets and arrival processes -- is exposed through one
:class:`Registry` instance (see :mod:`repro.api.registries`).  A registry
maps *canonical names* (and optional aliases) to factories and knows enough
about each entry to validate parameters, render help text and produce
did-you-mean suggestions for typos::

    from repro.api import MAPPERS

    @MAPPERS.register("greedy", summary="Always picks machine 0.")
    class GreedyMapper(MappingHeuristic):
        ...

    mapper = MAPPERS.create("greedy")
    print(MAPPERS.describe())

The class is deliberately dependency-free so user code can instantiate its
own registries for new extension points.
"""

from __future__ import annotations

import difflib
import inspect
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generic, Iterator, List, Optional,
                    Sequence, Tuple, TypeVar)

__all__ = ["Registration", "Registry", "RegistryError", "UnknownNameError",
           "DuplicateNameError"]

T = TypeVar("T")


class RegistryError(KeyError):
    """Base class of registry lookup/registration errors.

    Subclasses :class:`KeyError` so call sites written against the old
    dict-backed registries (``except KeyError``) keep working.
    """

    def __str__(self) -> str:  # KeyError repr()s its message; undo that.
        return self.args[0] if self.args else ""


class UnknownNameError(RegistryError):
    """Raised when a name is not registered; carries suggestions."""


class DuplicateNameError(RegistryError):
    """Raised when a registration would shadow an existing name or alias."""


@dataclass(frozen=True)
class Registration(Generic[T]):
    """One registry entry: a named factory plus its metadata.

    Attributes
    ----------
    name:
        Canonical registry name.
    factory:
        Callable producing the registered object (a class or function).
    aliases:
        Alternate lookup names resolving to the same factory.
    params:
        Accepted keyword-parameter names, or ``None`` when the factory
        accepts arbitrary keywords (validation is then left to the factory).
    summary:
        One-line human-readable description used by :meth:`Registry.describe`.
    """

    name: str
    factory: Callable[..., T]
    aliases: Tuple[str, ...] = ()
    params: Optional[Tuple[str, ...]] = None
    summary: str = ""

    def validate(self, kwargs: Dict[str, Any]) -> None:
        """Reject keyword arguments outside the declared parameter set."""
        if self.params is None:
            return
        unknown = sorted(set(kwargs) - set(self.params))
        if unknown:
            accepted = ", ".join(self.params) if self.params else "(none)"
            raise TypeError(
                f"{self.name!r} does not accept parameter(s) "
                f"{', '.join(map(repr, unknown))}; accepted: {accepted}")


def _default_summary(factory: Callable[..., Any]) -> str:
    """First docstring line of a factory, as a fallback summary."""
    doc = inspect.getdoc(factory) or ""
    return doc.splitlines()[0].strip() if doc else ""


class Registry(Generic[T]):
    """A mapping from names (and aliases) to object factories.

    Parameters
    ----------
    kind:
        Human-readable singular description of what the registry holds
        (e.g. ``"mapping heuristic"``); used in error messages and help.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, Registration[T]] = {}
        self._resolve: Dict[str, str] = {}  # name or alias -> canonical name

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add(self, name: str, factory: Callable[..., T], *,
            aliases: Sequence[str] = (),
            params: Optional[Sequence[str]] = None,
            summary: Optional[str] = None) -> Callable[..., T]:
        """Register ``factory`` under ``name`` (and ``aliases``).

        Raises :class:`DuplicateNameError` if any of the names is already
        taken, so plugins cannot silently shadow built-ins.  Returns the
        factory unchanged so :meth:`register` can be used as a decorator.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string")
        entry = Registration(name=name, factory=factory,
                             aliases=tuple(aliases),
                             params=None if params is None else tuple(params),
                             summary=summary if summary is not None
                             else _default_summary(factory))
        for key in (name, *entry.aliases):
            if key in self._resolve:
                raise DuplicateNameError(
                    f"{self.kind} {key!r} is already registered "
                    f"(as {self._resolve[key]!r}); pick a different name or "
                    f"unregister it first")
        self._entries[name] = entry
        for key in (name, *entry.aliases):
            self._resolve[key] = name
        return factory

    def register(self, name: str, *, aliases: Sequence[str] = (),
                 params: Optional[Sequence[str]] = None,
                 summary: Optional[str] = None
                 ) -> Callable[[Callable[..., T]], Callable[..., T]]:
        """Decorator form of :meth:`add`::

            @DROPPERS.register("mine", params=("gain",))
            def make_mine(gain=1.0):
                return MyDropper(gain)
        """
        def decorator(factory: Callable[..., T]) -> Callable[..., T]:
            return self.add(name, factory, aliases=aliases, params=params,
                            summary=summary)
        return decorator

    def unregister(self, name: str) -> None:
        """Remove a canonical name (and its aliases) from the registry."""
        entry = self.get(name)
        del self._entries[entry.name]
        for key in (entry.name, *entry.aliases):
            self._resolve.pop(key, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> Registration[T]:
        """Return the :class:`Registration` behind a name or alias."""
        canonical = self._resolve.get(name)
        if canonical is None:
            raise UnknownNameError(self._unknown_message(name))
        return self._entries[canonical]

    def create(self, name: str, **kwargs: Any) -> T:
        """Instantiate the registered factory, validating parameters first."""
        entry = self.get(name)
        entry.validate(kwargs)
        return entry.factory(**kwargs)

    def validate(self, name: str, kwargs: Dict[str, Any]) -> None:
        """Check a (name, parameters) pair without instantiating anything."""
        self.get(name).validate(kwargs)

    def _unknown_message(self, name: str) -> str:
        known = sorted(self._resolve)
        suggestions = difflib.get_close_matches(str(name), known, n=3)
        hint = f"; did you mean {', '.join(map(repr, suggestions))}?" \
            if suggestions else ""
        return (f"unknown {self.kind} {name!r}{hint} "
                f"(known: {', '.join(known) or '(none)'})")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def list(self) -> List[str]:
        """Sorted canonical names (aliases excluded)."""
        return sorted(self._entries)

    def names(self) -> List[str]:
        """Sorted canonical names and aliases."""
        return sorted(self._resolve)

    def describe(self, name: Optional[str] = None) -> str:
        """Help text: one entry, or an aligned table of the whole registry."""
        if name is not None:
            return self._describe_one(self.get(name))
        if not self._entries:
            return f"(no registered {self.kind})"
        if self.kind.endswith("y"):
            plural = self.kind[:-1] + "ies"
        elif self.kind.endswith("s"):
            plural = self.kind + "es"
        else:
            plural = self.kind + "s"
        lines = [f"Registered {plural}:"]
        width = max(len(n) for n in self._entries) + 2
        for entry_name in self.list():
            entry = self._entries[entry_name]
            alias = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
            lines.append(f"  {entry_name.ljust(width)}{entry.summary}{alias}")
        return "\n".join(lines)

    def _describe_one(self, entry: Registration[T]) -> str:
        lines = [f"{self.kind}: {entry.name}"]
        if entry.aliases:
            lines.append(f"  aliases: {', '.join(entry.aliases)}")
        if entry.params is not None:
            lines.append(f"  parameters: {', '.join(entry.params) or '(none)'}")
        if entry.summary:
            lines.append(f"  {entry.summary}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._resolve

    def __iter__(self) -> Iterator[str]:
        return iter(self.list())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {self.list()})"
