"""The values each converter config leaf accepts, declared next to its field.

A leaf is declared as `name: type = _leaf(default, domain)`, where the domain
is an Interval, a set of choices (OneOf), or Entries, a domain per entry of a
tuple. _check_leaves walks a config tree once and raises SchemaError naming
the first leaf without its default's type or outside its domain by dotted
key, with the type or the domain as str() writes it, and the value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from math import isfinite

from .errors import SchemaError


def _number(x: float) -> str:
    """x as "%g" writes it when that reads back as x, else in full."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


@dataclass(frozen=True)
class Interval:
    """The numbers from lo to hi; each end is included if its bracket in ends is "[" or "]"."""

    lo: float
    hi: float
    ends: str = "[]"

    def __contains__(self, x) -> bool:
        above = self.lo <= x if self.ends[0] == "[" else self.lo < x
        return above and (x <= self.hi if self.ends[1] == "]" else x < self.hi)

    def __str__(self) -> str:
        return f"{self.ends[0]}{_number(self.lo)}, {_number(self.hi)}{self.ends[1]}"


@dataclass(frozen=True, init=False)
class OneOf:
    """One of a few listed values."""

    choices: tuple

    def __init__(self, *choices) -> None:
        object.__setattr__(self, "choices", choices)

    def __contains__(self, x) -> bool:
        return x in self.choices

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, self.choices)) + "}"


@dataclass(frozen=True, init=False)
class Entries:
    """A tuple's per-entry domains: entry i lies in domains[i], or every entry in a lone one.

    With one domain per entry, the tuple holds exactly that many entries.
    """

    domains: tuple

    def __init__(self, *domains) -> None:
        object.__setattr__(self, "domains", domains)

    def __contains__(self, values) -> bool:
        per_entry = self.domains * len(values) if len(self.domains) == 1 else self.domains
        return len(values) == len(per_entry) and all(
            x in domain for x, domain in zip(values, per_entry))

    def __str__(self) -> str:
        if len(self.domains) == 1:
            return f"{self.domains[0]} for each entry"
        return " x ".join(map(str, self.domains))


def _leaf(default, domain):
    """A dataclass field holding default, whose values must lie in domain."""
    return field(default=default, metadata={"domain": domain})


def _is_number(value) -> bool:
    """An int that is not a bool, or a finite float (JSON may spell NaN and Infinity)."""
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and isfinite(value))


def _has_type_of(value, default) -> bool:
    """A number for a float default, a tuple of numbers for a tuple, else default's exact type."""
    if isinstance(default, float):
        return _is_number(value)
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(map(_is_number, value))
    return type(value) is type(default)


def _check_leaves(node, prefix: str = "") -> None:
    """Raise SchemaError for the first field under node without its default's type or domain."""
    for f in fields(node):
        value, key = getattr(node, f.name), f"{prefix}{f.name}"
        if not _has_type_of(value, f.default):
            raise SchemaError(f"config key {key} expects {type(f.default).__name__}, got {value!r}")
        if is_dataclass(value):
            _check_leaves(value, f"{key}.")
        elif value not in f.metadata["domain"]:
            raise SchemaError(f"{key} must be in {f.metadata['domain']}, got {value!r}")
