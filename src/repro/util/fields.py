"""One rule per document field, declared on the dataclass field itself.

The documents that arrive from outside -- a processor config, a job, a
sweep, a fault, a chaos spec -- are dataclasses whose fields are declared
with :func:`rule`: a doc line, a default, and a range (``lo``/``hi``) or
a set of ``choices``.  The type is the field's annotation; ``int | None``
may be null, a bool is not an int, and an int counts as a number.

:func:`check` validates an instance against its rules with one message
format, ``'<field>' must be <values>, got <value!r>``; the documents call
it from ``__post_init__``, so JSON parsing and Python construction obey
the same rules.  :func:`from_json` builds a document from a JSON object.
Each class's rule table is built once, on first use.
"""

from __future__ import annotations

import dataclasses
import enum
import numbers
import typing
from dataclasses import MISSING

_WORDS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string", dict: "an object"}
#: What passes for each annotated type (numpy integers count as ints).
_ACCEPTED = {int: numbers.Integral, float: numbers.Real,
             list: (list, tuple), tuple: (list, tuple)}


def rule(doc: str, default=MISSING, *, factory=MISSING, lo=None, hi=None,
         choices=None, compare: bool = True):
    """A dataclass field carrying its doc line and its range."""
    return dataclasses.field(
        default=default, default_factory=factory, compare=compare,
        metadata={"doc": doc, "lo": lo, "hi": hi, "choices": choices})


class Rule:
    """What one field may hold, and the words that say so."""

    def __init__(self, name: str, hint, doc: str = "", default=MISSING,
                 factory=MISSING, lo=None, hi=None, choices=None) -> None:
        self.name, self.doc, self.default, self.factory = (
            name, doc, default, factory)
        self.lo, self.hi, self.choices = lo, hi, choices
        args = typing.get_args(hint)
        self.nullable = type(None) in args
        if self.nullable:
            (hint,) = (a for a in args if a is not type(None))
            args = typing.get_args(hint)
        self.type = typing.get_origin(hint) or hint
        self.accepted = _ACCEPTED.get(self.type, self.type)
        self.item = Rule("item", args[0]) if args else None
        # An enum field's members by JSON value.
        self.enum = ({m.value: m for m in hint}
                     if isinstance(hint, enum.EnumMeta) else None)
        if choices is not None or self.enum is not None:
            what = "one of " + ", ".join(map(repr, choices or self.enum))
        elif self.item is not None:
            what = f"a list of {self.item.what.split(' ', 1)[1]}s"
        else:
            what = _WORDS.get(hint) or f"a {hint.__name__}"
        if lo is not None:
            what += f" >= {lo}" if hi is None else f" in {lo}..{hi}"
        self.what = f"null or {what}" if self.nullable else what

    def accepts(self, value) -> bool:
        if type(value) is not self.type:
            if value is None:
                return self.nullable
            if (not isinstance(value, self.accepted)
                    or isinstance(value, bool) and self.type is not bool):
                return False
        if self.item is not None:
            return all(map(self.item.accepts, value))
        if self.choices is not None:
            return value in self.choices
        return ((self.lo is None or value >= self.lo)
                and (self.hi is None or value <= self.hi))


class Table:
    """A document class's rules by field name, in declaration order, and
    what :func:`check` and :func:`from_json` walk, worked out once."""

    def __init__(self, cls: type) -> None:
        hints = typing.get_type_hints(cls)
        self.rules = {
            f.name: Rule(f.name, hints[f.name], default=f.default,
                         factory=f.default_factory, **f.metadata)
            for f in dataclasses.fields(cls) if "doc" in f.metadata}
        rules = self.rules.values()
        self.checks = tuple((r.name, r.default, r) for r in rules)
        self.required = [r.name for r in rules if r.default is MISSING
                         and r.factory is MISSING]
        self.convert = {r.name: r for r in rules
                        if r.enum is not None or r.type is tuple}


_TABLES: dict[type, Table] = {}


def table(cls: type) -> Table:
    """The rule table of ``cls`` (built on first use)."""
    found = _TABLES.get(cls)
    if found is None:
        found = _TABLES[cls] = Table(cls)
    return found


def check(obj, error) -> None:
    """Raise ``error(message)`` for the first field of ``obj`` its rule
    rejects; a field still holding its default object passes."""
    values = obj.__dict__
    for name, default, r in table(type(obj)).checks:
        value = values[name]
        if value is not default and not r.accepts(value):
            raise error(f"'{name}' must be {r.what}, got {value!r}")


def from_json(cls: type, doc, noun: str, error, **given):
    """Build ``cls`` from the JSON object ``doc``.

    Rejects a non-object, unknown keys and missing required fields,
    turns enum values into members (an unknown value is left for
    :func:`check` to reject with the choices) and lists into tuples
    where the field is a tuple, and calls ``cls``.  ``given`` holds
    fields the caller parsed from ``doc`` itself; they override
    ``doc``'s values.
    """
    if not isinstance(doc, dict):
        raise error(f"'{noun}' must be an object, got {doc!r}")
    rules = table(cls)
    if not rules.rules.keys() >= doc.keys():
        unknown = sorted(doc.keys() - rules.rules.keys())
        raise error(f"unknown {noun} field(s): {', '.join(unknown)}")
    values = {**doc, **given}
    missing = [name for name in rules.required if name not in values]
    if missing:
        raise error(f"missing {noun} field(s): {', '.join(missing)}")
    for name, value in values.items():
        r = rules.convert.get(name)
        if r is None:
            continue
        if r.enum is not None and isinstance(value, str):
            values[name] = r.enum.get(value, value)
        elif r.type is tuple and isinstance(value, list):
            values[name] = tuple(value)
    return cls(**values)
