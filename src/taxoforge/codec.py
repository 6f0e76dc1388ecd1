"""One reader and one writer for the phase artifacts, derived from the field
annotations of the phase results: str, int, float, bool, ``X | None``, Enum,
``tuple[X, ...]``, ``list[X]``, ``frozenset[X]``, ``Mapping[str, X]`` and
dataclasses of these. The writer works like ``dataclasses.asdict``, except
that a field whose type is a dataclass is inlined into its parent object
(one inside a tuple or mapping stays an object); enums are written as their
values and frozensets as sorted lists; an instance of a subclass is written
with the fields of the named dataclass only. The reader refuses the first
wrong leaf by its path, as in ``data.placements[3].composite: expected a
number, got None``, ignores keys that are not fields, gives an absent key
its field's default where it has one, and takes only text as a mapping
key. A number is never text, a boolean, NaN, infinite or a whole number
beyond the float range. It builds the dataclasses, so each
``__post_init__`` check runs; one that fails is refused at its object's
path. Both are compiled once per annotation. The KB, lexicon, rules and
config files, read by ``read_yaml``, are decoded by the same reader;
``read_yaml`` parses with libyaml when PyYAML was built with it."""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from collections.abc import Mapping
from enum import Enum
from functools import cache
from operator import attrgetter
from pathlib import Path

import yaml

from .errors import ArtifactError, TaxoforgeError

# libyaml's parser builds the same documents as the pure-Python one, about
# eight times faster on a large KB.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# leaf type -> (JSON types it accepts, what a refusal says it expected)
_LEAVES = {
    str: ((str,), "a string"),
    int: ((int,), "a whole number"),
    float: ((float, int), "a number"),
    bool: ((bool,), "true or false"),
}


class _Refused(Exception):
    """A wrong leaf; ``path`` gathers its location, innermost step first."""

    def __init__(self, message: str, *path: str) -> None:
        super().__init__(message)
        self.path = list(path)


def _shown(value: object) -> str:
    shown = repr(value)
    return shown if len(shown) <= 60 else shown[:57] + "..."


def _refuse(expected: str, value: object) -> _Refused:
    return _Refused(f"expected {expected}, got {_shown(value)}")


def decode(kind: object, data: object, where: str, error=ArtifactError):
    """``data`` read as ``kind``; a wrong leaf raises ``error`` naming
    ``where`` and then the leaf's path below it, which follows a ``where``
    ending in ": ", a file's label, as ``domains[0].id``."""
    try:
        return _codec(kind)[0](data)
    except _Refused as exc:
        at = "".join(reversed(exc.path))
        if where.endswith(": "):
            where, at = where[:-2], at and ": " + at.removeprefix(".")
        raise error(f"{where}{at}: {exc}") from None


def read_yaml(path: Path, label: str, error: type[TaxoforgeError]) -> dict:
    """The mapping a YAML input file holds, ``{}`` for an empty file; else
    ``error`` in one line naming the ``label`` file."""
    try:
        doc = yaml.load(path.read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        reason = " ".join(str(exc).split())  # YAML errors span lines
        raise error(f"cannot read {label} file {path}: {reason}") from None
    if doc is not None and type(doc) is not dict:
        raise error(f"{label} file {path}: expected a mapping, got {_shown(doc)}")
    return doc or {}


def encode(kind: object, value: object) -> object:
    """The JSON-ready form of ``value``, an instance of ``kind``."""
    write = _codec(kind)[1]
    return value if write is None else write(value)


def first_difference(expected: object, actual: object, path: str = "") -> str | None:
    """``path`` and below it the path of the first leaf where the JSON value
    ``actual`` differs from ``expected``, with both values; None where none
    does. Keys ``expected`` lacks are ignored, as the reader ignores them.
    A boolean never equals a number, though in Python ``True == 1.0``, so
    containers are compared leaf by leaf."""
    found = _difference(expected, actual)
    return None if found is None else path + found


def _difference(expected: object, actual: object) -> str | None:
    # The path is built on the way out from a difference, not for each leaf.
    if type(expected) is dict and type(actual) is dict:
        for key, value in expected.items():
            if key not in actual:
                return f".{key}: missing"
            if (found := _difference(value, actual[key])) is not None:
                return f".{key}{found}"
        return None
    if type(expected) is list and type(actual) is list:
        for index, (value, other) in enumerate(zip(expected, actual)):
            if (found := _difference(value, other)) is not None:
                return f"[{index}]{found}"
        if len(expected) != len(actual):
            return f": expected {len(expected)} entries, got {len(actual)}"
        return None
    if expected == actual and (type(expected) is bool) is (type(actual) is bool):
        return None
    return f": expected {_shown(expected)}, got {_shown(actual)}"


@cache
def _codec(kind: object):
    """(reader, writer) of ``kind``; the writer is None where a value is
    JSON-ready as it is."""
    if kind in _LEAVES:
        accepted, expected = _LEAVES[kind]

        def read_leaf(value):
            if type(value) in accepted:
                return value
            raise _refuse(expected, value)

        def read_finite(value):
            try:
                if math.isfinite(read_leaf(value)):
                    return value
            except OverflowError:  # a whole number beyond the float range
                pass
            raise _refuse("a finite number", value)

        return read_finite if kind is float else read_leaf, None
    if isinstance(kind, type) and issubclass(kind, Enum):
        members = {member.value: member for member in kind}
        expected = "one of " + ", ".join(map(repr, members))

        def read_enum(value):
            try:
                return members[value]
            except (KeyError, TypeError):  # TypeError: an unhashable value
                raise _refuse(expected, value) from None

        return read_enum, attrgetter("value")
    if dataclasses.is_dataclass(kind):
        return _dataclass_codec(kind)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (types.UnionType, typing.Union):  # X | None, Optional[X]
        (inner,) = set(args) - {type(None)}
        read, write = _codec(inner)
        return (
            lambda value: None if value is None else read(value),
            write and (lambda value: None if value is None else write(value)),
        )
    if origin in (tuple, list, frozenset):
        read, write = _codec(args[0])

        def read_list(value):
            if type(value) is not list:
                raise _refuse("a list", value)
            out = []
            try:
                for element in value:
                    out.append(read(element))
            except _Refused as exc:
                exc.path.append(f"[{len(out)}]")
                raise
            return origin(out)

        collect = sorted if origin is frozenset else list
        return read_list, collect if write is None else lambda v: collect(map(write, v))
    if origin is Mapping:
        read, write = _codec(args[1])

        def read_mapping(value):
            if type(value) is not dict:
                raise _refuse("an object", value)
            out = {}
            try:
                for key, element in value.items():
                    if type(key) is not str:
                        raise _refuse("a string key", key)
                    out[key] = read(element)
            except _Refused as exc:
                exc.path.append(f".{key}")
                raise
            return out

        return read_mapping, (
            dict if write is None else lambda v: {k: write(x) for k, x in v.items()}
        )
    raise TypeError(f"no artifact codec for {kind}")


def _dataclass_codec(kind: type):
    hints, missing = typing.get_type_hints(kind), dataclasses.MISSING
    plan = [
        (f.name, *_codec(hints[f.name]), dataclasses.is_dataclass(hints[f.name]))
        for f in dataclasses.fields(kind)
    ]
    required = {
        f.name
        for f in dataclasses.fields(kind)
        if f.default is missing and f.default_factory is missing
    }

    def read(value):
        if type(value) is not dict:
            raise _refuse("an object", value)
        values = {}
        try:
            for name, read_field, _, inline in plan:
                item = value if inline else value.get(name, missing)
                if item is not missing:
                    values[name] = read_field(item)
                elif name in required:  # else the field takes its default
                    raise _Refused("missing")
        except _Refused as exc:
            if not inline:
                exc.path.append(f".{name}")
            raise
        try:
            return kind(**values)
        except TaxoforgeError as exc:
            raise _Refused(str(exc)) from None

    def write(obj):
        out = {}
        for name, _, write_field, inline in plan:
            field = getattr(obj, name)
            if inline:
                out.update(write_field(field))
            else:
                out[name] = field if write_field is None else write_field(field)
        return out

    return read, write
