"""One reader and one writer for the phase artifacts, derived from the field
annotations of the phase results: str, int, float, bool, ``X | None``, Enum,
``tuple[X, ...]``, ``list[X]``, ``frozenset[X]``, ``Mapping[str, X]`` and
dataclasses of these. The writer works like ``dataclasses.asdict``, except
that a field whose type is a dataclass is inlined into its parent object
(one inside a tuple or mapping stays an object); enums are written as their
values and frozensets as sorted lists. The reader refuses the first wrong
leaf by its path, as in ``data.assignments[3].scores.COMFORT.semantic:
expected a number, got None``, and ignores keys that are not fields. It
builds the dataclasses, so each ``__post_init__`` check runs; one that fails
is refused at its object's path. Both are compiled once per annotation."""

from __future__ import annotations

import dataclasses
import types
import typing
from collections.abc import Mapping
from enum import Enum
from functools import cache
from operator import attrgetter

from .errors import ArtifactError, TaxoforgeError

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


def _refuse(expected: str, value: object) -> _Refused:
    shown = repr(value)
    if len(shown) > 60:
        shown = shown[:57] + "..."
    return _Refused(f"expected {expected}, got {shown}")


def decode(kind: object, data: object, where: str):
    """``data`` read as ``kind``; a wrong leaf raises ``ArtifactError``
    naming ``where`` followed by the leaf's path below it."""
    try:
        return _codec(kind)[0](data)
    except _Refused as exc:
        raise ArtifactError(f"{where}{''.join(reversed(exc.path))}: {exc}") from None


def encode(kind: object, value: object) -> object:
    """The JSON-ready form of ``value``, an instance of ``kind``."""
    write = _codec(kind)[1]
    return value if write is None else write(value)


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

        return read_leaf, None
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
    if origin is types.UnionType:  # X | None
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
    hints = typing.get_type_hints(kind)
    plan = [
        (f.name, *_codec(hints[f.name]), dataclasses.is_dataclass(hints[f.name]))
        for f in dataclasses.fields(kind)
    ]

    def read(value):
        if type(value) is not dict:
            raise _refuse("an object", value)
        values = {}
        try:
            for name, read_field, _, inline in plan:
                values[name] = read_field(value if inline else value[name])
        except KeyError:
            raise _Refused("missing", f".{name}") from None
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
