"""One reader and one writer for the phase artifacts and the input files,
derived from the field annotations of their records: str, int, float, bool,
``Literal[...]``, ``X | None``, ``tuple[X, ...]``, ``list[X]``,
``frozenset[X]``, ``Mapping[str, X]`` and ``NamedTuple`` records of these.
The writer works like ``_asdict`` applied all the way down, each record an
object; frozensets are written as sorted lists; an entry of another record
type is written with the named type's fields only, read by name. The reader
refuses a key that is none of its record's, the smallest first, before it
reads a field, as in ``domains[0].typo: unknown key``, and then the
first wrong leaf by its path, as in ``data.placements[3].composite:
expected a number, got None``: each reader puts its step in front of the
refusal's ``at`` as it passes, and ``located`` alone writes the path. An
absent key takes its field's default where it has one, a mapping key is
text, and a float field reads as a ``float`` when written as a whole
number. A number is never text, a boolean, NaN, infinite or a whole number
beyond the float range. A record's ``check`` method, where its class has
one, runs as soon as the record is built; its refusal names the leaf below
the record by ``at``, as ``factors[3].studies.G``. Every empty frozenset
read is ``EMPTY``. A value is read as columns first: a list of records one
field at a time, a list of leaves by one type check; on a refusal the
reader walks it leaf by leaf, record by record, which names the first
wrong leaf. All are compiled once per annotation. ``keyed`` cuts a key a
refusal names to 60 characters, as ``shown`` cuts a value. ``read_yaml``
parses the KB, lexicon, rules and config files with libyaml where PyYAML
has it, and builds each document from its nodes: strings, lists, mappings
of distinct string keys and the scalars of ``_SCALARS``; a document holding
anything else, such as a merge, a duplicate key or a shared alias, is built
or refused whole by PyYAML's constructor, as ``yaml.load`` builds it. It
refuses a key one mapping holds twice and nesting too deep to parse.
``mismatch`` refuses where decoded records or a JSON list first differ
from what a phase rebuilds, as ``[0].domain: expected 'A', got 'B'``."""

from __future__ import annotations

import math
import types
import typing
from collections.abc import Iterable, Mapping, Sequence
from functools import cache
from itertools import chain, islice
from pathlib import Path

import yaml
from yaml.nodes import MappingNode, Node, ScalarNode, SequenceNode

from .errors import ArtifactError, TaxoforgeError

# libyaml's parser builds the same documents as the pure-Python one, about
# eight times faster on a large KB.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# libyaml's composer recurses in C with no depth limit: tens of thousands of
# nesting levels overflow the stack. Each level takes one of these indicators;
# a text with more than the limit is parsed by the pure-Python parser, which
# raises RecursionError instead.
_NESTING_INDICATORS, _NESTING_LIMIT = "[{-:?", 10_000

# The node tags ``read_yaml`` builds a document from itself; PyYAML's
# pure-Python constructor would take nearly as long as libyaml's parser.
_TAG = "tag:yaml.org,2002:"
_STR, _SEQ, _MAP = _TAG + "str", _TAG + "seq", _TAG + "map"
_SCALARS = [_TAG + name for name in ("null", "bool", "int", "float", "timestamp")]

# The one empty frozenset: most per-typology study sets and most names'
# lexicon fields are empty, and ``frozenset()`` allocates a new one each call.
EMPTY: frozenset = frozenset()

# leaf type -> (JSON types it accepts, what a refusal says it expected)
_LEAVES = {
    str: ((str,), "a string"),
    int: ((int,), "a whole number"),
    float: ((float, int), "a number"),
    bool: ((bool,), "true or false"),
}


def shown(value: object) -> str:
    """``repr(value)``, cut to 60 characters: how a refusal quotes a value;
    one nested too deep for ``repr`` is named by its type."""
    try:
        return _clipped(repr(value))
    except RecursionError:
        return f"a {type(value).__name__} nested too deep to show"


def keyed(where: str, key: object) -> str:
    """``where`` then ``key``, cut as ``shown`` cuts a value: how a refusal
    names a key, which a file or a flag may make of any length."""
    return where + _clipped(str(key))


def located(where: str, exc: TaxoforgeError) -> str:
    """``exc``'s message after ``where`` and the path its ``at`` names, an
    index as ``[i]`` and any other step as ``.key`` cut by ``keyed``; after a
    file's label, a ``where`` ending in ": ", the path starts with no dot."""
    at = "".join(f"[{step}]" if type(step) is int else keyed(".", step)
                 for step in exc.at)
    if where.endswith(": "):
        where, at = where[:-2], at and ": " + at.removeprefix(".")
    return f"{where}{at}: {exc}"


def known_keys(doc: dict, keys: Iterable[str], where: str) -> None:
    """Refuse the smallest key of ``doc`` that is none of ``keys``, at its
    path after ``where``, as a record refuses a key that is no field."""
    if unknown := doc.keys() - set(keys):
        raise ArtifactError(located(where, TaxoforgeError("unknown key", min(unknown))))


def _clipped(text: str) -> str:
    return text if len(text) <= 60 else text[:57] + "..."


def listed(values: Sequence, most: int = 5) -> str:
    """``values`` as a refusal lists them: each one ``shown``, as a list of
    its first ``most``, then ``, ...`` and the count if there are more."""
    more = f", ...] ({len(values)} in all)" if len(values) > most else "]"
    return "[" + ", ".join(map(shown, values[:most])) + more


def _refuse(expected: str, value: object) -> TaxoforgeError:
    return TaxoforgeError(f"expected {expected}, got {shown(value)}")


def decode(kind: object, data: object, where: str, error=ArtifactError, *at):
    """``data``, found at the path ``at`` after ``where``, read as ``kind``;
    a wrong leaf raises ``error`` naming ``where`` and then the leaf's path,
    as ``located`` writes it."""
    try:
        try:  # read as columns; the walk finds again what they refuse
            return _column(kind)([data])[0]
        except (KeyError, TaxoforgeError):  # a missing key, a wrong leaf, a check
            return _codec(kind)[0](data)
    except TaxoforgeError as exc:
        exc.at = (*at, *exc.at)
        raise error(located(where, exc)) from None


def read_yaml(path: Path, label: str, error: type[TaxoforgeError]) -> dict:
    """The mapping a YAML input file holds, ``{}`` for an empty file; else
    ``error`` in one line naming the ``label`` file."""
    try:
        text = path.read_text(encoding="utf-8")
        deep = sum(map(text.count, _NESTING_INDICATORS)) > _NESTING_LIMIT
        loader = _unique_keys(yaml.SafeLoader if deep else _YAML_LOADER)(text)
        try:
            doc = _document(loader)
        finally:
            loader.dispose()
    except (OSError, ValueError, RecursionError, yaml.YAMLError) as exc:
        reason = " ".join(str(exc).split())  # YAML errors span lines
        raise error(f"cannot read {label} file {path}: {reason}") from None
    if doc is not None and type(doc) is not dict:
        raise error(f"{label} file {path}: expected a mapping, got {shown(doc)}")
    return doc or {}


def _document(loader: yaml.SafeLoader) -> object:
    """The one document ``loader`` holds, None for an empty stream, as
    ``yaml.load`` builds it: by ``_built`` where it can, else, as on any
    error, by PyYAML's constructor, which builds or refuses the whole."""
    if (root := loader.get_single_node()) is None:
        return None
    scalars = {tag: loader.yaml_constructors[tag].__get__(loader) for tag in _SCALARS}
    try:
        return _built(root, scalars, set())
    except Exception:  # built as yaml.load builds it, or refused as it refuses
        return loader.construct_document(root)


def _built(node: Node, scalars: dict, seen: set) -> object:
    """``node`` built where it and each node below it is a string, a scalar
    ``scalars`` builds, a list or a mapping of distinct string keys, and no
    list or mapping is met twice, so that an alias is one object (``seen``
    holds those met); else ValueError, or an error of a constructor."""
    kind = type(node)
    if kind is ScalarNode:
        tag = node.tag
        return node.value if tag == _STR else scalars[tag](node)
    if id(node) in seen:
        raise ValueError("an alias")
    seen.add(id(node))
    if kind is SequenceNode and node.tag == _SEQ:
        return [_built(child, scalars, seen) for child in node.value]
    if kind is not MappingNode or node.tag != _MAP:
        raise ValueError(node.tag)
    out = {}
    for key, value in node.value:
        if type(key) is not ScalarNode or key.tag != _STR:  # a merge key too
            raise ValueError(key.tag)
        out[key.value] = _built(value, scalars, seen)
    if len(out) < len(node.value):
        raise ValueError("a key given twice")
    return out


@cache
def _unique_keys(loader: type) -> type:
    """``loader`` refusing a key one mapping holds twice, where PyYAML keeps
    the later value; a ``<<`` merge's keys may be overridden."""

    class UniqueKeys(loader):
        def construct_mapping(self, node, deep=False):
            entries = list(node.value)  # a merge puts the merged keys in node.value
            mapping, seen = super().construct_mapping(node, deep), set()
            if len(mapping) == len(node.value):  # no key given twice or overridden
                return mapping
            for key_node, _ in entries:  # each key is built, and so cached, by now
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                if (key := self.construct_object(key_node)) in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", key_node.start_mark
                    )
                seen.add(key)
            return mapping

    return UniqueKeys


def encode(kind: object, value: object) -> object:
    """The JSON-ready form of ``value``, an instance of ``kind``."""
    write = _codec(kind)[1]
    return value if write is None else write(value)


def mismatch(expected: Sequence, actual: object, *at: str | int) -> None:
    """Refuse the first entry of ``actual``, a list read from JSON or a
    decoded record found at ``at``, that is not ``expected``'s, naming both,
    as ``[3].domain: expected 'A', got 'B'`` (a list or record entry compared
    in turn, a record over its own fields); else a list length that differs.
    A boolean never equals a number, though in Python ``True == 1``."""
    if not isinstance(actual, (list, tuple)):
        lists = [list(e) if type(e) is tuple else e for e in expected]
        raise TaxoforgeError(f"expected {shown(lists)}, got {shown(actual)}", *at)
    fields = getattr(actual, "_fields", None)
    for index, (want, got) in enumerate(zip(expected, actual)):
        step = index if fields is None else fields[index]
        if isinstance(want, (list, tuple)):
            mismatch(want, got, *at, step)
        elif want != got or (type(want) is bool) is not (type(got) is bool):
            raise TaxoforgeError(f"expected {shown(want)}, got {shown(got)}", *at, step)
    if fields is None and len(expected) != len(actual):
        raise TaxoforgeError(f"expected {len(expected)} entries, got {len(actual)}", *at)


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
                    return float(value)
            except OverflowError:  # a whole number beyond the float range
                pass
            raise _refuse("a finite number", value)

        return read_finite if kind is float else read_leaf, None
    if _is_record(kind):
        return _record_codec(kind)[:2]
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is typing.Literal:  # a format version
        allowed = [(type(arg), arg) for arg in args]  # True == 1, but is no 1

        def read_literal(value):
            if (type(value), value) in allowed:
                return value
            raise _refuse(" or ".join(map(repr, args)), value)

        return read_literal, None
    if origin in (types.UnionType, typing.Union):  # X | None, Optional[X]
        (inner,) = set(args) - {type(None)}
        read, write = _codec(inner)
        return (
            lambda value: None if value is None else read(value),
            write and (lambda value: None if value is None else write(value)),
        )
    if origin in (tuple, list, frozenset):
        read, write = _codec(args[0])
        build = _frozenset if origin is frozenset else origin

        def read_list(value):
            if type(value) is not list:
                raise _refuse("a list", value)
            out = []
            try:
                for element in value:
                    out.append(read(element))
            except TaxoforgeError as exc:  # each reader puts its step in front
                exc.at = (len(out), *exc.at)
                raise
            return build(out)

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
            except TaxoforgeError as exc:  # a key that is no string reads as .7
                exc.at = (str(key), *exc.at)
                raise
            return out

        return read_mapping, (
            dict if write is None else lambda v: {k: write(x) for k, x in v.items()}
        )
    raise TypeError(f"no artifact codec for {kind}")


@cache
def _column(kind: object):
    """The reader of a list of ``kind`` values as one column, which refuses
    naming no leaf; a list read as it stands comes back itself. Lists and
    mappings are read through one column of their entries."""
    read = _codec(kind)[0]
    if kind in _LEAVES:
        accepted = _LEAVES[kind][0][0]

        def read_leaves(values):
            if _only(accepted, values) and (
                kind is not float or all(map(math.isfinite, values))
            ):
                return values
            return list(map(read, values))  # a whole number as a float, or refused

        return read_leaves
    if _is_record(kind):
        return _record_codec(kind)[2]
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (tuple, list, frozenset):
        column, build = _column(args[0]), _frozenset if origin is frozenset else origin
        whole = _frozensets if origin is frozenset else lambda vs: list(map(build, vs))

        def read_lists(values):
            if not _only(list, values):
                raise TaxoforgeError("not a column")
            if (held := column(flat := [*chain.from_iterable(values)])) is flat:
                return whole(values)
            held = iter(held)
            return [build(islice(held, len(value))) for value in values]

        return read_lists
    if origin is Mapping:
        column = _column(args[1])

        def read_mappings(values):
            if not (_only(dict, values) and _only(str, chain.from_iterable(values))):
                raise TaxoforgeError("not a column")
            held = iter(column([*chain.from_iterable(map(dict.values, values))]))
            return [dict(zip(value, held)) for value in values]

        return read_mappings
    return lambda values: list(map(read, values))


def _only(kind: type, values: Iterable) -> bool:
    """Whether every one of ``values`` is of type ``kind`` itself."""
    return {*map(type, values)} <= {kind}


def _frozenset(items: Iterable) -> frozenset:
    return frozenset(items) or EMPTY


def _frozensets(lists: Iterable[list]) -> list[frozenset]:
    """A frozenset of each of ``lists``; most study lists are empty, and each
    empty one is ``EMPTY`` with no call."""
    return [frozenset(items) if items else EMPTY for items in lists]


def _is_record(kind: object) -> bool:
    """Whether ``kind`` is a ``NamedTuple`` class."""
    return hasattr(kind, "_field_defaults")


@cache
def _record_codec(kind: type):
    """(reader, writer, column reader) of the record ``kind``, whose keys are
    its fields' names."""
    hints, missing = typing.get_type_hints(kind), object()  # an absent key
    names, required = kind._fields, set(kind._fields) - set(kind._field_defaults)
    plan = [(name, *_codec(hints[name])) for name in names]
    keys = frozenset(names)
    check = getattr(kind, "check", None)

    def read(value):
        if type(value) is not dict:
            raise _refuse("an object", value)
        if not keys.issuperset(value):
            unknown = min(value.keys() - keys, key=str)
            raise TaxoforgeError("unknown key", str(unknown))
        values = {}
        try:
            for name, read_field, _ in plan:
                if (item := value.get(name, missing)) is not missing:
                    values[name] = read_field(item)
                elif name in required:  # else the field takes its default
                    raise TaxoforgeError("missing")
        except TaxoforgeError as exc:
            exc.at = (name, *exc.at)
            raise
        record = kind(**values)
        if check is not None:  # a refusal names the leaf below by its ``at``
            check(record)
        return record

    def read_rows(rows):
        """The records of ``rows`` read one field at a time, as columns."""
        if not (_only(dict, rows) and all(map(keys.issuperset, rows))):
            raise TaxoforgeError("not a column")
        columns = []
        for name, read_field, _ in plan:
            try:
                columns.append(_column(hints[name])([row[name] for row in rows]))
            except KeyError:  # an absent key takes its field's default, if any
                default = kind._field_defaults[name]
                columns.append([read_field(r[name]) if name in r else default
                                for r in rows])
        records = list(map(kind._make, zip(*columns)))
        if check is not None:
            for record in records:
                check(record)
        return records

    def write(obj):
        out = {}
        for name, _, write_field in plan:
            field = getattr(obj, name)
            out[name] = field if write_field is None else write_field(field)
        return out

    return read, write, read_rows
