"""Every function, method and class in the package has a use in the package.

A definition that only tests reach is surface to keep working without
serving a run, so it is deleted and its tests moved onto the path the
program takes. A use is a name or attribute node in the package's code;
a docstring or comment that mentions the name is not one. The classes
still declared as dataclasses are listed, each with its reason. A record
is one class with no cache: a value derived from records, such as the
similarity graph's neighbour lists, is kept by the run state, which builds
it once per invocation. Every record's ``check`` runs when an input is read.
"""

from __future__ import annotations

import ast
import importlib
import typing
from pathlib import Path

from taxoforge import corpus, knowledge, pipeline, similarity

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "taxoforge"

# "module.name" -> why it stays without a caller in the package.
ALLOWED = {
    # perfbench/tracing.py looks the function up by name to count relevance
    # calls, and refuses to install without it.
    "classify.domain_relevance": "looked up by name by the benchmark tracer",
}


# Each class in the package declared with ``@dataclass`` -> why it is not a
# ``typing.NamedTuple``, which is cheaper to define at import and to create.
# A ``NamedTuple`` that refuses a malformed value has a ``check`` method,
# which the readers call; a value built once per record is a field or comes
# from a cached function of one.
REPLACED = "perfbench/worker.py calls dataclasses.replace on it"
DATACLASSES = {
    "pipeline.PipelineConfig": REPLACED,
}


def _name(node: ast.expr) -> str | None:
    """The name a decorator calls or is, as ``dataclass`` for
    ``@dataclasses.dataclass(frozen=True)``."""
    node = node.func if isinstance(node, ast.Call) else node
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def definitions_and_uses() -> tuple[dict[str, str], set[str]]:
    """Each non-dunder definition as ``"module.name"`` -> its name, and every
    name used by a ``Name`` or ``Attribute`` node in the package."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, kinds) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                defined[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_definition_has_a_use_in_the_package():
    defined, used = definitions_and_uses()
    unused = sorted(
        key for key, name in defined.items() if name not in used and key not in ALLOWED
    )
    assert unused == []


def test_allowed_names_are_still_defined_and_unused():
    defined, used = definitions_and_uses()
    for key in ALLOWED:
        assert key in defined, key
        assert defined[key] not in used, key


def test_dataclasses_are_the_allowed_ones_for_their_reasons():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and "dataclass" in map(
                _name, node.decorator_list
            ):
                found[f"{path.stem}.{node.name}"] = node
    assert sorted(found) == sorted(DATACLASSES)
    # The reason holds while the benchmark still replaces a config's field.
    worker = (PACKAGE.parents[1] / "perfbench" / "worker.py").read_text(encoding="utf-8")
    assert "from dataclasses import replace" in worker
    assert "replace(config, " in worker


# "module.Class" -> why it subclasses another class of the package (the
# exceptions in errors.py aside). The classes with a cached property: only
# the run state, which computes or loads each of one invocation's values once.
SUBCLASSES: dict[str, str] = {}
CACHED = {"pipeline.RunState"}


def test_records_are_one_class():
    classes = [
        (path.stem, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]
    names = {node.name for _, node in classes}
    subclasses, cached = set(), set()
    for module, node in classes:
        key = f"{module}.{node.name}"
        if module != "errors" and names & set(map(_name, node.bases)):
            subclasses.add(key)
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and "cached_property" in map(
                _name, item.decorator_list
            ):
                cached.add(key)
    assert subclasses == set(SUBCLASSES)
    assert cached == CACHED


def _add_records(kind: object, found: set[type]) -> None:
    """Add to ``found`` every record class ``kind`` reaches through field
    annotations, ``kind`` itself included when it is a record."""
    if hasattr(kind, "_fields") and kind not in found:
        found.add(kind)
        for hint in typing.get_type_hints(kind).values():
            _add_records(hint, found)
    for arg in typing.get_args(kind):
        _add_records(arg, found)


def test_every_check_runs_on_read():
    checked = set()
    for path in sorted(PACKAGE.glob("*.py")):
        name = "taxoforge" if path.stem == "__init__" else f"taxoforge.{path.stem}"
        for value in vars(importlib.import_module(name)).values():
            if isinstance(value, type) and value.__module__ == name:
                if "check" in vars(value):
                    checked.add(value)
    # The codec calls the check of each record it decodes: the input files'
    # and the artifacts'. similarity.json has a reader of its own, which
    # takes the config's weights.
    files = [
        pipeline.ConfigFile, knowledge.KbFile, similarity.LexiconFile, corpus.RulesFile
    ]
    artifacts = [
        kind for phase, (_, _, kind, _) in pipeline.ARTIFACTS.items()
        if kind and phase != "similarity"
    ]
    reached: set[type] = set()
    for kind in files + artifacts:
        _add_records(kind, reached)
    assert checked <= reached
