"""Every function, method and class in the package has a use in the package.

A definition that only tests reach is surface to keep working without
serving a run, so it is deleted and its tests moved onto the path the
program takes. A use is a name or attribute node in the package's code;
a docstring or comment that mentions the name is not one. The classes
still declared as dataclasses are listed, each with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "taxoforge"

# "module.name" -> why it stays without a caller in the package.
ALLOWED = {
    # perfbench/tracing.py looks the function up by name to count relevance
    # calls, and refuses to install without it.
    "classify.domain_relevance": "looked up by name by the benchmark tracer",
    # The blend written plainly: the tests compare every pair score against
    # it, and matrix_from_dict follows its order of operations.
    "similarity.combine": "the reference blend the tests compare against",
}


# Each class in the package declared with ``@dataclass`` -> why it is not a
# ``typing.NamedTuple``, which is cheaper to define at import and to create.
# A check lives in the ``__new__`` of a ``NamedTuple`` subclass, and a
# ``cached_property`` in the ``__dict__`` of one without ``__slots__``.
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
