"""Every function, method and class in the package has a use in the package.

A definition that only tests reach is surface to keep working without
serving a run, so it is deleted and its tests moved onto the path the
program takes. A use is a name or attribute node in the package's code
that loads the name, a bare name only where no enclosing function binds it;
a local variable of that name, or a docstring or comment that mentions it,
is not one. The classes still declared as dataclasses are listed, each with
its reason. A record is one class with no cache: a value derived from
records, such as the similarity graph's neighbour lists, is kept by the run
state, which builds it once per invocation. Every record's ``check`` runs
when an input is read.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Iterator

from tests.conftest import records_read

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "taxoforge"

# "module.name" -> why it stays without a caller in the package.
ALLOWED = {
    # perfbench/tracing.py looks the function up by name to count relevance
    # calls, and refuses to install without it.
    "classify.domain_relevance": "looked up by name by the benchmark tracer",
    # cli.main calls ``getattr(pipeline, "run")``, as it calls each phase by
    # its name; the phases are also called by ``run`` itself.
    "pipeline.run": "looked up by name by the command line",
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _binds(function: ast.AST) -> set[str]:
    """The variables ``function`` binds in its own scope: its parameters,
    and each name it assigns outside the functions and classes nested in
    it. A nested definition is a definition, so its name is not one."""
    args = function.args
    names = {
        arg.arg for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                            args.vararg, args.kwarg] if arg
    }
    todo = list(function.body) if isinstance(function.body, list) else [function.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _loads(node: ast.AST, local: frozenset[str] = frozenset()) -> Iterator[str]:
    """Each attribute ``node`` loads, and each name it loads that no
    enclosing function binds: a local variable is no use of a definition."""
    if isinstance(node, FUNCTIONS):
        local = local | _binds(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in local:
            yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, local)


def definitions_and_uses() -> tuple[dict[str, str], set[str]]:
    """Each non-dunder definition as ``"module.name"`` -> its name, and every
    name a ``Name`` or ``Attribute`` node in the package loads, but a name
    its function binds: a local variable does not hide an unused function."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, kinds) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                defined[f"{path.stem}.{node.name}"] = node.name
        used.update(_loads(tree))
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


def test_every_check_runs_on_read():
    checked = set()
    for path in sorted(PACKAGE.glob("*.py")):
        name = "taxoforge" if path.stem == "__init__" else f"taxoforge.{path.stem}"
        for value in vars(importlib.import_module(name)).values():
            if isinstance(value, type) and value.__module__ == name:
                if "check" in vars(value):
                    checked.add(value)
    # The codec calls the check of each record it decodes: the input files'
    # and the artifacts'.
    assert checked <= records_read()


# Each f-string outside the codec that the path-step rule below matches but
# that writes no path: (module, its source) -> what it writes.
NOT_PATHS = {
    ("emit", 'f".{path.name}.{os.getpid()}.tmp"'):
        "a temporary file's name, hidden by its leading dot",
    ("emit", "f\"- [{note['id']}] {note['note']}\""):
        "a markdown list item naming a discrepancy note's id in brackets",
}


def _writes_a_step(node: ast.JoinedStr) -> bool:
    """Whether a value of ``node`` directly follows text ending in ``[`` or
    in a single ``.``, or its text holds ``[*]``."""
    parts = node.values
    return any(
        isinstance(part, ast.Constant) and "[*]" in part.value for part in parts
    ) or any(
        isinstance(text, ast.Constant)
        and isinstance(value, ast.FormattedValue)
        and (text.value.endswith("[") or text.value.endswith(".") and text.value[-2:] != "..")
        for text, value in zip(parts, parts[1:])
    )


def hand_written_steps() -> list[str]:
    """Each string outside codec.py that writes a refusal's path step, ``[i]``,
    ``.key`` or ``[*]``, as ``module:line: source``, but those NOT_PATHS names."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "codec.py":
            continue
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        inner = {
            id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
            for part in node.values
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                hit = _writes_a_step(node)
            elif isinstance(node, ast.Constant) and id(node) not in inner:
                hit = isinstance(node.value, str) and "[*]" in node.value
            else:
                hit = False
            if not hit:  # only a hit's source: each segment splits the text again
                continue
            source = ast.get_source_segment(text, node)
            if (path.stem, source) not in NOT_PATHS:
                found.append(f"{path.stem}:{node.lineno}: {source}")
    return found


def test_only_the_codec_writes_a_path_step():
    # A refusal names its leaf by ``TaxoforgeError.at`` and codec.located
    # writes the path, so that one leaf is written one way.
    assert hand_written_steps() == []


def test_not_paths_are_still_written():
    sources = {
        (path.stem, ast.get_source_segment(text, node))
        for path in sorted(PACKAGE.glob("*.py"))
        for text in [path.read_text(encoding="utf-8")]
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.JoinedStr)
    }
    for key in NOT_PATHS:
        assert key in sources, key
