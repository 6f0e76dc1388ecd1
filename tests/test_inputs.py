"""The input files: a mutation sweep of a small hand-written KB, lexicon,
rules file and config through their loaders, in the style of the artifact
sweep in test_codec; and the YAML parser that reads them, libyaml's where
PyYAML has it and the pure-Python one otherwise, each tested here."""

from __future__ import annotations

import copy
import importlib
import json
import math
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxoforge import cli, codec
from taxoforge.corpus import load_rules
from taxoforge.errors import (
    ConfigError,
    KnowledgeBaseError,
    LexiconError,
    RuleSetError,
    TaxoforgeError,
)
from taxoforge.knowledge import (
    canonical_names,
    default_kb_path,
    default_lexicon_path,
    default_rules_path,
    load_kb,
)
from taxoforge.pipeline import load_config
from taxoforge.similarity import load_lexicon
from tests import test_cli
from tests.conftest import FIXTURES, REPO_ROOT

# Every field of each format is present, with two domains in the KB.
KB = {
    "version": 1,
    "scope_priors": {"preferred": 1.0, "adjacent": 0.8, "other": 0.6},
    "placement_overrides": {"Lighting": "COMFORT"},
    "domains": [
        {
            "id": "COMFORT",
            "scope": "Broad",
            "keywords": ["comfort", "Thermal  Comfort"],
            "space_profile": {"P": 1.0, "S": 0.5, "U": 1, "G": 0, "O": 0.5, "F": 0.0},
            "compatible_types": ["U", "G"],
            "literature_support": {"strong": ["comfort"], "none": ["noise"]},
            "subcategories": [
                {"id": "THERMAL", "keywords": ["temperature", "shade"]},
                {"id": "VISUAL", "keywords": ["lighting"]},
            ],
        },
        {
            "id": "SAFETY",
            "scope": "moderate",
            "keywords": ["safety"],
            "space_profile": {"P": 0.2, "S": 1.0},
            "compatible_types": [],
            "literature_support": {"strong": ["safety", "lighting"], "none": []},
            "subcategories": [{"id": "PERSONAL SAFETY", "keywords": ["safety"]}],
        },
    ],
}
LEXICON = {
    "version": 1,
    "field_score": 0.85,
    "fields": {"protection": ["safety", "Security"], "comfort": ["comfort", "shade"]},
}
RULES = {
    "version": 1,
    "options": {
        "case_folding": True,
        "whitespace_collapse": True,
        "punctuation_strip": ".,;:",
    },
    "synonyms": {"access": "accessibility"},
    "preserve_distinct": ["street travel safety"],
}
CONFIG = {
    "datasets": {"P": "parks.csv", "S": "streets.csv"},
    "rules": "rules.yaml",
    "kb": "kb.yaml",
    "lexicon": "lexicon.yaml",
    "out": "out",
    "jobs": 1,
    "weights": {"linguistic": 0.5, "distributional": 0.3, "co_occurrence": 0.2},
    "thresholds": {"band_high": 0.75, "band_low": 0.5, "promotion": 0.8},
}


@cache
def _default_rules():
    return load_rules(default_rules_path())


def _load_kb(path):
    # Reading the KB in a run also normalizes its factor names.
    return canonical_names(load_kb(path), _default_rules())


# file -> (document, loader, the error it raises)
INPUTS = {
    "kb": (KB, _load_kb, KnowledgeBaseError),
    "lexicon": (LEXICON, load_lexicon, LexiconError),
    "rules": (RULES, load_rules, RuleSetError),
    "config": (CONFIG, load_config, ConfigError),
}


def _nodes(value, path=()):
    """Every node's path, the containers' as well as the leaves', root first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _nodes(item, path + (index,))


def _mutations(value):
    """Null, a value of another kind, -1, and an empty list and mapping; and
    then, for a number, its own text and NaN, which a field declared as a
    number refuses. Returns both lists."""
    other = {str: 7, bool: "true", int: "7", float: "7"}.get(type(value), "x")
    mutations = [None, other, -1] + [empty for empty in ([], {}) if empty != value]
    numbers = [str(value), math.nan] if type(value) in (int, float) else []
    return mutations, numbers


def _mutated(doc):
    """Each copy of ``doc`` with one node replaced, or one mapping key
    replaced by a number, and whether the copy must be refused: a number
    key is no record's field and no name, so every such copy is."""
    for path in _nodes(doc):
        parent_path, key = path[:-1], path[-1:] or None
        mutations, numbers = _mutations(_at(doc, path))
        for index, mutation in enumerate(mutations + numbers):
            strict = index >= len(mutations)
            if key is None:
                yield path, strict, mutation
                continue
            edited = copy.deepcopy(doc)
            _at(edited, parent_path)[key[0]] = mutation
            yield path, strict, edited
        if key is not None and isinstance(_at(doc, parent_path), dict):
            edited = copy.deepcopy(doc)
            parent = _at(edited, parent_path)
            parent[7] = parent.pop(key[0])
            yield path + ("key",), True, edited


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_unmutated_inputs_load(tmp_path):
    for name, (doc, load, _) in INPUTS.items():
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        load(path)


def test_mutation_sweep_loads_or_refuses(tmp_path):
    """Each node of each input file, mutated alone, is either loaded or
    refused by the file's own error in one line naming the file; nothing
    else escapes. A declared number field refuses its own text and NaN."""
    outcomes = {"loaded": 0, "refused": 0}
    for name, (doc, load, error) in INPUTS.items():
        path = tmp_path / f"{name}.yaml"
        for where, strict, edited in _mutated(doc):
            path.write_text(yaml.safe_dump(edited), encoding="utf-8")
            try:
                load(path)
                assert not strict, (name, where, "loaded")
                outcomes["loaded"] += 1
            except TaxoforgeError as exc:
                assert type(exc) is error, (name, where, exc)
                assert str(path) in str(exc), (name, where, exc)
                assert "\n" not in str(exc), (name, where, exc)
                outcomes["refused"] += 1
    assert sum(outcomes.values()) > 500
    assert outcomes["refused"] > outcomes["loaded"] > 0


# Mappings whose keys are names the file chooses, not a record's fields:
# lexicon fields, synonyms, overridden factors and typology codes.
# datasets' codes are refused by their own rule, test_cli's
# config-datasets-keys-mixed row.
FREE_FORM = {"fields", "synonyms", "placement_overrides", "space_profile", "datasets"}


def _record_nodes(doc):
    """The path of each mapping in ``doc`` that is a record, root first."""
    for path in _nodes(doc):
        if type(_at(doc, path)) is dict and not FREE_FORM & set(path):
            yield path


def test_undeclared_key_is_refused_at_its_path(tmp_path):
    """A key no record declares, such as a misspelled ``synonym:``, would
    leave its setting at the default; it is refused wherever it is."""
    reached = 0
    for name, (doc, load, error) in INPUTS.items():
        path = tmp_path / f"{name}.yaml"
        for where in _record_nodes(doc):
            edited = copy.deepcopy(doc)
            _at(edited, where)["zz_undeclared"] = 1
            path.write_text(yaml.safe_dump(edited), encoding="utf-8")
            at = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in where)
            with pytest.raises(error) as refused:
                load(path)
            at = (at + ".zz_undeclared")[1:]  # the root's keys lead with no dot
            assert str(refused.value) == f"{name} file {path}: {at}: unknown key"
            reached += 1
    # The root of each file; the KB's priors, two domains, their literature
    # and three subcategories; the rules' options; weights and thresholds.
    assert reached == 4 + 8 + 1 + 2


def test_a_later_format_version_is_refused(tmp_path):
    for name, (doc, load, error) in INPUTS.items():
        if "version" in doc:
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump({**doc, "version": 2}), encoding="utf-8")
            with pytest.raises(error, match=f"{name} file {path}: version: expected 1"):
                load(path)


# The two parsers ``codec.read_yaml`` may use; each test below runs with both.
LOADERS = [
    pytest.param(
        getattr(yaml, "CSafeLoader", None),
        id="CSafeLoader",
        marks=pytest.mark.skipif(
            not yaml.__with_libyaml__, reason="PyYAML was built without libyaml"
        ),
    ),
    pytest.param(yaml.SafeLoader, id="SafeLoader"),
]


@pytest.fixture(params=LOADERS)
def yaml_loader(request, monkeypatch):
    monkeypatch.setattr(codec, "_YAML_LOADER", request.param)
    return request.param


def test_read_yaml_parses_with_libyaml_when_built_with_it(tmp_path, monkeypatch):
    # The pure-Python parser is several times slower on a large KB, and a
    # return to it would change no output. The loader that composes the
    # document is observed as it is handed to the builder.
    used, document = [], codec._document

    def spy(loader):
        used.append(type(loader))
        return document(loader)

    monkeypatch.setattr(codec, "_document", spy)
    path = tmp_path / "kb.yaml"
    path.write_text("version: 1\n", encoding="utf-8")
    assert codec.read_yaml(path, "kb", KnowledgeBaseError) == {"version": 1}
    # read_yaml passes a subclass that refuses a duplicated key.
    assert [loader.__base__ for loader in used] == [
        yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    ]


def test_each_loader_builds_the_inputs_safe_load_builds(
    yaml_loader, tmp_path, monkeypatch
):
    """The packaged KB, lexicon and rules, the fixture config and a generated
    benchmark workload's KB, lexicon and config load as they do through the
    pure-Python parser of ``yaml.safe_load``, down to each number's type."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    importlib.import_module("gen").generate("rich-kb", tmp_path / "rich", 0)
    inputs = [
        (_load_kb, default_kb_path()),
        (load_lexicon, default_lexicon_path()),
        (load_rules, default_rules_path()),
        (load_config, FIXTURES / "config.yaml"),
        (_load_kb, tmp_path / "rich" / "kb.yaml"),
        (load_lexicon, tmp_path / "rich" / "lexicon.yaml"),
        (load_config, tmp_path / "rich" / "config.yaml"),
    ]
    loaded = [load(path) for load, path in inputs]
    monkeypatch.setattr(codec, "_YAML_LOADER", yaml.SafeLoader)
    expected = [load(path) for load, path in inputs]
    assert loaded == expected
    assert list(map(repr, loaded)) == list(map(repr, expected))


@pytest.mark.parametrize("kind", ["config", "kb", "lexicon", "rules"])
def test_yaml_syntax_error_exits_one_naming_the_file(
    yaml_loader, kind, tmp_path, capsys
):
    broken = tmp_path / f"{kind}.yaml"
    broken.write_text("domains: [1, 2\nversion: 1\n", encoding="utf-8")
    config = tmp_path / "config.yaml"
    if kind != "config":
        doc = {
            "datasets": [str(FIXTURES / "sample_corpus.csv")],
            "out": str(tmp_path / "out"),
            kind: str(broken),
        }
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert f"cannot read {kind} file {broken}: " in line


def test_mutation_sweep_under_each_loader(yaml_loader, tmp_path):
    test_mutation_sweep_loads_or_refuses(tmp_path)


def test_duplicated_key_is_refused_naming_its_line(yaml_loader, tmp_path, capsys):
    # PyYAML would keep the later list, and the domain the second keywords.
    row = next(row for row in test_cli.MALFORMED if row.id == "kb-duplicate-key")
    test_cli.TestMalformedInputs().test_exits_one_with_one_line(
        tmp_path, capsys, *row.values
    )


def test_merged_keys_may_be_overridden(yaml_loader, tmp_path):
    path = tmp_path / "merge.yaml"
    path.write_text("a: &x {k: 1, j: 2}\nb: {<<: *x, k: 3}\n", encoding="utf-8")
    doc = codec.read_yaml(path, "kb", KnowledgeBaseError)
    assert doc == {"a": {"k": 1, "j": 2}, "b": {"k": 3, "j": 2}}


@pytest.mark.parametrize("loader", LOADERS)
def test_deep_nesting_is_refused_in_one_line(loader, tmp_path):
    # libyaml's composer overflows the C stack at tens of thousands of
    # levels, killing the process; so the run is a process of its own.
    config = tmp_path / "config.yaml"
    config.write_text("datasets: " + "[" * 100_000, encoding="utf-8")
    code = (
        "import sys, yaml\n"
        "from taxoforge import cli, codec\n"
        "codec._YAML_LOADER = getattr(yaml, sys.argv[1])\n"
        "sys.exit(cli.main(sys.argv[2:]))"
    )
    package_root = str(Path(codec.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    command = [sys.executable, "-c", code, loader.__name__, "run", "--config"]
    result = subprocess.run(
        [*command, str(config)], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 1, result.stderr[-300:]
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"taxoforge run: cannot read config file {config}: ")


def test_many_nesting_indicators_still_load(yaml_loader, tmp_path):
    # More indicators than libyaml is trusted with sends the text to the
    # pure-Python parser, which builds the same document.
    path = tmp_path / "flat.yaml"
    path.write_text("a:\n" + "- 0\n" * (codec._NESTING_LIMIT + 1), encoding="utf-8")
    assert codec.read_yaml(path, "kb", KnowledgeBaseError) == {
        "a": [0] * (codec._NESTING_LIMIT + 1)
    }


# Plain spellings of each type SafeLoader's resolver gives a scalar (null,
# bool, int, float, timestamp, str, and the ``=`` value key, which it builds
# as a string key and refuses as a value), then explicit tags.
SPELLINGS = [
    "~", "null", "Null", "true", "False", "yes", "off",
    "0", "-12", "0x1F", "0o17", "017", "0b101", "1_000", "+685_230", "1:30",
    "190:20:30", "1.5", "-.5e3", "6.8523015e+5", "1_000.5", ".inf", "-.Inf",
    ".NaN", "2020-01-01", "2001-12-14t21:59:43.10-05:00",
    "2001-12-14 21:59:43.10", "=", "a b", "text",
    "!!str 5", "!!int '7'", "!!float 3", "!!null ''", "!!bool yes",
]
WORDS = st.text("abcdefxyz019", min_size=1, max_size=6)
TEXTS = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Cn")), max_size=8)
SCALAR_TOKENS = st.one_of(
    st.sampled_from(SPELLINGS),
    WORDS,
    TEXTS.map(lambda text: "'" + text.replace("'", "''") + "'"),
    # a JSON string is a double-quoted YAML one
    TEXTS.map(lambda text: json.dumps(text, ensure_ascii=False)),
)
KEYS = st.one_of(st.sampled_from(["a", "b", "id", "keywords", "'a'"]), SCALAR_TOKENS)
# A tree: a scalar token, or (list or dict, entries, whether in flow style).
TREES = st.recursive(
    SCALAR_TOKENS,
    lambda children: st.one_of(
        st.tuples(st.just(list), st.lists(children, max_size=4), st.booleans()),
        st.tuples(
            st.just(dict),
            st.lists(st.tuples(KEYS, children), max_size=4),
            st.booleans(),
        ),
    ),
    max_leaves=16,
)
# A document: mostly a mapping, as every input file holds.
DOCUMENTS = st.one_of(
    st.tuples(
        st.just(dict), st.lists(st.tuples(KEYS, TREES), max_size=5), st.booleans()
    ),
    TREES,
)


def _flow(tree) -> str:
    if type(tree) is str:
        return tree
    kind, entries, _ = tree
    if kind is list:
        return "[" + ", ".join(map(_flow, entries)) + "]"
    return "{" + ", ".join(f"{key}: {_flow(value)}" for key, value in entries) + "}"


def _yaml_text(tree, indent: int = 0) -> str:
    """``tree`` written as YAML: a collection in block style unless it is
    drawn in flow style, empty, or inside a flow collection."""
    if type(tree) is str or tree[2] or not tree[1]:
        return " " * indent + _flow(tree) + "\n"
    kind, entries, _ = tree
    lines = []
    for entry in entries:
        head, value = ("-", entry) if kind is list else (f"{entry[0]}:", entry[1])
        if type(value) is str or value[2] or not value[1]:
            lines.append(f"{' ' * indent}{head} {_flow(value)}\n")
        else:
            lines.append(f"{' ' * indent}{head}\n{_yaml_text(value, indent + 2)}")
    return "".join(lines)


def _flat(doc) -> list:
    """``doc`` as a flat list: each leaf's type and repr; each list or dict
    its type and length before its entries, or, if met before, the number of
    that meeting. Equal lists are values equal in type, repr and order that
    share the same objects; a deep or recursive value needs no recursion."""
    out, met, stack = [], {}, [doc]
    while stack:
        value = stack.pop()
        if type(value) not in (list, dict):
            out.append((type(value), repr(value)))
        elif id(value) in met:
            out.append(("met", met[id(value)]))
        else:
            met[id(value)] = len(met)
            out.append((type(value), len(value)))
            items = value.items() if type(value) is dict else enumerate(value)
            for key, item in reversed(list(items)):
                stack += [item, key] if type(value) is dict else [item]
    return out


@pytest.mark.parametrize("loader", LOADERS)
@settings(max_examples=100, deadline=None)
@given(text=DOCUMENTS.map(_yaml_text))
@example(text="a:\n" + "- " * 3_000 + "x\n")
@example(text="a: &x [1, {k: v}]\nb: *x\n")
@example(text="a: &x [1, *x]\n")
@example(text="a: &x {k: 1, j: 2}\nb: {<<: *x, k: 3}\n")
@example(text="a: 1\nb: 2\na: 3\n")
@example(text="a: 1_000\nb: 1:30\nc: 2020-01-01\nd: ~\ne: !!str 5\n")
@example(text="a: !!omap [{k: 1}]\n")
@example(text="a: !!set {x: ~}\n")
@example(text="a: 1\n---\nb: 2\n")
@example(text="")
def test_read_yaml_builds_what_yaml_load_builds(loader, text, tmp_path_factory):
    """``read_yaml`` gives the mapping ``yaml.load`` builds with the same
    loader, the same objects shared, or refuses with the same text."""
    path = tmp_path_factory.getbasetemp() / "drawn.yaml"
    path.write_text(text, encoding="utf-8")
    try:
        want = yaml.load(text, Loader=codec._unique_keys(loader))
    except (ValueError, RecursionError, yaml.YAMLError) as exc:
        want = f"cannot read kb file {path}: " + " ".join(str(exc).split())
    else:
        if want is not None and type(want) is not dict:
            want = f"kb file {path}: expected a mapping, got {codec.shown(want)}"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_YAML_LOADER", loader)
        try:
            got = codec.read_yaml(path, "kb", KnowledgeBaseError)
        except KnowledgeBaseError as exc:
            got = str(exc)
    assert _flat(got) == _flat(want or {})
