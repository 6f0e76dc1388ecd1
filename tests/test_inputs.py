"""The input files: a mutation sweep of a small hand-written KB, lexicon,
rules file and config through their loaders, in the style of the artifact
sweep in test_codec; and the YAML parser that reads them, libyaml's where
PyYAML has it and the pure-Python one otherwise, each tested here."""

from __future__ import annotations

import copy
import importlib
import math
from functools import cache

import pytest
import yaml

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
    return canonical_names(load_kb(path), _default_rules(), path)


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


# Keys a format does not declare, and so ignores whatever they hold.
IGNORED = {("version",)}


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
    replaced by a number, and whether the copy must be refused."""
    for path in _nodes(doc):
        parent_path, key = path[:-1], path[-1:] or None
        mutations, numbers = _mutations(_at(doc, path))
        for index, mutation in enumerate(mutations + numbers):
            strict = index >= len(mutations) and path not in IGNORED
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
            yield path + ("key",), False, edited


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
    # return to it would change no output.
    used, load = [], yaml.load

    def spy(stream, Loader):
        used.append(Loader)
        return load(stream, Loader)

    monkeypatch.setattr(yaml, "load", spy)
    path = tmp_path / "kb.yaml"
    path.write_text("version: 1\n", encoding="utf-8")
    assert codec.read_yaml(path, "kb", KnowledgeBaseError) == {"version": 1}
    assert used == [yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader]


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
