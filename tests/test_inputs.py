"""The input files: a mutation sweep of a small hand-written KB, lexicon,
rules file and config through their loaders, in the style of the artifact
sweep in test_codec."""

from __future__ import annotations

import copy
import math
from functools import cache

import yaml

from taxoforge.corpus import load_rules
from taxoforge.errors import (
    ConfigError,
    KnowledgeBaseError,
    LexiconError,
    RuleSetError,
    TaxoforgeError,
)
from taxoforge.knowledge import canonical_names, default_rules_path, load_kb
from taxoforge.pipeline import load_config
from taxoforge.similarity import load_lexicon

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
