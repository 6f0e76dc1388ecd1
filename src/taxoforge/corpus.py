"""Input data model: factor records, datasets, and normalization rules.

A corpus is an ordered list of raw factor records, each tagged with the study
that reported it and one of the six space typologies (codes P, S, U, G, O, F).
Normalization rewrites raw factor names onto a canonical surface form through
a declarative rule set: case folding, whitespace collapsing, punctuation
stripping, then a single-step synonym map guarded by a preserve-distinct list.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import yaml

from .errors import CorpusError, RuleSetError

# Fixed, ordered typology codes: Parks & Waterfronts, Streets & Squares,
# Urban Spaces, Green Spaces, Open Spaces, Public Facilities.
SPACE_TYPES: tuple[str, ...] = ("P", "S", "U", "G", "O", "F")

SPACE_TYPE_NAMES: Mapping[str, str] = {
    "P": "Parks & Waterfronts",
    "S": "Streets & Squares",
    "U": "Urban Spaces",
    "G": "Green Spaces",
    "O": "Open Spaces",
    "F": "Public Facilities",
}

DEFAULT_PUNCTUATION = ".,;:()/&-"

CSV_HEADER = ("raw_name", "study_id", "space_type")

# A hyphen counts as punctuation only at a word boundary; internal hyphens
# (barrier-free) are part of the name.
_BOUNDARY_HYPHEN = re.compile(r"(?<!\w)-|-(?!\w)")


@dataclass(frozen=True)
class FactorRecord:
    """One raw factor occurrence: name, citing study, and typology."""

    raw_name: str
    study_id: str
    space_type: str

    def __post_init__(self) -> None:
        if not self.raw_name.strip():
            raise CorpusError("raw_name must be non-empty")
        if not self.study_id:
            raise CorpusError("study_id must be non-empty")
        if self.space_type not in SPACE_TYPES:
            raise CorpusError(f"unknown space type {self.space_type!r}")


@dataclass(frozen=True)
class Corpus:
    """Ordered factor records."""

    records: tuple[FactorRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class NormalizationRuleSet:
    """Declarative normalization rules applied to raw factor names.

    Synonym values must already be canonical (fixed points of the rule set),
    and the map resolves in a single step: applying it twice equals applying
    it once. Entries in preserve_distinct are never rewritten.
    """

    case_folding: bool = True
    whitespace_collapse: bool = True
    punctuation_strip: str = DEFAULT_PUNCTUATION
    synonym_map: Mapping[str, str] = field(default_factory=dict)
    preserve_distinct: frozenset[str] = frozenset()

    def base_normalize(self, text: str) -> str:
        """Apply the surface-form rules only (no synonym mapping)."""
        if self.case_folding:
            text = text.casefold()
        if self.whitespace_collapse:
            text = " ".join(text.split())
        if self.punctuation_strip:
            chars = self.punctuation_strip
            if "-" in chars:
                text = _BOUNDARY_HYPHEN.sub(" ", text)
                chars = chars.replace("-", "")
            if chars:
                # Replace rather than delete so "comfort/vitality" keeps its
                # token boundary.
                text = text.translate({ord(c): " " for c in chars})
            text = " ".join(text.split())
        return text.strip()

    def validate(self) -> None:
        for entry in self.preserve_distinct:
            if entry in self.synonym_map:
                raise RuleSetError(
                    f"preserve_distinct entry {entry!r} also appears as a synonym key"
                )
        for key, value in self.synonym_map.items():
            if self.base_normalize(value) != value:
                raise RuleSetError(
                    f"synonym map not idempotent: value {value!r} is not canonical"
                )
            if value in self.synonym_map and self.synonym_map[value] != value:
                raise RuleSetError(
                    f"synonym map not idempotent: {key!r} -> {value!r} -> "
                    f"{self.synonym_map[value]!r}"
                )


def normalize(raw: str, rules: NormalizationRuleSet) -> str:
    """Return the canonical form of a raw factor name.

    Raises CorpusError when the input is empty or reduces to nothing after
    stripping, which signals a data-quality problem in the source row.
    """
    if not raw or not raw.strip():
        raise CorpusError("cannot normalize empty factor name")
    text = rules.base_normalize(raw)
    if not text:
        raise CorpusError(f"factor name {raw!r} is empty after normalization")
    if text in rules.preserve_distinct:
        return text
    return rules.synonym_map.get(text, text)


def load_rules(path: str | Path) -> NormalizationRuleSet:
    """Load and validate a normalization rule file (YAML).

    An empty file yields the defaults: case folding, whitespace collapsing,
    and the standard punctuation list, with no synonyms or preserved names.
    """
    path = Path(path)
    if not path.exists():
        raise RuleSetError(f"rules file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise RuleSetError(f"cannot parse rules file {path}: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise RuleSetError(f"rules file {path} must be a mapping")

    options = doc.get("options") or {}
    if not isinstance(options, dict):
        raise RuleSetError("rules section 'options' must be a mapping")
    base = NormalizationRuleSet(
        case_folding=bool(options.get("case_folding", True)),
        whitespace_collapse=bool(options.get("whitespace_collapse", True)),
        punctuation_strip=str(options.get("punctuation_strip", DEFAULT_PUNCTUATION)),
    )

    raw_synonyms = doc.get("synonyms") or {}
    if not isinstance(raw_synonyms, dict):
        raise RuleSetError("rules section 'synonyms' must be a mapping")
    synonyms: dict[str, str] = {}
    for key, value in raw_synonyms.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise RuleSetError("synonym entries must map text to text")
        nkey = base.base_normalize(key)
        if nkey in synonyms and synonyms[nkey] != value:
            raise RuleSetError(f"conflicting synonym entries for {nkey!r}")
        synonyms[nkey] = value

    raw_preserve = doc.get("preserve_distinct") or []
    if not isinstance(raw_preserve, list):
        raise RuleSetError("rules section 'preserve_distinct' must be a list")
    preserve = frozenset(base.base_normalize(str(entry)) for entry in raw_preserve)

    rules = NormalizationRuleSet(
        case_folding=base.case_folding,
        whitespace_collapse=base.whitespace_collapse,
        punctuation_strip=base.punctuation_strip,
        synonym_map=synonyms,
        preserve_distinct=preserve,
    )
    rules.validate()
    return rules


def _records_from_rows(
    rows: Iterable[list[str]], source: str, expect_type: str | None = None
) -> list[FactorRecord]:
    records = []
    for lineno, row in enumerate(rows, start=2):  # header is line 1
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise CorpusError(
                f"{source}: row {lineno}: expected 3 fields, got {len(row)}"
            )
        raw_name, study_id, space_type = (cell.strip() for cell in row)
        if not raw_name:
            raise CorpusError(f"{source}: row {lineno}: empty raw_name")
        if not study_id:
            raise CorpusError(f"{source}: row {lineno}: empty study_id")
        if space_type not in SPACE_TYPES:
            raise CorpusError(
                f"{source}: row {lineno}: unknown space type {space_type!r}"
            )
        if expect_type is not None and space_type != expect_type:
            raise CorpusError(
                f"{source}: row {lineno}: space type {space_type!r} does not match "
                f"the dataset's declared typology {expect_type!r}"
            )
        records.append(FactorRecord(raw_name, study_id, space_type))
    return records


def load_corpus(path: str | Path, expect_type: str | None = None) -> Corpus:
    """Load one dataset file, preserving row order.

    The file is comma-separated UTF-8 text with the header
    ``raw_name,study_id,space_type``. ``expect_type`` restricts a
    per-typology file to a single code.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"dataset file not found: {path}")
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusError(f"{path}: empty file, expected header") from None
        if tuple(cell.strip() for cell in header) != CSV_HEADER:
            raise CorpusError(
                f"{path}: bad header {header!r}, expected {','.join(CSV_HEADER)}"
            )
        records = _records_from_rows(reader, str(path), expect_type)
    return Corpus(records=tuple(records))


def merge_corpora(corpora: Iterable[Corpus]) -> Corpus:
    records: list[FactorRecord] = []
    for corpus in corpora:
        records.extend(corpus.records)
    return Corpus(records=tuple(records))

