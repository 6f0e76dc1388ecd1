"""Input data model: factor records, datasets, and normalization rules.

A corpus is an ordered list of raw factor records, each tagged with the study
that reported it and one of the six space typologies (codes P, S, U, G, O, F).
The loader checks each row once, as it reads it; a record is a plain named
tuple that checks nothing when built.
Normalization rewrites raw factor names onto a canonical surface form through
a declarative rule set: case folding, whitespace collapsing, punctuation
stripping, then a single-step synonym map guarded by a preserve-distinct list.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .codec import decode, read_yaml
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


class FactorRecord(NamedTuple):
    """One raw factor occurrence: name, citing study, and typology. Building
    one checks nothing: the loader checks each row it reads, and
    ``integrate`` checks each record it folds."""

    raw_name: str
    study_id: str
    space_type: str


@dataclass(frozen=True)
class Corpus:
    """Ordered factor records."""

    records: tuple[FactorRecord, ...]


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

    @cached_property
    def _punctuation_table(self) -> dict[int, str]:
        # Replace rather than delete so "comfort/vitality" keeps its token
        # boundary; hyphens are handled apart, at word boundaries only.
        chars = self.punctuation_strip.replace("-", "")
        return str.maketrans(dict.fromkeys(chars, " "))

    def base_normalize(self, text: str) -> str:
        """Apply the surface-form rules only (no synonym mapping)."""
        if self.case_folding:
            text = text.casefold()
        if self.whitespace_collapse:
            text = " ".join(text.split())
        if self.punctuation_strip:
            if "-" in self.punctuation_strip:
                text = _BOUNDARY_HYPHEN.sub(" ", text)
            text = " ".join(text.translate(self._punctuation_table).split())
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


@dataclass(frozen=True)
class RuleOptions:
    case_folding: bool = NormalizationRuleSet.case_folding
    whitespace_collapse: bool = NormalizationRuleSet.whitespace_collapse
    punctuation_strip: str = NormalizationRuleSet.punctuation_strip


@dataclass(frozen=True)
class RulesFile:
    """The rules file as written; ``load_rules`` reads it."""

    options: RuleOptions | None = None
    synonyms: Mapping[str, str] | None = None
    preserve_distinct: tuple[str, ...] | None = None


def load_rules(path: str | Path) -> NormalizationRuleSet:
    """Load and validate a normalization rule file (YAML).

    An empty file or section yields the defaults: case folding, whitespace
    collapsing, and the standard punctuation list, with no synonyms or
    preserved names. A malformed value, or a rule set that fails ``validate``,
    raises ``RuleSetError`` naming the file.
    """
    path = Path(path)
    doc = read_yaml(path, "rules", RuleSetError)
    written = decode(RulesFile, doc, f"rules file {path}: ", RuleSetError)
    base = NormalizationRuleSet(**vars(written.options or RuleOptions()))
    synonyms: dict[str, str] = {}
    for key, value in (written.synonyms or {}).items():
        nkey = base.base_normalize(key)
        if synonyms.setdefault(nkey, value) != value:
            raise RuleSetError(
                f"rules file {path}: synonyms: conflicting entries for {nkey!r}"
            )
    preserve = frozenset(map(base.base_normalize, written.preserve_distinct or ()))
    rules = replace(base, synonym_map=synonyms, preserve_distinct=preserve)
    try:
        rules.validate()
    except RuleSetError as exc:
        raise RuleSetError(f"rules file {path}: {exc}") from None
    return rules


def _records_from_rows(
    rows: Iterable[list[str]], source: str, expect_type: str | None = None
) -> list[FactorRecord]:
    # FactorRecord(...) goes through NamedTuple's Python-level __new__;
    # tuple.__new__ builds the same record without that call.
    records: list[FactorRecord] = []
    append, new = records.append, tuple.__new__
    for lineno, row in enumerate(rows, start=2):  # header is line 1
        if len(row) == 3:
            raw_name, study_id, space_type = row
            raw_name, study_id = raw_name.strip(), study_id.strip()
            space_type = space_type.strip()
            if not raw_name:
                if not study_id and not space_type:
                    continue
                raise CorpusError(f"{source}: row {lineno}: empty raw_name")
        elif all(not cell.strip() for cell in row):
            continue
        else:
            raise CorpusError(
                f"{source}: row {lineno}: expected 3 fields, got {len(row)}"
            )
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
        append(new(FactorRecord, (raw_name, study_id, space_type)))
    return records


def load_corpus(path: str | Path, expect_type: str | None = None) -> Corpus:
    """Load one dataset file, preserving row order.

    The file is comma-separated UTF-8 text with the header
    ``raw_name,study_id,space_type``. ``expect_type`` restricts a
    per-typology file to a single code. Blank rows are skipped; any other
    row must have three cells, a name, a study and a known code, or the
    error names its line.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"dataset file not found: {path}")
    try:
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
    except UnicodeDecodeError as exc:
        raise CorpusError(
            f"{path}: line {_undecodable_line(path)}: not UTF-8 text ({exc.reason})"
        ) from None
    except OSError as exc:
        raise CorpusError(f"{path}: cannot read: {exc.strerror or exc}") from None
    return Corpus(records=tuple(records))


def _undecodable_line(path: Path) -> int:
    """The number of the first line of ``path`` that is not UTF-8.

    The text reader decodes whole blocks, so its line count at the error is
    not the failing line's; a newline byte never occurs inside a multi-byte
    UTF-8 sequence, so decoding line by line finds it.
    """
    lineno = 0
    with path.open("rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return lineno  # the last line, should the file have changed since


def merge_corpora(corpora: Iterable[Corpus]) -> Corpus:
    records: list[FactorRecord] = []
    for corpus in corpora:
        records.extend(corpus.records)
    return Corpus(records=tuple(records))

