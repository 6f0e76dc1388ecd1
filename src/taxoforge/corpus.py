"""Input data model: factor records, datasets, and normalization rules.

A corpus is a multiset of raw factor records, each tagged with the study that
reported it and one of the six space typologies (codes P, S, U, G, O, F): the
distinct records in first-seen order, each with the number of dataset rows it
stands for. The loader counts identical rows before it looks at them and
checks each distinct row once; a record is a plain named tuple that checks
nothing when built. A refused row's line is found by reading the file again.
Normalization rewrites raw factor names onto a canonical surface form through
a declarative rule set: case folding, whitespace collapsing, punctuation
stripping, then a single-step synonym map guarded by a preserve-distinct list.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, NoReturn

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
    one checks nothing: the loader checks each distinct row it reads, and
    ``integrate`` checks each record it folds."""

    raw_name: str
    study_id: str
    space_type: str


@dataclass(frozen=True)
class Corpus:
    """Distinct factor records in first-seen order, with the number of rows
    each stands for. Without ``counts`` each listed record counts once, as in
    a corpus built by hand. ``sources`` splits the records into runs, each
    with the dataset file it was loaded from, or None."""

    records: tuple[FactorRecord, ...]
    counts: tuple[int, ...] | None = None
    sources: tuple[tuple[Path | None, int], ...] = ()

    def __post_init__(self) -> None:
        if self.counts is None:
            object.__setattr__(self, "counts", (1,) * len(self.records))
        if not self.sources:
            object.__setattr__(self, "sources", ((None, len(self.records)),))
        if len(self.counts) != len(self.records) or min(self.counts, default=1) < 1:
            raise CorpusError("a corpus needs one positive count per record")

    def locate(self, position: int) -> str:
        """Where the record at 1-based ``position`` comes from: its dataset
        file and the line of its first row, or ``record N`` for a record
        built by hand. The file is read again, so call this on error paths."""
        end = 0
        for path, size in self.sources:
            end += size
            if position <= end:
                if path is None:
                    break
                record = self.records[position - 1]
                line = _first_line(
                    path, lambda row: tuple(cell.strip() for cell in row) == record
                )
                return f"{path}: row {line}"
        return f"record {position}"


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


def _count_records(
    rows: Counter[tuple[str, ...]], path: Path, expect_type: str | None
) -> dict[FactorRecord, int]:
    """Check each distinct row once and sum the counts of the rows that hold
    the same record. The records share one string per distinct name and study
    id through a dict local to the load: with ``sys.intern`` instead, the
    peak RSS of repeated runs in one process grew."""
    records: dict[FactorRecord, int] = {}
    shared: dict[str, str] = {}
    get, share, new = records.get, shared.setdefault, tuple.__new__
    for row, count in rows.items():
        if len(row) == 3:
            raw_name, study_id, space_type = row
            raw_name, study_id = raw_name.strip(), study_id.strip()
            space_type = space_type.strip()
            if not raw_name:
                if not study_id and not space_type:
                    continue
                _refuse(path, row, "empty raw_name")
        elif all(not cell.strip() for cell in row):
            continue
        else:
            _refuse(path, row, f"expected 3 fields, got {len(row)}")
        if not study_id:
            _refuse(path, row, "empty study_id")
        if space_type not in SPACE_TYPES:
            _refuse(path, row, f"unknown space type {space_type!r}")
        if expect_type is not None and space_type != expect_type:
            _refuse(
                path,
                row,
                f"space type {space_type!r} does not match "
                f"the dataset's declared typology {expect_type!r}",
            )
        raw_name, study_id = share(raw_name, raw_name), share(study_id, study_id)
        # FactorRecord(...) goes through NamedTuple's Python-level __new__;
        # tuple.__new__ builds the same record without that call.
        record = new(FactorRecord, (raw_name, study_id, space_type))
        records[record] = get(record, 0) + count
    return records


def _refuse(path: Path, row: tuple[str, ...], problem: str) -> NoReturn:
    line = _first_line(path, lambda cells: tuple(cells) == row)
    raise CorpusError(f"{path}: row {line}: {problem}")


def load_corpus(path: str | Path, expect_type: str | None = None) -> Corpus:
    """Load one dataset file as its distinct records and their counts.

    The file is comma-separated UTF-8 text with the header
    ``raw_name,study_id,space_type``. ``expect_type`` restricts a
    per-typology file to a single code. Identical rows are counted, and each
    distinct row is checked once. Blank rows are skipped; any other row must
    have three cells, a name, a study and a known code, or the error names
    the line the first such row starts on. Records keep the order of their
    first rows.
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
            rows = Counter(map(tuple, reader))
    except UnicodeDecodeError as exc:
        raise CorpusError(
            f"{path}: line {_undecodable_line(path)}: not UTF-8 text ({exc.reason})"
        ) from None
    except csv.Error:
        # Reading again meets the same error and refuses it at its row's line.
        _first_line(path, lambda row: False)
        raise
    except OSError as exc:
        raise CorpusError(f"{path}: cannot read: {exc.strerror or exc}") from None
    records = _count_records(rows, path, expect_type)
    return Corpus(
        records=tuple(records),
        counts=tuple(records.values()),
        sources=((path, len(records)),),
    )


def _first_line(path: Path, wanted: Callable[[list[str]], bool]) -> int:
    """The line on which the first row of ``path`` after the header that
    ``wanted`` accepts starts; a row the CSV reader cannot parse is refused
    at its line. Only error paths read the file this way."""
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader, None)
        start = reader.line_num + 1
        try:
            for row in reader:
                if wanted(row):
                    return start
                start = reader.line_num + 1
        except csv.Error as exc:
            raise CorpusError(f"{path}: row {start}: {exc}") from None
    raise CorpusError(f"{path}: changed while it was read")


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
    """The corpora one after another: records, counts and sources."""
    records: list[FactorRecord] = []
    counts: list[int] = []
    sources: list[tuple[Path | None, int]] = []
    for corpus in corpora:
        records.extend(corpus.records)
        counts.extend(corpus.counts)
        sources.extend(corpus.sources)
    return Corpus(records=tuple(records), counts=tuple(counts), sources=tuple(sources))

