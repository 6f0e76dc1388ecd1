"""Input data model: datasets, the corpus folded from them, and normalization rules.

A dataset row is a raw factor name, the study that reported it and one of the
six space typologies (codes P, S, U, G, O, F). A corpus holds the rows folded
per raw spelling: for each distinct name, in the order of its first row, the
number of rows and the set of studies per space type. The loader counts
identical lines before it parses any, parses each distinct line once and
checks each distinct cell value once; a quoted cell that spans lines makes it
parse the file row by row instead. A refused row's line is found by reading
the file again. Normalization rewrites raw factor names onto a canonical
surface form through a declarative rule set: case folding, punctuation
stripping, whitespace collapsing, then a single-step synonym map guarded by a
preserve-distinct list.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, NoReturn, Sequence

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


class Spelling(NamedTuple):
    """The rows of one raw factor name, folded: for each space type it has
    rows of, ``[number of rows, set of study ids]``."""

    raw_name: str
    tallies: dict[str, list]


@dataclass(frozen=True)
class Corpus:
    """Dataset rows folded per raw spelling: one record per spelling of each
    loaded file, in the order of their first rows. ``sources`` splits the
    records into runs, each with the dataset file it was loaded from."""

    records: tuple[Spelling, ...]
    sources: tuple[tuple[Path, int], ...]

    def locate(self, position: int) -> str:
        """Where the record at 1-based ``position`` comes from: its dataset
        file and the line of its first row. The file is read again, so call
        this on error paths."""
        end = 0
        for path, size in self.sources:
            end += size
            if position <= end:
                break
        name = self.records[position - 1].raw_name
        line = _first_line(path, lambda row: bool(row) and row[0].strip() == name)
        return f"{path}: row {line}"


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
        """Apply the surface-form rules only (no synonym mapping): each
        stripped punctuation mark becomes a space, runs of whitespace become
        one space only under ``whitespace_collapse``, and the ends are
        stripped."""
        if self.case_folding:
            text = text.casefold()
        if self.punctuation_strip:
            if "-" in self.punctuation_strip:
                text = _BOUNDARY_HYPHEN.sub(" ", text)
            text = text.translate(self._punctuation_table)
        if self.whitespace_collapse:
            return " ".join(text.split())
        return text.strip()

    def validate(self) -> None:
        for entry in self.preserve_distinct:
            if entry in self.synonym_map:
                raise RuleSetError(
                    f"preserve_distinct entry {entry!r} also appears as a synonym key"
                )
        for key, value in self.synonym_map.items():
            if not self.base_normalize(value):
                raise RuleSetError(
                    f"synonyms: the value {value!r} of {key!r} normalizes to nothing"
                )
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
        if not nkey:
            raise RuleSetError(
                f"rules file {path}: synonyms: the key {key!r} normalizes to nothing"
            )
        if synonyms.setdefault(nkey, value) != value:
            raise RuleSetError(
                f"rules file {path}: synonyms: conflicting entries for {nkey!r}"
            )
    preserve = []
    for k, entry in enumerate(written.preserve_distinct or ()):
        preserve.append(base.base_normalize(entry))
        if not preserve[-1]:
            raise RuleSetError(
                f"rules file {path}: preserve_distinct[{k}]: "
                f"{entry!r} normalizes to nothing"
            )
    rules = replace(base, synonym_map=synonyms, preserve_distinct=frozenset(preserve))
    try:
        rules.validate()
    except RuleSetError as exc:
        raise RuleSetError(f"rules file {path}: {exc}") from None
    return rules


def load_corpus(path: str | Path, expect_type: str | None = None) -> Corpus:
    """Load one dataset file as its rows folded per raw spelling.

    The file is comma-separated UTF-8 text with the header
    ``raw_name,study_id,space_type``. ``expect_type`` restricts a
    per-typology file to a single code. Identical lines are counted before
    any is parsed, and each distinct line is parsed once; a quoted cell that
    spans lines makes the file parse row by row, with identical rows counted.
    Blank rows are skipped; any other row must have three cells, a name, a
    study and a known code, or the error names the line the first such row
    starts on. A row the CSV reader cannot parse is refused first, wherever
    it is. Spellings keep the order of their first rows.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"dataset file not found: {path}")
    try:
        records = _fold_lines(path, expect_type)
        if records is None:  # read row by row, identical rows counted
            with path.open(encoding="utf-8", newline="") as handle:
                rows = Counter(map(tuple, _reader(handle, path)))
            records = _fold(rows.items(), path, expect_type)
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
    return Corpus(records=tuple(records.values()), sources=((path, len(records)),))


def _reader(handle: Iterable[str], path: Path) -> Iterable[list[str]]:
    """A CSV reader over ``handle`` past its header, which it checks."""
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise CorpusError(f"{path}: empty file, expected header") from None
    if tuple(cell.strip() for cell in header) != CSV_HEADER:
        raise CorpusError(
            f"{path}: bad header {header!r}, expected {','.join(CSV_HEADER)}"
        )
    return reader


def _fold_lines(path: Path, expect_type: str | None) -> dict[str, Spelling] | None:
    """Fold the file's distinct lines, each parsed once, or return None when
    a line holds only part of a row or the file does not decode, parse or
    pass its checks: reading it row by row then finds what the whole file
    holds, and refuses a CSV error before any row it comes after."""
    with path.open(encoding="utf-8", newline="") as handle:
        _reader(handle, path)
        try:
            lines = Counter(handle)
        except UnicodeDecodeError:
            return None
    # A line parsed as one row starts and ends outside quotes, so it is that
    # row wherever it stands. The reader makes one row of each line, and of
    # the blank line after them, only if every line is so: a quote a line
    # leaves open takes in the next line, the blank one after the last.
    counts = iter(chain(lines.values(), (0,)))
    rows = zip(csv.reader(chain(lines, ("\n",))), counts)
    try:
        records = _fold(rows, path, expect_type)
    except (csv.Error, CorpusError):
        return None
    return records if next(counts, None) is None else None


def _fold(
    rows: Iterable[tuple[Sequence[str], int]], path: Path, expect_type: str | None
) -> dict[str, Spelling]:
    """Each spelling's record, with each counted row's rows and study added to
    its space type's tally. Each distinct cell value is checked once, and the
    first faulty row is refused. Each study id is one string, shared through
    a dict local to the load: with ``sys.intern`` instead, the peak RSS of
    repeated runs in one process grew."""
    records: dict[str, Spelling] = {}
    tallies: dict[str, dict[str, list]] = {}  # name cell -> code cell -> tally
    studies: dict[str, str] = {}  # study cell -> study id
    for row, count in rows:
        try:
            name, study, code = row
            tally = tallies[name][code]
            study = studies[study]
        except (KeyError, ValueError):
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if len(cells) != 3:
                _refuse(path, row, f"expected 3 fields, got {len(cells)}")
            raw_name, study_id, space_type = cells
            if not raw_name:
                _refuse(path, row, "empty raw_name")
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
            name, study, code = row
            record = records.get(raw_name)
            if record is None:
                record = records[raw_name] = Spelling(raw_name, {})
            tally = record.tallies.setdefault(space_type, [0, set()])
            tallies.setdefault(name, {})[code] = tally
            studies[study] = study = studies.setdefault(study_id, study_id)
        tally[0] += count
        tally[1].add(study)
    return records


def _refuse(path: Path, row: Sequence[str], problem: str) -> NoReturn:
    cells = list(row)
    line = _first_line(path, lambda found: found == cells)
    raise CorpusError(f"{path}: row {line}: {problem}")


def _first_line(path: Path, wanted: Callable[[list[str]], bool]) -> int:
    """The line on which the first row of ``path`` after the header that
    ``wanted`` accepts starts; a row the CSV reader cannot parse, the header
    too, is refused at its line. Only error paths read the file this way."""
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        start = 1
        try:
            next(reader, None)
            start = reader.line_num + 1
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
    """The corpora one after another: records and sources."""
    records: list[Spelling] = []
    sources: list[tuple[Path, int]] = []
    for corpus in corpora:
        records.extend(corpus.records)
        sources.extend(corpus.sources)
    return Corpus(records=tuple(records), sources=tuple(sources))
