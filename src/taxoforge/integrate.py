"""Dataset integration: deduplicate factors and track occurrences per typology.

Folds the corpus into one entry per canonical factor name, counting mentions
per space type and retaining the contributing study sets. First-seen order is
preserved so downstream outputs are reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .corpus import SPACE_TYPES, Corpus, NormalizationRuleSet, normalize
from .errors import CorpusError, TaxoforgeError


@dataclass(frozen=True)
class OccurrenceVector:
    """Mention counts for one factor across the six space types."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != len(SPACE_TYPES):
            raise TaxoforgeError("occurrence vector needs exactly six counts")
        if any(count < 0 for count in self.counts):
            raise TaxoforgeError("occurrence counts must be non-negative")

    @classmethod
    def from_mapping(cls, counts: Mapping[str, int]) -> "OccurrenceVector":
        return cls(tuple(int(counts.get(code, 0)) for code in SPACE_TYPES))

    def as_dict(self) -> dict[str, int]:
        return dict(zip(SPACE_TYPES, self.counts))

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def active_types(self) -> tuple[str, ...]:
        return tuple(
            code for code, count in zip(SPACE_TYPES, self.counts) if count > 0
        )


@dataclass(frozen=True)
class IntegratedFactor:
    """A deduplicated factor with its occurrence vector and study sets."""

    canonical_name: str
    occurrence: OccurrenceVector
    studies: Mapping[str, frozenset[str]]
    insertion_index: int

    @property
    def all_studies(self) -> frozenset[str]:
        merged: set[str] = set()
        for ids in self.studies.values():
            merged.update(ids)
        return frozenset(merged)


@dataclass(frozen=True)
class IntegratedFactorSet:
    """Ordered factors plus the raw record count they were folded from."""

    factors: tuple[IntegratedFactor, ...]
    raw_record_count: int

    @property
    def unique_count(self) -> int:
        return len(self.factors)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.canonical_name for f in self.factors)


def integrate(corpus: Corpus, rules: NormalizationRuleSet) -> IntegratedFactorSet:
    """Fold a corpus into unique factors with occurrence tracking."""
    if not corpus.records:
        raise CorpusError("cannot integrate an empty corpus")
    order: list[str] = []
    counts: dict[str, dict[str, int]] = {}
    studies: dict[str, dict[str, set[str]]] = {}
    for position, record in enumerate(corpus.records, start=1):
        try:
            name = normalize(record.raw_name, rules)
        except CorpusError as exc:
            raise CorpusError(f"record {position}: {exc}") from exc
        if name not in counts:
            order.append(name)
            counts[name] = {code: 0 for code in SPACE_TYPES}
            studies[name] = {code: set() for code in SPACE_TYPES}
        counts[name][record.space_type] += 1
        studies[name][record.space_type].add(record.study_id)

    factors = tuple(
        IntegratedFactor(
            canonical_name=name,
            occurrence=OccurrenceVector.from_mapping(counts[name]),
            studies={code: frozenset(ids) for code, ids in studies[name].items()},
            insertion_index=index,
        )
        for index, name in enumerate(order)
    )
    return IntegratedFactorSet(factors=factors, raw_record_count=len(corpus.records))


def tracking_notation(vector: OccurrenceVector) -> str:
    """Render an occurrence vector as ``[P×1, S×2, ...]`` in canonical order.

    Zero-count types are omitted; an all-zero vector is invalid.
    """
    if vector.total == 0:
        raise TaxoforgeError("cannot render notation for an all-zero vector")
    terms = [
        f"{code}×{count}"
        for code, count in zip(SPACE_TYPES, vector.counts)
        if count > 0
    ]
    return "[" + ", ".join(terms) + "]"


_NOTATION_TERM = re.compile(r"^([PSUGOF])×(\d+)$")


def parse_tracking_notation(text: str) -> OccurrenceVector:
    """Inverse of tracking_notation."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise TaxoforgeError(f"bad tracking notation: {text!r}")
    counts = {code: 0 for code in SPACE_TYPES}
    body = text[1:-1].strip()
    if not body:
        raise TaxoforgeError("tracking notation has no terms")
    for term in body.split(","):
        match = _NOTATION_TERM.match(term.strip())
        if not match:
            raise TaxoforgeError(f"bad tracking notation term: {term.strip()!r}")
        code, count = match.group(1), int(match.group(2))
        if counts[code]:
            raise TaxoforgeError(f"duplicate space type {code} in notation")
        counts[code] = count
    return OccurrenceVector.from_mapping(counts)


def reduction_rate(raw_count: int, unique_count: int) -> float:
    """Fraction of records removed by deduplication: 1 - unique/raw."""
    if raw_count <= 0:
        raise TaxoforgeError("raw record count must be positive")
    if not 0 < unique_count <= raw_count:
        raise TaxoforgeError(
            f"unique count {unique_count} must be in 1..{raw_count}"
        )
    return 1.0 - unique_count / raw_count
