"""Dataset integration: deduplicate factors and track occurrences per typology.

Folds the corpus into one entry per canonical factor name, counting mentions
per space type and retaining the contributing study sets. The corpus arrives
folded per raw spelling, so each spelling adds its rows and studies at once
and is normalized once per fold, however many dataset files hold it.
First-seen order is preserved so downstream outputs are reproducible.
"""

from __future__ import annotations

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
    """Fold a corpus into unique factors with occurrence tracking.

    Each spelling adds its rows of each space type to its factor's mentions
    there, and its studies of that type to the factor's studies there.
    Factors keep the order of their first spellings. A spelling that fails to
    normalize is reported where its first row comes from (``Corpus.locate``).
    """
    canonical: dict[str, str] = {}  # raw spelling -> canonical name
    counts: dict[str, dict[str, int]] = {}
    studies: dict[str, dict[str, set[str]]] = {}
    total = 0
    for position, (raw_name, tallies) in enumerate(corpus.records, 1):
        name = canonical.get(raw_name)
        if name is None:
            try:
                name = canonical[raw_name] = normalize(raw_name, rules)
            except CorpusError as exc:
                raise CorpusError(f"{corpus.locate(position)}: {exc}") from exc
        if name not in counts:
            counts[name] = dict.fromkeys(SPACE_TYPES, 0)
            studies[name] = {code: set() for code in SPACE_TYPES}
        for code, (rows, ids) in tallies.items():
            counts[name][code] += rows
            studies[name][code] |= ids
            total += rows

    factors = tuple(
        IntegratedFactor(
            canonical_name=name,
            occurrence=OccurrenceVector.from_mapping(counts[name]),
            studies={code: frozenset(ids) for code, ids in studies[name].items()},
        )
        for name in counts
    )
    return IntegratedFactorSet(factors=factors, raw_record_count=total)


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


def reduction_rate(raw_count: int, unique_count: int) -> float:
    """Fraction of records removed by deduplication: 1 - unique/raw."""
    if raw_count <= 0:
        raise TaxoforgeError("raw record count must be positive")
    if not 0 < unique_count <= raw_count:
        raise TaxoforgeError(
            f"unique count {unique_count} must be in 1..{raw_count}"
        )
    return 1.0 - unique_count / raw_count
