"""Dataset integration: deduplicate factors and track occurrences per typology.

Folds the corpus into one entry per canonical factor name, counting mentions
per space type and retaining the contributing study sets. The corpus arrives
folded per raw spelling, so each spelling adds its rows and studies at once
and is normalized once per fold, however many dataset files hold it.
First-seen order is preserved so downstream outputs are reproducible.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .codec import EMPTY
from .corpus import SPACE_TYPES, Corpus, NormalizationRuleSet, normalize
from .errors import CorpusError, TaxoforgeError


class IntegratedFactor(NamedTuple):
    """A deduplicated factor: its mentions per space type, in
    ``SPACE_TYPES`` order, and its study sets."""

    canonical_name: str
    counts: tuple[int, ...]
    studies: Mapping[str, frozenset[str]]

    def check(self) -> None:
        if len(self.counts) != len(SPACE_TYPES):
            raise TaxoforgeError("occurrence vector needs exactly six counts")
        if any(count < 0 for count in self.counts):
            raise TaxoforgeError("occurrence counts must be non-negative")
        if tuple(self.studies) != SPACE_TYPES:
            raise TaxoforgeError(
                f"expected studies under {', '.join(SPACE_TYPES)}", "studies"
            )
        if not sum(self.counts):
            raise TaxoforgeError("expected at least one mention", "counts")
        # Each mention adds one count and at most one study.
        for (code, studies), count in zip(self.studies.items(), self.counts):
            if not min(count, 1) <= len(studies) <= count:
                raise TaxoforgeError(f"expected 1 to {count} studies for {count} "
                                     "mentions, none for none", "studies", code)

    @property
    def all_studies(self) -> frozenset[str]:
        merged: set[str] = set()
        for ids in self.studies.values():
            merged.update(ids)
        return frozenset(merged)


class IntegratedFactorSet(NamedTuple):
    """Ordered factors plus the raw record count they were folded from."""

    factors: tuple[IntegratedFactor, ...]
    raw_record_count: int

    def check(self) -> None:
        if not self.factors:  # integrate refuses an empty corpus
            raise TaxoforgeError("expected at least one factor", "factors")
        if self.raw_record_count != sum(sum(f.counts) for f in self.factors):
            raise TaxoforgeError("expected the sum of the factors' counts",
                                 "raw_record_count")

    @property
    def unique_count(self) -> int:
        return len(self.factors)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.canonical_name for f in self.factors)


def integrate(corpus: Corpus, rules: NormalizationRuleSet) -> IntegratedFactorSet:
    """Fold a corpus into unique factors, each with its counts and studies.

    Each spelling adds its rows of each space type to its factor's count
    there, and its studies of that type to the factor's studies there; each
    empty study set is the shared ``codec.EMPTY``. Factors keep the order of
    their first spellings. A spelling that fails to normalize is reported
    where its first row comes from (``Corpus.locate``).
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
            counts=tuple(counts[name].values()),
            studies={
                code: frozenset(ids) if ids else EMPTY
                for code, ids in studies[name].items()
            },
        )
        for name in counts
    )
    return IntegratedFactorSet(factors=factors, raw_record_count=total)


def tracking_notation(counts: tuple[int, ...]) -> str:
    """Render a factor's counts as ``[P×1, S×2, ...]`` in canonical order.

    Zero-count types are omitted; all-zero counts are invalid.
    """
    if not sum(counts):
        raise TaxoforgeError("cannot render notation for an all-zero vector")
    pairs = zip(SPACE_TYPES, counts)
    terms = [f"{code}×{count}" for code, count in pairs if count > 0]
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
