"""Distribution statistics and factor classification.

Counts-based classes: a factor active in five or more space types is
Universal, three or four Multi-space, one or two Space-specific. Distribution
entropy (natural log over the active-type count shares) measures evenness.
Cross-cutting detection scores each factor against every domain's keyword
lexicon and flags factors relevant to three or more domains. That
factor-by-domain relevance table is computed here once and carried on each
result, so category assignment and placement read it instead of rescoring.

A relevance is the best linguistic component (see ``similarity``) of the
factor name against one of the domain's keywords. ``relevance_rows`` builds
one ``KeywordScorer`` over the domains' keyword lists and takes each name's
row from it. ``classify_rows`` turns the rows into results, for the phase
and for reading its artifact back: statistics and class once per distinct
count vector, the assessment once per distinct tuple of relevant domains.
The per-keyword and per-factor references live in ``tests/conftest.py``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import TaxoforgeError
from .integrate import IntegratedFactor, IntegratedFactorSet
from .knowledge import Domain, DomainKnowledgeBase
from .similarity import KeywordScorer, SemanticLexicon

CROSS_CUTTING_THRESHOLD = 0.6
CROSS_CUTTING_MIN_DOMAINS = 3


def entropy(counts: tuple[int, ...]) -> float:
    """Shannon entropy in nats over the active-type count shares."""
    total = sum(counts)
    if total == 0:
        raise TaxoforgeError("entropy is undefined for an all-zero vector")
    value = 0.0
    for count in counts:
        if count > 0:
            p = count / total
            value -= p * math.log(p)
    return value


class DistributionStats(NamedTuple):
    active_type_count: int
    entropy_nats: float


def distribution_stats(counts: tuple[int, ...]) -> DistributionStats:
    return DistributionStats(
        active_type_count=sum(count > 0 for count in counts),
        entropy_nats=entropy(counts),
    )


class FactorClass(Enum):
    UNIVERSAL = "Universal"
    MULTI_SPACE = "Multi-space"
    SPACE_SPECIFIC = "Space-specific"


def classify(stats: DistributionStats) -> FactorClass:
    if stats.active_type_count >= 5:
        return FactorClass.UNIVERSAL
    if stats.active_type_count >= 3:
        return FactorClass.MULTI_SPACE
    return FactorClass.SPACE_SPECIFIC


class CrossCuttingStatus(Enum):
    LIMITED = "Limited"
    MODERATE = "Moderate"
    HIGH = "High"
    VERY_HIGH = "Very High"

    @classmethod
    def from_score(cls, score: int) -> "CrossCuttingStatus":
        if score <= 1:
            return cls.LIMITED
        if score == 2:
            return cls.MODERATE
        if score == 3:
            return cls.HIGH
        return cls.VERY_HIGH


class CrossCuttingAssessment(NamedTuple):
    relevant_domains: tuple[str, ...]
    score: int
    status: CrossCuttingStatus
    flagged: bool


# Kept, though run never calls it: perfbench/tracing.py counts the calls of
# this name and refuses to install without it.
def domain_relevance(name: str, domain: Domain, lexicon: SemanticLexicon) -> float:
    """The factor's relevance to one domain."""
    return KeywordScorer([domain.keywords], lexicon).row(name)[0]


def relevance_rows(
    names: Sequence[str], kb: DomainKnowledgeBase, lexicon: SemanticLexicon
) -> list[tuple[float, ...]]:
    """Each name's relevance to every domain, in KB order."""
    scorer = KeywordScorer([domain.keywords for domain in kb.domains], lexicon)
    return [scorer.row(name) for name in names]


def primary_domain(
    relevance: Sequence[float], kb: DomainKnowledgeBase
) -> str | None:
    """Domain with the highest relevance, or None when every domain scores zero.

    Ties break by KB domain order; the pipeline reports unassignable factors.
    """
    best = max(relevance, default=0.0)
    return kb.domains[relevance.index(best)].identifier if best > 0.0 else None


def assess_cross_cutting(
    relevance: Sequence[float],
    kb: DomainKnowledgeBase,
    threshold: float = CROSS_CUTTING_THRESHOLD,
) -> CrossCuttingAssessment:
    relevant = tuple(
        domain.identifier
        for domain, score in zip(kb.domains, relevance)
        if score >= threshold
    )
    score = len(relevant)
    return CrossCuttingAssessment(
        relevant_domains=relevant,
        score=score,
        status=CrossCuttingStatus.from_score(score),
        flagged=score >= CROSS_CUTTING_MIN_DOMAINS,
    )


class FactorRelevance(NamedTuple):
    """What the classify artifact keeps of a result: the relevance row, and
    the primary domain and flag that reading rebuilds from it and compares."""

    name: str
    primary_domain: str | None
    flagged: bool  # cross_cutting.flagged
    relevance: tuple[float, ...]  # per KB domain, in KB order

    def check(self) -> None:
        row = self.relevance
        if row and not 0.0 <= min(row) <= max(row) <= 1.0:
            raise TaxoforgeError("expected a number in [0, 1] per domain", "relevance")


class ClassificationResult(NamedTuple):
    """All classify says of a factor; ``FactorRelevance``'s fields lead."""

    name: str
    primary_domain: str | None
    flagged: bool  # cross_cutting.flagged
    relevance: tuple[float, ...]  # per KB domain, in KB order
    stats: DistributionStats
    factor_class: FactorClass
    cross_cutting: CrossCuttingAssessment


def classify_rows(
    factors: Sequence[IntegratedFactor],
    rows: Sequence[tuple[float, ...]],
    kb: DomainKnowledgeBase,
    threshold: float = CROSS_CUTTING_THRESHOLD,
) -> list[ClassificationResult]:
    """Everything classify says about each factor, given its relevance row."""
    ids = kb.domain_ids()
    by_counts: dict[tuple[int, ...], tuple[DistributionStats, FactorClass]] = {}
    by_relevant: dict[tuple[str, ...], CrossCuttingAssessment] = {}
    results = []
    for factor, row in zip(factors, rows):
        counts = factor.counts
        if (known := by_counts.get(counts)) is None:
            stats = distribution_stats(counts)
            known = by_counts[counts] = stats, classify(stats)
        relevant = tuple(d for d, score in zip(ids, row) if score >= threshold)
        if (cross := by_relevant.get(relevant)) is None:
            cross = by_relevant[relevant] = assess_cross_cutting(row, kb, threshold)
        primary = primary_domain(row, kb)
        results.append(ClassificationResult(
            factor.canonical_name, primary, cross.flagged, row, *known, cross
        ))
    return results


def classify_factors(
    factor_set: IntegratedFactorSet,
    kb: DomainKnowledgeBase,
    lexicon: SemanticLexicon,
    threshold: float = CROSS_CUTTING_THRESHOLD,
) -> list[ClassificationResult]:
    rows = relevance_rows(factor_set.names, kb, lexicon)
    return classify_rows(factor_set.factors, rows, kb, threshold)
