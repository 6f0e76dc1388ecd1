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
row from it: every domain's ``max`` over its keywords, in its keyword order.
The per-keyword reference each row must equal lives in ``tests/conftest.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import TaxoforgeError
from .integrate import IntegratedFactor, IntegratedFactorSet, OccurrenceVector
from .knowledge import Domain, DomainKnowledgeBase
from .similarity import KeywordScorer, SemanticLexicon

CROSS_CUTTING_THRESHOLD = 0.6
CROSS_CUTTING_MIN_DOMAINS = 3


def entropy(vector: OccurrenceVector) -> float:
    """Shannon entropy in nats over the active-type count shares."""
    total = vector.total
    if total == 0:
        raise TaxoforgeError("entropy is undefined for an all-zero vector")
    value = 0.0
    for count in vector.counts:
        if count > 0:
            p = count / total
            value -= p * math.log(p)
    return value


@dataclass(frozen=True)
class DistributionStats:
    active_type_count: int
    entropy_nats: float


def distribution_stats(vector: OccurrenceVector) -> DistributionStats:
    return DistributionStats(
        active_type_count=len(vector.active_types),
        entropy_nats=entropy(vector),
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


@dataclass(frozen=True)
class CrossCuttingAssessment:
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
    best_id, best_score = None, 0.0
    for domain, score in zip(kb.domains, relevance):
        if score > best_score:
            best_id, best_score = domain.identifier, score
    return best_id


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


@dataclass(frozen=True)
class FactorRelevance:
    """What the classify artifact keeps of a result: the relevance row, and
    the primary domain and flag that reading rebuilds from it and compares."""

    name: str
    primary_domain: str | None
    flagged: bool  # cross_cutting.flagged
    relevance: tuple[float, ...]  # per KB domain, in KB order


@dataclass(frozen=True)
class ClassificationResult(FactorRelevance):
    stats: DistributionStats
    factor_class: FactorClass
    cross_cutting: CrossCuttingAssessment


def classify_factor(
    factor: IntegratedFactor,
    relevance: tuple[float, ...],
    kb: DomainKnowledgeBase,
    threshold: float = CROSS_CUTTING_THRESHOLD,
) -> ClassificationResult:
    """Everything classify says about one factor, given its relevance row."""
    stats = distribution_stats(factor.occurrence)
    cross_cutting = assess_cross_cutting(relevance, kb, threshold)
    return ClassificationResult(
        name=factor.canonical_name,
        primary_domain=primary_domain(relevance, kb),
        flagged=cross_cutting.flagged,
        relevance=relevance,
        stats=stats,
        factor_class=classify(stats),
        cross_cutting=cross_cutting,
    )


def classify_factors(
    factor_set: IntegratedFactorSet,
    kb: DomainKnowledgeBase,
    lexicon: SemanticLexicon,
    threshold: float = CROSS_CUTTING_THRESHOLD,
) -> list[ClassificationResult]:
    factors = factor_set.factors
    rows = relevance_rows(factor_set.names, kb, lexicon)
    return [classify_factor(f, row, kb, threshold) for f, row in zip(factors, rows)]

