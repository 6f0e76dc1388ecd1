"""Distribution statistics and factor classification.

Counts-based classes: a factor active in five or more space types is
Universal, three or four Multi-space, one or two Space-specific. Distribution
entropy (natural log over the active-type count shares) measures evenness.
Cross-cutting detection scores each factor against every domain's keyword
lexicon and flags factors relevant to three or more domains. That
factor-by-domain relevance table is computed here once and carried on each
result, so category assignment and placement read it instead of rescoring.

A relevance is the best ``linguistic_similarity`` of the factor name against
one of the domain's keywords. ``relevance_rows`` builds one
``KeywordScorer`` over the KB's distinct domain keywords, scores each name
against all of them from the keywords' postings, and takes each domain's
``max`` over its keyword positions in its keyword order. A keyword sharing
no token, trigram key or lexicon field with the name scores exactly 0.0
under ``_linguistic`` as well, so every row equals ``relevance_row``, the
per-keyword reference, value for value and type for type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import TaxoforgeError
from .integrate import IntegratedFactor, IntegratedFactorSet, OccurrenceVector
from .knowledge import Domain, DomainKnowledgeBase
from .similarity import KeywordScorer, SemanticLexicon, linguistic_similarity

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
    total_mentions: int


def distribution_stats(vector: OccurrenceVector) -> DistributionStats:
    return DistributionStats(
        active_type_count=len(vector.active_types),
        entropy_nats=entropy(vector),
        total_mentions=vector.total,
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


def domain_relevance(name: str, domain: Domain, lexicon: SemanticLexicon) -> float:
    """Best linguistic match between a factor name and the domain's keywords,
    one keyword at a time: the reference ``relevance_rows`` must equal."""
    return max(
        linguistic_similarity(name, keyword, lexicon) for keyword in domain.keywords
    )


def relevance_row(
    name: str, kb: DomainKnowledgeBase, lexicon: SemanticLexicon
) -> tuple[float, ...]:
    """The factor's relevance to every domain, in KB order."""
    return tuple(domain_relevance(name, domain, lexicon) for domain in kb.domains)


def relevance_rows(
    names: Sequence[str], kb: DomainKnowledgeBase, lexicon: SemanticLexicon
) -> list[tuple[float, ...]]:
    """``relevance_row`` of each name, from one ``KeywordScorer`` over the
    KB's distinct domain keywords: each entry is the ``max`` over the
    domain's keyword positions, in the domain's keyword order."""
    keywords = list(dict.fromkeys(k for d in kb.domains for k in d.keywords))
    position = {keyword: k for k, keyword in enumerate(keywords)}
    positions = [[position[keyword] for keyword in d.keywords] for d in kb.domains]
    scorer = KeywordScorer(keywords, lexicon)
    rows = []
    for name in names:
        scores = scorer.scores(name)
        rows.append(tuple(max([scores[k] for k in keys]) for keys in positions))
    return rows


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
class ClassificationResult:
    name: str
    stats: DistributionStats
    factor_class: FactorClass
    primary_domain: str | None
    cross_cutting: CrossCuttingAssessment
    relevance: tuple[float, ...]  # per KB domain, in KB order


def classify_factor(
    factor: IntegratedFactor,
    relevance: tuple[float, ...],
    kb: DomainKnowledgeBase,
    threshold: float = CROSS_CUTTING_THRESHOLD,
) -> ClassificationResult:
    """Everything classify says about one factor, given its relevance row."""
    stats = distribution_stats(factor.occurrence)
    return ClassificationResult(
        name=factor.canonical_name,
        stats=stats,
        factor_class=classify(stats),
        primary_domain=primary_domain(relevance, kb),
        cross_cutting=assess_cross_cutting(relevance, kb, threshold),
        relevance=relevance,
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


@dataclass(frozen=True)
class ClassificationCensus:
    universal: int
    multi_space: int
    space_specific: int
    cross_cutting: int

    @property
    def total(self) -> int:
        return self.universal + self.multi_space + self.space_specific


def classification_census(results: list[ClassificationResult]) -> ClassificationCensus:
    universal = sum(1 for r in results if r.factor_class is FactorClass.UNIVERSAL)
    multi = sum(1 for r in results if r.factor_class is FactorClass.MULTI_SPACE)
    specific = sum(1 for r in results if r.factor_class is FactorClass.SPACE_SPECIFIC)
    flagged = sum(1 for r in results if r.cross_cutting.flagged)
    return ClassificationCensus(
        universal=universal,
        multi_space=multi,
        space_specific=specific,
        cross_cutting=flagged,
    )
