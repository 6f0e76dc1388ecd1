"""Distribution statistics and factor classification.

Counts-based classes: a factor active in five or more space types is
Universal, three or four Multi-space, one or two Space-specific. Distribution
entropy (natural log over the active-type count shares) measures evenness.
Cross-cutting detection scores each factor against every domain's keyword
lexicon and flags factors relevant to three or more domains. That
factor-by-domain relevance table is computed here once and carried on each
result, so category assignment and placement read it instead of rescoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import TaxoforgeError, is_unit_number
from .integrate import IntegratedFactorSet, OccurrenceVector
from .knowledge import Domain, DomainKnowledgeBase
from .similarity import SemanticLexicon, linguistic_similarity

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
    """Best linguistic match between a factor name and the domain's keywords."""
    return max(
        linguistic_similarity(name, keyword, lexicon) for keyword in domain.keywords
    )


def relevance_row(
    name: str, kb: DomainKnowledgeBase, lexicon: SemanticLexicon
) -> tuple[float, ...]:
    """The factor's relevance to every domain, in KB order."""
    return tuple(domain_relevance(name, domain, lexicon) for domain in kb.domains)


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


def classify_factors(
    factor_set: IntegratedFactorSet,
    kb: DomainKnowledgeBase,
    lexicon: SemanticLexicon,
    threshold: float = CROSS_CUTTING_THRESHOLD,
) -> list[ClassificationResult]:
    results = []
    for factor in factor_set.factors:
        stats = distribution_stats(factor.occurrence)
        relevance = relevance_row(factor.canonical_name, kb, lexicon)
        results.append(
            ClassificationResult(
                name=factor.canonical_name,
                stats=stats,
                factor_class=classify(stats),
                primary_domain=primary_domain(relevance, kb),
                cross_cutting=assess_cross_cutting(relevance, kb, threshold),
                relevance=relevance,
            )
        )
    return results


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


def classification_to_dict(results: list[ClassificationResult]) -> dict:
    return {
        "factors": [
            {
                "name": r.name,
                "active_type_count": r.stats.active_type_count,
                "entropy_nats": r.stats.entropy_nats,
                "total_mentions": r.stats.total_mentions,
                "class": r.factor_class.value,
                "primary_domain": r.primary_domain,
                "relevant_domains": list(r.cross_cutting.relevant_domains),
                "cross_cutting_score": r.cross_cutting.score,
                "status": r.cross_cutting.status.value,
                "flagged": r.cross_cutting.flagged,
                "relevance": list(r.relevance),
            }
            for r in results
        ]
    }


def classification_from_dict(doc: dict) -> list[ClassificationResult]:
    results = []
    for entry in doc["factors"]:
        if not isinstance(entry["name"], str):
            raise TaxoforgeError(
                f"field 'name' must be a string, got {entry['name']!r}"
            )
        if type(entry["flagged"]) is not bool:
            raise TaxoforgeError(
                f"field 'flagged' must be true or false, got {entry['flagged']!r}"
            )
        if not isinstance(entry["primary_domain"], (str, type(None))):
            raise TaxoforgeError(
                f"field 'primary_domain' must be a domain id or null, "
                f"got {entry['primary_domain']!r}"
            )
        relevance = entry["relevance"]
        width = len(results[0].relevance) if results else len(relevance)
        if (
            not isinstance(relevance, list)
            or len(relevance) != width
            or not all(is_unit_number(x) for x in relevance)
        ):
            raise TaxoforgeError(
                f"field 'relevance' of {entry['name']!r}: expected {width} "
                "numbers in [0, 1], as many as the first factor's"
            )
        results.append(
            ClassificationResult(
                name=entry["name"],
                stats=DistributionStats(
                    active_type_count=entry["active_type_count"],
                    entropy_nats=entry["entropy_nats"],
                    total_mentions=entry["total_mentions"],
                ),
                factor_class=FactorClass(entry["class"]),
                primary_domain=entry["primary_domain"],
                cross_cutting=CrossCuttingAssessment(
                    relevant_domains=tuple(entry["relevant_domains"]),
                    score=entry["cross_cutting_score"],
                    status=CrossCuttingStatus(entry["status"]),
                    flagged=entry["flagged"],
                ),
                relevance=tuple(relevance),
            )
        )
    return results


def check_domain_ids(
    results: Sequence[ClassificationResult], domain_ids: Sequence[str]
) -> None:
    """Refuse decoded results that do not fit the KB: a domain id it does not
    define, or a relevance row without one entry per domain."""
    known = set(domain_ids)
    for r in results:
        if len(r.relevance) != len(domain_ids):
            raise TaxoforgeError(
                f"field 'relevance' of {r.name!r}: expected {len(domain_ids)} "
                "numbers, one per KB domain"
            )
        if r.primary_domain is not None and r.primary_domain not in known:
            raise TaxoforgeError(
                f"field 'primary_domain' of {r.name!r}: unknown domain "
                f"{r.primary_domain!r}"
            )
        for domain_id in r.cross_cutting.relevant_domains:
            if not isinstance(domain_id, str) or domain_id not in known:
                raise TaxoforgeError(
                    f"field 'relevant_domains' of {r.name!r}: unknown domain "
                    f"{domain_id!r}"
                )
