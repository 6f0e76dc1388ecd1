"""Two-level clustering: category assignment, then subcategory formation.

Each factor is scored against every domain on three channels: a scope-prior
weighted lexicon match (0.4), the share of its high-similarity neighbours
whose primary domain is the candidate (0.3), and the cosine between its
occurrence vector and the domain's space profile (0.3). The argmax wins, ties
breaking by KB order. Within a category, single-linkage components over pairs
scoring at or above the subcluster threshold become subcategory clusters.

The lexicon match is classify's relevance row, read from its result. The
space-profile cosine depends only on the occurrence counts, so
``space_fits`` computes it once per distinct count vector. The artifact keeps
only each factor's home (``CategoryHome``): reading it rebuilds every channel
score with ``channel_scores``, the helper ``assign_categories`` scores with,
and refuses a category that is not the rebuilt argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .classify import ClassificationResult, FactorClass
from .integrate import IntegratedFactorSet
from .knowledge import Domain, DomainKnowledgeBase, DomainScope, ScopePriors
from .similarity import SemanticLexicon, SimilarityMatrix, cosine, linguistic_similarity

SEMANTIC_WEIGHT = 0.4
SIMILARITY_WEIGHT = 0.3
DISTRIBUTION_WEIGHT = 0.3

RELATED_THRESHOLD = 0.75
SUBCLUSTER_THRESHOLD = 0.6


def domain_priorities(
    factor_class: FactorClass, priors: ScopePriors = ScopePriors()
) -> dict[DomainScope, float]:
    """Multiplicative prior on the semantic channel per domain scope.

    Universal factors prefer broad domains, multi-space factors broad and
    moderate ones, and space-specific factors carry no penalty anywhere.
    """
    if factor_class is FactorClass.UNIVERSAL:
        return {
            DomainScope.BROAD: priors.preferred,
            DomainScope.MODERATE: priors.adjacent,
            DomainScope.SPECIALIZED: priors.other,
        }
    if factor_class is FactorClass.MULTI_SPACE:
        return {
            DomainScope.BROAD: priors.preferred,
            DomainScope.MODERATE: priors.preferred,
            DomainScope.SPECIALIZED: priors.adjacent,
        }
    return {
        DomainScope.BROAD: priors.preferred,
        DomainScope.MODERATE: priors.preferred,
        DomainScope.SPECIALIZED: priors.preferred,
    }


def related_factors(
    index: int, matrix: SimilarityMatrix, threshold: float = RELATED_THRESHOLD
) -> list[tuple[int, float]]:
    """Indices of factors scoring strictly above the threshold, best first;
    the graph's floor must not exceed the threshold."""
    hits = [(j, score) for j, score in matrix.neighbours[index] if score > threshold]
    hits.sort(key=lambda item: (-item[1], item[0]))
    return hits


@dataclass(frozen=True)
class AssignmentScores:
    semantic: float
    similarity_evidence: float
    distribution: float

    @property
    def final(self) -> float:
        return (
            SEMANTIC_WEIGHT * self.semantic
            + SIMILARITY_WEIGHT * self.similarity_evidence
            + DISTRIBUTION_WEIGHT * self.distribution
        )


@dataclass(frozen=True)
class CategoryHome:
    """What the cluster artifact keeps of an assignment."""

    factor: str
    category: str
    subcategory: str


@dataclass(frozen=True)
class CategoryAssignment(CategoryHome):
    scores: Mapping[str, AssignmentScores]


def space_fits(
    factor_set: IntegratedFactorSet, kb: DomainKnowledgeBase
) -> dict[tuple[int, ...], tuple[float, ...]]:
    """The distribution channel: for each distinct occurrence count vector,
    its ``cosine`` with every domain's space profile, in KB order."""
    fits: dict[tuple[int, ...], tuple[float, ...]] = {}
    for factor in factor_set.factors:
        counts = factor.occurrence.counts
        if counts not in fits:
            fits[counts] = tuple(cosine(counts, d.space_profile) for d in kb.domains)
    return fits


def score_domains(
    index: int,
    fits: Sequence[float],
    classification: ClassificationResult,
    kb: DomainKnowledgeBase,
    matrix: SimilarityMatrix,
    primary_domains: Sequence[str | None],
    related_threshold: float = RELATED_THRESHOLD,
) -> dict[str, AssignmentScores]:
    """Per-domain channel scores for one factor, given its space fits."""
    priors = domain_priorities(classification.factor_class, kb.scope_priors)
    related = related_factors(index, matrix, related_threshold)
    evidence_counts: dict[str, int] = {}
    for j, _score in related:
        domain_id = primary_domains[j]
        if domain_id is not None:
            evidence_counts[domain_id] = evidence_counts.get(domain_id, 0) + 1

    scores: dict[str, AssignmentScores] = {}
    for domain, relevance, distribution in zip(
        kb.domains, classification.relevance, fits
    ):
        semantic = priors[domain.scope] * relevance
        evidence = (
            evidence_counts.get(domain.identifier, 0) / len(related) if related else 0.0
        )
        scores[domain.identifier] = AssignmentScores(
            semantic=semantic,
            similarity_evidence=evidence,
            distribution=distribution,
        )
    return scores


def channel_scores(
    factor_set: IntegratedFactorSet,
    classifications: Sequence[ClassificationResult],
    kb: DomainKnowledgeBase,
    matrix: SimilarityMatrix,
    related_threshold: float = RELATED_THRESHOLD,
) -> list[dict[str, AssignmentScores]]:
    """Every factor's per-domain channel scores, in factor order."""
    primary_domains = [c.primary_domain for c in classifications]
    fits = space_fits(factor_set, kb)
    return [
        score_domains(
            index,
            fits[factor.occurrence.counts],
            classifications[index],
            kb,
            matrix,
            primary_domains,
            related_threshold,
        )
        for index, factor in enumerate(factor_set.factors)
    ]


def argmax_domain(
    scores: Mapping[str, AssignmentScores], kb: DomainKnowledgeBase
) -> str:
    """The domain with the highest final score; KB order breaks ties."""
    return max(kb.domain_ids(), key=lambda domain_id: scores[domain_id].final)


def subcluster(
    member_indices: Sequence[int],
    matrix: SimilarityMatrix,
    threshold: float = SUBCLUSTER_THRESHOLD,
) -> list[list[int]]:
    """Single-linkage connected components over within-category pairs; the
    graph's floor must not exceed the threshold."""
    members = sorted(member_indices)
    parent = {i: i for i in members}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in members:
        for j, score in matrix.neighbours[i]:
            if j > i and j in parent and score >= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[int]] = {}
    for i in members:
        groups.setdefault(find(i), []).append(i)
    return [sorted(groups[root]) for root in sorted(groups)]


def best_subcategory(
    names: Sequence[str], domain: Domain, lexicon: SemanticLexicon
) -> str:
    """Subcategory with the highest mean keyword match over the given names.

    An all-zero match falls back to the domain's first subcategory.
    """
    best_id, best = domain.subcategories[0].identifier, 0.0
    for sub in domain.subcategories:
        total = 0.0
        for name in names:
            total += max(
                linguistic_similarity(name, keyword, lexicon)
                for keyword in sub.keywords
            )
        mean = total / len(names)
        if mean > best:
            best_id, best = sub.identifier, mean
    return best_id


def assign_categories(
    factor_set: IntegratedFactorSet,
    classifications: Sequence[ClassificationResult],
    kb: DomainKnowledgeBase,
    matrix: SimilarityMatrix,
    lexicon: SemanticLexicon,
    related_threshold: float = RELATED_THRESHOLD,
    subcluster_threshold: float = SUBCLUSTER_THRESHOLD,
) -> list[CategoryAssignment]:
    """Assign every factor to one (category, subcategory) pair."""
    all_scores = channel_scores(
        factor_set, classifications, kb, matrix, related_threshold
    )
    categories = [argmax_domain(scores, kb) for scores in all_scores]

    by_category: dict[str, list[int]] = {}
    for index, category in enumerate(categories):
        by_category.setdefault(category, []).append(index)

    subcategories: dict[int, str] = {}
    for category, members in by_category.items():
        domain = kb.by_id(category)
        for cluster in subcluster(members, matrix, subcluster_threshold):
            names = [factor_set.factors[i].canonical_name for i in cluster]
            sub_id = best_subcategory(names, domain, lexicon)
            for i in cluster:
                subcategories[i] = sub_id

    return [
        CategoryAssignment(
            factor=factor_set.factors[index].canonical_name,
            category=categories[index],
            subcategory=subcategories[index],
            scores=all_scores[index],
        )
        for index in range(len(factor_set.factors))
    ]
