"""Two-level clustering: category assignment, then subcategory formation.

Each factor is scored against every domain on three channels: a scope-prior
weighted lexicon match (0.4), the share of its high-similarity neighbours
whose primary domain is the candidate (0.3), and the cosine between its
occurrence vector and the domain's space profile (0.3). The argmax wins, ties
breaking by KB order. Within a category, single-linkage components over pairs
scoring at or above the subcluster threshold become subcategory clusters.

The lexicon match is classify's relevance row, read from its result. The
space-profile cosine depends only on the occurrence counts, so
``space_fits`` computes it once per distinct count vector. A factor's scores
are one ``ChannelRow``: a tuple per channel in KB order, and their blend. The
artifact keeps only each factor's home (``CategoryHome``): reading it
rebuilds every row with ``channel_scores``, the helper ``assign_categories``
scores with, and refuses a category that is not the rebuilt argmax.

A subcluster's subcategory is the one whose keywords best match its names on
average. ``best_subcategory`` reads each name's row of the domain's
``subcategory_scorer``, a ``KeywordScorer`` over its subcategory keyword
lists, which each call of ``assign_categories`` builds once per category.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul
from typing import Sequence

from .classify import ClassificationResult, FactorClass
from .integrate import IntegratedFactorSet
from .knowledge import Domain, DomainKnowledgeBase, DomainScope, ScopePriors
from .similarity import KeywordScorer, SemanticLexicon, SimilarityMatrix

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
class CategoryHome:
    """What the cluster artifact keeps of an assignment."""

    factor: str
    category: str
    subcategory: str


@dataclass(frozen=True)
class ChannelRow:
    """One factor's channel scores against every domain, in KB order, and
    their blend ``final``."""

    semantic: tuple[float, ...]
    similarity_evidence: tuple[float, ...]
    distribution: tuple[float, ...]
    final: tuple[float, ...]


@dataclass(frozen=True)
class CategoryAssignment(CategoryHome):
    scores: ChannelRow


def space_fits(
    factor_set: IntegratedFactorSet, kb: DomainKnowledgeBase
) -> dict[tuple[int, ...], tuple[float, ...]]:
    """The distribution channel: for each distinct occurrence count vector,
    its cosine with every domain's space profile, in KB order (0.0 when the
    dot product is 0, at most 1.0). Each norm is taken once."""
    profiles = [
        (d.space_profile, math.sqrt(sum(y * y for y in d.space_profile)))
        for d in kb.domains
    ]
    fits: dict[tuple[int, ...], tuple[float, ...]] = {}
    for factor in factor_set.factors:
        counts = factor.occurrence.counts
        if counts in fits:
            continue
        norm = math.sqrt(sum(x * x for x in counts))
        row = []
        for profile, profile_norm in profiles:
            dot = sum(x * y for x, y in zip(counts, profile))
            row.append(min(1.0, dot / (norm * profile_norm)) if dot else 0.0)
        fits[counts] = tuple(row)
    return fits


def channel_scores(
    factor_set: IntegratedFactorSet,
    classifications: Sequence[ClassificationResult],
    kb: DomainKnowledgeBase,
    matrix: SimilarityMatrix,
    related_threshold: float = RELATED_THRESHOLD,
) -> list[ChannelRow]:
    """Every factor's channel row, in factor order."""
    priors = {}
    for factor_class in FactorClass:
        by_scope = domain_priorities(factor_class, kb.scope_priors)
        priors[factor_class] = tuple(by_scope[d.scope] for d in kb.domains)
    position = {domain_id: k for k, domain_id in enumerate(kb.domain_ids())}
    homes = [position.get(c.primary_domain) for c in classifications]
    fits = space_fits(factor_set, kb)
    no_evidence = (0.0,) * len(kb.domains)
    rows = []
    for index, (factor, c) in enumerate(zip(factor_set.factors, classifications)):
        semantic = tuple(map(mul, priors[c.factor_class], c.relevance))
        related = related_factors(index, matrix, related_threshold)
        evidence = no_evidence
        if related:
            counts = [0] * len(kb.domains)
            for j, _score in related:
                if homes[j] is not None:
                    counts[homes[j]] += 1
            evidence = tuple(count / len(related) for count in counts)
        distribution = fits[factor.occurrence.counts]
        final = tuple(
            SEMANTIC_WEIGHT * s + SIMILARITY_WEIGHT * e + DISTRIBUTION_WEIGHT * d
            for s, e, d in zip(semantic, evidence, distribution)
        )
        rows.append(ChannelRow(semantic, evidence, distribution, final))
    return rows


def argmax_domain(row: ChannelRow, domain_ids: Sequence[str]) -> str:
    """The domain with the highest final score; KB order breaks ties."""
    return domain_ids[row.final.index(max(row.final))]


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


def subcategory_scorer(domain: Domain, lexicon: SemanticLexicon) -> KeywordScorer:
    """The scorer over the domain's subcategory keyword lists, in order."""
    return KeywordScorer([sub.keywords for sub in domain.subcategories], lexicon)


def best_subcategory(
    names: Sequence[str], domain: Domain, scorer: KeywordScorer
) -> str:
    """Subcategory with the highest mean keyword match over the given names,
    from the domain's ``subcategory_scorer``; the first strictly highest
    wins. Each mean sums over the names in order, then divides by their
    count. An all-zero match falls back to the domain's first subcategory.
    """
    totals = [0.0] * len(domain.subcategories)
    for name in names:
        totals = list(map(add, totals, scorer.row(name)))
    best_id, best = domain.subcategories[0].identifier, 0.0
    for sub, total in zip(domain.subcategories, totals):
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
    rows = channel_scores(factor_set, classifications, kb, matrix, related_threshold)
    domain_ids = kb.domain_ids()
    categories = [argmax_domain(row, domain_ids) for row in rows]

    by_category: dict[str, list[int]] = {}
    for index, category in enumerate(categories):
        by_category.setdefault(category, []).append(index)

    subcategories: dict[int, str] = {}
    for category, members in by_category.items():
        domain = kb.by_id(category)
        scorer = subcategory_scorer(domain, lexicon)
        for cluster in subcluster(members, matrix, subcluster_threshold):
            names = [factor_set.factors[i].canonical_name for i in cluster]
            sub_id = best_subcategory(names, domain, scorer)
            for i in cluster:
                subcategories[i] = sub_id

    return [
        CategoryAssignment(
            factor=factor_set.factors[index].canonical_name,
            category=categories[index],
            subcategory=subcategories[index],
            scores=rows[index],
        )
        for index in range(len(factor_set.factors))
    ]
