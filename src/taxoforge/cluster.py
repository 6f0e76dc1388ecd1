"""Two-level clustering: category assignment, then subcategory formation.

Each factor is scored against every domain on three channels: a scope-prior
weighted lexicon match (0.4), the share of its high-similarity neighbours
whose primary domain is the candidate (0.3), and the cosine between its
occurrence vector and the domain's space profile (0.3). The argmax wins, ties
breaking by KB order. Within a category, single-linkage components over pairs
scoring at or above the subcluster threshold become subcategory clusters.

The lexicon match is classify's relevance row, read from its result. The
space-profile cosine depends only on the occurrence counts, so
``space_fits`` computes it once per distinct count vector, and the run state
once per invocation for cluster and place alike. A factor's scores
are one ``ChannelRow``: a tuple per channel in KB order, and their blend,
which only the CSV report reads. The result is each factor's home
(``CategoryHome``), all the artifact keeps: reading it rebuilds every row
with ``channel_scores`` and refuses a category that is not the rebuilt argmax.

A subcluster's subcategory is the one whose keywords best match its names on
average. ``subcategory_chooser``, which place calls too, builds each domain's
``KeywordScorer`` over its subcategory keyword lists once, and
``best_subcategory`` reads each name's row of it.
"""

from __future__ import annotations

import math
from operator import add, mul
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .classify import ClassificationResult, FactorClass
from .integrate import IntegratedFactorSet
from .knowledge import Domain, DomainKnowledgeBase, DomainScope, ScopePriors
from .similarity import KeywordScorer, Neighbours, SemanticLexicon

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
    index: int, neighbours: Neighbours, threshold: float = RELATED_THRESHOLD
) -> list[tuple[int, float]]:
    """The factor's neighbours scoring strictly above the threshold, in list
    order; the graph's floor must not exceed the threshold."""
    return [(j, score) for j, score in neighbours[index] if score > threshold]


class CategoryHome(NamedTuple):
    """A factor's cluster home: the phase's result and what its artifact keeps."""

    factor: str
    category: str
    subcategory: str


class ChannelRow(NamedTuple):
    """One factor's channel scores against every domain, in KB order, and
    their blend ``final``."""

    semantic: tuple[float, ...]
    similarity_evidence: tuple[float, ...]
    distribution: tuple[float, ...]
    final: tuple[float, ...]


def fold_sum(values: Iterable[float]) -> float:
    """``values`` added left to right. Since Python 3.12, ``sum()`` of floats
    compensates for rounding, so its last bit, and with it a placement's
    composite, would differ between interpreters."""
    total = 0.0
    for value in values:
        total += value
    return total


def space_fits(
    factor_set: IntegratedFactorSet, kb: DomainKnowledgeBase
) -> dict[tuple[int, ...], tuple[float, ...]]:
    """The distribution channel: for each distinct occurrence count vector,
    its cosine with every domain's space profile, in KB order (0.0 when the
    dot product is 0, at most 1.0). Each norm is taken once."""
    profiles = [
        (d.space_profile, math.sqrt(fold_sum(y * y for y in d.space_profile)))
        for d in kb.domains
    ]
    fits: dict[tuple[int, ...], tuple[float, ...]] = {}
    for factor in factor_set.factors:
        counts = factor.counts
        if counts in fits:
            continue
        norm = math.sqrt(sum(x * x for x in counts))
        row = []
        for profile, profile_norm in profiles:
            dot = fold_sum(map(mul, counts, profile))
            row.append(min(1.0, dot / (norm * profile_norm)) if dot else 0.0)
        fits[counts] = tuple(row)
    return fits


def channel_scores(
    factor_set: IntegratedFactorSet,
    classifications: Sequence[ClassificationResult],
    kb: DomainKnowledgeBase,
    neighbours: Neighbours,
    fits: Mapping[tuple[int, ...], tuple[float, ...]],
    related_threshold: float = RELATED_THRESHOLD,
) -> list[ChannelRow]:
    """Every factor's channel row, in factor order; ``fits`` is
    ``space_fits`` of the factor set, the distribution channel."""
    priors = {}
    for factor_class in FactorClass:
        by_scope = domain_priorities(factor_class, kb.scope_priors)
        priors[factor_class] = tuple(by_scope[d.scope] for d in kb.domains)
    position = {domain_id: k for k, domain_id in enumerate(kb.domain_ids())}
    homes = [position.get(c.primary_domain) for c in classifications]
    no_evidence = (0.0,) * len(kb.domains)
    rows = []
    for index, (factor, c) in enumerate(zip(factor_set.factors, classifications)):
        semantic = tuple(map(mul, priors[c.factor_class], c.relevance))
        related = related_factors(index, neighbours, related_threshold)
        evidence = no_evidence
        if related:
            counts = [0] * len(kb.domains)
            for j, _score in related:
                if homes[j] is not None:
                    counts[homes[j]] += 1
            evidence = tuple(count / len(related) for count in counts)
        distribution = fits[factor.counts]
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
    neighbours: Neighbours,
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
        for j, score in neighbours[i]:
            if j > i and j in parent and score >= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[int]] = {}
    for i in members:
        groups.setdefault(find(i), []).append(i)
    return [sorted(groups[root]) for root in sorted(groups)]


def best_subcategory(
    names: Sequence[str], domain: Domain, scorer: KeywordScorer
) -> str:
    """Subcategory with the highest mean keyword match over the given names,
    from ``scorer`` over the domain's subcategory keyword lists; the first
    strictly highest wins. Each mean sums over the names in order, then
    divides by their count. An all-zero match falls back to the domain's
    first subcategory.
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


def subcategory_chooser(
    kb: DomainKnowledgeBase, lexicon: SemanticLexicon
) -> Callable[[Sequence[str], str], str]:
    """(names, domain id) -> the domain's ``best_subcategory`` for the names.
    Each domain's scorer over its subcategory keyword lists, in order, is
    built on first use. ``best_subcategory`` is called by its module-level
    name, so that a wrapper set on that name sees each call."""
    scorers: dict[str, tuple[Domain, KeywordScorer]] = {}

    def choose(names: Sequence[str], domain_id: str) -> str:
        if domain_id not in scorers:
            domain = kb.by_id(domain_id)
            groups = [sub.keywords for sub in domain.subcategories]
            scorers[domain_id] = domain, KeywordScorer(groups, lexicon)
        return best_subcategory(names, *scorers[domain_id])

    return choose


def assign_categories(
    factor_set: IntegratedFactorSet,
    classifications: Sequence[ClassificationResult],
    kb: DomainKnowledgeBase,
    neighbours: Neighbours,
    fits: Mapping[tuple[int, ...], tuple[float, ...]],
    choose: Callable[[Sequence[str], str], str],
    related_threshold: float = RELATED_THRESHOLD,
    subcluster_threshold: float = SUBCLUSTER_THRESHOLD,
) -> tuple[list[CategoryHome], list[ChannelRow]]:
    """Every factor's one (category, subcategory) home, its subcategory
    given by ``choose``, and its channel row; both in factor order."""
    rows = channel_scores(
        factor_set, classifications, kb, neighbours, fits, related_threshold
    )
    domain_ids = kb.domain_ids()
    categories = [argmax_domain(row, domain_ids) for row in rows]

    by_category: dict[str, list[int]] = {}
    for index, category in enumerate(categories):
        by_category.setdefault(category, []).append(index)

    subcategories: dict[int, str] = {}
    for category, members in by_category.items():
        for cluster in subcluster(members, neighbours, subcluster_threshold):
            names = [factor_set.factors[i].canonical_name for i in cluster]
            sub_id = choose(names, category)
            for i in cluster:
                subcategories[i] = sub_id

    homes = [
        CategoryHome(factor.canonical_name, categories[index], subcategories[index])
        for index, factor in enumerate(factor_set.factors)
    ]
    return homes, rows
