"""Tiered multi-placement of cross-cutting factors.

Every flagged factor gets a composite score per relevant domain (mean of
semantic relevance, functional importance, literature support, and space
compatibility). Ranked by composite, the top domain becomes the Primary
placement, the second Secondary, and the rest Tertiary unless their composite
reaches the promotion threshold, which lifts them to Secondary. Non-primary
placements receive cross-reference entries pointing back to the primary home.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

from .classify import ClassificationResult
from .cluster import (
    RELATED_THRESHOLD,
    CategoryAssignment,
    best_subcategory,
    related_factors,
    subcategory_scorer,
)
from .errors import KnowledgeBaseError
from .integrate import IntegratedFactorSet
from .knowledge import Domain, DomainKnowledgeBase
from .similarity import KeywordScorer, SemanticLexicon, SimilarityMatrix

PROMOTION_THRESHOLD = 0.80

COMPOSITE_WEIGHTS = (0.25, 0.25, 0.25, 0.25)


class PlacementTier(Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"
    TERTIARY = "tertiary"


@dataclass(frozen=True)
class CompositeScore:
    semantic_relevance: float
    functional_importance: float
    theoretical_justification: float
    space_compatibility: float

    @property
    def composite(self) -> float:
        parts = (
            self.semantic_relevance,
            self.functional_importance,
            self.theoretical_justification,
            self.space_compatibility,
        )
        return sum(w * p for w, p in zip(COMPOSITE_WEIGHTS, parts))


@dataclass(frozen=True)
class Placement:
    """What the place artifact keeps of a placement, in ranked order; reading
    it rebuilds the tiers, cross-references and argmax flags with ``arrange``."""

    factor: str
    domain: str
    subcategory: str
    composite: float


@dataclass(frozen=True)
class StrategicPlacement(Placement):
    tier: PlacementTier


@dataclass(frozen=True)
class CrossReference:
    factor: str
    from_domain: str
    from_subcategory: str
    to_domain: str
    to_subcategory: str


def composite(
    index: int,
    domain_id: str,
    factor_set: IntegratedFactorSet,
    classification: ClassificationResult,
    kb: DomainKnowledgeBase,
    related: Sequence[tuple[int, float]],
    assignments: Sequence[CategoryAssignment],
) -> CompositeScore:
    """Composite score of one factor against one of its relevant domains.

    ``related`` is the factor's neighbour list from ``related_factors``; the
    space compatibility is the distribution score its assignment holds.
    """
    factor = factor_set.factors[index]
    position = kb.domain_ids().index(domain_id)
    domain = kb.domains[position]

    if related:
        assigned_here = sum(
            1 for j, _ in related if assignments[j].category == domain_id
        )
        functional = assigned_here / len(related)
    else:
        functional = 0.0
    theoretical = domain.literature_level(factor.canonical_name)
    return CompositeScore(
        semantic_relevance=classification.relevance[position],
        functional_importance=functional,
        theoretical_justification=theoretical,
        space_compatibility=assignments[index].scores.distribution[position],
    )


def by_keywords(
    kb: DomainKnowledgeBase, lexicon: SemanticLexicon
) -> Callable[[str, str], str]:
    """(factor, domain id) -> the domain's subcategory whose keywords best
    match the factor's name. Each domain's scorer is built on first use."""
    scorers: dict[str, tuple[Domain, KeywordScorer]] = {}

    def subcategory(factor: str, domain_id: str) -> str:
        if domain_id not in scorers:
            domain = kb.by_id(domain_id)
            scorers[domain_id] = domain, subcategory_scorer(domain, lexicon)
        domain, scorer = scorers[domain_id]
        return best_subcategory([factor], domain, scorer)

    return subcategory


def place(
    factor_name: str,
    ranked: Sequence[tuple[str, float]],
    subcategory: Callable[[str, str], str],
    promotion_threshold: float = PROMOTION_THRESHOLD,
) -> list[StrategicPlacement]:
    """Apply the tier protocol to a composite-ranked domain list.

    ``ranked`` must be sorted best first. Rank 1 is Primary, rank 2 Secondary,
    deeper ranks Tertiary unless their composite reaches the promotion
    threshold. ``subcategory(factor_name, domain_id)`` names each placement's
    subcategory.
    """
    placements = []
    for position, (domain_id, score) in enumerate(ranked):
        if position == 0:
            tier = PlacementTier.PRIMARY
        elif position == 1 or score >= promotion_threshold:
            tier = PlacementTier.SECONDARY
        else:
            tier = PlacementTier.TERTIARY
        placements.append(
            StrategicPlacement(
                factor=factor_name,
                domain=domain_id,
                subcategory=subcategory(factor_name, domain_id),
                composite=score,
                tier=tier,
            )
        )
    return placements


@dataclass(frozen=True)
class PlacementResult:
    placements: tuple[StrategicPlacement, ...]
    cross_references: tuple[CrossReference, ...]
    argmax_flags: Mapping[str, bool]


def place_cross_cutting(
    factor_set: IntegratedFactorSet,
    classifications: Sequence[ClassificationResult],
    kb: DomainKnowledgeBase,
    matrix: SimilarityMatrix,
    assignments: Sequence[CategoryAssignment],
    lexicon: SemanticLexicon,
    related_threshold: float = RELATED_THRESHOLD,
    promotion_threshold: float = PROMOTION_THRESHOLD,
) -> PlacementResult:
    """Composites of every flagged factor in each relevant domain, arranged."""
    composites: dict[tuple[str, str], float] = {}
    for index, result in enumerate(classifications):
        if not result.cross_cutting.flagged:
            continue
        related = related_factors(index, matrix, related_threshold)
        for domain_id in result.cross_cutting.relevant_domains:
            score = composite(
                index, domain_id, factor_set, result, kb, related, assignments
            )
            composites[result.name, domain_id] = score.composite
    return arrange(
        classifications,
        kb,
        lambda name, domain_id: composites[name, domain_id],
        by_keywords(kb, lexicon),
        promotion_threshold,
    )


def arrange(
    classifications: Sequence[ClassificationResult],
    kb: DomainKnowledgeBase,
    composite_of: Callable[[str, str], float],
    subcategory: Callable[[str, str], str],
    promotion_threshold: float = PROMOTION_THRESHOLD,
) -> PlacementResult:
    """Placements of every flagged factor in its relevant domains, given
    each (factor, domain id)'s composite and subcategory: ranked by
    composite, KB order breaking ties and a placement override first, then
    tiered by ``place``; with their cross-references and argmax flags."""
    order = {domain_id: pos for pos, domain_id in enumerate(kb.domain_ids())}
    placements: list[StrategicPlacement] = []
    argmax_flags: dict[str, bool] = {}
    for result in classifications:
        if not result.cross_cutting.flagged:
            continue
        name, relevant = result.name, result.cross_cutting.relevant_domains
        scored = sorted(
            ((domain_id, composite_of(name, domain_id)) for domain_id in relevant),
            key=lambda item: (-item[1], order[item[0]]),
        )
        argmax_domain = scored[0][0]
        override = kb.placement_overrides.get(name)
        if override is not None and override != argmax_domain:
            if override not in relevant:
                raise KnowledgeBaseError(
                    f"placement_overrides.{name}: domain {override!r} is outside "
                    f"the factor's relevant set {list(relevant)}"
                )
            scored.sort(key=lambda item: item[0] != override)  # stable
        ranked = place(name, scored, subcategory, promotion_threshold)
        placements.extend(ranked)
        argmax_flags[name] = ranked[0].domain == argmax_domain
    references = tuple(cross_references(placements))
    return PlacementResult(tuple(placements), references, argmax_flags)


def cross_references(
    placements: Sequence[StrategicPlacement],
) -> list[CrossReference]:
    """One reference per non-primary placement, pointing at the primary node."""
    primaries = {p.factor: p for p in placements if p.tier is PlacementTier.PRIMARY}
    return [
        CrossReference(
            factor=placement.factor,
            from_domain=placement.domain,
            from_subcategory=placement.subcategory,
            to_domain=primaries[placement.factor].domain,
            to_subcategory=primaries[placement.factor].subcategory,
        )
        for placement in placements
        if placement.tier is not PlacementTier.PRIMARY
    ]


def primary_homes(
    assignments: Sequence[CategoryAssignment], placement_result: PlacementResult
) -> dict[str, tuple[str, str]]:
    """Factor -> (category, subcategory) of its one primary home: its primary
    placement if it has one, its assignment otherwise."""
    homes = {a.factor: (a.category, a.subcategory) for a in assignments}
    for p in placement_result.placements:
        if p.tier is PlacementTier.PRIMARY:
            homes[p.factor] = (p.domain, p.subcategory)
    return homes
