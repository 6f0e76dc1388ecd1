"""Tiered multi-placement of cross-cutting factors.

Every flagged factor gets a composite score per relevant domain (mean of
semantic relevance, functional importance, literature support, and space
compatibility). Ranked by composite, the top domain becomes the Primary
placement, the second Secondary, and the rest Tertiary unless their composite
reaches the promotion threshold, which lifts them to Secondary. Non-primary
placements receive cross-reference entries pointing back to the primary home.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from typing import Mapping, Sequence

from .classify import ClassificationResult
from .cluster import (
    RELATED_THRESHOLD,
    CategoryAssignment,
    best_subcategory,
    related_factors,
)
from .errors import TaxoforgeError
from .integrate import IntegratedFactorSet
from .knowledge import DomainKnowledgeBase
from .similarity import SemanticLexicon, SimilarityMatrix, cosine

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
class StrategicPlacement:
    factor: str
    domain: str
    subcategory: str
    tier: PlacementTier
    composite: float


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

    ``related`` is the factor's neighbour list from ``related_factors``.
    """
    if not classification.cross_cutting.flagged:
        raise TaxoforgeError(
            f"{classification.name!r} is not flagged cross-cutting"
        )
    if domain_id not in classification.cross_cutting.relevant_domains:
        raise TaxoforgeError(
            f"domain {domain_id} is not relevant for {classification.name!r}"
        )
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
    compatibility = cosine(factor.occurrence.counts, domain.space_profile)
    return CompositeScore(
        semantic_relevance=classification.relevance[position],
        functional_importance=functional,
        theoretical_justification=theoretical,
        space_compatibility=compatibility,
    )


def place(
    factor_name: str,
    ranked: Sequence[tuple[str, float]],
    kb: DomainKnowledgeBase,
    lexicon: SemanticLexicon,
    promotion_threshold: float = PROMOTION_THRESHOLD,
) -> list[StrategicPlacement]:
    """Apply the tier protocol to a composite-ranked domain list.

    ``ranked`` must be sorted best first. Rank 1 is Primary, rank 2 Secondary,
    deeper ranks Tertiary unless their composite reaches the promotion
    threshold. Each placement's subcategory is the domain's best keyword match.
    """
    if not ranked:
        raise TaxoforgeError(f"no ranked domains for {factor_name!r}")
    placements = []
    for position, (domain_id, score) in enumerate(ranked):
        if position == 0:
            tier = PlacementTier.PRIMARY
        elif position == 1 or score >= promotion_threshold:
            tier = PlacementTier.SECONDARY
        else:
            tier = PlacementTier.TERTIARY
        subcategory = best_subcategory([factor_name], kb.by_id(domain_id), lexicon)
        placements.append(
            StrategicPlacement(
                factor=factor_name,
                domain=domain_id,
                subcategory=subcategory,
                tier=tier,
                composite=score,
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
    """Run composites, ranking, tiers, and cross-references for all flagged factors."""
    placements: list[StrategicPlacement] = []
    argmax_flags: dict[str, bool] = {}
    for index, result in enumerate(classifications):
        if not result.cross_cutting.flagged:
            continue
        related = related_factors(index, matrix, related_threshold)
        scored = []
        for domain_id in result.cross_cutting.relevant_domains:
            score = composite(
                index, domain_id, factor_set, result, kb, related, assignments
            )
            scored.append((domain_id, score.composite))
        order = {domain_id: pos for pos, domain_id in enumerate(kb.domain_ids())}
        scored.sort(key=lambda item: (-item[1], order[item[0]]))

        argmax_domain = scored[0][0]
        override = kb.placement_overrides.get(result.name)
        if override is not None and override != scored[0][0]:
            if override not in {domain_id for domain_id, _ in scored}:
                raise TaxoforgeError(
                    f"placement override for {result.name!r} names domain "
                    f"{override!r} outside its relevant set"
                )
            scored.sort(
                key=lambda item: (item[0] != override, -item[1], order[item[0]])
            )

        ranked_placements = place(
            result.name, scored, kb, lexicon, promotion_threshold
        )
        placements.extend(ranked_placements)
        argmax_flags[result.name] = ranked_placements[0].domain == argmax_domain

    return PlacementResult(
        placements=tuple(placements),
        cross_references=tuple(cross_references(placements)),
        argmax_flags=argmax_flags,
    )


def cross_references(
    placements: Sequence[StrategicPlacement],
) -> list[CrossReference]:
    """One reference per non-primary placement, pointing at the primary node."""
    primaries = {
        p.factor: p for p in placements if p.tier is PlacementTier.PRIMARY
    }
    refs = []
    for placement in placements:
        if placement.tier is PlacementTier.PRIMARY:
            continue
        primary = primaries.get(placement.factor)
        if primary is None:
            raise TaxoforgeError(
                f"{placement.factor!r} has non-primary placements but no primary"
            )
        refs.append(
            CrossReference(
                factor=placement.factor,
                from_domain=placement.domain,
                from_subcategory=placement.subcategory,
                to_domain=primary.domain,
                to_subcategory=primary.subcategory,
            )
        )
    return refs


@dataclass(frozen=True)
class PlacementMetrics:
    total: int
    cross_cutting_count: int
    average_per_factor: float
    consistency_pct: float


def placement_metrics(result: PlacementResult) -> PlacementMetrics:
    """Totals, the per-factor average, and the primary-at-argmax share."""
    factors = sorted(result.argmax_flags)
    count = len(factors)
    total = len(result.placements)
    average = total / count if count else 0.0
    consistent = sum(1 for name in factors if result.argmax_flags[name])
    consistency = 100.0 * consistent / count if count else 100.0
    return PlacementMetrics(
        total=total,
        cross_cutting_count=count,
        average_per_factor=average,
        consistency_pct=consistency,
    )


def primary_homes(
    results: Sequence[ClassificationResult],
    assignments: Sequence[CategoryAssignment],
    placement_result: PlacementResult,
) -> dict[str, tuple[str, str]]:
    """Factor -> (category, subcategory) of its one primary home: the primary
    placement of a flagged, placed factor, the assigned category otherwise."""
    by_assignment = {a.factor: (a.category, a.subcategory) for a in assignments}
    primaries = {
        p.factor: (p.domain, p.subcategory)
        for p in placement_result.placements
        if p.tier is PlacementTier.PRIMARY
    }
    out = {}
    for result in results:
        if result.cross_cutting.flagged and result.name in primaries:
            out[result.name] = primaries[result.name]
        else:
            out[result.name] = by_assignment[result.name]
    return out


def placements_to_dict(result: PlacementResult) -> dict:
    return {
        "placements": [
            {
                **asdict(p),
                "is_argmax": result.argmax_flags[p.factor]
                if p.tier is PlacementTier.PRIMARY
                else None,
            }
            for p in result.placements
        ],
        "cross_references": [asdict(r) for r in result.cross_references],
        "metrics": asdict(placement_metrics(result)),
    }


def placements_from_dict(doc: dict) -> PlacementResult:
    placements, argmax_flags = [], {}
    for entry in doc["placements"]:
        for key in ("factor", "domain", "subcategory"):
            if not isinstance(entry[key], str):
                raise TaxoforgeError(
                    f"field {key!r} must be a string, got {entry[key]!r}"
                )
        fields = {**entry, "tier": PlacementTier(entry["tier"])}
        is_argmax = fields.pop("is_argmax")
        placements.append(StrategicPlacement(**fields))
        if fields["tier"] is PlacementTier.PRIMARY:
            argmax_flags[entry["factor"]] = bool(is_argmax)
    return PlacementResult(
        placements=tuple(placements),
        cross_references=tuple(CrossReference(**e) for e in doc["cross_references"]),
        argmax_flags=argmax_flags,
    )
