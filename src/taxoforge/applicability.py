"""Space-type coverage and graduated applicability indicators.

Universal factors render either "Universal – All Space Types" or, when any
type carries two or more mentions, "Universal (with emphasis: ...)".
Multi-space factors grade every type: active types are Strong, inactive types
Moderate when the factor's primary domain marks the type compatible and
Minimal otherwise; when nothing grades Moderate the indicator compacts to
"Multi-space: ...". Space-specific factors list their active types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .classify import ClassificationResult, FactorClass
from .corpus import SPACE_TYPES
from .errors import TaxoforgeError
from .integrate import IntegratedFactor, OccurrenceVector
from .knowledge import DomainKnowledgeBase

EMPHASIS_MIN_COUNT = 2


def coverage(vector: OccurrenceVector) -> float:
    """Active-type count over six."""
    return len(vector.active_types) / len(SPACE_TYPES)


class IndicatorKind(Enum):
    UNIVERSAL_ALL_TYPES = "UniversalAllTypes"
    UNIVERSAL_WITH_EMPHASIS = "UniversalWithEmphasis"
    MULTI_SPACE = "MultiSpace"
    SPACE_SPECIFIC = "SpaceSpecific"


class TierLevel(Enum):
    STRONG = "Strong"
    MODERATE = "Moderate"
    MINIMAL = "Minimal"


@dataclass(frozen=True)
class ApplicabilityIndicator:
    kind: IndicatorKind
    emphasis: tuple[str, ...] = ()
    tiers: Mapping[str, TierLevel] = field(default_factory=dict)
    types: tuple[str, ...] = ()
    text: str = ""


def _join(codes: Sequence[str]) -> str:
    return ", ".join(codes)


def render_indicator(
    kind: IndicatorKind,
    emphasis: tuple[str, ...],
    tiers: Mapping[str, TierLevel],
    types: tuple[str, ...],
) -> str:
    if kind is IndicatorKind.UNIVERSAL_ALL_TYPES:
        return "Universal – All Space Types"
    if kind is IndicatorKind.UNIVERSAL_WITH_EMPHASIS:
        return f"Universal (with emphasis: {_join(emphasis)})"
    if kind is IndicatorKind.SPACE_SPECIFIC:
        return f"Space-specific: {_join(types)}"
    moderate = [code for code in SPACE_TYPES if tiers.get(code) is TierLevel.MODERATE]
    if not moderate:
        return f"Multi-space: {_join(types)}"
    strong = [code for code in SPACE_TYPES if tiers.get(code) is TierLevel.STRONG]
    minimal = [code for code in SPACE_TYPES if tiers.get(code) is TierLevel.MINIMAL]
    parts = [f"Strong: {_join(strong)}", f"Moderate: {_join(moderate)}"]
    if minimal:
        parts.append(f"Minimal: {_join(minimal)}")
    return " | ".join(parts)


def indicator(
    factor: IntegratedFactor,
    factor_class: FactorClass,
    primary_domain_id: str,
    kb: DomainKnowledgeBase,
) -> ApplicabilityIndicator:
    """Graduated applicability indicator for one factor.

    ``primary_domain_id`` is the factor's effective home: the strategic
    primary placement for cross-cutting factors, the assigned category
    otherwise. Only the Moderate/Minimal grading of inactive types reads the
    knowledge base.
    """
    vector = factor.occurrence
    active = vector.active_types
    if factor_class is FactorClass.UNIVERSAL:
        emphasis = tuple(
            code
            for code, count in zip(SPACE_TYPES, vector.counts)
            if count >= EMPHASIS_MIN_COUNT
        )
        if emphasis:
            kind = IndicatorKind.UNIVERSAL_WITH_EMPHASIS
        else:
            kind = IndicatorKind.UNIVERSAL_ALL_TYPES
        ind = ApplicabilityIndicator(
            kind=kind,
            emphasis=emphasis,
            types=active,
            text=render_indicator(kind, emphasis, {}, active),
        )
        return ind
    if factor_class is FactorClass.SPACE_SPECIFIC:
        kind = IndicatorKind.SPACE_SPECIFIC
        return ApplicabilityIndicator(
            kind=kind, types=active, text=render_indicator(kind, (), {}, active)
        )
    domain = kb.by_id(primary_domain_id)
    tiers: dict[str, TierLevel] = {}
    for code in SPACE_TYPES:
        if code in active:
            tiers[code] = TierLevel.STRONG
        elif code in domain.compatible_types:
            tiers[code] = TierLevel.MODERATE
        else:
            tiers[code] = TierLevel.MINIMAL
    kind = IndicatorKind.MULTI_SPACE
    return ApplicabilityIndicator(
        kind=kind,
        tiers=tiers,
        types=active,
        text=render_indicator(kind, (), tiers, active),
    )


def aggregate_subcategory(
    vectors: Sequence[OccurrenceVector],
) -> tuple[float, ...]:
    """Per-type relevance of a subcategory: summed counts over total mentions."""
    if not vectors:
        raise TaxoforgeError("cannot aggregate an empty subcategory")
    sums = [0] * len(SPACE_TYPES)
    for vector in vectors:
        for i, count in enumerate(vector.counts):
            sums[i] += count
    total = sum(sums)
    if total == 0:
        raise TaxoforgeError("subcategory has no mentions")
    return tuple(value / total for value in sums)


def aggregate_category(
    profiles: Sequence[tuple[float, ...]], weights: Sequence[int]
) -> tuple[float, ...]:
    """Mention-weighted mean of subcategory relevance profiles, one weight
    per profile."""
    total = sum(weights)
    out = [0.0] * len(SPACE_TYPES)
    for profile, weight in zip(profiles, weights):
        for i, value in enumerate(profile):
            out[i] += value * weight / total
    return tuple(out)


@dataclass(frozen=True)
class IndicatorRecord:
    name: str
    coverage: float
    indicator: ApplicabilityIndicator
    effective_domain: str


def indicators_for(
    factors: Sequence[IntegratedFactor],
    classifications: Sequence[ClassificationResult],
    effective_domains: Mapping[str, str],
    kb: DomainKnowledgeBase,
) -> list[IndicatorRecord]:
    records = []
    for factor, result in zip(factors, classifications):
        domain_id = effective_domains[factor.canonical_name]
        records.append(
            IndicatorRecord(
                name=factor.canonical_name,
                coverage=coverage(factor.occurrence),
                indicator=indicator(factor, result.factor_class, domain_id, kb),
                effective_domain=domain_id,
            )
        )
    return records
