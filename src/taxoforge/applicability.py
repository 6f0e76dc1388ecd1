"""Space-type coverage and graduated applicability indicators.

A factor's indicator is one string, built from its counts and, for a
multi-space factor, its home domain's compatible types. Universal factors
render either "Universal – All Space Types" or, when any type carries two
or more mentions, "Universal (with emphasis: ...)". Multi-space factors
grade every type: active types are Strong, inactive types Moderate when the
factor's primary domain marks the type compatible and Minimal otherwise, as
in "Strong: P, O, F | Moderate: U, G | Minimal: S"; when nothing grades
Moderate the indicator compacts to "Multi-space: ...". Space-specific
factors list their active types.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .classify import ClassificationResult, FactorClass
from .corpus import SPACE_TYPES
from .errors import TaxoforgeError
from .integrate import IntegratedFactor
from .knowledge import DomainKnowledgeBase

EMPHASIS_MIN_COUNT = 2


def coverage(counts: tuple[int, ...]) -> float:
    """Active-type count over six."""
    return sum(count > 0 for count in counts) / len(SPACE_TYPES)


def _join(codes: Sequence[str]) -> str:
    return ", ".join(codes)


def indicator(
    factor: IntegratedFactor,
    factor_class: FactorClass,
    primary_domain_id: str,
    kb: DomainKnowledgeBase,
) -> str:
    """Graduated applicability indicator text for one factor.

    ``primary_domain_id`` is the factor's effective home: the strategic
    primary placement for cross-cutting factors, the assigned category
    otherwise. Only the Moderate/Minimal grading of inactive types reads the
    knowledge base.
    """
    active = [code for code, count in zip(SPACE_TYPES, factor.counts) if count > 0]
    if factor_class is FactorClass.UNIVERSAL:
        emphasis = [
            code
            for code, count in zip(SPACE_TYPES, factor.counts)
            if count >= EMPHASIS_MIN_COUNT
        ]
        if emphasis:
            return f"Universal (with emphasis: {_join(emphasis)})"
        return "Universal – All Space Types"
    if factor_class is FactorClass.SPACE_SPECIFIC:
        return f"Space-specific: {_join(active)}"
    compatible = kb.by_id(primary_domain_id).compatible_types
    inactive = [code for code in SPACE_TYPES if code not in active]
    moderate = [code for code in inactive if code in compatible]
    if not moderate:
        return f"Multi-space: {_join(active)}"
    parts = [f"Strong: {_join(active)}", f"Moderate: {_join(moderate)}"]
    if minimal := [code for code in inactive if code not in compatible]:
        parts.append(f"Minimal: {_join(minimal)}")
    return " | ".join(parts)


def aggregate_subcategory(
    vectors: Sequence[tuple[int, ...]],
) -> tuple[float, ...]:
    """Per-type relevance of a subcategory: its factors' summed counts over
    total mentions."""
    if not vectors:
        raise TaxoforgeError("cannot aggregate an empty subcategory")
    sums = [0] * len(SPACE_TYPES)
    for vector in vectors:
        for i, count in enumerate(vector):
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


def indicators_for(
    factors: Sequence[IntegratedFactor],
    classifications: Sequence[ClassificationResult],
    effective_domains: Mapping[str, str],
    kb: DomainKnowledgeBase,
) -> list[str]:
    """The indicator text of each factor, in factor order."""
    return [
        indicator(f, c.factor_class, effective_domains[f.canonical_name], kb)
        for f, c in zip(factors, classifications)
    ]
