"""Domain knowledge base: categories, subcategories, lexicons, space profiles.

The KB drives category assignment, cross-cutting detection, strategic
placement, and applicability grading. It is plain configuration loaded from a
YAML file; the packaged default seeds twelve domains commonly used in public
space research, and users supply richer files to grow the hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping

import yaml

from .corpus import SPACE_TYPES
from .errors import KnowledgeBaseError, require_number


class DomainScope(Enum):
    BROAD = "broad"
    MODERATE = "moderate"
    SPECIALIZED = "specialized"


@dataclass(frozen=True)
class Subcategory:
    identifier: str
    keywords: tuple[str, ...]


@dataclass(frozen=True)
class Domain:
    identifier: str
    scope: DomainScope
    keywords: tuple[str, ...]
    subcategories: tuple[Subcategory, ...]
    space_profile: tuple[float, ...]
    compatible_types: frozenset[str]
    literature_strong: frozenset[str] = frozenset()
    literature_none: frozenset[str] = frozenset()

    def subcategory_ids(self) -> tuple[str, ...]:
        return tuple(sub.identifier for sub in self.subcategories)

    def literature_level(self, factor_name: str) -> float:
        """Literature-support weight for a factor: 1.0, 0.5, or 0.0.

        Factors absent from both lists default to partial support (0.5).
        """
        if factor_name in self.literature_strong:
            return 1.0
        if factor_name in self.literature_none:
            return 0.0
        return 0.5


@dataclass(frozen=True)
class ScopePriors:
    preferred: float = 1.0
    adjacent: float = 0.8
    other: float = 0.6


@dataclass(frozen=True)
class DomainKnowledgeBase:
    domains: tuple[Domain, ...]
    scope_priors: ScopePriors = ScopePriors()
    placement_overrides: Mapping[str, str] = field(default_factory=dict)

    def domain_ids(self) -> tuple[str, ...]:
        return tuple(domain.identifier for domain in self.domains)

    def by_id(self, identifier: str) -> Domain:
        for domain in self.domains:
            if domain.identifier == identifier:
                return domain
        raise KeyError(identifier)


def _parse_subcategory(doc: dict, domain_id: str) -> Subcategory:
    identifier = str(doc.get("id", "")).strip()
    if not identifier:
        raise KnowledgeBaseError(f"domain {domain_id}: subcategory without an id")
    keywords = doc.get("keywords") or []
    if not isinstance(keywords, list) or not keywords:
        raise KnowledgeBaseError(
            f"domain {domain_id}: subcategory {identifier} needs at least one keyword"
        )
    return Subcategory(
        identifier=identifier,
        keywords=tuple(" ".join(str(k).casefold().split()) for k in keywords),
    )


def _list(doc: dict, key: str, where: str) -> list:
    value = doc.get(key) or []
    if not isinstance(value, list):
        raise KnowledgeBaseError(f"{where}: {key} must be a list, got {value!r}")
    return value


def _parse_domain(doc: dict) -> Domain:
    identifier = str(doc.get("id", "")).strip()
    if not identifier:
        raise KnowledgeBaseError("domain entry without an id")
    try:
        scope = DomainScope(str(doc.get("scope", "")).lower())
    except ValueError:
        raise KnowledgeBaseError(
            f"domain {identifier}: scope must be broad, moderate, or specialized"
        ) from None
    keywords = doc.get("keywords") or []
    if not isinstance(keywords, list) or not keywords:
        raise KnowledgeBaseError(f"domain {identifier} needs at least one keyword")
    subs = doc.get("subcategories") or []
    if not isinstance(subs, list) or not subs:
        raise KnowledgeBaseError(f"domain {identifier} needs at least one subcategory")
    profile_doc = doc.get("space_profile")
    if not isinstance(profile_doc, dict):
        raise KnowledgeBaseError(f"domain {identifier} needs a space_profile mapping")
    profile = []
    for code in SPACE_TYPES:
        value = require_number(
            profile_doc.get(code, 0.0),
            f"domain {identifier}: space_profile[{code}]",
            KnowledgeBaseError,
        )
        if value < 0:
            raise KnowledgeBaseError(
                f"domain {identifier}: space_profile[{code}] must be non-negative"
            )
        profile.append(value)
    if not any(profile):
        raise KnowledgeBaseError(f"domain {identifier}: space_profile is all zero")
    compatible = _list(doc, "compatible_types", f"domain {identifier}")
    for code in compatible:
        if code not in SPACE_TYPES:
            raise KnowledgeBaseError(
                f"domain {identifier}: unknown compatible type {code!r}"
            )
    literature = f"domain {identifier}: literature_support"
    support = doc.get("literature_support") or {}
    if not isinstance(support, dict):
        raise KnowledgeBaseError(f"{literature} must be a mapping, got {support!r}")
    subcategories = tuple(_parse_subcategory(sub, identifier) for sub in subs)
    sub_ids = [sub.identifier for sub in subcategories]
    if len(set(sub_ids)) != len(sub_ids):
        raise KnowledgeBaseError(f"domain {identifier}: duplicate subcategory ids")
    return Domain(
        identifier=identifier,
        scope=scope,
        keywords=tuple(" ".join(str(k).casefold().split()) for k in keywords),
        subcategories=subcategories,
        space_profile=tuple(profile),
        compatible_types=frozenset(compatible),
        literature_strong=frozenset(_list(support, "strong", literature)),
        literature_none=frozenset(_list(support, "none", literature)),
    )


def load_kb(path: str | Path) -> DomainKnowledgeBase:
    path = Path(path)
    if not path.exists():
        raise KnowledgeBaseError(f"kb path not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise KnowledgeBaseError(f"cannot parse kb file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise KnowledgeBaseError(f"kb file {path} must be a mapping")
    domains_doc = doc.get("domains") or []
    if not isinstance(domains_doc, list) or not domains_doc:
        raise KnowledgeBaseError(f"kb file {path} declares no domains")
    domains = tuple(_parse_domain(entry) for entry in domains_doc)
    ids = [domain.identifier for domain in domains]
    if len(set(ids)) != len(ids):
        raise KnowledgeBaseError("duplicate domain ids in kb")

    priors_doc = doc.get("scope_priors") or {}
    if not isinstance(priors_doc, dict):
        raise KnowledgeBaseError("kb section 'scope_priors' must be a mapping")
    priors = ScopePriors(
        **{
            f.name: require_number(
                priors_doc.get(f.name, f.default),
                f"kb scope_priors.{f.name}",
                KnowledgeBaseError,
            )
            for f in fields(ScopePriors)
        }
    )

    overrides_doc = doc.get("placement_overrides") or {}
    if not isinstance(overrides_doc, dict):
        raise KnowledgeBaseError("kb section 'placement_overrides' must be a mapping")
    overrides = {}
    for factor, domain_id in overrides_doc.items():
        if domain_id not in ids:
            raise KnowledgeBaseError(
                f"placement override for {factor!r} names unknown domain {domain_id!r}"
            )
        overrides[str(factor)] = str(domain_id)

    return DomainKnowledgeBase(
        domains=domains,
        scope_priors=priors,
        placement_overrides=overrides,
    )


def default_kb_path() -> Path:
    return Path(str(resources.files("taxoforge").joinpath("data/kb_default.yaml")))


def default_rules_path() -> Path:
    return Path(str(resources.files("taxoforge").joinpath("data/rules_default.yaml")))


def default_lexicon_path() -> Path:
    return Path(str(resources.files("taxoforge").joinpath("data/lexicon_default.yaml")))
