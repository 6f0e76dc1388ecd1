"""Domain knowledge base: categories, subcategories, lexicons, space profiles.

The KB drives category assignment, cross-cutting detection, strategic
placement, and applicability grading. It is plain configuration loaded from a
YAML file; the packaged default seeds twelve domains commonly used in public
space research, and users supply richer files to grow the hierarchy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping

from .codec import decode, read_yaml
from .corpus import SPACE_TYPES, NormalizationRuleSet, normalize
from .errors import CorpusError, KnowledgeBaseError


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

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if not 0.0 <= value <= 1.0:  # NaN fails the comparison too
                raise KnowledgeBaseError(
                    f"{name}: expected a number in [0, 1], got {value}"
                )


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


# The KB file as written; ``load_kb`` turns it into the objects above.


@dataclass(frozen=True)
class SubcategoryEntry:
    id: str
    keywords: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.id.strip():
            raise KnowledgeBaseError("id: expected a name, got a blank")
        if not self.keywords:
            raise KnowledgeBaseError("keywords: expected at least one keyword")


@dataclass(frozen=True)
class LiteratureEntry:
    strong: frozenset[str] | None = None
    none: frozenset[str] | None = None


@dataclass(frozen=True)
class DomainEntry(SubcategoryEntry):
    """An id and keywords, checked as a subcategory's are, and the rest."""

    scope: str
    subcategories: tuple[SubcategoryEntry, ...]
    space_profile: Mapping[str, float]
    compatible_types: frozenset[str] | None = None
    literature_support: LiteratureEntry | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.scope.lower() not in {scope.value for scope in DomainScope}:
            raise KnowledgeBaseError(
                f"scope: expected broad, moderate or specialized, got {self.scope!r}"
            )
        ids = [sub.id.strip() for sub in self.subcategories]
        if not ids:
            raise KnowledgeBaseError("subcategories: expected at least one")
        if len(set(ids)) != len(ids):
            raise KnowledgeBaseError("subcategories: duplicate subcategory ids")
        for key in ("space_profile", "compatible_types"):
            if unknown := set(getattr(self, key) or ()) - set(SPACE_TYPES):
                raise KnowledgeBaseError(f"{key}: unknown codes {sorted(unknown)}")
        if any(weight < 0 for weight in self.space_profile.values()):
            raise KnowledgeBaseError("space_profile: a weight is negative")
        squares = sum(x * x for x in map(float, self.space_profile.values()))
        if not 0.0 < squares < math.inf:  # the distribution channel's divisor
            raise KnowledgeBaseError(f"space_profile: the squares of its weights "
                                     f"sum to {squares}, expected above 0 and finite")


@dataclass(frozen=True)
class KbFile:
    domains: tuple[DomainEntry, ...]
    scope_priors: ScopePriors | None = None
    placement_overrides: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        ids = [domain.id.strip() for domain in self.domains]
        if not ids:
            raise KnowledgeBaseError("domains: expected at least one domain")
        if len(set(ids)) != len(ids):
            raise KnowledgeBaseError("domains: duplicate domain ids")
        for factor, domain_id in (self.placement_overrides or {}).items():
            if domain_id not in ids:
                raise KnowledgeBaseError(
                    f"placement_overrides.{factor}: unknown domain {domain_id!r}"
                )


def _keywords(keywords: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(" ".join(keyword.casefold().split()) for keyword in keywords)


def _domain(entry: DomainEntry) -> Domain:
    literature = entry.literature_support or LiteratureEntry()
    return Domain(
        identifier=entry.id.strip(),
        scope=DomainScope(entry.scope.lower()),
        keywords=_keywords(entry.keywords),
        subcategories=tuple(
            Subcategory(sub.id.strip(), _keywords(sub.keywords))
            for sub in entry.subcategories
        ),
        space_profile=tuple(
            float(entry.space_profile.get(code, 0.0)) for code in SPACE_TYPES
        ),
        compatible_types=entry.compatible_types or frozenset(),
        literature_strong=literature.strong or frozenset(),
        literature_none=literature.none or frozenset(),
    )


def load_kb(path: str | Path) -> DomainKnowledgeBase:
    """The KB in the YAML file ``path``, keywords case-folded and
    whitespace-collapsed, ids stripped. A malformed value raises
    ``KnowledgeBaseError`` naming the file and the field, as in ``kb file
    PATH: domains[0].space_profile.P: expected a number, got 'high'``."""
    path = Path(path)
    doc = read_yaml(path, "kb", KnowledgeBaseError)
    kb = decode(KbFile, doc, f"kb file {path}: ", KnowledgeBaseError)
    priors = kb.scope_priors or ScopePriors()
    return DomainKnowledgeBase(
        domains=tuple(_domain(entry) for entry in kb.domains),
        scope_priors=ScopePriors(*(float(x) for x in astuple(priors))),
        placement_overrides=dict(kb.placement_overrides or {}),
    )


def canonical_names(
    kb: DomainKnowledgeBase, rules: NormalizationRuleSet, path: Path
) -> DomainKnowledgeBase:
    """``kb``, read from ``path``, with the factor names of its literature
    support and placement overrides normalized under ``rules``, as the
    corpus names are."""

    def canonical(names, field: str) -> list[str]:
        try:
            return [normalize(name, rules) for name in names]
        except CorpusError as exc:
            raise KnowledgeBaseError(f"kb file {path}: {field}: {exc}") from None

    overrides = kb.placement_overrides
    pairs = set(zip(canonical(overrides, "placement_overrides"), overrides.values()))
    overrides = dict(sorted(pairs))
    if len(overrides) < len(pairs):
        raise KnowledgeBaseError(
            f"kb file {path}: placement_overrides: one factor, two domains"
        )
    domains = []
    for i, domain in enumerate(kb.domains):
        field = f"domains[{i}].literature_support"
        strong = frozenset(canonical(domain.literature_strong, field))
        none = frozenset(canonical(domain.literature_none, field))
        domains.append(replace(domain, literature_strong=strong, literature_none=none))
    return replace(kb, domains=tuple(domains), placement_overrides=overrides)


def default_kb_path() -> Path:
    return Path(str(resources.files("taxoforge").joinpath("data/kb_default.yaml")))


def default_rules_path() -> Path:
    return Path(str(resources.files("taxoforge").joinpath("data/rules_default.yaml")))


def default_lexicon_path() -> Path:
    return Path(str(resources.files("taxoforge").joinpath("data/lexicon_default.yaml")))
