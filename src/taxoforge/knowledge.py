"""Domain knowledge base: categories, subcategories, lexicons, space profiles.

The KB drives category assignment, cross-cutting detection, strategic
placement, and applicability grading. It is plain configuration loaded from a
YAML file; the packaged default seeds twelve domains commonly used in public
space research, and users supply richer files to grow the hierarchy.
"""

from __future__ import annotations

import math
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Literal, Mapping, NamedTuple

from .codec import Text, Unit, decode, listed, located, read_yaml, shown
from .corpus import SPACE_TYPES, NormalizationRuleSet, normalize
from .errors import CorpusError, KnowledgeBaseError


class DomainScope(Enum):
    BROAD = "broad"
    MODERATE = "moderate"
    SPECIALIZED = "specialized"


class Subcategory(NamedTuple):
    identifier: str
    keywords: tuple[str, ...]


class Domain(NamedTuple):
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


class ScopePriors(NamedTuple):
    preferred: Unit = 1.0
    adjacent: Unit = 0.8
    other: Unit = 0.6


class DomainKnowledgeBase(NamedTuple):
    domains: tuple[Domain, ...]
    scope_priors: ScopePriors = ScopePriors()
    placement_overrides: Mapping[str, str] = MappingProxyType({})
    path: Path | None = None  # the file read, named by every refusal of it

    def domain_ids(self) -> tuple[str, ...]:
        return tuple(domain.identifier for domain in self.domains)

    def by_id(self, identifier: str) -> Domain:
        for domain in self.domains:
            if domain.identifier == identifier:
                return domain
        raise KeyError(identifier)


# The KB file as written; ``load_kb`` turns it into the objects above. The
# codec calls a record's ``check``, where it has one, as it reads the record,
# so a malformed value is refused at its path; one built in code is unchecked.


class SubcategoryEntry(NamedTuple):
    id: Text
    keywords: tuple[Text, ...]

    def check(self) -> None:
        if not self.keywords:
            raise KnowledgeBaseError("expected at least one keyword", "keywords")


class LiteratureEntry(NamedTuple):
    strong: frozenset[str] | None = None
    none: frozenset[str] | None = None


class DomainEntry(NamedTuple):
    """An id and keywords, checked as a subcategory's are, and the rest."""

    id: Text
    keywords: tuple[Text, ...]
    scope: str
    subcategories: tuple[SubcategoryEntry, ...]
    space_profile: Mapping[str, float]
    compatible_types: frozenset[str] | None = None
    literature_support: LiteratureEntry | None = None

    def check(self) -> None:
        SubcategoryEntry.check(self)
        if self.scope.lower() not in {scope.value for scope in DomainScope}:
            raise KnowledgeBaseError("expected broad, moderate or specialized, "
                                     f"got {shown(self.scope)}", "scope")
        ids = [sub.id.strip() for sub in self.subcategories]
        if not ids:
            raise KnowledgeBaseError("expected at least one", "subcategories")
        if len(set(ids)) != len(ids):
            raise KnowledgeBaseError("duplicate subcategory ids", "subcategories")
        for key in ("space_profile", "compatible_types"):
            if unknown := set(getattr(self, key) or ()) - set(SPACE_TYPES):
                raise KnowledgeBaseError(f"unknown codes {listed(sorted(unknown))}", key)
        if any(weight < 0 for weight in self.space_profile.values()):
            raise KnowledgeBaseError("a weight is negative", "space_profile")
        squares = sum(x * x for x in self.space_profile.values())
        if not 0.0 < squares < math.inf:  # the distribution channel's divisor
            raise KnowledgeBaseError(f"the squares of its weights sum to {squares}, "
                                     "expected above 0 and finite", "space_profile")


class KbFile(NamedTuple):
    domains: tuple[DomainEntry, ...]
    version: Literal[1] = 1
    scope_priors: ScopePriors | None = None
    placement_overrides: Mapping[str, str] | None = None

    def check(self) -> None:
        ids = [domain.id.strip() for domain in self.domains]
        if not ids:
            raise KnowledgeBaseError("expected at least one domain", "domains")
        if len(set(ids)) != len(ids):
            raise KnowledgeBaseError("duplicate domain ids", "domains")
        for factor, domain_id in (self.placement_overrides or {}).items():
            if domain_id not in ids:
                raise KnowledgeBaseError(f"unknown domain {shown(domain_id)}",
                                         "placement_overrides", factor)


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
        space_profile=tuple(entry.space_profile.get(code, 0.0) for code in SPACE_TYPES),
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
    return DomainKnowledgeBase(
        domains=tuple(_domain(entry) for entry in kb.domains),
        scope_priors=kb.scope_priors or ScopePriors(),
        placement_overrides=dict(kb.placement_overrides or {}),
        path=path,
    )


def canonical_names(
    kb: DomainKnowledgeBase, rules: NormalizationRuleSet
) -> DomainKnowledgeBase:
    """``kb`` with the factor names of its literature support and placement
    overrides normalized under ``rules``, as the corpus names are."""

    def canonical(names, *at: str | int) -> list[str]:
        try:
            return [normalize(name, rules) for name in names]
        except CorpusError as exc:
            raise KnowledgeBaseError(str(exc), *at) from None

    try:
        overrides = kb.placement_overrides
        pairs = set(zip(canonical(overrides, "placement_overrides"), overrides.values()))
        overrides = dict(sorted(pairs))
        if len(overrides) < len(pairs):
            raise KnowledgeBaseError("one factor, two domains", "placement_overrides")
        domains = []
        for i, domain in enumerate(kb.domains):
            at = ("domains", i, "literature_support")
            strong = frozenset(canonical(domain.literature_strong, *at))
            none = frozenset(canonical(domain.literature_none, *at))
            if both := strong & none:
                raise KnowledgeBaseError(f"{shown(min(both))} is listed as both "
                                         "strong and none", *at)
            domains.append(domain._replace(literature_strong=strong, literature_none=none))
    except KnowledgeBaseError as exc:
        raise KnowledgeBaseError(located(f"kb file {kb.path}: ", exc)) from None
    return kb._replace(domains=tuple(domains), placement_overrides=overrides)


_DATA = Path(__file__).parent / "data"  # the packaged files


def default_kb_path() -> Path:
    return _DATA / "kb_default.yaml"


def default_rules_path() -> Path:
    return _DATA / "rules_default.yaml"


def default_lexicon_path() -> Path:
    return _DATA / "lexicon_default.yaml"
