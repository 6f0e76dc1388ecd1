"""Final framework assembly, validation, and export writers.

The framework is a three-tier structure: categories hold subcategories, which
hold factor entries. A factor appears exactly once as a primary entry (its
home); cross-cutting factors additionally appear as secondary/tertiary stub
entries that reference the primary node. Exports are deterministic: the same
inputs produce byte-identical JSON, markdown, and flow-data files.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence, TextIO

from .applicability import IndicatorRecord
from .classify import ClassificationResult
from .cluster import CategoryAssignment
from .corpus import SPACE_TYPES, SPACE_TYPE_NAMES
from .errors import ArtifactError, TaxoforgeError
from .integrate import (
    IntegratedFactorSet,
    parse_tracking_notation,
    reduction_rate,
    tracking_notation,
)
from .knowledge import DomainKnowledgeBase
from .placement import PlacementResult, PlacementTier, primary_homes

SCHEMA_VERSION = 1

# Known internal inconsistencies in the source material this pipeline was
# built to reproduce. They are emitted as warnings, never as failures, so the
# outputs stay honest about printed values the computation cannot reproduce.
DISCREPANCY_NOTES: tuple[dict, ...] = (
    {
        "id": "pair-count",
        "note": (
            "Reported unique pair total 529,506 for 1,029 factors conflicts with "
            "n(n-1)/2 = 528,906; the computed value is used."
        ),
    },
    {
        "id": "entropy-row",
        "note": (
            "Reported distribution entropy 1.52 for counts (1,1,1,4,2) conflicts "
            "with the natural-log value 1.427; the computed value is used."
        ),
    },
    {
        "id": "placement-tier-row",
        "note": (
            "A reported rank-3 placement at composite 0.756 is labeled secondary "
            "although the promotion threshold is 0.80; the tier protocol output "
            "(tertiary) is used."
        ),
    },
    {
        "id": "occurrence-pattern-conflict",
        "note": (
            "The thermal comfort occurrence pattern is reported both as "
            "[P, O, U] and [P, O, F] in different source tables; fixtures label "
            "which variant they exercise."
        ),
    },
)


@dataclass(frozen=True)
class FrameworkEntry:
    canonical_name: str
    tracking_notation: str
    classification: str
    indicator: str
    tier: str
    placements: tuple[str, ...] = ()
    reference: str | None = None
    insertion_index: int = 0


@dataclass(frozen=True)
class FrameworkSubcategory:
    identifier: str
    factor_count: int
    entries: tuple[FrameworkEntry, ...]


@dataclass(frozen=True)
class FrameworkCategory:
    identifier: str
    factor_total: int
    subcategories: tuple[FrameworkSubcategory, ...]


@dataclass(frozen=True)
class FrameworkMetadata:
    total_original_factors: int
    unique_factors: int
    reduction_percentage: float
    space_types: tuple[str, ...]
    config_checksums: Mapping[str, str]


@dataclass(frozen=True)
class Framework:
    metadata: FrameworkMetadata
    categories: tuple[FrameworkCategory, ...]

    def primary_locations(self) -> dict[str, list[tuple[str, str]]]:
        """Map factor name to the (category, subcategory) of its primary entries."""
        out: dict[str, list[tuple[str, str]]] = {}
        for category in self.categories:
            for sub in category.subcategories:
                for entry in sub.entries:
                    if entry.tier == "primary":
                        out.setdefault(entry.canonical_name, []).append(
                            (category.identifier, sub.identifier)
                        )
        return out


def build_framework(
    factor_set: IntegratedFactorSet,
    classifications: Sequence[ClassificationResult],
    assignments: Sequence[CategoryAssignment],
    placement_result: PlacementResult,
    indicator_records: Sequence[IndicatorRecord],
    kb: DomainKnowledgeBase,
    config_checksums: Mapping[str, str] | None = None,
) -> Framework:
    """Assemble the three-tier framework from the phase outputs."""
    if not factor_set.factors:
        raise TaxoforgeError("cannot build a framework from an empty factor set")
    homes = primary_homes(assignments, placement_result)
    class_by_name = {c.name: c for c in classifications}
    indicator_by_name = {r.name: r for r in indicator_records}

    placements_by_name: dict[str, list] = {}
    for placement in placement_result.placements:
        placements_by_name.setdefault(placement.factor, []).append(placement)

    # (category, subcategory) -> entries
    buckets: dict[tuple[str, str], list[FrameworkEntry]] = {}
    for factor in factor_set.factors:
        name = factor.canonical_name
        home = homes[name]
        placements = placements_by_name.get(name, ())
        entry = partial(
            FrameworkEntry,
            canonical_name=name,
            tracking_notation=tracking_notation(factor.occurrence),
            classification=class_by_name[name].factor_class.value,
            indicator=indicator_by_name[name].indicator.text,
            insertion_index=factor.insertion_index,
        )
        labels = tuple(
            f"{p.domain}/{p.subcategory} ({p.tier.value})" for p in placements
        )
        buckets.setdefault(home, []).append(entry(tier="primary", placements=labels))
        for p in placements:
            if p.tier is not PlacementTier.PRIMARY:
                buckets.setdefault((p.domain, p.subcategory), []).append(
                    entry(tier=p.tier.value, reference="/".join(home))
                )

    categories = []
    for domain in kb.domains:
        subcategories = []
        primary_total = 0
        for sub in domain.subcategories:
            entries = buckets.get((domain.identifier, sub.identifier))
            if not entries:
                continue
            entries.sort(key=lambda e: e.insertion_index)
            count = sum(1 for e in entries if e.tier == "primary")
            primary_total += count
            subcategories.append(
                FrameworkSubcategory(
                    identifier=sub.identifier,
                    factor_count=count,
                    entries=tuple(entries),
                )
            )
        if subcategories:
            categories.append(
                FrameworkCategory(
                    identifier=domain.identifier,
                    factor_total=primary_total,
                    subcategories=tuple(subcategories),
                )
            )

    raw_total, unique = factor_set.raw_record_count, factor_set.unique_count
    metadata = FrameworkMetadata(
        total_original_factors=raw_total,
        unique_factors=unique,
        reduction_percentage=100.0 * reduction_rate(raw_total, unique),
        space_types=SPACE_TYPES,
        config_checksums=dict(config_checksums or {}),
    )
    return Framework(metadata=metadata, categories=tuple(categories))


@dataclass(frozen=True)
class ValidationCheck:
    passed: bool
    problems: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    completeness: ValidationCheck
    hierarchy_integrity: ValidationCheck
    indicator_consistency: ValidationCheck
    paper_discrepancy_notes: tuple[dict, ...] = field(default=DISCREPANCY_NOTES)

    @property
    def passed(self) -> bool:
        return (
            self.completeness.passed
            and self.hierarchy_integrity.passed
            and self.indicator_consistency.passed
        )


_KIND_BY_CLASS = {
    "Universal": {"Universal – All Space Types", "Universal (with emphasis"},
    "Multi-space": {"Strong:", "Multi-space:"},
    "Space-specific": {"Space-specific:"},
}


def validate(
    framework: Framework, factor_set: IntegratedFactorSet
) -> ValidationReport:
    """Run the completeness, integrity, and indicator-consistency checks.

    Content problems become report entries; this never raises on them.
    """
    locations = framework.primary_locations()

    missing = tuple(name for name in factor_set.names if name not in locations)
    completeness = ValidationCheck(passed=not missing, problems=missing)

    duplicated = tuple(
        f"{name}: {len(homes)} primary homes"
        for name, homes in sorted(locations.items())
        if len(homes) != 1
    )
    stray = tuple(
        f"{name}: not in the integrated set"
        for name in sorted(locations.keys() - set(factor_set.names))
    )
    hierarchy = ValidationCheck(
        passed=not duplicated and not stray, problems=duplicated + stray
    )

    mismatches = []
    for category in framework.categories:
        for sub in category.subcategories:
            for entry in sub.entries:
                expected = _KIND_BY_CLASS.get(entry.classification)
                if expected is None:
                    mismatches.append(
                        f"{entry.canonical_name}: unknown classification "
                        f"{entry.classification!r}"
                    )
                    continue
                if not any(entry.indicator.startswith(prefix) for prefix in expected):
                    mismatches.append(
                        f"{entry.canonical_name}: indicator {entry.indicator!r} "
                        f"inconsistent with class {entry.classification}"
                    )
    indicator_consistency = ValidationCheck(
        passed=not mismatches, problems=tuple(mismatches)
    )

    return ValidationReport(
        completeness=completeness,
        hierarchy_integrity=hierarchy,
        indicator_consistency=indicator_consistency,
    )


def framework_to_dict(framework: Framework) -> dict:
    return {"schema_version": SCHEMA_VERSION, **asdict(framework)}


def report_to_dict(report: ValidationReport) -> dict:
    return {"passed": report.passed, **asdict(report)}


def to_canonical_json(doc: dict) -> str:
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def write_json(path: str | Path, doc: dict) -> None:
    """Write ``doc`` as an export: pretty-printed, byte-stable JSON."""
    text = to_canonical_json(doc)
    write_atomic(path, lambda handle: handle.write(text))


def write_atomic(path: str | Path, write: Callable[[TextIO], object]) -> None:
    """Let ``write`` fill a temp file beside ``path``, then rename it onto
    ``path``, so a failed write leaves the earlier file as it was. An
    ``OSError``, such as a directory on the path that is a file, raises
    ``ArtifactError`` naming ``path``."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with temp.open("w", encoding="utf-8") as handle:
                write(handle)
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ArtifactError(f"cannot write {path}: {exc}") from exc


def export_document(
    framework: Framework,
    report: ValidationReport,
    path: str | Path,
    format: str = "structured",
    framework_dict: dict | None = None,
) -> None:
    """Write the framework document; ``structured`` is JSON, else markdown.
    ``framework_dict`` is ``framework_to_dict(framework)`` where the caller
    has built it already."""
    if format == "structured":
        if framework_dict is None:
            framework_dict = framework_to_dict(framework)
        doc = {**framework_dict, "validation": report_to_dict(report)}
        text = to_canonical_json(doc)
    elif format == "markdown":
        text = render_markdown(framework, report)
    else:
        raise TaxoforgeError(f"unknown document format {format!r}")
    write_atomic(path, lambda handle: handle.write(text))


def render_markdown(framework: Framework, report: ValidationReport) -> str:
    meta = framework.metadata
    lines = [
        "# Public Space Quality Factor Framework",
        "",
        f"- Original factor records: {meta.total_original_factors}",
        f"- Unique factors: {meta.unique_factors}",
        f"- Redundancy reduction: {meta.reduction_percentage:.1f}%",
        f"- Space types: {', '.join(meta.space_types)}",
        "",
    ]
    for category in framework.categories:
        lines.append(f"## {category.identifier} ({category.factor_total} factors)")
        lines.append("")
        for sub in category.subcategories:
            lines.append(f"### {sub.identifier} ({sub.factor_count})")
            lines.append("")
            for entry in sub.entries:
                if entry.reference is not None:
                    lines.append(
                        f"- {entry.canonical_name} ({entry.tier}) → see {entry.reference}"
                    )
                else:
                    lines.append(
                        f"- {entry.canonical_name} {entry.tracking_notation} — "
                        f"{entry.indicator} — {entry.tier}"
                    )
            lines.append("")
    lines.append("## Validation")
    lines.append("")
    lines.append(f"- Overall: {'pass' if report.passed else 'FAIL'}")
    for label, check in (
        ("Completeness", report.completeness),
        ("Hierarchy integrity", report.hierarchy_integrity),
        ("Indicator consistency", report.indicator_consistency),
    ):
        lines.append(f"- {label}: {'pass' if check.passed else 'FAIL'}")
        for problem in check.problems:
            lines.append(f"  - {problem}")
    if report.paper_discrepancy_notes:
        lines.append("")
        lines.append("### Source discrepancy notes")
        lines.append("")
        for note in report.paper_discrepancy_notes:
            lines.append(f"- [{note['id']}] {note['note']}")
    lines.append("")
    return "\n".join(lines)


@dataclass(frozen=True)
class SankeyNode:
    id: str
    label: str
    layer: str  # Subfactor | Indicator | SpaceType


@dataclass(frozen=True)
class SankeyLink:
    source: str
    target: str
    weight: int


@dataclass(frozen=True)
class SankeyExport:
    nodes: tuple[SankeyNode, ...]
    links: tuple[SankeyLink, ...]


def resolve_identifier(identifiers: Sequence[str], wanted: str) -> str:
    """The category id ``wanted`` names among ``identifiers``: an exact match
    first, then a unique case-insensitive prefix."""
    if wanted in identifiers:
        return wanted
    matches = [i for i in identifiers if i.casefold().startswith(wanted.casefold())]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise TaxoforgeError(f"unknown category {wanted!r}")
    raise TaxoforgeError(f"category {wanted!r} is ambiguous: {', '.join(matches)}")


def resolve_category(framework: Framework, wanted: str) -> FrameworkCategory:
    """The framework category ``wanted`` names (see ``resolve_identifier``)."""
    identifiers = [category.identifier for category in framework.categories]
    index = identifiers.index(resolve_identifier(identifiers, wanted))
    return framework.categories[index]


def export_sankey(
    framework: Framework,
    category_id: str,
    subfactors: Sequence[str] | None = None,
) -> SankeyExport:
    """Flow data for one category: factors → subcategories → space types.

    Link weights are occurrence counts, so the per-type inbound totals equal
    the summed occurrence counts of the included primary-home factors.
    """
    category = resolve_category(framework, category_id)
    all_names = {
        entry.canonical_name
        for cat in framework.categories
        for sub in cat.subcategories
        for entry in sub.entries
    }
    selected: set[str] | None = None
    if subfactors is not None:
        selected = set()
        for name in subfactors:
            if name not in all_names:
                raise TaxoforgeError(f"unknown subfactor filter {name!r}")
            selected.add(name)

    nodes: list[SankeyNode] = []
    links: list[SankeyLink] = []
    factor_nodes: list[tuple[int, SankeyNode]] = []
    type_totals = {code: 0 for code in SPACE_TYPES}

    for sub in category.subcategories:
        entries = [
            entry
            for entry in sub.entries
            if entry.tier == "primary"
            and (selected is None or entry.canonical_name in selected)
        ]
        if not entries:
            continue
        sub_id = f"subcat:{sub.identifier}"
        nodes.append(SankeyNode(id=sub_id, label=sub.identifier, layer="Indicator"))
        sub_type_totals = {code: 0 for code in SPACE_TYPES}
        for entry in entries:
            vector = parse_tracking_notation(entry.tracking_notation)
            factor_id = f"factor:{entry.canonical_name}"
            factor_nodes.append(
                (
                    entry.insertion_index,
                    SankeyNode(
                        id=factor_id, label=entry.canonical_name, layer="Subfactor"
                    ),
                )
            )
            links.append(
                SankeyLink(source=factor_id, target=sub_id, weight=vector.total)
            )
            for code, count in zip(SPACE_TYPES, vector.counts):
                sub_type_totals[code] += count
        for code in SPACE_TYPES:
            count = sub_type_totals[code]
            if count > 0:
                links.append(
                    SankeyLink(source=sub_id, target=f"type:{code}", weight=count)
                )
                type_totals[code] += count

    factor_nodes.sort(key=lambda item: item[0])
    ordered_nodes = [node for _, node in factor_nodes] + nodes
    for code in SPACE_TYPES:
        if type_totals[code] > 0:
            ordered_nodes.append(
                SankeyNode(
                    id=f"type:{code}", label=SPACE_TYPE_NAMES[code], layer="SpaceType"
                )
            )
    return SankeyExport(nodes=tuple(ordered_nodes), links=tuple(links))


def render_sankey(export: SankeyExport) -> str:
    """Two-section CSV text: nodes (id,label,layer) then links. A field
    holding a comma, a quote or a line break is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows([["nodes"], ["id", "label", "layer"]])
    writer.writerows([node.id, node.label, node.layer] for node in export.nodes)
    writer.writerows([["links"], ["source", "target", "weight"]])
    writer.writerows([link.source, link.target, link.weight] for link in export.links)
    return out.getvalue()


def write_sankey(export: SankeyExport, path: str | Path) -> None:
    text = render_sankey(export)
    write_atomic(path, lambda handle: handle.write(text))
