"""Final framework assembly, validation, and export writers.

The framework is a three-tier structure: categories hold subcategories, which
hold factor entries. A factor appears exactly once as a primary entry (its
home); cross-cutting factors additionally appear as secondary/tertiary stub
entries that reference the primary node. ``build_framework`` and
``validate`` return the ``framework.json`` and ``validation.json`` documents
themselves, as plain dicts and lists; the markdown and flow-data writers read
those documents. Exports are deterministic: the same inputs produce
byte-identical JSON, markdown, and flow-data files.
"""

from __future__ import annotations

import csv
import math
import os
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Mapping, Sequence, TextIO

from .classify import ClassificationResult
from .corpus import SPACE_TYPES, SPACE_TYPE_NAMES
from .errors import ArtifactError, TaxoforgeError
from .integrate import IntegratedFactorSet, reduction_rate, tracking_notation
from .knowledge import DomainKnowledgeBase
from .placement import PlacementResult, PlacementTier

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


def primary_locations(framework: dict) -> dict[str, list[tuple[str, str]]]:
    """Map factor name to the (category, subcategory) of its primary entries."""
    out: dict[str, list[tuple[str, str]]] = {}
    for category in framework["categories"]:
        for sub in category["subcategories"]:
            for entry in sub["entries"]:
                if entry["tier"] == "primary":
                    out.setdefault(entry["canonical_name"], []).append(
                        (category["identifier"], sub["identifier"])
                    )
    return out


def build_framework(
    factor_set: IntegratedFactorSet,
    classifications: Sequence[ClassificationResult],
    homes: Mapping[str, tuple[str, str]],
    placement_result: PlacementResult,
    indicators: Sequence[str],
    kb: DomainKnowledgeBase,
    config_checksums: Mapping[str, str] | None = None,
) -> dict:
    """Assemble the three-tier framework from the phase outputs, as the
    framework document; ``homes`` maps each factor to the (category,
    subcategory) of its primary home, as ``placement.primary_homes`` gives
    it, and ``indicators`` holds each factor's indicator text, in factor
    order."""
    if not factor_set.factors:
        raise TaxoforgeError("cannot build a framework from an empty factor set")
    class_by_name = {c.name: c for c in classifications}

    placements_by_name: dict[str, list] = {}
    for placement in placement_result.placements:
        placements_by_name.setdefault(placement.factor, []).append(placement)

    # (category, subcategory) -> entries
    buckets: dict[tuple[str, str], list[dict]] = {}
    for index, factor in enumerate(factor_set.factors):
        name = factor.canonical_name
        home = homes[name]
        placements = placements_by_name.get(name, ())
        labels = [f"{p.domain}/{p.subcategory} ({p.tier.value})" for p in placements]
        primary = {
            "canonical_name": name,
            "tracking_notation": tracking_notation(factor.occurrence),
            "classification": class_by_name[name].factor_class.value,
            "indicator": indicators[index],
            "tier": "primary",
            "placements": labels,
            "reference": None,
            "insertion_index": index,
        }
        buckets.setdefault(home, []).append(primary)
        for p in placements:
            if p.tier is not PlacementTier.PRIMARY:
                # A stub keeps the primary's key order, as the export needs.
                stub = {**primary, "tier": p.tier.value, "placements": []}
                stub["reference"] = "/".join(home)
                buckets.setdefault((p.domain, p.subcategory), []).append(stub)

    categories = []
    for domain in kb.domains:
        subcategories = []
        for sub in domain.subcategories:
            entries = buckets.get((domain.identifier, sub.identifier))
            if not entries:
                continue
            count = sum(1 for e in entries if e["tier"] == "primary")
            subcategories.append(
                {"identifier": sub.identifier, "factor_count": count, "entries": entries}
            )
        if subcategories:
            total = sum(sub["factor_count"] for sub in subcategories)
            categories.append(
                {
                    "identifier": domain.identifier,
                    "factor_total": total,
                    "subcategories": subcategories,
                }
            )

    raw_total, unique = factor_set.raw_record_count, factor_set.unique_count
    return {
        "schema_version": SCHEMA_VERSION,
        "metadata": {
            "total_original_factors": raw_total,
            "unique_factors": unique,
            "reduction_percentage": 100.0 * reduction_rate(raw_total, unique),
            "space_types": list(SPACE_TYPES),
            "config_checksums": dict(config_checksums or {}),
        },
        "categories": categories,
    }


_KIND_BY_CLASS = {
    "Universal": {"Universal – All Space Types", "Universal (with emphasis"},
    "Multi-space": {"Strong:", "Multi-space:"},
    "Space-specific": {"Space-specific:"},
}


def validate(framework: dict, factor_set: IntegratedFactorSet) -> dict:
    """Run the completeness, integrity, and indicator-consistency checks, as
    the validation report document.

    Content problems become report entries; this never raises on them.
    """
    locations = primary_locations(framework)

    missing = [name for name in factor_set.names if name not in locations]
    duplicated = [
        f"{name}: {len(homes)} primary homes"
        for name, homes in sorted(locations.items())
        if len(homes) != 1
    ]
    stray = [
        f"{name}: not in the integrated set"
        for name in sorted(locations.keys() - set(factor_set.names))
    ]

    mismatches = []
    for category in framework["categories"]:
        for sub in category["subcategories"]:
            for entry in sub["entries"]:
                name, kind = entry["canonical_name"], entry["classification"]
                expected = _KIND_BY_CLASS.get(kind)
                if expected is None:
                    mismatches.append(f"{name}: unknown classification {kind!r}")
                    continue
                indicator = entry["indicator"]
                if not any(indicator.startswith(prefix) for prefix in expected):
                    mismatches.append(
                        f"{name}: indicator {indicator!r} "
                        f"inconsistent with class {kind}"
                    )

    checks = {
        "completeness": missing,
        "hierarchy_integrity": duplicated + stray,
        "indicator_consistency": mismatches,
    }
    return {
        "passed": not any(checks.values()),
        **{
            check: {"passed": not problems, "problems": problems}
            for check, problems in checks.items()
        },
        "paper_discrepancy_notes": list(DISCREPANCY_NOTES),
    }


# The files ``write_documents`` writes.
EXPORTS = ("framework.json", "framework_document.json", "framework.md", "validation.json")


def write_documents(out: Path, envelope: dict, framework: dict, report: dict) -> None:
    """Write the exports of ``framework`` and its validation ``report`` into
    ``out``: framework.json (the ``envelope`` keys, then the framework as
    ``data``), framework_document.json (the framework, then the report as
    ``validation``), framework.md and validation.json. Each JSON document is
    encoded once and spliced into every file that holds it."""
    data, validation = _indented(framework), _indented(report)
    _write_with_last(out / "framework.json", _indented(envelope), "data", data)
    document = out / "framework_document.json"
    _write_with_last(document, data, "validation", validation)
    export_document(framework, report, out / "framework.md")
    write_atomic(out / "validation.json", lambda handle: print(validation, file=handle))


def _indented(doc: dict) -> str:
    """``doc`` as ``json.dumps(doc, ensure_ascii=False, indent=2)`` writes
    it, about three times as fast: that call runs the pure-Python encoder."""
    parts: list[str] = []
    _write_json(doc, parts.append, "\n")
    return "".join(parts)


def _write_json(value: object, put: Callable[[str], object], newline: str) -> None:
    """Pass the indented JSON text of ``value`` to ``put`` in pieces;
    ``newline`` is the line break and indent that start each of its lines
    after the first. Strings are encoded by the C ``encode_basestring``,
    numbers by their ``repr``. ``put`` is an argument, not a name that a
    nested function closes over, because a nested function that calls
    itself is a reference cycle, which only the cyclic collector frees. Any
    other value, or a key that is not a string, raises ``TypeError``."""
    kind = type(value)
    if kind is str:
        put(encode_basestring(value))
    elif kind is dict or kind is list or kind is tuple:
        if not value:
            put("{}" if kind is dict else "[]")
            return
        inner = newline + "  "
        separator = ("{" if kind is dict else "[") + inner
        if kind is dict:
            for key, item in value.items():
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                put(f"{separator}{encode_basestring(key)}: ")
                _write_json(item, put, inner)
                separator = "," + inner
        else:
            for item in value:
                put(separator)
                _write_json(item, put, inner)
                separator = "," + inner
        put(newline + ("}" if kind is dict else "]"))
    elif kind is int or kind is float and math.isfinite(value):
        put(repr(value))
    elif kind is float:
        put(_NON_FINITE[str(value)])
    elif value is None or kind is bool:
        put("null" if value is None else "true" if value else "false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# The text ``json`` writes for each float that is not finite, by ``str``.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_with_last(path: Path, text: str, key: str, value: str) -> None:
    """Write ``text``, an object of at least one key as ``_indented`` writes
    it, with ``key`` added last holding ``value``, written the same way. JSON
    strings hold no raw newline, so indenting each line of ``value`` by two
    spaces nests it exactly as encoding the whole object would."""
    parts = (text[:-2], f",\n  {encode_basestring(key)}: ", value.replace("\n", "\n  "))
    write_atomic(path, lambda handle: handle.writelines((*parts, "\n}\n")))


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


def export_document(framework: dict, report: dict, path: str | Path) -> None:
    """Write the framework document as markdown."""
    text = render_markdown(framework, report)
    write_atomic(path, lambda handle: handle.write(text))


def render_markdown(framework: dict, report: dict) -> str:
    meta = framework["metadata"]
    lines = [
        "# Public Space Quality Factor Framework",
        "",
        f"- Original factor records: {meta['total_original_factors']}",
        f"- Unique factors: {meta['unique_factors']}",
        f"- Redundancy reduction: {meta['reduction_percentage']:.1f}%",
        f"- Space types: {', '.join(meta['space_types'])}",
        "",
    ]
    for category in framework["categories"]:
        lines.append(
            f"## {category['identifier']} ({category['factor_total']} factors)"
        )
        lines.append("")
        for sub in category["subcategories"]:
            lines.append(f"### {sub['identifier']} ({sub['factor_count']})")
            lines.append("")
            for entry in sub["entries"]:
                if entry["reference"] is not None:
                    lines.append(
                        f"- {entry['canonical_name']} ({entry['tier']}) → see "
                        f"{entry['reference']}"
                    )
                else:
                    lines.append(
                        f"- {entry['canonical_name']} {entry['tracking_notation']} — "
                        f"{entry['indicator']} — {entry['tier']}"
                    )
            lines.append("")
    lines.append("## Validation")
    lines.append("")
    lines.append(f"- Overall: {'pass' if report['passed'] else 'FAIL'}")
    for label, check in (
        ("Completeness", report["completeness"]),
        ("Hierarchy integrity", report["hierarchy_integrity"]),
        ("Indicator consistency", report["indicator_consistency"]),
    ):
        lines.append(f"- {label}: {'pass' if check['passed'] else 'FAIL'}")
        for problem in check["problems"]:
            lines.append(f"  - {problem}")
    if report["paper_discrepancy_notes"]:
        lines.append("")
        lines.append("### Source discrepancy notes")
        lines.append("")
        for note in report["paper_discrepancy_notes"]:
            lines.append(f"- [{note['id']}] {note['note']}")
    lines.append("")
    return "\n".join(lines)


# Category ids quoted when a prefix names several; the count is always given.
AMBIGUOUS_SHOWN = 5


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
    shown = ", ".join(matches[:AMBIGUOUS_SHOWN])
    more = ", ..." if len(matches) > AMBIGUOUS_SHOWN else ""
    raise TaxoforgeError(f"category {wanted!r} is ambiguous: {shown}{more} "
                         f"({len(matches)} categories match)")


def check_subfactors(names: Sequence[str], wanted: Sequence[str] | None) -> None:
    """Refuse a Sankey filter naming a factor not among ``names``."""
    for name in wanted or ():
        if name not in names:
            raise TaxoforgeError(f"unknown subfactor filter {name!r}")


def export_sankey(
    framework: dict,
    factor_set: IntegratedFactorSet,
    category_id: str,
    subfactors: Sequence[str] | None = None,
) -> tuple[list[tuple[str, str, str]], list[tuple[str, str, int]]]:
    """Flow data for the category ``category_id``: factors → subcategories →
    space types, over the primary entries ``subfactors`` names, or all.

    Returns the node rows ``(id, label, layer)`` and the link rows
    ``(source, target, weight)``. Link weights are the factors' occurrence
    counts, so the per-type inbound totals equal the summed counts of the
    included primary-home factors. A category without framework entries has
    no nodes and no links.
    """
    occurrence = {f.canonical_name: f.occurrence for f in factor_set.factors}
    categories = [c for c in framework["categories"] if c["identifier"] == category_id]
    subcategories = categories[0]["subcategories"] if categories else ()
    nodes: list[tuple[str, str, str]] = []
    links: list[tuple[str, str, int]] = []
    factor_nodes: list[tuple[int, tuple[str, str, str]]] = []
    type_totals = {code: 0 for code in SPACE_TYPES}

    for sub in subcategories:
        entries = [
            entry
            for entry in sub["entries"]
            if entry["tier"] == "primary"
            and (subfactors is None or entry["canonical_name"] in subfactors)
        ]
        if not entries:
            continue
        sub_id = f"subcat:{sub['identifier']}"
        nodes.append((sub_id, sub["identifier"], "Indicator"))
        sub_type_totals = {code: 0 for code in SPACE_TYPES}
        for entry in entries:
            name = entry["canonical_name"]
            vector = occurrence[name]
            factor_id = f"factor:{name}"
            factor_nodes.append(
                (entry["insertion_index"], (factor_id, name, "Subfactor"))
            )
            links.append((factor_id, sub_id, vector.total))
            for code, count in zip(SPACE_TYPES, vector.counts):
                sub_type_totals[code] += count
        for code in SPACE_TYPES:
            count = sub_type_totals[code]
            if count > 0:
                links.append((sub_id, f"type:{code}", count))
                type_totals[code] += count

    factor_nodes.sort(key=lambda item: item[0])
    ordered_nodes = [node for _, node in factor_nodes] + nodes
    for code in SPACE_TYPES:
        if type_totals[code] > 0:
            ordered_nodes.append((f"type:{code}", SPACE_TYPE_NAMES[code], "SpaceType"))
    return ordered_nodes, links


def write_sankey(
    nodes: Sequence[tuple[str, str, str]],
    links: Sequence[tuple[str, str, int]],
    path: str | Path,
) -> None:
    """Write two-section CSV: nodes (id,label,layer) then links. A field
    holding a comma, a quote or a line break is quoted."""

    def write(handle: TextIO) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerows([["nodes"], ["id", "label", "layer"]])
        writer.writerows(nodes)
        writer.writerows([["links"], ["source", "target", "weight"]])
        writer.writerows(links)

    write_atomic(path, write)
