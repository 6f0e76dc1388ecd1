"""Framework assembly, validation checks, and the export writers."""

from __future__ import annotations

import dataclasses
import json

import pytest

from taxoforge.emit import (
    Framework,
    build_framework,
    export_document,
    export_sankey,
    framework_to_dict,
    render_markdown,
    render_sankey,
    report_to_dict,
    resolve_category,
    resolve_identifier,
    to_canonical_json,
    validate,
)
from taxoforge.errors import TaxoforgeError
from taxoforge.integrate import parse_tracking_notation


class TestBuildFramework:
    def test_fixture_framework_shape(self, sample_framework, sample_factors):
        framework, _ = sample_framework
        assert framework.metadata.unique_factors == 11
        locations = framework.primary_locations()
        assert set(locations) == set(sample_factors.names)
        assert all(len(homes) == 1 for homes in locations.values())

    def test_fixture_categories(self, sample_framework):
        framework, _ = sample_framework
        ids = [category.identifier for category in framework.categories]
        assert {"SAFETY & SECURITY", "COMFORT", "ACCESSIBILITY", "NATURAL ELEMENTS"} <= set(ids)

    def test_category_totals_count_primary_homes(self, sample_framework):
        framework, _ = sample_framework
        for category in framework.categories:
            assert category.factor_total == sum(
                sub.factor_count for sub in category.subcategories
            )
            for sub in category.subcategories:
                assert sub.factor_count == sum(
                    1 for e in sub.entries if e.tier == "primary"
                )

    def test_metadata_identity(self, sample_framework):
        framework, _ = sample_framework
        meta = framework.metadata
        recomputed = 100.0 * (1 - meta.unique_factors / meta.total_original_factors)
        assert meta.reduction_percentage == recomputed

    def test_empty_factor_set_rejected(self, default_kb):
        from taxoforge.integrate import IntegratedFactorSet

        empty = IntegratedFactorSet(factors=(), raw_record_count=0)
        with pytest.raises(TaxoforgeError):
            build_framework(empty, [], [], None, [], default_kb)


def delete_factor(framework: Framework, name: str) -> Framework:
    categories = []
    for category in framework.categories:
        subs = []
        for sub in category.subcategories:
            entries = tuple(
                e for e in sub.entries if e.canonical_name != name
            )
            subs.append(dataclasses.replace(sub, entries=entries))
        categories.append(dataclasses.replace(category, subcategories=tuple(subs)))
    return dataclasses.replace(framework, categories=tuple(categories))


def duplicate_primary(framework: Framework, name: str) -> Framework:
    source = None
    for category in framework.categories:
        for sub in category.subcategories:
            for entry in sub.entries:
                if entry.canonical_name == name and entry.tier == "primary":
                    source = entry
    assert source is not None
    category = framework.categories[-1]
    sub = category.subcategories[-1]
    patched_sub = dataclasses.replace(sub, entries=sub.entries + (source,))
    patched_category = dataclasses.replace(
        category, subcategories=category.subcategories[:-1] + (patched_sub,)
    )
    return dataclasses.replace(
        framework, categories=framework.categories[:-1] + (patched_category,)
    )


class TestValidate:
    def test_fixture_passes_with_notes(self, sample_framework):
        _, report = sample_framework
        assert report.passed
        assert len(report.paper_discrepancy_notes) == 4
        note_ids = {note["id"] for note in report.paper_discrepancy_notes}
        assert note_ids == {
            "pair-count",
            "entropy-row",
            "placement-tier-row",
            "occurrence-pattern-conflict",
        }

    def test_deleted_factor_fails_completeness(self, sample_framework, sample_factors):
        framework, _ = sample_framework
        broken = delete_factor(framework, "safety")
        report = validate(broken, sample_factors)
        assert not report.passed
        assert not report.completeness.passed
        assert "safety" in report.completeness.problems

    def test_duplicate_primary_fails_integrity(self, sample_framework, sample_factors):
        framework, _ = sample_framework
        broken = duplicate_primary(framework, "safety")
        report = validate(broken, sample_factors)
        assert not report.passed
        assert not report.hierarchy_integrity.passed

    def test_indicator_mismatch_reported(self, sample_framework, sample_factors):
        framework, _ = sample_framework
        category = framework.categories[0]
        sub = category.subcategories[0]
        entry = sub.entries[0]
        bad_entry = dataclasses.replace(entry, indicator="Space-specific: P")
        patched = dataclasses.replace(
            framework,
            categories=(
                dataclasses.replace(
                    category,
                    subcategories=(
                        dataclasses.replace(
                            sub, entries=(bad_entry,) + sub.entries[1:]
                        ),
                    )
                    + category.subcategories[1:],
                ),
            )
            + framework.categories[1:],
        )
        report = validate(patched, sample_factors)
        assert not report.indicator_consistency.passed


class TestExportDocument:
    def test_markdown_contains_worked_line(self, sample_framework):
        framework, report = sample_framework
        text = render_markdown(framework, report)
        assert "safety [P×1, S×1, U×1, O×1, F×1]" in text
        safety_section = text.split("## SAFETY & SECURITY")[1].split("\n## ")[0]
        assert "safety [P×1, S×1, U×1, O×1, F×1]" in safety_section

    def test_exports_are_deterministic(self, sample_framework, tmp_path):
        framework, report = sample_framework
        for fmt, name in (("structured", "a.json"), ("markdown", "a.md")):
            first, second = tmp_path / f"1{name}", tmp_path / f"2{name}"
            export_document(framework, report, first, fmt)
            export_document(framework, report, second, fmt)
            assert first.read_bytes() == second.read_bytes()

    def test_structured_round_trip(self, sample_framework, tmp_path):
        framework, report = sample_framework
        path = tmp_path / "framework.json"
        export_document(framework, report, path, "structured")
        doc = json.loads(path.read_text(encoding="utf-8"))
        expected = {**framework_to_dict(framework), "validation": report_to_dict(report)}
        assert doc == json.loads(to_canonical_json(expected))

    def test_stub_entries_render_references(self, sample_framework):
        framework, report = sample_framework
        text = render_markdown(framework, report)
        assert "→ see" in text

    def test_markdown_matches_golden_file(self, sample_framework):
        # Pins the exact rendering, including the verbatim indicator strings.
        from pathlib import Path

        framework, report = sample_framework
        golden = Path(__file__).parent / "golden" / "framework_sample.md"
        assert render_markdown(framework, report) == golden.read_text(
            encoding="utf-8"
        )


class TestSankey:
    def test_full_category_flow(self, sample_framework):
        framework, _ = sample_framework
        export = export_sankey(framework, "SAFETY & SECURITY")
        layers = {node.layer for node in export.nodes}
        assert layers == {"Subfactor", "Indicator", "SpaceType"}
        node_ids = {node.id for node in export.nodes}
        for link in export.links:
            assert link.source in node_ids and link.target in node_ids
            assert link.weight > 0

    def test_weight_conservation(self, sample_framework):
        framework, _ = sample_framework
        category = next(
            c for c in framework.categories if c.identifier == "SAFETY & SECURITY"
        )
        expected = sum(
            parse_tracking_notation(e.tracking_notation).total
            for sub in category.subcategories
            for e in sub.entries
            if e.tier == "primary"
        )
        export = export_sankey(framework, "SAFETY & SECURITY")
        into_types = sum(
            link.weight for link in export.links if link.target.startswith("type:")
        )
        assert into_types == expected
        out_of_factors = sum(
            link.weight for link in export.links if link.source.startswith("factor:")
        )
        assert out_of_factors == expected

    def test_adjacent_layers_only(self, sample_framework):
        framework, _ = sample_framework
        export = export_sankey(framework, "COMFORT")
        layer_of = {node.id: node.layer for node in export.nodes}
        for link in export.links:
            pair = (layer_of[link.source], layer_of[link.target])
            assert pair in {("Subfactor", "Indicator"), ("Indicator", "SpaceType")}

    def test_subfactor_filter(self, sample_framework):
        framework, _ = sample_framework
        export = export_sankey(framework, "SAFETY & SECURITY", ["safety"])
        factor_nodes = [n for n in export.nodes if n.layer == "Subfactor"]
        assert [n.label for n in factor_nodes] == ["safety"]

    def test_empty_filter_result(self, sample_framework):
        framework, _ = sample_framework
        # valid factor, but homed in a different category
        export = export_sankey(framework, "SAFETY & SECURITY", ["water features"])
        assert export.links == ()

    def test_unknown_category_rejected(self, sample_framework):
        framework, _ = sample_framework
        with pytest.raises(TaxoforgeError, match="unknown category"):
            export_sankey(framework, "NOPE")

    def test_unknown_subfactor_rejected(self, sample_framework):
        framework, _ = sample_framework
        with pytest.raises(TaxoforgeError, match="unknown subfactor"):
            export_sankey(framework, "SAFETY & SECURITY", ["not-a-factor"])

    def test_prefix_resolution(self, sample_framework):
        framework, _ = sample_framework
        assert resolve_category(framework, "SAFETY").identifier == "SAFETY & SECURITY"

    def test_identifier_resolution(self):
        ids = ("SAFETY", "SAFETY & SECURITY", "SOCIAL")
        assert resolve_identifier(ids, "SAFETY") == "SAFETY"
        assert resolve_identifier(ids, "safety &") == "SAFETY & SECURITY"
        with pytest.raises(TaxoforgeError, match="'saf' is ambiguous: SAFETY, SAF"):
            resolve_identifier(ids, "saf")
        with pytest.raises(TaxoforgeError, match="unknown category 'X'"):
            resolve_identifier(ids, "X")

    def test_render_sections(self, sample_framework):
        framework, _ = sample_framework
        text = render_sankey(export_sankey(framework, "SAFETY & SECURITY"))
        lines = text.splitlines()
        assert lines[0] == "nodes"
        assert lines[1] == "id,label,layer"
        assert "links" in lines
        link_header = lines[lines.index("links") + 1]
        assert link_header == "source,target,weight"
