"""Framework assembly, validation checks, and the export writers."""

from __future__ import annotations

import copy
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxoforge.classify import FactorClass
from taxoforge.emit import (
    _indented,
    build_framework,
    check_subfactors,
    export_sankey,
    primary_locations,
    render_markdown,
    resolve_identifier,
    validate,
    write_documents,
    write_sankey,
)
from taxoforge.errors import TaxoforgeError


class TestBuildFramework:
    def test_fixture_framework_shape(self, sample_framework, sample_factors):
        framework, _ = sample_framework
        assert framework["metadata"]["unique_factors"] == 11
        locations = primary_locations(framework)
        assert set(locations) == set(sample_factors.names)
        assert all(len(homes) == 1 for homes in locations.values())

    def test_fixture_categories(self, sample_framework):
        framework, _ = sample_framework
        ids = [category["identifier"] for category in framework["categories"]]
        assert {"SAFETY & SECURITY", "COMFORT", "ACCESSIBILITY", "NATURAL ELEMENTS"} <= set(ids)

    def test_category_totals_count_primary_homes(self, sample_framework):
        framework, _ = sample_framework
        for category in framework["categories"]:
            assert category["factor_total"] == sum(
                sub["factor_count"] for sub in category["subcategories"]
            )
            for sub in category["subcategories"]:
                assert sub["factor_count"] == sum(
                    1 for e in sub["entries"] if e["tier"] == "primary"
                )

    def test_metadata_identity(self, sample_framework):
        framework, _ = sample_framework
        meta = framework["metadata"]
        unique, total = meta["unique_factors"], meta["total_original_factors"]
        assert meta["reduction_percentage"] == 100.0 * (1 - unique / total)

    def test_framework_is_its_json_document(self, sample_framework):
        framework, report = sample_framework
        assert list(framework) == ["schema_version", "metadata", "categories"]
        entry = framework["categories"][0]["subcategories"][0]["entries"][0]
        assert list(entry) == [
            "canonical_name",
            "tracking_notation",
            "classification",
            "indicator",
            "tier",
            "placements",
            "reference",
            "insertion_index",
        ]
        assert list(report) == [
            "passed",
            "completeness",
            "hierarchy_integrity",
            "indicator_consistency",
            "paper_discrepancy_notes",
        ]
        for doc in (framework, report):
            assert json.loads(json.dumps(doc)) == doc

    def test_empty_factor_set_rejected(self, default_kb):
        from taxoforge.integrate import IntegratedFactorSet

        empty = IntegratedFactorSet(factors=(), raw_record_count=0)
        with pytest.raises(TaxoforgeError):
            build_framework(empty, [], {}, None, [], default_kb)


def delete_factor(framework: dict, name: str) -> dict:
    """A copy of ``framework`` without any entry of ``name``."""
    broken = copy.deepcopy(framework)
    for category in broken["categories"]:
        for sub in category["subcategories"]:
            sub["entries"] = [
                e for e in sub["entries"] if e["canonical_name"] != name
            ]
    return broken


def duplicate_primary(framework: dict, name: str) -> dict:
    """A copy of ``framework`` whose last subcategory holds a second primary
    entry of ``name``."""
    broken = copy.deepcopy(framework)
    source = None
    for category in broken["categories"]:
        for sub in category["subcategories"]:
            for entry in sub["entries"]:
                if entry["canonical_name"] == name and entry["tier"] == "primary":
                    source = entry
    assert source is not None
    broken["categories"][-1]["subcategories"][-1]["entries"].append(dict(source))
    return broken


class TestValidate:
    def test_fixture_passes_with_notes(self, sample_framework):
        _, report = sample_framework
        assert report["passed"]
        assert len(report["paper_discrepancy_notes"]) == 4
        note_ids = {note["id"] for note in report["paper_discrepancy_notes"]}
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
        assert not report["passed"]
        assert not report["completeness"]["passed"]
        assert "safety" in report["completeness"]["problems"]

    def test_duplicate_primary_fails_integrity(self, sample_framework, sample_factors):
        framework, _ = sample_framework
        broken = duplicate_primary(framework, "safety")
        report = validate(broken, sample_factors)
        assert not report["passed"]
        assert not report["hierarchy_integrity"]["passed"]

    def test_indicator_mismatch_reported(self, sample_framework, sample_factors):
        framework, _ = sample_framework
        patched = copy.deepcopy(framework)
        entry = patched["categories"][0]["subcategories"][0]["entries"][0]
        entry["indicator"] = "Space-specific: P"
        report = validate(patched, sample_factors)
        assert not report["indicator_consistency"]["passed"]


class TestExportDocument:
    def test_markdown_contains_worked_line(self, sample_framework):
        framework, report = sample_framework
        text = render_markdown(framework, report)
        assert "safety [P×1, S×1, U×1, O×1, F×1]" in text
        safety_section = text.split("## SAFETY & SECURITY")[1].split("\n## ")[0]
        assert "safety [P×1, S×1, U×1, O×1, F×1]" in safety_section

    def test_exports_are_deterministic(self, sample_framework, tmp_path):
        framework, report = sample_framework
        envelope = {"schema_version": 1, "phase": "emit"}
        for name in ("1", "2"):
            write_documents(tmp_path / name, envelope, framework, report)
        for path in (tmp_path / "1").iterdir():
            assert path.read_bytes() == (tmp_path / "2" / path.name).read_bytes()

    def test_structured_round_trip(self, sample_framework, tmp_path):
        # Each JSON document is encoded once and spliced; every file must
        # equal its whole document encoded on its own.
        framework, report = sample_framework
        envelope = {"schema_version": 1, "phase": "emit", "config_checksum": "é"}
        write_documents(tmp_path, envelope, framework, report)
        expected = {
            "framework.json": {**envelope, "data": framework},
            "framework_document.json": {**framework, "validation": report},
            "validation.json": report,
        }
        for name, doc in expected.items():
            text = json.dumps(doc, ensure_ascii=False, indent=2) + "\n"
            assert (tmp_path / name).read_text(encoding="utf-8") == text, name
        markdown = (tmp_path / "framework.md").read_text(encoding="utf-8")
        assert markdown == render_markdown(framework, report)

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


def reference_indented(doc) -> str:
    """What ``_indented`` must write: the standard library's encoder."""
    return json.dumps(doc, ensure_ascii=False, indent=2)


EDGE_FLOATS = [-0.0, 0.0, 1e16, 5e-324, 0.1, -1.5e-7, math.nan, math.inf, -math.inf]
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(10**40)])
    | st.floats()
    | st.sampled_from(EDGE_FLOATS)
    | st.text()
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=24,
)


class TestIndentedWriter:
    @settings(deadline=None)
    @given(doc=st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=5))
    @example(doc={})
    @example(doc={"é\"\\\n\x00\x1f\u2028\U0001f600": 'q"uote\t\x7f'})
    @example(doc={"floats": EDGE_FLOATS, "ints": [2**64, -(10**40), 0]})
    @example(doc={"flags": [True, False, None], "empty": [[], {}, ()]})
    @example(doc={"nested": {"a": [{"b": ({"c": []},)}]}})
    def test_writes_what_json_dumps_writes(self, doc):
        assert _indented(doc) == reference_indented(doc)

    @pytest.mark.parametrize(
        "value", [{1, 2}, b"bytes", object(), FactorClass.SPACE_SPECIFIC, {(1, 2): 0}],
        ids=["set", "bytes", "object", "enum", "tuple-key"],
    )
    def test_refuses_what_json_dumps_refuses(self, value):
        with pytest.raises(TypeError):
            reference_indented({"a": [value]})
        with pytest.raises(TypeError):
            _indented({"a": [value]})


class TestSankey:
    def test_full_category_flow(self, sample_framework, sample_factors):
        framework, _ = sample_framework
        nodes, links = export_sankey(framework, sample_factors, "SAFETY & SECURITY")
        assert {layer for _, _, layer in nodes} == {"Subfactor", "Indicator", "SpaceType"}
        node_ids = {node_id for node_id, _, _ in nodes}
        for source, target, weight in links:
            assert source in node_ids and target in node_ids
            assert weight > 0

    def test_weight_conservation(self, sample_framework, sample_factors):
        framework, _ = sample_framework
        category = next(
            c
            for c in framework["categories"]
            if c["identifier"] == "SAFETY & SECURITY"
        )
        homed = {
            e["canonical_name"]
            for sub in category["subcategories"]
            for e in sub["entries"]
            if e["tier"] == "primary"
        }
        expected = sum(
            f.occurrence.total
            for f in sample_factors.factors
            if f.canonical_name in homed
        )
        _, links = export_sankey(framework, sample_factors, "SAFETY & SECURITY")
        into_types = sum(w for _, target, w in links if target.startswith("type:"))
        assert into_types == expected
        out_of_factors = sum(
            w for source, _, w in links if source.startswith("factor:")
        )
        assert out_of_factors == expected

    def test_adjacent_layers_only(self, sample_framework, sample_factors):
        framework, _ = sample_framework
        nodes, links = export_sankey(framework, sample_factors, "COMFORT")
        layer_of = {node_id: layer for node_id, _, layer in nodes}
        for source, target, _ in links:
            pair = (layer_of[source], layer_of[target])
            assert pair in {("Subfactor", "Indicator"), ("Indicator", "SpaceType")}

    def test_subfactor_filter(self, sample_framework, sample_factors):
        framework, _ = sample_framework
        nodes, _ = export_sankey(
            framework, sample_factors, "SAFETY & SECURITY", ["safety"]
        )
        factor_nodes = [node for node in nodes if node[2] == "Subfactor"]
        assert factor_nodes == [("factor:safety", "safety", "Subfactor")]

    def test_empty_filter_result(self, sample_framework, sample_factors):
        framework, _ = sample_framework
        # valid factor, but homed in a different category
        _, links = export_sankey(
            framework, sample_factors, "SAFETY & SECURITY", ["water features"]
        )
        assert links == []

    def test_category_without_primary_entries_is_empty(
        self, sample_framework, sample_factors, tmp_path
    ):
        framework, _ = sample_framework
        # INFRASTRUCTURE holds only stubs; MANAGEMENT is not in the framework.
        for category in ("INFRASTRUCTURE", "MANAGEMENT"):
            nodes, links = export_sankey(framework, sample_factors, category)
            assert nodes == [] and links == []
            write_sankey(nodes, links, tmp_path / "sankey.csv")
            text = "nodes\nid,label,layer\nlinks\nsource,target,weight\n"
            assert (tmp_path / "sankey.csv").read_text(encoding="utf-8") == text

    def test_unknown_category_rejected(self, default_kb):
        with pytest.raises(TaxoforgeError, match="unknown category 'NOPE'"):
            resolve_identifier(default_kb.domain_ids(), "NOPE")

    def test_unknown_subfactor_rejected(self, sample_factors):
        check_subfactors(sample_factors.names, ["safety", "water features"])
        check_subfactors(sample_factors.names, None)
        with pytest.raises(TaxoforgeError, match="unknown subfactor"):
            check_subfactors(sample_factors.names, ["safety", "not-a-factor"])

    def test_identifier_resolution(self):
        ids = ("SAFETY", "SAFETY & SECURITY", "SOCIAL")
        assert resolve_identifier(ids, "SAFETY") == "SAFETY"
        assert resolve_identifier(ids, "safety &") == "SAFETY & SECURITY"
        with pytest.raises(TaxoforgeError, match="'saf' is ambiguous: SAFETY, SAF"):
            resolve_identifier(ids, "saf")
        with pytest.raises(TaxoforgeError, match="unknown category 'X'"):
            resolve_identifier(ids, "X")

    def test_ambiguous_prefix_names_the_count_and_five_ids(self):
        ids = tuple(f"D{i:02d}" for i in range(48))
        with pytest.raises(TaxoforgeError) as refused:
            resolve_identifier(ids, "d")
        assert str(refused.value) == (
            "category 'd' is ambiguous: D00, D01, D02, D03, D04, ... "
            "(48 categories match)"
        )

    def test_render_sections(self, sample_framework, sample_factors, tmp_path):
        framework, _ = sample_framework
        nodes, links = export_sankey(framework, sample_factors, "SAFETY & SECURITY")
        path = tmp_path / "sankey.csv"
        write_sankey(nodes, links, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "nodes"
        assert lines[1] == "id,label,layer"
        split = lines.index("links")
        assert lines[split + 1] == "source,target,weight"
        assert lines[2:split] == [",".join(node) for node in nodes]
        assert lines[split + 2 :] == [f"{s},{t},{w}" for s, t, w in links]
