"""Dataset loading and normalization rules."""

from __future__ import annotations

import pytest

from taxoforge.corpus import (
    NormalizationRuleSet,
    load_corpus,
    load_rules,
    normalize,
)
from taxoforge.errors import CorpusError, RuleSetError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_two_rows(self, tmp_path):
        path = write(
            tmp_path,
            "mini.csv",
            "raw_name,study_id,space_type\nsafety,c1,P\nsafety,c2,S\n",
        )
        corpus = load_corpus(path)
        assert len(corpus.records) == 2
        assert [r.space_type for r in corpus.records] == ["P", "S"]
        assert corpus.records[0].raw_name == "safety"

    def test_unknown_space_type(self, tmp_path):
        path = write(
            tmp_path, "bad.csv", "raw_name,study_id,space_type\nsafety,c1,X\n"
        )
        with pytest.raises(CorpusError, match="unknown space type"):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_corpus(tmp_path / "nope.csv")

    def test_malformed_row_reports_position(self, tmp_path):
        path = write(
            tmp_path,
            "bad.csv",
            "raw_name,study_id,space_type\nsafety,c1,P\nonly-two-fields,c2\n",
        )
        with pytest.raises(CorpusError, match="row 3"):
            load_corpus(path)

    def test_blank_rows_skipped_and_rows_keep_their_numbers(self, tmp_path):
        blanks = ",,\n , , \n,\n\n   \n"  # rows 3-7: three, two, none, one cell
        text = "raw_name,study_id,space_type\nsafety,c1,P\n" + blanks
        path = write(tmp_path, "blank.csv", text + "lighting,c2,S\n")
        corpus = load_corpus(path)
        assert [r.raw_name for r in corpus.records] == ["safety", "lighting"]
        path = write(tmp_path, "bad.csv", text + "lighting,,S\n")
        with pytest.raises(CorpusError, match="row 8: empty study_id"):
            load_corpus(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "bad.csv", "name,study,code\nsafety,c1,P\n")
        with pytest.raises(CorpusError, match="bad header"):
            load_corpus(path)

    def test_quoted_commas(self, tmp_path):
        path = write(
            tmp_path,
            "quoted.csv",
            'raw_name,study_id,space_type\n"comfort, thermal",c1,P\n',
        )
        corpus = load_corpus(path)
        assert corpus.records[0].raw_name == "comfort, thermal"

    def test_fixture_loads(self, sample_corpus):
        # Expansion of the worked integration example: every occurrence in the
        # final tracking column is one record.
        assert len(sample_corpus.records) == 35

    def test_expected_type_mismatch(self, tmp_path):
        path = write(
            tmp_path, "p.csv", "raw_name,study_id,space_type\nsafety,c1,S\n"
        )
        with pytest.raises(CorpusError, match="declared typology"):
            load_corpus(path, expect_type="P")


class TestLoadRules:
    def test_valid_rules(self, tmp_path):
        path = write(
            tmp_path,
            "rules.yaml",
            "synonyms:\n  access: accessibility\n"
            "preserve_distinct:\n  - street travel safety\n",
        )
        rules = load_rules(path)
        assert rules.synonym_map == {"access": "accessibility"}
        assert "street travel safety" in rules.preserve_distinct

    def test_cycle_rejected(self, tmp_path):
        path = write(tmp_path, "rules.yaml", "synonyms:\n  a: b\n  b: a\n")
        with pytest.raises(RuleSetError, match="not idempotent"):
            load_rules(path)

    def test_non_canonical_value_rejected(self, tmp_path):
        path = write(tmp_path, "rules.yaml", "synonyms:\n  access: Accessibility\n")
        with pytest.raises(RuleSetError, match="not idempotent"):
            load_rules(path)

    def test_preserve_overlap_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "rules.yaml",
            "synonyms:\n  access: accessibility\npreserve_distinct:\n  - access\n",
        )
        with pytest.raises(RuleSetError, match="preserve_distinct"):
            load_rules(path)

    def test_empty_file_gives_defaults(self, tmp_path):
        path = write(tmp_path, "rules.yaml", "")
        rules = load_rules(path)
        assert rules.case_folding and rules.whitespace_collapse
        assert not rules.synonym_map
        assert not rules.preserve_distinct


class TestNormalize:
    def test_case_folding(self, default_rules):
        assert normalize("Accessibility", default_rules) == "accessibility"

    def test_synonym(self, default_rules):
        assert normalize("access", default_rules) == "accessibility"

    def test_preserved_name(self, default_rules):
        assert (
            normalize("street travel safety", default_rules)
            == "street travel safety"
        )

    def test_whitespace_collapse(self, default_rules):
        assert normalize("  thermal   comfort ", default_rules) == "thermal comfort"

    def test_punctuation_to_token_boundary(self, default_rules):
        assert normalize("comfort/vitality", default_rules) == "comfort vitality"

    def test_internal_hyphen_kept(self, default_rules):
        assert normalize("barrier-free", default_rules) == "barrier-free"

    def test_boundary_hyphen_stripped(self, default_rules):
        assert normalize("safety -perception", default_rules) == "safety perception"

    def test_empty_after_strip_rejected(self, default_rules):
        with pytest.raises(CorpusError, match="empty after normalization"):
            normalize("...", default_rules)

    def test_empty_input_rejected(self, default_rules):
        with pytest.raises(CorpusError):
            normalize("   ", default_rules)

    def test_idempotent_on_examples(self, default_rules):
        for raw in ["Accessibility", "access", "street travel safety", "A/B  test"]:
            once = normalize(raw, default_rules)
            assert normalize(once, default_rules) == once

    def test_preserved_names_never_synonym_mapped(self):
        overlapping = NormalizationRuleSet(
            synonym_map={"walkability": "accessibility"},
            preserve_distinct=frozenset({"walkability"}),
        )
        with pytest.raises(RuleSetError):
            overlapping.validate()
        rules = NormalizationRuleSet(
            synonym_map={"access": "accessibility"},
            preserve_distinct=frozenset({"walkability"}),
        )
        rules.validate()
        assert normalize("Walkability", rules) == "walkability"
