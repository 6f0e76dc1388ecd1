"""Dataset loading and normalization rules."""

from __future__ import annotations

import csv

import pytest

from taxoforge.corpus import (
    NormalizationRuleSet,
    load_corpus,
    load_rules,
    merge_corpora,
    normalize,
)
from taxoforge.errors import CorpusError, RuleSetError
from taxoforge.integrate import integrate

HEADER = "raw_name,study_id,space_type\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def folded(corpus):
    """Each spelling's rows and studies per space type."""
    return {
        record.raw_name: {code: tuple(tally) for code, tally in record.tallies.items()}
        for record in corpus.records
    }


class TestLoadCorpus:
    def test_two_rows(self, tmp_path):
        path = write(
            tmp_path,
            "mini.csv",
            "raw_name,study_id,space_type\nsafety,c1,P\nsafety,c2,S\n",
        )
        corpus = load_corpus(path)
        assert folded(corpus) == {"safety": {"P": (1, {"c1"}), "S": (1, {"c2"})}}

    def test_unknown_space_type(self, tmp_path):
        path = write(
            tmp_path, "bad.csv", "raw_name,study_id,space_type\nsafety,c1,X\n"
        )
        with pytest.raises(CorpusError, match="unknown space type"):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        # The config's checksum refuses a missing dataset before it is loaded.
        with pytest.raises(CorpusError, match="nope.csv: cannot read: No such file"):
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
        # final tracking column is one row. One row, accessibility,c09,O, is
        # there twice, so its spelling has one more row than studies there.
        tallies = folded(sample_corpus)
        assert sum(rows for t in tallies.values() for rows, _ in t.values()) == 35
        assert len(sample_corpus.records) == 13
        repeated = {
            (name, code)
            for name, t in tallies.items()
            for code, (rows, studies) in t.items()
            if rows > len(studies)
        }
        assert repeated == {("accessibility", "O")}
        assert tallies["accessibility"]["O"] == (4, {"c09", "c10", "c11"})

    def test_identical_rows_are_counted_in_first_seen_order(self, tmp_path):
        rows = (
            "lighting,c2,S\nsafety,c1,P\n safety ,c1,P\n"
            '"safety",c1 ,P\nlighting,c2,S\n\nsafety,c1,P\r\n'
        )
        corpus = load_corpus(write(tmp_path, "rows.csv", HEADER + rows))
        assert folded(corpus) == {
            "lighting": {"S": (2, {"c2"})},
            "safety": {"P": (4, {"c1"})},
        }
        assert [record.raw_name for record in corpus.records] == ["lighting", "safety"]

    def test_records_of_one_load_share_their_strings(self, tmp_path):
        rows = "".join(
            f"{name},{study},{code}\n"
            for name in "ab"
            for code in "PS"
            for study in ("c1", " c1 ")
        )
        corpus = load_corpus(write(tmp_path, "rows.csv", HEADER + rows))
        tallies = [tally for r in corpus.records for tally in r.tallies.values()]
        studies = [study for _, ids in tallies for study in ids]
        assert len(studies) == 4 and len({id(study) for study in studies}) == 1

    def test_rows_are_numbered_by_the_line_they_start_on(self, tmp_path):
        # The quoted name spans lines 2 and 3, so the empty study is on line 4.
        rows = '"comfort,\nthermal",c1,P\nlighting,,S\n'
        with pytest.raises(CorpusError, match="row 4: empty study_id"):
            load_corpus(write(tmp_path, "multiline.csv", HEADER + rows))

    def test_repeated_bad_row_is_named_at_its_first_line(self, tmp_path):
        rows = "safety,c1,P\nsafety,c1,X\nlighting,c2,S\nsafety,c1,X\n"
        with pytest.raises(CorpusError, match=r"bad.csv: row 3: unknown space"):
            load_corpus(write(tmp_path, "bad.csv", HEADER + rows))

    def test_oversized_cell_is_refused_at_its_line(self, tmp_path):
        big = "x" * (csv.field_size_limit() + 1)
        for cell in (big, f'"a\n{big}"'):
            path = write(tmp_path, "big.csv", f"{HEADER}safety,c1,P\n{cell},c2,P\n")
            with pytest.raises(CorpusError, match="big.csv: row 3: field larger"):
                load_corpus(path)

    @pytest.mark.parametrize("long_rows", [0, 2])
    def test_cell_spanning_lines_folds_as_parsed_rows(self, tmp_path, long_rows):
        # Line 4 continues the name opened on line 3 and is also line 2, so
        # the file's distinct lines leave that quote open to their end; with
        # two long names after it, that one cell is over the size limit.
        long = [
            f"{letter * (csv.field_size_limit() * 2 // 3)},c1,P\n"
            for letter in "yz"[:long_rows]
        ]
        rows = 'tail",c1,P\n"head\ntail",c1,P\n' + "".join(long)
        corpus = load_corpus(write(tmp_path, "span.csv", HEADER + rows))
        names = ['tail"', "head\ntail"] + [row.split(",")[0] for row in long]
        assert folded(corpus) == {name: {"P": (1, {"c1"})} for name in names}

    @pytest.mark.parametrize("fault", ["safety,,P", "safety,c1,X", "safety,c1"])
    def test_unparsable_row_is_refused_before_an_earlier_bad_row(self, tmp_path, fault):
        big = "x" * (csv.field_size_limit() + 1)
        path = write(tmp_path, "big.csv", f"{HEADER}{fault}\n{big},c2,P\n")
        with pytest.raises(CorpusError, match="big.csv: row 3: field larger"):
            load_corpus(path, expect_type="P")

    def test_oversized_header_cell_is_refused_at_line_one(self, tmp_path):
        big = "x" * (csv.field_size_limit() + 1)
        path = write(tmp_path, "big.csv", f"{big},study_id,space_type\n")
        with pytest.raises(CorpusError, match="big.csv: row 1: field larger"):
            load_corpus(path)

    def test_expected_type_mismatch(self, tmp_path):
        path = write(
            tmp_path, "p.csv", "raw_name,study_id,space_type\nsafety,c1,S\n"
        )
        with pytest.raises(CorpusError, match="declared typology"):
            load_corpus(path, expect_type="P")


class TestCorpus:
    def test_merge_keeps_counts_and_sources(self, tmp_path):
        first = load_corpus(write(tmp_path, "a.csv", HEADER + "safety,c1,P\n" * 2))
        second = load_corpus(write(tmp_path, "b.csv", HEADER + "\nlighting,c2,S\n"))
        merged = merge_corpora([first, second, first])
        assert merged.records == first.records + second.records + first.records
        assert [r.tallies for r in merged.records] == [
            {"P": [2, {"c1"}]},
            {"S": [1, {"c2"}]},
            {"P": [2, {"c1"}]},
        ]
        assert merged.locate(1) == f"{tmp_path / 'a.csv'}: row 2"
        assert merged.locate(2) == f"{tmp_path / 'b.csv'}: row 3"
        assert merged.locate(3) == f"{tmp_path / 'a.csv'}: row 2"


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

    def test_whitespace_kept_without_collapse(self, tmp_path):
        rules = NormalizationRuleSet(whitespace_collapse=False)
        assert rules.base_normalize("Thermal   Comfort ") == "thermal   comfort"
        assert rules.base_normalize(" comfort / vitality") == "comfort   vitality"
        assert NormalizationRuleSet().base_normalize("Thermal \t Comfort ") == (
            "thermal comfort"
        )
        # A rules file that turns it off keeps the two spellings apart.
        path = write(tmp_path, "rules.yaml", "options:\n  whitespace_collapse: false\n")
        corpus = load_corpus(
            write(tmp_path, "d.csv", HEADER + "thermal   comfort,c1,P\n"
                  "Thermal Comfort,c2,S\n")
        )
        factors = integrate(corpus, load_rules(path))
        assert factors.names == ("thermal   comfort", "thermal comfort")

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
