"""Factor integration, tracking notation, and the reduction rate."""

from __future__ import annotations

from fractions import Fraction

import pytest

from taxoforge import integrate as integrate_module
from taxoforge import pipeline
from taxoforge.corpus import SPACE_TYPES, Corpus, merge_corpora
from taxoforge.errors import CorpusError, TaxoforgeError
from taxoforge.integrate import (
    OccurrenceVector,
    integrate,
    reduction_rate,
    tracking_notation,
)
from tests.conftest import load_rows

# Final integrated list of the worked example, in first-seen order.
WORKED_FACTOR_ORDER = [
    "safety",
    "accessibility",
    "street travel safety",
    "comfort",
    "thermal comfort",
    "physical comfort",
    "lighting",
    "water features",
    "security",
    "visibility",
    "biodiversity",
]

WORKED_VECTORS = {
    "safety": {"P": 1, "S": 1, "U": 1, "G": 0, "O": 1, "F": 1},
    "accessibility": {"P": 1, "S": 1, "U": 1, "G": 0, "O": 4, "F": 2},
    "street travel safety": {"S": 1},
    "comfort": {"P": 1, "U": 1, "G": 1, "O": 1, "F": 1},
    "thermal comfort": {"P": 1, "O": 1, "F": 1},
    "physical comfort": {"P": 1},
    "lighting": {"P": 1, "S": 1, "O": 1},
    "water features": {"P": 1},
    "security": {"P": 1, "U": 1},
    "visibility": {"P": 1, "S": 1, "O": 1},
    "biodiversity": {"P": 1, "G": 1},
}


class TestIntegrate:
    def test_fixture_unique_factors(self, sample_factors):
        assert sample_factors.unique_count == 11
        assert list(sample_factors.names) == WORKED_FACTOR_ORDER

    def test_fixture_occurrence_vectors(self, sample_factors):
        by_name = dict(zip(sample_factors.names, sample_factors.factors))
        for name, expected in WORKED_VECTORS.items():
            vector = by_name[name].occurrence
            full = {code: expected.get(code, 0) for code in "PSUGOF"}
            assert dict(zip(SPACE_TYPES, vector.counts)) == full, name

    def test_accessibility_vector(self, sample_factors):
        index = sample_factors.names.index("accessibility")
        vector = sample_factors.factors[index].occurrence
        counts = {"P": 1, "S": 1, "U": 1, "G": 0, "O": 4, "F": 2}
        assert dict(zip(SPACE_TYPES, vector.counts)) == counts

    def test_singleton(self, tmp_path, default_rules):
        corpus = load_rows(tmp_path, [("safety", "c1", "P")])
        result = integrate(corpus, default_rules)
        assert result.unique_count == 1
        assert dict(zip(SPACE_TYPES, result.factors[0].occurrence.counts)) == {
            "P": 1, "S": 0, "U": 0, "G": 0, "O": 0, "F": 0,
        }

    def test_record_conservation(self, sample_factors, sample_corpus):
        total = sum(f.occurrence.total for f in sample_factors.factors)
        rows = sum(n for r in sample_corpus.records for n, _ in r.tallies.values())
        assert total == rows == sample_factors.raw_record_count
        assert total == 35

    def test_counted_records_fold_as_repeated_ones(self, tmp_path, default_rules):
        records = [
            ("safety", "c1", "P"),
            ("Safety", "c2", "P"),
            ("lighting", "c1", "S"),
        ]
        rows = records[:1] * 3 + records[1:2] * 2 + records[2:]
        counted = load_rows(tmp_path, rows)
        assert [r.tallies for r in counted.records] == [
            {"P": [3, {"c1"}]},
            {"P": [2, {"c2"}]},
            {"S": [1, {"c1"}]},
        ]
        # One file per row: every record stands for one row.
        repeated = merge_corpora(
            load_rows(tmp_path, [row], f"{k}.csv") for k, row in enumerate(rows)
        )
        assert len(repeated.records) == 6
        result = integrate(counted, default_rules)
        assert result == integrate(repeated, default_rules)
        assert result.raw_record_count == 6
        assert result.factors[0].studies["P"] == {"c1", "c2"}

    def test_study_sets_bounded_by_counts(self, sample_factors):
        for factor in sample_factors.factors:
            for code, count in zip(SPACE_TYPES, factor.occurrence.counts):
                assert len(factor.studies[code]) <= count

    def test_empty_corpus_rejected(self, tmp_path):
        # A dataset with a header and no rows: the integrate phase refuses
        # the corpus, naming the config and its datasets.
        load_rows(tmp_path, [])
        config = tmp_path / "config.yaml"
        text = f"datasets:\n  - rows.csv\nout: {tmp_path / 'out'}\n"
        config.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusError) as raised:
            pipeline.phase_integrate(pipeline.load_config(config))
        assert str(raised.value) == (
            f"config file {config}: datasets: no records in {tmp_path / 'rows.csv'}; "
            "cannot integrate an empty corpus"
        )

    def test_error_names_record_position(self, tmp_path, default_rules):
        # A name that normalizes to nothing is named at the file and line of
        # its first row, here in the second of two files.
        first = load_rows(tmp_path, [("safety", "c1", "P")], "a.csv")
        bad = ("...", "c2", "S")
        second = load_rows(tmp_path, [("lighting", "c1", "S"), bad, bad], "b.csv")
        with pytest.raises(CorpusError) as raised:
            integrate(merge_corpora([first, second]), default_rules)
        assert str(raised.value) == (
            f"{tmp_path / 'b.csv'}: row 3: factor name '...' is empty after "
            "normalization"
        )

    def test_hand_built_records_checked(self, tmp_path, default_rules):
        # Each bad row is refused at the file and line where it first
        # appears, whether the loader or the integrate phase finds it.
        good = ("safety", "c1", "P")
        for bad, message in (
            (("lighting", "", "S"), "row 3: empty study_id"),
            (("lighting", "c2", "X"), "row 3: unknown space type 'X'"),
            ((" ", "c2", "S"), "row 3: empty raw_name"),
            (("...", "c2", "S"), "row 3: factor name '...' is empty after"),
        ):
            with pytest.raises(CorpusError) as raised:
                integrate(load_rows(tmp_path, [good, bad, bad]), default_rules)
            assert str(raised.value).startswith(f"{tmp_path / 'rows.csv'}: {message}")

    def test_each_spelling_normalized_once(
        self, sample_corpus, default_rules, monkeypatch
    ):
        normalized = []
        original = integrate_module.normalize

        def counting(raw, rules):
            normalized.append(raw)
            return original(raw, rules)

        monkeypatch.setattr(integrate_module, "normalize", counting)
        # Two files holding the same spellings: each is normalized once.
        twice = merge_corpora([sample_corpus, sample_corpus])
        integrate(twice, default_rules)
        assert sorted(normalized) == sorted({r.raw_name for r in sample_corpus.records})
        assert len(normalized) == 13 < len(twice.records) == 26

    def test_order_insensitivity_of_pairs(self, sample_corpus, default_rules):
        reversed_corpus = Corpus(
            records=sample_corpus.records[::-1], sources=sample_corpus.sources
        )
        forward = integrate(sample_corpus, default_rules)
        backward = integrate(reversed_corpus, default_rules)
        fwd = {(f.canonical_name, f.occurrence) for f in forward.factors}
        bwd = {(f.canonical_name, f.occurrence) for f in backward.factors}
        assert fwd == bwd


class TestTrackingNotation:
    def test_multi_type(self):
        vector = OccurrenceVector.from_mapping({"P": 1, "S": 1, "U": 1, "O": 4, "F": 2})
        assert tracking_notation(vector) == "[P×1, S×1, U×1, O×4, F×2]"

    def test_single_type(self):
        assert tracking_notation(OccurrenceVector.from_mapping({"P": 1})) == "[P×1]"

    def test_all_zero_rejected(self):
        with pytest.raises(TaxoforgeError):
            tracking_notation(OccurrenceVector.from_mapping({}))


class TestReductionRate:
    def test_reported_scale(self):
        # 1,207 records reduced to 1,029 unique factors
        assert reduction_rate(1207, 1029) == pytest.approx(0.147, abs=5e-4)
        assert round(100 * reduction_rate(1207, 1029), 1) == 14.7

    def test_no_duplicates(self):
        assert reduction_rate(10, 10) == 0.0

    def test_worked_example_counts(self):
        oracle = 1 - Fraction(11, 21)
        assert reduction_rate(21, 11) == pytest.approx(float(oracle), abs=1e-12)
        assert round(reduction_rate(21, 11), 3) == 0.476

    def test_preconditions(self):
        with pytest.raises(TaxoforgeError):
            reduction_rate(0, 0)
        with pytest.raises(TaxoforgeError):
            reduction_rate(5, 6)
        with pytest.raises(TaxoforgeError):
            reduction_rate(5, 0)
