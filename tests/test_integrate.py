"""Factor integration, tracking notation, and the reduction rate."""

from __future__ import annotations

from fractions import Fraction

import pytest

from taxoforge import integrate as integrate_module
from taxoforge.corpus import SPACE_TYPES, Corpus, NormalizationRuleSet, merge_corpora
from taxoforge.errors import CorpusError, TaxoforgeError
from taxoforge.integrate import (
    OccurrenceVector,
    integrate,
    reduction_rate,
    tracking_notation,
)

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

    def test_singleton(self, default_rules):
        corpus = Corpus.from_records((("safety", "c1", "P"),))
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

    def test_counted_records_fold_as_repeated_ones(self, default_rules):
        records = (
            ("safety", "c1", "P"),
            ("Safety", "c2", "P"),
            ("lighting", "c1", "S"),
        )
        counted = integrate(Corpus.from_records(records, (3, 2, 1)), default_rules)
        repeated = Corpus.from_records(records[:1] * 3 + records[1:2] * 2 + records[2:])
        assert counted == integrate(repeated, default_rules)
        assert counted.raw_record_count == 6
        assert counted.factors[0].studies["P"] == {"c1", "c2"}

    def test_study_sets_bounded_by_counts(self, sample_factors):
        for factor in sample_factors.factors:
            for code, count in zip(SPACE_TYPES, factor.occurrence.counts):
                assert len(factor.studies[code]) <= count

    def test_empty_corpus_rejected(self, default_rules):
        with pytest.raises(CorpusError, match="empty corpus"):
            integrate(Corpus.from_records(()), default_rules)

    def test_error_names_record_position(self):
        rules = NormalizationRuleSet()
        corpus = Corpus.from_records((("safety", "c1", "P"), ("...", "c2", "S")))
        with pytest.raises(CorpusError, match="record 2"):
            integrate(corpus, rules)

    def test_hand_built_records_checked(self, default_rules):
        good = ("safety", "c1", "P")
        for bad, message in (
            (("lighting", "", "S"), "record 2: study_id"),
            (("lighting", "c2", "X"), "record 2: unknown space type"),
            ((" ", "c2", "S"), "record 2: cannot normalize"),
        ):
            with pytest.raises(CorpusError, match=message):
                integrate(Corpus.from_records((good, bad, bad)), default_rules)

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
