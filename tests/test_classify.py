"""Distribution entropy, classification rules, and cross-cutting assessment."""

from __future__ import annotations

import math
from collections import Counter

import pytest

from taxoforge import similarity
from taxoforge.classify import (
    CrossCuttingStatus,
    DistributionStats,
    FactorClass,
    assess_cross_cutting,
    classify,
    classify_factors,
    distribution_stats,
    entropy,
    primary_domain,
    relevance_rows,
)
from taxoforge.errors import TaxoforgeError
from taxoforge.integrate import OccurrenceVector
from taxoforge.knowledge import default_lexicon_path
from tests.conftest import relevance_row


def shipped_row(name, kb, lexicon):
    """The name's relevance row as classify scores it."""
    (row,) = relevance_rows([name], kb, lexicon)
    return row


def hand_entropy(counts):
    """Independent oracle: direct summation over the count shares."""
    total = sum(counts)
    return -sum((c / total) * math.log(c / total) for c in counts if c)


class TestEntropy:
    def test_uniform_five(self):
        vector = OccurrenceVector.from_mapping(
            {"P": 1, "S": 1, "U": 1, "O": 1, "F": 1}
        )
        assert entropy(vector) == pytest.approx(1.609, abs=5e-4)
        assert entropy(vector) == pytest.approx(math.log(5), abs=1e-12)

    def test_single_type(self):
        assert entropy(OccurrenceVector.from_mapping({"P": 1})) == 0.0

    def test_skewed_counts(self):
        vector = OccurrenceVector.from_mapping(
            {"P": 1, "S": 1, "U": 1, "O": 4, "F": 2}
        )
        oracle = hand_entropy([1, 1, 1, 4, 2])
        assert entropy(vector) == pytest.approx(1.427, abs=1e-3)
        assert entropy(vector) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("k,expected", [(5, 1.61), (4, 1.39), (3, 1.10), (2, 0.69)])
    def test_uniform_values(self, k, expected):
        counts = {code: 1 for code in "PSUGOF"[:k]}
        assert entropy(OccurrenceVector.from_mapping(counts)) == pytest.approx(
            expected, abs=5e-3
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(TaxoforgeError):
            entropy(OccurrenceVector.from_mapping({}))


class TestClassify:
    @pytest.mark.parametrize(
        "active,expected",
        [
            (6, FactorClass.UNIVERSAL),
            (5, FactorClass.UNIVERSAL),
            (4, FactorClass.MULTI_SPACE),
            (3, FactorClass.MULTI_SPACE),
            (2, FactorClass.SPACE_SPECIFIC),
            (1, FactorClass.SPACE_SPECIFIC),
        ],
    )
    def test_thresholds(self, active, expected):
        stats = DistributionStats(active_type_count=active, entropy_nats=0.0)
        assert classify(stats) is expected

    def test_stats_invariants(self):
        vector = OccurrenceVector.from_mapping({"P": 2, "S": 2})
        stats = distribution_stats(vector)
        assert stats.active_type_count == 2
        assert stats.entropy_nats == pytest.approx(math.log(2))


class TestPrimaryDomain:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("safety", "SAFETY & SECURITY"),
            ("water features", "NATURAL ELEMENTS"),
            ("thermal comfort", "COMFORT"),
        ],
    )
    def test_worked_examples(self, name, expected, default_kb, default_lexicon):
        row = shipped_row(name, default_kb, default_lexicon)
        assert primary_domain(row, default_kb) == expected

    def test_unassignable_is_none(self, default_kb, default_lexicon):
        row = shipped_row("zzz", default_kb, default_lexicon)
        assert primary_domain(row, default_kb) is None

    def test_deterministic(self, default_kb, default_lexicon):
        rows = [
            shipped_row("lighting", default_kb, default_lexicon) for _ in range(6)
        ]
        assert len({primary_domain(row, default_kb) for row in rows}) == 1


class TestCrossCutting:
    def test_safety_limited(self, default_kb, default_lexicon):
        row = shipped_row("safety", default_kb, default_lexicon)
        cc = assess_cross_cutting(row, default_kb)
        assert not cc.flagged
        assert cc.status is CrossCuttingStatus.LIMITED

    def test_accessibility_very_high(self, default_kb, default_lexicon):
        row = shipped_row("accessibility", default_kb, default_lexicon)
        cc = assess_cross_cutting(row, default_kb)
        assert cc.flagged
        assert cc.status is CrossCuttingStatus.VERY_HIGH
        assert cc.score == 4

    def test_lighting_high(self, default_kb, default_lexicon):
        row = shipped_row("lighting", default_kb, default_lexicon)
        cc = assess_cross_cutting(row, default_kb)
        assert cc.flagged
        assert cc.status is CrossCuttingStatus.HIGH
        assert set(cc.relevant_domains) == {
            "COMFORT",
            "SAFETY & SECURITY",
            "INFRASTRUCTURE",
        }

    def test_status_mapping(self):
        assert CrossCuttingStatus.from_score(0) is CrossCuttingStatus.LIMITED
        assert CrossCuttingStatus.from_score(1) is CrossCuttingStatus.LIMITED
        assert CrossCuttingStatus.from_score(2) is CrossCuttingStatus.MODERATE
        assert CrossCuttingStatus.from_score(3) is CrossCuttingStatus.HIGH
        assert CrossCuttingStatus.from_score(7) is CrossCuttingStatus.VERY_HIGH


class TestRelevanceTable:
    def test_one_row_per_factor_in_kb_order(
        self, classification_fixture, default_kb, default_lexicon
    ):
        for result in classification_fixture:
            assert len(result.relevance) == len(default_kb.domains)
            assert result.relevance == relevance_row(
                result.name, default_kb, default_lexicon
            )

    def test_features_built_once_per_name(
        self, sample_factors, default_kb, monkeypatch
    ):
        built = []
        original = similarity.name_features

        def counting(name, lexicon):
            built.append(name)
            return original(name, lexicon)

        monkeypatch.setattr(similarity, "name_features", counting)
        lexicon = similarity.load_lexicon(default_lexicon_path())
        classify_factors(sample_factors, default_kb, lexicon)
        keywords = {k for domain in default_kb.domains for k in domain.keywords}
        assert len(built) == len(set(built))
        assert set(built) == set(sample_factors.names) | keywords


class TestCensus:
    def test_fixture_census(self, classification_fixture):
        census = Counter(r.factor_class for r in classification_fixture)
        assert census[FactorClass.UNIVERSAL] == 4
        assert census[FactorClass.MULTI_SPACE] == 5
        assert census[FactorClass.SPACE_SPECIFIC] == 3
        assert census.total() == 12

    def test_fixture_class_labels(self, classification_fixture):
        by_name = {r.name: r.factor_class for r in classification_fixture}
        assert by_name["safety"] is FactorClass.UNIVERSAL
        assert by_name["accessibility"] is FactorClass.UNIVERSAL
        assert by_name["comfort"] is FactorClass.UNIVERSAL
        assert by_name["security"] is FactorClass.UNIVERSAL
        assert by_name["thermal comfort"] is FactorClass.MULTI_SPACE
        assert by_name["physical comfort"] is FactorClass.MULTI_SPACE
        assert by_name["lighting"] is FactorClass.MULTI_SPACE
        assert by_name["visibility"] is FactorClass.MULTI_SPACE
        assert by_name["temperature"] is FactorClass.MULTI_SPACE
        assert by_name["street travel safety"] is FactorClass.SPACE_SPECIFIC
        assert by_name["water features"] is FactorClass.SPACE_SPECIFIC
        assert by_name["biodiversity"] is FactorClass.SPACE_SPECIFIC

    def test_reported_scale_identities(self):
        assert 278 + 354 + 397 == 1029
        assert round(100 * 278 / 1029, 1) == 27.0
        assert round(100 * 354 / 1029, 1) == 34.4
        assert round(100 * 397 / 1029, 1) == 38.6
        assert round(100 * 124 / 1029, 1) == 12.1
