"""Category assignment, subclustering, and hierarchy validation."""

from __future__ import annotations

import pytest

from taxoforge.classify import FactorClass, classify_factors
from taxoforge.cluster import (
    AssignmentScores,
    assign_categories,
    domain_priorities,
    related_factors,
    subcluster,
    validate_hierarchy,
)
from taxoforge.knowledge import DomainScope
from tests.conftest import seeded_matrix

WORKED_ASSIGNMENTS = {
    "safety": "SAFETY & SECURITY",
    "lighting": "COMFORT",
    "thermal comfort": "COMFORT",
    "wheelchair access": "ACCESSIBILITY",
    "water features": "NATURAL ELEMENTS",
    "biodiversity": "NATURAL ELEMENTS",
    "surveillance": "SAFETY & SECURITY",
    "accessibility": "ACCESSIBILITY",
}


class TestDomainPriorities:
    def test_universal_prefers_broad(self):
        priors = domain_priorities(FactorClass.UNIVERSAL)
        assert priors[DomainScope.BROAD] == 1.0
        assert priors[DomainScope.MODERATE] == 0.8
        assert priors[DomainScope.SPECIALIZED] == 0.6

    def test_multi_space_spans_broad_and_moderate(self):
        priors = domain_priorities(FactorClass.MULTI_SPACE)
        assert priors[DomainScope.BROAD] == priors[DomainScope.MODERATE] == 1.0
        assert priors[DomainScope.SPECIALIZED] == 0.8

    def test_space_specific_unpenalized(self):
        priors = domain_priorities(FactorClass.SPACE_SPECIFIC)
        assert set(priors.values()) == {1.0}


class TestRelatedFactors:
    def test_safety_includes_security(self, cluster_fixture):
        factor_set, matrix = cluster_fixture
        index = matrix.names.index("safety")
        related = related_factors(index, matrix)
        names = [matrix.names[j] for j, _ in related]
        assert "security" in names

    def test_threshold_is_strict(self):
        matrix = seeded_matrix(["a", "b"], {("a", "b"): 0.75})
        assert related_factors(0, matrix) == []

    def test_impossible_threshold(self, cluster_fixture):
        _, matrix = cluster_fixture
        for i in range(matrix.n):
            assert related_factors(i, matrix, threshold=1.0) == []

    def test_sorted_by_score(self, cluster_fixture):
        _, matrix = cluster_fixture
        index = matrix.names.index("surveillance")
        scores = [score for _, score in related_factors(index, matrix)]
        assert scores == sorted(scores, reverse=True)


class TestScoreWeights:
    def test_final_is_weighted_sum(self):
        scores = AssignmentScores(
            semantic=0.9, similarity_evidence=0.5, distribution=0.7
        )
        assert scores.final == pytest.approx(0.4 * 0.9 + 0.3 * 0.5 + 0.3 * 0.7)


class TestAssignment:
    def test_worked_assignments(self, cluster_fixture, default_kb, default_lexicon):
        factor_set, matrix = cluster_fixture
        results = classify_factors(factor_set, default_kb, default_lexicon)
        assignments = assign_categories(
            factor_set, results, default_kb, matrix, default_lexicon
        )
        by_name = {a.factor: a.category for a in assignments}
        for name, expected in WORKED_ASSIGNMENTS.items():
            assert by_name[name] == expected, name

    def test_every_factor_assigned_once(
        self, cluster_fixture, default_kb, default_lexicon
    ):
        factor_set, matrix = cluster_fixture
        results = classify_factors(factor_set, default_kb, default_lexicon)
        assignments = assign_categories(
            factor_set, results, default_kb, matrix, default_lexicon
        )
        assert len(assignments) == len(factor_set.factors)
        assert len({a.factor for a in assignments}) == len(factor_set.factors)
        report = validate_hierarchy(assignments, default_kb)
        assert report.passed
        assert sum(report.category_counts.values()) == len(factor_set.factors)

    def test_argmax_reproducible(self, cluster_fixture, default_kb, default_lexicon):
        factor_set, matrix = cluster_fixture
        results = classify_factors(factor_set, default_kb, default_lexicon)
        first = assign_categories(
            factor_set, results, default_kb, matrix, default_lexicon
        )
        second = assign_categories(
            factor_set, results, default_kb, matrix, default_lexicon
        )
        assert first == second


class TestSubcluster:
    def test_below_threshold_stays_separate(self):
        matrix = seeded_matrix(["a", "b"], {("a", "b"): 0.59})
        assert subcluster([0, 1], matrix) == [[0], [1]]

    def test_at_threshold_merges(self):
        matrix = seeded_matrix(["a", "b"], {("a", "b"): 0.6})
        assert subcluster([0, 1], matrix) == [[0, 1]]

    def test_high_pair_merges(self):
        matrix = seeded_matrix(
            ["thermal comfort", "temperature"], {("thermal comfort", "temperature"): 0.93}
        )
        assert subcluster([0, 1], matrix) == [[0, 1]]

    def test_single_linkage_chains(self):
        matrix = seeded_matrix(
            ["a", "b", "c"], {("a", "b"): 0.7, ("b", "c"): 0.7}
        )
        assert subcluster([0, 1, 2], matrix) == [[0, 1, 2]]

    def test_monotone_in_threshold(self):
        pairs = {("a", "b"): 0.65, ("b", "c"): 0.75, ("c", "d"): 0.55}
        matrix = seeded_matrix(["a", "b", "c", "d"], pairs)
        loose = subcluster([0, 1, 2, 3], matrix, threshold=0.5)
        tight = subcluster([0, 1, 2, 3], matrix, threshold=0.7)
        # every tight cluster is contained in a loose cluster
        loose_sets = [set(c) for c in loose]
        for cluster in tight:
            assert any(set(cluster) <= big for big in loose_sets)


class TestValidateHierarchy:
    def test_counts(self, cluster_fixture, default_kb, default_lexicon):
        factor_set, matrix = cluster_fixture
        results = classify_factors(factor_set, default_kb, default_lexicon)
        assignments = assign_categories(
            factor_set, results, default_kb, matrix, default_lexicon
        )
        report = validate_hierarchy(assignments, default_kb)
        assert report.passed
        expected_categories = {
            "SAFETY & SECURITY",
            "COMFORT",
            "ACCESSIBILITY",
            "NATURAL ELEMENTS",
        }
        assert expected_categories <= set(report.category_counts)

    def test_duplicate_assignment_reported(
        self, cluster_fixture, default_kb, default_lexicon
    ):
        factor_set, matrix = cluster_fixture
        results = classify_factors(factor_set, default_kb, default_lexicon)
        assignments = assign_categories(
            factor_set, results, default_kb, matrix, default_lexicon
        )
        duplicated = assignments + [assignments[0]]
        report = validate_hierarchy(duplicated, default_kb)
        assert not report.passed
        assert any("assigned 2 times" in v for v in report.violations)
