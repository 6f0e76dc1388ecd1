"""Category assignment, subclustering, and hierarchy validation."""

from __future__ import annotations

from taxoforge.classify import FactorClass, classify_factors
from taxoforge.cluster import (
    assign_categories,
    channel_scores,
    domain_priorities,
    related_factors,
    space_fits,
    subcategory_chooser,
    subcluster,
)
from taxoforge.knowledge import DomainScope
from taxoforge.similarity import neighbours
from tests.conftest import cosine, seeded_matrix

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


def assigned(factor_set, matrix, kb, lexicon):
    """The fixture factors' homes and channel rows."""
    results = classify_factors(factor_set, kb, lexicon)
    choose = subcategory_chooser(kb, lexicon)
    fits = space_fits(factor_set, kb)
    return assign_categories(factor_set, results, kb, neighbours(matrix), fits, choose)


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
        related = related_factors(index, neighbours(matrix))
        names = [matrix.names[j] for j, _ in related]
        assert "security" in names

    def test_threshold_is_strict(self):
        matrix = seeded_matrix(["a", "b"], {("a", "b"): 0.75})
        assert related_factors(0, neighbours(matrix)) == []

    def test_impossible_threshold(self, cluster_fixture):
        _, matrix = cluster_fixture
        for i in range(len(matrix.names)):
            assert related_factors(i, neighbours(matrix), threshold=1.0) == []


class TestScoreWeights:
    def test_final_is_weighted_sum(self, cluster_fixture, default_kb, default_lexicon):
        factor_set, matrix = cluster_fixture
        results = classify_factors(factor_set, default_kb, default_lexicon)
        fits = space_fits(factor_set, default_kb)
        rows = channel_scores(factor_set, results, default_kb, neighbours(matrix), fits)
        assert len(rows) == len(factor_set.factors)
        for row in rows:
            channels = (row.semantic, row.similarity_evidence, row.distribution)
            assert all(len(channel) == len(default_kb.domains) for channel in channels)
            assert row.final == tuple(
                0.4 * s + 0.3 * e + 0.3 * d for s, e, d in zip(*channels)
            )


class TestAssignment:
    def test_worked_assignments(self, cluster_fixture, default_kb, default_lexicon):
        homes, _ = assigned(*cluster_fixture, default_kb, default_lexicon)
        by_name = {home.factor: home.category for home in homes}
        for name, expected in WORKED_ASSIGNMENTS.items():
            assert by_name[name] == expected, name

    def test_every_factor_assigned_once(
        self, cluster_fixture, default_kb, default_lexicon
    ):
        factor_set, _ = cluster_fixture
        homes, rows = assigned(*cluster_fixture, default_kb, default_lexicon)
        assert len(homes) == len(rows) == len(factor_set.factors)
        assert len({home.factor for home in homes}) == len(factor_set.factors)
        for _, category, sub in homes:
            assert sub in default_kb.by_id(category).subcategory_ids()

    def test_space_fits_are_the_profile_cosines(
        self, cluster_fixture, default_kb, default_lexicon
    ):
        factor_set, _ = cluster_fixture
        fits = space_fits(factor_set, default_kb)
        assert fits.keys() == {f.counts for f in factor_set.factors}
        for counts, row in fits.items():
            assert row == tuple(
                cosine(counts, domain.space_profile) for domain in default_kb.domains
            )
        _, rows = assigned(*cluster_fixture, default_kb, default_lexicon)
        for factor, row in zip(factor_set.factors, rows):
            assert row.distribution == fits[factor.counts]

    def test_argmax_reproducible(self, cluster_fixture, default_kb, default_lexicon):
        first = assigned(*cluster_fixture, default_kb, default_lexicon)
        assert assigned(*cluster_fixture, default_kb, default_lexicon) == first


class TestSubcluster:
    def test_below_threshold_stays_separate(self):
        matrix = seeded_matrix(["a", "b"], {("a", "b"): 0.59})
        assert subcluster([0, 1], neighbours(matrix)) == [[0], [1]]

    def test_at_threshold_merges(self):
        matrix = seeded_matrix(["a", "b"], {("a", "b"): 0.6})
        assert subcluster([0, 1], neighbours(matrix)) == [[0, 1]]

    def test_high_pair_merges(self):
        matrix = seeded_matrix(
            ["thermal comfort", "temperature"], {("thermal comfort", "temperature"): 0.93}
        )
        assert subcluster([0, 1], neighbours(matrix)) == [[0, 1]]

    def test_single_linkage_chains(self):
        matrix = seeded_matrix(
            ["a", "b", "c"], {("a", "b"): 0.7, ("b", "c"): 0.7}
        )
        assert subcluster([0, 1, 2], neighbours(matrix)) == [[0, 1, 2]]

    def test_monotone_in_threshold(self):
        pairs = {("a", "b"): 0.65, ("b", "c"): 0.75, ("c", "d"): 0.55}
        matrix = seeded_matrix(["a", "b", "c", "d"], pairs)
        loose = subcluster([0, 1, 2, 3], neighbours(matrix), threshold=0.5)
        tight = subcluster([0, 1, 2, 3], neighbours(matrix), threshold=0.7)
        # every tight cluster is contained in a loose cluster
        loose_sets = [set(c) for c in loose]
        for cluster in tight:
            assert any(set(cluster) <= big for big in loose_sets)


class TestValidateHierarchy:
    def test_counts(self, cluster_fixture, default_kb, default_lexicon):
        homes, _ = assigned(*cluster_fixture, default_kb, default_lexicon)
        for _, category, sub in homes:
            assert sub in default_kb.by_id(category).subcategory_ids()
        expected_categories = {
            "SAFETY & SECURITY",
            "COMFORT",
            "ACCESSIBILITY",
            "NATURAL ELEMENTS",
        }
        assert expected_categories <= {home.category for home in homes}
