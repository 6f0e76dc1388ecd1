"""Similarity components, the weighted blend, matrix construction, banding."""

from __future__ import annotations

import math

import pytest

from taxoforge import similarity
from taxoforge.errors import TaxoforgeError
from taxoforge.integrate import IntegratedFactorSet, OccurrenceVector
from taxoforge.knowledge import default_lexicon_path
from taxoforge.similarity import (
    BandCensus,
    all_pair_scores,
    ComponentScores,
    KeywordScorer,
    SemanticLexicon,
    SimilarityBand,
    SimilarityWeights,
    band,
    band_census,
    build_matrix,
    co_occurrence_strength,
    combine,
    distributional_similarity,
    load_lexicon,
    matrix_from_dict,
    matrix_to_dict,
    name_features,
    pair_count,
)
from tests.conftest import (
    assert_graph_matches_dense,
    dense_pairs,
    make_factor,
    make_factor_set,
)


def linguistic(a: str, b: str, lexicon: SemanticLexicon) -> float:
    """The shipped scorer's linguistic component of name ``a`` against ``b``."""
    (score,) = KeywordScorer([[b]], lexicon).row(a)
    return score


class TestLinguistic:
    def test_identity(self, default_lexicon):
        assert linguistic("safety", "safety", default_lexicon) == 1.0

    def test_shared_head_token(self, default_lexicon):
        # token sets {thermal, comfort} vs {comfort}: Jaccard = 1/2
        a = name_features("thermal comfort", default_lexicon).tokens
        b = name_features("comfort", default_lexicon).tokens
        assert len(a & b) / len(a | b) == 0.5
        score = linguistic("thermal comfort", "comfort", default_lexicon)
        assert score >= 0.5

    def test_distinct_domains(self, default_lexicon):
        assert linguistic("traffic", "biodiversity", default_lexicon) <= 0.1

    def test_field_bonus(self, default_lexicon):
        assert (
            linguistic("safety", "security", default_lexicon)
            == default_lexicon.field_score
        )

    def test_lexicons_keep_their_own_fields(self):
        # Same names, two lexicons in one process: each reads its own fields.
        one = SemanticLexicon(fields={"f": frozenset({"alpha", "omega"})})
        other = SemanticLexicon(fields={"g": frozenset({"alpha"})})
        assert linguistic("alpha", "omega", one) == one.field_score
        assert linguistic("alpha", "omega", other) < one.field_score
        assert other.features("alpha").fields == {"g"}
        assert one.features("alpha").fields == {"f"}

    def test_symmetry(self, default_lexicon):
        pairs = [("safety", "security"), ("thermal comfort", "comfort"), ("a", "b c")]
        for a, b in pairs:
            assert linguistic(a, b, default_lexicon) == linguistic(
                b, a, default_lexicon
            )


class TestDistributional:
    def test_proportional_vectors(self):
        a = OccurrenceVector.from_mapping({"P": 1, "O": 1})
        b = OccurrenceVector.from_mapping({"P": 2, "O": 2})
        assert distributional_similarity(a, b) == 1.0

    def test_disjoint_supports(self):
        a = OccurrenceVector.from_mapping({"S": 1, "U": 1})
        b = OccurrenceVector.from_mapping({"G": 1, "P": 1})
        assert distributional_similarity(a, b) == 0.0

    def test_partial_overlap(self):
        a = OccurrenceVector.from_mapping({"P": 1, "S": 1, "U": 1, "O": 1, "F": 1})
        b = OccurrenceVector.from_mapping({"P": 1, "U": 1})
        oracle = 2 / (math.sqrt(5) * math.sqrt(2))
        assert distributional_similarity(a, b) == pytest.approx(0.632, abs=5e-4)
        assert distributional_similarity(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_zero_vector_rejected(self):
        a = OccurrenceVector.from_mapping({"P": 1})
        zero = OccurrenceVector.from_mapping({})
        with pytest.raises(TaxoforgeError):
            distributional_similarity(a, zero)


class TestCoOccurrence:
    def make(self, name, studies):
        return make_factor(
            name, {"P": len(studies)}, studies={"P": frozenset(studies)} | {
                c: frozenset() for c in "SUGOF"
            },
        )

    def test_identical_sets(self):
        a = self.make("a", {"c1", "c2"})
        b = self.make("b", {"c1", "c2"})
        assert co_occurrence_strength(a, b) == 1.0

    def test_disjoint_sets(self):
        a = self.make("a", {"c1"})
        b = self.make("b", {"c2"})
        assert co_occurrence_strength(a, b) == 0.0

    def test_overlap_coefficient(self):
        a = self.make("a", {"c1", "c2", "c3"})
        b = self.make("b", {"c2", "c3", "c4", "c5"})
        assert co_occurrence_strength(a, b) == pytest.approx(2 / 3)


class TestCombine:
    # Component triples and blended scores from the worked similarity examples.
    WORKED_ROWS = [
        ((0.85, 0.53, 0.91), 0.77),
        ((0.62, 0.88, 0.74), 0.72),
        ((0.08, 0.05, 0.02), 0.06),
        ((0.94, 0.85, 0.88), 0.91),
        ((0.95, 0.92, 0.89), 0.93),
    ]

    @pytest.mark.parametrize("components,expected", WORKED_ROWS)
    def test_worked_rows(self, components, expected):
        blended = combine(ComponentScores(*components), SimilarityWeights())
        assert blended == pytest.approx(expected, abs=0.015)

    def test_exact_arithmetic(self):
        blended = combine(ComponentScores(0.85, 0.53, 0.91), SimilarityWeights())
        assert blended == pytest.approx(0.766, abs=5e-4)

    def test_weight_validation(self):
        with pytest.raises(TaxoforgeError):
            SimilarityWeights(0.5, 0.5, 0.5)
        with pytest.raises(TaxoforgeError):
            SimilarityWeights(-0.2, 0.6, 0.6)


class TestBand:
    def test_high(self):
        assert band(0.77) is SimilarityBand.HIGH

    def test_low(self):
        assert band(0.06) is SimilarityBand.LOW

    def test_boundary_is_moderate(self):
        assert band(0.75) is SimilarityBand.MODERATE
        assert band(0.5) is SimilarityBand.MODERATE

    def test_out_of_range(self):
        with pytest.raises(TaxoforgeError):
            band(1.5)


class TestMatrix:
    def test_single_factor(self, default_lexicon):
        factor_set = make_factor_set({"safety": {"P": 1}})
        matrix = build_matrix(factor_set, SimilarityWeights(), default_lexicon)
        assert matrix.n == 1
        assert matrix.scores == [] and matrix.components == {}
        assert band_census(matrix) == BandCensus(0, 0, 0)

    def test_fixture_pair_count(self, sample_matrix, sample_factors, default_lexicon):
        n = sample_matrix.n
        assert n == 11
        assert pair_count(n) == 55
        # Every one of the 55 pairs is an edge or scores below the floor.
        dense = dense_pairs(sample_factors, SimilarityWeights(), default_lexicon)
        assert len(dense) == 55
        assert_graph_matches_dense(sample_matrix, dense)
        assert sample_matrix.scored < 55  # only candidate pairs were scored

    def test_reported_scale_pair_count(self):
        assert pair_count(1029) == 528906

    def test_symmetry_and_diagonal(self, sample_matrix):
        # Edges are unique pairs i < j in (i, j) order; each appears in both
        # factors' neighbour lists with one score in [floor, 1].
        pairs = [(i, j) for i, j, _ in sample_matrix.scores]
        assert pairs == sorted(set(pairs))
        neighbours = sample_matrix.neighbours
        for i, j, score in sample_matrix.scores:
            assert 0 <= i < j < sample_matrix.n
            assert sample_matrix.floor <= score <= 1.0
            assert (j, score) in neighbours[i] and (i, score) in neighbours[j]
        assert sum(map(len, neighbours)) == 2 * len(pairs)

    def test_features_built_once_per_factor(self, sample_factors, monkeypatch):
        built = []
        original = similarity.name_features

        def counting(name, lexicon):
            built.append(name)
            return original(name, lexicon)

        monkeypatch.setattr(similarity, "name_features", counting)
        lexicon = load_lexicon(default_lexicon_path())
        build_matrix(sample_factors, SimilarityWeights(), lexicon)
        assert sorted(built) == sorted(sample_factors.names)
        assert len(built) == 11

    def test_unpairable_factor_raises_in_a_pair(self, default_lexicon):
        good = make_factor("safety", {"P": 1})
        zero = make_factor("lighting", {})
        no_studies = make_factor("comfort", {"P": 1}, studies={})
        for bad, message in ((zero, "non-zero vectors"), (no_studies, "study sets")):
            alone = IntegratedFactorSet((bad,), 1)
            assert build_matrix(alone, SimilarityWeights(), default_lexicon).n == 1
            for pair in ((good, bad), (bad, good)):
                with pytest.raises(TaxoforgeError, match=message):
                    build_matrix(
                        IntegratedFactorSet(pair, 2), SimilarityWeights(), default_lexicon
                    )

    def test_trigram_cosine_at_the_floor_is_an_edge(self):
        # abcd and abce share one of their two trigram keys each: cosine
        # 1/sqrt(2 * 2) = 0.5 exactly, and no token, field or study. Rounded,
        # sqrt(2) * sqrt(2) exceeds 2, so a screen without slack drops it.
        a, b = make_factor("abcd", {"P": 1}), make_factor("abce", {"S": 1})
        lexicon = SemanticLexicon(fields={})
        assert linguistic("abcd", "abce", lexicon) == 0.5
        weights = SimilarityWeights(1.0, 0.0, 0.0)
        matrix = build_matrix(IntegratedFactorSet((a, b), 2), weights, lexicon, 0.5)
        assert matrix.scores == [(0, 1, 0.5)]
        assert matrix.components == {(0, 1): ComponentScores(0.5, 0.0, 0.0)}
        assert matrix.scored == 1

    @pytest.mark.parametrize(
        "weights", [(0.5, 0.3, 0.2), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.2, 0.6, 0.2)]
    )
    def test_all_pair_scores_equal_dense_reference(
        self, sample_factors, default_lexicon, weights
    ):
        weights = SimilarityWeights(*weights)
        dense = dense_pairs(sample_factors, weights, default_lexicon)
        listed = all_pair_scores(sample_factors, weights, default_lexicon)
        assert [((i, j), score) for i, j, score in listed] == [
            (pair, score) for pair, (_, score) in dense.items()
        ]

    def test_serialization_round_trip(self, sample_matrix):
        doc = matrix_to_dict(sample_matrix)
        restored = matrix_from_dict(doc, sample_matrix.floor)
        assert matrix_to_dict(restored) == doc
        assert restored.scores == sample_matrix.scores
        assert restored.components == sample_matrix.components
        assert restored.floor == sample_matrix.floor == 0.5


class TestBandCensus:
    def test_counts_partition_pairs(self, sample_matrix):
        census = band_census(sample_matrix)
        assert census.total == pair_count(sample_matrix.n)

    def test_reported_scale_fractions(self):
        total = pair_count(1029)
        census = BandCensus(high=2847, moderate=15234, low=total - 2847 - 15234)
        assert round(100 * census.high / census.total, 2) == 0.54
        assert round(100 * census.moderate / census.total, 2) == 2.88

    def test_high_fraction_below_one(self, sample_matrix):
        census = band_census(sample_matrix)
        assert census.high / census.total < 1.0
