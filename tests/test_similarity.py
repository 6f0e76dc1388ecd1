"""Similarity components, the weighted blend, matrix construction, banding."""

from __future__ import annotations

import json
import math
import re

import pytest

from taxoforge import similarity
from taxoforge.codec import decode, located
from taxoforge.errors import TaxoforgeError
from taxoforge.integrate import IntegratedFactorSet
from taxoforge.knowledge import default_lexicon_path
from taxoforge.similarity import (
    BandCensus,
    all_pair_scores,
    KeywordScorer,
    SemanticLexicon,
    SimilarityBand,
    SimilarityWeights,
    band,
    band_census,
    build_matrix,
    combine,
    load_lexicon,
    matrix_from_dict,
    matrix_to_dict,
    name_features,
    pair_count,
)
from tests.conftest import (
    assert_graph_matches_dense,
    co_occurrence_strength,
    counts_of,
    dense_pairs,
    distributional_similarity,
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
        one = SemanticLexicon.build(fields={"f": frozenset({"alpha", "omega"})})
        other = SemanticLexicon.build(fields={"g": frozenset({"alpha"})})
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
        a = counts_of({"P": 1, "O": 1})
        b = counts_of({"P": 2, "O": 2})
        assert distributional_similarity(a, b) == 1.0

    def test_disjoint_supports(self):
        a = counts_of({"S": 1, "U": 1})
        b = counts_of({"G": 1, "P": 1})
        assert distributional_similarity(a, b) == 0.0

    def test_partial_overlap(self):
        a = counts_of({"P": 1, "S": 1, "U": 1, "O": 1, "F": 1})
        b = counts_of({"P": 1, "U": 1})
        oracle = 2 / (math.sqrt(5) * math.sqrt(2))
        assert distributional_similarity(a, b) == pytest.approx(0.632, abs=5e-4)
        assert distributional_similarity(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_zero_vector_rejected(self):
        a = counts_of({"P": 1})
        zero = counts_of({})
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
        blended = combine(components, SimilarityWeights())
        assert blended == pytest.approx(expected, abs=0.015)

    def test_exact_arithmetic(self):
        blended = combine((0.85, 0.53, 0.91), SimilarityWeights())
        assert blended == pytest.approx(0.766, abs=5e-4)

    def test_weight_validation(self):
        with pytest.raises(TaxoforgeError):
            SimilarityWeights(0.5, 0.5, 0.5).check()
        # A negative weight is refused by the codec, as the leaf it is.
        weights = dict(zip(SimilarityWeights._fields, (-0.2, 0.6, 0.6)))
        message = "weights: linguistic: expected a number in [0, 1], got -0.2"
        with pytest.raises(TaxoforgeError, match=re.escape(message)):
            decode(SimilarityWeights, weights, "weights: ")


class TestBand:
    def test_high(self):
        assert band(0.77) is SimilarityBand.HIGH

    def test_low(self):
        assert band(0.06) is SimilarityBand.LOW

    def test_boundary_is_moderate(self):
        assert band(0.75) is SimilarityBand.MODERATE
        assert band(0.5) is SimilarityBand.MODERATE


class TestMatrix:
    def test_single_factor(self, default_lexicon):
        factor_set = make_factor_set({"safety": {"P": 1}})
        matrix = build_matrix(factor_set, SimilarityWeights(), default_lexicon)
        assert len(matrix.names) == 1
        assert matrix.scores == [] and matrix.components == []
        assert band_census(matrix) == BandCensus(0, 0, 0)

    def test_fixture_pair_count(self, sample_matrix, sample_factors, default_lexicon):
        n = len(sample_matrix.names)
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
        neighbours = similarity.neighbours(sample_matrix)
        for i, j, score in sample_matrix.scores:
            assert 0 <= i < j < len(sample_matrix.names)
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

    def test_trigram_cosine_at_the_floor_is_an_edge(self):
        # abcd and abce share one of their two trigram keys each: cosine
        # 1/sqrt(2 * 2) = 0.5 exactly, and no token, field or study. Rounded,
        # sqrt(2) * sqrt(2) exceeds 2, so a screen without slack drops it.
        a, b = make_factor("abcd", {"P": 1}), make_factor("abce", {"S": 1})
        lexicon = SemanticLexicon.build(fields={})
        assert linguistic("abcd", "abce", lexicon) == 0.5
        weights = SimilarityWeights(1.0, 0.0, 0.0)
        matrix = build_matrix(IntegratedFactorSet((a, b), 2), weights, lexicon, 0.5)
        assert matrix.scores == [(0, 1, 0.5)]
        assert matrix.components == [(0, 1, 0.5, 0.0, 0.0)]
        assert matrix.scored == 1

    def test_equal_token_sets_without_a_shared_type_reach_the_floor(self):
        # Each is counted in one space type, not the other's, and they share
        # no study: d = 0.0 and co-occurrence 0.0. Equal token sets give a
        # Jaccard of 1.0, so at the default weights the pair scores
        # 0.5 * 1.0 = 0.5, exactly the default floor.
        a = make_factor("street lighting", {"P": 1})
        b = make_factor("lighting street", {"S": 1})
        lexicon = SemanticLexicon.build(fields={})
        matrix = build_matrix(IntegratedFactorSet((a, b), 2), SimilarityWeights(), lexicon)
        assert matrix.scores == [(0, 1, 0.5)]
        assert matrix.components == [(0, 1, 1.0, 0.0, 0.0)]
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
        # Through the JSON text the artifact holds: its rows are lists.
        text = json.dumps(matrix_to_dict(sample_matrix))
        restored = matrix_from_dict(json.loads(text), sample_matrix.floor)
        assert json.dumps(matrix_to_dict(restored)) == text
        assert restored.scores == sample_matrix.scores
        assert restored.components == sample_matrix.components
        assert restored.floor == sample_matrix.floor == 0.5
        assert restored == sample_matrix._replace(scored=0)

    @pytest.mark.parametrize(
        "position,value,message",
        [
            *(
                pytest.param(
                    position,
                    value,
                    "data.components[1]: expected components in [0, 1], got [",
                    id=f"component{position}-{value}",
                )
                for position in (2, 3, 4)
                for value in (True, math.nan, -0.5, 1.5)
            ),
            pytest.param(
                0,
                True,
                "data.components[1]: expected indices 0 <= i < j < 3, after the "
                "edge before, got [True, 2]",
                id="index-i-true",
            ),
            pytest.param(
                1,
                True,
                "data.components[1]: expected indices 0 <= i < j < 3, after the "
                "edge before, got [1, True]",
                id="index-j-true",
            ),
        ],
    )
    def test_decoding_refuses_an_edge_out_of_kind_or_range(self, position, value, message):
        doc = {
            "names": ["a", "b", "c"],
            "weights": [0.5, 0.3, 0.2],
            "components": [[0, 1, 0.9, 0.9, 0.9], [1, 2, 0.9, 0.9, 0.9]],
            "scores": [],
        }
        doc["components"][1][position] = value
        with pytest.raises(TaxoforgeError) as caught:
            matrix_from_dict(doc, 0.5)
        assert caught.value.at == ("components", 1)
        assert located("data", caught.value).startswith(message)


class TestBandCensus:
    def test_counts_partition_pairs(self, sample_matrix):
        census = band_census(sample_matrix)
        assert census.total == pair_count(len(sample_matrix.names))

    def test_reported_scale_fractions(self):
        total = pair_count(1029)
        census = BandCensus(high=2847, moderate=15234, low=total - 2847 - 15234)
        assert round(100 * census.high / census.total, 2) == 0.54
        assert round(100 * census.moderate / census.total, 2) == 2.88

    def test_high_fraction_below_one(self, sample_matrix):
        census = band_census(sample_matrix)
        assert census.high / census.total < 1.0
