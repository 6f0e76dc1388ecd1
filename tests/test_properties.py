"""Randomized property suites over the pipeline's core invariants.

Every property runs in two modes: a hypothesis suite for structured edge
cases and shrinking, and a seeded bulk loop of ten thousand random cases per
criterion so the whole module still finishes well under a minute. The
pipeline-level checks use a three-domain knowledge base instead of the
packaged default to keep per-case cost low.
"""

from __future__ import annotations

import json
import math
import random
import string

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from taxoforge.applicability import indicators_for
from taxoforge.classify import (
    FactorClass,
    classification_census,
    classify,
    classify_factors,
    distribution_stats,
    entropy,
)
from taxoforge.cluster import assign_categories
from taxoforge.corpus import SPACE_TYPES, NormalizationRuleSet, normalize
from taxoforge.emit import build_framework, export_sankey, validate
from taxoforge.errors import CorpusError
from taxoforge.integrate import (
    IntegratedFactor,
    IntegratedFactorSet,
    OccurrenceVector,
    parse_tracking_notation,
    tracking_notation,
)
from taxoforge.knowledge import Domain, DomainKnowledgeBase, DomainScope, Subcategory
from taxoforge.pipeline import primary_homes
from taxoforge.placement import place_cross_cutting
from taxoforge.similarity import (
    ComponentScores,
    SemanticLexicon,
    SimilarityWeights,
    build_matrix,
    combine,
    linguistic_similarity,
    matrix_to_dict,
)

BULK_CASES = 10_000
SEED = 20260809

SUITE = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

RULES = NormalizationRuleSet(
    synonym_map={"access": "accessibility"},
    preserve_distinct=frozenset({"street travel safety"}),
)

TEXT_ALPHABET = string.ascii_letters + string.digits + " .,;:()/&-"

TINY_KB = DomainKnowledgeBase(
    domains=(
        Domain(
            identifier="ALPHA",
            scope=DomainScope.BROAD,
            keywords=("alpha", "apple"),
            subcategories=(
                Subcategory("A1", ("alpha",)),
                Subcategory("A2", ("apple",)),
            ),
            space_profile=(1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
            compatible_types=frozenset({"U"}),
        ),
        Domain(
            identifier="BETA",
            scope=DomainScope.MODERATE,
            keywords=("beta", "berry"),
            subcategories=(Subcategory("B1", ("beta", "berry")),),
            space_profile=(1.0, 0.0, 1.0, 0.0, 1.0, 0.0),
            compatible_types=frozenset(),
        ),
        Domain(
            identifier="GAMMA",
            scope=DomainScope.SPECIALIZED,
            keywords=("gamma",),
            subcategories=(Subcategory("G1", ("gamma",)),),
            space_profile=(0.0, 1.0, 0.0, 1.0, 0.0, 1.0),
            compatible_types=frozenset({"P"}),
        ),
    )
)

TINY_LEXICON = SemanticLexicon(
    fields={"everything": frozenset({"omni", "alpha", "beta", "gamma"})}
)

NAME_POOL = ("alpha", "apple pie", "beta", "berry", "gamma", "delta site", "omni")


# ---------------------------------------------------------------------------
# Random case generators (shared by hypothesis strategies and bulk loops)
# ---------------------------------------------------------------------------


def random_vector(rng: random.Random, max_count: int = 4) -> OccurrenceVector:
    while True:
        counts = tuple(rng.randint(0, max_count) for _ in range(6))
        if any(counts):
            return OccurrenceVector(counts)


def random_factor_set(rng: random.Random, max_factors: int = 4) -> IntegratedFactorSet:
    names = rng.sample(NAME_POOL, rng.randint(1, max_factors))
    study_pool = ("c1", "c2", "c3", "c4")
    factors = []
    for index, name in enumerate(names):
        vector = random_vector(rng, max_count=3)
        studies_for = frozenset(
            rng.sample(study_pool, rng.randint(1, 3))
        )
        studies = {
            code: studies_for if vector.get(code) else frozenset()
            for code in SPACE_TYPES
        }
        factors.append(IntegratedFactor(name, vector, studies, index))
    raw = sum(f.occurrence.total for f in factors)
    return IntegratedFactorSet(factors=tuple(factors), raw_record_count=raw)


@st.composite
def occurrence_vectors(draw, max_count=4):
    counts = draw(
        st.tuples(*(st.integers(min_value=0, max_value=max_count) for _ in range(6)))
    )
    assume(any(counts))
    return OccurrenceVector(counts)


@st.composite
def factor_sets(draw, max_factors=4):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_factor_set(random.Random(seed), max_factors)


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------


def check_normalize(raw: str) -> None:
    try:
        once = normalize(raw, RULES)
    except CorpusError:
        return  # reduces to nothing, rejected by contract
    assert normalize(once, RULES) == once
    assert normalize(raw.upper(), RULES) == once


def check_entropy(vector: OccurrenceVector, scale: int) -> None:
    value = entropy(vector)
    active = len(vector.active_types)
    assert 0.0 <= value <= math.log(6) + 1e-12
    assert value <= math.log(active) + 1e-12
    assert (value == 0.0) == (active == 1)
    scaled = OccurrenceVector(tuple(count * scale for count in vector.counts))
    assert entropy(scaled) == pytest.approx(value, abs=1e-9)
    if len({count for count in vector.counts if count}) == 1:
        assert value == pytest.approx(math.log(active), abs=1e-12)


def check_matrix_properties(factor_set: IntegratedFactorSet) -> None:
    matrix = build_matrix(factor_set, SimilarityWeights(), TINY_LEXICON)
    n = matrix.n
    for i in range(n):
        assert matrix.scores[i][i] == 1.0
        for j in range(n):
            assert matrix.scores[i][j] == matrix.scores[j][i]
            assert 0.0 <= matrix.scores[i][j] <= 1.0
    degenerate = SimilarityWeights(1.0, 0.0, 0.0)
    for (i, j), comp in matrix.components.items():
        assert combine(comp, degenerate) == comp.linguistic
        assert comp.linguistic == linguistic_similarity(
            matrix.names[i], matrix.names[j], TINY_LEXICON
        )


def check_blend_monotonicity(base: tuple, index: int, bump: float) -> None:
    bumped = list(base)
    bumped[index] = min(1.0, bumped[index] + bump)
    assert combine(ComponentScores(*bumped), SimilarityWeights()) >= combine(
        ComponentScores(*base), SimilarityWeights()
    )


def check_classification_partition(vectors: list[OccurrenceVector]) -> None:
    classes = [classify(distribution_stats(v)) for v in vectors]
    for vector, cls in zip(vectors, classes):
        active = len(vector.active_types)
        expected = (
            FactorClass.UNIVERSAL
            if active >= 5
            else FactorClass.MULTI_SPACE
            if active >= 3
            else FactorClass.SPACE_SPECIFIC
        )
        assert cls is expected
    factors = tuple(
        IntegratedFactor(f"f{i}", v, {c: frozenset({"s"}) for c in SPACE_TYPES}, i)
        for i, v in enumerate(vectors)
    )
    factor_set = IntegratedFactorSet(factors, sum(v.total for v in vectors))
    results = classify_factors(factor_set, TINY_KB, TINY_LEXICON)
    census = classification_census(results)
    assert census.total == len(vectors)
    assert census.universal + census.multi_space + census.space_specific == len(vectors)


def run_mini_pipeline(factor_set: IntegratedFactorSet):
    matrix = build_matrix(factor_set, SimilarityWeights(), TINY_LEXICON)
    classifications = classify_factors(factor_set, TINY_KB, TINY_LEXICON)
    assignments = assign_categories(
        factor_set, classifications, TINY_KB, matrix, TINY_LEXICON
    )
    placements = place_cross_cutting(
        factor_set, classifications, TINY_KB, matrix, assignments, TINY_LEXICON
    )
    homes = primary_homes(classifications, assignments, placements)
    domains = {name: home[0] for name, home in homes.items()}
    indicators = indicators_for(factor_set.factors, classifications, domains, TINY_KB)
    return build_framework(
        factor_set, classifications, assignments, placements, indicators, TINY_KB
    )


def check_primary_home_and_sankey(factor_set: IntegratedFactorSet) -> None:
    framework = run_mini_pipeline(factor_set)
    locations = framework.primary_locations()
    assert set(locations) == set(factor_set.names)
    assert all(len(homes) == 1 for homes in locations.values())
    report = validate(framework, factor_set)
    assert report.completeness.passed and report.hierarchy_integrity.passed
    for category in framework.categories:
        export = export_sankey(framework, category.identifier)
        expected = sum(
            parse_tracking_notation(entry.tracking_notation).total
            for sub in category.subcategories
            for entry in sub.entries
            if entry.tier == "primary"
        )
        into_types = sum(
            link.weight for link in export.links if link.target.startswith("type:")
        )
        assert into_types == expected


def check_parallel_builds_identical(factor_set: IntegratedFactorSet) -> None:
    sequential = matrix_to_dict(
        build_matrix(factor_set, SimilarityWeights(), TINY_LEXICON, jobs=1)
    )
    parallel = matrix_to_dict(
        build_matrix(factor_set, SimilarityWeights(), TINY_LEXICON, jobs=8)
    )
    assert json.dumps(sequential) == json.dumps(parallel)


# ---------------------------------------------------------------------------
# Hypothesis suites (edge cases, shrinking)
# ---------------------------------------------------------------------------


@SUITE
@given(raw=st.text(alphabet=TEXT_ALPHABET, min_size=1, max_size=24))
def test_normalize_idempotent_and_case_insensitive(raw):
    check_normalize(raw)


@SUITE
@given(vector=occurrence_vectors(max_count=9), scale=st.integers(1, 5))
def test_entropy_bounds_and_scale_invariance(vector, scale):
    check_entropy(vector, scale)


@SUITE
@given(
    factor_set=factor_sets(),
    base=st.tuples(*(st.floats(0, 1, allow_nan=False) for _ in range(3))),
    index=st.integers(0, 2),
    bump=st.floats(0, 1, allow_nan=False),
)
def test_matrix_symmetry_range_diagonal_and_weight_degeneracy(
    factor_set, base, index, bump
):
    check_matrix_properties(factor_set)
    check_blend_monotonicity(base, index, bump)


@SUITE
@given(vectors=st.lists(occurrence_vectors(), min_size=1, max_size=6))
def test_classification_partition_and_census_conservation(vectors):
    check_classification_partition(vectors)


@SUITE
@given(factor_set=factor_sets())
def test_exactly_one_primary_home_and_sankey_conservation(factor_set):
    check_primary_home_and_sankey(factor_set)


@SUITE
@given(factor_set=factor_sets())
def test_parallel_matrix_build_is_byte_identical(factor_set):
    check_parallel_builds_identical(factor_set)


@SUITE
@given(vector=occurrence_vectors(max_count=9))
def test_tracking_notation_round_trip(vector):
    assert parse_tracking_notation(tracking_notation(vector)) == vector


# ---------------------------------------------------------------------------
# Bulk randomized suites (>= 10,000 cases per criterion)
# ---------------------------------------------------------------------------


def test_bulk_normalize_idempotence():
    rng = random.Random(SEED)
    for _ in range(BULK_CASES):
        raw = "".join(
            rng.choice(TEXT_ALPHABET) for _ in range(rng.randint(1, 24))
        )
        check_normalize(raw)


def test_bulk_entropy_bounds_and_scale_invariance():
    rng = random.Random(SEED + 1)
    for _ in range(BULK_CASES):
        check_entropy(random_vector(rng, max_count=9), rng.randint(1, 5))


def test_bulk_matrix_properties_and_weight_degeneracy():
    rng = random.Random(SEED + 2)
    for _ in range(BULK_CASES):
        check_matrix_properties(random_factor_set(rng))
        base = (rng.random(), rng.random(), rng.random())
        check_blend_monotonicity(base, rng.randint(0, 2), rng.random())


def test_bulk_classification_partition_and_census():
    rng = random.Random(SEED + 3)
    for _ in range(BULK_CASES):
        vectors = [random_vector(rng) for _ in range(rng.randint(1, 5))]
        check_classification_partition(vectors)


def test_bulk_primary_home_and_sankey_conservation():
    rng = random.Random(SEED + 4)
    for _ in range(BULK_CASES):
        check_primary_home_and_sankey(random_factor_set(rng))


def test_bulk_parallel_matrix_byte_identity():
    rng = random.Random(SEED + 5)
    for _ in range(BULK_CASES):
        check_parallel_builds_identical(random_factor_set(rng))
