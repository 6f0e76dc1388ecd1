"""Randomized property suites over the pipeline's core invariants.

Every property runs in two modes: a hypothesis suite for structured edge
cases and shrinking, and a seeded bulk loop of ten thousand random cases per
criterion so the whole module still finishes well under a minute. The
pipeline-level checks use a three-domain knowledge base instead of the
packaged default to keep per-case cost low.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
import string
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from taxoforge.applicability import indicators_for
from taxoforge.classify import (
    CROSS_CUTTING_THRESHOLD,
    FactorClass,
    classify,
    classify_factors,
    classify_rows,
    distribution_stats,
    domain_relevance,
    entropy,
    primary_domain,
    relevance_rows,
)
from taxoforge.cluster import (
    DISTRIBUTION_WEIGHT,
    RELATED_THRESHOLD,
    SEMANTIC_WEIGHT,
    SIMILARITY_WEIGHT,
    argmax_domain,
    assign_categories,
    best_subcategory,
    channel_scores,
    domain_priorities,
    related_factors,
    space_fits,
    subcategory_scorer,
)
from taxoforge.corpus import (
    SPACE_TYPES,
    NormalizationRuleSet,
    load_corpus,
    normalize,
)
from taxoforge.emit import (
    build_framework,
    export_sankey,
    primary_locations,
    validate,
)
from taxoforge.errors import CorpusError
from taxoforge.integrate import (
    IntegratedFactor,
    IntegratedFactorSet,
    integrate,
)
from taxoforge.knowledge import (
    Domain,
    DomainKnowledgeBase,
    DomainScope,
    ScopePriors,
    Subcategory,
)
from taxoforge.placement import (
    COMPOSITE_WEIGHTS,
    CompositeScore,
    place_cross_cutting,
    primary_homes,
)
from taxoforge.similarity import (
    BAND_HIGH,
    SemanticLexicon,
    SimilarityMatrix,
    SimilarityWeights,
    build_matrix,
    combine,
    name_features,
    neighbours,
)
from tests.conftest import (
    assert_graph_matches_dense,
    best_subcategory_reference,
    classification_reference,
    cosine,
    dense_pairs,
    left_fold,
    relevance_row,
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

TINY_LEXICON = SemanticLexicon.build(
    fields={"everything": frozenset({"omni", "alpha", "beta", "gamma"})}
)

NAME_POOL = ("alpha", "apple pie", "beta", "berry", "gamma", "delta site", "omni")


# ---------------------------------------------------------------------------
# Random case generators (shared by hypothesis strategies and bulk loops)
# ---------------------------------------------------------------------------


def random_vector(rng: random.Random, max_count: int = 4) -> tuple[int, ...]:
    while True:
        counts = tuple(rng.randint(0, max_count) for _ in range(6))
        if any(counts):
            return counts


def random_factor_set(rng: random.Random, max_factors: int = 4) -> IntegratedFactorSet:
    names = rng.sample(NAME_POOL, rng.randint(1, max_factors))
    study_pool = ("c1", "c2", "c3", "c4")
    factors = []
    for name in names:
        vector = random_vector(rng, max_count=3)
        studies_for = frozenset(
            rng.sample(study_pool, rng.randint(1, 3))
        )
        studies = {
            code: studies_for if count else frozenset()
            for code, count in zip(SPACE_TYPES, vector)
        }
        factors.append(IntegratedFactor(name, vector, studies))
    raw = sum(sum(f.counts) for f in factors)
    return IntegratedFactorSet(factors=tuple(factors), raw_record_count=raw)


@st.composite
def occurrence_vectors(draw, max_count=4):
    counts = draw(
        st.tuples(*(st.integers(min_value=0, max_value=max_count) for _ in range(6)))
    )
    assume(any(counts))
    return counts


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


def check_entropy(vector: tuple[int, ...], scale: int) -> None:
    value = entropy(vector)
    active = sum(count > 0 for count in vector)
    assert 0.0 <= value <= math.log(6) + 1e-12
    assert value <= math.log(active) + 1e-12
    assert (value == 0.0) == (active == 1)
    scaled = tuple(count * scale for count in vector)
    assert entropy(scaled) == pytest.approx(value, abs=1e-9)
    if len({count for count in vector if count}) == 1:
        assert value == pytest.approx(math.log(active), abs=1e-12)


def check_matrix_properties(factor_set: IntegratedFactorSet) -> int:
    """Check the graph against the dense reference; return how many of the
    set's pairs share a lexicon field."""
    matrix = build_matrix(factor_set, SimilarityWeights(), TINY_LEXICON)
    # The graph against the per-pair reference functions, exactly.
    dense = dense_pairs(factor_set, SimilarityWeights(), TINY_LEXICON)
    assert_graph_matches_dense(matrix, dense)
    degenerate = SimilarityWeights(1.0, 0.0, 0.0)
    for comp, score in dense.values():
        assert 0.0 <= score <= 1.0
        assert combine(comp, degenerate) == comp[0]
    fields = [TINY_LEXICON.fields_of(name) for name in matrix.names]
    return sum(bool(fields[i] & fields[j]) for i, j in dense)


# Names for the graph-against-reference suite: "ab" and "ab cd" share a token
# but no trigram key (a name under three characters is its own key); "zz" and
# "qq" share only a lexicon field; "xy" and "vu" share nothing, so with
# proportional vectors and nested study sets they score exactly
# w_d + w_c = 0.5 at the default weights. "cd ab" has the token set of "ab cd"
# and "ababab" trigram counts proportional to those of "abab": linguistic 1.0,
# so at the default weights they reach the floor even with d = 0.0.
ORACLE_NAMES = (
    "ab", "ab cd", "cd", "xy", "vu", "zz", "qq",
    "omni", "beta", "alpha", "alphabet", "street lighting", "lighting",
    "cd ab", "abab", "ababab",
)
ORACLE_LEXICON = SemanticLexicon.build(
    fields={
        "pair": frozenset({"zz", "qq"}),
        "everything": frozenset({"omni", "alpha", "beta"}),
    }
)
# A w_d of 1.0, 0.6 or 0.5 reaches all, three or two of the floors below;
# the graph then scores every pair.
ORACLE_WEIGHTS = (
    (0.5, 0.3, 0.2),
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.2, 0.6, 0.2),
    (0.0, 0.5, 0.5),
)
ORACLE_FLOORS = (0.3, 0.5, 0.6, 0.75)


def oracle_factor_set(specs) -> IntegratedFactorSet:
    """Factors from (name, counts, study ids) triples."""
    factors = []
    for name, counts, ids in specs:
        studies = {
            code: frozenset(ids) if count else frozenset()
            for code, count in zip(SPACE_TYPES, counts)
        }
        factors.append(IntegratedFactor(name, tuple(counts), studies))
    return IntegratedFactorSet(tuple(factors), sum(sum(f.counts) for f in factors))


# Names for the repeated-trigram suite: "banana" holds "ana" twice, so its
# trigram dot products with "bananas" and "nana" count that key twice; "na",
# "a" and "an" are their own keys, and "na" is also a token of "ba na". The
# field score of 1.0 lets "banana" and "na" reach the default floor through
# their field alone.
REPEAT_NAMES = ("banana", "bananas", "nana", "ana", "na", "a", "an", "ba na", "anna")
REPEAT_LEXICON = SemanticLexicon.build(
    fields={"fruit": frozenset({"banana", "na"})}, field_score=1.0
)


@st.composite
def oracle_cases(draw, names=ORACLE_NAMES):
    names = draw(st.lists(st.sampled_from(names), min_size=1, max_size=6, unique=True))
    base = draw(occurrence_vectors(max_count=3))
    specs = []
    for name in names:
        if draw(st.booleans()):  # proportional to the others that are: d = 1
            counts = tuple(c * draw(st.integers(1, 3)) for c in base)
        else:
            counts = draw(occurrence_vectors(max_count=3))
        ids = draw(st.sets(st.sampled_from(("s1", "s2", "s3")), min_size=1))
        specs.append((name, counts, sorted(ids)))
    weights = draw(st.sampled_from(ORACLE_WEIGHTS))
    return specs, weights, draw(st.sampled_from(ORACLE_FLOORS))


def check_graph_against_oracle(specs, weights, floor, lexicon=ORACLE_LEXICON) -> None:
    factor_set = oracle_factor_set(specs)
    weights = SimilarityWeights(*weights)
    matrix = build_matrix(factor_set, weights, lexicon, floor)
    dense = dense_pairs(factor_set, weights, lexicon)
    assert_graph_matches_dense(matrix, dense, high=max(BAND_HIGH, floor), low=floor)
    if weights.distributional >= floor:
        assert matrix.scored == len(dense)  # the all-pairs path
    else:
        assert matrix.scored <= len(dense)


# Words for the bulk graph-by-space-type case. Names of one to three of them
# repeat token sets in other orders, and "abab" and "ababab" have proportional
# trigram counts; with a field score of 1.0 a shared field alone reaches the
# default floor.
TYPED_WORDS = (
    "street", "lighting", "park", "bench", "shade", "tree", "path",
    "ab", "abab", "ababab",
)
TYPED_LEXICONS = (
    TINY_LEXICON,
    SemanticLexicon.build(
        fields={
            "green": frozenset({"park", "tree", "tree park", "shade tree"}),
            "light": frozenset({"lighting", "street lighting", "path"}),
        },
        field_score=1.0,
    ),
)


def mixed_type_factor_set(rng: random.Random, size: int = 150) -> IntegratedFactorSet:
    """``size`` factors, each counted in one, two or three space types (one
    in two in a single type), each in one or two studies of a pool of 40."""
    names: dict[str, None] = {}
    while len(names) < size:
        names[" ".join(rng.sample(TYPED_WORDS, rng.randint(1, 3)))] = None
    specs = []
    for name in names:
        counts = [0] * 6
        for code in rng.sample(range(6), rng.choice((1, 1, 2, 3))):
            counts[code] = rng.randint(1, 3)
        specs.append((name, counts, rng.sample(range(40), rng.randint(1, 2))))
    return oracle_factor_set(specs)


# Words for the keyword-relevance suite: "banana" holds "ana" twice and
# "nana" once; "na" and "ab" are their own trigram keys; "zz" and "qq" share
# no token or trigram, only the lexicon field "pair"; "qqq" shares no key
# with any other word ("qq", under three characters, is its own key).
RELEVANCE_WORDS = (
    "banana", "nana", "na", "ab", "ab cd", "zz", "qq", "qqq",
    "street lighting", "lighting", "omni",
)
RELEVANCE_FIELDS = (
    {"pair": frozenset({"zz", "qq"})},
    {"pair": frozenset({"zz", "qq"}), "fruit": frozenset({"banana", "na", "omni"})},
    {},
)


@st.composite
def relevance_cases(draw):
    """(domains' keyword lists, lexicon fields, field score, names)."""
    words = st.sampled_from(RELEVANCE_WORDS) | st.text("abn qz", max_size=7)
    domains = draw(
        st.lists(st.lists(words, min_size=1, max_size=4), min_size=1, max_size=4)
    )
    fields = draw(st.sampled_from(RELEVANCE_FIELDS))
    field_score = draw(st.sampled_from((0.85, 0.4, 1.0)))
    names = draw(st.lists(words, min_size=1, max_size=5))
    return domains, fields, field_score, names


def relevance_kb(domains) -> DomainKnowledgeBase:
    return DomainKnowledgeBase(
        domains=tuple(
            Domain(
                identifier=f"D{i}",
                scope=DomainScope.BROAD,
                keywords=tuple(keywords),
                subcategories=(Subcategory(f"D{i}.1", tuple(keywords)),),
                space_profile=(1.0,) * 6,
                compatible_types=frozenset(),
            )
            for i, keywords in enumerate(domains)
        )
    )


def check_relevance_rows(domains, fields, field_score, names) -> None:
    kb = relevance_kb(domains)
    rows = relevance_rows(names, kb, SemanticLexicon.build(fields, field_score))
    reference = SemanticLexicon.build(fields, field_score)  # its own feature cache
    for name, row in zip(names, rows):
        expected = relevance_row(name, kb, reference)
        assert row == expected
        assert list(map(type, row)) == list(map(type, expected))
        for domain, keywords, score in zip(kb.domains, domains, row):
            assert domain_relevance(name, domain, reference) == score
            if name in keywords:
                assert score == 1.0
        if not any(row):
            assert primary_domain(row, kb) is None


def check_best_subcategory(groups, fields, field_score, names) -> None:
    """``best_subcategory`` over a domain whose subcategories hold the keyword
    groups equals the per-keyword reference."""
    domain = Domain(
        identifier="D",
        scope=DomainScope.BROAD,
        keywords=tuple(groups[0]),
        subcategories=tuple(
            Subcategory(f"S{i}", tuple(keywords)) for i, keywords in enumerate(groups)
        ),
        space_profile=(1.0,) * 6,
        compatible_types=frozenset(),
    )
    scorer = subcategory_scorer(domain, SemanticLexicon.build(fields, field_score))
    reference = SemanticLexicon.build(fields, field_score)  # its own feature cache
    expected = best_subcategory_reference(names, domain, reference)
    assert best_subcategory(names, domain, scorer) == expected


@st.composite
def channel_cases(draw):
    """(domains as (scope, space profile), scope priors, factors as (counts,
    relevance row, primary domain position or None), graph edges, related
    threshold); the KB has 1 to 5 domains, or 48. The values come from a
    drawn seed and repeat often, so that argmax ties are common."""
    n = draw(st.integers(1, 5) | st.just(48))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def values(count: int, zeros: float = 0.0) -> tuple[float, ...]:
        return tuple(
            0.0 if rng.random() < zeros
            else rng.choice((0.25, 0.5, 1.0, rng.uniform(0.001, 1.0)))
            for _ in range(count)
        )

    domains = [(rng.choice(list(DomainScope)), values(6, 0.3)) for _ in range(n)]
    size = draw(st.integers(1, 7))
    factors = [
        (
            draw(occurrence_vectors(max_count=2)),
            values(n, 0.5),
            draw(st.none() | st.integers(0, n - 1)),
        )
        for _ in range(size)
    ]
    pairs = [(i, j) for j in range(size) for i in range(j)]
    scores = st.sampled_from((0.5, 0.75, 0.8, 1.0))
    edges = draw(st.dictionaries(st.sampled_from(pairs), scores) if pairs else st.just({}))
    threshold = draw(st.sampled_from((RELATED_THRESHOLD, 0.5, 0.0, 1.0)))
    return domains, values(3), factors, edges, threshold


def reference_scores(
    index, fits, classification, kb, matrix, primary_domains, related_threshold
) -> dict[str, tuple[float, float, float, float]]:
    """The per-domain arithmetic the channel rows replaced: for each domain
    id, (semantic, similarity evidence, distribution, final)."""
    priors = domain_priorities(classification.factor_class, kb.scope_priors)
    related = related_factors(index, neighbours(matrix), related_threshold)
    evidence_counts: dict[str, int] = {}
    for j, _score in related:
        domain_id = primary_domains[j]
        if domain_id is not None:
            evidence_counts[domain_id] = evidence_counts.get(domain_id, 0) + 1
    scores = {}
    for domain, relevance, distribution in zip(
        kb.domains, classification.relevance, fits
    ):
        semantic = priors[domain.scope] * relevance
        evidence = (
            evidence_counts.get(domain.identifier, 0) / len(related) if related else 0.0
        )
        final = (
            SEMANTIC_WEIGHT * semantic
            + SIMILARITY_WEIGHT * evidence
            + DISTRIBUTION_WEIGHT * distribution
        )
        scores[domain.identifier] = (semantic, evidence, distribution, final)
    return scores


def check_channel_rows(domains, priors, factors, edges, threshold) -> None:
    kb = DomainKnowledgeBase(
        domains=tuple(
            Domain(f"D{k}", scope, (), (Subcategory(f"D{k}.1", ()),), profile, frozenset())
            for k, (scope, profile) in enumerate(domains)
        ),
        scope_priors=ScopePriors(*priors),
    )
    ids = kb.domain_ids()
    factor_set = IntegratedFactorSet(
        tuple(
            IntegratedFactor(f"f{i}", counts, {})
            for i, (counts, _, _) in enumerate(factors)
        ),
        sum(sum(counts) for counts, _, _ in factors),
    )
    relevance = [row for _, row, _ in factors]
    classifications = [
        result._replace(primary_domain=None if primary is None else ids[primary])
        for result, (_, _, primary) in zip(
            classify_rows(factor_set.factors, relevance, kb), factors
        )
    ]
    matrix = SimilarityMatrix(
        names=factor_set.names,
        scores=sorted((i, j, score) for (i, j), score in edges.items()),
        components=[],
        weights=SimilarityWeights(),
    )
    primary_domains = [c.primary_domain for c in classifications]
    rows = channel_scores(factor_set, classifications, kb, neighbours(matrix), threshold)
    assert len(rows) == len(factors)
    for index, (factor, row) in enumerate(zip(factor_set.factors, rows)):
        fits = [cosine(factor.counts, d.space_profile) for d in kb.domains]
        expected = reference_scores(
            index, fits, classifications[index], kb, matrix, primary_domains, threshold
        )
        channels = (row.semantic, row.similarity_evidence, row.distribution, row.final)
        for k, channel in enumerate(channels):
            # float.hex tells -0.0 from 0.0 and refuses a value that is no float
            assert [v.hex() for v in channel] == [expected[d][k].hex() for d in ids]
        best = max(ids, key=lambda domain_id: expected[domain_id][3])
        assert argmax_domain(row, ids) == best


@st.composite
def classify_cases(draw):
    """(KB size, factors as (counts, relevance row), cross-cutting
    threshold). Counts come from a pool of up to three vectors and scores
    from a few values the threshold is drawn among, so that repeated
    vectors, all-zero rows, ties and scores exactly at the threshold are
    common."""
    n = draw(st.integers(1, 5))
    pool = draw(st.lists(occurrence_vectors(max_count=2), min_size=1, max_size=3))
    levels = (0.0, 0.25, CROSS_CUTTING_THRESHOLD, 0.99, 1.0)
    scores = st.sampled_from(levels) | st.floats(0.0, 1.0)
    factors = draw(
        st.lists(
            st.tuples(st.sampled_from(pool),
                      st.tuples(*[scores] * n)),
            min_size=1,
            max_size=8,
        )
    )
    return n, factors, draw(st.sampled_from(levels))


def check_classify_rows(n, factors, threshold) -> None:
    kb = relevance_kb([[f"k{i}"] for i in range(n)])
    built = tuple(
        IntegratedFactor(f"f{i}", counts, {})
        for i, (counts, _) in enumerate(factors)
    )
    rows = [row for _, row in factors]
    assert classify_rows(built, rows, kb, threshold) == [
        classification_reference(factor, row, kb, threshold)
        for factor, row in zip(built, rows)
    ]


def check_blend_monotonicity(base: tuple, index: int, bump: float) -> None:
    bumped = list(base)
    bumped[index] = min(1.0, bumped[index] + bump)
    assert combine(bumped, SimilarityWeights()) >= combine(base, SimilarityWeights())


def check_classification_partition(vectors: list[tuple[int, ...]]) -> None:
    classes = [classify(distribution_stats(v)) for v in vectors]
    for vector, cls in zip(vectors, classes):
        active = sum(count > 0 for count in vector)
        expected = (
            FactorClass.UNIVERSAL
            if active >= 5
            else FactorClass.MULTI_SPACE
            if active >= 3
            else FactorClass.SPACE_SPECIFIC
        )
        assert cls is expected
    factors = tuple(
        IntegratedFactor(f"f{i}", v, {c: frozenset({"s"}) for c in SPACE_TYPES})
        for i, v in enumerate(vectors)
    )
    factor_set = IntegratedFactorSet(factors, sum(map(sum, vectors)))
    results = classify_factors(factor_set, TINY_KB, TINY_LEXICON)
    census = Counter(r.factor_class for r in results)
    assert census == Counter(classes) and census.total() == len(vectors)


def run_mini_pipeline(factor_set: IntegratedFactorSet):
    edges = neighbours(build_matrix(factor_set, SimilarityWeights(), TINY_LEXICON))
    classifications = classify_factors(factor_set, TINY_KB, TINY_LEXICON)
    assignments = assign_categories(
        factor_set, classifications, TINY_KB, edges, TINY_LEXICON
    )
    placements = place_cross_cutting(
        factor_set, classifications, TINY_KB, edges, assignments, TINY_LEXICON
    )
    homes = primary_homes(assignments, placements)
    domains = {name: home[0] for name, home in homes.items()}
    indicators = indicators_for(factor_set.factors, classifications, domains, TINY_KB)
    return build_framework(
        factor_set, classifications, homes, placements, indicators, TINY_KB
    )


def check_primary_home_and_sankey(factor_set: IntegratedFactorSet) -> None:
    framework = run_mini_pipeline(factor_set)
    locations = primary_locations(framework)
    assert set(locations) == set(factor_set.names)
    assert all(len(homes) == 1 for homes in locations.values())
    report = validate(framework, factor_set)
    assert report["completeness"]["passed"]
    assert report["hierarchy_integrity"]["passed"]
    counts = {f.canonical_name: f.counts for f in factor_set.factors}
    for category in framework["categories"]:
        _, links = export_sankey(framework, factor_set, category["identifier"])
        expected = sum(
            sum(counts[entry["canonical_name"]])
            for sub in category["subcategories"]
            for entry in sub["entries"]
            if entry["tier"] == "primary"
        )
        into_types = sum(w for _, target, w in links if target.startswith("type:"))
        assert into_types == expected


Record = tuple[str, str, str]  # raw_name, study_id, space_type


def reference_fold(
    records: list[Record], rules: NormalizationRuleSet
) -> IntegratedFactorSet:
    """``integrate`` without its memo: every record's name is normalized."""
    order: list[str] = []
    counts: dict[str, dict[str, int]] = {}
    studies: dict[str, dict[str, set[str]]] = {}
    for position, (raw_name, study_id, space_type) in enumerate(records, start=1):
        try:
            name = normalize(raw_name, rules)
        except CorpusError as exc:
            raise CorpusError(f"record {position}: {exc}") from exc
        if name not in counts:
            order.append(name)
            counts[name] = {code: 0 for code in SPACE_TYPES}
            studies[name] = {code: set() for code in SPACE_TYPES}
        counts[name][space_type] += 1
        studies[name][space_type].add(study_id)
    factors = tuple(
        IntegratedFactor(
            canonical_name=name,
            counts=tuple(counts[name].values()),
            studies={code: frozenset(ids) for code, ids in studies[name].items()},
        )
        for name in order
    )
    return IntegratedFactorSet(factors=factors, raw_record_count=len(records))


# Names that fold together under RULES: a synonym, a preserved name, and
# punctuation that splits or joins tokens.
FOLD_NAMES = (
    "safety",
    "access",
    "accessibility",
    "street travel safety",
    "thermal comfort",
    "comfort/vitality",
    "comfort vitality",
    "barrier-free",
)
UNNORMALIZABLE = "..."


@st.composite
def spellings(draw):
    """A fold name with random case, padding and boundary punctuation."""
    name = draw(st.sampled_from(FOLD_NAMES))
    cased = "".join(c.upper() if draw(st.booleans()) else c for c in name)
    edges = st.sampled_from(("", " ", "  ", ".", "(", ";", " -", ", "))
    return draw(edges) + cased + draw(edges)


BLANK_ROWS = ("\n", ",,\n", " , , \n", "  \n")
PADDING = st.sampled_from(("", " ", "  "))


@st.composite
def faulty_rows(draw, pool):
    """The cells of a row the loader refuses, and the problem it names."""
    name, study, code = draw(st.sampled_from(pool)), "s1", "P"
    fault = draw(st.sampled_from(("short", "long", "name", "study", "code")))
    if fault == "short":
        return [name, study], "expected 3 fields, got 2"
    if fault == "long":
        return [name, study, code, "x"], "expected 3 fields, got 4"
    if fault == "name":
        return ["", study, code], "empty raw_name"
    if fault == "study":
        return [name, "", code], "empty study_id"
    return [name, study, "X"], "unknown space type 'X'"


@st.composite
def dataset_rows(draw):
    """A dataset's rows as written text, the record each record row holds,
    and the first refused row, as its index in the text and its problem, if
    any. Records come from a few spellings, so rows repeat, and each row is
    padded and quoted at random: a space in the name may become a line break
    inside quotes. Blank rows come between, and in some datasets rows the
    loader refuses."""
    pool = draw(st.lists(spellings(), min_size=1, max_size=4))
    if draw(st.booleans()):
        pool.append(UNNORMALIZABLE)
    record_rows = st.tuples(
        st.sampled_from(pool), st.sampled_from(("s1", "s2")), st.sampled_from("PS")
    ).map(lambda cells: (list(cells), None))
    rows = st.none() | record_rows
    if draw(st.booleans()):
        rows |= faulty_rows(pool)
    texts: list[str] = []
    records: list[Record] = []
    fault: tuple[int, str] | None = None
    for row in draw(st.lists(rows, min_size=1, max_size=30)):
        if row is None:
            texts.append(draw(st.sampled_from(BLANK_ROWS)))
            continue
        cells, problem = row
        cells = [draw(PADDING) + cell + draw(PADDING) for cell in cells]
        if draw(st.booleans()):
            cells[0] = cells[0].replace(" ", "\n", 1)
        quoting = draw(st.sampled_from((csv.QUOTE_MINIMAL, csv.QUOTE_ALL)))
        buffer = io.StringIO()
        csv.writer(buffer, quoting=quoting, lineterminator="\n").writerow(cells)
        if problem is None:
            records.append(tuple(cell.strip() for cell in cells))
        elif fault is None:
            fault = (len(texts), problem)
        texts.append(buffer.getvalue())
    assume(records or fault)  # an empty corpus is refused before any fold
    return texts, records, fault


def check_loaded_fold_against_reference(
    texts: list[str], records: list[Record], fault: tuple[int, str] | None
):
    """Loading the rows folds them per spelling, and folding the loaded
    corpus equals ``reference_fold`` over the rows taken one by one; a name
    that cannot be normalized is named at the line of its first row, and a
    refused row at the line it starts on."""
    starts, line = [], 2  # the header is line 1
    for text in texts:
        starts.append(line)
        line += text.count("\n")
    lines = [start for start, text in zip(starts, texts) if text not in BLANK_ROWS]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        path.write_text("raw_name,study_id,space_type\n" + "".join(texts), "utf-8")
        if fault is not None:
            index, problem = fault
            with pytest.raises(CorpusError) as raised:
                load_corpus(path)
            assert str(raised.value) == f"{path}: row {starts[index]}: {problem}"
            return
        corpus = load_corpus(path)
        tallies: dict[str, dict[str, list]] = {}
        for raw_name, study_id, space_type in records:
            tally = tallies.setdefault(raw_name, {}).setdefault(space_type, [0, set()])
            tally[0] += 1
            tally[1].add(study_id)
        loaded = [(record.raw_name, record.tallies) for record in corpus.records]
        assert loaded == list(tallies.items())
        try:
            expected = reference_fold(records, RULES)
        except CorpusError as exc:
            position, problem = re.fullmatch(r"record (\d+): (.*)", str(exc)).groups()
            with pytest.raises(CorpusError) as raised:
                integrate(corpus, RULES)
            where = f"{path}: row {lines[int(position) - 1]}"
            assert str(raised.value) == f"{where}: {problem}"
            return
        assert integrate(corpus, RULES) == expected


# ---------------------------------------------------------------------------
# Hypothesis suites (edge cases, shrinking)
# ---------------------------------------------------------------------------


@SUITE
@given(raw=st.text(alphabet=TEXT_ALPHABET, min_size=1, max_size=24))
def test_normalize_idempotent_and_case_insensitive(raw):
    check_normalize(raw)


def collapsing_reference(rules: NormalizationRuleSet, text: str) -> str:
    """The surface-form rules as once composed, which collapsed whitespace
    again after stripping punctuation whatever ``whitespace_collapse`` said;
    with the option on, ``base_normalize`` must equal it on every input."""
    if rules.case_folding:
        text = text.casefold()
    text = " ".join(text.split())
    if rules.punctuation_strip:
        if "-" in rules.punctuation_strip:
            text = re.sub(r"(?<!\w)-|-(?!\w)", " ", text)
        chars = rules.punctuation_strip.replace("-", "")
        text = " ".join(text.translate(str.maketrans(dict.fromkeys(chars, " "))).split())
    return text.strip()


# Letters whose case folding changes their length, and the whitespace that
# str.split() knows beyond the space.
SURFACE_ALPHABET = TEXT_ALPHABET + "_'ßİΣς\t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000"


@SUITE
@given(
    raw=st.text(alphabet=SURFACE_ALPHABET, max_size=24) | st.text(max_size=12),
    case_folding=st.booleans(),
    punctuation=st.text(alphabet=".,;:()/&-_' \t", max_size=6),
)
def test_collapsing_base_normalize_equals_the_old_composition(
    raw, case_folding, punctuation
):
    rules = NormalizationRuleSet(case_folding=case_folding, punctuation_strip=punctuation)
    assert rules.base_normalize(raw) == collapsing_reference(rules, raw)


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


P1 = (1, 1, 0, 0, 0, 0)
P2 = (2, 2, 0, 0, 0, 0)
ONLY_P = (2, 0, 0, 0, 0, 0)
ONLY_S = (0, 1, 0, 0, 0, 0)
ONLY_U = (0, 0, 1, 0, 0, 0)
FIELD_ONE_LEXICON = SemanticLexicon.build(fields=ORACLE_LEXICON.fields, field_score=1.0)


@SUITE
@given(case=oracle_cases())
@example(case=([("xy", P1, ["s1"]), ("vu", P2, ["s1", "s2"])], (0.5, 0.3, 0.2), 0.5))
@example(case=([("ab", P1, ["s1"]), ("ab cd", P1, ["s2"])], (0.5, 0.3, 0.2), 0.5))
@example(case=([("zz", P1, ["s1"]), ("qq", P2, ["s2"])], (0.5, 0.3, 0.2), 0.5))
@example(case=([("xy", P1, ["s1"]), ("vu", P2, ["s2"])], (0.0, 1.0, 0.0), 0.5))
@example(case=([("ab cd", ONLY_P, ["s1"]), ("cd ab", ONLY_S, ["s2"])], (0.5, 0.3, 0.2), 0.5))
@example(case=([("abab", ONLY_P, ["s1"]), ("ababab", ONLY_S, ["s2"])], (0.5, 0.3, 0.2), 0.5))
# A row of types P and S and a factor of type U alone reach the floor through
# an equal token set, a shared study or a shared field scoring 1.0 alone.
@example(case=([("ab cd", P1, ["s1"]), ("cd ab", ONLY_U, ["s2"])], (0.5, 0.3, 0.2), 0.5))
@example(
    case=([("street lighting", P1, ["s1"]), ("lighting", ONLY_U, ["s1"])], (0.5, 0.3, 0.2), 0.5)
)
@example(
    case=(
        [("zz", P1, ["s1"]), ("qq", ONLY_U, ["s2"])], (0.5, 0.3, 0.2), 0.5, FIELD_ONE_LEXICON
    )
)
def test_pruned_graph_equals_dense_oracle(case):
    check_graph_against_oracle(*case)


@SUITE
@given(case=oracle_cases(REPEAT_NAMES))
@example(case=([("banana", P1, ["s1"]), ("nana", P2, ["s2"])], (1.0, 0.0, 0.0), 0.5))
@example(case=([("na", P1, ["s1"]), ("ba na", P1, ["s2"])], (0.5, 0.3, 0.2), 0.5))
@example(case=([("banana", ONLY_P, ["s1"]), ("na", ONLY_S, ["s2"])], (0.5, 0.3, 0.2), 0.5))
def test_repeated_and_short_trigrams_equal_dense_oracle(case):
    check_graph_against_oracle(*case, lexicon=REPEAT_LEXICON)


def trigram_reference(name: str) -> tuple[dict[str, int], tuple[str, ...], int]:
    """A name's trigram counts, one position at a time (a name under three
    characters is its own key), its keys each listed once per occurrence
    in order of first place, and its squared norm."""
    if len(name) < 3:
        counts = {name: 1}
    else:
        counts = {}
        for i in range(len(name) - 2):
            counts[name[i : i + 3]] = counts.get(name[i : i + 3], 0) + 1
    listed = tuple(gram for gram, m in counts.items() for _ in range(m))
    return counts, listed, sum(m * m for m in counts.values())


@SUITE
@given(name=st.text("abn ", max_size=10) | st.sampled_from(REPEAT_NAMES))
@example(name="")
@example(name="ababa")
def test_name_features_equal_per_position_reference(name):
    counts, listed, norm = trigram_reference(name)
    f = name_features(name, REPEAT_LEXICON)
    assert list(f.trigrams.items()) == list(counts.items())
    assert (f.grams_listed, f.trigram_norm_sq) == (listed, norm)
    assert f.tokens == frozenset(name.split())
    assert f.fields == REPEAT_LEXICON.fields_of(name)


@SUITE
@given(case=relevance_cases())
@example(case=([["na", "ab cd"], ["ab"]], {}, 0.85, ["na", "ab", "n"]))
@example(case=([["banana"], ["nana", "na"]], {}, 0.85, ["nana", "banana", "ana"]))
@example(case=([["qq"], ["banana"]], RELEVANCE_FIELDS[0], 0.85, ["zz"]))
@example(case=([["banana", "zz"], ["banana"]], {}, 1.0, ["banana", "lighting"]))
@example(case=([["banana"], ["street lighting"]], {}, 0.85, ["xyz w"]))
# a keyword twice in one group and in two groups
@example(case=([["banana", "na", "banana"], ["na"]], {}, 0.85, ["nana", "banana"]))
@example(case=([["zz", "zz"], ["qq", "zz"]], RELEVANCE_FIELDS[0], 0.4, ["qq", "zz"]))
def test_keyword_relevance_rows_equal_per_keyword_reference(case):
    check_relevance_rows(*case)


@SUITE
@given(case=relevance_cases())
# a tie between subcategories goes to the first
@example(case=([["banana"], ["nana", "banana"]], {}, 0.85, ["banana"]))
# no keyword matches: the first subcategory
@example(case=([["qq"], ["banana"]], {}, 0.85, ["xyz w"]))
# "banana" in both subcategories, a multi-name subcluster
@example(case=([["banana", "na"], ["ab", "banana"]], {}, 0.85, ["nana", "ab cd"]))
# the field bonus alone picks the second subcategory
@example(case=([["banana"], ["qq"]], RELEVANCE_FIELDS[0], 0.85, ["zz"]))
# the names summed in order tie (the first wins); summed last to first, the
# second subcategory's mean is higher in the last bit
@example(
    case=(
        [["f c"], ["k b"]],
        {},
        0.85,
        ["b a h d i j c k", "g a c f d b h j", "e h b j c"],
    )
)
# a keyword twice in one subcategory and in both
@example(case=([["na", "ab", "na"], ["banana", "na"]], {}, 0.85, ["nana", "ab cd"]))
@example(case=([["qq", "qq"], ["zz", "qq"]], RELEVANCE_FIELDS[0], 1.0, ["zz"]))
def test_best_subcategory_equals_per_keyword_reference(case):
    check_best_subcategory(*case)


FLAT = (1.0,) * 6
# a factor with no relevance and no primary domain, against two domains
UNMATCHED = ((1, 0, 0, 0, 0, 0), (0.0, 0.0), None)


@SUITE
@given(case=classify_cases())
# all-zero rows, each domain relevant at a threshold of 0.0
@example(case=(2, [((1, 0, 0, 0, 0, 0), (0.0, 0.0))] * 2, 0.0))
@example(case=(2, [((1, 0, 0, 0, 0, 0), (0.0, 0.0))] * 2, CROSS_CUTTING_THRESHOLD))
# ties between domains go to the first in KB order
@example(
    case=(
        3,
        [((1, 1, 0, 0, 0, 0), (0.5, 0.9, 0.9)), ((0, 1, 0, 0, 0, 0), (0.9,) * 3)],
        0.99,
    )
)
# scores exactly at the threshold count as relevant
@example(
    case=(
        4,
        [
            ((1, 1, 1, 0, 0, 0), (0.6, 0.6, 0.6, 0.0)),
            ((1, 1, 1, 0, 0, 0), (0.6, 0.59, 0.6, 0.6)),
        ],
        CROSS_CUTTING_THRESHOLD,
    )
)
def test_classify_rows_equal_per_factor_reference(case):
    check_classify_rows(*case)


@SUITE
@given(case=channel_cases())
# a tie on every channel goes to the first domain in KB order
@example(case=([(DomainScope.BROAD, FLAT)] * 2, (1.0, 0.8, 0.6), [UNMATCHED], {}, 0.75))
@example(
    case=(
        [(DomainScope.BROAD, FLAT), (DomainScope.SPECIALIZED, (0.0, 1.0) * 3)],
        (1.0, 0.8, 0.6),
        [((1, 1, 0, 0, 0, 0), (0.5, 0.5), 1), UNMATCHED, ((0, 1, 0, 0, 0, 0), (0.2, 0.9), 0)],
        {(0, 1): 0.9, (0, 2): 0.8, (1, 2): 0.5},
        0.75,
    )
)
# three of five neighbours share a home: 3 / 5 is not 3 * (1 / 5)
@example(
    case=(
        [(DomainScope.BROAD, FLAT), (DomainScope.MODERATE, FLAT)],
        (1.0, 0.8, 0.6),
        [UNMATCHED] + [((1, 0, 0, 0, 0, 0), (0.5, 0.0), k // 3) for k in range(5)],
        {(0, j): 0.9 for j in range(1, 6)},
        0.75,
    )
)
@example(
    case=(
        [(list(DomainScope)[k % 3], (k % 5 / 4,) + FLAT[1:]) for k in range(48)],
        (0.9, 0.5, 0.25),
        [
            ((2, 0, 1, 0, 0, 0), tuple(k % 7 / 6 for k in range(48)), 47),
            ((2, 0, 1, 0, 0, 0), (0.0,) * 48, None),
            ((0, 0, 0, 0, 0, 1), (0.5,) * 48, 3),
        ],
        {(0, 1): 1.0, (0, 2): 0.8, (1, 2): 0.8},
        0.75,
    )
)
def test_channel_rows_equal_per_domain_reference(case):
    check_channel_rows(*case)


@SUITE
@given(vectors=st.lists(occurrence_vectors(), min_size=1, max_size=6))
def test_classification_partition_and_census_conservation(vectors):
    check_classification_partition(vectors)


@SUITE
@given(factor_set=factor_sets())
def test_exactly_one_primary_home_and_sankey_conservation(factor_set):
    check_primary_home_and_sankey(factor_set)


WEIGHTS = st.floats(min_value=1e-3, max_value=10.0) | st.just(0.0)


@SUITE
@given(
    parts=st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 4),
    profile=st.tuples(*[WEIGHTS] * len(SPACE_TYPES)).filter(any),
    vector=occurrence_vectors(max_count=9),
)
def test_composite_and_space_fits_are_left_folds(parts, profile, vector):
    # Compensated float sum() (Python 3.12+) would move their last bits.
    weighted = zip(COMPOSITE_WEIGHTS, parts)
    assert CompositeScore(*parts).composite == left_fold(w * p for w, p in weighted)
    domain = TINY_KB.domains[0]._replace(space_profile=profile)
    factor = IntegratedFactor("alpha", vector, {})
    factor_set = IntegratedFactorSet(factors=(factor,), raw_record_count=sum(vector))
    fits = space_fits(factor_set, DomainKnowledgeBase(domains=(domain,)))
    assert fits == {vector: (cosine(vector, profile),)}


@SUITE
@given(dataset=dataset_rows())
def test_loaded_fold_equals_per_row_reference(dataset):
    check_loaded_fold_against_reference(*dataset)


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
    field_pairs = 0
    for _ in range(BULK_CASES):
        field_pairs += check_matrix_properties(random_factor_set(rng))
        base = (rng.random(), rng.random(), rng.random())
        check_blend_monotonicity(base, rng.randint(0, 2), rng.random())
    assert field_pairs > 0  # the field-bonus branch was exercised


def test_bulk_graph_by_space_type_equals_dense_oracle():
    # At the default weights a row pairs with the one-type factors outside
    # its types only through a study, a field or a duplicate; at (1, 0, 0)
    # every row is scored over all factors. Both give the reference graph.
    rng = random.Random(SEED + 5)
    for lexicon in TYPED_LEXICONS * 2:
        factor_set = mixed_type_factor_set(rng)
        for weights in ((0.5, 0.3, 0.2), (1.0, 0.0, 0.0)):
            weights = SimilarityWeights(*weights)
            matrix = build_matrix(factor_set, weights, lexicon)
            dense = dense_pairs(factor_set, weights, lexicon)
            assert_graph_matches_dense(matrix, dense)
            zero = [row for row in matrix.components if not row[3]]
            assert zero  # edges with d = 0.0 were found


def test_bulk_classification_partition_and_census():
    rng = random.Random(SEED + 3)
    for _ in range(BULK_CASES):
        vectors = [random_vector(rng) for _ in range(rng.randint(1, 5))]
        check_classification_partition(vectors)


def test_bulk_primary_home_and_sankey_conservation():
    rng = random.Random(SEED + 4)
    for _ in range(BULK_CASES):
        check_primary_home_and_sankey(random_factor_set(rng))

