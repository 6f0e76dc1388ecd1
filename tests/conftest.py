"""Shared fixtures: default config files, the worked-example corpus, a
corpus loaded from rows written to a file, builders for the small factor
sets the worked tables exercise, and the one-pair-at-a-time references the
counting code is tested against."""

from __future__ import annotations

import csv
import math
import typing
from pathlib import Path

import pytest

from taxoforge import pipeline
from taxoforge.classify import (
    CROSS_CUTTING_MIN_DOMAINS,
    ClassificationResult,
    CrossCuttingAssessment,
    CrossCuttingStatus,
    classify,
    classify_factors,
    distribution_stats,
)
from taxoforge.corpus import (
    CSV_HEADER,
    SPACE_TYPES,
    Corpus,
    RulesFile,
    load_corpus,
    load_rules,
)
from taxoforge.errors import TaxoforgeError
from taxoforge.integrate import IntegratedFactor, IntegratedFactorSet, integrate
from taxoforge.knowledge import (
    KbFile,
    default_kb_path,
    default_lexicon_path,
    default_rules_path,
    load_kb,
)
from taxoforge.similarity import (
    BAND_HIGH,
    BAND_LOW,
    BandCensus,
    LexiconFile,
    SimilarityBand,
    SimilarityMatrix,
    SimilarityWeights,
    band,
    band_census,
    build_matrix,
    combine,
    load_lexicon,
    neighbours,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def default_rules():
    return load_rules(default_rules_path())


@pytest.fixture(scope="session")
def default_kb():
    return load_kb(default_kb_path())


@pytest.fixture(scope="session")
def default_lexicon():
    return load_lexicon(default_lexicon_path())


@pytest.fixture(scope="session")
def sample_corpus():
    return load_corpus(FIXTURES / "sample_corpus.csv")


@pytest.fixture(scope="session")
def sample_factors(sample_corpus, default_rules):
    return integrate(sample_corpus, default_rules)


@pytest.fixture(scope="session")
def sample_matrix(sample_factors, default_lexicon):
    return build_matrix(sample_factors, SimilarityWeights(), default_lexicon)


def load_rows(directory: Path, rows, name: str = "rows.csv") -> Corpus:
    """The corpus ``load_corpus`` reads from the dataset file ``name`` in
    ``directory``, written with the header and ``rows``, each a
    ``(raw_name, study_id, space_type)``."""
    path = directory / name
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    return load_corpus(path)


def counts_of(mapping: dict) -> tuple[int, ...]:
    """The counts ``mapping`` gives per typology code, in ``SPACE_TYPES``
    order, 0 for a code it does not name."""
    return tuple(mapping.get(code, 0) for code in SPACE_TYPES)


def make_factor(name: str, counts: dict, studies: dict | None = None) -> IntegratedFactor:
    vector = counts_of(counts)
    if studies is None:
        studies = {
            code: frozenset({f"{name}-{code}"}) if count else frozenset()
            for code, count in zip(SPACE_TYPES, vector)
        }
    return IntegratedFactor(canonical_name=name, counts=vector, studies=studies)


def make_factor_set(patterns: dict[str, dict]) -> IntegratedFactorSet:
    factors = tuple(make_factor(name, counts) for name, counts in patterns.items())
    return IntegratedFactorSet(
        factors=factors,
        raw_record_count=sum(sum(f.counts) for f in factors),
    )


# Occurrence patterns from the worked classification examples.
CLASSIFICATION_PATTERNS = {
    "safety": {"P": 1, "S": 1, "U": 1, "O": 1, "F": 1},
    "accessibility": {"P": 1, "S": 1, "U": 1, "O": 4, "F": 2},
    "street travel safety": {"S": 1},
    "comfort": {"P": 1, "S": 1, "U": 1, "O": 1, "F": 1},
    "thermal comfort": {"P": 1, "O": 1, "U": 1},
    "physical comfort": {"P": 1, "U": 1, "O": 1, "F": 1},
    "lighting": {"P": 1, "S": 1, "O": 1},
    "water features": {"P": 1},
    "security": {"P": 1, "S": 1, "U": 1, "O": 1, "F": 1},
    "visibility": {"P": 1, "S": 1, "O": 1},
    "biodiversity": {"P": 1, "G": 1},
    "temperature": {"P": 1, "O": 1, "U": 1},
}


@pytest.fixture(scope="session")
def classification_factor_set():
    return make_factor_set(CLASSIFICATION_PATTERNS)


@pytest.fixture(scope="session")
def classification_fixture(classification_factor_set, default_kb, default_lexicon):
    return classify_factors(classification_factor_set, default_kb, default_lexicon)


# The eight worked cluster-assignment factors plus their cited neighbours,
# with the cited pair scores seeded into a small matrix.
CLUSTER_FIXTURE_PATTERNS = {
    "safety": {"P": 1, "S": 1, "U": 1, "O": 1, "F": 1},
    "lighting": {"P": 1, "S": 1, "O": 1},
    "thermal comfort": {"P": 1, "U": 1, "O": 1},
    "wheelchair access": {"F": 1},
    "water features": {"P": 1},
    "biodiversity": {"P": 1, "G": 1},
    "surveillance": {"S": 1, "U": 1},
    "accessibility": {"P": 1, "S": 1, "U": 1, "O": 4, "F": 2},
    "security": {"P": 1, "U": 1},
    "protection": {"P": 1, "S": 1},
    "monitoring": {"S": 1, "U": 1},
    "visibility": {"P": 1, "S": 1, "O": 1},
    "illumination": {"S": 1, "O": 1},
    "temperature": {"P": 1, "U": 1, "O": 1},
    "microclimate": {"P": 1, "O": 1},
    "humidity": {"P": 1, "O": 1},
    "barrier-free": {"U": 1, "F": 1},
    "ada compliance": {"F": 1},
    "physical access": {"U": 1, "F": 1},
    "inclusion": {"S": 1, "U": 1, "O": 1, "F": 1},
    "natural elements": {"P": 1, "G": 1},
    "fountains": {"P": 1},
    "aquatic": {"P": 1},
    "vegetation": {"P": 1, "G": 1},
    "ecology": {"P": 1, "G": 1},
    "wildlife": {"G": 1},
}

CLUSTER_FIXTURE_PAIRS = {
    ("safety", "security"): 0.77,
    ("safety", "surveillance"): 0.68,
    ("safety", "protection"): 0.72,
    ("lighting", "visibility"): 0.72,
    ("lighting", "illumination"): 0.89,
    ("thermal comfort", "temperature"): 0.93,
    ("thermal comfort", "microclimate"): 0.85,
    ("thermal comfort", "humidity"): 0.78,
    ("wheelchair access", "accessibility"): 0.91,
    ("wheelchair access", "barrier-free"): 0.86,
    ("wheelchair access", "ada compliance"): 0.89,
    ("water features", "natural elements"): 0.69,
    ("water features", "fountains"): 0.85,
    ("water features", "aquatic"): 0.76,
    ("biodiversity", "vegetation"): 0.82,
    ("biodiversity", "ecology"): 0.88,
    ("biodiversity", "wildlife"): 0.75,
    ("surveillance", "security"): 0.84,
    ("surveillance", "monitoring"): 0.79,
    ("accessibility", "physical access"): 0.91,
    ("accessibility", "barrier-free"): 0.86,
    ("accessibility", "inclusion"): 0.73,
}


def left_fold(values) -> float:
    """``values`` added one at a time from the left, as ``sum()`` of floats
    did before Python 3.12."""
    total = 0.0
    for value in values:
        total = total + value
    return total


def cosine(a, b) -> float:
    """The space fit's reference: the cosine of two vectors, 0.0 when their
    dot product is 0, at most 1.0. Its sums are left folds."""
    dot = left_fold(x * y for x, y in zip(a, b))
    if dot == 0:
        return 0.0
    norm_a = math.sqrt(left_fold(x * x for x in a))
    norm_b = math.sqrt(left_fold(y * y for y in b))
    return min(1.0, dot / (norm_a * norm_b))


def linguistic_similarity(a: str, b: str, lexicon) -> float:
    """The linguistic reference, one pair of names at a time: the best of
    token-set Jaccard, trigram cosine and the shared-field bonus, by the
    operations the package's counting scorers must match bit for bit."""
    fa, fb = lexicon.features(a), lexicon.features(b)
    shared = len(fa.tokens & fb.tokens)
    union = len(fa.tokens) + len(fb.tokens) - shared
    score = shared / union if union else 0.0
    common = fa.trigrams.keys() & fb.trigrams.keys()
    if common:  # otherwise the trigram cosine is 0.0
        dot = sum([fa.trigrams[gram] * fb.trigrams[gram] for gram in common])
        cosine = dot / math.sqrt(fa.trigram_norm_sq * fb.trigram_norm_sq)
        score = max(score, min(1.0, cosine))
    if not fa.fields.isdisjoint(fb.fields):
        score = max(score, lexicon.field_score)
    return score


def distributional_similarity(a: tuple[int, ...], b: tuple[int, ...]) -> float:
    """The distributional reference: the cosine of two factors' counts, from
    integer sums, as the graph's build computes it."""
    if not sum(a) or not sum(b):
        raise TaxoforgeError("distributional similarity needs non-zero vectors")
    dot = sum(x * y for x, y in zip(a, b))
    if dot == 0:
        return 0.0
    norm_sq = sum(x * x for x in a) * sum(y * y for y in b)
    return min(1.0, dot / math.sqrt(norm_sq))


def co_occurrence_strength(a: IntegratedFactor, b: IntegratedFactor) -> float:
    """The co-occurrence reference: the overlap coefficient of two factors'
    studies, merged across the space types."""
    sa, sb = a.all_studies, b.all_studies
    if not sa or not sb:
        raise TaxoforgeError("co-occurrence needs non-empty study sets")
    return len(sa & sb) / min(len(sa), len(sb))


def keyword_match(name: str, keywords, lexicon) -> float:
    """The best reference score of the name against one of the keywords."""
    return max(linguistic_similarity(name, keyword, lexicon) for keyword in keywords)


def relevance_row(name: str, kb, lexicon) -> tuple[float, ...]:
    """The factor's relevance to every domain, in KB order, one keyword at a
    time: the reference ``classify.relevance_rows`` must equal."""
    return tuple(keyword_match(name, domain.keywords, lexicon) for domain in kb.domains)


def best_subcategory_reference(names, domain, lexicon) -> str:
    """The subcategory choice one keyword at a time: the first subcategory
    with the strictly highest mean match, summed over the names in order;
    the first subcategory when every mean is 0.0."""
    best_id, best = domain.subcategories[0].identifier, 0.0
    for sub in domain.subcategories:
        total = 0.0
        for name in names:
            total += keyword_match(name, sub.keywords, lexicon)
        mean = total / len(names)
        if mean > best:
            best_id, best = sub.identifier, mean
    return best_id


def fields_of(lexicon, name: str) -> frozenset[str]:
    """The reference field set of a name: every declared field listing it
    as a term."""
    return frozenset(field for field, terms in lexicon.fields.items() if name in terms)


def primary_domain(relevance, kb) -> str | None:
    """The reference primary domain, one domain at a time: the first
    strictly highest relevance, None when every relevance is 0.0."""
    best_id, best = None, 0.0
    for domain, score in zip(kb.domains, relevance):
        if score > best:
            best_id, best = domain.identifier, score
    return best_id


def classification_reference(factor, relevance, kb, threshold) -> ClassificationResult:
    """What classify says of one factor given its relevance row, one domain
    at a time: the reference ``classify.classify_rows`` must equal per
    factor."""
    stats = distribution_stats(factor.counts)
    relevant = tuple(
        domain.identifier for domain, score in zip(kb.domains, relevance)
        if score >= threshold
    )
    best_id = primary_domain(relevance, kb)
    count = len(relevant)
    cross_cutting = CrossCuttingAssessment(
        relevant, count, CrossCuttingStatus.from_score(count),
        count >= CROSS_CUTTING_MIN_DOMAINS,
    )
    return ClassificationResult(
        factor.canonical_name, best_id, cross_cutting.flagged, relevance,
        stats, classify(stats), cross_cutting,
    )


def seeded_matrix(names: list[str], pairs: dict, weights=None) -> SimilarityMatrix:
    """A graph holding exactly the given pair scores as its edges."""
    index = {name: i for i, name in enumerate(names)}
    edges = sorted(
        (min(index[a], index[b]), max(index[a], index[b]), score)
        for (a, b), score in pairs.items()
    )
    return SimilarityMatrix(
        names=tuple(names),
        scores=edges,
        components=[],
        weights=weights or SimilarityWeights(),
    )


def dense_pairs(factor_set, weights, lexicon) -> dict:
    """The all-pairs reference: (i, j) -> (components, score) for every i < j,
    from the per-pair component functions."""
    factors = factor_set.factors
    out = {}
    for i, a in enumerate(factors):
        for j in range(i + 1, len(factors)):
            b = factors[j]
            comp = (
                linguistic_similarity(a.canonical_name, b.canonical_name, lexicon),
                distributional_similarity(a.counts, b.counts),
                co_occurrence_strength(a, b),
            )
            out[(i, j)] = (comp, combine(comp, weights))
    return out


def assert_graph_matches_dense(matrix, dense: dict, high=BAND_HIGH, low=BAND_LOW):
    """The graph's edges, components and census equal the reference's."""
    expected = {pair: hit for pair, hit in dense.items() if hit[1] >= matrix.floor}
    assert [(i, j) for i, j, _ in matrix.scores] == sorted(expected)
    assert [(i, j) for i, j, *_ in matrix.components] == sorted(expected)
    for (i, j, score), (_, _, *parts) in zip(matrix.scores, matrix.components):
        assert (tuple(parts), score) == expected[(i, j)]
    bands = [band(score, high, low) for _, score in dense.values()]
    assert band_census(matrix, high, low) == BandCensus(
        high=bands.count(SimilarityBand.HIGH),
        moderate=bands.count(SimilarityBand.MODERATE),
        low=bands.count(SimilarityBand.LOW),
    )


@pytest.fixture(scope="session")
def cluster_fixture():
    factor_set = make_factor_set(CLUSTER_FIXTURE_PATTERNS)
    matrix = seeded_matrix(list(CLUSTER_FIXTURE_PATTERNS), CLUSTER_FIXTURE_PAIRS)
    return factor_set, matrix


def build_pipeline_outputs(factor_set, kb, lexicon, matrix=None):
    """Run phases 2..6 in memory and return everything emit needs."""
    from taxoforge.applicability import indicators_for
    from taxoforge.cluster import assign_categories, space_fits, subcategory_chooser
    from taxoforge.placement import place_cross_cutting, primary_homes

    if matrix is None:
        matrix = build_matrix(factor_set, SimilarityWeights(), lexicon)
    edges = neighbours(matrix)
    classifications = classify_factors(factor_set, kb, lexicon)
    choose = subcategory_chooser(kb, lexicon)
    fits = space_fits(factor_set, kb)
    assigned, _ = assign_categories(factor_set, classifications, kb, edges, fits, choose)
    placements = place_cross_cutting(
        factor_set, classifications, kb, edges, assigned, fits, choose
    )
    homes = primary_homes(assigned, placements)
    domains = {name: home[0] for name, home in homes.items()}
    indicators = indicators_for(factor_set.factors, classifications, domains, kb)
    return classifications, homes, placements, indicators


@pytest.fixture(scope="session")
def sample_framework(sample_factors, sample_matrix, default_kb, default_lexicon):
    from taxoforge.emit import build_framework, validate

    classifications, homes, placements, indicators = build_pipeline_outputs(
        sample_factors, default_kb, default_lexicon, sample_matrix
    )
    framework = build_framework(
        sample_factors,
        classifications,
        homes,
        placements,
        indicators,
        default_kb,
    )
    report = validate(framework, sample_factors)
    return framework, report


def _add_records(kind: object, found: set[type]) -> None:
    """Add to ``found`` every record class ``kind`` reaches through field
    annotations, ``kind`` itself included when it is a record."""
    if hasattr(kind, "_fields") and kind not in found:
        found.add(kind)
        for hint in typing.get_type_hints(kind).values():
            _add_records(hint, found)
    for arg in typing.get_args(kind):
        _add_records(arg, found)


def records_read() -> set[type]:
    """Every record class the codec reads in an input file or an artifact.
    similarity.json, which keeps its own codec, has no type in ARTIFACTS."""
    files = [pipeline.ConfigFile, KbFile, LexiconFile, RulesFile]
    artifacts = [kind for _, _, kind, _ in pipeline.ARTIFACTS.values() if kind]
    found: set[type] = set()
    for kind in files + artifacts:
        _add_records(kind, found)
    return found
