"""Pairwise factor similarity: components, weighted blend, matrix, banding.

Three components feed every pair score:

* linguistic: the best of token-set Jaccard, character-trigram cosine, and a
  semantic-field bonus granted when both names belong to one declared field
  of the lexicon file;
* distributional: cosine over the two six-type occurrence count vectors;
* co-occurrence: overlap coefficient over the factors' study sets.

The blend uses configurable weights (defaults 0.5 / 0.3 / 0.2). Scores above
0.75 band as High, 0.5..0.75 as Moderate, below 0.5 as Low.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from .errors import LexiconError, TaxoforgeError, require_number
from .integrate import IntegratedFactor, IntegratedFactorSet, OccurrenceVector

DEFAULT_FIELD_SCORE = 0.85

BAND_HIGH = 0.75
BAND_LOW = 0.5


@dataclass(frozen=True)
class SemanticLexicon:
    """Named semantic fields; co-membership earns the field score."""

    fields: Mapping[str, frozenset[str]]
    field_score: float = DEFAULT_FIELD_SCORE

    def fields_of(self, name: str) -> frozenset[str]:
        return frozenset(
            field for field, terms in self.fields.items() if name in terms
        )

    def share_field(self, a: str, b: str) -> bool:
        return bool(self.fields_of(a) & self.fields_of(b))


def load_lexicon(path: str | Path) -> SemanticLexicon:
    path = Path(path)
    if not path.exists():
        raise LexiconError(f"lexicon file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise LexiconError(f"cannot parse lexicon file {path}: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise LexiconError(f"lexicon file {path} must be a mapping")
    field_score = require_number(
        doc.get("field_score", DEFAULT_FIELD_SCORE), "lexicon field_score", LexiconError
    )
    if not 0.0 <= field_score <= 1.0:
        raise LexiconError(f"field_score {field_score} out of range [0, 1]")
    fields_doc = doc.get("fields") or {}
    if not isinstance(fields_doc, dict):
        raise LexiconError("lexicon section 'fields' must be a mapping")
    fields: dict[str, frozenset[str]] = {}
    for name, terms in fields_doc.items():
        if not isinstance(terms, list) or not terms:
            raise LexiconError(f"lexicon field {name!r} must list at least one term")
        fields[str(name)] = frozenset(" ".join(str(t).casefold().split()) for t in terms)
    return SemanticLexicon(fields=fields, field_score=field_score)


def _tokens(name: str) -> frozenset[str]:
    return frozenset(name.split())


def _trigrams(name: str) -> dict[str, int]:
    if len(name) < 3:
        return {name: 1}
    grams: dict[str, int] = {}
    for i in range(len(name) - 2):
        gram = name[i : i + 3]
        grams[gram] = grams.get(gram, 0) + 1
    return grams


def _int_cosine(dot: int, norm_sq_a: int, norm_sq_b: int) -> float:
    # Integer norms keep proportional vectors at exactly 1.0: their squared
    # dot product equals the norm product, and sqrt of a perfect square is
    # exact.
    if dot == 0:
        return 0.0
    return min(1.0, dot / math.sqrt(norm_sq_a * norm_sq_b))


def _counter_cosine(a: Mapping[str, int], b: Mapping[str, int]) -> float:
    dot = sum(count * b.get(gram, 0) for gram, count in a.items())
    return _int_cosine(
        dot,
        sum(count * count for count in a.values()),
        sum(count * count for count in b.values()),
    )


def token_jaccard(a: str, b: str) -> float:
    ta, tb = _tokens(a), _tokens(b)
    union = ta | tb
    if not union:
        return 0.0
    return len(ta & tb) / len(union)


def trigram_cosine(a: str, b: str) -> float:
    return _counter_cosine(_trigrams(a), _trigrams(b))


def linguistic_similarity(a: str, b: str, lexicon: SemanticLexicon) -> float:
    """Best of token overlap, trigram cosine, and the shared-field bonus."""
    score = max(token_jaccard(a, b), trigram_cosine(a, b))
    if lexicon.share_field(a, b):
        score = max(score, lexicon.field_score)
    return score


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    if dot == 0:
        return 0.0
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(y * y for y in b))
    return min(1.0, dot / (norm_a * norm_b))


def distributional_similarity(va: OccurrenceVector, vb: OccurrenceVector) -> float:
    """Cosine over the raw six-type count vectors."""
    if va.total == 0 or vb.total == 0:
        raise TaxoforgeError("distributional similarity needs non-zero vectors")
    return _int_cosine(
        sum(x * y for x, y in zip(va.counts, vb.counts)),
        sum(x * x for x in va.counts),
        sum(y * y for y in vb.counts),
    )


def co_occurrence_strength(a: IntegratedFactor, b: IntegratedFactor) -> float:
    """Overlap coefficient over the union-across-typologies study sets."""
    sa, sb = a.all_studies, b.all_studies
    if not sa or not sb:
        raise TaxoforgeError("co-occurrence needs non-empty study sets")
    return len(sa & sb) / min(len(sa), len(sb))


@dataclass(frozen=True)
class ComponentScores:
    linguistic: float
    distributional: float
    co_occurrence: float

    def __post_init__(self) -> None:
        for value in (self.linguistic, self.distributional, self.co_occurrence):
            if not 0.0 <= value <= 1.0:
                raise TaxoforgeError(f"component score {value} out of range [0, 1]")


@dataclass(frozen=True)
class SimilarityWeights:
    linguistic: float = 0.5
    distributional: float = 0.3
    co_occurrence: float = 0.2

    def __post_init__(self) -> None:
        values = (self.linguistic, self.distributional, self.co_occurrence)
        if any(v < 0 for v in values):
            raise TaxoforgeError("similarity weights must be non-negative")
        if abs(sum(values) - 1.0) > 1e-9:
            raise TaxoforgeError(f"similarity weights must sum to 1, got {sum(values)}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.linguistic, self.distributional, self.co_occurrence)


def combine(components: ComponentScores, weights: SimilarityWeights) -> float:
    return (
        weights.linguistic * components.linguistic
        + weights.distributional * components.distributional
        + weights.co_occurrence * components.co_occurrence
    )


class SimilarityBand(Enum):
    HIGH = "High"
    MODERATE = "Moderate"
    LOW = "Low"


def band(
    score: float, high: float = BAND_HIGH, low: float = BAND_LOW
) -> SimilarityBand:
    """Band a pair score; the high boundary itself is Moderate."""
    if not 0.0 <= score <= 1.0:
        raise TaxoforgeError(f"score {score} out of range [0, 1]")
    if score > high:
        return SimilarityBand.HIGH
    if score >= low:
        return SimilarityBand.MODERATE
    return SimilarityBand.LOW


def pair_count(n: int) -> int:
    """Unique unordered pairs over n factors: n(n-1)/2."""
    return n * (n - 1) // 2


@dataclass
class SimilarityMatrix:
    """Symmetric pair scores with the per-pair component breakdown."""

    names: tuple[str, ...]
    scores: list[list[float]]
    components: dict[tuple[int, int], ComponentScores]
    weights: SimilarityWeights

    @property
    def n(self) -> int:
        return len(self.names)


def _pair_components(
    fa: IntegratedFactor, fb: IntegratedFactor, lexicon: SemanticLexicon
) -> ComponentScores:
    return ComponentScores(
        linguistic=linguistic_similarity(fa.canonical_name, fb.canonical_name, lexicon),
        distributional=distributional_similarity(fa.occurrence, fb.occurrence),
        co_occurrence=co_occurrence_strength(fa, fb),
    )


def build_matrix(
    factor_set: IntegratedFactorSet,
    weights: SimilarityWeights,
    lexicon: SemanticLexicon,
    jobs: int = 1,
) -> SimilarityMatrix:
    """Compute the full symmetric matrix with unit diagonal.

    Cells are independent, so the row partitioning used for jobs > 1 cannot
    change any value; output is identical at every parallelism degree.
    """
    factors = factor_set.factors
    if not factors:
        raise TaxoforgeError("cannot build a similarity matrix for an empty set")
    n = len(factors)
    scores = [[0.0] * n for _ in range(n)]
    components: dict[tuple[int, int], ComponentScores] = {}

    def row(i: int) -> list[tuple[int, ComponentScores, float]]:
        out = []
        for j in range(i + 1, n):
            comp = _pair_components(factors[i], factors[j], lexicon)
            out.append((j, comp, combine(comp, weights)))
        return out

    if jobs > 1 and n > 2:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(row, range(n)))
    else:
        rows = [row(i) for i in range(n)]

    for i, entries in enumerate(rows):
        scores[i][i] = 1.0
        for j, comp, value in entries:
            components[(i, j)] = comp
            scores[i][j] = value
            scores[j][i] = value
    return SimilarityMatrix(
        names=factor_set.names,
        scores=scores,
        components=components,
        weights=weights,
    )


@dataclass(frozen=True)
class BandCensus:
    high: int
    moderate: int
    low: int

    @property
    def total(self) -> int:
        return self.high + self.moderate + self.low


def band_census(
    matrix: SimilarityMatrix, high: float = BAND_HIGH, low: float = BAND_LOW
) -> BandCensus:
    """Count unique pairs per band; the diagonal is excluded."""
    counts = {SimilarityBand.HIGH: 0, SimilarityBand.MODERATE: 0, SimilarityBand.LOW: 0}
    for i in range(matrix.n):
        for j in range(i + 1, matrix.n):
            counts[band(matrix.scores[i][j], high, low)] += 1
    return BandCensus(
        high=counts[SimilarityBand.HIGH],
        moderate=counts[SimilarityBand.MODERATE],
        low=counts[SimilarityBand.LOW],
    )


def matrix_to_dict(matrix: SimilarityMatrix) -> dict:
    """JSON-ready mirror with a provenance header."""
    return {
        "n": matrix.n,
        "weights": list(matrix.weights.as_tuple()),
        "names": list(matrix.names),
        "scores": [list(row) for row in matrix.scores],
        "components": [
            [i, j, comp.linguistic, comp.distributional, comp.co_occurrence]
            for (i, j), comp in sorted(matrix.components.items())
        ],
    }


def matrix_from_dict(doc: dict) -> SimilarityMatrix:
    weights = SimilarityWeights(*doc["weights"])
    components = {
        (int(i), int(j)): ComponentScores(l, d, c)
        for i, j, l, d, c in doc["components"]
    }
    return SimilarityMatrix(
        names=tuple(doc["names"]),
        scores=[list(row) for row in doc["scores"]],
        components=components,
        weights=weights,
    )
