"""Pairwise factor similarity: components, weighted blend, matrix, banding.

Three components feed every pair score:

* linguistic: the best of token-set Jaccard, character-trigram cosine, and a
  semantic-field bonus granted when both names belong to one declared field
  of the lexicon file;
* distributional: cosine over the two six-type occurrence count vectors;
* co-occurrence: overlap coefficient over the factors' study sets.

The blend uses configurable weights (defaults 0.5 / 0.3 / 0.2). Scores above
0.75 band as High, 0.5..0.75 as Moderate, below 0.5 as Low.

Downstream phases read only pairs at or above ``floor``, the lowest of the
band_low, subcluster and related thresholds, so ``build_matrix`` returns the
exact thresholded graph: the edges scoring at least ``floor``, each with its
components, plus per-factor neighbour lists. Only candidate pairs are scored:
those whose names share a token, a trigram key or a lexicon field, or whose
factors share a study (the exact candidate generation of All-Pairs, Bayardo,
Ma and Srikant, WWW 2007). Any other pair has linguistic and co-occurrence
components of exactly 0.0, so its score is ``w_d * d <= w_d``; while
``w_d < floor`` none of them is an edge and every one of them is Low. When
``w_d >= floor`` every pair is scored. Either way ``band_census`` is exact:
High and Moderate come from the edges, Low is the rest of the n(n-1)/2 pairs.
``all_pair_scores`` runs the same pair function over every pair, for
``--emit-pairs``.

What the linguistic component reads of a name (its token set, trigram counts
and their squared norm, and its lexicon fields) is computed once per name and
lexicon and cached on the lexicon, so the pairs of the graph and the keyword
scoring of classify and cluster share it. Each factor's occurrence norm and
merged study set are likewise read once per build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import mul
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .codec import decode, read_yaml
from .errors import LexiconError, TaxoforgeError, is_unit_number
from .integrate import IntegratedFactor, IntegratedFactorSet, OccurrenceVector

DEFAULT_FIELD_SCORE = 0.85

BAND_HIGH = 0.75
BAND_LOW = 0.5


@dataclass(frozen=True)
class NameFeatures:
    """What linguistic similarity reads of one name."""

    tokens: frozenset[str]
    trigrams: dict[str, int]
    grams: frozenset[str]  # the trigram keys, for a set intersection per pair
    trigram_norm_sq: int
    fields: frozenset[str]


@dataclass(frozen=True)
class SemanticLexicon:
    """Named semantic fields; co-membership earns the field score.

    Each name's ``NameFeatures`` is built once and kept on the lexicon, so two
    lexicons never share field sets and the cache lives as long as its lexicon.
    """

    fields: Mapping[str, frozenset[str]]
    field_score: float = DEFAULT_FIELD_SCORE

    @cached_property
    def _term_fields(self) -> dict[str, frozenset[str]]:
        index: dict[str, set[str]] = {}
        for field, terms in self.fields.items():
            for term in terms:
                index.setdefault(term, set()).add(field)
        return {term: frozenset(fields) for term, fields in index.items()}

    @cached_property
    def _features(self) -> dict[str, NameFeatures]:
        return {}

    def fields_of(self, name: str) -> frozenset[str]:
        return self._term_fields.get(name, frozenset())

    def features(self, name: str) -> NameFeatures:
        found = self._features.get(name)
        if found is None:
            found = self._features[name] = name_features(name, self)
        return found


@dataclass(frozen=True)
class LexiconFile:
    """The lexicon file as written; ``load_lexicon`` reads it."""

    fields: Mapping[str, tuple[str, ...]] | None = None
    field_score: float = DEFAULT_FIELD_SCORE

    def __post_init__(self) -> None:
        if not 0.0 <= self.field_score <= 1.0:
            raise LexiconError(f"field_score: {self.field_score} out of range [0, 1]")
        for name, terms in (self.fields or {}).items():
            if not terms:
                raise LexiconError(f"fields.{name}: expected at least one term")


def load_lexicon(path: str | Path) -> SemanticLexicon:
    """The lexicon in the YAML file ``path``, its terms case-folded and
    whitespace-collapsed. A value of the wrong kind, a null term, an empty
    field or a ``field_score`` outside [0, 1] raises ``LexiconError`` naming
    the file and the field."""
    path = Path(path)
    doc = read_yaml(path, "lexicon", LexiconError)
    lexicon = decode(LexiconFile, doc, f"lexicon file {path}: ", LexiconError)
    fields = {
        name: frozenset(" ".join(term.casefold().split()) for term in terms)
        for name, terms in (lexicon.fields or {}).items()
    }
    return SemanticLexicon(fields=fields, field_score=float(lexicon.field_score))


def name_features(name: str, lexicon: SemanticLexicon) -> NameFeatures:
    """Build one name's record; ``SemanticLexicon.features`` caches it."""
    if len(name) < 3:
        trigrams = {name: 1}
    else:
        trigrams = {}
        for i in range(len(name) - 2):
            gram = name[i : i + 3]
            trigrams[gram] = trigrams.get(gram, 0) + 1
    return NameFeatures(
        tokens=frozenset(name.split()),
        trigrams=trigrams,
        grams=frozenset(trigrams),
        trigram_norm_sq=sum(count * count for count in trigrams.values()),
        fields=lexicon.fields_of(name),
    )


def _int_cosine(dot: int, norm_sq_a: int, norm_sq_b: int) -> float:
    # Integer norms keep proportional vectors at exactly 1.0: their squared
    # dot product equals the norm product, and sqrt of a perfect square is
    # exact.
    if dot == 0:
        return 0.0
    return min(1.0, dot / math.sqrt(norm_sq_a * norm_sq_b))


def _linguistic(fa: NameFeatures, fb: NameFeatures, field_score: float) -> float:
    """Best of token-set Jaccard, trigram cosine, and the shared-field bonus."""
    shared = len(fa.tokens & fb.tokens)
    union = len(fa.tokens) + len(fb.tokens) - shared
    score = shared / union if union else 0.0
    common = fa.grams & fb.grams
    if common:  # otherwise the trigram cosine is 0.0
        ga, gb = fa.trigrams, fb.trigrams
        dot = sum([ga[gram] * gb[gram] for gram in common])
        score = max(score, _int_cosine(dot, fa.trigram_norm_sq, fb.trigram_norm_sq))
    if not fa.fields.isdisjoint(fb.fields):
        score = max(score, field_score)
    return score


def linguistic_similarity(a: str, b: str, lexicon: SemanticLexicon) -> float:
    """Best of token overlap, trigram cosine, and the shared-field bonus."""
    return _linguistic(lexicon.features(a), lexicon.features(b), lexicon.field_score)


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


@dataclass(frozen=True, slots=True)
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
    """The thresholded similarity graph.

    ``scores`` lists every pair scoring at least ``floor`` as ``(i, j, score)``
    with ``i < j``, sorted by ``(i, j)``; a pair it does not list scores below
    ``floor``. ``components`` holds the breakdown of each listed pair, in the
    same order. A graph given in full may leave ``floor`` at 0.0.
    """

    names: tuple[str, ...]
    scores: list[tuple[int, int, float]]
    components: dict[tuple[int, int], ComponentScores]
    weights: SimilarityWeights
    floor: float = 0.0
    scored: int = 0  # pairs the build scored; 0 for a decoded graph

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def neighbours(self) -> list[list[tuple[int, float]]]:
        """Per factor, ``(other, score)`` of each of its edges, by index."""
        out: list[list[tuple[int, float]]] = [[] for _ in self.names]
        for i, j, score in self.scores:
            out[i].append((j, score))
            out[j].append((i, score))
        return out


class _PairScorer:
    """The per-factor inputs of the pair score, read once, and the one
    function that scores a pair from them."""

    def __init__(
        self,
        factor_set: IntegratedFactorSet,
        weights: SimilarityWeights,
        lexicon: SemanticLexicon,
    ) -> None:
        factors = factor_set.factors
        if not factors:
            raise TaxoforgeError("cannot build a similarity matrix for an empty set")
        self.n = n = len(factors)
        self.studies = studies = [f.all_studies for f in factors]
        for k, factor in enumerate(factors if n > 1 else ()):
            if factor.occurrence.total == 0 or not studies[k]:
                # Raise what the first pair holding this factor raises.
                other = factors[1] if k == 0 else factor
                distributional_similarity(factors[0].occurrence, other.occurrence)
                co_occurrence_strength(factors[0], other)
        self.features = [lexicon.features(f.canonical_name) for f in factors]
        self.counts = [f.occurrence.counts for f in factors]
        self.norms = [sum(x * x for x in c) for c in self.counts]
        self.sizes = [len(s) for s in studies]
        self.field_score = lexicon.field_score
        self.weights = weights

    def score_row(
        self, i: int, others: Iterable[int]
    ) -> Iterator[tuple[int, ComponentScores, float]]:
        """``(j, components, score)`` of the pair of ``i`` and each ``j``.

        The components equal ``linguistic_similarity``,
        ``distributional_similarity`` and ``co_occurrence_strength`` of the
        pair, each of which is symmetric.
        """
        features, counts, norms = self.features, self.counts, self.norms
        studies, sizes = self.studies, self.sizes
        field_score, weights = self.field_score, self.weights
        fa, ca, na, sa, size_a = features[i], counts[i], norms[i], studies[i], sizes[i]
        for j in others:
            comp = ComponentScores(
                _linguistic(fa, features[j], field_score),
                _int_cosine(sum(map(mul, ca, counts[j])), na, norms[j]),
                len(sa & studies[j]) / min(size_a, sizes[j]),
            )
            yield j, comp, combine(comp, weights)

    def every_row(self) -> Iterator[tuple[int, range]]:
        """Each ``i`` with every ``j > i``."""
        for i in range(self.n):
            yield i, range(i + 1, self.n)

    def candidate_rows(self) -> Iterator[tuple[int, set[int]]]:
        """Each ``i`` with every ``j < i`` whose name shares a token, a trigram
        key or a lexicon field with its name, or whose factor shares a study.

        Any other pair has linguistic and co-occurrence components of exactly
        0.0. One inverted index per kind of key is filled as ``i`` grows, so
        the postings met for ``i`` hold only smaller indices.
        """
        postings: tuple[dict[str, list[int]], ...] = ({}, {}, {}, {})
        for i, (names, studies) in enumerate(zip(self.features, self.studies)):
            found: set[int] = set()
            keyed = (names.tokens, names.grams, names.fields, studies)
            for index, keys in zip(postings, keyed):
                for key in keys:
                    posting = index.get(key)
                    if posting is None:
                        index[key] = [i]
                    else:
                        found.update(posting)
                        posting.append(i)
            yield i, found


def build_matrix(
    factor_set: IntegratedFactorSet,
    weights: SimilarityWeights,
    lexicon: SemanticLexicon,
    floor: float = BAND_LOW,
) -> SimilarityMatrix:
    """The graph of every pair scoring at least ``floor``, exactly.

    A pair outside ``_PairScorer.candidate_rows`` scores ``w_d * d``, at most
    ``w_d``. So while ``w_d < floor`` only the candidates are scored; else
    every pair is. The default floor is the lowest default threshold.
    """
    scorer = _PairScorer(factor_set, weights, lexicon)
    if weights.distributional < floor:
        rows = scorer.candidate_rows()
    else:
        rows = scorer.every_row()
    edges = []
    scored = 0
    for i, others in rows:
        scored += len(others)
        for j, comp, score in scorer.score_row(i, others):
            if score >= floor:
                edges.append((i, j, score, comp) if i < j else (j, i, score, comp))
    edges.sort(key=lambda edge: (edge[0], edge[1]))
    return SimilarityMatrix(
        names=factor_set.names,
        scores=[(i, j, score) for i, j, score, _ in edges],
        components={(i, j): comp for i, j, _, comp in edges},
        weights=weights,
        floor=floor,
        scored=scored,
    )


def all_pair_scores(
    factor_set: IntegratedFactorSet,
    weights: SimilarityWeights,
    lexicon: SemanticLexicon,
) -> Iterator[tuple[int, int, float]]:
    """Every pair's score in ``(i, j)`` order, by the graph's pair function."""
    scorer = _PairScorer(factor_set, weights, lexicon)
    for i, others in scorer.every_row():
        for j, _, score in scorer.score_row(i, others):
            yield i, j, score


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
    """Count unique pairs per band.

    High and Moderate pairs are all edges, since ``low`` is at or above the
    floor; every other pair is Low.
    """
    counts = {SimilarityBand.HIGH: 0, SimilarityBand.MODERATE: 0, SimilarityBand.LOW: 0}
    for _, _, score in matrix.scores:
        counts[band(score, high, low)] += 1
    above = counts[SimilarityBand.HIGH] + counts[SimilarityBand.MODERATE]
    return BandCensus(
        high=counts[SimilarityBand.HIGH],
        moderate=counts[SimilarityBand.MODERATE],
        low=pair_count(matrix.n) - above,
    )


def matrix_to_dict(matrix: SimilarityMatrix) -> dict:
    """JSON-ready mirror: the edges and their components, in (i, j) order."""
    return {
        "n": matrix.n,
        "weights": list(matrix.weights.as_tuple()),
        "names": list(matrix.names),
        "floor": matrix.floor,
        "scores": [[i, j, score] for i, j, score in matrix.scores],
        "components": [
            [i, j, comp.linguistic, comp.distributional, comp.co_occurrence]
            for (i, j), comp in matrix.components.items()
        ],
    }


def matrix_from_dict(doc: dict) -> SimilarityMatrix:
    """Decode the graph from the components of its edges, each edge's score
    being their blend, and refuse an edge list ``build_matrix`` cannot
    produce. The names, weights and floor are taken as written, and
    ``scores`` is not read."""
    n, floor, rows = doc["n"], doc["floor"], doc["components"]
    weights = SimilarityWeights(*doc["weights"])
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == 5 for row in rows
    ):
        raise TaxoforgeError("similarity components must be a list of 5-item rows")
    scores: list[tuple[int, int, float]] = []
    components: dict[tuple[int, int], ComponentScores] = {}
    for i, j, *parts in rows:
        if not (type(i) is int and type(j) is int and 0 <= i < j < n) or (
            scores and (i, j) <= scores[-1][:2]
        ):
            raise TaxoforgeError(
                f"similarity components edge [{i!r}, {j!r}]: expected indices "
                f"0 <= i < j < {n}, after the edge before"
            )
        if not all(is_unit_number(x) for x in parts):
            raise TaxoforgeError(
                f"similarity components of edge [{i}, {j}] must be numbers in [0, 1]"
            )
        comp = components[(i, j)] = ComponentScores(*parts)
        score = combine(comp, weights)
        if score < floor:
            raise TaxoforgeError(
                f"similarity components of edge [{i}, {j}] blend to {score}, "
                f"below the floor {floor}"
            )
        scores.append((i, j, score))
    return SimilarityMatrix(
        names=tuple(doc["names"]),
        scores=scores,
        components=components,
        weights=weights,
        floor=floor,
    )
