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
components, plus per-factor neighbour lists.

The build counts instead of intersecting. One inverted index per kind of key
(tokens, trigrams, lexicon fields, studies) lists the factors holding each
key; a trigram's posting holds a factor once per occurrence. For each factor
``i`` in turn, ``collections.Counter`` over the chained postings of its keys
gives, for every later factor ``j``, the shared-token count, the exact
integer trigram dot product, the shared-field count and the shared-study
count. The pair is then scored from those counts by the same operations as
the per-pair definitions, so each score and component is bit-for-bit theirs.
The linguistic component is the token Jaccard (0.0 for two empty token
sets), then its ``max`` with the trigram cosine when the dot product is not
0, then its ``max`` with the field score when a field is shared;
``distributional_similarity``, ``co_occurrence_strength`` and ``combine`` give
the rest. ``tests/conftest.py`` keeps the per-pair linguistic score as the
reference the build and the keyword scoring are tested against.

Only candidate pairs are scored: those sharing at least one key (the exact
candidate generation of All-Pairs, Bayardo, Ma and Srikant, WWW 2007, here
in the scan-count form of Sarawagi and Kirpal, SIGMOD 2004). Any other pair
has linguistic and co-occurrence components of exactly 0.0, so its score is
``w_d * d <= w_d``; while ``w_d < floor`` none of them is an edge and every
one of them is Low. When ``w_d >= floor`` every pair is scored. Either way
``band_census`` is exact: High and Moderate come from the edges, Low is the
rest of the n(n-1)/2 pairs. ``all_pair_scores`` runs the same row kernel
over every pair, for ``--emit-pairs``.

Most candidates share nothing but trigram keys. Such a pair has linguistic
component ``c``, its trigram cosine, and co-occurrence 0.0, so it scores
``w_l * c + w_d * d`` with ``d <= 1``. Before it is scored it must pass one
comparison, ``dot >= t * sqrt(n_i) * sqrt(n_j)`` with ``n`` the squared
trigram norms and ``t = (floor - w_d - SCREEN_SLACK) / w_l``. The screen is
conservative. ``t``, the right-hand side and the cosine the scorer computes
from the same integers take about ten correctly rounded float operations
(difference, square root, product, quotient) on numbers of at most a few
units, each off by at most one part in 2**53, so together they err by under
2e-15. A pair the screen drops thus has ``w_l * c`` below
``floor - w_d - SCREEN_SLACK + 2e-15``, and its blend, two more rounded
operations on numbers at most 1, stays below ``floor - 1e-9 + 3e-15``, short
of the floor. The slack is absolute, not relative to ``t``, so the argument
holds even when ``w_d`` lies within rounding of the floor.

``KeywordScorer`` applies the same counting to groups of keywords: the
domains' keyword lists for classify's factor-by-domain relevance, and one
domain's subcategory keyword lists for cluster's and placement's subcategory
choice. It keeps postings of the distinct keywords' tokens, trigram keys (a
keyword once per occurrence) and lexicon fields. For a name,
``collections.Counter`` over the postings of the name's keys gives each
keyword sharing a key the shared-token count and the exact integer trigram
dot product, and a set lookup gives the shared fields; the keyword is scored
by the linguistic component's operations in their order. Every other keyword
scores exactly 0.0 under the per-pair definition too: its token Jaccard is
0/union (or 0.0 for two empty token sets), its trigram cosine is never taken,
and it earns no field bonus. A group's score is the ``max`` over its
keywords in the group's order.

What the linguistic component reads of a name (its token set, trigram counts
and their squared norm, and its lexicon fields) is computed once per name and
lexicon and cached on the lexicon, so the pairs of the graph and the keyword
scoring of classify and cluster share it. Each factor's occurrence norm and
merged study set are likewise read once per build.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import mul
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .codec import decode, read_yaml
from .errors import LexiconError, TaxoforgeError, is_unit_number
from .integrate import IntegratedFactor, IntegratedFactorSet, OccurrenceVector

DEFAULT_FIELD_SCORE = 0.85

BAND_HIGH = 0.75
BAND_LOW = 0.5

# Absolute slack under the floor in the trigram-only screen, far above the
# float error of the comparison and the blend; see the module docstring.
SCREEN_SLACK = 1e-9


@dataclass(frozen=True)
class NameFeatures:
    """What linguistic similarity reads of one name."""

    tokens: frozenset[str]
    trigrams: dict[str, int]
    grams_listed: tuple[str, ...]  # the trigram keys, each once per occurrence
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
        grams_listed=tuple(g for g, m in trigrams.items() for _ in range(m)),
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
        if not all(v >= 0.0 for v in values):  # NaN fails the comparison too
            raise TaxoforgeError(
                f"similarity weights must be non-negative, got {values}"
            )
        if not abs(sum(values) - 1.0) <= 1e-9:
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
    scored: int = 0  # candidate pairs of the build; 0 for a decoded graph

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
    """The per-factor inputs of the pair score, read once, and the row kernel
    that scores each factor's pairs from the keys the two share."""

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
        studies = [f.all_studies for f in factors]
        for k, factor in enumerate(factors if n > 1 else ()):
            if factor.occurrence.total == 0 or not studies[k]:
                # Raise what the first pair holding this factor raises.
                other = factors[1] if k == 0 else factor
                distributional_similarity(factors[0].occurrence, other.occurrence)
                co_occurrence_strength(factors[0], other)
        features = [lexicon.features(f.canonical_name) for f in factors]
        # Each factor's keys of each kind: tokens, trigrams (each once per
        # occurrence, so shared counts are the integer dot product), lexicon
        # fields and studies.
        self.keys = [
            (f.tokens, f.grams_listed, f.fields, s)
            for f, s in zip(features, studies)
        ]
        self.token_counts = [len(f.tokens) for f in features]
        self.gram_norms = [f.trigram_norm_sq for f in features]
        self.gram_roots = [math.sqrt(norm) for norm in self.gram_norms]
        self.counts = [f.occurrence.counts for f in factors]
        self.norms = [sum(x * x for x in c) for c in self.counts]
        self.sizes = [len(s) for s in studies]
        self.field_score = lexicon.field_score
        self.weights = weights

    def rows(
        self, screen: float | None
    ) -> Iterator[tuple[int, int, list[tuple[int, float, float, float, float]]]]:
        """Each ``i`` with its count of candidates ``j > i`` and, for each
        pair it scores, ``(j, linguistic, distributional, co_occurrence,
        score)``, in no fixed order of ``j``.

        A candidate shares a token, a trigram key, a lexicon field or a study
        with ``i``; any other pair has linguistic and co-occurrence components
        of exactly 0.0. With ``screen`` None every pair is scored. Otherwise
        only candidates are, and of those sharing nothing but trigram keys
        only the ones whose trigram dot product reaches ``screen`` times the
        product of the two trigram norms.

        The components equal the pair's linguistic component (see the module
        docstring), ``distributional_similarity`` and
        ``co_occurrence_strength``, computed by the same operations on the
        same integers, and the score equals their ``combine``.
        """
        n = self.n
        indexes: tuple[dict[str, list[int]], ...] = ({}, {}, {}, {})
        # Filled from the last factor down, each posting lists its factors in
        # descending order, so the entries of the factor being scored are last.
        for i in range(n - 1, -1, -1):
            for index, keys in zip(indexes, self.keys[i]):
                for key in keys:
                    posting = index.get(key)
                    if posting is None:
                        index[key] = [i]
                    else:
                        posting.append(i)
        token_counts, gram_norms = self.token_counts, self.gram_norms
        roots, counts, norms = self.gram_roots, self.counts, self.norms
        sizes, field_score = self.sizes, self.field_score
        w_l, w_d, w_o = self.weights.as_tuple()
        for i in range(n):
            tokens, dots, fields, studies = map(_shared, indexes, self.keys[i])
            if screen is None:
                others: Iterable[int] = range(i + 1, n)
                candidates = n - 1 - i
            else:
                linked = tokens.keys() | fields.keys() | studies.keys()
                candidates = len(dots) + len(linked.difference(dots))
                least = screen * roots[i]
                linked.update([j for j, dot in dots.items() if dot >= least * roots[j]])
                others = linked
            size_i, tokens_i, grams_i = sizes[i], token_counts[i], gram_norms[i]
            counts_i, norm_i = counts[i], norms[i]
            pairs = []
            for j in others:
                shared = tokens.get(j, 0)
                union = tokens_i + token_counts[j] - shared
                lin = shared / union if union else 0.0
                dot = dots.get(j, 0)
                if dot:
                    lin = max(lin, _int_cosine(dot, grams_i, gram_norms[j]))
                if j in fields:
                    lin = max(lin, field_score)
                dist = _int_cosine(sum(map(mul, counts_i, counts[j])), norm_i, norms[j])
                co = studies.get(j, 0) / min(size_i, sizes[j])
                pairs.append((j, lin, dist, co, w_l * lin + w_d * dist + w_o * co))
            yield i, candidates, pairs


class KeywordScorer:
    """The linguistic component of any name against groups of keywords: for
    each group, in order, the best score of one of its keywords.

    The distinct keywords are scored from postings of their keys. A keyword
    sharing no token, trigram key or lexicon field with the name scores
    exactly 0.0, so only the keywords a name shares a key with are scored.
    """

    def __init__(
        self, groups: Sequence[Sequence[str]], lexicon: SemanticLexicon
    ) -> None:
        keywords = list(dict.fromkeys(k for group in groups for k in group))
        position = {keyword: k for k, keyword in enumerate(keywords)}
        # Each group's keyword positions, in the group's order.
        self.groups = [[position[keyword] for keyword in group] for group in groups]
        self.lexicon = lexicon
        features = [lexicon.features(keyword) for keyword in keywords]
        # Postings of tokens, of trigram keys (each keyword listed once per
        # occurrence, so shared counts are the integer dot product) and of
        # lexicon fields.
        self.tokens: dict[str, list[int]] = {}
        self.grams: dict[str, list[int]] = {}
        self.fields: dict[str, list[int]] = {}
        for k, f in enumerate(features):
            for token in f.tokens:
                self.tokens.setdefault(token, []).append(k)
            for gram in f.grams_listed:
                self.grams.setdefault(gram, []).append(k)
            for field in f.fields:
                self.fields.setdefault(field, []).append(k)
        self.token_counts = [len(f.tokens) for f in features]
        self.gram_norms = [f.trigram_norm_sq for f in features]

    def row(self, name: str) -> tuple[float, ...]:
        """Each group's ``max`` over its keywords' scores against ``name``,
        taken in the group's keyword order."""
        f = self.lexicon.features(name)
        tokens = Counter(_postings(self.tokens, f.tokens))
        dots = Counter(_postings(self.grams, f.grams_listed))
        fields = set(_postings(self.fields, f.fields))
        token_counts, gram_norms = self.token_counts, self.gram_norms
        tokens_a, grams_a = len(f.tokens), f.trigram_norm_sq
        field_score = self.lexicon.field_score
        scores = [0.0] * len(token_counts)
        for k in tokens.keys() | dots.keys() | fields:
            shared = tokens.get(k, 0)
            union = tokens_a + token_counts[k] - shared
            score = shared / union if union else 0.0
            dot = dots.get(k, 0)
            if dot:
                score = max(score, _int_cosine(dot, grams_a, gram_norms[k]))
            if k in fields:
                score = max(score, field_score)
            scores[k] = score
        return tuple(max([scores[k] for k in group]) for group in self.groups)


def _postings(index: dict[str, list[int]], keys: Iterable[str]) -> Iterator[int]:
    """The entries of every posting in ``index`` of ``keys``, chained."""
    return chain.from_iterable([index[key] for key in keys if key in index])


def _shared(index: dict[str, list[int]], keys: Iterable[str]) -> Counter[int]:
    """How often each factor left in ``index`` meets ``keys`` in its postings.

    The factor being scored holds the lowest index left, so its own entries
    end each of its postings and are dropped first; a key listed twice drops
    two entries and counts its posting twice.
    """
    postings = [index[key] for key in keys]
    for posting in postings:
        posting.pop()
    return Counter(chain.from_iterable(postings))


def _trigram_screen(weights: SimilarityWeights, floor: float) -> float:
    """The least trigram cosine at which a pair sharing nothing but trigram
    keys may reach ``floor``, less ``SCREEN_SLACK``; see the module docstring."""
    if not weights.linguistic:
        return math.inf  # such a pair scores w_d * d <= w_d < floor
    return (floor - weights.distributional - SCREEN_SLACK) / weights.linguistic


def build_matrix(
    factor_set: IntegratedFactorSet,
    weights: SimilarityWeights,
    lexicon: SemanticLexicon,
    floor: float = BAND_LOW,
) -> SimilarityMatrix:
    """The graph of every pair scoring at least ``floor``, exactly.

    A pair that shares no key scores ``w_d * d``, at most ``w_d``. So while
    ``w_d < floor`` only the candidates are scored, less those the trigram
    screen rules out; else every pair is. The default floor is the lowest
    default threshold.
    """
    scorer = _PairScorer(factor_set, weights, lexicon)
    screen = None
    if weights.distributional < floor:
        screen = _trigram_screen(weights, floor)
    scores: list[tuple[int, int, float]] = []
    components: dict[tuple[int, int], ComponentScores] = {}
    scored = 0
    for i, candidates, pairs in scorer.rows(screen):
        scored += candidates
        for j, lin, dist, co, score in sorted(p for p in pairs if p[4] >= floor):
            scores.append((i, j, score))
            components[(i, j)] = ComponentScores(lin, dist, co)
    return SimilarityMatrix(
        names=factor_set.names,
        scores=scores,
        components=components,
        weights=weights,
        floor=floor,
        scored=scored,
    )


def all_pair_scores(
    factor_set: IntegratedFactorSet,
    weights: SimilarityWeights,
    lexicon: SemanticLexicon,
) -> Iterator[tuple[int, int, float]]:
    """Every pair's score in ``(i, j)`` order, by the graph's row kernel."""
    for i, _, pairs in _PairScorer(factor_set, weights, lexicon).rows(None):
        for j, _, _, _, score in pairs:
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
    """JSON-ready mirror: the edges and their components, in (i, j) order.
    The factor count and the floor are not written; the reader has both."""
    return {
        "weights": list(matrix.weights.as_tuple()),
        "names": list(matrix.names),
        "scores": [[i, j, score] for i, j, score in matrix.scores],
        "components": [
            [i, j, comp.linguistic, comp.distributional, comp.co_occurrence]
            for (i, j), comp in matrix.components.items()
        ],
    }


def matrix_from_dict(doc: dict, floor: float) -> SimilarityMatrix:
    """Decode the graph built at ``floor`` from the components of its edges,
    each edge's score being their blend, and refuse an edge list
    ``build_matrix`` cannot produce. The names and weights are taken as
    written, and ``scores`` is not read."""
    n, rows = len(doc["names"]), doc["components"]
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
