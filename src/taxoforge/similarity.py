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
exact thresholded graph: the edges scoring at least ``floor``, as the rows of
scores and of components ``similarity.json`` holds. ``neighbours`` turns the
score rows into per-factor neighbour lists, built once per invocation.

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
0, then its ``max`` with the field score when a field is shared. The
distributional component is the integer cosine of the two count vectors, the
co-occurrence component the shared-study count over the smaller study set,
and ``combine`` blends the three. ``tests/conftest.py`` keeps the per-pair
definitions of the three components as the references the build and the
keyword scoring are tested against.

Only candidate pairs are scored: those sharing at least one key (the exact
candidate generation of All-Pairs, Bayardo, Ma and Srikant, WWW 2007, here
in the scan-count form of Sarawagi and Kirpal, SIGMOD 2004). Any other pair
has linguistic and co-occurrence components of exactly 0.0, so its score is
``w_d * d <= w_d``; while ``w_d < floor`` none of them is an edge and every
one of them is Low. When ``w_d >= floor`` every pair is scored. Either way
``band_census`` is exact: High and Moderate come from the edges, Low is the
rest of the n(n-1)/2 pairs. ``all_pair_scores`` runs the same row kernel
over every pair, for ``--emit-pairs``. ``scored`` counts the candidates the
rows enumerate.

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

Most pairs join factors whose counts share no space type, so their
distributional component ``d`` is exactly 0.0. While ``w_d < floor`` and
``by_type(floor)`` holds, a factor whose counts fall in one type is listed in
that type's token and trigram postings, and every other factor in postings
that all rows share; either way a factor is listed once per key. A row counts
shared tokens and trigram keys over the shared postings and those of its own
types, so it meets each of those factors once, and fields and studies over
all factors. A factor it does not count against has one type, outside the
row's, so ``d = 0.0``, and without a shared study the pair scores ``w_l *
lin`` after one rounding (adding 0.0 is exact). Such a pair is scored only
when it shares a study, shares a field while ``w_l * field_score >= floor``,
or has the row's token set (not empty) or set of trigram keys, found by
hashing; its shared-token count and trigram dot product are then taken from
the two names, the integers the postings give. This drops no edge while
``w_l * BELOW_ONE < floor``, ``BELOW_ONE`` being the largest float below 1.0:
rounding is monotone, so no ``lin`` below 1.0 reaches the floor. ``lin`` is
1.0 only through a field scoring 1.0, equal token sets (a Jaccard below 1 is
at most ``1 - 1/union`` and rounds below 1.0) or a trigram cosine of 1.0.
Integer counts give exactly 1.0 when proportional, and then the key sets are
equal. Otherwise ``dot**2 <= P - 1`` for ``P`` the product of the squared
norms, so the cosine is at most ``sqrt(1 - 1/P) <= 1 - 1/(2P)``; the square
root and the quotient are each off by at most one part in 2**53, so the float
cosine stays below 1.0 while ``P < 2**51``, which holds when both squared
norms are below ``GRAM_NORM_LIMIT`` (2**25). When ``w_l * BELOW_ONE >=
floor``, or when ``w_l >= floor`` and a squared norm reaches that limit, every
factor is listed in the shared postings. At 1,029 factors and the default
settings, 896 factors have one type and 133 several; the rows enumerate
36,151 candidates instead of 142,744 and score 8,652 pairs instead of 29,489,
for the same 2,314 edges.

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
and it earns no field bonus. Each keyword scored raises in place the
maximum of each group it is in; scores are never negative, so a group's
maximum is the same in any order of its keywords.

What the linguistic component reads of a name (its token set, trigram counts
and their squared norm, and its lexicon fields) is computed once per name and
lexicon and cached on the lexicon, so the pairs of the graph and the keyword
scoring of classify and cluster share it. Each factor's occurrence norm and
merged study set are likewise read once per build.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from itertools import chain
from operator import mul
from pathlib import Path
from typing import Collection, Iterable, Iterator, Literal, Mapping, NamedTuple, Sequence

from .codec import EMPTY, decode, mismatch, read_yaml, shown
from .errors import LexiconError, TaxoforgeError
from .integrate import IntegratedFactorSet

DEFAULT_FIELD_SCORE = 0.85

BAND_HIGH = 0.75
BAND_LOW = 0.5

# Absolute slack under the floor in the trigram-only screen, far above the
# float error of the comparison and the blend; see the module docstring.
SCREEN_SLACK = 1e-9

# The largest float below 1.0, and a bound on squared trigram norms under
# which a trigram cosine is 1.0 only for proportional counts; see the module
# docstring.
BELOW_ONE = math.nextafter(1.0, 0.0)
GRAM_NORM_LIMIT = 2**25


class NameFeatures(NamedTuple):
    """What linguistic similarity reads of one name."""

    tokens: frozenset[str]
    trigrams: dict[str, int]
    grams_listed: tuple[str, ...]  # the trigram keys, each once per occurrence
    trigram_norm_sq: int
    fields: frozenset[str]


class SemanticLexicon(NamedTuple):
    """Named semantic fields; co-membership earns the field score.

    ``build`` indexes each term's fields. Each name's ``NameFeatures`` is
    built once and kept in the lexicon's own ``feature_cache``, so two
    lexicons never share field sets and the cache lives as long as its
    lexicon. A name in no field has the field set ``EMPTY``.
    """

    fields: Mapping[str, frozenset[str]]
    field_score: float
    term_fields: dict[str, frozenset[str]]
    feature_cache: dict[str, NameFeatures]

    @classmethod
    def build(
        cls,
        fields: Mapping[str, frozenset[str]],
        field_score: float = DEFAULT_FIELD_SCORE,
    ) -> SemanticLexicon:
        index: dict[str, set[str]] = {}
        for field, terms in fields.items():
            for term in terms:
                index.setdefault(term, set()).add(field)
        term_fields = {term: frozenset(found) for term, found in index.items()}
        return cls(fields, field_score, term_fields, {})

    def fields_of(self, name: str) -> frozenset[str]:
        return self.term_fields.get(name, EMPTY)

    def features(self, name: str) -> NameFeatures:
        found = self.feature_cache.get(name)
        if found is None:
            found = self.feature_cache[name] = name_features(name, self)
        return found


class LexiconFile(NamedTuple):
    """The lexicon file as written; ``load_lexicon`` reads it."""

    fields: Mapping[str, tuple[str, ...]] | None = None
    field_score: float = DEFAULT_FIELD_SCORE
    version: Literal[1] = 1

    def check(self) -> None:
        if not 0.0 <= self.field_score <= 1.0:
            raise LexiconError(f"{self.field_score} out of range [0, 1]", "field_score")
        for name, terms in (self.fields or {}).items():
            if not terms:
                raise LexiconError("expected at least one term", "fields", name)
            for k, term in enumerate(terms):
                if not term.split():
                    raise LexiconError("expected a term, got a blank", "fields", name, k)


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
    return SemanticLexicon.build(fields, lexicon.field_score)


def name_features(name: str, lexicon: SemanticLexicon) -> NameFeatures:
    """Build one name's record; ``SemanticLexicon.features`` caches it."""
    grams = [name[i : i + 3] for i in range(len(name) - 2)] or [name]
    trigrams = Counter(grams)
    if len(trigrams) < len(grams):  # a repeated key is listed by its first place
        grams = [g for g, m in trigrams.items() for _ in range(m)]
    return NameFeatures(
        tokens=frozenset(name.split()),
        trigrams=trigrams,
        grams_listed=tuple(grams),
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


class SimilarityWeights(NamedTuple):
    linguistic: float = 0.5
    distributional: float = 0.3
    co_occurrence: float = 0.2

    def check(self) -> None:
        values = (self.linguistic, self.distributional, self.co_occurrence)
        if not all(v >= 0.0 for v in values):  # NaN fails the comparison too
            raise TaxoforgeError(
                f"similarity weights must be non-negative, got {values}"
            )
        if not abs(sum(values) - 1.0) <= 1e-9:
            raise TaxoforgeError(f"similarity weights must sum to 1, got {sum(values)}")


def combine(components: Sequence[float], weights: SimilarityWeights) -> float:
    """One edge's score: the blend of its three components, each in [0, 1]."""
    (w_l, w_d, w_o), (lin, dist, co) = weights, components
    return w_l * lin + w_d * dist + w_o * co


class SimilarityBand(Enum):
    HIGH = "High"
    MODERATE = "Moderate"
    LOW = "Low"


def band(
    score: float, high: float = BAND_HIGH, low: float = BAND_LOW
) -> SimilarityBand:
    """Band a pair score; the high boundary itself is Moderate."""
    if score > high:
        return SimilarityBand.HIGH
    if score >= low:
        return SimilarityBand.MODERATE
    return SimilarityBand.LOW


def pair_count(n: int) -> int:
    """Unique unordered pairs over n factors: n(n-1)/2."""
    return n * (n - 1) // 2


class SimilarityMatrix(NamedTuple):
    """The thresholded similarity graph.

    ``scores`` lists every pair scoring at least ``floor`` as ``(i, j, score)``
    with ``i < j``, sorted by ``(i, j)``; a pair it does not list scores below
    ``floor``. ``components`` lists the same pairs, in the same order, as
    ``(i, j, linguistic, distributional, co_occurrence)``. A graph given in
    full may leave ``floor`` at 0.0.
    """

    names: tuple[str, ...]
    scores: list[tuple[int, int, float]]
    components: list[tuple[int, int, float, float, float]]
    weights: SimilarityWeights
    floor: float = 0.0
    scored: int = 0  # candidate pairs of the build; 0 for a decoded graph


Neighbours = Sequence[Sequence[tuple[int, float]]]


def neighbours(matrix: SimilarityMatrix) -> list[list[tuple[int, float]]]:
    """Per factor, ``(other, score)`` of each of its edges, by index."""
    out: list[list[tuple[int, float]]] = [[] for _ in matrix.names]
    for i, j, score in matrix.scores:
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
        self.n = len(factors)
        studies = [f.all_studies for f in factors]
        features = [lexicon.features(f.canonical_name) for f in factors]
        # Each factor's keys of each kind: tokens, trigrams (each once per
        # occurrence, so shared counts are the integer dot product), lexicon
        # fields and studies.
        self.keys = [
            (f.tokens, f.grams_listed, f.fields, s)
            for f, s in zip(features, studies)
        ]
        self.grams = [f.trigrams for f in features]
        self.token_counts = [len(f.tokens) for f in features]
        self.gram_norms = [f.trigram_norm_sq for f in features]
        self.gram_roots = [math.sqrt(norm) for norm in self.gram_norms]
        # The factors grouped by count vector, with each group's vector and
        # norm: a pair's distributional component depends on those alone.
        groups: dict[tuple[int, ...], int] = {}
        self.group = [
            groups.setdefault(f.counts, len(groups)) for f in factors
        ]
        self.counts = list(groups)
        self.norms = [sum(x * x for x in c) for c in self.counts]
        # Each factor's space types as a bit mask, bit t for type t.
        self.masks = [
            sum(1 << t for t, count in enumerate(f.counts) if count)
            for f in factors
        ]
        self.sizes = [len(s) for s in studies]
        self.field_score = lexicon.field_score
        self.weights = weights

    def rows(
        self, floor: float
    ) -> Iterator[tuple[int, int, list[tuple[int, float, float, float, float]]]]:
        """Each ``i`` with its count of candidates ``j > i`` and, for each
        pair it scores, ``(j, linguistic, distributional, co_occurrence,
        score)``, in no fixed order of ``j``.

        While ``w_d >= floor``, as at a ``floor`` of 0.0, every pair is scored.
        Otherwise only candidates are: the factors sharing a token, a trigram
        key, a lexicon field or a study with ``i`` (any other pair has
        linguistic and co-occurrence components of exactly 0.0), and of those
        sharing nothing but trigram keys only the ones whose trigram dot
        product reaches the trigram screen. While ``by_type(floor)`` holds, a
        factor of one space type outside the types of ``i`` (distributional
        component 0.0) pairs with it only where the two share a study, share
        a field scoring at least the floor, or are duplicates; see the module
        docstring.

        The components equal the per-pair references in
        ``tests/conftest.py``, computed by the same operations on the same
        integers, and the score equals their ``combine``. The distributional
        one is computed once per pair of count vectors.
        """
        n = self.n
        w_l, w_d, w_o = self.weights
        masks, keys, grams = self.masks, self.keys, self.grams
        # Each factor's home: the bit of its one space type if it is listed
        # under that type alone, else 0 for the postings shared by all rows.
        homes = [0] * n
        partners: list = [()] * n
        field_entry = False
        screen = None
        if w_d < floor:
            screen = _trigram_screen(self.weights, floor)
            if self.by_type(floor):
                homes = [m if not m & (m - 1) else 0 for m in masks]
                if w_l >= floor:
                    partners = self.partners()
                field_entry = w_l * self.field_score >= floor
        # Per home, postings of tokens and of trigram keys, with the postings
        # of fields and of studies that all homes share. Each factor is
        # listed once per key, in its home's postings. Filled from the last
        # factor down, each posting lists its factors in descending order, so
        # the entries of the factor being scored are last.
        fields_index: dict[str, list[int]] = {}
        studies_index: dict[str, list[int]] = {}
        indexes = {
            home: ({}, {}, fields_index, studies_index) for home in {0, *homes}
        }
        for i in range(n - 1, -1, -1):
            for index, own_keys in zip(indexes[homes[i]], keys[i]):
                for key in own_keys:
                    posting = index.get(key)
                    if posting is None:
                        index[key] = [i]
                    else:
                        posting.append(i)
        token_counts, gram_norms = self.token_counts, self.gram_norms
        roots, sizes, field_score = self.gram_roots, self.sizes, self.field_score
        group, counts, norms = self.group, self.counts, self.norms
        table: list[dict[int, float]] = [{} for _ in counts]
        for i in range(n):
            own, outside = keys[i], ~masks[i]
            for index, own_keys in zip(indexes[homes[i]], own):
                _drop(index, own_keys)
            # The shared postings and those of the row's own types: a factor
            # listed elsewhere has one type, outside the row's.
            read = [held for home, held in indexes.items() if not home & outside]
            tokens = Counter(_postings([held[0] for held in read], own[0]))
            dots = Counter(_postings([held[1] for held in read], own[1]))
            fields = set(_postings([fields_index], own[2]))
            studies = Counter(_postings([studies_index], own[3]))
            if screen is None:
                others: Iterable[int] = range(i + 1, n)
                candidates = n - 1 - i
            else:
                # A factor not counted above scores distributional 0.0 with
                # ``i``; it enters through a study, a field at the floor or
                # as a duplicate.
                entries = chain(studies, fields if field_entry else (), partners[i])
                zero = {j for j in entries if j > i and homes[j] & outside}
                linked = tokens.keys() | studies.keys() | zero
                linked.update(j for j in fields if not homes[j] & outside)
                candidates = len(dots) + len(linked.difference(dots))
                least = screen * roots[i]
                linked.update([j for j, dot in dots.items() if dot >= least * roots[j]])
                grams_a = grams[i]
                for j in zero:
                    grams_b = grams[j]
                    tokens[j] = len(own[0] & keys[j][0])
                    dots[j] = sum(
                        grams_a[key] * grams_b[key]
                        for key in grams_a.keys() & grams_b.keys()
                    )
                others = linked
            size_i, tokens_i, grams_i = sizes[i], token_counts[i], gram_norms[i]
            g = group[i]
            counts_i, norm_i, dists = counts[g], norms[g], table[g]
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
                h = group[j]
                dist = dists.get(h)
                if dist is None:
                    product = sum(map(mul, counts_i, counts[h]))
                    dist = _int_cosine(product, norm_i, norms[h])
                    dists[h] = table[h][g] = dist
                co = studies.get(j, 0) / min(size_i, sizes[j])
                pairs.append((j, lin, dist, co, w_l * lin + w_d * dist + w_o * co))
            yield i, candidates, pairs

    def by_type(self, floor: float) -> bool:
        """Whether a factor of one space type may be listed under its type
        alone, so that a row without that type meets it only through a study,
        a field scoring at least ``floor`` or as a duplicate; see the module
        docstring."""
        w_l = self.weights.linguistic
        if w_l * BELOW_ONE >= floor:
            return False
        return w_l < floor or max(self.gram_norms) < GRAM_NORM_LIMIT

    def partners(self) -> list[list[int]]:
        """Per factor, the factors (itself among them) with its token set, if
        that is not empty, or with its set of trigram keys. Among them are
        all whose linguistic component with it is 1.0 without a field."""
        by_tokens: dict[frozenset[str], list[int]] = {}
        by_grams: dict[frozenset[str], list[int]] = {}
        for k, ((tokens, *_), grams) in enumerate(zip(self.keys, self.grams)):
            if tokens:
                by_tokens.setdefault(tokens, []).append(k)
            by_grams.setdefault(frozenset(grams), []).append(k)
        out: list[list[int]] = [[] for _ in self.keys]
        for same in chain(by_tokens.values(), by_grams.values()):
            if len(same) > 1:
                for k in same:
                    out[k] += same
        return out


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
        # The groups each distinct keyword belongs to, each listed once.
        self.memberships = [
            [g for g, group in enumerate(groups) if keyword in group]
            for keyword in keywords
        ]
        self.size = len(groups)
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
        """Each group's best score of one of its keywords against ``name``."""
        f = self.lexicon.features(name)
        tokens = Counter(_postings([self.tokens], f.tokens))
        dots = Counter(_postings([self.grams], f.grams_listed))
        fields = set(_postings([self.fields], f.fields))
        token_counts, gram_norms = self.token_counts, self.gram_norms
        memberships, sqrt = self.memberships, math.sqrt
        tokens_a, grams_a = len(f.tokens), f.trigram_norm_sq
        field_score = self.lexicon.field_score
        best = [0.0] * self.size
        for k in tokens.keys() | dots.keys() | fields:
            shared = tokens.get(k)  # 0/union, or 0.0 for two empty token sets
            score = shared / (tokens_a + token_counts[k] - shared) if shared else 0.0
            if dot := dots.get(k):  # _int_cosine's operations
                if (cosine := dot / sqrt(grams_a * gram_norms[k])) > score:
                    score = min(1.0, cosine)
            if k in fields and field_score > score:
                score = field_score
            for g in memberships[k]:
                if score > best[g]:
                    best[g] = score
        return tuple(best)


def _postings(
    indexes: Iterable[dict[str, list[int]]], keys: Collection[str]
) -> Iterator[int]:
    """The entries of every posting of ``keys`` in each of ``indexes``,
    chained; a key listed twice chains its postings twice."""
    return chain.from_iterable(
        [index[key] for index in indexes for key in keys if key in index]
    )


def _drop(index: dict[str, list[int]], keys: Iterable[str]) -> None:
    """Drop the entries of the factor being scored from its postings of
    ``keys``. It holds the lowest index left, so its entries end each
    posting; a key listed twice drops two."""
    for key in keys:
        index[key].pop()


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
    screen rules out and those with ``d = 0.0`` between a row and a factor of
    one type outside the row's that cannot reach ``floor``; else every pair
    is. The default floor is the lowest default threshold.
    """
    scorer = _PairScorer(factor_set, weights, lexicon)
    scores: list[tuple[int, int, float]] = []
    components: list[tuple[int, int, float, float, float]] = []
    scored = 0
    for i, candidates, pairs in scorer.rows(floor):
        scored += candidates
        for j, lin, dist, co, score in sorted([p for p in pairs if p[4] >= floor]):
            scores.append((i, j, score))
            components.append((i, j, lin, dist, co))
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
    for i, _, pairs in _PairScorer(factor_set, weights, lexicon).rows(0.0):
        for j, _, _, _, score in pairs:
            yield i, j, score


class BandCensus(NamedTuple):
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
        low=pair_count(len(matrix.names)) - above,
    )


def matrix_to_dict(matrix: SimilarityMatrix) -> dict:
    """JSON-ready mirror: the edges and their components, in (i, j) order.
    The factor count and the floor are not written; the reader has both."""
    return {
        "weights": list(matrix.weights),
        "names": list(matrix.names),
        "scores": matrix.scores,
        "components": matrix.components,
    }


def matrix_from_dict(doc: dict, floor: float) -> SimilarityMatrix:
    """Decode the graph built at ``floor`` from the components of its edges,
    each edge's score being their blend by ``combine``, and refuse an edge
    list ``build_matrix`` cannot produce; each edge is checked inline and its
    row kept as a tuple, so the graph equals the one built. ``scores`` must
    then list each edge as ``[i, j, score]`` with no boolean for a number.
    A refusal's ``at`` names a key, an edge as ``components[k]`` or a leaf of
    ``scores``. The names and weights are as written."""
    keys = {"weights", "names", "scores", "components"}
    if unknown := doc.keys() - keys:
        raise TaxoforgeError("unknown key", min(unknown))
    if missing := keys - doc.keys():
        raise TaxoforgeError("missing", min(missing))
    n, rows = len(doc["names"]), doc["components"]
    weights = SimilarityWeights(*doc["weights"])
    if type(rows) is not list:
        raise TaxoforgeError(f"expected a list of edges, got {shown(rows)}", "components")
    scores: list[tuple[int, int, float]] = []
    components: list[tuple[int, int, float, float, float]] = []
    before = (-1, -1)
    for k, row in enumerate(rows):
        if type(row) is not list or len(row) != 5:
            raise TaxoforgeError(f"expected a row of 5, got {shown(row)}", "components", k)
        i, j, lin, dist, co = row
        edge = (i, j)
        if not (type(i) is int and type(j) is int and 0 <= i < j < n) or edge <= before:
            raise TaxoforgeError(
                f"expected indices 0 <= i < j < {n}, after the edge before, "
                f"got {shown(row[:2])}", "components", k
            )
        if not (
            type(lin) in (int, float) and 0.0 <= lin <= 1.0
            and type(dist) in (int, float) and 0.0 <= dist <= 1.0
            and type(co) in (int, float) and 0.0 <= co <= 1.0
        ):
            raise TaxoforgeError(f"expected components in [0, 1], got {shown(row[2:])}",
                                 "components", k)
        score = combine((lin, dist, co), weights)
        if score < floor:
            raise TaxoforgeError(f"the components blend to {score}, below the floor "
                                 f"{floor}", "components", k)
        scores.append((i, j, score))
        components.append((i, j, lin, dist, co))
        before = edge
    written = doc["scores"]
    if type(written) is not list or len(written) != len(scores) or not all(
        type(row) is list and tuple(row) == edge and bool not in map(type, row)
        for edge, row in zip(scores, written)
    ):
        mismatch(scores, written, "scores")
    return SimilarityMatrix(
        names=tuple(doc["names"]),
        scores=scores,
        components=components,
        weights=weights,
        floor=floor,
    )
