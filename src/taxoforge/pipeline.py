"""Configuration handling and phase orchestration.

The config file is decoded by the artifact codec, as every input file is.
A ``RunState`` holds one invocation's checksums, KB, lexicon, rules, the
subcategory chooser and space fits cluster and place share, and the phase
results, each computed or loaded once. A result it has not computed is read
by ``RunState.read``: the codec decodes the independent values, each record
checking what it alone shows; the artifact's rules (``READERS``) check what
needs another file or the KB, the phase's own code rebuilds the rest, and
each decoded record must equal its rebuilt record's leading fields; indicate
and emit take assignments.json's homes as written. The indicators are always
built from the upstream results; indicators.json is a report. ``run`` passes
one state through every phase, writing each artifact once; a phase run alone
reads its inputs from disk, with byte-identical output.

Each phase, and ``run``, is a step under ``_phase``: called as
``phase(config, state=None, **options)``, it runs on the caller's state or a
fresh one with the cyclic collector paused, and writes its artifact, then
its CSV report (pairs.csv for similarity, when asked for), through
``RunState.put``. emit resolves its Sankey category and checks the filter
itself, run alone or by ``run``; an exact id resolves to itself.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import logging
import os
from dataclasses import dataclass, replace
from functools import cached_property, wraps
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TextIO

from . import __version__, codec
from . import applicability, classify, cluster, emit, integrate, placement, similarity
from .corpus import SPACE_TYPES, NormalizationRuleSet, load_corpus, load_rules
from .corpus import merge_corpora
from .emit import SCHEMA_VERSION
from .errors import ArtifactError, ConfigError, CorpusError
from .errors import TaxoforgeError
from .knowledge import (
    DomainKnowledgeBase,
    canonical_names,
    default_kb_path,
    default_lexicon_path,
    default_rules_path,
    load_kb,
)
from .similarity import SemanticLexicon, SimilarityWeights, load_lexicon

log = logging.getLogger(__name__)


class Thresholds(NamedTuple):
    band_high: codec.Unit = similarity.BAND_HIGH
    band_low: codec.Unit = similarity.BAND_LOW
    related: codec.Unit = cluster.RELATED_THRESHOLD
    subcluster: codec.Unit = cluster.SUBCLUSTER_THRESHOLD
    cross_cutting: codec.Unit = classify.CROSS_CUTTING_THRESHOLD
    promotion: codec.Unit = placement.PROMOTION_THRESHOLD

    def check(self) -> None:
        if self.band_high < self.band_low:
            raise ConfigError(f"threshold band_high={self.band_high} < "
                              f"band_low={self.band_low}")

    @property
    def graph_floor(self) -> float:
        """The lowest pair score the census, subclusters or neighbours use."""
        return min(self.band_low, self.subcluster, self.related)


# A dataclass, not a ``NamedTuple``: the benchmark (perfbench/worker.py) calls
# ``dataclasses.replace`` on it.
@dataclass(frozen=True)
class PipelineConfig:
    datasets: tuple[tuple[Path, str | None], ...]  # (path, expected type code)
    rules_path: Path
    kb_path: Path
    lexicon_path: Path
    out_dir: Path
    source: Path  # the config file, named in errors about what it lists
    weights: SimilarityWeights = SimilarityWeights()
    thresholds: Thresholds = Thresholds()
    jobs: int = 1  # validated but unused: the benchmark's configs still set it

    def checksum(self) -> dict[str, str]:
        """Input digests in one pass: "config" over the package version, the
        resolved settings, and the content of every input file (the version
        guards artifact-format changes), and one per knowledge file. No path
        is hashed, so naming the config another way keeps the checksum."""
        inputs = {
            "rules": _file_digest(self.rules_path, "rules"),
            "kb": _file_digest(self.kb_path, "kb"),
            "lexicon": _file_digest(self.lexicon_path, "lexicon"),
        }
        doc = {
            "version": __version__,
            "datasets": [
                [code, _file_digest(path, "dataset")] for path, code in self.datasets
            ],
            **inputs,
            "weights": list(self.weights),
            "thresholds": self.thresholds._asdict(),
        }
        blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        return {"config": hashlib.sha256(blob).hexdigest(), **inputs}


def _file_digest(path: Path, label: str) -> str:
    if not path.exists():
        raise ConfigError(f"{label} path not found: {path}")
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as exc:
        raise ConfigError(f"cannot read {label} file {path}: {exc}") from exc


class ConfigFile(NamedTuple):
    """The config file as written but for ``datasets``, a list of paths or a
    mapping of typology codes to paths, which ``load_config`` decodes apart."""

    rules: str = str(default_rules_path())
    kb: str = str(default_kb_path())
    lexicon: str = str(default_lexicon_path())
    out: str = "out"
    weights: SimilarityWeights | None = None
    thresholds: Thresholds | None = None
    jobs: int = 1

    def check(self) -> None:
        if self.jobs < 1:
            raise ConfigError(f"jobs must be a whole number >= 1, got {self.jobs!r}")
        if not self.out:  # would write, and sweep, the config's own directory
            raise ConfigError("expected a non-empty path", "out")


def load_config(path: str | Path) -> PipelineConfig:
    """The configuration in the YAML file ``path``, its relative paths taken
    from its directory; a malformed value raises ``ConfigError`` naming the
    file and the field, as in ``config file PATH: out: expected a string``."""
    path = Path(path)
    where = f"config file {path}: "
    doc = codec.read_yaml(path, "config", ConfigError)
    listed = doc.pop("datasets", None)
    file = codec.decode(ConfigFile, doc, where, ConfigError)
    kind = Mapping[str, str] if type(listed) is dict else list[str] | None
    listed = codec.decode(kind, listed, where, ConfigError, "datasets") or []
    base = path.parent  # an absolute path replaces it
    mapped = isinstance(listed, dict)  # read in the canonical order of the codes
    steps = [c for c in SPACE_TYPES if c in listed] if mapped else range(len(listed))
    datasets = [(base / listed[step], step if mapped else None) for step in steps]
    try:
        if mapped and (unknown := set(listed) - set(SPACE_TYPES)):
            raise ConfigError("unknown typology key", "datasets", min(unknown))
        if not datasets:
            raise ConfigError("expected at least one dataset", "datasets")
        seen = set()  # a file read twice would count its rows twice
        for step, (dataset, _) in zip(steps, datasets):
            if (resolved := dataset.resolve()) in seen:
                raise ConfigError(f"{dataset} is listed twice", "datasets", step)
            seen.add(resolved)
    except ConfigError as exc:
        raise ConfigError(codec.located(where, exc)) from None
    return PipelineConfig(
        datasets=tuple(datasets),
        rules_path=base / file.rules,
        kb_path=base / file.kb,
        lexicon_path=base / file.lexicon,
        out_dir=base / file.out,
        source=path,
        weights=file.weights or SimilarityWeights(),
        thresholds=file.thresholds or Thresholds(),
        jobs=file.jobs,
    )


def _flag_number(flag: str, name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"{codec.keyed(flag + ' ', name)}: expected a number, got "
            f"{codec.shown(text)}"
        ) from None


def apply_overrides(
    config: PipelineConfig,
    out_dir: str | None = None,
    weights: str | None = None,
    thresholds: Sequence[str] = (),
) -> PipelineConfig:
    """Apply CLI-level overrides onto a loaded config; the settings they
    give are decoded and checked as the config file's are."""
    if out_dir == "":  # would write, and sweep, the working directory
        raise ConfigError("--out: expected a non-empty path")
    if out_dir is not None:
        config = replace(config, out_dir=Path(out_dir))
    if weights is not None:
        names = SimilarityWeights._fields
        if len(texts := weights.split(",")) != len(names):
            raise ConfigError(f"--weights expects l,d,c, got {codec.shown(weights)}")
        values = {n: _flag_number("--weights", n, t) for n, t in zip(names, texts)}
        weights = codec.decode(SimilarityWeights, values, "--weights: ", ConfigError)
        config = replace(config, weights=weights)
    if thresholds:
        values = config.thresholds._asdict()
        for item in thresholds:
            name, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(
                    f"--threshold expects name=value, got {codec.shown(item)}"
                )
            name = name.strip()
            values[name] = _flag_number("--threshold", name, value)
        thresholds = codec.decode(Thresholds, values, "--threshold: ", ConfigError)
        config = replace(config, thresholds=thresholds)
    return config


# ---------------------------------------------------------------------------
# Run state and artifact I/O
# ---------------------------------------------------------------------------

# phase -> (artifact file, key of ``data`` holding the result or None when
# ``data`` is the result, the type written or None, the CSV report written
# beside it or None); the codec derives ``data`` from the type. For classify,
# cluster and place that is a record type whose fields the result's entries
# also have, by the same names: what the artifact keeps of each, which the
# codec reads off each entry. similarity.json keeps its own codec for the
# compact edge list; its report, pairs.csv, is written only when asked for.
# indicators.json is a report no phase reads, written without the codec: per
# factor its name, coverage and indicator text, then the subcategory and
# category profiles; everything else about an indicator follows from
# integrated.json, the KB or framework.json. Each is one line of compact
# JSON. The benchmark (perfbench/worker.py) reads these keys and fields, so
# they stay: integrated.json raw_record_count and factors[*].studies (a
# mapping of lists); each classification.json factor's flagged and
# primary_domain; similarity.json names, weights and scores; and the results'
# placements, cross_references, cross_cutting.flagged and primary_domain.
ARTIFACTS = {
    "integrate": ("integrated.json", None, integrate.IntegratedFactorSet, None),
    "similarity": ("similarity.json", None, None, "pairs.csv"),
    "classify": ("classification.json", "factors", list[classify.FactorRelevance],
                 "classification_report.csv"),
    "cluster": ("assignments.json", "assignments", list[cluster.CategoryHome],
                "assignments_report.csv"),
    "place": ("placements.json", "placements", list[placement.Placement],
              "placements_report.csv"),
    "indicate": ("indicators.json", "indicators", None, None),
}


def artifact_data(phase: str, result: object) -> dict:
    """The codec's ``data`` for ``phase``'s result, under its key if it has one."""
    _, key, kind, _ = ARTIFACTS[phase]
    data = codec.encode(kind, result)
    return data if key is None else {key: data}


class RunState:
    """What one invocation knows: the input checksums, KB, lexicon and rules,
    each phase's result, the graph's neighbour lists and the space fits,
    each computed or loaded once. A result this process has not computed is
    read from its artifact on first use."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.results: dict[str, object] = {}

    @cached_property
    def checksums(self) -> dict[str, str]:
        return self.config.checksum()

    @cached_property
    def kb(self) -> DomainKnowledgeBase:
        """The KB, its factor names normalized under the run's rules."""
        return canonical_names(load_kb(self.config.kb_path), self.rules)

    @cached_property
    def lexicon(self) -> SemanticLexicon:
        return load_lexicon(self.config.lexicon_path)

    @cached_property
    def rules(self) -> NormalizationRuleSet:
        return load_rules(self.config.rules_path)

    @cached_property
    def chooser(self) -> Callable[[Sequence[str], str], str]:
        """The subcategory chooser cluster and place share, so that each
        domain's keyword scorer is built once."""
        return cluster.subcategory_chooser(self.kb, self.lexicon)

    @cached_property
    def fits(self) -> dict[tuple[int, ...], tuple[float, ...]]:
        """Each count vector's space fits, read by cluster and place."""
        return cluster.space_fits(self.get("integrate"), self.kb)

    @cached_property
    def neighbours(self) -> list[list[tuple[int, float]]]:
        """Each factor's graph neighbours, read by cluster and place."""
        return similarity.neighbours(self.get("similarity"))

    @cached_property
    def homes(self) -> dict[str, tuple[str, str]]:
        """Each factor's primary home, read by the indicators and framework."""
        assigned = self.results.get("cluster") or self.read("cluster", _homes)
        return placement.primary_homes(assigned, self.get("place"))

    def envelope(self, phase: str) -> dict:
        """What reading a phase's data checks: the format, phase and config."""
        return {
            "schema_version": SCHEMA_VERSION,
            "phase": phase,
            "config_checksum": self.checksums["config"],
        }

    def put(
        self,
        phase: str,
        result: object,
        data: dict | None = None,
        report: tuple[Sequence[str], Iterable[Sequence]] | None = None,
    ) -> None:
        """Keep ``result``; write ``data``, by default the codec's, as its
        artifact in compact JSON, which the C encoder writes; then the
        ``(header, rows)`` of ``report``, if given, as the phase's CSV report."""
        self.results[phase] = result
        if data is None:
            data = artifact_data(phase, result)
        artifact, _, _, report_name = ARTIFACTS[phase]
        doc = {**self.envelope(phase), "data": data}
        text = json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n"
        emit.write_atomic(self.config.out_dir / artifact, lambda f: f.write(text))
        if report is not None:
            _write_csv(self.config.out_dir / report_name, *report)

    def get(self, phase: str):
        """The result of ``phase``, from memory or else read by its rules."""
        if phase not in self.results:  # the indicators are built, not read
            self.results[phase] = (_indicators(self) if phase == "indicate"
                                   else self.read(phase, READERS[phase]))
        return self.results[phase]

    def read(self, phase: str, rules: Callable[[RunState, object], object]):
        """``rules(state, data)`` on ``phase``'s checked artifact, its ``data``
        decoded as its type, if it has one. A plain ``TaxoforgeError`` a rule
        raises is named at ``artifact PATH: data`` and its ``at``; a subclass
        already names its file (an upstream artifact, the KB) and passes."""
        name, key, kind, _ = ARTIFACTS[phase]
        path = self.config.out_dir / name
        if not path.exists():
            if path.parent.exists() and not path.parent.is_dir():
                problem = f"output directory {path.parent} is not a directory"
            else:
                problem = f"missing upstream artifact {path}; run that phase first"
            raise ArtifactError(f"phase {phase!r}: {problem}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # or nested too deep to parse
            raise ArtifactError(f"phase {phase!r}: cannot parse {path}: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("data"), dict):
            raise ArtifactError(f"artifact {path} has no 'data' object")
        for field, expected in (("schema_version", SCHEMA_VERSION), ("phase", phase)):
            value = doc.get(field)
            if value != expected or type(value) is bool:  # True == 1
                raise ArtifactError(f"artifact {path}: {field} is "
                                    f"{codec.shown(value)}, expected {expected!r}")
        codec.known_keys(doc, [*self.envelope(phase), "data"], f"artifact {path}: ")
        if doc.get("config_checksum") != self.checksums["config"]:
            raise ArtifactError(
                f"phase {phase!r}: artifact {path} was produced under a different "
                "configuration (checksum mismatch); re-run the upstream phases"
            )
        data, where = doc["data"], f"artifact {path}: data"
        if key is not None:
            codec.known_keys(data, [key], where)
            data = codec.decode(kind, data.get(key), where, ArtifactError, key)
        elif kind is not None:
            data = codec.decode(kind, data, where)
        try:
            return rules(self, data)
        except TaxoforgeError as exc:
            if type(exc) is not TaxoforgeError:
                raise
            raise ArtifactError(codec.located(where, exc)) from None


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    def write(handle: TextIO) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    emit.write_atomic(path, write)


# Each artifact's rules, called by ``RunState.read`` on its decoded records
# (integrated.json needs none): they refuse a value that does not fit the
# integrated factors or the KB, rebuild the rest (but ``_homes``) and compare
# what is kept. A rule refuses by ``TaxoforgeError(message, *at)``.


def _compare(rebuilt: Sequence[tuple], decoded: Sequence[tuple], key: str) -> None:
    """Refuse, below ``key``, the first field of a decoded record that is not
    its rebuilt record's field of that name, or a count that differs; the
    codec has typed each field, so ``==`` holds. A rebuilt tuple shorter
    than its record, as a name alone, holds the record's leading fields.
    The records of each list are of one length, so they are compared a
    field's column at a time."""
    if len(rebuilt) != len(decoded) or not all(
        map(tuple.__eq__, zip(*rebuilt), zip(*decoded))
    ):
        codec.mismatch(rebuilt, decoded, key)


def _subcategories_known(kb: DomainKnowledgeBase, homes: list[tuple], key: str) -> None:
    """Refuse a record whose subcategory, its third field, is not its domain's."""
    subcategories = {d.identifier: d.subcategory_ids() for d in kb.domains}
    for i, (_, domain, sub, *_) in enumerate(homes):
        if sub not in subcategories.get(domain, ()):
            raise TaxoforgeError(f"{codec.shown(sub)} is not a subcategory of domain "
                                 f"{codec.shown(domain)}", key, i, "subcategory")


def _similarity(state: RunState, data: dict) -> similarity.SimilarityMatrix:
    # Held to the weights and names the phase writes, then decoded with them;
    # a missing key passes the hold and is refused by the decoder.
    names, weights = list(state.get("integrate").names), list(state.config.weights)
    for key, expected in {"weights": weights, "names": names}.items():
        codec.mismatch(expected, data.get(key, expected), key)
    return similarity.matrix_from_dict(data, state.config.thresholds.graph_floor)


def _classified(state: RunState, decoded: list) -> list[classify.ClassificationResult]:
    factor_set, kb = state.get("integrate"), state.kb
    _compare([(name,) for name in factor_set.names], decoded, "factors")
    for i, r in enumerate(decoded):
        if len(r.relevance) != len(kb.domains):
            raise TaxoforgeError(f"expected {len(kb.domains)} numbers, one per KB domain, "
                                 f"got {len(r.relevance)}", "factors", i, "relevance")
    relevance = [r.relevance for r in decoded]
    threshold = state.config.thresholds.cross_cutting
    results = classify.classify_rows(factor_set.factors, relevance, kb, threshold)
    _compare(results, decoded, "factors")
    placement.check_overrides(results, kb)
    return results


def _homes(state: RunState, decoded: list) -> list[cluster.CategoryHome]:
    """assignments.json's homes as written."""
    names, kb = state.get("integrate").names, state.kb
    _compare([(name,) for name in names], decoded, "assignments")
    _subcategories_known(kb, decoded, "assignments")
    return decoded


def _assigned(state: RunState, decoded: list) -> list[cluster.CategoryHome]:
    _homes(state, decoded)
    integrated, classified, kb = state.get("integrate"), state.get("classify"), state.kb
    neighbours, related = state.neighbours, state.config.thresholds.related
    domain_ids = kb.domain_ids()
    # Every channel score and so each category is rebuilt; the subcategory,
    # which needs the lexicon, is taken as written.
    rows = cluster.channel_scores(
        integrated, classified, kb, neighbours, state.fits, related
    )
    rebuilt = [(home.factor, cluster.argmax_domain(row, domain_ids))
               for home, row in zip(decoded, rows)]
    _compare(rebuilt, decoded, "assignments")
    return decoded


def _placed(state: RunState, decoded: list) -> placement.PlacementResult:
    classified, kb = state.get("classify"), state.kb
    # A placement the artifact lacks gets a stand-in, which the compare refuses.
    kept = {(p.factor, p.domain): p for p in decoded}
    missing = placement.Placement("", "", "", 0.0)
    _subcategories_known(kb, decoded, "placements")
    result = placement.arrange(
        classified,
        kb,
        lambda name, domain: kept.get((name, domain), missing).composite,
        lambda name, domain: kept.get((name, domain), missing).subcategory,
        state.config.thresholds.promotion,
    )
    _compare(result.placements, decoded, "placements")
    return result


def _indicators(state: RunState) -> list[str]:
    domains = {name: home[0] for name, home in state.homes.items()}
    return applicability.indicators_for(
        state.get("integrate").factors, state.get("classify"), domains, state.kb
    )


READERS = {
    "integrate": lambda state, factor_set: factor_set,
    "similarity": _similarity,
    "classify": _classified,
    "cluster": _assigned,
    "place": _placed,
}


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def _phase(step: Callable) -> Callable:
    """``step`` as a phase: ``phase(config, state=None, **options)`` runs
    ``step(state, **options)`` on the caller's state, or on a fresh one, with
    the cyclic garbage collector off, and gives the caller's setting back on
    every exit, a refusal included; a nested call, or one from a caller that
    turned it off, leaves it off. A phase allocates many objects that live
    until it ends, which set off collector passes, but it makes no reference
    cycle (a test holds a ``run`` to that), so those passes free nothing;
    reference counting frees everything."""

    @wraps(step)
    def phase(config: PipelineConfig, state: RunState | None = None, **options):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return step(RunState(config) if state is None else state, **options)
        finally:
            if enabled:
                gc.enable()

    return phase


def _warn_unmatched(message: str, names: Sequence[str]) -> None:
    """Log ``message`` with the count of ``names`` and the first few, each
    cut as a refusal quotes a value, if any."""
    if names:
        log.warning(f"{message}, first names: %s", len(names), codec.listed(names))


@_phase
def phase_integrate(state: RunState) -> None:
    config = state.config
    for name in ("rules", "checksums"):  # refused before any dataset, as by run
        getattr(state, name)
    corpus = merge_corpora(
        load_corpus(path, expect_type=code) for path, code in config.datasets
    )
    if not corpus.records:
        paths = ", ".join(str(path) for path, _ in config.datasets)
        raise CorpusError(
            f"config file {config.source}: datasets: no records in {paths}; "
            "cannot integrate an empty corpus"
        )
    factor_set = integrate.integrate(corpus, state.rules)
    log.info(
        "integrate: %d records, %d spellings -> %d unique factors",
        factor_set.raw_record_count,
        len({record.raw_name for record in corpus.records}),
        factor_set.unique_count,
    )
    state.put("integrate", factor_set)


@_phase
def phase_similarity(state: RunState, emit_pairs: bool = False) -> None:
    """Build the similarity graph; with ``emit_pairs``, its report lists
    every pair's score and band, not only the graph's edges."""
    factor_set, config = state.get("integrate"), state.config
    weights, t = config.weights, config.thresholds
    matrix = similarity.build_matrix(factor_set, weights, state.lexicon, t.graph_floor)
    census = similarity.band_census(matrix, t.band_high, t.band_low)
    log.info(
        "similarity: %d factors, %d pairs, %d scored, %d edges >= %g; "
        "High %d / Moderate %d / Low %d",
        len(matrix.names),
        census.total,
        matrix.scored,
        len(matrix.scores),
        matrix.floor,
        census.high,
        census.moderate,
        census.low,
    )
    names, pairs = matrix.names, None
    if emit_pairs:  # rows made as they are written, after the artifact
        pairs = ("factor_a", "factor_b", "score", "band"), (
            (
                names[i],
                names[j],
                f"{score:.6f}",
                similarity.band(score, t.band_high, t.band_low).value,
            )
            for i, j, score in similarity.all_pair_scores(
                factor_set, weights, state.lexicon
            )
        )
    state.put("similarity", matrix, similarity.matrix_to_dict(matrix), pairs)


@_phase
def phase_classify(state: RunState) -> None:
    factor_set, thresholds = state.get("integrate"), state.config.thresholds
    results = classify.classify_factors(
        factor_set, state.kb, state.lexicon, threshold=thresholds.cross_cutting
    )
    unassigned = [r.name for r in results if r.primary_domain is None]
    _warn_unmatched("classify: %d factors without a domain match", unassigned)
    _warn_unmatched(
        "classify: %d placement overrides name a factor that is not cross-cutting",
        placement.check_overrides(results, state.kb),
    )
    header = (
        "canonical_name",
        "tracking_notation",
        "active_type_count",
        "entropy",
        "class",
        "primary_domain",
        "cross_cutting_score",
        "status",
    )
    rows = [
        (
            r.name,
            integrate.tracking_notation(factor.counts),
            r.stats.active_type_count,
            f"{r.stats.entropy_nats:.3f}",
            r.factor_class.value,
            r.primary_domain or "",
            r.cross_cutting.score,
            r.cross_cutting.status.value,
        )
        for r, factor in zip(results, factor_set.factors)
    ]
    state.put("classify", results, report=(header, rows))


@_phase
def phase_cluster(state: RunState) -> None:
    thresholds = state.config.thresholds
    homes, rows = cluster.assign_categories(
        state.get("integrate"),
        state.get("classify"),
        state.kb,
        state.neighbours,
        state.fits,
        state.chooser,
        related_threshold=thresholds.related,
        subcluster_threshold=thresholds.subcluster,
    )
    header = ("factor", "category", "subcategory") + state.kb.domain_ids()
    report = [
        (*home, *(f"{final:.6f}" for final in row.final))
        for home, row in zip(homes, rows)
    ]
    state.put("cluster", homes, report=(header, report))


@_phase
def phase_place(state: RunState) -> None:
    factor_set, kb = state.get("integrate"), state.kb
    thresholds = state.config.thresholds
    names, listed = set(factor_set.names), list(kb.placement_overrides)
    for d in kb.domains:
        listed += sorted(d.literature_strong | d.literature_none)
    unmatched = [name for name in dict.fromkeys(listed) if name not in names]
    _warn_unmatched("place: %d KB factor names match no factor", unmatched)
    result = placement.place_cross_cutting(
        factor_set,
        state.get("classify"),
        kb,
        state.neighbours,
        state.get("cluster"),
        state.fits,
        state.chooser,
        related_threshold=thresholds.related,
        promotion_threshold=thresholds.promotion,
    )
    header = ("factor", "domain", "subcategory", "tier", "composite", "is_argmax")
    rows = [
        (
            p.factor,
            p.domain,
            p.subcategory,
            p.tier.value,
            f"{p.composite:.6f}",
            str(result.argmax_flags[p.factor]).lower()
            if p.tier is placement.PlacementTier.PRIMARY
            else "",
        )
        for p in result.placements
    ]
    data = artifact_data("place", result.placements)
    state.put("place", result, data, (header, rows))


@_phase
def phase_indicate(state: RunState) -> None:
    """Write indicators.json, a report no phase reads back: each factor's
    name, coverage and indicator text, the relevance profile of each
    subcategory and the distribution profile of each category, over the
    factors homed there."""
    factor_set, kb = state.get("integrate"), state.kb
    homes = state.homes
    texts = _indicators(state)
    vectors: dict[tuple[str, str], list] = {}
    for factor in factor_set.factors:
        vectors.setdefault(homes[factor.canonical_name], []).append(factor.counts)
    subcategory_profiles, category_profiles = [], []
    for domain in kb.domains:
        category = domain.identifier
        subs = [sub for sub in domain.subcategory_ids() if (category, sub) in vectors]
        if not subs:
            continue
        homed = [vectors[category, sub] for sub in subs]
        profiles = [applicability.aggregate_subcategory(v) for v in homed]
        for sub, profile in zip(subs, profiles):
            relevance = dict(zip(SPACE_TYPES, profile))
            subcategory_profiles.append(
                {"category": category, "subcategory": sub, "relevance": relevance}
            )
        weights = [sum(map(sum, sub_vectors)) for sub_vectors in homed]
        distribution = dict(
            zip(SPACE_TYPES, applicability.aggregate_category(profiles, weights))
        )
        category_profiles.append({"category": category, "distribution": distribution})
    coverage = applicability.coverage
    records = [
        {"name": f.canonical_name, "coverage": coverage(f.counts), "indicator": t}
        for f, t in zip(factor_set.factors, texts)
    ]
    data = {
        "indicators": records,
        "subcategory_profiles": subcategory_profiles,
        "category_profiles": category_profiles,
    }
    state.put("indicate", texts, data)


@_phase
def phase_emit(
    state: RunState,
    sankey_category: str | None = None,
    sankey_subfactors: Sequence[str] | None = None,
) -> int:
    """Build, validate and write the exports, and the Sankey file of
    ``sankey_category`` if given. That category is resolved against the KB's
    domain ids, before any artifact is read, and ``sankey_subfactors``
    checked, before anything is written; an id resolves to itself."""
    if sankey_category is not None:
        domain_ids = state.kb.domain_ids()
        sankey_category = emit.resolve_identifier(domain_ids, sankey_category)
        emit.check_subfactors(state.get("integrate").names, sankey_subfactors)
    factor_set = state.get("integrate")
    framework = emit.build_framework(
        factor_set,
        state.get("classify"),
        state.homes,
        state.get("place"),
        state.get("indicate"),
        state.kb,
        config_checksums=state.checksums,
    )
    report = emit.validate(framework, factor_set)
    out = state.config.out_dir
    emit.write_documents(out, state.envelope("emit"), framework, report)
    if sankey_category is not None:
        nodes, links = emit.export_sankey(
            framework, factor_set, sankey_category, sankey_subfactors
        )
        emit.write_sankey(nodes, links, _sankey_path(out, sankey_category))
    if not report["passed"]:
        log.error("emit: validation failed")
        return 2
    return 0


def _sankey_path(out: Path, category_id: str) -> Path:
    slug = category_id.casefold().replace(" ", "_").replace("&", "and")
    # A path separator in the id must not lead the file out of out_dir.
    for separator in filter(None, (os.sep, os.altsep)):
        slug = slug.replace(separator, "_")
    return out / f"sankey_{slug}.csv"


def _remove_stale(config: PipelineConfig) -> None:
    """Delete every file after integrated.json that ``run`` can write: the
    artifacts, reports and exports, pairs.csv and every Sankey file, asked
    for or not, so that none is left from an earlier run with other
    settings. Any other file in the output directory stays."""
    out = config.out_dir
    names = [name for phase, (artifact, _, _, report) in ARTIFACTS.items()
             if phase != "integrate" for name in (artifact, report) if name]
    paths = [out / name for name in [*names, *emit.EXPORTS]]
    for path in [*paths, *out.glob("sankey_*.csv")]:
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise ArtifactError(f"cannot remove {path}: {exc}") from None


@_phase
def run(
    state: RunState,
    emit_pairs: bool = False,
    sankey_category: str | None = None,
    sankey_subfactors: Sequence[str] | None = None,
) -> int:
    """Execute all phases in order on one state; returns the process exit
    status. Every input is read, and a malformed one refused, before any
    file is written or deleted; the override rule, which needs the data,
    refuses later. The Sankey category is resolved against the KB before any
    phase runs and its filter checked right after integrate. Once integrated.json
    is written, every other file a run can write is deleted, so a run refused
    at a later phase leaves none of an earlier run's files beside its own;
    one refused before that write leaves the earlier files as they were.
    Each phase is called by its module-level name, so that a wrapper set on
    that name sees the call."""
    config = state.config
    for name in ("rules", "checksums", "kb", "lexicon"):  # loaded once, refused here
        getattr(state, name)
    if sankey_category is not None:
        domain_ids = state.kb.domain_ids()
        sankey_category = emit.resolve_identifier(domain_ids, sankey_category)
    phase_integrate(config, state)
    _remove_stale(config)
    if sankey_category is not None:
        emit.check_subfactors(state.get("integrate").names, sankey_subfactors)
    phase_similarity(config, state, emit_pairs=emit_pairs)
    phase_classify(config, state)
    phase_cluster(config, state)
    phase_place(config, state)
    phase_indicate(config, state)
    return phase_emit(
        config,
        state,
        sankey_category=sankey_category,
        sankey_subfactors=sankey_subfactors,
    )
