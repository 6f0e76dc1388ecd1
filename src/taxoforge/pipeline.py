"""Configuration handling and phase orchestration.

The config file is decoded by the artifact codec, as every input file is.
A ``RunState`` holds one invocation's checksums, KB, lexicon, rules and phase
results, each computed or loaded once. A result it has not computed is read
by its artifact's one reader (``READERS``): the independent values are
decoded and checked, the phase's own code rebuilds the rest, and each
decoded record must equal its rebuilt record's leading fields, compared as
records. The indicators are always built from the upstream results;
indicators.json is a report. ``run`` passes one state through every phase,
writing each artifact once; a phase run alone reads its inputs from disk,
with byte-identical output. Artifacts are compact JSON, exports indented.

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

# Factor names quoted in a bounded warning; the count is always given.
UNMATCHED_SHOWN = 5


class Thresholds(NamedTuple):
    band_high: float = similarity.BAND_HIGH
    band_low: float = similarity.BAND_LOW
    related: float = cluster.RELATED_THRESHOLD
    subcluster: float = cluster.SUBCLUSTER_THRESHOLD
    cross_cutting: float = classify.CROSS_CUTTING_THRESHOLD
    promotion: float = placement.PROMOTION_THRESHOLD

    def check(self) -> None:
        for name, value in self._asdict().items():
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"threshold {name}={value} out of range [0, 1]")
        if self.band_high < self.band_low:
            raise ConfigError(
                f"threshold band_high={self.band_high} < band_low={self.band_low}"
            )

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
            raise ConfigError("out: expected a non-empty path")


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
    listed = codec.decode(kind, listed, where + "datasets", ConfigError)
    base = path.parent  # an absolute path replaces it
    if isinstance(listed, dict):  # read in the canonical order of the codes
        if unknown := sorted(set(listed) - set(SPACE_TYPES)):
            raise ConfigError(f"{where}unknown typology keys in datasets: {unknown}")
        datasets = [(base / listed[c], c) for c in SPACE_TYPES if c in listed]
    else:
        datasets = [(base / entry, None) for entry in listed or ()]
    if not datasets:
        raise ConfigError(f"{where}config must list at least one dataset")
    seen = set()
    for dataset, _ in datasets:  # a file read twice would count its rows twice
        if (resolved := dataset.resolve()) in seen:
            raise ConfigError(f"{where}datasets: {dataset} is listed twice")
        seen.add(resolved)
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
        raise ConfigError(f"{flag} {name}: expected a number, got {text!r}") from None


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
            raise ConfigError(f"--weights expects l,d,c, got {weights!r}")
        values = {n: _flag_number("--weights", n, t) for n, t in zip(names, texts)}
        weights = codec.decode(SimilarityWeights, values, "--weights: ", ConfigError)
        config = replace(config, weights=weights)
    if thresholds:
        values = config.thresholds._asdict()
        for item in thresholds:
            name, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"--threshold expects name=value, got {item!r}")
            name = name.strip()
            values[name] = _flag_number("--threshold", name, value)
        thresholds = codec.decode(Thresholds, values, "--threshold: ", ConfigError)
        config = replace(config, thresholds=thresholds)
    return config


# ---------------------------------------------------------------------------
# Run state and artifact I/O
# ---------------------------------------------------------------------------

# phase -> (artifact file, key of ``data`` holding the result or None when
# ``data`` is the result, the type written, the CSV report written beside it
# or None); the codec derives ``data`` from the type. For classify, cluster
# and place that is a record type whose fields the result's entries also
# have, by the same names: what the artifact keeps of each, which the codec
# reads off each entry. similarity.json keeps its own codec for the compact
# edge list; its report, pairs.csv, is written only when asked for.
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
    "similarity": ("similarity.json", None, similarity.SimilarityMatrix, "pairs.csv"),
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
    each phase's result and the graph's neighbour lists, each computed or
    loaded once. A result this process has not computed is read from its
    artifact on first use."""

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
    def neighbours(self) -> list[list[tuple[int, float]]]:
        """Each factor's graph neighbours, read by cluster and place."""
        return similarity.neighbours(self.get("similarity"))

    @cached_property
    def homes(self) -> dict[str, tuple[str, str]]:
        """Each factor's primary home, read by the indicators and framework."""
        return placement.primary_homes(self.get("cluster"), self.get("place"))

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
        """The result of ``phase``, from memory or else from its reader."""
        if phase not in self.results:
            self.results[phase] = READERS[phase](self)
        return self.results[phase]

    def read(self, phase: str) -> tuple[dict, str]:
        """``phase``'s checked artifact's ``data``, and where its refusals start."""
        path = self.config.out_dir / ARTIFACTS[phase][0]
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
                raise ArtifactError(
                    f"artifact {path}: {field} is {value!r}, expected {expected!r}"
                )
        _known_keys(doc, [*self.envelope(phase), "data"], f"artifact {path}: ")
        if doc.get("config_checksum") != self.checksums["config"]:
            raise ArtifactError(
                f"phase {phase!r}: artifact {path} was produced under a different "
                "configuration (checksum mismatch); re-run the upstream phases"
            )
        return doc["data"], f"artifact {path}: data"

    def decoded(self, phase: str) -> tuple[object, str]:
        """``phase``'s artifact decoded as its type, and the decoded value's path."""
        data, where = self.read(phase)
        _, key, kind, _ = ARTIFACTS[phase]
        if key is not None:
            _known_keys(data, [key], f"{where}.")
            data, where = data.get(key), f"{where}.{key}"
        return codec.decode(kind, data, where), where


def _known_keys(doc: dict, keys: Iterable[str], where: str) -> None:
    """Refuse the smallest key of ``doc`` that is none of ``keys``, at its
    path after ``where``, as the codec refuses a key that is no field."""
    if unknown := doc.keys() - set(keys):
        raise ArtifactError(f"{where}{min(unknown)}: unknown key")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    def write(handle: TextIO) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    emit.write_atomic(path, write)


# One reader per artifact: it decodes the artifact, refuses an independent
# value that does not fit the integrated factors, the KB or its range, then
# rebuilds the rest with the phase's own code and compares what is kept.

UNIT = "expected a number in [0, 1]"  # the codec has checked it is a number
IN_ORDER = "expected the integrated factors, in order"


def _compare(rebuilt: Sequence[tuple], decoded: Sequence[tuple], where: str) -> None:
    """Refuse the first field of a decoded record that is not its rebuilt
    record's field of that name; the codec has typed it, so ``==`` holds."""
    if len(rebuilt) != len(decoded) or any(
        record[: len(kept)] != kept for record, kept in zip(rebuilt, decoded)
    ):
        raise ArtifactError(where + codec.mismatch(rebuilt, decoded))


def _subcategories_known(state: RunState, homes: list[tuple], where: str) -> None:
    """Refuse a (domain, subcategory) whose subcategory is not the domain's."""
    subcategories = {d.identifier: d.subcategory_ids() for d in state.kb.domains}
    for i, (domain, sub) in enumerate(homes):
        if sub not in subcategories.get(domain, ()):
            raise ArtifactError(f"{where}[{i}].subcategory: {sub!r} is not a "
                                f"subcategory of domain {domain!r}")


def _read_integrated(state: RunState) -> integrate.IntegratedFactorSet:
    result, where = state.decoded("integrate")
    at = f"{where}.factors"
    for i, f in enumerate(result.factors):
        if tuple(f.studies) != SPACE_TYPES:
            raise ArtifactError(f"{at}[{i}].studies: expected studies under "
                                f"{', '.join(SPACE_TYPES)}")
        if not f.occurrence.total:
            raise ArtifactError(f"{at}[{i}].counts: expected at least one mention")
    # Each mention adds one count and at most one study.
    for i, f in enumerate(result.factors):
        for code, count in zip(SPACE_TYPES, f.occurrence.counts):
            if not min(count, 1) <= len(f.studies[code]) <= count:
                raise ArtifactError(f"{at}[{i}].studies.{code}: expected 1 to {count} "
                                    f"studies for {count} mentions, none for none")
    if result.raw_record_count != sum(f.occurrence.total for f in result.factors):
        raise ArtifactError(
            f"{where}.raw_record_count: expected the sum of the factors' counts"
        )
    return result


def _read_similarity(state: RunState) -> similarity.SimilarityMatrix:
    data, where = state.read("similarity")
    # Decoded against the weights and names the phase writes, held to them.
    floor = state.config.thresholds.graph_floor
    names, weights = list(state.get("integrate").names), list(state.config.weights)
    run = {"weights": weights, "names": names}
    try:
        matrix = similarity.matrix_from_dict({**data, **run}, floor)
        for key, expected in run.items():
            if (found := codec.mismatch(expected, data[key])) is not None:
                raise ArtifactError(key + found)
        return matrix
    except KeyError as exc:
        raise ArtifactError(f"{where}.{exc.args[0]}: missing") from None
    except ArtifactError as exc:  # a leaf named by its path below data
        raise ArtifactError(f"{where}.{exc}") from None
    except TaxoforgeError as exc:
        raise ArtifactError(f"{where}: {exc}") from None


def _read_classified(state: RunState) -> list[classify.ClassificationResult]:
    decoded, where = state.decoded("classify")
    if tuple(r.name for r in decoded) != state.get("integrate").names:
        raise ArtifactError(f"{where}[*].name: {IN_ORDER}")
    kb, threshold = state.kb, state.config.thresholds.cross_cutting
    for i, r in enumerate(decoded):
        if len(r.relevance) != len(kb.domains) or r.relevance and not (
            0.0 <= min(r.relevance) and max(r.relevance) <= 1.0
        ):
            raise ArtifactError(f"{where}[{i}].relevance: {UNIT} per domain")
    results = classify.classify_rows(
        state.get("integrate").factors, [r.relevance for r in decoded], kb, threshold
    )
    _compare(results, decoded, where)
    placement.check_overrides(results, kb)
    return results


def _read_assigned(state: RunState) -> list[cluster.CategoryAssignment]:
    decoded, where = state.decoded("cluster")
    if tuple(home.factor for home in decoded) != state.get("integrate").names:
        raise ArtifactError(f"{where}[*].factor: {IN_ORDER}")
    _subcategories_known(state, [(h.category, h.subcategory) for h in decoded], where)
    # Every channel score and so each category is rebuilt; the subcategory,
    # which needs the lexicon, is taken as written.
    integrated, classified = state.get("integrate"), state.get("classify")
    neighbours, related = state.neighbours, state.config.thresholds.related
    rows = cluster.channel_scores(integrated, classified, state.kb, neighbours, related)
    domain_ids = state.kb.domain_ids()
    results = [
        cluster.CategoryAssignment(
            home.factor, cluster.argmax_domain(row, domain_ids), home.subcategory, row
        )
        for home, row in zip(decoded, rows)
    ]
    _compare(results, decoded, where)
    return results


def _read_placed(state: RunState) -> placement.PlacementResult:
    decoded, where = state.decoded("place")
    _subcategories_known(state, [(p.domain, p.subcategory) for p in decoded], where)
    for i, p in enumerate(decoded):
        if not 0.0 <= p.composite <= 1.0:
            raise ArtifactError(f"{where}[{i}].composite: {UNIT}")
    # A placement the artifact lacks gets a stand-in, which the compare refuses.
    kept = {(p.factor, p.domain): p for p in decoded}
    missing = placement.Placement("", "", "", 0.0)
    result = placement.arrange(
        state.get("classify"),
        state.kb,
        lambda name, domain: kept.get((name, domain), missing).composite,
        lambda name, domain: kept.get((name, domain), missing).subcategory,
        state.config.thresholds.promotion,
    )
    _compare(result.placements, decoded, where)
    return result


def _indicators(state: RunState) -> list[str]:
    domains = {name: home[0] for name, home in state.homes.items()}
    return applicability.indicators_for(
        state.get("integrate").factors, state.get("classify"), domains, state.kb
    )


READERS = {
    "integrate": _read_integrated,
    "similarity": _read_similarity,
    "classify": _read_classified,
    "cluster": _read_assigned,
    "place": _read_placed,
    "indicate": _indicators,
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
    """Log ``message`` with the count of ``names`` and the first few, if any."""
    if names:
        log.warning(f"{message}, first names: %s", len(names), names[:UNMATCHED_SHOWN])


@_phase
def phase_integrate(state: RunState) -> None:
    config = state.config
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
            integrate.tracking_notation(factor.occurrence),
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
    assignments = cluster.assign_categories(
        state.get("integrate"),
        state.get("classify"),
        state.kb,
        state.neighbours,
        state.lexicon,
        related_threshold=thresholds.related,
        subcluster_threshold=thresholds.subcluster,
    )
    header = ("factor", "category", "subcategory") + state.kb.domain_ids()
    rows = [
        (a.factor, a.category, a.subcategory)
        + tuple(f"{final:.6f}" for final in a.scores.final)
        for a in assignments
    ]
    state.put("cluster", assignments, report=(header, rows))


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
        state.lexicon,
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
        vectors.setdefault(homes[factor.canonical_name], []).append(factor.occurrence)
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
        weights = [sum(v.total for v in sub_vectors) for sub_vectors in homed]
        distribution = dict(
            zip(SPACE_TYPES, applicability.aggregate_category(profiles, weights))
        )
        category_profiles.append({"category": category, "distribution": distribution})
    coverage = applicability.coverage
    records = [
        {"name": f.canonical_name, "coverage": coverage(f.occurrence), "indicator": t}
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
    status. The Sankey category is resolved against the KB before any phase
    runs and its filter checked right after integrate. Once integrated.json
    is written, every other file a run can write is deleted, so a run refused
    at a later phase leaves none of an earlier run's files beside its own;
    one refused before that write leaves the earlier files as they were.
    Each phase is called by its module-level name, so that a wrapper set on
    that name sees the call."""
    config = state.config
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
