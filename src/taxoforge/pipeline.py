"""Configuration handling and phase orchestration.

The config file is decoded by the artifact codec, as every input file is.
A ``RunState`` holds one invocation's checksums, KB, lexicon, rules and phase
results, each computed or loaded once. A result it has not computed is read
from the phase's artifact: its independent values are decoded, the phase's
own code rebuilds the rest, and the few derived values kept must equal the
rebuilt ones. The indicators are always built from the upstream results;
indicators.json is a report. ``run`` passes one state through every phase,
writing each artifact once; a phase run alone reads its inputs from disk,
with byte-identical output. Artifacts are compact JSON, exports indented.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

from . import __version__, codec
from . import applicability, classify, cluster, emit, integrate, placement, similarity
from .corpus import SPACE_TYPES, NormalizationRuleSet, load_corpus, load_rules
from .corpus import merge_corpora
from .emit import SCHEMA_VERSION
from .errors import ArtifactError, ConfigError, CorpusError, KnowledgeBaseError
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


@dataclass(frozen=True)
class Thresholds:
    band_high: float = similarity.BAND_HIGH
    band_low: float = similarity.BAND_LOW
    related: float = cluster.RELATED_THRESHOLD
    subcluster: float = cluster.SUBCLUSTER_THRESHOLD
    cross_cutting: float = classify.CROSS_CUTTING_THRESHOLD
    promotion: float = placement.PROMOTION_THRESHOLD

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
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

    def __post_init__(self) -> None:
        if type(self.jobs) is not int or self.jobs < 1:
            raise ConfigError(f"jobs must be a whole number >= 1, got {self.jobs!r}")

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
            "weights": list(self.weights.as_tuple()),
            "thresholds": asdict(self.thresholds),
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


@dataclass(frozen=True)
class ConfigFile:
    """The config file as written but for ``datasets``, a list of paths or a
    mapping of typology codes to paths, which ``_config`` reads."""

    rules: str = str(default_rules_path())
    kb: str = str(default_kb_path())
    lexicon: str = str(default_lexicon_path())
    out: str = "out"
    weights: Mapping[str, float] | None = None
    thresholds: Mapping[str, float] | None = None
    jobs: int = 1


def load_config(path: str | Path) -> PipelineConfig:
    """The configuration in the YAML file ``path``, its relative paths taken
    from its directory; a malformed value raises ``ConfigError`` naming the
    file and the field, as in ``config file PATH: out: expected a string``."""
    path = Path(path)
    doc = codec.read_yaml(path, "config", ConfigError)
    # A misspelled key would otherwise leave its setting at the default.
    if unknown := set(doc) - {f.name for f in fields(ConfigFile)} - {"datasets"}:
        raise ConfigError(f"config file {path}: {min(map(str, unknown))}: unknown key")
    file = codec.decode(ConfigFile, doc, f"config file {path}: ", ConfigError)
    try:
        return _config(file, doc.get("datasets"), path)
    except ConfigError as exc:
        raise ConfigError(f"config file {path}: {exc}") from None


def _config(file: ConfigFile, datasets_doc: object, source: Path) -> PipelineConfig:
    base = source.parent

    def resolve(key: str, raw: object) -> Path:
        if type(raw) is not str:
            raise ConfigError(f"{key}: expected a path, got {raw!r}")
        return base / raw  # an absolute path replaces base

    datasets: list[tuple[Path, str | None]] = []
    if isinstance(datasets_doc, dict):
        for code in SPACE_TYPES:  # canonical processing order
            if code in datasets_doc:
                datasets.append((resolve("datasets", datasets_doc[code]), code))
        unknown = sorted(map(str, set(datasets_doc) - set(SPACE_TYPES)))
        if unknown:
            raise ConfigError(f"unknown typology keys in datasets: {unknown}")
    elif isinstance(datasets_doc, list):
        datasets = [(resolve("datasets", entry), None) for entry in datasets_doc]
    if not datasets:
        raise ConfigError("config must list at least one dataset")
    seen = set()
    for path, _ in datasets:  # a file read twice would count its rows twice
        if (resolved := path.resolve()) in seen:
            raise ConfigError(f"datasets: {path} is listed twice")
        seen.add(resolved)
    return PipelineConfig(
        datasets=tuple(datasets),
        rules_path=resolve("rules", file.rules),
        kb_path=resolve("kb", file.kb),
        lexicon_path=resolve("lexicon", file.lexicon),
        out_dir=resolve("out", file.out),
        source=source,
        weights=_settings(SimilarityWeights(), file.weights or {}, "weights"),
        thresholds=_settings(Thresholds(), file.thresholds or {}, "thresholds"),
        jobs=file.jobs,
    )


def _settings(current, values: Mapping[str, float], where: str):
    """``current``, a ``SimilarityWeights`` or ``Thresholds``, with the named
    values replaced; an unknown name or a value its own check refuses raises
    ``ConfigError`` after ``where``, the config field or the flag."""
    noun = "threshold" if isinstance(current, Thresholds) else "similarity weight"
    if unknown := set(values) - {f.name for f in fields(current)}:
        raise ConfigError(f"{where}: unknown {noun} {min(unknown)!r}")
    try:
        return replace(current, **{name: float(v) for name, v in values.items()})
    except TaxoforgeError as exc:
        raise ConfigError(f"{where}: {exc}") from None


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
    """Apply CLI-level overrides onto a loaded config."""
    if out_dir is not None:
        config = replace(config, out_dir=Path(out_dir))
    if weights is not None:
        names = [f.name for f in fields(SimilarityWeights)]
        if len(texts := weights.split(",")) != len(names):
            raise ConfigError(f"--weights expects l,d,c, got {weights!r}")
        values = {n: _flag_number("--weights", n, t) for n, t in zip(names, texts)}
        config = replace(config, weights=_settings(config.weights, values, "--weights"))
    if thresholds:
        values = {}
        for item in thresholds:
            name, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"--threshold expects name=value, got {item!r}")
            name = name.strip()
            values[name] = _flag_number("--threshold", name, value)
        thresholds = _settings(config.thresholds, values, "--threshold")
        config = replace(config, thresholds=thresholds)
    return config


# ---------------------------------------------------------------------------
# Run state and artifact I/O
# ---------------------------------------------------------------------------

# phase -> (artifact file, key of ``data`` holding the result or None when
# ``data`` is the result, the type written); the codec derives ``data`` from
# the type. For classify, cluster and place that is the base class of the
# result's entries: what the artifact keeps of each. similarity.json keeps
# its own codec for the compact edge list; indicators.json is a report no
# phase reads. Each is one line of compact JSON. The benchmark
# (perfbench/worker.py) reads these keys and fields, so they stay:
# integrated.json raw_record_count and factors[*].studies (a mapping of
# lists); each classification.json factor's flagged and primary_domain;
# similarity.json names, weights and scores; and the results' placements,
# cross_references, cross_cutting.flagged and primary_domain.
ARTIFACTS = {
    "integrate": ("integrated.json", None, integrate.IntegratedFactorSet),
    "similarity": ("similarity.json", None, similarity.SimilarityMatrix),
    "classify": ("classification.json", "factors", list[classify.FactorRelevance]),
    "cluster": ("assignments.json", "assignments", list[cluster.CategoryHome]),
    "place": ("placements.json", "placements", list[placement.Placement]),
    "indicate": ("indicators.json", "indicators", list[applicability.IndicatorRecord]),
}


def artifact_data(phase: str, result: object) -> dict:
    """The codec's ``data`` for ``phase``'s result, under its key if it has one."""
    _, key, kind = ARTIFACTS[phase]
    data = codec.encode(kind, result)
    return data if key is None else {key: data}


class RunState:
    """What one invocation knows: the input checksums, KB, lexicon and rules,
    and each phase's result, each computed or loaded once. A result this
    process has not computed is read from its artifact on first use."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.results: dict[str, object] = {}

    @cached_property
    def checksums(self) -> dict[str, str]:
        return self.config.checksum()

    @cached_property
    def kb(self) -> DomainKnowledgeBase:
        """The KB, its factor names normalized under the run's rules."""
        path = self.config.kb_path
        return canonical_names(load_kb(path), self.rules, path)

    @cached_property
    def lexicon(self) -> SemanticLexicon:
        return load_lexicon(self.config.lexicon_path)

    @cached_property
    def rules(self) -> NormalizationRuleSet:
        return load_rules(self.config.rules_path)

    def envelope(self, phase: str) -> dict:
        """What reading a phase's data checks: the format, phase and config."""
        return {
            "schema_version": SCHEMA_VERSION,
            "phase": phase,
            "config_checksum": self.checksums["config"],
        }

    def put(self, phase: str, result: object, data: dict | None = None) -> Path:
        """Keep ``result``; write ``data``, by default the codec's, as its
        artifact in compact JSON, which the C encoder writes."""
        self.results[phase] = result
        if data is None:
            data = artifact_data(phase, result)
        doc = {**self.envelope(phase), "data": data}
        path = self.config.out_dir / ARTIFACTS[phase][0]
        text = json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n"
        emit.write_atomic(path, lambda handle: handle.write(text))
        return path

    def get(self, phase: str):
        """The result of ``phase``, from memory or else from its artifact.

        This is the one checked read path. The artifact's independent values
        must fit their type, the integrated factors and the KB; every phase
        after integrate rebuilds the rest of its result from them with its own
        code, and the artifact must equal what that result writes. That is
        tested once with ``==``, with no boolean allowed for a number;
        ``codec.first_difference`` runs only when the test fails, to name the
        leaf. A misfit is an ``ArtifactError`` naming the file and the leaf's
        path. The indicators are built from the upstream results alone."""
        if phase == "indicate" and phase not in self.results:
            self.results[phase] = _indicators(self)
        if phase not in self.results:
            name, key, kind = ARTIFACTS[phase]
            path = self.config.out_dir / name
            data, where = self._read(phase, path), f"artifact {path}: data"
            if phase == "similarity":
                # Decode against the names and weights the phase writes.
                names = list(self.get("integrate").names)
                weights = list(self.config.weights.as_tuple())
                floor = self.config.thresholds.graph_floor
                try:
                    result = similarity.matrix_from_dict(
                        {**data, "names": names, "weights": weights}, floor
                    )
                except KeyError as exc:
                    raise ArtifactError(f"{where}.{exc.args[0]}: missing") from None
                except TaxoforgeError as exc:
                    raise ArtifactError(f"{where}: {exc}") from None
            else:
                at = where if key is None else f"{where}.{key}"
                result = codec.decode(kind, data if key is None else data.get(key), at)
                self._check(phase, result, at)
            if phase in REBUILT:
                result, expected = REBUILT[phase](self, result)
                # In Python True == 1. The decoders refuse a boolean in every
                # number they read, which leaves the similarity weights and
                # scores rows, read by no decoder.
                if expected != data or phase == "similarity" and bool in map(
                    type, chain(data["weights"], chain.from_iterable(data["scores"]))
                ):
                    difference = codec.first_difference(expected, data, where)
                    if difference is not None:
                        raise ArtifactError(difference)
            self.results[phase] = result
        return self.results[phase]

    def _check(self, phase: str, result, where: str) -> None:
        """Refuse independent values that do not fit the integrated factors,
        the KB's ids or their range."""

        def refuse(field: str, message: str) -> None:
            raise ArtifactError(f"{where}{field}: {message}")

        if phase == "integrate":
            for i, f in enumerate(result.factors):
                if tuple(f.studies) != SPACE_TYPES:
                    refuse(f".factors[{i}].studies",
                           f"expected studies under {', '.join(SPACE_TYPES)}")
                if not f.occurrence.total:
                    refuse(f".factors[{i}].counts", "expected at least one mention")
            # Each mention adds one count and at most one study.
            for i, f in enumerate(result.factors):
                for code, count in zip(SPACE_TYPES, f.occurrence.counts):
                    if not min(count, 1) <= len(f.studies[code]) <= count:
                        refuse(f".factors[{i}].studies.{code}", f"expected 1 to "
                               f"{count} studies for {count} mentions, none for none")
            total = sum(f.occurrence.total for f in result.factors)
            if result.raw_record_count != total:
                refuse(".raw_record_count", "expected the sum of the factors' counts")
            return
        if phase != "place":
            key = "factor" if phase == "cluster" else "name"
            if tuple(getattr(r, key) for r in result) != self.get("integrate").names:
                refuse(f"[*].{key}", "expected the integrated factors, in order")
        subcategories = {d.identifier: d.subcategory_ids() for d in self.kb.domains}
        # The codec has checked these are numbers; NaN fails every comparison.
        unit = "expected a number in [0, 1]"
        for i, r in enumerate(result):
            if phase == "classify":
                if len(r.relevance) != len(subcategories) or not all(
                    0.0 <= x <= 1.0 for x in r.relevance
                ):
                    refuse(f"[{i}].relevance", f"{unit} per domain")
                continue
            domain = r.category if phase == "cluster" else r.domain
            if r.subcategory not in subcategories.get(domain, ()):
                refuse(f"[{i}].subcategory", f"{r.subcategory!r} is not a "
                       f"subcategory of domain {domain!r}")
            if phase == "place" and not 0.0 <= r.composite <= 1.0:
                refuse(f"[{i}].composite", unit)

    def _read(self, phase: str, path: Path) -> dict:
        if not path.exists():
            if path.parent.exists() and not path.parent.is_dir():
                raise ArtifactError(
                    f"phase {phase!r}: output directory {path.parent} is not a "
                    "directory"
                )
            raise ArtifactError(
                f"phase {phase!r}: missing upstream artifact {path}; "
                "run that phase first"
            )
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ArtifactError(f"phase {phase!r}: cannot parse {path}: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("data"), dict):
            raise ArtifactError(f"artifact {path} has no 'data' object")
        for field, expected in (("schema_version", SCHEMA_VERSION), ("phase", phase)):
            value = doc.get(field)
            if value != expected or type(value) is bool:  # True == 1
                raise ArtifactError(
                    f"artifact {path}: {field} is {value!r}, expected {expected!r}"
                )
        if doc.get("config_checksum") != self.checksums["config"]:
            raise ArtifactError(
                f"phase {phase!r}: artifact {path} was produced under a different "
                "configuration (checksum mismatch); re-run the upstream phases"
            )
        return doc["data"]


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    def write(handle: TextIO) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    emit.write_atomic(path, write)


# Rebuilding on reading: each function takes the decoded values of its
# phase's artifact, rebuilds the phase's result from the independent ones
# with the phase's own code, and returns it with the ``data`` it writes.


def _classified(state: RunState, decoded) -> tuple[list, dict]:
    kb, threshold = state.kb, state.config.thresholds.cross_cutting
    results = [
        classify.classify_factor(factor, r.relevance, kb, threshold)
        for factor, r in zip(state.get("integrate").factors, decoded)
    ]
    return results, artifact_data("classify", results)


def _assigned(state: RunState, decoded) -> tuple[list, dict]:
    # Every channel score and so each category is rebuilt; the subcategory,
    # which needs the lexicon, is taken as written.
    rows = cluster.channel_scores(
        state.get("integrate"),
        state.get("classify"),
        state.kb,
        state.get("similarity"),
        state.config.thresholds.related,
    )
    domain_ids = state.kb.domain_ids()
    results = [
        cluster.CategoryAssignment(
            home.factor, cluster.argmax_domain(row, domain_ids), home.subcategory, row
        )
        for home, row in zip(decoded, rows)
    ]
    return results, artifact_data("cluster", results)


def _placed(state: RunState, decoded) -> tuple[placement.PlacementResult, dict]:
    composites = {(p.factor, p.domain): p.composite for p in decoded}
    subcategories = {(p.factor, p.domain): p.subcategory for p in decoded}
    # A placement the artifact lacks gets stand-in values; the comparison
    # then refuses the artifact at the first entry that differs.
    result = placement.arrange(
        state.get("classify"),
        state.kb,
        lambda name, domain: composites.get((name, domain), 0.0),
        lambda name, domain: subcategories.get((name, domain), ""),
        state.config.thresholds.promotion,
    )
    return result, artifact_data("place", result.placements)


def _indicators(state: RunState) -> list:
    homes = placement.primary_homes(state.get("cluster"), state.get("place"))
    domains = {name: home[0] for name, home in homes.items()}
    return applicability.indicators_for(
        state.get("integrate").factors, state.get("classify"), domains, state.kb
    )


REBUILT = {
    "similarity": lambda state, matrix: (matrix, similarity.matrix_to_dict(matrix)),
    "classify": _classified,
    "cluster": _assigned,
    "place": _placed,
}


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def _warn_unmatched(message: str, names: Sequence[str]) -> None:
    """Log ``message`` with the count of ``names`` and the first few, if any."""
    if names:
        log.warning(f"{message}, first names: %s", len(names), names[:UNMATCHED_SHOWN])


def phase_integrate(config: PipelineConfig, state: RunState | None = None) -> Path:
    state = state or RunState(config)
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
    return state.put("integrate", factor_set)


def phase_similarity(
    config: PipelineConfig, emit_pairs: bool = False, state: RunState | None = None
) -> Path:
    state = state or RunState(config)
    factor_set, t = state.get("integrate"), config.thresholds
    floor = t.graph_floor
    matrix = similarity.build_matrix(factor_set, config.weights, state.lexicon, floor)
    census = similarity.band_census(matrix, t.band_high, t.band_low)
    log.info(
        "similarity: %d factors, %d pairs, %d scored, %d edges >= %g; "
        "High %d / Moderate %d / Low %d",
        matrix.n,
        census.total,
        matrix.scored,
        len(matrix.scores),
        matrix.floor,
        census.high,
        census.moderate,
        census.low,
    )
    path = state.put("similarity", matrix, similarity.matrix_to_dict(matrix))
    if emit_pairs:
        names = matrix.names
        _write_csv(
            config.out_dir / "pairs.csv",
            ("factor_a", "factor_b", "score", "band"),
            (
                (
                    names[i],
                    names[j],
                    f"{score:.6f}",
                    similarity.band(score, t.band_high, t.band_low).value,
                )
                for i, j, score in similarity.all_pair_scores(
                    factor_set, config.weights, state.lexicon
                )
            ),
        )
    return path


def phase_classify(config: PipelineConfig, state: RunState | None = None) -> Path:
    state = state or RunState(config)
    factor_set = state.get("integrate")
    results = classify.classify_factors(
        factor_set, state.kb, state.lexicon, threshold=config.thresholds.cross_cutting
    )
    unassigned = [r.name for r in results if r.primary_domain is None]
    _warn_unmatched("classify: %d factors without a domain match", unassigned)
    path = state.put("classify", results)
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
    _write_csv(
        config.out_dir / "classification_report.csv",
        (
            "canonical_name",
            "tracking_notation",
            "active_type_count",
            "entropy",
            "class",
            "primary_domain",
            "cross_cutting_score",
            "status",
        ),
        rows,
    )
    return path


def phase_cluster(config: PipelineConfig, state: RunState | None = None) -> Path:
    state = state or RunState(config)
    assignments = cluster.assign_categories(
        state.get("integrate"),
        state.get("classify"),
        state.kb,
        state.get("similarity"),
        state.lexicon,
        related_threshold=config.thresholds.related,
        subcluster_threshold=config.thresholds.subcluster,
    )
    path = state.put("cluster", assignments)
    rows = [
        (a.factor, a.category, a.subcategory)
        + tuple(f"{final:.6f}" for final in a.scores.final)
        for a in assignments
    ]
    _write_csv(
        config.out_dir / "assignments_report.csv",
        ("factor", "category", "subcategory") + state.kb.domain_ids(),
        rows,
    )
    return path


def phase_place(config: PipelineConfig, state: RunState | None = None) -> Path:
    state = state or RunState(config)
    factor_set, kb = state.get("integrate"), state.kb
    names, listed = set(factor_set.names), list(kb.placement_overrides)
    for d in kb.domains:
        listed += sorted(d.literature_strong | d.literature_none)
    unmatched = [name for name in dict.fromkeys(listed) if name not in names]
    _warn_unmatched("place: %d KB factor names match no factor", unmatched)
    flagged = {r.name for r in state.get("classify") if r.flagged}
    ignored = [n for n in kb.placement_overrides if n in names and n not in flagged]
    _warn_unmatched(
        "place: %d placement overrides name a factor that is not cross-cutting",
        ignored,
    )
    try:
        result = placement.place_cross_cutting(
            factor_set,
            state.get("classify"),
            kb,
            state.get("similarity"),
            state.get("cluster"),
            state.lexicon,
            related_threshold=config.thresholds.related,
            promotion_threshold=config.thresholds.promotion,
        )
    except KnowledgeBaseError as exc:  # an override outside its relevant set
        raise KnowledgeBaseError(f"kb file {config.kb_path}: {exc}") from None
    path = state.put("place", result, artifact_data("place", result.placements))
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
    _write_csv(
        config.out_dir / "placements_report.csv",
        ("factor", "domain", "subcategory", "tier", "composite", "is_argmax"),
        rows,
    )
    return path


def phase_indicate(config: PipelineConfig, state: RunState | None = None) -> Path:
    """Write indicators.json, a report no phase reads back: the indicator
    records, the relevance profile of each subcategory and the distribution
    profile of each category, over the factors homed there."""
    state = state or RunState(config)
    factor_set, kb, records = state.get("integrate"), state.kb, _indicators(state)
    homes = placement.primary_homes(state.get("cluster"), state.get("place"))
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
    data = artifact_data("indicate", records)
    data["subcategory_profiles"] = subcategory_profiles
    data["category_profiles"] = category_profiles
    return state.put("indicate", records, data)


def phase_emit(
    config: PipelineConfig,
    sankey_category: str | None = None,
    sankey_subfactors: Sequence[str] | None = None,
    state: RunState | None = None,
) -> int:
    """Build, validate and write the exports, and the Sankey file of
    ``sankey_category`` if given. Run alone, it resolves that category
    against the KB's domain ids and checks ``sankey_subfactors`` before
    writing anything; ``run``, passing its ``state``, has done both."""
    if state is None:
        state = RunState(config)
        if sankey_category is not None:
            domain_ids = state.kb.domain_ids()
            sankey_category = emit.resolve_identifier(domain_ids, sankey_category)
            emit.check_subfactors(state.get("integrate").names, sankey_subfactors)
    factor_set = state.get("integrate")
    framework = emit.build_framework(
        factor_set,
        state.get("classify"),
        state.get("cluster"),
        state.get("place"),
        state.get("indicate"),
        state.kb,
        config_checksums=state.checksums,
    )
    report = emit.validate(framework, factor_set)
    out = config.out_dir
    emit.write_documents(out, state.envelope("emit"), framework, report)
    if sankey_category is not None:
        nodes, links = emit.export_sankey(
            framework, factor_set, sankey_category, sankey_subfactors
        )
        slug = sankey_category.casefold().replace(" ", "_").replace("&", "and")
        # A path separator in the id must not lead the file out of out_dir.
        for separator in filter(None, (os.sep, os.altsep)):
            slug = slug.replace(separator, "_")
        emit.write_sankey(nodes, links, out / f"sankey_{slug}.csv")
    if not report["passed"]:
        log.error("emit: validation failed")
        return 2
    return 0


def run(
    config: PipelineConfig,
    emit_pairs: bool = False,
    sankey_category: str | None = None,
    sankey_subfactors: Sequence[str] | None = None,
) -> int:
    """Execute all phases in order on one state; returns the process exit
    status. The Sankey category is resolved against the KB before any phase
    runs and its filter checked right after integrate."""
    state = RunState(config)
    if sankey_category is not None:
        domain_ids = state.kb.domain_ids()
        sankey_category = emit.resolve_identifier(domain_ids, sankey_category)
    phase_integrate(config, state=state)
    if sankey_category is not None:
        emit.check_subfactors(state.get("integrate").names, sankey_subfactors)
    phase_similarity(config, emit_pairs=emit_pairs, state=state)
    phase_classify(config, state=state)
    phase_cluster(config, state=state)
    phase_place(config, state=state)
    phase_indicate(config, state=state)
    return phase_emit(config, sankey_category, sankey_subfactors, state=state)
