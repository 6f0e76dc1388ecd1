"""Configuration handling and phase orchestration.

A ``RunState`` holds one invocation's input checksums, KB, lexicon and phase
results, each computed or loaded once; a result it has not computed is
decoded from that phase's artifact once the artifact's header checks out.
``run`` passes one state through every phase, so each artifact is written
once and never read back; a phase run alone reads its inputs from disk. Both
paths produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

import yaml

from . import __version__, codec
from . import applicability, classify, cluster, emit, integrate, placement, similarity
from .corpus import SPACE_TYPES, load_corpus, load_rules, merge_corpora
from .emit import SCHEMA_VERSION
from .errors import ArtifactError, ConfigError, TaxoforgeError, require_number
from .errors import is_unit_number
from .knowledge import (
    DomainKnowledgeBase,
    default_kb_path,
    default_lexicon_path,
    default_rules_path,
    load_kb,
)
from .similarity import SemanticLexicon, SimilarityWeights, load_lexicon

log = logging.getLogger(__name__)

# Unmatched factor names quoted in the classify warning; the count is always given.
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
        for name, value in self.as_dict().items():
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"threshold {name}={value} out of range [0, 1]")
        if self.band_high < self.band_low:
            raise ConfigError(
                f"threshold band_high={self.band_high} < band_low={self.band_low}"
            )

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass(frozen=True)
class PipelineConfig:
    datasets: tuple[tuple[Path, str | None], ...]  # (path, expected type code)
    rules_path: Path
    kb_path: Path
    lexicon_path: Path
    out_dir: Path
    weights: SimilarityWeights = SimilarityWeights()
    thresholds: Thresholds = Thresholds()
    jobs: int = 1  # validated but unused: the similarity build is serial

    def __post_init__(self) -> None:
        if type(self.jobs) is not int or self.jobs < 1:
            raise ConfigError(f"jobs must be a whole number >= 1, got {self.jobs!r}")

    def checksum(self) -> dict[str, str]:
        """Input digests in one pass: "config" over the package version, the
        resolved settings, and the content of every input file (the version
        guards artifact-format changes), and one per knowledge file."""
        inputs = {
            "rules": _file_digest(self.rules_path, "rules"),
            "kb": _file_digest(self.kb_path, "kb"),
            "lexicon": _file_digest(self.lexicon_path, "lexicon"),
        }
        doc = {
            "version": __version__,
            "datasets": [
                [str(path), code, _file_digest(path, "dataset")]
                for path, code in self.datasets
            ],
            **inputs,
            "weights": list(self.weights.as_tuple()),
            "thresholds": self.thresholds.as_dict(),
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


def _parse_weights(value) -> SimilarityWeights:
    if isinstance(value, dict):
        names = [f.name for f in fields(SimilarityWeights)]
        for name in value:
            if name not in names:
                raise ConfigError(f"unknown similarity weight {name!r}")
        value = [value.get(f.name, f.default) for f in fields(SimilarityWeights)]
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"bad similarity weights: {value!r}")
    numbers = [
        require_number(v, f"weights.{f.name}", ConfigError)
        for v, f in zip(value, fields(SimilarityWeights))
    ]
    try:
        return SimilarityWeights(*numbers)
    except TaxoforgeError as exc:
        raise ConfigError(str(exc)) from exc


def _with_thresholds(thresholds: Thresholds, values: Mapping) -> Thresholds:
    """``thresholds`` with the named ones replaced; names and values are checked."""
    current = thresholds.as_dict()
    for name, value in values.items():
        if name not in current:
            raise ConfigError(f"unknown threshold {name!r}")
        current[name] = require_number(value, f"threshold {name}", ConfigError)
    return Thresholds(**current)


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must be a mapping")
    base = path.parent

    def resolve(raw: str) -> Path:
        candidate = Path(raw)
        return candidate if candidate.is_absolute() else base / candidate

    datasets_doc = doc.get("datasets")
    datasets: list[tuple[Path, str | None]] = []
    if isinstance(datasets_doc, dict):
        for code in SPACE_TYPES:  # canonical processing order
            if code in datasets_doc:
                datasets.append((resolve(str(datasets_doc[code])), code))
        unknown = set(datasets_doc) - set(SPACE_TYPES)
        if unknown:
            raise ConfigError(f"unknown typology keys in datasets: {sorted(unknown)}")
    elif isinstance(datasets_doc, list):
        datasets = [(resolve(str(entry)), None) for entry in datasets_doc]
    if not datasets:
        raise ConfigError("config must list at least one dataset")

    rules_path = resolve(str(doc["rules"])) if "rules" in doc else default_rules_path()
    kb_path = resolve(str(doc["kb"])) if "kb" in doc else default_kb_path()
    lexicon_path = (
        resolve(str(doc["lexicon"])) if "lexicon" in doc else default_lexicon_path()
    )
    out_dir = resolve(str(doc.get("out", "out")))

    thresholds_doc = doc.get("thresholds") or {}
    if not isinstance(thresholds_doc, dict):
        raise ConfigError("config section 'thresholds' must be a mapping")

    return PipelineConfig(
        datasets=tuple(datasets),
        rules_path=rules_path,
        kb_path=kb_path,
        lexicon_path=lexicon_path,
        out_dir=out_dir,
        weights=_parse_weights(doc.get("weights", {})),
        thresholds=_with_thresholds(Thresholds(), thresholds_doc),
        jobs=doc.get("jobs", 1),
    )


def apply_overrides(
    config: PipelineConfig,
    out_dir: str | None = None,
    weights: str | None = None,
    thresholds: Sequence[str] = (),
    jobs: int | None = None,
) -> PipelineConfig:
    """Apply CLI-level overrides onto a loaded config."""
    if out_dir is not None:
        config = replace(config, out_dir=Path(out_dir))
    if weights is not None:
        config = replace(config, weights=_parse_weights(weights.split(",")))
    if thresholds:
        values = {}
        for item in thresholds:
            name, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"--threshold expects name=value, got {item!r}")
            values[name.strip()] = value
        config = replace(config, thresholds=_with_thresholds(config.thresholds, values))
    if jobs is not None:
        config = replace(config, jobs=jobs)
    return config


# ---------------------------------------------------------------------------
# Run state and artifact I/O
# ---------------------------------------------------------------------------

# phase -> (artifact file, key of ``data`` holding the result or None when
# ``data`` is the result, result type); the codec derives ``data`` from the
# type. similarity.json keeps its own codec for the compact edge list, and no
# phase reads framework.json. The benchmark (perfbench/worker.py) reads these
# keys and fields, so they stay: integrated.json raw_record_count and
# factors[*].studies (a mapping of lists); the flat flagged and primary_domain
# of each classification.json factor; similarity.json names, weights and
# scores; and the result objects' cross_cutting.flagged and primary_domain.
ARTIFACTS = {
    "integrate": ("integrated.json", None, integrate.IntegratedFactorSet),
    "similarity": ("similarity.json", None, similarity.SimilarityMatrix),
    "classify": ("classification.json", "factors", list[classify.ClassificationResult]),
    "cluster": ("assignments.json", "assignments", list[cluster.CategoryAssignment]),
    "place": ("placements.json", None, placement.PlacementResult),
    "indicate": ("indicators.json", "indicators", list[applicability.IndicatorRecord]),
    "emit": ("framework.json", None, None),
}


def artifact_data(phase: str, result: object) -> dict:
    """The codec's ``data`` for ``phase``'s result, under its key if it has one."""
    _, key, kind = ARTIFACTS[phase]
    data = codec.encode(kind, result)
    return data if key is None else {key: data}


class RunState:
    """What one invocation knows: the input checksums, the KB, the lexicon,
    and each phase's result, each computed or loaded once. A result this
    process has not computed is decoded from its artifact on first use."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.results: dict[str, object] = {}

    @cached_property
    def checksums(self) -> dict[str, str]:
        return self.config.checksum()

    @cached_property
    def kb(self) -> DomainKnowledgeBase:
        return load_kb(self.config.kb_path)

    @cached_property
    def lexicon(self) -> SemanticLexicon:
        return load_lexicon(self.config.lexicon_path)

    def put(self, phase: str, result: object, data: dict | None = None) -> Path:
        """Keep ``result``; write ``data``, by default the codec's, as its artifact."""
        self.results[phase] = result
        doc = {
            "schema_version": SCHEMA_VERSION,
            "phase": phase,
            "config_checksum": self.checksums["config"],
            "data": artifact_data(phase, result) if data is None else data,
        }
        path = self.config.out_dir / ARTIFACTS[phase][0]
        text = emit.to_canonical_json(doc)
        emit.write_atomic(path, lambda handle: handle.write(text))
        return path

    def get(self, phase: str):
        """The result of ``phase``, from memory or else from its artifact.

        This is the one checked read path: a body that does not fit the
        result's type, the integrated factors or the KB becomes an
        ``ArtifactError`` naming the file and the field."""
        if phase not in self.results:
            name, key, kind = ARTIFACTS[phase]
            path = self.config.out_dir / name
            data, where = self._read(phase, path), f"artifact {path}: data"
            if phase == "similarity":
                try:
                    result = similarity.matrix_from_dict(data)
                except KeyError as exc:
                    raise ArtifactError(f"{where}.{exc.args[0]}: missing") from None
                except TaxoforgeError as exc:
                    raise ArtifactError(f"{where}: {exc}") from None
            else:
                if key is not None:
                    data, where = data.get(key), f"{where}.{key}"
                result = codec.decode(kind, data, where)
            self._check(phase, result, where)
            self.results[phase] = result
        return self.results[phase]

    def _check(self, phase: str, result, where: str) -> None:
        """Refuse a decoded result that does not fit the integrated factors,
        which per-factor artifacts list in their order, or the KB's ids."""

        def refuse(field: str, message: str) -> None:
            raise ArtifactError(f"{where}{field}: {message}")

        if phase == "integrate":
            for i, f in enumerate(result.factors):
                if f.insertion_index != i or tuple(f.studies) != SPACE_TYPES:
                    refuse(f".factors[{i}]", f"expected insertion_index {i} and "
                           f"studies under {', '.join(SPACE_TYPES)}")
            total = sum(f.occurrence.total for f in result.factors)
            if result.raw_record_count != total:
                refuse(".raw_record_count", "expected the sum of the factors' counts")
            return
        if phase == "similarity":
            return
        names = self.get("integrate").names
        if phase != "place":
            key = "factor" if phase == "cluster" else "name"
            if tuple(getattr(r, key) for r in result) != names:
                refuse(f"[*].{key}", "expected the integrated factors, in order")
        subcategories = {d.identifier: d.subcategory_ids() for d in self.kb.domains}

        def known(at: str, entry, key: str, among=subcategories) -> None:
            if getattr(entry, key) not in among:
                refuse(f"{at}.{key}", f"unknown id {getattr(entry, key)!r}")

        def home(at: str, entry, domain: str, sub: str) -> None:
            known(at, entry, domain)
            known(at, entry, sub, subcategories[getattr(entry, domain)])

        if phase == "place":
            for i, p in enumerate(result.placements):
                known(f".placements[{i}]", p, "factor", names)
                home(f".placements[{i}]", p, "domain", "subcategory")
            for i, r in enumerate(result.cross_references):
                known(f".cross_references[{i}]", r, "factor", names)
                home(f".cross_references[{i}]", r, "from_domain", "from_subcategory")
                home(f".cross_references[{i}]", r, "to_domain", "to_subcategory")
            return
        for i, r in enumerate(result):
            at = f"[{i}]"
            if phase == "classify":
                if len(r.relevance) != len(subcategories) or not all(
                    is_unit_number(x) for x in r.relevance
                ):
                    refuse(f"{at}.relevance", "expected a number in [0, 1] per domain")
                if r.primary_domain is not None:
                    known(at, r, "primary_domain")
                for domain in r.cross_cutting.relevant_domains:
                    if domain not in subcategories:
                        refuse(f"{at}.relevant_domains", f"unknown id {domain!r}")
            elif phase == "cluster":
                home(at, r, "category", "subcategory")
                if r.scores.keys() != subcategories.keys():
                    refuse(f"{at}.scores", "expected one entry per KB domain")
            else:
                known(at, r, "effective_domain")

    def _read(self, phase: str, path: Path) -> dict:
        if not path.exists():
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
            if doc.get(field) != expected:
                raise ArtifactError(
                    f"artifact {path}: {field} is {doc.get(field)!r}, "
                    f"expected {expected!r}"
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


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def phase_integrate(config: PipelineConfig, state: RunState | None = None) -> Path:
    state = state or RunState(config)
    rules = load_rules(config.rules_path)
    corpus = merge_corpora(
        load_corpus(path, expect_type=code) for path, code in config.datasets
    )
    factor_set = integrate.integrate(corpus, rules)
    log.info(
        "integrate: %d records -> %d unique factors",
        factor_set.raw_record_count,
        factor_set.unique_count,
    )
    return state.put("integrate", factor_set)


def phase_similarity(
    config: PipelineConfig, emit_pairs: bool = False, state: RunState | None = None
) -> Path:
    state = state or RunState(config)
    factor_set, t = state.get("integrate"), config.thresholds
    # The graph keeps the pairs at or above the lowest score a later phase
    # asks about: the census, subclusters and related neighbours.
    floor = min(t.band_low, t.subcluster, t.related)
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
    if unassigned:
        log.warning(
            "classify: %d factors without a domain match, first names: %s",
            len(unassigned),
            unassigned[:UNMATCHED_SHOWN],
        )
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
    report = cluster.validate_hierarchy(assignments, state.kb)
    if not report.passed:
        log.warning("cluster: hierarchy violations: %s", report.violations)
    path = state.put("cluster", assignments)
    domain_ids = state.kb.domain_ids()
    rows = [
        (a.factor, a.category, a.subcategory)
        + tuple(f"{a.scores[d].final:.6f}" for d in domain_ids)
        for a in assignments
    ]
    _write_csv(
        config.out_dir / "assignments_report.csv",
        ("factor", "category", "subcategory") + domain_ids,
        rows,
    )
    return path


def phase_place(config: PipelineConfig, state: RunState | None = None) -> Path:
    state = state or RunState(config)
    result = placement.place_cross_cutting(
        state.get("integrate"),
        state.get("classify"),
        state.kb,
        state.get("similarity"),
        state.get("cluster"),
        state.lexicon,
        related_threshold=config.thresholds.related,
        promotion_threshold=config.thresholds.promotion,
    )
    metrics = asdict(placement.placement_metrics(result))
    data = {**artifact_data("place", result), "metrics": metrics}
    path = state.put("place", result, data)
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


def _aggregation_profiles(
    factor_set: integrate.IntegratedFactorSet,
    homes: Mapping[str, tuple[str, str]],
    kb: DomainKnowledgeBase,
) -> tuple[list[dict], list[dict]]:
    """Per-subcategory relevance vectors and per-category distribution profiles."""
    vectors_by_home: dict[tuple[str, str], list] = {}
    for factor in factor_set.factors:
        vectors_by_home.setdefault(homes[factor.canonical_name], []).append(
            factor.occurrence
        )
    sub_profiles: list[dict] = []
    category_inputs: dict[str, list[tuple[tuple[float, ...], int]]] = {}
    for domain in kb.domains:
        for sub in domain.subcategories:
            vectors = vectors_by_home.get((domain.identifier, sub.identifier))
            if not vectors:
                continue
            relevance = applicability.aggregate_subcategory(vectors)
            weight = sum(v.total for v in vectors)
            sub_profiles.append(
                {
                    "category": domain.identifier,
                    "subcategory": sub.identifier,
                    "relevance": dict(zip(SPACE_TYPES, relevance)),
                }
            )
            category_inputs.setdefault(domain.identifier, []).append(
                (relevance, weight)
            )
    category_profiles = [
        {
            "category": domain.identifier,
            "distribution": dict(
                zip(
                    SPACE_TYPES,
                    applicability.aggregate_category(
                        [profile for profile, _ in category_inputs[domain.identifier]],
                        [weight for _, weight in category_inputs[domain.identifier]],
                    ),
                )
            ),
        }
        for domain in kb.domains
        if domain.identifier in category_inputs
    ]
    return sub_profiles, category_profiles


def phase_indicate(config: PipelineConfig, state: RunState | None = None) -> Path:
    state = state or RunState(config)
    factor_set, results, kb = state.get("integrate"), state.get("classify"), state.kb
    homes = placement.primary_homes(results, state.get("cluster"), state.get("place"))
    records = applicability.indicators_for(
        factor_set.factors,
        results,
        {name: home[0] for name, home in homes.items()},
        kb,
    )
    data = artifact_data("indicate", records)
    data["subcategory_profiles"], data["category_profiles"] = _aggregation_profiles(
        factor_set, homes, kb
    )
    return state.put("indicate", records, data)


def phase_emit(
    config: PipelineConfig,
    sankey_category: str | None = None,
    sankey_subfactors: Sequence[str] | None = None,
    state: RunState | None = None,
) -> int:
    state = state or RunState(config)
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
    state.put("emit", framework, emit.framework_to_dict(framework))
    emit.export_document(
        framework, report, config.out_dir / "framework_document.json", "structured"
    )
    emit.export_document(
        framework, report, config.out_dir / "framework.md", "markdown"
    )
    validation = emit.to_canonical_json(emit.report_to_dict(report))
    emit.write_atomic(config.out_dir / "validation.json", lambda h: h.write(validation))
    if sankey_category is not None:
        export = emit.export_sankey(framework, sankey_category, sankey_subfactors)
        resolved = emit.resolve_category(framework, sankey_category)
        slug = resolved.identifier.casefold().replace(" ", "_").replace("&", "and")
        emit.write_sankey(export, config.out_dir / f"sankey_{slug}.csv")
    if not report.passed:
        log.error("emit: validation failed")
        return 2
    return 0


def run(
    config: PipelineConfig,
    emit_pairs: bool = False,
    sankey_category: str | None = None,
    sankey_subfactors: Sequence[str] | None = None,
) -> int:
    """Execute all phases in order on one state; returns the process exit status."""
    state = RunState(config)
    phase_integrate(config, state=state)
    phase_similarity(config, emit_pairs=emit_pairs, state=state)
    phase_classify(config, state=state)
    phase_cluster(config, state=state)
    phase_place(config, state=state)
    phase_indicate(config, state=state)
    return phase_emit(config, sankey_category, sankey_subfactors, state=state)
