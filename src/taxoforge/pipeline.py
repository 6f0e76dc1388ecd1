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
import io
import json
import logging
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from . import __version__
from . import applicability, classify, cluster, emit, integrate, placement, similarity
from .corpus import SPACE_TYPES, load_corpus, load_rules, merge_corpora
from .errors import ArtifactError, ConfigError, TaxoforgeError, require_number
from .knowledge import (
    DomainKnowledgeBase,
    default_kb_path,
    default_lexicon_path,
    default_rules_path,
    load_kb,
)
from .similarity import SemanticLexicon, SimilarityWeights, load_lexicon

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

# Unmatched factor names quoted in the classify warning; the count is always given.
UNMATCHED_SHOWN = 5


@dataclass(frozen=True)
class Thresholds:
    band_high: float = 0.75
    band_low: float = 0.5
    related: float = 0.75
    subcluster: float = 0.6
    cross_cutting: float = 0.6
    promotion: float = 0.80

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
    jobs: int = 1

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

# phase -> (artifact file, decoder of its data); no phase reads framework.json
ARTIFACTS = {
    "integrate": ("integrated.json", integrate.factor_set_from_dict),
    "similarity": ("similarity.json", similarity.matrix_from_dict),
    "classify": ("classification.json", classify.classification_from_dict),
    "cluster": ("assignments.json", cluster.assignments_from_dict),
    "place": ("placements.json", placement.placements_from_dict),
    "indicate": ("indicators.json", applicability.indicators_from_dict),
    "emit": ("framework.json", None),
}


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

    def put(self, phase: str, result: object, data: dict) -> Path:
        """Keep ``result`` for later phases and write ``data`` as its artifact."""
        self.results[phase] = result
        doc = {
            "schema_version": SCHEMA_VERSION,
            "phase": phase,
            "config_checksum": self.checksums["config"],
            "data": data,
        }
        path = self.config.out_dir / ARTIFACTS[phase][0]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(emit.to_canonical_json(doc), encoding="utf-8")
        return path

    def get(self, phase: str):
        """The result of ``phase``, from memory or else from its artifact."""
        if phase not in self.results:
            self.results[phase] = ARTIFACTS[phase][1](self._read(phase))
        return self.results[phase]

    def _read(self, phase: str) -> dict:
        path = self.config.out_dir / ARTIFACTS[phase][0]
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


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8")


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
    return state.put("integrate", factor_set, integrate.factor_set_to_dict(factor_set))


def phase_similarity(
    config: PipelineConfig, emit_pairs: bool = False, state: RunState | None = None
) -> Path:
    state = state or RunState(config)
    matrix = similarity.build_matrix(
        state.get("integrate"), config.weights, state.lexicon, jobs=config.jobs
    )
    path = state.put("similarity", matrix, similarity.matrix_to_dict(matrix))
    if emit_pairs:
        rows = []
        t = config.thresholds
        for i in range(matrix.n):
            for j in range(i + 1, matrix.n):
                score = matrix.scores[i][j]
                rows.append(
                    (
                        matrix.names[i],
                        matrix.names[j],
                        f"{score:.6f}",
                        similarity.band(score, t.band_high, t.band_low).value,
                    )
                )
        _write_csv(
            config.out_dir / "pairs.csv",
            ("factor_a", "factor_b", "score", "band"),
            rows,
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
    path = state.put("classify", results, classify.classification_to_dict(results))
    rows = [
        (
            r.name,
            integrate.tracking_notation(factor_set.by_name(r.name).occurrence),
            r.stats.active_type_count,
            f"{r.stats.entropy_nats:.3f}",
            r.factor_class.value,
            r.primary_domain or "",
            r.cross_cutting.score,
            r.cross_cutting.status.value,
        )
        for r in results
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
    path = state.put("cluster", assignments, cluster.assignments_to_dict(assignments))
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
    path = state.put("place", result, placement.placements_to_dict(result))
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


def primary_homes(
    results: Sequence[classify.ClassificationResult],
    assignments: Sequence[cluster.CategoryAssignment],
    placement_result: placement.PlacementResult,
) -> dict[str, tuple[str, str]]:
    """Factor -> (category, subcategory) of its one primary home."""
    by_assignment = {a.factor: (a.category, a.subcategory) for a in assignments}
    primaries = {
        p.factor: (p.domain, p.subcategory)
        for p in placement_result.placements
        if p.tier is placement.PlacementTier.PRIMARY
    }
    out = {}
    for result in results:
        if result.cross_cutting.flagged and result.name in primaries:
            out[result.name] = primaries[result.name]
        else:
            out[result.name] = by_assignment[result.name]
    return out


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
    homes = primary_homes(results, state.get("cluster"), state.get("place"))
    records = applicability.indicators_for(
        factor_set.factors,
        results,
        {name: home[0] for name, home in homes.items()},
        kb,
    )
    data = applicability.indicators_to_dict(records)
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
    (config.out_dir / "validation.json").write_text(
        emit.to_canonical_json(emit.report_to_dict(report)), encoding="utf-8"
    )
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
