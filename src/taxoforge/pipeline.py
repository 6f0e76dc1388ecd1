"""Configuration handling and phase orchestration.

Each phase reads the previous phase's artifact from the output directory,
verifies the embedded config checksum, computes its own result, and writes it
back with the same header. Running all phases in sequence and running them as
separate invocations therefore produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from . import __version__
from . import applicability, classify, cluster, emit, integrate, placement, similarity
from .corpus import SPACE_TYPES, load_corpus, load_rules, merge_corpora
from .errors import ArtifactError, ConfigError, TaxoforgeError
from .knowledge import (
    DomainKnowledgeBase,
    default_kb_path,
    default_lexicon_path,
    default_rules_path,
    load_kb,
)
from .similarity import SimilarityWeights, load_lexicon

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

    def as_dict(self) -> dict[str, float]:
        return {
            "band_high": self.band_high,
            "band_low": self.band_low,
            "related": self.related,
            "subcluster": self.subcluster,
            "cross_cutting": self.cross_cutting,
            "promotion": self.promotion,
        }


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

    def checksum(self) -> str:
        """Digest over the package version, resolved settings, and the content
        of every input file; the version guards artifact-format changes."""
        doc = {
            "version": __version__,
            "datasets": [
                [str(path), code, _file_digest(path, "dataset")]
                for path, code in self.datasets
            ],
            "rules": _file_digest(self.rules_path, "rules"),
            "kb": _file_digest(self.kb_path, "kb"),
            "lexicon": _file_digest(self.lexicon_path, "lexicon"),
            "weights": list(self.weights.as_tuple()),
            "thresholds": self.thresholds.as_dict(),
        }
        blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def checksums_by_input(self) -> dict[str, str]:
        return {
            "config": self.checksum(),
            "rules": _file_digest(self.rules_path, "rules"),
            "kb": _file_digest(self.kb_path, "kb"),
            "lexicon": _file_digest(self.lexicon_path, "lexicon"),
        }


def _file_digest(path: Path, label: str) -> str:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{label} path not found: {path}")
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError as exc:
        raise ConfigError(f"cannot read {label} file {path}: {exc}") from exc


def _parse_weights(value) -> SimilarityWeights:
    try:
        if isinstance(value, dict):
            return SimilarityWeights(
                linguistic=float(value.get("linguistic", 0.5)),
                distributional=float(value.get("distributional", 0.3)),
                co_occurrence=float(value.get("co_occurrence", 0.2)),
            )
        if isinstance(value, (list, tuple)) and len(value) == 3:
            return SimilarityWeights(*(float(v) for v in value))
    except TaxoforgeError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"bad similarity weights: {value!r}")


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

    weights = (
        _parse_weights(doc["weights"]) if "weights" in doc else SimilarityWeights()
    )
    thresholds_doc = doc.get("thresholds") or {}
    if not isinstance(thresholds_doc, dict):
        raise ConfigError("config section 'thresholds' must be a mapping")
    known = set(Thresholds().as_dict())
    unknown = set(thresholds_doc) - known
    if unknown:
        raise ConfigError(f"unknown thresholds: {sorted(unknown)}")
    thresholds = Thresholds(**{k: float(v) for k, v in thresholds_doc.items()})

    jobs = int(doc.get("jobs", 1))
    if jobs < 1:
        raise ConfigError("jobs must be at least 1")

    return PipelineConfig(
        datasets=tuple(datasets),
        rules_path=rules_path,
        kb_path=kb_path,
        lexicon_path=lexicon_path,
        out_dir=out_dir,
        weights=weights,
        thresholds=thresholds,
        jobs=jobs,
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
        parts = weights.split(",")
        if len(parts) != 3:
            raise ConfigError("--weights expects three comma-separated values")
        config = replace(config, weights=_parse_weights([p.strip() for p in parts]))
    if thresholds:
        current = config.thresholds.as_dict()
        for item in thresholds:
            if "=" not in item:
                raise ConfigError(f"--threshold expects name=value, got {item!r}")
            name, _, value = item.partition("=")
            name = name.strip()
            if name not in current:
                raise ConfigError(f"unknown threshold {name!r}")
            try:
                current[name] = float(value)
            except ValueError as exc:
                raise ConfigError(f"bad threshold value in {item!r}") from exc
        config = replace(config, thresholds=Thresholds(**current))
    if jobs is not None:
        if jobs < 1:
            raise ConfigError("jobs must be at least 1")
        config = replace(config, jobs=jobs)
    return config


# ---------------------------------------------------------------------------
# Artifact I/O
# ---------------------------------------------------------------------------

ARTIFACTS = {
    "integrate": "integrated.json",
    "similarity": "similarity.json",
    "classify": "classification.json",
    "cluster": "assignments.json",
    "place": "placements.json",
    "indicate": "indicators.json",
    "emit": "framework.json",
}


def _artifact_path(config: PipelineConfig, phase: str) -> Path:
    return config.out_dir / ARTIFACTS[phase]


def _write_artifact(config: PipelineConfig, phase: str, data: dict) -> Path:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "phase": phase,
        "config_checksum": config.checksum(),
        "data": data,
    }
    path = _artifact_path(config, phase)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(emit.to_canonical_json(doc), encoding="utf-8")
    return path


def _read_artifact(config: PipelineConfig, phase: str) -> dict:
    path = _artifact_path(config, phase)
    if not path.exists():
        raise ArtifactError(
            f"phase {phase!r}: missing upstream artifact {path}; run that phase first"
        )
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"phase {phase!r}: cannot parse {path}: {exc}") from exc
    if doc.get("config_checksum") != config.checksum():
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


def phase_integrate(config: PipelineConfig) -> Path:
    rules = load_rules(config.rules_path)
    corpora = [
        load_corpus(path, expect_type=code)
        for path, code in config.datasets
    ]
    corpus = merge_corpora(corpora)
    factor_set = integrate.integrate(corpus, rules)
    log.info(
        "integrate: %d records -> %d unique factors",
        factor_set.raw_record_count,
        factor_set.unique_count,
    )
    return _write_artifact(
        config, "integrate", integrate.factor_set_to_dict(factor_set)
    )


def phase_similarity(config: PipelineConfig, emit_pairs: bool = False) -> Path:
    factor_set = integrate.factor_set_from_dict(_read_artifact(config, "integrate"))
    lexicon = load_lexicon(config.lexicon_path)
    matrix = similarity.build_matrix(
        factor_set, config.weights, lexicon, jobs=config.jobs
    )
    path = _write_artifact(config, "similarity", similarity.matrix_to_dict(matrix))
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


def phase_classify(config: PipelineConfig) -> Path:
    factor_set = integrate.factor_set_from_dict(_read_artifact(config, "integrate"))
    kb = load_kb(config.kb_path)
    lexicon = load_lexicon(config.lexicon_path)
    results = classify.classify_factors(
        factor_set, kb, lexicon, threshold=config.thresholds.cross_cutting
    )
    unassigned = [r.name for r in results if r.primary_domain is None]
    if unassigned:
        log.warning(
            "classify: %d factors without a domain match, first names: %s",
            len(unassigned),
            unassigned[:UNMATCHED_SHOWN],
        )
    path = _write_artifact(
        config, "classify", classify.classification_to_dict(results)
    )
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


def phase_cluster(config: PipelineConfig) -> Path:
    factor_set = integrate.factor_set_from_dict(_read_artifact(config, "integrate"))
    matrix = similarity.matrix_from_dict(_read_artifact(config, "similarity"))
    results = classify.classification_from_dict(_read_artifact(config, "classify"))
    kb = load_kb(config.kb_path)
    lexicon = load_lexicon(config.lexicon_path)
    assignments = cluster.assign_categories(
        factor_set,
        results,
        kb,
        matrix,
        lexicon,
        related_threshold=config.thresholds.related,
        subcluster_threshold=config.thresholds.subcluster,
    )
    report = cluster.validate_hierarchy(assignments, kb)
    if not report.passed:
        log.warning("cluster: hierarchy violations: %s", report.violations)
    path = _write_artifact(config, "cluster", cluster.assignments_to_dict(assignments))
    domain_ids = kb.domain_ids()
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


def phase_place(config: PipelineConfig) -> Path:
    factor_set = integrate.factor_set_from_dict(_read_artifact(config, "integrate"))
    matrix = similarity.matrix_from_dict(_read_artifact(config, "similarity"))
    results = classify.classification_from_dict(_read_artifact(config, "classify"))
    assignments = cluster.assignments_from_dict(_read_artifact(config, "cluster"))
    kb = load_kb(config.kb_path)
    lexicon = load_lexicon(config.lexicon_path)
    result = placement.place_cross_cutting(
        factor_set,
        results,
        kb,
        matrix,
        assignments,
        lexicon,
        related_threshold=config.thresholds.related,
        promotion_threshold=config.thresholds.promotion,
    )
    path = _write_artifact(config, "place", placement.placements_to_dict(result))
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


def phase_indicate(config: PipelineConfig) -> Path:
    factor_set = integrate.factor_set_from_dict(_read_artifact(config, "integrate"))
    results = classify.classification_from_dict(_read_artifact(config, "classify"))
    assignments = cluster.assignments_from_dict(_read_artifact(config, "cluster"))
    placement_result = placement.placements_from_dict(_read_artifact(config, "place"))
    kb = load_kb(config.kb_path)
    homes = primary_homes(results, assignments, placement_result)
    records = applicability.indicators_for(
        factor_set.factors,
        results,
        {name: home[0] for name, home in homes.items()},
        kb,
    )
    data = applicability.indicators_to_dict(records)
    sub_profiles, category_profiles = _aggregation_profiles(factor_set, homes, kb)
    data["subcategory_profiles"] = sub_profiles
    data["category_profiles"] = category_profiles
    return _write_artifact(config, "indicate", data)


def phase_emit(
    config: PipelineConfig,
    sankey_category: str | None = None,
    sankey_subfactors: Sequence[str] | None = None,
) -> int:
    factor_set = integrate.factor_set_from_dict(_read_artifact(config, "integrate"))
    results = classify.classification_from_dict(_read_artifact(config, "classify"))
    assignments = cluster.assignments_from_dict(_read_artifact(config, "cluster"))
    placement_result = placement.placements_from_dict(_read_artifact(config, "place"))
    records = applicability.indicators_from_dict(_read_artifact(config, "indicate"))
    kb = load_kb(config.kb_path)

    framework = emit.build_framework(
        factor_set,
        results,
        assignments,
        placement_result,
        records,
        kb,
        config_checksums=config.checksums_by_input(),
    )
    report = emit.validate(framework, factor_set)
    _write_artifact(config, "emit", emit.framework_to_dict(framework))
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
    """Execute all phases in order; returns the process exit status."""
    phase_integrate(config)
    phase_similarity(config, emit_pairs=emit_pairs)
    phase_classify(config)
    phase_cluster(config)
    phase_place(config)
    phase_indicate(config)
    return phase_emit(config, sankey_category, sankey_subfactors)
