"""End-to-end CLI behaviour: exit codes, artifacts, composability."""

from __future__ import annotations

import json
import logging
from pathlib import Path

import pytest
import yaml

from taxoforge import classify, cli, emit, pipeline
from taxoforge.knowledge import default_kb_path, default_lexicon_path, load_kb
from tests.conftest import FIXTURES

PHASE_COMMANDS = [
    "integrate",
    "similarity",
    "classify",
    "cluster",
    "place",
    "indicate",
    "emit",
]


def write_config(tmp_path: Path, name: str = "config.yaml", extra: str = "") -> Path:
    corpus = FIXTURES / "sample_corpus.csv"
    out = tmp_path / "out"
    config = tmp_path / name
    config.write_text(
        f"datasets:\n  - {corpus}\nout: {out}\n{extra}", encoding="utf-8"
    )
    return config


class TestRun:
    def test_fixture_run_exits_zero(self, tmp_path):
        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config)]) == 0
        out = tmp_path / "out"
        for name in [
            "integrated.json",
            "similarity.json",
            "classification.json",
            "classification_report.csv",
            "assignments.json",
            "assignments_report.csv",
            "placements.json",
            "placements_report.csv",
            "indicators.json",
            "framework.json",
            "framework.md",
            "framework_document.json",
            "validation.json",
        ]:
            assert (out / name).exists(), name
        framework = json.loads((out / "framework.json").read_text(encoding="utf-8"))
        assert framework["data"]["metadata"]["unique_factors"] == 11

    def test_missing_kb_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, extra="kb: /nonexistent/kb.yaml\n")
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "kb path not found" in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
        assert cli.main(["run"]) == 1
        assert "no config" in capsys.readouterr().err

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(config))
        assert cli.main(["run"]) == 0

    def test_injected_fault_exits_two(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        original = emit.build_framework

        def sabotage(*args, **kwargs):
            framework = original(*args, **kwargs)
            from tests.test_emit import duplicate_primary

            return duplicate_primary(framework, "safety")

        monkeypatch.setattr(emit, "build_framework", sabotage)
        assert cli.main(["run", "--config", str(config)]) == 2

    def test_run_loads_each_input_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(label, func):
            def wrapper(*args, **kwargs):
                calls.append(label)
                return func(*args, **kwargs)

            return wrapper

        for name in ("load_rules", "load_kb", "load_lexicon"):
            monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
        checksum = counted("checksum", pipeline.PipelineConfig.checksum)
        monkeypatch.setattr(pipeline.PipelineConfig, "checksum", checksum)
        for phase, (name, decoder) in pipeline.ARTIFACTS.items():
            decoding = (name, counted(f"decode {phase}", decoder))
            monkeypatch.setitem(pipeline.ARTIFACTS, phase, decoding)
        config = pipeline.apply_overrides(
            pipeline.load_config(FIXTURES / "config.yaml"), out_dir=str(tmp_path)
        )
        assert pipeline.run(config) == 0
        assert sorted(calls) == ["checksum", "load_kb", "load_lexicon", "load_rules"]
        # A phase run alone decodes its inputs from the artifacts on disk.
        calls.clear()
        assert pipeline.phase_emit(config) == 0
        assert sorted(calls) == [
            "checksum",
            "decode classify",
            "decode cluster",
            "decode indicate",
            "decode integrate",
            "decode place",
            "load_kb",
        ]


class TestPhaseChaining:
    def test_chained_phases_match_run_byte_for_byte(self, tmp_path):
        config_a = write_config(tmp_path, "a.yaml")
        (tmp_path / "b").mkdir()
        corpus = FIXTURES / "sample_corpus.csv"
        config_b = tmp_path / "b" / "b.yaml"
        config_b.write_text(
            f"datasets:\n  - {corpus}\nout: {tmp_path / 'out_b'}\n", encoding="utf-8"
        )

        assert cli.main(["run", "--config", str(config_a)]) == 0
        for command in PHASE_COMMANDS:
            assert cli.main([command, "--config", str(config_b)]) == 0

        out_a = tmp_path / "out"
        out_b = tmp_path / "out_b"
        for name in [
            "integrated.json",
            "similarity.json",
            "classification.json",
            "assignments.json",
            "placements.json",
            "indicators.json",
            "framework.json",
            "framework.md",
            "framework_document.json",
            "validation.json",
        ]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_phase_without_upstream_fails(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert cli.main(["classify", "--config", str(config)]) == 1
        assert "missing upstream artifact" in capsys.readouterr().err

    def test_stale_chain_refused(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert cli.main(["integrate", "--config", str(config)]) == 0
        # Different weights resolve to a different config checksum.
        code = cli.main(
            ["similarity", "--config", str(config), "--weights", "1,0,0"]
        )
        assert code == 1
        assert "checksum mismatch" in capsys.readouterr().err

    def test_package_version_change_refuses_artifacts(
        self, tmp_path, monkeypatch, capsys
    ):
        config = write_config(tmp_path)
        for phase in ("integrate", "similarity", "classify"):
            assert cli.main([phase, "--config", str(config)]) == 0
        # Artifacts written by another release may differ in format.
        monkeypatch.setattr(pipeline, "__version__", "0.1.0")
        assert cli.main(["cluster", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "checksum mismatch" in err
        assert len(err.strip().splitlines()) == 1


class TestClassifyPhase:
    def test_relevance_scored_once_per_factor_and_domain(
        self, tmp_path, monkeypatch
    ):
        calls = []
        original = classify.domain_relevance

        def counting(name, domain, lexicon):
            calls.append((name, domain.identifier))
            return original(name, domain, lexicon)

        monkeypatch.setattr(classify, "domain_relevance", counting)
        config = pipeline.apply_overrides(
            pipeline.load_config(FIXTURES / "config.yaml"), out_dir=str(tmp_path)
        )
        assert pipeline.run(config) == 0
        factors = {name for name, _ in calls}
        domains = load_kb(config.kb_path).domain_ids()
        assert len(factors) == 11
        assert len(calls) == len(set(calls)) == len(factors) * len(domains)

    def test_unmatched_warning_is_bounded(self, tmp_path, caplog):
        names = ["zzz", "qqq", "xxq", "zqx", "qzz", "xqz", "jjq"]
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(
            "raw_name,study_id,space_type\n"
            + "".join(f"{name},c{i},P\n" for i, name in enumerate(names)),
            encoding="utf-8",
        )
        config = tmp_path / "config.yaml"
        config.write_text(
            f"datasets:\n  - {corpus}\nout: {tmp_path / 'out'}\n", encoding="utf-8"
        )
        assert cli.main(["integrate", "--config", str(config)]) == 0
        with caplog.at_level(logging.WARNING, logger="taxoforge.pipeline"):
            assert cli.main(["classify", "--config", str(config)]) == 0
        (message,) = [
            r.getMessage() for r in caplog.records if "domain match" in r.getMessage()
        ]
        assert message.startswith("classify: 7 factors without a domain match")
        assert sum(name in message for name in names) == pipeline.UNMATCHED_SHOWN


class TestFlags:
    def test_emit_pairs(self, tmp_path):
        from taxoforge.similarity import band_census, matrix_from_dict

        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config), "--emit-pairs"]) == 0
        pairs = (tmp_path / "out" / "pairs.csv").read_text(encoding="utf-8")
        lines = pairs.strip().splitlines()
        assert lines[0] == "factor_a,factor_b,score,band"
        assert len(lines) - 1 == 55  # 11 factors -> n(n-1)/2 pairs
        doc = json.loads(
            (tmp_path / "out" / "similarity.json").read_text(encoding="utf-8")
        )
        census = band_census(matrix_from_dict(doc["data"]))
        dumped = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert dumped.count("High") == census.high
        assert dumped.count("Moderate") == census.moderate
        assert dumped.count("Low") == census.low

    def test_sankey_flag(self, tmp_path):
        config = write_config(tmp_path)
        code = cli.main(["run", "--config", str(config), "--sankey", "SAFETY"])
        assert code == 0
        path = tmp_path / "out" / "sankey_safety_and_security.csv"
        assert path.exists()
        assert path.read_text(encoding="utf-8").startswith("nodes\n")

    def test_sankey_with_subfactors(self, tmp_path):
        config = write_config(tmp_path)
        code = cli.main(
            [
                "run",
                "--config",
                str(config),
                "--sankey",
                "SAFETY",
                "--subfactors",
                "safety,security",
            ]
        )
        assert code == 0
        text = (tmp_path / "out" / "sankey_safety_and_security.csv").read_text(
            encoding="utf-8"
        )
        assert "factor:safety" in text
        assert "street travel safety" not in text

    def test_threshold_override_changes_behavior(self, tmp_path):
        config = write_config(tmp_path)
        assert (
            cli.main(
                [
                    "run",
                    "--config",
                    str(config),
                    "--threshold",
                    "cross_cutting=0.99",
                ]
            )
            == 0
        )
        placements = json.loads(
            (tmp_path / "out" / "placements.json").read_text(encoding="utf-8")
        )
        # nothing reaches 0.99 relevance in more than two domains
        assert placements["data"]["metrics"]["cross_cutting_count"] == 0

    def test_bad_threshold_name(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert (
            cli.main(["run", "--config", str(config), "--threshold", "nope=0.5"]) == 1
        )
        assert "unknown threshold" in capsys.readouterr().err

    def test_weights_flag_degeneracy(self, tmp_path):
        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config), "--weights", "1,0,0"]) == 0
        doc = json.loads(
            (tmp_path / "out" / "similarity.json").read_text(encoding="utf-8")
        )
        data = doc["data"]
        for i, j, linguistic, _, _ in data["components"]:
            assert data["scores"][i][j] == linguistic

    def test_jobs_flag_byte_identical(self, tmp_path):
        config_one = write_config(tmp_path, "one.yaml")
        assert cli.main(["run", "--config", str(config_one), "--jobs", "1"]) == 0
        first = {
            p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
        }
        assert cli.main(["run", "--config", str(config_one), "--jobs", "8"]) == 0
        second = {
            p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
        }
        assert first == second


class TestReports:
    def test_classification_report_schema(self, tmp_path):
        import csv

        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config)]) == 0
        with (tmp_path / "out" / "classification_report.csv").open(
            encoding="utf-8", newline=""
        ) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "canonical_name",
            "tracking_notation",
            "active_type_count",
            "entropy",
            "class",
            "primary_domain",
            "cross_cutting_score",
            "status",
        ]
        first = rows[1]
        assert first[0] == "safety"
        assert first[1] == "[P×1, S×1, U×1, O×1, F×1]"
        assert first[3] == "1.609"
        assert first[4] == "Universal"

    def test_indicator_artifact_profiles(self, tmp_path):
        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config)]) == 0
        doc = json.loads(
            (tmp_path / "out" / "indicators.json").read_text(encoding="utf-8")
        )
        profiles = doc["data"]["subcategory_profiles"]
        assert profiles
        for profile in profiles:
            assert sum(profile["relevance"].values()) == pytest.approx(1.0)
        for profile in doc["data"]["category_profiles"]:
            assert sum(profile["distribution"].values()) == pytest.approx(1.0)


class TestConfigParsing:
    def test_per_typology_mapping(self, tmp_path):
        rows = {
            "P": "raw_name,study_id,space_type\nsafety,c1,P\n",
            "S": "raw_name,study_id,space_type\nsafety,c2,S\n",
        }
        for code, text in rows.items():
            (tmp_path / f"{code}.csv").write_text(text, encoding="utf-8")
        config = tmp_path / "config.yaml"
        config.write_text(
            f"datasets:\n  S: {tmp_path / 'S.csv'}\n  P: {tmp_path / 'P.csv'}\n"
            f"out: {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        loaded = pipeline.load_config(config)
        # mapping form processes files in canonical typology order
        assert [code for _, code in loaded.datasets] == ["P", "S"]
        assert cli.main(["run", "--config", str(config)]) == 0

    def test_threshold_range_validation(self, tmp_path):
        config = write_config(tmp_path, extra="thresholds:\n  band_high: 1.5\n")
        with pytest.raises(pipeline.ConfigError, match="out of range"):
            pipeline.load_config(config)


MISSING = object()

# (file, path to the edited value, new value, field the error must name).
# An empty path replaces the whole document; MISSING deletes the value.
MALFORMED = [
    pytest.param("config", ["jobs"], "two", "jobs", id="config-jobs"),
    pytest.param(
        "config", ["thresholds"], {"related": "high"}, "related", id="config-threshold"
    ),
    pytest.param(
        "config", ["weights"], ["a", "b", "c"], "weights", id="config-weights"
    ),
    pytest.param(
        "config",
        ["thresholds"],
        {"band_high": 0.4, "band_low": 0.5},
        "band_high",
        id="config-band-order",
    ),
    pytest.param(
        "kb",
        ["domains", 0, "space_profile", "P"],
        "high",
        "space_profile",
        id="kb-profile",
    ),
    pytest.param(
        "kb", ["scope_priors", "adjacent"], "near", "scope_priors", id="kb-priors"
    ),
    pytest.param(
        "kb",
        ["domains", 0, "literature_support"],
        ["comfort"],
        "literature_support",
        id="kb-literature-list",
    ),
    pytest.param(
        "kb",
        ["domains", 0, "literature_support", "strong"],
        "comfort",
        "strong",
        id="kb-literature-names-string",
    ),
    pytest.param(
        "kb",
        ["domains", 0, "compatible_types"],
        "PS",
        "compatible_types",
        id="kb-compatible-string",
    ),
    pytest.param("lexicon", ["field_score"], "high", "field_score", id="lexicon-score"),
    pytest.param("artifact", [], [], "data", id="artifact-not-object"),
    pytest.param("artifact", ["data"], MISSING, "data", id="artifact-no-data"),
    pytest.param("artifact", ["phase"], "similarity", "phase", id="artifact-phase"),
    pytest.param(
        "artifact", ["schema_version"], 0, "schema_version", id="artifact-schema"
    ),
]

def _edit(doc, path, value):
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


class TestMalformedInputs:
    @pytest.mark.parametrize("kind,path,value,field", MALFORMED)
    def test_exits_one_with_one_line(
        self, tmp_path, capsys, kind, path, value, field
    ):
        doc = {"datasets": [str(FIXTURES / "sample_corpus.csv")], "out": "out"}
        defaults = {"kb": default_kb_path(), "lexicon": default_lexicon_path()}
        if kind in defaults:
            source = yaml.safe_load(defaults[kind].read_text(encoding="utf-8"))
            edited = tmp_path / f"{kind}.yaml"
            edited.write_text(yaml.safe_dump(_edit(source, path, value)), "utf-8")
            doc[kind] = str(edited)
        elif kind == "config":
            doc = _edit(doc, path, value)
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        command = "run"
        if kind == "artifact":
            assert cli.main(["integrate", "--config", str(config)]) == 0
            artifact = tmp_path / "out" / "integrated.json"
            data = json.loads(artifact.read_text(encoding="utf-8"))
            artifact.write_text(json.dumps(_edit(data, path, value)), "utf-8")
            command = "similarity"
        capsys.readouterr()
        assert cli.main([command, "--config", str(config)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert field in lines[0]
