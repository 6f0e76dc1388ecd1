"""End-to-end CLI behaviour: exit codes, artifacts, composability."""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxoforge import classify, cli, cluster, codec, emit, integrate, pipeline, similarity
from taxoforge.errors import TaxoforgeError
from taxoforge.knowledge import (
    default_kb_path,
    default_lexicon_path,
    default_rules_path,
)
from taxoforge.similarity import load_lexicon
from tests.conftest import FIXTURES, assert_graph_matches_dense, dense_pairs

SIMILARITY_DATA_SHA256 = (
    "d607cf6ddfdad1cde74f56b6bb6ef2904c583b10227230c75c843197acd31d33"
)

# sha256 of every file `run --emit-pairs --sankey SAFETY` writes on the
# fixture config, with the config digest (it covers the package version)
# replaced by "CONFIG". A change to any byte of any output moves one.
RUN_FILE_SHA256 = {
    "assignments.json": "cc563c5aaf2479cce615f003adcae27f5e566ce075334565b65b35f007a76146",
    "assignments_report.csv": "5262e98fc6caa8906013eb95edd3971dc47ef99844af6f9bb95eae04f530e7b3",
    "classification.json": "29e9f7c54436232cf0e11969f1fa108ca1d3c250d6c021471face558f8656173",
    "classification_report.csv": "28979abd9c88d2111a3ad9798a6c7aa31dd70e6fb53425124ea7fec8e90d0d72",
    "framework.json": "be0f49931097cafc4b12dad74f85c10ada7b66c0a679a85501c371a1ebacfb78",
    "framework.md": "bf3777a2bb6ed524492bdc0dd585622ecb045ef77311e518d321e390bef655bb",
    "framework_document.json": "7a47a53b75bc36d563944ddf459da0365396b53fed12a02182974d509cd75793",
    "indicators.json": "0a5e7170371e4f4e3408b5b1014f172ec753ceb71a1b89dc6767e536b030229c",
    "integrated.json": "b4ab12ecda5e766e1cbdfde05685ca79a4909369c3d7c2490ab5bcf203950e07",
    "pairs.csv": "a85de060a3042195a206941d160143ffa2f7b9d9c33183cc8d36a2a5549cc041",
    "placements.json": "bf6e71082d1712cbc40cea00685124ece5d8c34de28516602df2ebd8aab3399d",
    "placements_report.csv": "ef5bd99d19654d8ca3df5206efba72b2d4c2c2db87b40515a03952e5855a481c",
    "sankey_safety_and_security.csv": "92f4090ec581f3cab7e89cf37c8f38b984c54969ca57a2881576531e897867f3",
    "similarity.json": "64538e1232d31dea2e1c05a9cb3aea9ad780080d57b18bd3534446660d130bcd",
    "validation.json": "9f94f519f9889e18861640a5ec53d7424da3e83ed0485eec344546aa74dd80a8",
}

# sha256 of similarity.json and pairs.csv, the config checksum replaced as in
# RUN_FILE_SHA256, under the settings where no row is pruned by space type:
# a distributional weight of 0 (every factor in the postings all rows read)
# and a floor of 0 (every pair scored).
FALLBACK_SHA256 = {
    "weights-1-0-0": (
        {"weights": "1,0,0"},
        {
            "similarity.json": "a74a0b2f53ef819b8bc7cf096688e2786f5b4f1032f1c5ae1d33c1eae6d60c48",
            "pairs.csv": "2820aa29de4547a3642908816f2172415e99efc37cd88449b8ecdaa5ec2508e2",
        },
    ),
    "subcluster-0": (
        {"thresholds": ["subcluster=0"]},
        {
            "similarity.json": "29440d8d49a20e419771a2440a61eb56677897305820c29aa84c8183a8819ea4",
            "pairs.csv": "a85de060a3042195a206941d160143ffa2f7b9d9c33183cc8d36a2a5549cc041",
        },
    ),
}

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

    def test_similarity_data_is_pinned(self, tmp_path):
        config = pipeline.apply_overrides(
            pipeline.load_config(FIXTURES / "config.yaml"), out_dir=str(tmp_path)
        )
        assert pipeline.run(config) == 0
        doc = json.loads((tmp_path / "similarity.json").read_text(encoding="utf-8"))
        # The artifact's graph equals the all-pairs reference on the fixture.
        integrated = json.loads(
            (tmp_path / "integrated.json").read_text(encoding="utf-8")
        )
        factor_set = codec.decode(
            integrate.IntegratedFactorSet, integrated["data"], "data"
        )
        lexicon = load_lexicon(config.lexicon_path)
        dense = dense_pairs(factor_set, config.weights, lexicon)
        floor = config.thresholds.graph_floor
        assert_graph_matches_dense(similarity.matrix_from_dict(doc["data"], floor), dense)
        # sha256 of similarity.json's "data" in canonical JSON on the fixture
        # corpus; a change to any score, component or the layout moves it.
        text = json.dumps(doc["data"], ensure_ascii=False, indent=2) + "\n"
        digest = hashlib.sha256(text.encode("utf-8"))
        assert digest.hexdigest() == SIMILARITY_DATA_SHA256

    def test_every_written_file_is_pinned(self, tmp_path):
        config = pipeline.apply_overrides(
            pipeline.load_config(FIXTURES / "config.yaml"), out_dir=str(tmp_path)
        )
        assert pipeline.run(config, emit_pairs=True, sankey_category="SAFETY") == 0
        digest = config.checksum()["config"].encode("utf-8")
        written = {
            path.name: hashlib.sha256(
                path.read_bytes().replace(digest, b"CONFIG")
            ).hexdigest()
            for path in tmp_path.iterdir()
        }
        assert written == RUN_FILE_SHA256

    @pytest.mark.parametrize("setting", sorted(FALLBACK_SHA256))
    def test_graph_files_are_pinned_under_fallback_settings(self, tmp_path, setting):
        overrides, pins = FALLBACK_SHA256[setting]
        config = pipeline.apply_overrides(
            pipeline.load_config(FIXTURES / "config.yaml"),
            out_dir=str(tmp_path),
            **overrides,
        )
        assert pipeline.run(config, emit_pairs=True) == 0
        digest = config.checksum()["config"].encode("utf-8")
        written = {
            name: hashlib.sha256(
                (tmp_path / name).read_bytes().replace(digest, b"CONFIG")
            ).hexdigest()
            for name in pins
        }
        assert written == pins

    def test_written_files_do_not_depend_on_the_hash_seed(self, tmp_path):
        # The hash seed orders sets of strings; no written byte may follow it.
        package_root = str(Path(pipeline.__file__).resolve().parents[1])
        paths = [package_root, os.environ.get("PYTHONPATH", "")]
        code = "import sys; from taxoforge.cli import main; sys.exit(main())"
        written = []
        for seed in ("0", "1"):
            out = tmp_path / seed
            env = {
                **os.environ,
                "PYTHONPATH": os.pathsep.join(filter(None, paths)),
                "PYTHONHASHSEED": seed,
            }
            subprocess.run(
                [sys.executable, "-c", code, "run"]
                + ["--config", str(FIXTURES / "config.yaml"), "--out", str(out)]
                + ["--emit-pairs", "--sankey", "SAFETY"],
                env=env,
                capture_output=True,
                check=True,
            )
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert written[0].keys() == RUN_FILE_SHA256.keys()
        assert written[0] == written[1]

    def test_refused_run_leaves_no_earlier_outputs(self, tmp_path, capsys):
        # lighting is cross-cutting and ECONOMIC is outside its relevant set,
        # so the second run is refused at classify, before it writes.
        text = default_kb_path().read_text(encoding="utf-8")
        override = "placement_overrides: {lighting: ECONOMIC}"
        kb = tmp_path / "kb.yaml"
        kb.write_text(text.replace("placement_overrides: {}", override), encoding="utf-8")
        flags = ["--emit-pairs", "--sankey", "SAFETY"]
        assert cli.main(["run", "--config", str(write_config(tmp_path)), *flags]) == 0
        out = tmp_path / "out"
        (out / "notes.txt").write_text("not written by run\n", encoding="utf-8")
        refused = write_config(tmp_path, "refused.yaml", f"kb: {kb}\n")
        capsys.readouterr()
        assert cli.main(["run", "--config", str(refused), *flags]) == 1
        assert "outside the factor's relevant set" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "integrated.json",
            "notes.txt",
            "pairs.csv",
            "similarity.json",
        ]
        checksum = pipeline.load_config(refused).checksum()["config"]
        for name in ("integrated.json", "similarity.json"):
            doc = json.loads((out / name).read_text(encoding="utf-8"))
            assert doc["config_checksum"] == checksum, name
        # A file run writes that cannot be deleted is refused in one line.
        (out / "framework.md").mkdir()
        assert cli.main(["run", "--config", str(refused), *flags]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("taxoforge run: cannot remove ") and "framework.md" in line

    def test_plain_run_leaves_no_earlier_pairs_or_sankey_file(self, tmp_path):
        # Neither file carries a checksum, so one left by an earlier run with
        # other settings could not be told from this run's outputs.
        config = write_config(tmp_path)
        flags = ["--emit-pairs", "--sankey", "SAFETY"]
        assert cli.main(["run", "--config", str(config), *flags]) == 0
        out = tmp_path / "out"
        (out / "notes.txt").write_text("not written by run\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(config), "--weights", "1,0,0"]) == 0
        asked_for = {"pairs.csv", "sankey_safety_and_security.csv"}
        assert {p.name for p in out.iterdir()} == (
            RUN_FILE_SHA256.keys() - asked_for | {"notes.txt"}
        )

    def test_artifacts_are_compact_and_exports_pretty(self, tmp_path):
        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config)]) == 0
        out = tmp_path / "out"
        # What a phase reads is one line of compact JSON; what a user reads
        # is indented, as it has always been.
        for name, _, _, _ in pipeline.ARTIFACTS.values():
            text = (out / name).read_text(encoding="utf-8")
            doc = json.loads(text)
            compact = json.dumps(doc, ensure_ascii=False, separators=(",", ":"))
            assert text == compact + "\n", name
        for name in ("framework.json", "framework_document.json", "validation.json"):
            text = (out / name).read_text(encoding="utf-8")
            indented = json.dumps(json.loads(text), ensure_ascii=False, indent=2)
            assert text == indented + "\n", name

    def test_similarity_logs_one_census_line(self, tmp_path, caplog):
        config = write_config(tmp_path)
        with caplog.at_level(logging.INFO, logger="taxoforge.pipeline"):
            assert cli.main(["run", "--config", str(config)]) == 0
        (message,) = [
            r.getMessage()
            for r in caplog.records
            if r.getMessage().startswith("similarity:")
        ]
        assert message == (
            "similarity: 11 factors, 55 pairs, 17 scored, 7 edges >= 0.5; "
            "High 4 / Moderate 3 / Low 48"
        )

    def test_blend_rounded_above_one_is_high(self, tmp_path, caplog):
        # Weights summing to 1 within rounding blend three components of 1.0
        # to just over 1.0; that pair is High, not a refused score.
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(
            "raw_name,study_id,space_type\nstreet lighting,S1,P\n"
            "lighting street,S1,P\nbenches,S2,S\n",
            encoding="utf-8",
        )
        config = tmp_path / "config.yaml"
        config.write_text(f"datasets:\n  - {corpus}\nout: out\n", encoding="utf-8")
        argv = ["run", "--config", str(config), "--weights", "0.33,0.56,0.11"]
        with caplog.at_level(logging.INFO, logger="taxoforge.pipeline"):
            assert cli.main(argv) == 0
        (message,) = [
            r.getMessage()
            for r in caplog.records
            if r.getMessage().startswith("similarity:")
        ]
        assert "High 1 /" in message

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

    def test_run_builds_each_subcategory_scorer_once(self, tmp_path, monkeypatch):
        # Cluster and place choose subcategories through one chooser, which
        # builds each domain's scorer on first use and calls best_subcategory
        # by its module-level name, so a wrapper set there sees every call.
        built, chosen = [], []
        best_subcategory = cluster.best_subcategory

        class Counting(similarity.KeywordScorer):
            def __init__(self, groups, lexicon):
                built.append(tuple(map(tuple, groups)))
                super().__init__(groups, lexicon)

        def counting(*args):
            chosen.append(args)
            return best_subcategory(*args)

        monkeypatch.setattr(cluster, "KeywordScorer", Counting)
        monkeypatch.setattr(cluster, "best_subcategory", counting)
        config = pipeline.apply_overrides(
            pipeline.load_config(FIXTURES / "config.yaml"), out_dir=str(tmp_path)
        )
        assert pipeline.run(config) == 0
        assert built and len(built) == len(set(built))
        # The fixture's subclusters and placements, one call each.
        assert len(chosen) == 17

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
        phase_of = {kind: phase for phase, (_, _, kind, _) in pipeline.ARTIFACTS.items()}
        decode = codec.decode

        def decoding(kind, data, where, *error):
            if kind in phase_of:  # an artifact, not the config file
                calls.append(f"decode {phase_of[kind]}")
            return decode(kind, data, where, *error)

        monkeypatch.setattr(codec, "decode", decoding)
        monkeypatch.setattr(
            similarity,
            "matrix_from_dict",
            counted("decode similarity", similarity.matrix_from_dict),
        )
        monkeypatch.setattr(
            cluster, "channel_scores", counted("channel_scores", cluster.channel_scores)
        )
        # Cluster and place read the space fits of one invocation's state.
        monkeypatch.setattr(
            cluster, "space_fits", counted("space_fits", cluster.space_fits)
        )
        config = pipeline.apply_overrides(
            pipeline.load_config(FIXTURES / "config.yaml"), out_dir=str(tmp_path)
        )
        assert pipeline.run(config) == 0
        assert sorted(calls) == [
            "channel_scores", "checksum", "load_kb", "load_lexicon", "load_rules",
            "space_fits",
        ]
        # A lone place rebuilds every channel row to check assignments.json
        # and scores its composites, on one computation of the space fits.
        calls.clear()
        pipeline.phase_place(config)
        assert sorted(calls) == [
            "channel_scores",
            "checksum",
            "decode classify",
            "decode cluster",
            "decode integrate",
            "decode similarity",
            "load_kb",
            "load_lexicon",
            "load_rules",
            "space_fits",
        ]
        # A phase run alone reads its inputs from the artifacts on disk; it
        # decodes their independent values and rebuilds the rest, and builds
        # the indicators without reading indicators.json. indicate and emit
        # take each factor's home from assignments.json as written, so they
        # neither read the graph nor rebuild a channel row.
        for phase in (pipeline.phase_indicate, pipeline.phase_emit):
            calls.clear()
            assert phase(config) in (None, 0)
            assert sorted(calls) == [
                "checksum",
                "decode classify",
                "decode cluster",
                "decode integrate",
                "decode place",
                "load_kb",
                "load_rules",
            ]

    def test_framework_dict_built_once_per_emit(self, tmp_path, monkeypatch):
        calls = []
        original = emit.build_framework

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(emit, "build_framework", counting)
        config = pipeline.apply_overrides(
            pipeline.load_config(FIXTURES / "config.yaml"), out_dir=str(tmp_path)
        )
        assert pipeline.run(config) == 0
        assert len(calls) == 1
        written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        # framework.json and framework_document.json share the one dict.
        calls.clear()
        assert pipeline.phase_emit(config) == 0
        assert len(calls) == 1
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == written

    def test_primary_homes_computed_once_per_run_and_emit(self, tmp_path, monkeypatch):
        # The indicators and the framework both read each factor's home.
        # Every module's binding of the function is counted.
        calls = []
        original = pipeline.placement.primary_homes

        def counting(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("taxoforge."):
                if getattr(module, "primary_homes", None) is original:
                    monkeypatch.setattr(module, "primary_homes", counting)
        config = pipeline.apply_overrides(
            pipeline.load_config(FIXTURES / "config.yaml"), out_dir=str(tmp_path)
        )
        assert pipeline.run(config) == 0
        assert len(calls) == 1
        calls.clear()
        assert pipeline.phase_emit(config) == 0
        assert len(calls) == 1

    def test_neighbour_lists_built_once_per_invocation(self, tmp_path, monkeypatch):
        # Cluster and place read each factor's graph neighbours, and a chained
        # phase that reads assignments.json rebuilds its channel rows with them.
        calls = []
        original = similarity.neighbours

        def counting(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(similarity, "neighbours", counting)
        config = pipeline.apply_overrides(
            pipeline.load_config(FIXTURES / "config.yaml"), out_dir=str(tmp_path)
        )
        assert pipeline.run(config) == 0
        assert len(calls) == 1
        for phase in ("cluster", "place", "indicate", "emit"):
            calls.clear()
            getattr(pipeline, f"phase_{phase}")(config)
            assert len(calls) <= 1, phase


# The settings CI runs the chain at: (flags for every command, flags only
# run and similarity take, flags only run and emit take, the placement
# overrides of the packaged KB the config names, or None for no KB).
CHAIN_SETTINGS = {
    "default": ([], [], [], None),
    "weights-1-0-0": (["--weights", "1,0,0"], ["--emit-pairs"], [], None),
    "weights-dense": (["--weights", "0.2,0.6,0.2"], ["--emit-pairs"], [], None),
    "unplaced": (["--threshold", "cross_cutting=0.99"], [], [], None),
    "sankey": ([], [], ["--sankey", "COMFORT"], None),
    # accessibility is cross-cutting with ECONOMIC among its relevant
    # domains, but not first: the override moves its primary placement.
    "override": ([], [], [], {"accessibility": "ECONOMIC"}),
}

PACKAGED_KB = yaml.safe_load(default_kb_path().read_text(encoding="utf-8"))
KB_IDS = [domain["id"] for domain in PACKAGED_KB["domains"]]
with open(FIXTURES / "sample_corpus.csv", encoding="utf-8", newline="") as rows:
    FIXTURE_NAMES = sorted({row["raw_name"] for row in csv.DictReader(rows)})


def write_kb(directory: Path, overrides: dict, domains=KB_IDS) -> Path:
    """``directory/kb.yaml``: the packaged KB cut to the ``domains`` ids, in
    its order, with ``overrides`` as its placement overrides."""
    kept = [domain for domain in PACKAGED_KB["domains"] if domain["id"] in domains]
    kb = {**PACKAGED_KB, "domains": kept, "placement_overrides": overrides}
    path = directory / "kb.yaml"
    path.write_text(yaml.safe_dump(kb), encoding="utf-8")
    return path


# A threshold the chain property draws: either end of [0, 1], or any value.
UNIT_VALUES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def chain_settings(draw):
    """Weights ``(w_l, w_d, 1 - w_l - w_d)`` and all six thresholds, with
    band_low at most band_high."""
    w_l = draw(st.floats(0.0, 1.0))
    w_d = draw(st.floats(0.0, 1.0 - w_l))
    low, high = sorted(draw(st.tuples(UNIT_VALUES, UNIT_VALUES)))
    rest = draw(st.tuples(*[UNIT_VALUES] * 4))
    return (w_l, w_d, 1.0 - w_l - w_d), pipeline.Thresholds(high, low, *rest)


@st.composite
def kb_cuts(draw):
    """The packaged KB's domain ids, all or some, and placement overrides of
    fixture names as written onto any of its domains: one cut away, outside
    its factor's relevant set, or given two for one factor is refused."""
    domains = draw(st.just(KB_IDS) | st.sets(st.sampled_from(KB_IDS), min_size=1))
    names, ids = st.sampled_from(FIXTURE_NAMES), st.sampled_from(KB_IDS)
    return domains, draw(st.dictionaries(names, ids, max_size=3))


def _outcome(steps) -> tuple[int, str | None]:
    """The exit status of ``steps``, called in turn until one refuses or
    gives a non-zero status, and the refusal's text if one refused."""
    status = 0
    try:
        for step in steps:
            if status := step() or 0:
                break
    except TaxoforgeError as exc:
        return 1, str(exc)
    return status, None


class TestPhaseChaining:
    @settings(max_examples=60, deadline=None)
    @given(drawn=chain_settings(), emit_pairs=st.booleans(), kb=kb_cuts())
    @example(drawn=((1.0, 0.0, 0.0), pipeline.Thresholds()), emit_pairs=True,
             kb=(KB_IDS, {}))
    @example(drawn=((0.2, 0.6, 0.2), pipeline.Thresholds()), emit_pairs=True,
             kb=(KB_IDS, {}))
    @example(drawn=((0.5, 0.3, 0.2), pipeline.Thresholds()), emit_pairs=False,
             kb=(KB_IDS, {"accessibility": "ECONOMIC"}))
    def test_chain_matches_run_under_drawn_settings(self, drawn, emit_pairs, kb):
        # The examples: w_l = 1; a w_d of 0.6, at least the default graph
        # floor of 0.5; and an override that moves a primary placement. Both
        # invocations write to one directory, emptied between them, so a
        # refusal naming a path names the same one.
        weights, thresholds = drawn
        domains, overrides = kb
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            config = pipeline.apply_overrides(
                pipeline.load_config(FIXTURES / "config.yaml"),
                out_dir=str(out),
                weights=",".join(map(repr, weights)),
                thresholds=[f"{k}={v!r}" for k, v in thresholds._asdict().items()],
            )
            config = replace(config, kb_path=write_kb(Path(tmp), overrides, domains))
            options = {"similarity": {"emit_pairs": emit_pairs}}
            chain = [
                lambda phase=phase: getattr(pipeline, f"phase_{phase}")(
                    config, **options.get(phase, {})
                )
                for phase in PHASE_COMMANDS
            ]
            written = []
            for steps in ([lambda: pipeline.run(config, emit_pairs=emit_pairs)], chain):
                outcome = _outcome(steps)
                files = {p.name: p.read_bytes() for p in out.glob("*")}
                written.append((outcome, files))
                shutil.rmtree(out, ignore_errors=True)
        (ran, by_run), (chained, by_chain) = written
        assert ran == chained
        # A run reads the KB before it writes; refused, it has written no
        # file the chain has not, where the chain's integrate and similarity
        # phases, which do not read the KB, have written theirs.
        if ran[0] == 1:
            assert by_run.keys() <= by_chain.keys()
        else:
            assert by_run.keys() == by_chain.keys()
        for name, data in by_run.items():
            assert data == by_chain[name], name

    @pytest.mark.parametrize("setting", CHAIN_SETTINGS)
    def test_chained_phases_match_run_byte_for_byte(self, tmp_path, setting):
        flags, pairs, sankey, overrides = CHAIN_SETTINGS[setting]
        kb = "" if overrides is None else f"kb: {write_kb(tmp_path, overrides)}\n"
        config_a = write_config(tmp_path, "a.yaml", extra=kb)
        (tmp_path / "b").mkdir()
        corpus = FIXTURES / "sample_corpus.csv"
        config_b = tmp_path / "b" / "b.yaml"
        config_b.write_text(
            f"datasets:\n  - {corpus}\nout: {tmp_path / 'out_b'}\n{kb}", encoding="utf-8"
        )

        argv = ["run", "--config", str(config_a), *flags, *pairs, *sankey]
        assert cli.main(argv) == 0
        extra = {"similarity": pairs, "emit": sankey}
        for command in PHASE_COMMANDS:
            argv = [command, "--config", str(config_b), *flags, *extra.get(command, [])]
            assert cli.main(argv) == 0

        # Every file, the reports, pairs.csv and the Sankey file included.
        written = [
            {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}
            for out in ("out", "out_b")
        ]
        assert written[0].keys() == written[1].keys()
        for name, data in written[0].items():
            assert data == written[1][name], name

    def test_emit_builds_the_indicators_without_indicators_json(self, tmp_path):
        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config)]) == 0
        out = tmp_path / "out"
        exports = (
            "framework.json",
            "framework.md",
            "framework_document.json",
            "validation.json",
        )
        before = {name: (out / name).read_bytes() for name in exports}
        (out / "indicators.json").unlink()
        for name in exports:
            (out / name).unlink()
        assert cli.main(["emit", "--config", str(config)]) == 0
        assert {name: (out / name).read_bytes() for name in exports} == before
        assert not (out / "indicators.json").exists()

    def test_indicate_and_emit_read_homes_without_the_graph(self, tmp_path):
        # Each factor's home is taken from assignments.json as written, so
        # neither phase reads similarity.json, and both still write the
        # run's bytes.
        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config)]) == 0
        out = tmp_path / "out"
        (out / "similarity.json").unlink()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        for name in ("indicators.json", *emit.EXPORTS):
            (out / name).unlink()
        for command in ("indicate", "emit"):
            assert cli.main([command, "--config", str(config)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

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

    def test_config_named_another_way_reads_the_same_artifacts(
        self, tmp_path, monkeypatch
    ):
        # The checksum covers each dataset's content, not how its path is
        # spelled, which follows how the config was named.
        shutil.copytree(FIXTURES, tmp_path / "fixtures")
        monkeypatch.chdir(tmp_path / "fixtures")
        assert cli.main(["run", "--config", "config.yaml"]) == 0
        framework = (tmp_path / "fixtures" / "out" / "framework.json").read_bytes()
        monkeypatch.chdir(tmp_path)
        absolute = str(tmp_path / "fixtures" / "config.yaml")
        for config in ("fixtures/config.yaml", absolute):
            assert cli.main(["emit", "--config", config]) == 0
            written = (tmp_path / "fixtures" / "out" / "framework.json").read_bytes()
            assert written == framework

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
        names = []

        class Counting(similarity.KeywordScorer):
            # Only classify's scorers count: cluster and place score
            # subcategories through the same class.
            def row(self, name):
                names.append(name)
                return super().row(name)

        def per_domain(name, domain, lexicon):
            raise AssertionError("run scores relevance one domain at a time")

        monkeypatch.setattr(classify, "KeywordScorer", Counting)
        monkeypatch.setattr(classify, "domain_relevance", per_domain)
        config = pipeline.apply_overrides(
            pipeline.load_config(FIXTURES / "config.yaml"), out_dir=str(tmp_path)
        )
        assert pipeline.run(config) == 0
        assert len(names) == len(set(names)) == 11

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
        assert sum(name in message for name in names) == 5  # then the count
        assert message.endswith(", ...] (7 in all)")

    def test_unmatched_long_name_warning_is_bounded(self, tmp_path, caplog):
        # A factor name of 5,000 characters that matches no domain is quoted
        # cut, as a refusal quotes a value, so every line stays short.
        long = tmp_path / "long.csv"
        long.write_text(f"raw_name,study_id,space_type\n{'x' * 5_000},s1,P\n")
        config = tmp_path / "config.yaml"
        corpus = FIXTURES / "sample_corpus.csv"
        config.write_text(f"datasets: [{corpus}, {long}]\nout: {tmp_path / 'out'}\n")
        with caplog.at_level(logging.WARNING, logger="taxoforge.pipeline"):
            assert cli.main(["run", "--config", str(config)]) == 0
        lines = [f"{r.levelname} {r.name}: {r.getMessage()}" for r in caplog.records]
        (line,) = [line for line in lines if "domain match" in line]
        assert "xxx..." in line
        assert max(map(len, lines)) <= 300


class TestKnowledgeBaseNames:
    def test_kb_names_are_normalized_like_factor_names(self, tmp_path):
        # At this threshold "thermal comfort" is cross-cutting, so its
        # literature support and override take part in placement.
        text = default_kb_path().read_text(encoding="utf-8")
        placed = {}
        for label, literature, override in (
            ("canonical", "thermal comfort", "thermal comfort"),
            ("variant", "Thermal Comfort", "THERMAL  comfort"),
        ):
            kb = tmp_path / f"{label}.yaml"
            edited = (
                text.replace(
                    "placement_overrides: {}",
                    f"placement_overrides:\n  {override}: SOCIAL",
                ).replace(
                    "literature_support: {}\n    subcategories:\n      - id: INCLUSIVE",
                    f"literature_support: {{none: [{literature}]}}\n"
                    "    subcategories:\n      - id: INCLUSIVE",
                )
            )
            assert literature in edited
            kb.write_text(edited, encoding="utf-8")
            (tmp_path / label).mkdir()
            config = write_config(
                tmp_path / label,
                extra=f"kb: {kb}\nthresholds:\n  cross_cutting: 0.1\n",
            )
            assert cli.main(["run", "--config", str(config)]) == 0
            out = tmp_path / label / "out" / "placements.json"
            placed[label] = json.loads(out.read_text(encoding="utf-8"))["data"]
        assert placed["variant"] == placed["canonical"]
        # Placements are listed in ranked order, the primary first.
        primary = next(
            p
            for p in placed["variant"]["placements"]
            if p["factor"] == "thermal comfort"
        )
        assert primary["domain"] == "SOCIAL"

    def test_unmatched_kb_names_warning_is_bounded(self, tmp_path, caplog):
        config = write_config(tmp_path)
        with caplog.at_level(logging.WARNING, logger="taxoforge.pipeline"):
            assert cli.main(["run", "--config", str(config)]) == 0
        (message,) = [
            r.getMessage() for r in caplog.records if "KB factor names" in r.getMessage()
        ]
        # The default KB names six factors the fixture corpus does not have.
        assert message.startswith("place: 6 KB factor names match no factor")
        assert message.count("'") == 2 * 5  # five names quoted, then the count
        assert message.endswith(", ...] (6 in all)")


    def test_override_of_a_factor_not_cross_cutting_is_warned(
        self, tmp_path, caplog, capsys
    ):
        # comfort is in the fixture corpus but not cross-cutting, so an
        # override to its one relevant domain places nothing; classify says so
        # in one bounded line. An override outside that set is refused.
        text = default_kb_path().read_text(encoding="utf-8")
        kb = tmp_path / "kb.yaml"

        def run_with(comfort_domain: str) -> int:
            kb.write_text(
                text.replace(
                    "placement_overrides: {}",
                    f"placement_overrides:\n  Comfort: {comfort_domain}\n"
                    "  lighting: SAFETY & SECURITY\n  no such factor: SOCIAL",
                ),
                encoding="utf-8",
            )
            config = write_config(tmp_path, extra=f"kb: {kb}\n")
            return cli.main(["run", "--config", str(config)])

        with caplog.at_level(logging.WARNING, logger="taxoforge.pipeline"):
            assert run_with("COMFORT") == 0
        messages = [r.getMessage() for r in caplog.records]
        (message,) = [m for m in messages if "placement overrides" in m]
        assert message == (
            "classify: 1 placement overrides name a factor that is not "
            "cross-cutting, first names: ['comfort']"
        )
        assert any(m.startswith("place: 7 KB factor names match") for m in messages)
        framework = json.loads((tmp_path / "out" / "framework.json").read_text("utf-8"))
        homes = {
            entry["canonical_name"]: category["identifier"]
            for category in framework["data"]["categories"]
            for sub in category["subcategories"]
            for entry in sub["entries"]
            if entry["tier"] == "primary"
        }
        assert homes["comfort"] == "COMFORT"
        assert homes["lighting"] == "SAFETY & SECURITY"
        capsys.readouterr()
        assert run_with("SAFETY & SECURITY") == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert f"kb file {kb}: placement_overrides.comfort: domain " in line

    def test_override_rule_does_not_hang_on_the_cross_cutting_threshold(
        self, tmp_path, capsys
    ):
        # lighting is cross-cutting at the default threshold and not at 0.99;
        # either way ECONOMIC is outside its relevant set, so the run is refused
        # with the same line but for the set it lists, which is empty at 0.99.
        text = default_kb_path().read_text(encoding="utf-8")
        override = "placement_overrides: {lighting: ECONOMIC}"
        kb = tmp_path / "kb.yaml"
        kb.write_text(text.replace("placement_overrides: {}", override), encoding="utf-8")
        config = write_config(tmp_path, extra=f"kb: {kb}\n")
        lines = []
        for extra in ([], ["--threshold", "cross_cutting=0.99"]):
            capsys.readouterr()
            assert cli.main(["run", "--config", str(config), *extra]) == 1
            (line,) = capsys.readouterr().err.strip().splitlines()
            lines.append(line.partition(" [")[0])
        assert lines[0] == lines[1] == (
            f"taxoforge run: kb file {kb}: placement_overrides.lighting: domain "
            "'ECONOMIC' is outside the factor's relevant set"
        )


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
        matrix = matrix_from_dict(doc["data"], floor=0.5)
        census = band_census(matrix)
        dumped = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert dumped.count("High") == census.high
        assert dumped.count("Moderate") == census.moderate
        assert dumped.count("Low") == census.low
        # Every edge of the graph is in pairs.csv with the same score.
        written = {
            tuple(line.split(",")[:2]): line.split(",")[2] for line in lines[1:]
        }
        for i, j, score in matrix.scores:
            assert written[(matrix.names[i], matrix.names[j])] == f"{score:.6f}"

    def test_sankey_flag(self, tmp_path):
        config = write_config(tmp_path)
        code = cli.main(["run", "--config", str(config), "--sankey", "SAFETY"])
        assert code == 0
        path = tmp_path / "out" / "sankey_safety_and_security.csv"
        assert path.exists()
        assert path.read_text(encoding="utf-8").startswith("nodes\n")

    def test_unknown_sankey_category_writes_nothing(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config), "--sankey", "NOPE"]) == 1
        assert capsys.readouterr().err == "taxoforge run: unknown category 'NOPE'\n"
        assert not out.exists()
        assert cli.main(["run", "--config", str(config)]) == 0
        before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
        assert cli.main(["emit", "--config", str(config), "--sankey", "NOPE"]) == 1
        assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()} == before

    def test_unknown_subfactor_filter_stops_after_integrate(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        flags = ["--config", str(config), "--sankey", "SAFETY", "--subfactors", "nope"]
        capsys.readouterr()
        assert cli.main(["run", *flags]) == 1
        err = capsys.readouterr().err
        assert err == "taxoforge run: unknown subfactor filter 'nope'\n"
        assert [p.name for p in out.iterdir()] == ["integrated.json"]
        assert cli.main(["run", "--config", str(config)]) == 0
        before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
        assert cli.main(["emit", *flags]) == 1
        assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()} == before

    def test_kb_category_without_factors_gets_an_empty_sankey(self, tmp_path):
        config = write_config(tmp_path)
        code = cli.main(["run", "--config", str(config), "--sankey", "MANAGEMENT"])
        assert code == 0
        text = (tmp_path / "out" / "sankey_management.csv").read_text("utf-8")
        assert text == "nodes\nid,label,layer\nlinks\nsource,target,weight\n"

    def test_sankey_category_is_the_kb_match(self, tmp_path):
        # ACTIVITY, without factors, is an exact match; ACTIVITY COMFORT, the
        # one framework category it prefixes, is not the category asked for.
        text = default_kb_path().read_text(encoding="utf-8")
        kb = tmp_path / "kb.yaml"
        kb.write_text(
            text.replace("  - id: COMFORT\n", "  - id: ACTIVITY COMFORT\n"),
            encoding="utf-8",
        )
        config = write_config(tmp_path, extra=f"kb: {kb}\n")
        code = cli.main(["run", "--config", str(config), "--sankey", "ACTIVITY"])
        assert code == 0
        out = tmp_path / "out"
        sankeys = sorted(p.name for p in out.iterdir() if p.name.startswith("sankey"))
        assert sankeys == ["sankey_activity.csv"]
        text = (out / "sankey_activity.csv").read_text(encoding="utf-8")
        assert text == "nodes\nid,label,layer\nlinks\nsource,target,weight\n"

    def test_sankey_quotes_a_name_holding_a_comma(self, tmp_path):
        # Rules that strip only "." keep the comma in "lighting, street".
        rules = tmp_path / "rules.yaml"
        rules.write_text(
            default_rules_path()
            .read_text(encoding="utf-8")
            .replace('punctuation_strip: ".,;:()/&-"', 'punctuation_strip: "."'),
            encoding="utf-8",
        )
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(
            (FIXTURES / "sample_corpus.csv").read_text(encoding="utf-8")
            + '"lighting, street",c01,P\n',
            encoding="utf-8",
        )
        config = tmp_path / "config.yaml"
        config.write_text(
            f"datasets:\n  - {corpus}\nrules: {rules}\nout: {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        # Its P-only counts give it a home in NATURAL ELEMENTS.
        code = cli.main(["run", "--config", str(config), "--sankey", "NATURAL"])
        assert code == 0
        path = tmp_path / "out" / "sankey_natural_elements.csv"
        with path.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert {len(row) for row in rows} == {1, 3}
        assert ["factor:lighting, street", "lighting, street", "Subfactor"] in rows
        assert ["factor:lighting, street", "subcat:VEGETATION", "1"] in rows

    def test_sankey_file_stays_in_out_dir(self, tmp_path):
        text = default_kb_path().read_text(encoding="utf-8")
        kb = tmp_path / "kb.yaml"
        kb.write_text(
            text.replace("- id: INFRASTRUCTURE", "- id: INFRA/../../escaped"),
            encoding="utf-8",
        )
        config = write_config(tmp_path, extra=f"kb: {kb}\n")
        code = cli.main(["run", "--config", str(config), "--sankey", "INFRA"])
        assert code == 0
        out = tmp_path / "out"
        sankeys = sorted(p.name for p in out.iterdir() if p.name.startswith("sankey"))
        assert sankeys == ["sankey_infra_.._.._escaped.csv"]
        assert (out / sankeys[0]).is_file()
        assert not (tmp_path / "escaped.csv").exists()

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
        assert placements["data"]["placements"] == []

    def test_bad_threshold_name(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert (
            cli.main(["run", "--config", str(config), "--threshold", "nope=0.5"]) == 1
        )
        assert "--threshold: nope: unknown key" in capsys.readouterr().err

    def test_threshold_flag_sets_the_value(self):
        config = pipeline.load_config(FIXTURES / "config.yaml")
        config = pipeline.apply_overrides(config, thresholds=["related=0.7"])
        assert config.thresholds.related == 0.7

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--threshold", "related=high"),
            ("--threshold", "nope=0.5"),
            ("--weights", "a,b,c"),
            ("--weights", "0.5,0.5"),
            ("--weights", "nan,0.5,0.5"),
            ("--threshold", "band_low=0.9"),
            ("--weights", "0.6,0.6,-0.2"),
        ],
    )
    def test_bad_flag_value_exits_one(self, tmp_path, capsys, flag, value):
        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config), flag, value]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert flag in lines[0]

    def test_weights_flag_degeneracy(self, tmp_path):
        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config), "--weights", "1,0,0"]) == 0
        doc = json.loads(
            (tmp_path / "out" / "similarity.json").read_text(encoding="utf-8")
        )
        data = doc["data"]
        linguistic = {(i, j): value for i, j, value, _, _ in data["components"]}
        assert [(i, j) for i, j, _ in data["scores"]] == list(linguistic)
        for i, j, score in data["scores"]:
            assert score == linguistic[(i, j)]

    def test_jobs_flag_byte_identical(self, tmp_path):
        # The config key is read and checked, and changes nothing written.
        written = []
        for jobs in (1, 8):
            config = write_config(tmp_path, f"jobs{jobs}.yaml", f"jobs: {jobs}\n")
            assert cli.main(["run", "--config", str(config), "--sankey", "SAFETY"]) == 0
            written.append({p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()})
        assert written[0] == written[1]

    @pytest.mark.parametrize("command", ["run", "emit"])
    def test_subfactors_without_sankey_writes_nothing(self, tmp_path, capsys, command):
        # Neither is the config read: a filter naming no subfactor, as " , "
        # does, would write a Sankey file of headers alone.
        config = write_config(tmp_path)
        out = tmp_path / "out"
        if command == "emit":
            assert cli.main(["run", "--config", str(config)]) == 0
        before = {p.name: p.stat().st_mtime_ns for p in out.glob("*")}
        no_sankey = ["--subfactors", "nope,zzz"]
        empty = ["--sankey", "SAFETY", "--subfactors", " , "]
        for flags, message in (
            (no_sankey, "--subfactors needs --sankey"),
            (empty, "--subfactors names no subfactor"),
        ):
            capsys.readouterr()
            argv = [command, "--config", str(tmp_path / "absent.yaml"), *flags]
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == f"taxoforge {command}: {message}\n"
            assert {p.name: p.stat().st_mtime_ns for p in out.glob("*")} == before

    @pytest.mark.parametrize("command", ["run", "emit"])
    def test_empty_sankey_writes_nothing(self, tmp_path, capsys, command):
        # An empty name is a prefix of every category id; it is refused
        # before the config is read, as an empty subfactor filter is.
        config = write_config(tmp_path)
        out = tmp_path / "out"
        if command == "emit":
            assert cli.main(["run", "--config", str(config)]) == 0
        before = {p.name: p.stat().st_mtime_ns for p in out.glob("*")}
        capsys.readouterr()
        argv = [command, "--config", str(tmp_path / "absent.yaml"), "--sankey", ""]
        assert cli.main(argv) == 1
        message = "--sankey names no category"
        assert capsys.readouterr().err == f"taxoforge {command}: {message}\n"
        assert {p.name: p.stat().st_mtime_ns for p in out.glob("*")} == before

    def test_ambiguous_sankey_names_the_count_and_a_few_ids(self, tmp_path, capsys):
        config = write_config(tmp_path)
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config), "--sankey", "s"]) == 1
        assert capsys.readouterr().err == (
            "taxoforge run: category 's' is ambiguous: SAFETY & SECURITY, SOCIAL, "
            "SPATIAL AESTHETICS (3 categories match)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_empty_out_flag_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # An empty path would be the working directory, which run would
        # write into and sweep of every file it can write.
        config = write_config(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        (work / "framework.md").write_text("not written by run\n", encoding="utf-8")
        monkeypatch.chdir(work)
        capsys.readouterr()
        for command in ["run", *PHASE_COMMANDS]:
            assert cli.main([command, "--config", str(config), "--out", ""]) == 1
            err = capsys.readouterr().err
            assert err == f"taxoforge {command}: --out: expected a non-empty path\n"
        assert [p.name for p in work.iterdir()] == ["framework.md"]


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

    def test_dataset_listed_twice_is_refused(self, tmp_path):
        corpus = tmp_path / "data" / "corpus.csv"
        corpus.parent.mkdir()
        corpus.write_text("raw_name,study_id,space_type\nsafety,c1,P\n", "utf-8")
        config = tmp_path / "config.yaml"
        # Two spellings of one file, relative to the config's directory.
        config.write_text(
            "datasets:\n  - data/corpus.csv\n  - ./data/../data/corpus.csv\n",
            encoding="utf-8",
        )
        second = tmp_path / "data" / ".." / "data" / "corpus.csv"
        message = f"config file {config}: datasets[1]: {second} is listed twice"
        with pytest.raises(pipeline.ConfigError, match=re.escape(message)):
            pipeline.load_config(config)

    def test_threshold_range_validation(self, tmp_path):
        config = write_config(tmp_path, extra="thresholds:\n  band_high: 1.5\n")
        message = f"{config}: thresholds.band_high: expected a number in [0, 1], got 1.5"
        with pytest.raises(pipeline.ConfigError, match=re.escape(message)):
            pipeline.load_config(config)


MISSING = object()


def _move_counts(factors: list, source: int, target: int, studies=True) -> list:
    """``factors`` with every mention of ``source`` moved onto ``target``,
    so the record total still matches; its studies too, unless ``studies``
    is false."""
    moved = factors[source]["counts"]
    factors[target]["counts"] = [a + b for a, b in zip(factors[target]["counts"], moved)]
    factors[source]["counts"] = [0] * len(moved)
    if studies:
        held, given = factors[target]["studies"], factors[source]["studies"]
        for code, ids in given.items():
            held[code], given[code] = sorted({*held[code], *ids}), []
    return factors


def _made(path: Path, make) -> Path:
    make(path)
    return path


def _dataset(name: str, rows: str):
    """A maker of a dataset file ``name`` holding ``rows`` under the header."""
    header = "raw_name,study_id,space_type\n"
    return lambda tmp: _made(tmp / name, lambda path: path.write_text(header + rows))


# A KB whose one domain lists its keywords twice.
TWICE = """\
version: 1
domains:
  - id: COMFORT
    keywords: [comfort]
    keywords: [shade]
    scope: broad
    space_profile: {P: 1.0}
    subcategories: [{id: SHADE, keywords: [shade]}]
"""


def _latin1_dataset(tmp_path: Path) -> Path:
    """A dataset whose third line is Latin-1, not UTF-8, text."""
    path = tmp_path / "latin1.csv"
    rows = "raw_name,study_id,space_type\nsafety,s1,P\nbarri\u00e8re,s2,P\n"
    path.write_bytes(rows.encode("latin-1"))
    return path


# (file, path to the edited value, new value, field the error must name).
# An empty path replaces the whole document; MISSING deletes the value; a
# callable maps the old value to the new one.
MALFORMED = [
    pytest.param("config", ["jobs"], "two", "jobs", id="config-jobs"),
    # An empty path would be the config file's own directory.
    pytest.param(
        "config", ["out"], "", "out: expected a non-empty path", id="config-out-empty"
    ),
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
        "config",
        ["weights"],
        {"linguistic": 0.5, "distributional": 0.3, "co_occurrence": 0.1},
        "weights: similarity weights must sum to 1",
        id="config-weights-sum",
    ),
    pytest.param(
        "config",
        ["thresholds"],
        {"related": 1.5},
        "config.yaml: thresholds.related: expected a number in [0, 1], got 1.5",
        id="config-threshold-range",
    ),
    pytest.param(
        "config",
        ["weights"],
        {"linguistic": 0.5, "distributional": 0.3, "cooccurrence": 0.2},
        "cooccurrence",
        id="config-weights-unknown-key",
    ),
    pytest.param(
        "config", ["thresholds"], {"related": True}, "related", id="config-threshold-bool"
    ),
    # A quoted number is text, in the config file as in every other input.
    pytest.param(
        "config",
        ["thresholds"],
        {"related": "0.7"},
        "thresholds.related",
        id="config-threshold-quoted",
    ),
    pytest.param(
        "config",
        ["weights"],
        {"linguistic": "0.5", "distributional": "0.3", "co_occurrence": "0.2"},
        "weights.",
        id="config-weights-quoted",
    ),
    pytest.param(
        "config",
        ["weights"],
        {"linguistic": float("nan"), "distributional": 0.5, "co_occurrence": 0.5},
        "weights.linguistic",
        id="config-weights-nan",
    ),
    # A whole number beyond the float range is no finite number.
    pytest.param(
        "config",
        ["thresholds"],
        {"related": 10**400},
        "thresholds.related",
        id="config-threshold-huge-whole-number",
    ),
    # A dataset read twice would count each of its rows twice.
    pytest.param(
        "config",
        ["datasets"],
        lambda paths: paths + paths,
        "datasets[1]: ",
        id="config-dataset-twice",
    ),
    pytest.param(
        "config",
        ["datasets"],
        dict.fromkeys("PS", str(FIXTURES / "sample_corpus.csv")),
        "datasets.S: ",
        id="config-dataset-twice-by-code",
    ),
    pytest.param(
        "config",
        ["datasets"],
        {"P": str(FIXTURES / "sample_corpus.csv"), "X": "x.csv", "Q": "q.csv"},
        "datasets.Q: unknown typology key",
        id="config-datasets-unknown-code",
    ),
    pytest.param(
        "config", ["datasets"], [], "datasets: expected at least one dataset",
        id="config-datasets-empty",
    ),
    pytest.param(
        "config", ["datasets"], MISSING, "datasets: expected at least one dataset",
        id="config-datasets-missing",
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
    pytest.param("kb", ["domains", 0], None, "domains[0]", id="kb-domain-null"),
    pytest.param(
        "kb",
        ["domains", 0, "keywords", 0],
        None,
        "domains[0].keywords[0]",
        id="kb-keyword-null",
    ),
    pytest.param(
        "kb",
        ["domains", 0, "space_profile", "Q"],
        2.0,
        "space_profile",
        id="kb-profile-unknown-code",
    ),
    pytest.param(
        "kb", ["placement_overrides"], [], "placement_overrides", id="kb-overrides-list"
    ),
    pytest.param("kb", ["scope_priors"], 0, "scope_priors", id="kb-priors-zero"),
    pytest.param(
        "kb",
        ["scope_priors", "preferred"],
        -1.0,
        "kb.yaml: scope_priors.preferred: expected a number in [0, 1], got -1.0",
        id="kb-priors-negative",
    ),
    pytest.param(
        "kb",
        ["domains", 0, "space_profile", "P"],
        float("nan"),
        "domains[0].space_profile.P",
        id="kb-profile-nan",
    ),
    pytest.param("lexicon", ["field_score"], "high", "field_score", id="lexicon-score"),
    pytest.param("lexicon", ["fields"], [], "fields", id="lexicon-fields-list"),
    pytest.param(
        "lexicon",
        ["fields", "protection", 0],
        None,
        "fields.protection[0]",
        id="lexicon-term-null",
    ),
    pytest.param("rules", ["options"], [], "options", id="rules-options-list"),
    pytest.param("rules", ["synonyms"], [], "synonyms", id="rules-synonyms-list"),
    pytest.param(
        "rules",
        ["preserve_distinct", 0],
        7,
        "preserve_distinct[0]",
        id="rules-preserve-number",
    ),
    pytest.param("config", ["out"], None, "out", id="config-out-null"),
    pytest.param(
        "config",
        ["datasets"],
        {"P": str(FIXTURES / "sample_corpus.csv"), "X": "x.csv", 7: "y.csv"},
        "datasets",
        id="config-datasets-keys-mixed",
    ),
    pytest.param("config", ["thresholds"], [], "thresholds", id="config-thresholds-list"),
    pytest.param(
        "config",
        ["treshold"],
        {"related": 0.99},
        "treshold: unknown key",
        id="config-unknown-key",
    ),
    pytest.param(
        "rules",
        ["options", "case_folding"],
        "no",
        "case_folding",
        id="rules-case-folding-string",
    ),
    pytest.param(
        "rules",
        ["options", "whitespace_collapse"],
        1,
        "whitespace_collapse",
        id="rules-whitespace-collapse-number",
    ),
    pytest.param(
        "rules",
        ["options", "punctuation_strip"],
        5,
        "punctuation_strip",
        id="rules-punctuation-number",
    ),
    # Text that normalizes to nothing: a factor named '' or a key matching
    # no name.
    pytest.param(
        "rules",
        ["synonyms", "access"],
        "",
        "synonyms: the value '' of 'access'",
        id="rules-synonym-value-blank",
    ),
    pytest.param(
        "rules",
        ["synonyms"],
        lambda synonyms: {**synonyms, "...": "safety"},
        "synonyms: the key '...'",
        id="rules-synonym-key-blank",
    ),
    pytest.param(
        "rules",
        ["preserve_distinct", 0],
        " / ",
        "preserve_distinct[0]",
        id="rules-preserve-blank",
    ),
    pytest.param(
        "kb",
        ["domains", 0, "subcategories", 0, "keywords", 0],
        " ",
        "kb.yaml: domains[0].subcategories[0].keywords[0]: expected a non-blank string, "
        "got ' '",
        id="kb-keyword-blank",
    ),
    pytest.param(
        "kb",
        ["domains", 0, "keywords", 0],
        " ",
        "kb.yaml: domains[0].keywords[0]: expected a non-blank string, got ' '",
        id="kb-domain-keyword-blank",
    ),
    pytest.param(
        "lexicon",
        ["fields", "protection", 0],
        "",
        "lexicon.yaml: fields.protection[0]: expected a non-blank string, got ''",
        id="lexicon-term-blank",
    ),
    pytest.param(
        "lexicon",
        ["field_score"],
        1.5,
        "lexicon.yaml: field_score: expected a number in [0, 1], got 1.5",
        id="lexicon-score-range",
    ),
    pytest.param("integrated.json", [], [], "data", id="artifact-not-object"),
    pytest.param("integrated.json", ["data"], MISSING, "data", id="artifact-no-data"),
    pytest.param(
        "integrated.json", ["phase"], "similarity", "phase", id="artifact-phase"
    ),
    pytest.param(
        "integrated.json",
        ["schema_version"],
        0,
        "schema_version",
        id="artifact-schema",
    ),
    pytest.param("integrated.json", ["data"], {}, "factors", id="artifact-data-empty"),
    # Bytes replace the whole file as they are: JSON nested deeper than the
    # parser's recursion limit.
    pytest.param(
        "classification.json",
        [],
        b"[" * 100_000,
        "cannot parse",
        id="artifact-nested-too-deep",
    ),
    pytest.param(
        "integrated.json",
        ["data", "factors", 0, "canonical_name"],
        MISSING,
        "canonical_name",
        id="artifact-factor-no-name",
    ),
    # A key no phase writes is refused at its path, as the codec refuses one
    # inside the data.
    pytest.param(
        "classification.json",
        ["extra"],
        1,
        "classification.json: extra: unknown key",
        id="artifact-envelope-unknown-key",
    ),
    pytest.param(
        "classification.json",
        ["data", "extra"],
        1,
        "classification.json: data.extra: unknown key",
        id="artifact-data-unknown-key",
    ),
    pytest.param(
        "similarity.json",
        ["data", "typo"],
        1,
        "similarity.json: data.typo: unknown key",
        id="similarity-data-unknown-key",
    ),
    pytest.param(
        "similarity.json", ["data", "scores", 0], [1.0], "scores", id="scores-short-row"
    ),
    pytest.param(
        "similarity.json", ["data", "scores", 0, 1], "x", "scores", id="scores-string"
    ),
    pytest.param(
        "similarity.json", ["data", "scores", 0, 2], 1.5, "scores", id="scores-range"
    ),
    pytest.param(
        "similarity.json", ["data", "names", 0], 7, "names", id="similarity-name-number"
    ),
    pytest.param(
        "similarity.json",
        ["data", "scores", 0, 1],
        11,
        "scores",
        id="scores-index-outside",
    ),
    pytest.param(
        "similarity.json",
        ["data", "scores", 0],
        lambda edge: [edge[1], edge[0], edge[2]],
        "scores",
        id="scores-i-not-below-j",
    ),
    pytest.param(
        "similarity.json",
        ["data", "scores"],
        lambda edges: edges[::-1],
        "scores",
        id="scores-unsorted",
    ),
    pytest.param(
        "similarity.json",
        ["data", "scores"],
        lambda edges: edges + edges[-1:],
        "scores",
        id="scores-duplicate",
    ),
    pytest.param(
        "similarity.json",
        ["data", "scores", 0, 2],
        0.4,
        "scores[0][2]",
        id="scores-below-floor",
    ),
    pytest.param(
        "similarity.json",
        ["data", "components"],
        lambda rows: rows[:-1],
        "scores",
        id="components-edges-differ",
    ),
    pytest.param(
        "similarity.json",
        ["data", "components", 0, 2],
        0.5,
        "data.components[0]: the components blend",
        id="scores-not-blend",
    ),
    # An edge is named by its index in the list.
    pytest.param(
        "similarity.json",
        ["data", "components"],
        lambda rows: [rows[1], rows[0], *rows[2:]],
        "data.components[1]: expected indices 0 <= i < j < 11, after the edge before",
        id="components-out-of-order",
    ),
    pytest.param(
        "similarity.json",
        ["data"],
        lambda data: {**data, "names": data["names"][:-1]},
        "data.names",
        id="similarity-factor-dropped",
    ),
    pytest.param(
        "integrated.json",
        ["data", "factors", 0, "canonical_name"],
        7,
        "canonical_name",
        id="integrated-name-number",
    ),
    pytest.param(
        "integrated.json",
        ["data", "factors"],
        lambda factors: _move_counts(factors, 10, 0),
        "data.factors[10].counts: expected at least one mention",
        id="integrated-counts-zero",
    ),
    # Two faults: factor 0 gains factor 10's mentions but not its studies,
    # so its one G mention has none, and factor 10 has no mention left. The
    # first in the file is named, factor by factor.
    pytest.param(
        "integrated.json",
        ["data", "factors"],
        lambda factors: _move_counts(factors, 10, 0, studies=False),
        "data.factors[0].studies.G: expected 1 to 1 studies for 1 mentions, none for none",
        id="integrated-two-faults-in-file-order",
    ),
    # integrate refuses an empty corpus, so it never writes this file.
    pytest.param(
        "integrated.json",
        ["data"],
        {"factors": [], "raw_record_count": 0},
        "data.factors: expected at least one factor",
        id="integrated-no-factors",
    ),
    pytest.param(
        "integrated.json",
        ["data", "factors", 0, "counts"],
        lambda counts: counts[:5],
        "data.factors[0]: occurrence vector needs exactly six counts",
        id="integrated-counts-short",
    ),
    pytest.param(
        "integrated.json",
        ["data", "factors", 0, "counts"],
        lambda counts: [-1, *counts[1:]],
        "data.factors[0]: occurrence counts must be non-negative",
        id="integrated-counts-negative",
    ),
    # The studies of each factor are listed under the six codes in order.
    pytest.param(
        "integrated.json",
        ["data", "factors", 0, "studies"],
        lambda studies: {"S": studies["S"], **studies},
        "data.factors[0].studies: expected studies under P, S, U, G, O, F",
        id="integrated-studies-out-of-order",
    ),
    # safety (factor 0) has one mention, and one study, under each of P, S,
    # U, O and F, and none under G.
    pytest.param(
        "integrated.json",
        ["data", "factors", 0, "studies"],
        lambda studies: {**studies, "P": [], "G": ["c1", "c2", "c3"]},
        "data.factors[0].studies.P: expected 1 to 1 studies for 1 mentions, none for none",
        id="integrated-studies-untied",
    ),
    pytest.param(
        "integrated.json",
        ["data", "factors", 0, "studies", "G"],
        ["c1"],
        "data.factors[0].studies.G: expected 1 to 0 studies for 0 mentions, none for none",
        id="integrated-study-without-mention",
    ),
    pytest.param(
        "integrated.json",
        ["data", "factors", 0, "studies", "P"],
        lambda ids: ids + ["another study"],
        "data.factors[0].studies.P: expected 1 to 1 studies for 1 mentions, none for none",
        id="integrated-studies-above-count",
    ),
    pytest.param(
        "classification.json",
        ["data", "factors", 0, "name"],
        7,
        "name",
        id="classification-name-number",
    ),
    pytest.param(
        "placements.json",
        ["data", "placements", 0, "subcategory"],
        7,
        "subcategory",
        id="placements-subcategory-number",
    ),
    pytest.param(
        "classification.json",
        ["data", "factors", 0, "flagged"],
        "no",
        "flagged",
        id="classification-flagged-string",
    ),
    pytest.param(
        "classification.json",
        ["data", "factors", 0, "relevance"],
        [0.5],
        "classification.json: data.factors[0].relevance: expected 12 numbers, one per KB "
        "domain, got 1",
        id="classification-relevance-short",
    ),
    # The reader checks the relevance rows as one column; each of these must
    # still be refused, each leaf named by its index.
    pytest.param(
        "classification.json",
        ["data", "factors", 0, "relevance", 3],
        1.5,
        "classification.json: data.factors[0].relevance[3]: expected a number in [0, 1], "
        "got 1.5",
        id="classification-relevance-above-one",
    ),
    pytest.param(
        "classification.json",
        ["data", "factors", 0, "relevance", 0],
        -0.5,
        "classification.json: data.factors[0].relevance[0]: expected a number in [0, 1], "
        "got -0.5",
        id="classification-relevance-negative",
    ),
    pytest.param(
        "classification.json",
        ["data", "factors", 0, "relevance", 2],
        float("nan"),
        "factors[0].relevance[2]: expected a finite number, got nan",
        id="classification-relevance-nan",
    ),
    pytest.param(
        "classification.json",
        ["data", "factors", 1, "primary_domain"],
        ["SAFETY"],
        "primary_domain",
        id="classification-primary-domain-list",
    ),
    pytest.param(
        "assignments.json",
        ["data", "assignments", 0, "subcategory"],
        7,
        "subcategory",
        id="assignments-subcategory-number",
    ),
    pytest.param(
        "assignments.json",
        ["data", "assignments", 1, "category"],
        None,
        "category",
        id="assignments-category-null",
    ),
    pytest.param(
        "assignments.json",
        ["data", "assignments", 0, "subcategory"],
        "NOWHERE",
        "subcategory",
        id="assignments-subcategory-unknown",
    ),
    pytest.param(
        "placements.json",
        ["data", "placements", 0, "domain"],
        "NOWHERE",
        "domain",
        id="placements-domain-unknown",
    ),
    pytest.param(
        "kb",
        ["domains", 0, "literature_support", "strong", 0],
        7,
        "literature_support",
        id="kb-literature-name-number",
    ),
    # A name both strong and none in one domain, after normalization.
    pytest.param(
        "kb",
        ["domains", 0, "literature_support", "none"],
        ["Lighting"],
        "domains[0].literature_support: 'lighting' is listed as both strong and none",
        id="kb-literature-both",
    ),
    # A blank name normalizes to nothing, as the corpus names do.
    pytest.param(
        "kb",
        ["domains", 0, "literature_support", "strong", 0],
        " ",
        "kb.yaml: domains[0].literature_support: factor name ' ' is empty after "
        "normalization",
        id="kb-literature-name-blank",
    ),
    pytest.param(
        "kb",
        ["placement_overrides"],
        {7: "SOCIAL"},
        "placement_overrides",
        id="kb-override-name-number",
    ),
    pytest.param(
        "kb",
        ["placement_overrides"],
        {"Lighting": "SOCIAL", "lighting": "COMFORT"},
        "placement_overrides",
        id="kb-override-spellings-conflict",
    ),
    pytest.param(
        "kb",
        ["domains"],
        lambda domains: domains + domains[:1],
        "domains: duplicate domain ids",
        id="kb-domains-duplicate",
    ),
    pytest.param(
        "kb",
        ["placement_overrides"],
        {"lighting": "NOWHERE"},
        "placement_overrides.lighting: unknown domain 'NOWHERE'",
        id="kb-override-unknown-domain",
    ),
    # A weight whose square underflows gives a norm of 0.0; one whose
    # square overflows gives an infinite norm, and every fit would be 0.0.
    pytest.param(
        "kb",
        ["domains", 0, "space_profile"],
        {"P": 1e-200},
        "domains[0].space_profile",
        id="kb-profile-norm-underflow",
    ),
    pytest.param(
        "kb",
        ["domains", 0, "space_profile"],
        {"P": 1e200},
        "domains[0].space_profile",
        id="kb-profile-norm-overflow",
    ),
    # The fixture's lighting is relevant to COMFORT, SAFETY & SECURITY and
    # INFRASTRUCTURE only.
    pytest.param(
        "kb",
        ["placement_overrides"],
        {"lighting": "ECONOMIC"},
        "placement_overrides.lighting",
        id="kb-override-outside-relevant-set",
    ),
    # Derived values are rebuilt on reading and must equal the artifact's.
    pytest.param(
        "placements.json",
        ["data", "placements"],
        lambda entries: [p for p in entries if p["factor"] != "visibility"],
        "placements",
        id="placements-factor-dropped",
    ),
    # accessibility's four placements come first, ranked by composite, so
    # the first is its primary and the third a tertiary one. The tiers are
    # not written: the rebuilt ranking refuses these edits.
    pytest.param(
        "placements.json",
        ["data", "placements"],
        lambda entries: [entries[1], entries[0], *entries[2:]],
        "placements[0].domain",
        id="placements-second-primary",
    ),
    pytest.param(
        "placements.json",
        ["data", "placements", 2, "composite"],
        0.99,
        "placements[0].domain",
        id="placements-tertiary-promoted",
    ),
    # accessibility's primary domain is ACCESSIBILITY.
    pytest.param(
        "classification.json",
        ["data", "factors", 1, "primary_domain"],
        "NOWHERE",
        "factors[1].primary_domain",
        id="classification-domain-unknown",
    ),
    pytest.param(
        "classification.json",
        ["data", "factors", 1, "primary_domain"],
        "SOCIAL",
        "factors[1].primary_domain",
        id="classification-primary-domain-changed",
    ),
    pytest.param(
        "placements.json",
        ["data", "placements", 0, "composite"],
        -1,
        "placements.json: data.placements[0].composite: expected a number in [0, 1], got -1",
        id="placements-composite-range",
    ),
    pytest.param(
        "classification.json",
        ["data", "factors", 1, "flagged"],
        False,
        "factors[1].flagged",
        id="classification-flag-cleared",
    ),
    pytest.param(
        "assignments.json",
        ["data", "assignments", 0],
        lambda a: {**a, "category": "SOCIAL", "subcategory": "INCLUSIVE DESIGN"},
        "assignments[0].category",
        id="assignments-category-not-argmax",
    ),
    # Every per-factor artifact lists the integrated factors, in their order.
    pytest.param(
        "classification.json",
        ["data", "factors", 0, "name"],
        "renamed",
        "name",
        id="classification-factor-renamed",
    ),
    pytest.param(
        "assignments.json",
        ["data", "assignments", 0, "factor"],
        "renamed",
        "factor",
        id="assignments-factor-renamed",
    ),
    pytest.param(
        "assignments.json",
        ["data", "assignments"],
        lambda entries: entries[:-1],
        "assignments",
        id="assignments-factor-dropped",
    ),
    # The first entry out of the integrated order is named, with both names.
    pytest.param(
        "classification.json",
        ["data", "factors"],
        lambda entries: [entries[1], entries[0], *entries[2:]],
        "data.factors[0].name: expected 'safety', got 'accessibility'",
        id="classification-factors-reordered",
    ),
    pytest.param(
        "assignments.json",
        ["data", "assignments"],
        lambda entries: [entries[1], entries[0], *entries[2:]],
        "data.assignments[0].factor: expected 'safety', got 'accessibility'",
        id="assignments-factors-reordered",
    ),
    pytest.param(
        "placements.json",
        ["data", "placements", 0, "factor"],
        "renamed",
        "factor",
        id="placements-factor-renamed",
    ),
    # "file" rows: the config names a path that the value's function makes.
    pytest.param(
        "file",
        ["datasets", 0],
        _latin1_dataset,
        "line 3: not UTF-8",
        id="dataset-not-utf8",
    ),
    pytest.param(
        "file",
        ["datasets", 0],
        lambda tmp: _made(tmp / "dataset.csv", Path.mkdir),
        "Is a directory",
        id="dataset-is-directory",
    ),
    pytest.param(
        "file",
        ["datasets", 0],
        _dataset("big.csv", "safety,s1,P\n" + "x" * 131_073 + ",s2,P\n"),
        "row 3: field larger than field limit",
        id="dataset-oversized-cell",
    ),
    # The name's first row is on line 4; the fold, not the loader, refuses it.
    pytest.param(
        "file",
        ["datasets", 0],
        _dataset("dots.csv", "safety,s1,P\nlighting,s2,S\n...,s3,P\n...,s1,S\n"),
        "row 4: factor name '...' is empty after normalization",
        id="dataset-name-empty-after-normalization",
    ),
    pytest.param(
        "file",
        ["out"],
        lambda tmp: _made(tmp / "out.txt", lambda path: path.write_text("x\n")),
        "cannot write",
        id="out-is-a-file",
    ),
    pytest.param(
        "file",
        ["datasets", 0],
        lambda tmp: _made(
            tmp / "header.csv",
            lambda path: path.write_text("raw_name,study_id,space_type\n"),
        ),
        "config.yaml: datasets",
        id="dataset-header-only",
    ),
    # PyYAML would keep the later of a duplicated key's values.
    pytest.param(
        "file",
        ["kb"],
        lambda tmp: _made(tmp / "kb.yaml", lambda path: path.write_text(TWICE)),
        "found duplicate key 'keywords' in \"<unicode string>\", line 5, column 5",
        id="kb-duplicate-key",
    ),
    # A phase name in place of "file": that subcommand, not run, reads the
    # config.
    pytest.param(
        "similarity",
        ["out"],
        lambda tmp: _made(tmp / "out.txt", lambda path: path.write_text("x\n")),
        "not a directory",
        id="out-is-a-file-read",
    ),
    # integrate refuses a dataset path as run does: it digests the inputs
    # before it reads any dataset.
    pytest.param(
        "integrate",
        ["datasets", 0],
        lambda tmp: tmp / "missing.csv",
        "dataset path not found: ",
        id="dataset-missing-integrate",
    ),
    pytest.param(
        "integrate",
        ["datasets", 0],
        lambda tmp: _made(tmp / "dataset.csv", Path.mkdir),
        "cannot read dataset file ",
        id="dataset-is-directory-integrate",
    ),
]


# The KB, lexicon and rules rows, each refused before a run writes; the one
# rule that needs the classification, not the KB alone, refuses later.
NEEDS_DATA = {"kb-override-outside-relevant-set"}
INPUT_ROWS = [
    row for row in MALFORMED
    if row.values[0] in ("kb", "lexicon", "rules") and row.id not in NEEDS_DATA
]


# artifact -> the phase subcommand that reads it
READER = {
    "integrated.json": "similarity",
    "similarity.json": "cluster",
    "classification.json": "place",
    "assignments.json": "place",
    "placements.json": "indicate",
}

def _edit(doc, path, value):
    if not path:
        return value(doc) if callable(value) else value
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    elif callable(value):
        target[path[-1]] = value(target[path[-1]])
    else:
        target[path[-1]] = value
    return doc


class TestMalformedInputs:
    @pytest.mark.parametrize("kind,path,value,field", MALFORMED)
    def test_exits_one_with_one_line(
        self, tmp_path, capsys, kind, path, value, field
    ):
        doc = {"datasets": [str(FIXTURES / "sample_corpus.csv")], "out": "out"}
        defaults = {
            "kb": default_kb_path(),
            "lexicon": default_lexicon_path(),
            "rules": default_rules_path(),
        }
        if kind in defaults:
            source = yaml.safe_load(defaults[kind].read_text(encoding="utf-8"))
            edited = tmp_path / f"{kind}.yaml"
            edited.write_text(yaml.safe_dump(_edit(source, path, value)), "utf-8")
            doc[kind] = str(edited)
        elif kind == "config":
            doc = _edit(doc, path, value)
        elif kind == "file" or kind in cli.PHASES:
            made = value(tmp_path)
            doc = _edit(doc, path, str(made))
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        command = kind if kind in cli.PHASES else "run"
        if kind in READER:
            assert cli.main(["run", "--config", str(config)]) == 0
            artifact = tmp_path / "out" / kind
            data = json.loads(artifact.read_text(encoding="utf-8"))
            edited = _edit(data, path, value)
            if type(edited) is bytes:
                artifact.write_bytes(edited)
            else:
                artifact.write_text(json.dumps(edited), "utf-8")
            command = READER[kind]
        capsys.readouterr()
        assert cli.main([command, "--config", str(config)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert field in lines[0]
        # The edited file is named: an artifact, the input file written above,
        # or the path a "file" row made.
        if kind == "file" or kind in cli.PHASES:
            assert made.name in lines[0]
        else:
            assert (kind if kind in READER else f"{kind}.yaml") in lines[0]

    @pytest.mark.parametrize("kind,path,value,field", INPUT_ROWS)
    def test_input_is_refused_before_a_run_writes(
        self, tmp_path, capsys, caplog, kind, path, value, field
    ):
        # After a good run, a run refused for an input file logs no phase's
        # INFO line and leaves every earlier output as it was.
        assert cli.main(["run", "--config", str(write_config(tmp_path))]) == 0
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        default = {"kb": default_kb_path(), "lexicon": default_lexicon_path(),
                   "rules": default_rules_path()}[kind]
        source = yaml.safe_load(default.read_text(encoding="utf-8"))
        edited = tmp_path / f"{kind}.yaml"
        edited.write_text(yaml.safe_dump(_edit(source, path, value)), "utf-8")
        config = write_config(tmp_path, "edited.yaml", extra=f"{kind}: {edited}\n")
        capsys.readouterr()
        with caplog.at_level(logging.INFO, logger="taxoforge.pipeline"):
            assert cli.main(["run", "--config", str(config)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert field in line and f"{kind}.yaml" in line
        assert [r for r in caplog.records if r.levelno == logging.INFO] == []
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("command", ["place", "indicate", "emit"])
    def test_refused_override_names_the_kb_in_every_phase(
        self, tmp_path, capsys, command
    ):
        # accessibility is cross-cutting with ECONOMIC among its relevant
        # domains, so the run takes the override. With ECONOMIC's relevance
        # lowered in the artifact the factor stays flagged, and each phase
        # that rebuilds its placements refuses the override.
        kb = write_kb(tmp_path, {"accessibility": "ECONOMIC"})
        config = write_config(tmp_path, extra=f"kb: {kb}\n")
        assert cli.main(["run", "--config", str(config)]) == 0
        artifact = tmp_path / "out" / "classification.json"
        data = json.loads(artifact.read_text(encoding="utf-8"))
        (factor,) = [f for f in data["data"]["factors"] if f["name"] == "accessibility"]
        assert factor["flagged"]
        factor["relevance"][8] = 0.5  # ECONOMIC
        artifact.write_text(json.dumps(data), "utf-8")
        capsys.readouterr()
        assert cli.main([command, "--config", str(config)]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert f"kb file {kb}: placement_overrides.accessibility" in line


# A refusal quotes each value at most 60 characters long and lists at most
# five unknown codes, so its one line stays short at any input size. Each
# row: the config keys it sets beside ``out``, the flags given to ``run``,
# and the file or flag the refusal must name, with the cut key where a
# key is long.
LONG = "x" * 5_000
CLIPPED = "x" * 57 + "..."  # LONG as a refusal names it as a key
FIXTURE_DATASETS = {"datasets": [str(FIXTURES / "sample_corpus.csv")]}

BOUNDED = [
    pytest.param(
        lambda tmp: {"datasets": [str(_dataset("type.csv", f"safety,s1,{LONG}\n")(tmp))]},
        [],
        "type.csv",
        id="space-type-cell",
    ),
    pytest.param(
        lambda tmp: {"datasets": [str(_made(
            tmp / "header.csv",
            lambda path: path.write_text(f"raw_name,study_id,{LONG}\nsafety,s1,P\n"),
        ))]},
        [],
        "header.csv",
        id="header-cell",
    ),
    pytest.param(
        lambda tmp: {"datasets": [str(_dataset("dots.csv", "." * 5_000 + ",s1,P\n")(tmp))]},
        [],
        "dots.csv",
        id="name-of-periods",
    ),
    pytest.param(
        lambda tmp: {"datasets": {f"X{k}": "a.csv" for k in range(400)}},
        [],
        "config.yaml",
        id="unknown-typology-codes",
    ),
    pytest.param(lambda tmp: FIXTURE_DATASETS, ["--weights", LONG], "--weights",
                 id="weights-flag"),
    pytest.param(lambda tmp: FIXTURE_DATASETS, ["--threshold", LONG], "--threshold",
                 id="threshold-flag"),
    pytest.param(lambda tmp: FIXTURE_DATASETS, ["--sankey", LONG], "unknown category",
                 id="sankey-flag"),
    # A refusal names a key of any length cut as it quotes a value. The
    # emitter writes a key this long in explicit ``? key`` form.
    pytest.param(lambda tmp: {**FIXTURE_DATASETS, "thresholds": {LONG: 0.5}}, [],
                 f"config.yaml: thresholds.{CLIPPED}: unknown key", id="config-key"),
    pytest.param(
        lambda tmp: {**FIXTURE_DATASETS, "kb": str(_made(
            tmp / "kb.yaml",
            lambda path: path.write_text(yaml.safe_dump({
                **yaml.safe_load(default_kb_path().read_text(encoding="utf-8")),
                "placement_overrides": {LONG: "NOWHERE"},
            }), encoding="utf-8"),
        ))},
        [],
        f"kb.yaml: placement_overrides.{CLIPPED}: unknown domain",
        id="kb-override-key",
    ),
    pytest.param(
        lambda tmp: {**FIXTURE_DATASETS, "lexicon": str(_made(
            tmp / "lexicon.yaml",
            lambda path: path.write_text(
                yaml.safe_dump({"fields": {LONG: []}}), encoding="utf-8"
            ),
        ))},
        [],
        f"lexicon.yaml: fields.{CLIPPED}: expected at least one term",
        id="lexicon-field-name",
    ),
    # A value nested deeper than ``repr`` can show is named by its type.
    # PyYAML's emitter recurses too, so the file is written as text.
    pytest.param(
        lambda tmp: {**FIXTURE_DATASETS, "kb": str(_made(
            tmp / "kb.yaml", lambda path: path.write_text("- " * 3_000 + "x\n")
        ))},
        [],
        "kb.yaml",
        id="kb-deep-list",
    ),
    pytest.param(lambda tmp: FIXTURE_DATASETS, ["--threshold", f"{LONG}=0.5"],
                 f"--threshold: {CLIPPED}: unknown key", id="threshold-name"),
    # Two long ids that the prefix names, each cut as a key is.
    pytest.param(
        lambda tmp: {**FIXTURE_DATASETS, "kb": str(_made(
            tmp / "kb.yaml",
            lambda path: path.write_text(yaml.safe_dump({
                **PACKAGED_KB,
                "domains": [{**domain, "id": LONG[1:] + end} for domain, end
                            in zip(PACKAGED_KB["domains"], "AB")]
                + PACKAGED_KB["domains"][2:],
            }), encoding="utf-8"),
        ))},
        ["--sankey", "xxx"],
        "is ambiguous",
        id="sankey-ambiguous-ids",
    ),
]


def _one_short_line(capsys, named: str) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert len(lines[0]) <= 300 and named in lines[0]
    return lines[0]


class TestBoundedRefusals:
    @pytest.mark.parametrize("make,flags,named", BOUNDED)
    def test_long_input_value(self, tmp_path, capsys, make, flags, named):
        config = tmp_path / "config.yaml"
        doc = {"out": str(tmp_path / "out"), **make(tmp_path)}
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config), *flags]) == 1
        _one_short_line(capsys, named)

    @pytest.mark.parametrize(
        "artifact,path,command",
        [
            ("integrated.json", ["phase"], "similarity"),
            ("similarity.json", ["data", "components", 0, 0], "cluster"),
            ("assignments.json", ["data", "assignments", 0, "subcategory"], "place"),
        ],
        ids=["envelope-phase", "edge-index", "assignment-subcategory"],
    )
    def test_long_artifact_value(self, tmp_path, capsys, artifact, path, command):
        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config)]) == 0
        written = tmp_path / "out" / artifact
        data = _edit(json.loads(written.read_text(encoding="utf-8")), path, LONG)
        written.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert cli.main([command, "--config", str(config)]) == 1
        assert "'xxx" in _one_short_line(capsys, artifact)

    def test_deep_config_value(self, tmp_path, capsys):
        # As the kb-deep-list row, in the config file itself: a 3,000-level
        # flow list where ``out`` takes a string.
        config = tmp_path / "config.yaml"
        deep = "[" * 3_000 + "]" * 3_000
        corpus = FIXTURES / "sample_corpus.csv"
        config.write_text(f"datasets: [{corpus}]\nout: {deep}\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config)]) == 1
        _one_short_line(capsys, "config.yaml")


class TestArtifactWrites:
    def test_failed_write_keeps_the_earlier_artifacts(
        self, tmp_path, monkeypatch, capsys
    ):
        config = write_config(tmp_path)
        assert cli.main(["run", "--config", str(config)]) == 0
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        # Other weights change every artifact's config checksum.
        monkeypatch.setattr(os, "replace", no_space)
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config), "--weights", "1,0,0"]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "cannot write" in line and "integrated.json" in line
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_csv_rows_keep_the_earlier_report(self, tmp_path):
        path = tmp_path / "report.csv"
        pipeline._write_csv(path, ("a", "b"), [(1, 2)])

        def rows():
            yield (3, 4)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            pipeline._write_csv(path, ("a", "b"), rows())
        assert path.read_text(encoding="utf-8") == "a,b\n1,2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


class TestCollector:
    """``run`` and each phase pause the cyclic garbage collector, which is
    safe only while they make no reference cycle."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_every_call_leaves_the_collector_as_it_found_it(self, tmp_path, enabled):
        config = str(write_config(tmp_path))
        not_a_directory = tmp_path / "out.txt"
        not_a_directory.write_text("x\n", encoding="utf-8")
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for command in ["run", *PHASE_COMMANDS]:
                assert cli.main([command, "--config", config]) == 0
                assert gc.isenabled() is enabled, command
                refused = [command, "--config", config, "--out", str(not_a_directory)]
                assert cli.main(refused) == 1
                assert gc.isenabled() is enabled, command
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_a_run_leaves_no_cyclic_garbage(self, tmp_path):
        # A cycle made on every run would hold its objects until the
        # collector runs again, after the phase: a higher peak RSS.
        config = pipeline.load_config(write_config(tmp_path))
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert pipeline.run(config) == 0
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


def test_cli_import_adds_only_stdlib_yaml_and_taxoforge():
    # Everything yaml imports is loaded first and so not counted; what
    # importing the CLI adds beyond that must be the standard library or
    # taxoforge itself, so no optional dependency slows every start-up. With
    # no site module (-S), which may load them itself, it must add none of
    # importlib.resources and the archive modules that pulls in: the
    # packaged KB, rules and lexicon are found beside the package.
    code = (
        "import sys, yaml\n"
        "before = set(sys.modules)\n"
        "import taxoforge.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    package_root = str(Path(pipeline.__file__).resolve().parents[1])
    yaml_root = str(Path(yaml.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, yaml_root])}
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    added = set(result.stdout.split())
    packages = {name.split(".")[0] for name in added}
    assert "taxoforge" in packages
    assert packages - {"taxoforge"} <= set(sys.stdlib_module_names)
    assert added.isdisjoint({"importlib.resources", "zipfile", "tempfile"})
