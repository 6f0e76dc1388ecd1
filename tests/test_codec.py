"""The artifact codec: round trips, refused leaves, and a mutation sweep of
every leaf of the fixture's artifacts through the checked read path."""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, fields
from typing import Mapping

import pytest

from taxoforge import codec, pipeline
from taxoforge.applicability import IndicatorKind, TierLevel
from taxoforge.classify import CrossCuttingStatus, FactorClass
from taxoforge.cluster import CategoryAssignment, CategoryHome
from taxoforge.errors import ArtifactError
from taxoforge.placement import PlacementTier
from tests.conftest import FIXTURES

# Phases whose artifacts the codec writes, and those a later phase reads.
CODEC_PHASES = ("integrate", "classify", "cluster", "place", "indicate")
READ_PHASES = ("integrate", "similarity", "classify", "cluster", "place")


@dataclass(frozen=True)
class Channels:
    semantic: float
    similarity_evidence: float
    distribution: float


@dataclass(frozen=True)
class ScoredHome(CategoryHome):
    """A home with a mapping of dataclasses, as assignments once carried."""

    scores: Mapping[str, Channels]


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    """The fixture config writing to a temp directory, and the in-memory
    state of one run over it."""
    config = pipeline.apply_overrides(
        pipeline.load_config(FIXTURES / "config.yaml"),
        out_dir=str(tmp_path_factory.mktemp("out")),
    )
    state = pipeline.RunState(config)
    for phase in pipeline.ARTIFACTS:
        getattr(pipeline, f"phase_{phase}")(config, state=state)
    return config, state


@pytest.mark.parametrize("phase", CODEC_PHASES)
def test_artifact_round_trip(fixture_run, phase):
    _, state = fixture_run
    _, key, kind = pipeline.ARTIFACTS[phase]
    result = state.results[phase]
    if phase == "place":
        result = list(result.placements)
    data = json.loads(json.dumps(pipeline.artifact_data(phase, result)))
    if key is not None:
        data = data[key]
    decoded = codec.decode(kind, data, "data")
    if phase in ("classify", "cluster", "place"):
        # The artifact keeps the fields of the entries' base class only.
        (entry,) = typing.get_args(kind)
        names = [f.name for f in fields(entry)]
        result = [entry(**{n: getattr(r, n) for n in names}) for r in result]
    assert decoded == result
    assert codec.encode(kind, decoded) == data


def test_dataclass_fields_are_inlined_only_outside_collections(fixture_run):
    _, state = fixture_run
    integrated = pipeline.artifact_data("integrate", state.results["integrate"])
    assert list(integrated["factors"][0]) == [
        "canonical_name",
        "counts",
        "studies",
    ]
    # Dataclasses inside a mapping or a tuple stay objects.
    channels = {"semantic": 0.5, "similarity_evidence": 0.0, "distribution": 1.0}
    scored = ScoredHome("safety", "COMFORT", "THERMAL", {"COMFORT": Channels(**channels)})
    assert codec.encode(ScoredHome, scored)["scores"] == {"COMFORT": channels}


# phase -> the keys of each entry of its slimmed artifact: the independent
# values, and the derived ones the benchmark reads (similarity names, weights
# and scores; each classification's primary domain and flag).
KEPT_KEYS = {
    "similarity": {"weights", "names", "scores", "components"},
    "classify": {"name", "primary_domain", "flagged", "relevance"},
    "cluster": {"factor", "category", "subcategory"},
    "place": {"factor", "domain", "subcategory", "composite"},
}


@pytest.mark.parametrize("phase", KEPT_KEYS)
def test_slim_artifacts_keep_only_their_keys(fixture_run, phase):
    config, _ = fixture_run
    name, key, _ = pipeline.ARTIFACTS[phase]
    data = json.loads((config.out_dir / name).read_text(encoding="utf-8"))["data"]
    if key is None:
        assert set(data) == KEPT_KEYS[phase]
    else:
        assert set(data) == {key}
        assert data[key]
        assert all(set(entry) == KEPT_KEYS[phase] for entry in data[key])


def test_assignments_read_back_equal_the_run(fixture_run):
    """Every channel score is rebuilt on reading, so the result read from
    disk equals the one the run computed, scores included."""
    config, state = fixture_run
    read = pipeline.RunState(config).get("cluster")
    assert all(type(a) is CategoryAssignment for a in read)
    assert read == state.results["cluster"]


@pytest.mark.parametrize("phase", ("similarity", "classify", "place", "indicate"))
def test_rebuilt_results_equal_the_run(fixture_run, phase):
    """Classes, statistics, tiers, cross-references, argmax flags and the
    indicators are rebuilt, so each result equals the run's."""
    config, state = fixture_run
    read = pipeline.RunState(config).get(phase)
    if phase == "similarity":  # the build's candidate count is not written
        assert (read.scores, read.components) == (
            state.results[phase].scores,
            state.results[phase].components,
        )
    else:
        assert read == state.results[phase]


ASSIGNMENT = {
    "factor": "safety",
    "category": "COMFORT",
    "subcategory": "THERMAL",
    "scores": {
        "COMFORT": {"semantic": 0.5, "similarity_evidence": 0.0, "distribution": 1}
    },
}


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(
            lambda a: a["scores"]["COMFORT"].update(semantic=None),
            "data[1].scores.COMFORT.semantic: expected a number, got None",
            id="null-number",
        ),
        pytest.param(
            lambda a: a["scores"]["COMFORT"].update(semantic=True),
            "data[1].scores.COMFORT.semantic: expected a number, got True",
            id="bool-number",
        ),
        pytest.param(
            lambda a: a["scores"]["COMFORT"].update(semantic=float("nan")),
            "data[1].scores.COMFORT.semantic: expected a finite number, got nan",
            id="nan-number",
        ),
        pytest.param(
            lambda a: a["scores"]["COMFORT"].update(distribution=float("-inf")),
            "data[1].scores.COMFORT.distribution: expected a finite number, got -inf",
            id="infinite-number",
        ),
        pytest.param(
            lambda a: a.pop("category"), "data[1].category: missing", id="missing"
        ),
        pytest.param(
            lambda a: a.update(subcategory=7),
            "data[1].subcategory: expected a string, got 7",
            id="number-string",
        ),
        pytest.param(
            lambda a: a.update(scores=[]),
            "data[1].scores: expected an object, got []",
            id="list-mapping",
        ),
    ],
)
def test_refused_leaf_is_named_by_its_path(edit, message):
    entries = json.loads(json.dumps([ASSIGNMENT, ASSIGNMENT]))
    edit(entries[1])
    with pytest.raises(ArtifactError) as caught:
        codec.decode(list[ScoredHome], entries, "data")
    assert str(caught.value).startswith(message)


def test_post_init_check_is_refused_at_its_object(fixture_run):
    _, state = fixture_run
    _, key, kind = pipeline.ARTIFACTS["integrate"]
    data = pipeline.artifact_data("integrate", state.results["integrate"])
    data["factors"][2]["counts"] = [1, 2, 3]
    with pytest.raises(ArtifactError, match=r"^data\.factors\[2\]: occurrence vector"):
        codec.decode(kind, data, "data")


def _leaves(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, path + (index,))
    else:
        yield path, value


def _mutations(value):
    """Null, a value of the other kind and, for numbers, -1."""
    if value is None:
        return ["x", 7]
    if isinstance(value, str):
        return [None, 7]
    if isinstance(value, bool):
        return [None, "true"]
    return [None, "7", -1]


ENUMS = {
    "factor_class": FactorClass,
    "status": CrossCuttingStatus,
    "tier": PlacementTier,
    "kind": IndicatorKind,
    "tiers": TierLevel,
}


def _same_kind(leaf, value, kb):
    """Other values of the leaf's own kind: the other bool, every other enum
    member, another KB id, another in-range number, another string."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        if isinstance(value, int):
            return [value - 1 if value else 1]
        return [value / 2 if value else 0.5]
    if not isinstance(value, str):
        return []
    parent, key = [None, *(key for key in leaf if isinstance(key, str))][-2:]
    enum = ENUMS.get("tiers" if parent == "tiers" else key)
    if enum is not None and value in {member.value for member in enum}:
        return [member.value for member in enum if member.value != value]
    for domain in kb.domains:
        subs = domain.subcategory_ids()
        if "subcategory" in key and value in subs:
            others = [sub for sub in subs if sub != value]
            return others[:1] or [kb.domains[0].subcategory_ids()[0]]
    ids = kb.domain_ids()
    if value in ids:
        return [ids[(ids.index(value) + 1) % len(ids)]]
    return [value + " x"]


def _rebuilt(phase, leaf):
    """Whether the leaf of ``phase``'s artifact is rebuilt on reading rather
    than read as written (similarity components, relevance, assignment
    subcategories, placement composites and subcategories)."""
    if leaf[0] != "data" or phase not in pipeline.REBUILT:
        return False
    if phase == "similarity":
        return leaf[1] != "components"
    if phase == "classify":
        return "relevance" not in leaf
    if phase == "cluster":
        return leaf[-1] == "category"
    if phase == "place":
        return not (leaf[1] == "placements" and leaf[-1] in ("composite", "subcategory"))
    return True


def test_mutation_sweep_reads_or_refuses(fixture_run):
    """Each leaf of each artifact a phase reads, mutated alone, is either
    read or refused with one line naming the file; nothing else escapes.
    Every mutation to a null, another JSON type or -1 is refused. No leaf
    that is rebuilt on reading is read with another value, not even one of
    its own kind that every type and range check accepts."""
    config, computed = fixture_run
    loaded = {
        name: getattr(computed, name) for name in ("checksums", "kb", "lexicon")
    }
    outcomes = {"read": 0, "refused": 0}
    read_rebuilt, read_wrong_kind = [], []
    for phase in READ_PHASES:
        path = config.out_dir / pipeline.ARTIFACTS[phase][0]
        original = path.read_text(encoding="utf-8")
        doc = json.loads(original)
        try:
            for leaf, value in _leaves(doc):
                mutations = [(m, True) for m in _mutations(value)]
                mutations += [(m, False) for m in _same_kind(leaf, value, computed.kb)]
                for mutated, wrong_kind in mutations:
                    edited = json.loads(original)
                    target = edited
                    for key in leaf[:-1]:
                        target = target[key]
                    target[leaf[-1]] = mutated
                    path.write_text(json.dumps(edited), encoding="utf-8")
                    state = pipeline.RunState(config)
                    state.__dict__.update(loaded)  # the cached properties
                    state.results.update(
                        (p, r) for p, r in computed.results.items() if p != phase
                    )
                    try:
                        state.get(phase)
                        outcomes["read"] += 1
                        if wrong_kind:
                            read_wrong_kind.append((phase, leaf, mutated))
                        if _rebuilt(phase, leaf):
                            read_rebuilt.append((phase, leaf, mutated))
                    except ArtifactError as exc:
                        assert str(path) in str(exc), (leaf, mutated)
                        assert "\n" not in str(exc), (leaf, mutated)
                        outcomes["refused"] += 1
        finally:
            path.write_text(original, encoding="utf-8")
    assert sum(outcomes.values()) > 1450
    assert read_wrong_kind == []
    assert read_rebuilt == []
