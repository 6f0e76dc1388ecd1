"""The artifact codec: round trips, refused leaves, and a mutation sweep of
every leaf of the fixture's artifacts through the checked read path."""

from __future__ import annotations

import json
import re
import typing
from typing import Mapping, NamedTuple

import pytest

from taxoforge import codec, knowledge, pipeline, similarity
from taxoforge.cluster import CategoryAssignment
from taxoforge.errors import ArtifactError
from taxoforge.integrate import IntegratedFactor
from tests.conftest import FIXTURES

# Phases whose artifacts the codec writes, and those a later phase reads.
CODEC_PHASES = ("integrate", "classify", "cluster", "place")
READ_PHASES = ("integrate", "similarity", "classify", "cluster", "place")


class Channels(NamedTuple):
    semantic: float
    similarity_evidence: float
    distribution: float


class ScoredHome(NamedTuple):
    """A home with a mapping of records, as assignments once carried: a
    record inside a mapping stays an object."""

    factor: str
    category: str
    subcategory: str
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
    _, key, kind, _ = pipeline.ARTIFACTS[phase]
    result = state.results[phase]
    if phase == "place":
        result = list(result.placements)
    data = json.loads(json.dumps(pipeline.artifact_data(phase, result)))
    if key is not None:
        data = data[key]
    decoded = codec.decode(kind, data, "data")
    if phase in ("classify", "cluster", "place"):
        # The artifact keeps the fields of the named record type only.
        (entry,) = typing.get_args(kind)
        names = entry._fields
        result = [entry(**{n: getattr(r, n) for n in names}) for r in result]
    assert decoded == result
    assert codec.encode(kind, decoded) == data


def test_record_fields_are_inlined_only_outside_collections(fixture_run):
    _, state = fixture_run
    integrated = pipeline.artifact_data("integrate", state.results["integrate"])
    assert list(integrated["factors"][0]) == [
        "canonical_name",
        "counts",
        "studies",
    ]
    # Records inside a mapping or a tuple stay objects.
    channels = {"semantic": 0.5, "similarity_evidence": 0.0, "distribution": 1.0}
    scored = ScoredHome("safety", "COMFORT", "THERMAL", {"COMFORT": Channels(**channels)})
    assert codec.encode(ScoredHome, scored)["scores"] == {"COMFORT": channels}


def test_empty_study_and_field_sets_are_one_object(fixture_run):
    """Most per-typology study sets are empty. Each is one shared object, as
    computed by integrate and as read back from integrated.json, and so is
    the field set of every name in no lexicon field."""
    config, state = fixture_run
    computed, read_back = state.get("integrate"), pipeline.RunState(config).get("integrate")
    assert read_back is not computed
    empty = [
        ids
        for factor_set in (computed, read_back)
        for factor in factor_set.factors
        for ids in factor.studies.values()
        if not ids
    ]
    assert len(empty) > 2
    assert len(set(map(id, empty))) == 1
    lexicon = state.lexicon
    assert lexicon.fields_of("no such name") is lexicon.fields_of("nor this") is empty[0]
    assert empty[0] is codec.EMPTY


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
    name, key, _, _ = pipeline.ARTIFACTS[phase]
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


def test_chained_read_encodes_nothing(fixture_run, monkeypatch):
    """A phase run alone compares each decoded artifact with the records it
    rebuilds; it encodes no upstream result again to compare the JSON."""
    config, _ = fixture_run
    calls = []
    for module, name in ((codec, "encode"), (similarity, "matrix_to_dict")):

        def counted(*args, _original=getattr(module, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    assert pipeline.phase_emit(config) == 0
    assert calls == []


ASSIGNMENT = {
    "factor": "safety",
    "category": "COMFORT",
    "subcategory": "THERMAL",
    "scores": {
        "COMFORT": {"semantic": 0.5, "similarity_evidence": 0.0, "distribution": 1}
    },
}


FACTOR = {
    "canonical_name": "safety",
    "counts": [1, 0, 0, 0, 0, 0],
    "studies": {"P": ["s1"]},
}


def _put(entries, row, *path_and_value):
    """Set the leaf at ``path`` below ``entries[row]`` to ``value``."""
    *path, key, value = path_and_value
    target = entries[row]
    for step in path:
        target = target[step]
    target[key] = value


@pytest.mark.parametrize(
    "kind,edit,message",
    [
        pytest.param(
            ScoredHome,
            lambda e: e[1]["scores"]["COMFORT"].update(semantic=None),
            "data[1].scores.COMFORT.semantic: expected a number, got None",
            id="null-number",
        ),
        pytest.param(
            ScoredHome,
            lambda e: e[1]["scores"]["COMFORT"].update(semantic=True),
            "data[1].scores.COMFORT.semantic: expected a number, got True",
            id="bool-number",
        ),
        pytest.param(
            ScoredHome,
            lambda e: e[1]["scores"]["COMFORT"].update(semantic=float("nan")),
            "data[1].scores.COMFORT.semantic: expected a finite number, got nan",
            id="nan-number",
        ),
        pytest.param(
            ScoredHome,
            lambda e: e[1]["scores"]["COMFORT"].update(distribution=float("-inf")),
            "data[1].scores.COMFORT.distribution: expected a finite number, got -inf",
            id="infinite-number",
        ),
        pytest.param(
            ScoredHome, lambda e: e[1].pop("category"), "data[1].category: missing",
            id="missing",
        ),
        pytest.param(
            ScoredHome,
            lambda e: e[1].update(subcategory=7),
            "data[1].subcategory: expected a string, got 7",
            id="number-string",
        ),
        pytest.param(
            ScoredHome,
            lambda e: e[1].update(scores=[]),
            "data[1].scores: expected an object, got []",
            id="list-mapping",
        ),
        # Two faults in different rows and fields: the first one a reader
        # meets going row by row is named, not the first of a column.
        pytest.param(
            ScoredHome,
            lambda e: (
                _put(e, 0, "scores", "COMFORT", "semantic", None),
                _put(e, 1, "factor", 7),
            ),
            "data[0].scores.COMFORT.semantic: expected a number, got None",
            id="last-field-before-next-row",
        ),
        pytest.param(
            ScoredHome,
            lambda e: (_put(e, 1, "typo", 1), _put(e, 0, "subcategory", 7)),
            "data[0].subcategory: expected a string, got 7",
            id="wrong-leaf-before-later-unknown-key",
        ),
        pytest.param(
            IntegratedFactor,
            lambda e: (_put(e, 0, "counts", 2, -1), _put(e, 1, "canonical_name", 7)),
            "data[0]: occurrence counts must be non-negative",
            id="check-before-later-wrong-leaf",
        ),
        pytest.param(
            IntegratedFactor,
            lambda e: (_put(e, 1, "counts", 2, -1), _put(e, 0, "studies", "P", 0, 7)),
            "data[0].studies.P[0]: expected a string, got 7",
            id="wrong-leaf-before-later-check",
        ),
    ],
)
def test_refused_leaf_is_named_by_its_path(kind, edit, message):
    base = ASSIGNMENT if kind is ScoredHome else FACTOR
    entries = json.loads(json.dumps([base, base]))
    edit(entries)
    with pytest.raises(ArtifactError) as caught:
        codec.decode(list[kind], entries, "data")
    assert str(caught.value).startswith(message)


def _kb_without_scope_priors():
    doc = codec.read_yaml(knowledge.default_kb_path(), "kb", ArtifactError)
    del doc["scope_priors"]  # an absent key takes its field's default
    return doc


@pytest.mark.parametrize("phase", [*CODEC_PHASES, "kb"])
def test_columns_read_what_the_walk_reads(fixture_run, phase):
    """Reading as columns gives what the record-by-record walk gives, to the
    type of each leaf: a float written as a whole number reads as a float."""
    config, _ = fixture_run
    if phase == "kb":
        kind, data = knowledge.KbFile, _kb_without_scope_priors()
    else:
        name, key, kind, _ = pipeline.ARTIFACTS[phase]
        data = json.loads((config.out_dir / name).read_text(encoding="utf-8"))["data"]
        data = data if key is None else data[key]
    text = json.dumps(data)
    whole = re.sub(r"(?<=\d)\.0\b", "", text)
    assert (whole != text) is (phase in ("classify", "kb"))  # floats written as x.0
    for value in (data, json.loads(whole)):
        columns = codec._column(kind)([value])[0]
        assert repr(columns) == repr(codec._codec(kind)[0](value))


def test_record_check_is_refused_at_its_object(fixture_run):
    _, state = fixture_run
    _, key, kind, _ = pipeline.ARTIFACTS["integrate"]
    data = pipeline.artifact_data("integrate", state.results["integrate"])
    data["factors"][2]["counts"] = [1, 2, 3]
    with pytest.raises(ArtifactError, match=r"^data\.factors\[2\]: occurrence vector"):
        codec.decode(kind, data, "data")


def _first_index_one(data):
    row = next(k for k, edge in enumerate(data["scores"]) if 1 in edge[:2])
    return ["scores", row, data["scores"][row].index(1)]


@pytest.mark.parametrize(
    "weights,leaf",
    [
        pytest.param(None, _first_index_one, id="scores-index"),
        pytest.param("1,0,0", lambda data: ["weights", 0], id="weight"),
    ],
)
def test_true_for_one_is_refused_at_its_leaf(tmp_path, weights, leaf):
    """Python's ``==`` equates true with 1, and no decoder reads the scores
    rows or weights of similarity.json; a true standing for a 1 there is
    still refused, at its leaf."""
    config = pipeline.apply_overrides(
        pipeline.load_config(FIXTURES / "config.yaml"),
        out_dir=str(tmp_path),
        weights=weights,
    )
    pipeline.run(config)
    path = tmp_path / "similarity.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    *parents, last = leaf(doc["data"])
    target = doc["data"]
    for key in parents:
        target = target[key]
    value, target[last] = target[last], True
    assert value == 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    at = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in parents)
    with pytest.raises(ArtifactError) as caught:
        pipeline.RunState(config).get("similarity")
    message = f"artifact {path}: data{at}[{last}]: expected {value!r}, got True"
    assert str(caught.value) == message


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
    """Null, a value of the other kind and, for numbers, -1; a number equal
    to 0 or 1 also becomes false or true, which Python's ``==`` equates
    with it."""
    if value is None:
        return ["x", 7]
    if isinstance(value, str):
        return [None, 7]
    if isinstance(value, bool):
        return [None, "true"]
    return [None, "7", -1] + ([value == 1] if value in (0, 1) else [])


def _same_kind(leaf, value, kb):
    """Other values of the leaf's own kind: the other bool, another KB id,
    another in-range number, another string."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        if isinstance(value, int):
            return [value - 1 if value else 1]
        return [value / 2 if value else 0.5]
    if not isinstance(value, str):
        return []
    key = [key for key in leaf if isinstance(key, str)][-1]
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
    if leaf[0] != "data" or phase == "integrate":
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


# A cross-field check refuses the value it holds a mutated leaf against, not
# the leaf: (phase, leaf) -> the paths such a refusal may name. "[*]" is any
# index, ".*" any key.
CROSS_FIELD = {
    ("integrate", "data.factors[*].counts[*]"): (
        "data.factors[*].studies.*", "data.raw_record_count"
    ),
    ("similarity", "data.components[*][*]"): ("data.scores[*][*]",),
    ("classify", "data.factors[*].relevance[*]"): (
        "data.factors[*].flagged", "data.factors[*].primary_domain"
    ),
    ("cluster", "data.assignments[*].category"): ("data.assignments[*].subcategory",),
    ("place", "data.placements[*].composite"): ("data.placements[*].domain",),
    ("place", "data.placements[*].domain"): ("data.placements[*].subcategory",),
}


def _steps(path: str) -> list[str]:
    """``data.factors[3].counts`` as ``["data", ".factors", "[3]", ".counts"]``."""
    return re.findall(r"^[^.\[]+|\.[^.\[]+|\[[^\]]*\]", path)


def _matches(pattern: list[str], steps: list[str]) -> bool:
    """Whether ``pattern`` is ``steps`` or a prefix of it, step by step, a
    ``[*]`` or ``.*`` step matching any index or key."""
    return len(pattern) <= len(steps) and all(
        p == s or p == "[*]" and s[0] == "[" or p == ".*" and s[0] == "."
        for p, s in zip(pattern, steps)
    )


def _names_its_leaf(phase, leaf, message, path) -> bool:
    """Whether the refusal names the leaf, an ancestor of it, or a value a
    cross-field check holds it against; a changed config checksum is named
    as such."""
    if leaf == ("config_checksum",):
        return "(checksum mismatch)" in message
    named = re.match(r"\w[^\s:]*", message.removeprefix(f"artifact {path}: "))
    if named is None:
        return False
    found = _steps(named.group())
    steps = _steps("".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in leaf)[1:])
    general = "".join("[*]" if s[0] == "[" else s for s in steps)
    allowed = [_steps(p) for p in CROSS_FIELD.get((phase, general), ())]
    return _matches(found, steps) or any(
        len(p) == len(found) and _matches(p, found) for p in allowed
    )


def test_mutation_sweep_reads_or_refuses(fixture_run):
    """Each leaf of each artifact a phase reads, mutated alone, is either
    read or refused with one line naming the file and the leaf's path, an
    ancestor of it, or the value a cross-field check holds it against;
    nothing else escapes. Every mutation to a null, another JSON type or -1
    is refused. No leaf that is rebuilt on reading is read with another
    value, not even one of its own kind that every type and range check
    accepts."""
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
                        assert _names_its_leaf(phase, leaf, str(exc), path), (
                            leaf, mutated, str(exc)
                        )
                        outcomes["refused"] += 1
        finally:
            path.write_text(original, encoding="utf-8")
    assert sum(outcomes.values()) > 1450
    assert read_wrong_kind == []
    assert read_rebuilt == []
