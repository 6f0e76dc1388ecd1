"""The benchmark's readers still work on the program's output.

``perfbench/`` wraps named taxoforge functions (``tracing.py``) and reads the
artifacts and result objects of a run (``worker.py``). This runs the worker's
traced ``run`` and its phase chain on the fixture corpus, so a renamed traced
function, a dropped artifact key or result field, or a per-layer metric that
no longer matches ``BENCHMARK.json`` fails here rather than in the benchmark.
The perfbench files are imported, never changed.
"""

from __future__ import annotations

import argparse
import importlib
import json
from pathlib import Path

import pytest

from tests.conftest import FIXTURES, REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("worker")


def _operations(worker, mode: str, config: Path, trace_file: Path | None) -> dict:
    args = argparse.Namespace(
        mode=mode, config=config, trace_file=trace_file, seconds=1e-9
    )
    return worker.operations(args)


def test_traced_run_and_chain_read_back(worker, tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(
        f"datasets:\n  - {FIXTURES / 'sample_corpus.csv'}\nout: out\n",
        encoding="utf-8",
    )
    trace_file = tmp_path / "trace.json"

    run = _operations(worker, "run", config, trace_file)
    untraced, traced = run["ops"]
    for op in (untraced, traced):
        assert op["status"] == 0 and op["passed"] is True
    assert traced["digest"] == untraced["digest"]
    assert traced["digest"] == worker.export_digest(tmp_path / "out")

    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(run["layers"]) == {m["name"] for m in benchmark["per_layer"]}
    assert run["layers"]["integrate.factors"] == 11
    assert run["layers"]["knowledge.loads"] == 3
    assert run["shape"]["unique_factors"] == 11
    assert run["shape"]["records"] == 35

    trace = json.loads(trace_file.read_text(encoding="utf-8"))
    spans = {span[0] for span in trace["spans"]}
    assert {f"phase.{phase}" for phase in worker.PHASES} <= spans

    chain = _operations(worker, "chain", config, None)
    (op,) = chain["ops"]
    assert op["status"] == 0 and op["passed"] is True
    assert op["digest"] == traced["digest"]
