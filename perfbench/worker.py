"""Benchmark child process for one workload.

``worker.py probe CONFIG`` times one set-up: importing taxoforge and loading
the config. ``worker.py sample`` times a fixed chunk of work every
``PAUSE_S`` until its standard input closes, and prints the samples: the
speed of its processor while the other children run (see run.py).
``--cpus 0,1`` before the mode pins the process to those processors.
``worker.py run ...`` times `pipeline.run`; ``worker.py chain ...`` times
the phase-by-phase chain classify -> emit over the artifacts a `run` left.
Both repeat the operation in a closed loop with one client until
``--seconds`` of operation time have passed, and print one JSON line with
per-operation start and end times, output bytes, export digests and the
process's peak RSS. ``run --trace-file PATH`` runs one untraced and
one traced operation instead, adds the per-layer figures and writes the
spans to PATH. Only the standard library is imported before the timed
import of taxoforge.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

from tracing import PHASES, Tracer

# Exports whose content must not change; JSON ones are hashed without the
# config checksums, which hash input paths.
DIGESTED = (
    "framework.json",
    "framework_document.json",
    "framework.md",
    "validation.json",
    "classification_report.csv",
    "assignments_report.csv",
    "placements_report.csv",
)
CHECKSUM_KEYS = ("config_checksum", "config_checksums")
# Artifacts the chained phases read but do not write.
UPSTREAM = ("integrated.json", "similarity.json")
# Artifacts whose size is reported per file in the traced run; the matrix
# file is reported as similarity.json_bytes.
ARTIFACT_FILES = (
    "integrated.json",
    "classification.json",
    "classification_report.csv",
    "assignments.json",
    "assignments_report.csv",
    "placements.json",
    "placements_report.csv",
    "indicators.json",
) + DIGESTED[:4]


def _strip(doc):
    if isinstance(doc, dict):
        return {k: _strip(v) for k, v in doc.items() if k not in CHECKSUM_KEYS}
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def export_digest(out: Path) -> str:
    combined = hashlib.sha256()
    for name in DIGESTED:
        data = (out / name).read_bytes()
        if name.endswith(".json"):
            doc = _strip(json.loads(data))
            data = json.dumps(doc, ensure_ascii=False, separators=(",", ":")).encode()
        combined.update(f"{name} {hashlib.sha256(data).hexdigest()}\n".encode())
    return combined.hexdigest()


def shape(out: Path) -> dict:
    """Achieved workload shape, read from the artifacts of one operation."""
    integrated = json.loads((out / "integrated.json").read_text(encoding="utf-8"))["data"]
    factors = integrated["factors"]
    classified = json.loads((out / "classification.json").read_text(encoding="utf-8"))
    results = classified["data"]["factors"]
    studies = [
        len({s for ids in f["studies"].values() for s in ids}) for f in factors
    ]
    cross = sum(1 for r in results if r["flagged"])
    return {
        "records": integrated["raw_record_count"],
        "unique_factors": len(factors),
        "records_per_factor": integrated["raw_record_count"] / len(factors),
        "mean_studies_per_factor": sum(studies) / len(studies),
        "cross_cutting": cross,
        "cross_cutting_share": cross / len(results),
        "unmatched": sum(1 for r in results if r["primary_domain"] is None),
    }


def _run_once(operation, out: Path, keep: tuple[str, ...]) -> dict:
    """Clear the outputs, time one operation, then check what it wrote."""
    if out.exists():
        for path in out.iterdir():
            if path.name not in keep:
                path.unlink()
    start = time.perf_counter()
    try:
        status = operation()
    except Exception:  # an operation that raises counts as failed, not fatal
        traceback.print_exc()
        status = 1
    end = time.perf_counter()
    sizes = {p.name: p.stat().st_size for p in out.iterdir()} if out.exists() else {}
    record = {
        "start": start,
        "end": end,
        "run_s": end - start,
        "status": status,
        "out_bytes": sum(size for name, size in sizes.items() if name not in keep),
        "sizes": sizes,
        "passed": False,
        "digest": None,
    }
    if status == 0:
        try:
            validation = json.loads((out / "validation.json").read_text(encoding="utf-8"))
            record["passed"] = validation["passed"] is True
            record["digest"] = export_digest(out)
        except (OSError, ValueError, KeyError):
            traceback.print_exc()
    return record


def probe(config_path: Path) -> dict:
    start = time.perf_counter()
    from taxoforge import pipeline

    pipeline.load_config(config_path)
    return {"start": start, "end": time.perf_counter()}


PAUSE_S = 0.2
# The nested document for the chunk's JSON round trips.
_DOC = {f"k{i}": {"name": f"factor {i}", "values": [i, i * 0.5, str(i)]} for i in range(600)}


def _chunk() -> None:
    """Fixed work of the kinds taxoforge does, in about equal parts: dict
    counting, string normalization with a sort, and JSON round trips. The
    mix follows the machine's slow spells more closely than any one part
    alone (see README.md, Noise)."""
    counts: dict[str, int] = {}
    for i in range(10_000):
        key = str(i * 7919 % 1009)
        counts[key] = counts.get(key, 0) + i
    table: dict[str, int] = {}
    for i in range(2_400):
        key = f"  Word{i * 7919 % 100003}-x ".strip().lower().replace("-", " ")
        table[key] = table.get(key, 0) + len(key.split())
    sorted(table.items())
    for _ in range(2):
        json.loads(json.dumps(_DOC))


def sample() -> dict:
    """[start, end, CPU seconds] of one chunk every PAUSE_S until stdin closes.

    CPU time of the chunk, not its wall time, so that the chunk waiting for a
    processor the benchmarked child holds does not read as a slow machine.
    """
    samples = []
    while not select.select([sys.stdin], [], [], PAUSE_S)[0]:
        start, cpu = time.perf_counter(), time.thread_time()
        _chunk()
        samples.append([start, time.perf_counter(), time.thread_time() - cpu])
    return {"samples": samples}


def operations(args: argparse.Namespace) -> dict:
    from taxoforge import pipeline

    config = pipeline.load_config(args.config)
    if args.mode == "chain":
        # The documented phase-by-phase path at jobs=1, each phase re-reading
        # its upstream artifacts as left by a `run`.
        config = replace(config, jobs=1)

        def operation() -> int:
            pipeline.phase_classify(config)
            pipeline.phase_cluster(config)
            pipeline.phase_place(config)
            pipeline.phase_indicate(config)
            return pipeline.phase_emit(config)

        keep = UPSTREAM
    else:

        def operation() -> int:
            return pipeline.run(config)

        keep = ()

    out = config.out_dir
    report: dict = {}
    ops = []
    if args.trace_file:
        tracer = Tracer()
        ops.append(_run_once(operation, out, keep))
        tracer.install()
        ops.append(_run_once(operation, out, keep))
        tracer.uninstall()
        if ops[1]["status"] == 0:
            report["layers"] = layer_metrics(tracer, config, ops[0], ops[1])
        args.trace_file.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    else:
        spent = 0.0
        while spent < args.seconds:
            ops.append(_run_once(operation, out, keep))
            spent += ops[-1]["run_s"]
            if ops[-1]["status"] != 0:
                break  # the invocation is already incorrect
    report["ops"] = ops
    if args.mode == "run" and ops[-1]["status"] == 0:
        report["shape"] = shape(out)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return report


def layer_metrics(tracer, config, untraced: dict, traced: dict) -> dict:
    """Per-layer figures of the traced operation, named by module."""
    from taxoforge import similarity

    total, own = tracer.layer_times()
    counts, results, pairs = tracer.counts, tracer.results, tracer.relevance_pairs
    t = config.thresholds
    m: dict[str, float] = {}

    def seconds(layer: str) -> float:
        return total.get(layer, 0.0)

    m["corpus.load_s"] = seconds("corpus.load")
    m["corpus.records"] = counts.get("corpus.records", 0)
    factor_set = results["integrate.fold"]
    m["integrate.fold_s"] = seconds("integrate.fold")
    m["integrate.factors"] = factor_set.unique_count
    m["integrate.records_per_factor"] = factor_set.raw_record_count / factor_set.unique_count
    m["integrate.mean_studies_per_factor"] = sum(
        len(f.all_studies) for f in factor_set.factors
    ) / factor_set.unique_count
    m["knowledge.load_s"] = seconds("knowledge.load")
    m["knowledge.loads"] = counts.get("knowledge.load.calls", 0)
    m["similarity.build_s"] = seconds("similarity.build")
    m["similarity.pairs"] = similarity.pair_count(factor_set.unique_count)
    m["similarity.pairs_per_s"] = m["similarity.pairs"] / m["similarity.build_s"]
    m["similarity.to_dict_s"] = seconds("similarity.to_dict")
    m["similarity.json_bytes"] = traced["sizes"].get("similarity.json", 0)
    m["similarity.from_dict_s"] = seconds("similarity.from_dict")
    # Scores only; the per-pair components are not needed to band them.
    doc = json.loads((config.out_dir / "similarity.json").read_text(encoding="utf-8"))
    matrix = similarity.SimilarityMatrix(
        names=tuple(doc["data"]["names"]),
        scores=doc["data"]["scores"],
        components={},
        weights=similarity.SimilarityWeights(*doc["data"]["weights"]),
    )
    del doc
    census = similarity.band_census(matrix, t.band_high, t.band_low)
    m["similarity.band_high"] = census.high
    m["similarity.band_moderate"] = census.moderate
    m["similarity.band_low"] = census.low
    classified = results["classify.classify"]
    m["classify.classify_s"] = seconds("classify.classify")
    m["classify.cross_cutting"] = sum(1 for r in classified if r.cross_cutting.flagged)
    m["classify.unmatched"] = sum(1 for r in classified if r.primary_domain is None)
    m["relevance.calls"] = counts.get("relevance.calls", 0)
    m["relevance.distinct"] = len(pairs)
    m["relevance.useful_ratio"] = len(pairs) / max(1, m["relevance.calls"])
    m["cluster.assign_s"] = seconds("cluster.assign")
    m["cluster.related_scans"] = counts.get("cluster.related_scans", 0)
    m["cluster.subclusters"] = counts.get("cluster.subclusters", 0)
    m["cluster.best_subcategory_calls"] = counts.get("cluster.best_subcategory_calls", 0)
    placed = results["placement.place"]
    m["placement.place_s"] = seconds("placement.place")
    m["placement.placements"] = len(placed.placements)
    m["placement.cross_refs"] = len(placed.cross_references)
    m["applicability.indicate_s"] = seconds("applicability.indicate")
    m["emit.build_s"] = seconds("emit.build")
    m["emit.validate_s"] = seconds("emit.validate")
    m["emit.export_s"] = seconds("emit.export")
    for phase in PHASES:
        m[f"phase.{phase}_s"] = seconds(f"phase.{phase}")
        m[f"phase.{phase}.self_s"] = own.get(f"phase.{phase}", 0.0)
    m["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
    for name in ARTIFACT_FILES:
        m[f"bytes.{name}"] = traced["sizes"].get(name, 0)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpus", help="comma-separated processors to run on")
    sub = parser.add_subparsers(dest="mode", required=True)
    probe_parser = sub.add_parser("probe")
    probe_parser.add_argument("config", type=Path)
    sub.add_parser("sample")
    run_parser, chain_parser = sub.add_parser("run"), sub.add_parser("chain")
    for ops_parser in (run_parser, chain_parser):
        ops_parser.add_argument("--config", type=Path, required=True)
        ops_parser.add_argument("--seconds", type=float, required=True)
    run_parser.add_argument("--trace-file", type=Path)
    chain_parser.set_defaults(trace_file=None)
    args = parser.parse_args(argv)
    if args.cpus:
        os.sched_setaffinity(0, {int(cpu) for cpu in args.cpus.split(",")})
    if args.mode == "probe":
        report = probe(args.config)
    elif args.mode == "sample":
        report = sample()
    else:
        report = operations(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
