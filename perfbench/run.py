"""Benchmark for taxoforge's `run`: one seeded workload per invocation.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 10 --trace 0

The inputs are generated from the seed (see gen.py) into perfbench/_work and
removed afterwards. Set-up is timed in separate probe processes. `run` is
timed in one fresh child process (worker.py), then the phase-by-phase chain
over its artifacts in another, one operation at a time. Each child is pinned
to as many processors as its jobs setting uses. On each of those processors
a sampler child times a fixed chunk of work throughout, and every time is
rescaled by the speed of its processors during it (see README.md, Noise).
Every operation's
exports are checked: exit status 0, validation passed, and a digest equal to
the first `run`'s and, for the recorded seed, to digests.json. With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of one traced
`run` instead. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("paper", "ingest", "rich-kb")
PROBES = 9
# CPU seconds of the sampler's chunk at the reference speed: the usual
# speed of the 2-vCPU Xeon VM that README.md's figures come from.
REF_CHUNK_S = 0.012
DEADLINE_S = 170.0  # every invocation must end within 180 s


class ChildFailed(Exception):
    pass


def _worker(argv: list[str], cpus: list[int], **kwargs) -> subprocess.Popen:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    pin = ["--cpus", ",".join(map(str, cpus))]
    return subprocess.Popen([sys.executable, str(HERE / "worker.py"), *pin, *argv],
                            env=dict(os.environ, PYTHONPATH=path), text=True, **kwargs)


def _child(argv: list[str], cpus: list[int], timeout: float) -> dict:
    """Run worker.py on ``cpus`` to completion and return its JSON report."""
    with _worker(argv, cpus, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    sys.stderr.write(err[-4000:])
    if proc.returncode != 0:
        raise ChildFailed(f"worker {argv[0]} exited with status {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def _chunk_s(interval: dict, samples: list[list[float]]) -> float:
    """Mean CPU time of one sampler's chunks run inside the interval, or of
    the five nearest ones when fewer ran inside."""
    start, end = interval["start"], interval["end"]
    inside = [cpu for s, e, cpu in samples if start <= s and e <= end]
    if len(inside) < 5:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda x: abs((x[0] + x[1]) / 2 - middle))
        inside = [cpu for _, _, cpu in nearest[:5]]
    return statistics.fmean(inside)


def _scaled(interval: dict, samples: dict[int, list], cpus: list[int]) -> float:
    """Seconds of an interval, rescaled to the reference machine speed.

    The speed is the mean chunk time of the samplers on the processors the
    interval's child was pinned to.
    """
    chunk = statistics.fmean(_chunk_s(interval, samples[cpu]) for cpu in cpus)
    return (interval["end"] - interval["start"]) * REF_CHUNK_S / chunk


def _expected_digest(workload: str, seed: int) -> str | None:
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return recorded["digests"].get(workload) if seed == recorded["seed"] else None


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for one of BENCHMARK.json's metric lists."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _failures(reports: list[dict], expected: str | None) -> int:
    """Operations whose exports fail a check.

    Every operation, `run` or chained, must exit 0, pass validation and
    produce the same export digest as the first `run`; with the recorded
    seed that digest must also equal the recorded one.
    """
    wanted = expected or reports[0]["ops"][0]["digest"]
    failed = 0
    for report in reports:
        for op in report["ops"]:
            if op["status"] != 0 or not op["passed"] or op["digest"] != wanted:
                failed += 1
                print(f"failed operation: status={op['status']} "
                      f"passed={op['passed']} digest={op['digest']} wanted={wanted}")
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "taxoforge" / "pipeline.py").is_file():
        print(f"perfbench: no taxoforge sources under {SRC}", file=sys.stderr)
        return 2
    units = _units("per_layer" if args.trace else "end_to_end")

    started = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    runs = HERE / "_work"
    work = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with this pid
    samplers: dict[int, subprocess.Popen] = {}
    try:
        inputs = gen.generate(args.workload, work, args.seed)
        config = ["--config", str(work / "config.yaml")]
        # The processors `run` may use, one per job; the chain and set-up
        # use the last of them. Their speed varies apart (see README.md).
        cpus = sorted(os.sched_getaffinity(0))
        run_cpus = cpus[-inputs["jobs"]:]
        one_cpu = run_cpus[-1:]
        if args.trace:
            trace_file = runs / f"trace-{args.workload}-{args.seed}.json"
            run = _child(["run", *config, "--seconds", "0",
                          "--trace-file", str(trace_file)], run_cpus, remaining())
            reports = [run]
        else:
            for cpu in run_cpus:
                samplers[cpu] = _worker(["sample"], [cpu], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE)
            probes = [_child(["probe", config[1]], one_cpu, remaining())
                      for _ in range(PROBES)]
            run = _child(["run", *config, "--seconds", str(args.seconds)],
                         run_cpus, remaining())
            chain = _child(["chain", *config, "--seconds", str(args.seconds)],
                           one_cpu, remaining())
            reports = [run, chain]
            samples = {cpu: json.loads(sampler.communicate(timeout=10)[0])["samples"]
                       for cpu, sampler in samplers.items()}
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for sampler in samplers.values():
            if sampler.poll() is None:
                sampler.kill()
            sampler.wait()
        shutil.rmtree(work, ignore_errors=True)

    failed = _failures(reports, _expected_digest(args.workload, args.seed))
    attempted = sum(len(report["ops"]) for report in reports)
    shape = {**inputs, **run.get("shape", {})}
    print(f"workload {args.workload}, seed {args.seed}")
    print("shape: " + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                for k, v in shape.items()))
    print(f"export digest: {run['ops'][0]['digest']}")
    if args.trace:
        values = run.get("layers", {})
    else:
        timed = {"run_s": (run["ops"], run_cpus), "chain_s": (chain["ops"], one_cpu),
                 "setup_s": (probes, one_cpu)}
        values = {name: statistics.median(_scaled(i, samples, on) for i in intervals)
                  for name, (intervals, on) in timed.items()}
        values["peak_rss_mb"] = run["peak_rss_mb"]
        values["chain_peak_rss_mb"] = chain["peak_rss_mb"]
        values["out_bytes"] = statistics.median(op["out_bytes"] for op in run["ops"])
        for name, (intervals, _) in timed.items():
            wall = [i["end"] - i["start"] for i in intervals]
            print(f"{name} samples: {len(wall)}, wall median {statistics.median(wall):.4f} s, "
                  f"min {min(wall):.4f} s (no tail percentile below ten samples)")
        for cpu, chunks in samples.items():
            speed = statistics.fmean(c for _, _, c in chunks) / REF_CHUNK_S
            print(f"processor {cpu} slowdown against the reference: {speed:.3f} "
                  f"over {len(chunks)} sampler chunks")
    missing = [name for name in units if name not in values]
    if missing and failed == 0:
        print(f"perfbench: no figure for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"failed_share: {failed / attempted:.3g} ({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
