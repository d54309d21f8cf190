"""condfix benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; condfix is imported from ``src/`` there.
With ``--trace 0`` the run measures the workload untraced for ``--seconds``
and reports the end-to-end metrics. With ``--trace 1`` it runs a fixed
number of op groups twice, untraced and then traced, and reports the
per-layer metrics; the spans go to ``.bench_build/perfbench/``. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when any
correctness check failed and 2 when the checkout has no condfix sources.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads
from tracer import Tracer, layer_totals

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 15
MAX_WALL_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


def measure(workload, recorder, groups: int) -> None:
    """Run the workload's first ``groups`` op groups, or as many as fit in
    MAX_WALL_S on a host or commit so slow that the run would overrun."""
    start = time.perf_counter()
    for count, group in enumerate(workload.groups(), start=1):
        workload.run_group(recorder, group)
        if count >= groups:
            break
        if time.perf_counter() - start >= MAX_WALL_S:
            print(f"warning: stopped after {count} of {groups} groups at the "
                  f"{MAX_WALL_S:.0f} s wall limit", file=sys.stderr)
            break
    recorder.finish()


def set_up(cls, seed: int, workdir: Path, clock):
    """Import condfix and build the workload SETUP_REPEATS times; return the
    last modules and workload and the median set-up seconds."""
    timings = []
    for _ in range(SETUP_REPEATS):
        mark = clock.mark()
        start = time.process_time()
        api = workloads.import_condfix()
        workload = cls(api, seed, workdir)
        timings.append((time.process_time() - start, mark))
    clock.mark()
    return api, workload, statistics.median(cpu_s * clock.scale(mark) for cpu_s, mark in timings)


def end_to_end(recorder, setup_s: float) -> dict:
    latencies = recorder.latencies
    if not latencies:
        raise SystemExit(f"error: all {recorder.attempted} ops failed")
    if len(latencies) < 200:
        print(f"warning: only {len(latencies)} successful ops; p95 has fewer than "
              "10 samples beyond it", file=sys.stderr)
    p95 = statistics.quantiles(latencies, n=20)[18] if len(latencies) > 1 else latencies[0]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / recorder.op_seconds,
        "op_ms_p50": statistics.median(latencies) * 1000,
        "op_ms_p95": p95 * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(cls, api, seed: int, workdir: Path, clock):
    """The same op groups untraced, then traced; per-layer metrics and both
    recorders."""
    untraced = workloads.Recorder(clock)
    measure(cls(api, seed, workdir), untraced, groups=cls.traced_groups)
    tracer = Tracer()
    traced = workloads.Recorder(clock, tracer)
    workload = cls(api, seed, workdir)
    layers.install(tracer, api)
    try:
        measure(workload, traced, groups=cls.traced_groups)
    finally:
        tracer.unpatch()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{cls.name}-seed{seed}.jsonl")
    metrics = layers.per_layer_metrics(
        layer_totals(tracer.spans), untraced.op_seconds, traced.op_seconds
    )
    return metrics, (untraced, traced)


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """One run; returns (metrics with units, recorders whose ops count)."""
    cls = workloads.WORKLOADS[name]
    clock = workloads.Clock()
    api, workload, setup_s = set_up(cls, seed, workdir, clock)
    if trace:
        values, recorders = per_layer(cls, api, seed, workdir, clock)
        units = {spec["name"]: spec["unit"] for spec in layers.PER_LAYER}
    else:
        recorder = workloads.Recorder(clock)
        measure(workload, recorder, groups=max(1, round(seconds * cls.groups_per_second)))
        values, recorders = end_to_end(recorder, setup_s), (recorder,)
        units = END_TO_END
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, recorders


def report(title: str, metrics: dict, recorders) -> None:
    print(f"== {title}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    for recorder in recorders:
        for error, count in sorted(recorder.errors.items()):
            print(f"  failed ops raising {error}: {count}")
        for violation in recorder.violations:
            print(f"  CHECK FAILED: {violation}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "condfix" / "__init__.py").is_file():
        print(f"error: no condfix sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    runs = (
        [(name, trace) for name in workloads.WORKLOADS for trace in (False, True)]
        if args.workload == "all" else [(args.workload, bool(args.trace))]
    )
    metrics, recorders = {}, []
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build"))
    try:
        for name, trace in runs:
            found, used = run_workload(name, args.seed, args.seconds, trace, workdir)
            report(f"{name} ({'traced' if trace else 'untraced'}, seed {args.seed})", found, used)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in found.items()})
            recorders.extend(used)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not any(r.violations for r in recorders)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in recorders),
        "failed": sum(r.failed for r in recorders),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
