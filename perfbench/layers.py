"""The condfix layers the traced run observes, and its per-layer metrics.

``install`` wraps the public names that ``condfix.pipeline``,
``condfix.corpus``, ``condfix.angelic``, ``condfix.trace`` and
``condfix.testkit`` import, in every module that calls them, plus the
``condfix.minilang`` and ``condfix.synth`` names the benchmark itself calls.
Solver node counts are not visible from outside the solver, so no metric
reports them.
"""
from __future__ import annotations

from typing import Dict, List

from tracer import Span, Tracer

# Metric name -> (numerator, denominator) of a ratio of summed counters.
_RATIOS = {
    "minilang.execute.steps_per_s": ("minilang.execute", "steps", "total_s"),
    "angelic.found_ratio": ("angelic", "found", "calls"),
    "trace.deduplicate.dedup_ratio": ("trace.deduplicate", "rows_out", "rows_in"),
    "pipeline.validate.ok_ratio": ("pipeline.validate", "ok", "calls"),
}

_NAMES = [
    "minilang.execute.calls", "minilang.execute.self_s", "minilang.execute.steps",
    "minilang.execute.steps_per_s", "minilang.execute.budget_exhausted",
    "minilang.parse_program.calls", "minilang.parse_program.self_s",
    "testkit.run_suite.calls", "testkit.run_suite.self_s",
    "faultloc.build_spectrum.calls", "faultloc.build_spectrum.self_s",
    "corpus.check_equivalence.calls", "corpus.check_equivalence.self_s",
    "corpus.check_equivalence.grid_points",
    "angelic.calls", "angelic.self_s", "angelic.trials", "angelic.found_ratio",
    "angelic.budget_exhausted",
    "trace.collect.calls", "trace.collect.self_s",
    "trace.deduplicate.rows_in", "trace.deduplicate.rows_out",
    "trace.deduplicate.dedup_ratio", "trace.deduplicate.columns",
    "trace.deduplicate.conflicting", "trace.deduplicate.degenerate",
    "synth.encode.self_s",
    *(f"synth.solve.l{level}.{key}" for level in (1, 2, 3, 4)
      for key in ("calls", "self_s", "sat", "unsat", "timeout")),
    "synth.decode.self_s",
    "pipeline.repair.calls", "pipeline.repair.self_s", "pipeline.repair.locations_tried",
    "pipeline.validate.calls", "pipeline.validate.self_s", "pipeline.validate.ok_ratio",
    "op.self_s", "tracer.overhead_s", "tracer.overhead_share",
]

_UNITS = {
    "self_s": "s", "overhead_s": "s", "steps_per_s": "steps/s",
    "found_ratio": "ratio", "dedup_ratio": "ratio", "ok_ratio": "ratio",
    "overhead_share": "ratio",
}
_HIGHER = {"steps_per_s", "found_ratio", "ok_ratio", "sat", "unsat"}


def _spec(name: str) -> Dict[str, str]:
    key = name.rsplit(".", 1)[1]
    return {
        "name": name,
        "unit": _UNITS.get(key, "count"),
        "better": "higher" if key in _HIGHER else "lower",
    }


PER_LAYER: List[Dict[str, str]] = [_spec(name) for name in _NAMES]


def install(tracer: Tracer, api) -> None:
    """Wrap every traced condfix name; ``tracer.unpatch()`` undoes it."""
    levels: Dict[int, int] = {}  # id(problem) -> ladder level of its encode

    def on_execute(span: Span, args, kwargs, result) -> None:
        span.counts["steps"] = result.steps
        span.counts["budget_exhausted"] = int(result.timed_out)

    def on_equivalence(span: Span, args, kwargs, result) -> None:
        grid = args[3] if len(args) > 3 else kwargs["grid"]
        span.counts["grid_points"] = grid.size()

    def on_angelic(span: Span, args, kwargs, result) -> None:
        span.counts["trials"] = len(result.trials)
        span.counts["found"] = int(result.found)
        span.counts["budget_exhausted"] = int(result.reason == api.angelic.BUDGET_EXHAUSTED)

    def on_deduplicate(span: Span, args, kwargs, result) -> None:
        span.counts["rows_in"] = len(args[0].rows)
        span.counts["rows_out"] = len(result.rows)
        span.counts["columns"] = len(result.columns)
        span.counts["conflicting"] = int(result.conflicting)
        span.counts["degenerate"] = int(result.degenerate)

    def on_encode(span: Span, args, kwargs, result) -> None:
        levels[id(result)] = args[1] if len(args) > 1 else kwargs["level"]

    def on_solve(span: Span, args, kwargs, result) -> None:
        problem = args[0] if args else kwargs["problem"]
        span.name = f"synth.solve.l{levels.pop(id(problem), 0)}"
        span.counts[result.status] = 1

    def on_repair(span: Span, args, kwargs, result) -> None:
        span.counts["locations_tried"] = len(result.trials)

    def on_validate(span: Span, args, kwargs, result) -> None:
        span.counts["ok"] = int(bool(result))

    for module in (api.angelic, api.trace, api.testkit, api.corpus):
        tracer.patch(module, "execute", "minilang.execute", on_execute)
    for module in (api.minilang, api.corpus):
        tracer.patch(module, "parse_program", "minilang.parse_program")
    for module in (api.pipeline, api.corpus):
        tracer.patch(module, "run_suite", "testkit.run_suite")
        tracer.patch(module, "build_spectrum", "faultloc.build_spectrum")
        tracer.patch(module, "repair", "pipeline.repair", on_repair)
        tracer.patch(module, "validate", "pipeline.validate", on_validate)
    tracer.patch(api.corpus, "check_equivalence", "corpus.check_equivalence", on_equivalence)
    for attr in ("angelic_condition", "angelic_precondition"):
        tracer.patch(api.pipeline, attr, "angelic", on_angelic)
    tracer.patch(api.pipeline, "collect", "trace.collect")
    tracer.patch(api.pipeline, "deduplicate", "trace.deduplicate", on_deduplicate)
    for module in (api.pipeline, api.synth):
        tracer.patch(module, "encode", "synth.encode", on_encode)
        tracer.patch(module, "solve", "synth.solve", on_solve)
        tracer.patch(module, "decode", "synth.decode")


def per_layer_metrics(
    totals: Dict[str, Dict[str, float]], untraced_s: float, traced_s: float
) -> Dict[str, float]:
    """Every PER_LAYER metric from the traced run's layer totals and the op
    seconds of the same ops run without and with tracing."""
    def ratio(span: str, num: str, den: str) -> float:
        entry = totals.get(span, {})
        return entry.get(num, 0.0) / entry[den] if entry.get(den) else 0.0

    values: Dict[str, float] = {}
    for name in _NAMES:
        span, key = name.rsplit(".", 1)
        if name in _RATIOS:
            values[name] = ratio(*_RATIOS[name])
        else:
            values[name] = totals.get(span, {}).get(key, 0.0)
    values["tracer.overhead_s"] = traced_s - untraced_s
    values["tracer.overhead_share"] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
    return values

