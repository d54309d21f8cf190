"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

They check the benchmark, not condfix: seeded inputs, the span tracer's
self time, how failed ops are counted, and that ``BENCHMARK.json`` lists
exactly the metrics the runner prints.
"""
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, covered, layer_totals, self_times  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return workloads.import_condfix()


def _inputs(api, cls, seed, workdir, count=6):
    workload = cls(api, seed, workdir)
    groups = workload.groups()
    return "\n".join(workload.describe(next(groups)) for _ in range(count)).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_other_seed_other_inputs(api, tmp_path, name):
    cls = workloads.WORKLOADS[name]
    first = _inputs(api, cls, 7, tmp_path)
    assert _inputs(api, cls, 7, tmp_path) == first
    assert _inputs(api, cls, 8, tmp_path) != first


def test_diverge_inputs_are_never_repeated(api):
    groups = workloads.Diverge(api, 3, None).groups()
    texts = [next(groups).describe() for _ in range(200)]
    assert len(set(texts)) == len(texts)


def test_self_time_on_a_hand_built_span_tree():
    # op [0, 10] > repair [1, 9] > execute [2, 4], execute [3, 6], solve [7, 8]
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("repair", 1.0, 9.0, 0, 0),
        Span("execute", 2.0, 4.0, 1, 0),
        Span("execute", 3.0, 6.0, 1, 0),  # overlaps its sibling: counted once
        Span("solve", 7.0, 8.0, 1, 0),
    ]
    assert self_times(spans) == [2.0, 3.0, 2.0, 3.0, 1.0]
    totals = layer_totals(spans)
    assert totals["execute"]["calls"] == 2
    assert totals["execute"]["self_s"] == 5.0
    assert totals["repair"]["total_s"] == 8.0
    assert covered(0.0, 5.0, [(-1.0, 1.0), (4.0, 9.0)]) == 2.0


def test_tracer_records_only_inside_ops_and_restores_names():
    module = type("module", (), {})()
    module.work = lambda n: n * 2
    original = module.work
    tracer = Tracer()
    tracer.patch(module, "work", "work", lambda span, args, kwargs, result: span.counts.update(n=args[0]))
    assert module.work(1) == 2 and tracer.spans == []
    tracer.begin_op(5)
    assert module.work(3) == 6
    tracer.end_op()
    tracer.unpatch()
    assert module.work is original
    op, work = tracer.spans
    assert (op.name, op.parent, work.name, work.parent, work.op) == ("op", None, "work", 0, 5)
    assert work.counts == {"n": 3}
    assert op.start <= work.start <= work.end <= op.end


def test_raising_op_is_a_failed_op_with_its_type_name():
    recorder = workloads.Recorder(workloads.Clock())

    def boom():
        raise ValueError("no")

    assert recorder.op(boom, lambda value: None) is None
    assert recorder.op(lambda: 1, lambda value: "wrong") is None
    assert recorder.op(lambda: 2, lambda value: None) == 2
    recorder.finish()
    assert (recorder.attempted, recorder.failed) == (3, 2)
    assert recorder.errors == {"ValueError": 1}
    assert recorder.violations == ["wrong"]
    assert len(recorder.latencies) == 1 and recorder.op_seconds > 0


def test_fact_template_is_a_failed_op_not_a_crash(api):
    diverge = workloads.Diverge(api, 1, None)
    item = workloads.fact_input(random.Random(1))
    recorder = workloads.Recorder(workloads.Clock())
    recorder.op(diverge._repair, lambda result: diverge._check(item, result), item)
    recorder.finish()
    assert recorder.attempted == 1
    if recorder.failed:
        # Forcing the base case to false recurses without bound, and today
        # repair() lets the RecursionError out; the op absorbs it.
        assert recorder.errors == {"RecursionError": 1}, recorder.violations
    else:
        # Once recursion depth is bounded, the repair must end without a patch.
        assert recorder.latencies


def test_wrong_sat_model_breaks_the_ladder_check(api):
    ladder = workloads.SynthLadder(api, 2, None)
    groups = ladder.groups()
    for _ in range(100):
        matrix = next(groups)
        solved = ladder._solve(matrix, 1)
        problem, result, expr = solved
        if result.is_sat and not matrix.degenerate:
            break
    else:
        pytest.fail("no non-degenerate level-1 sat matrix in 100")
    assert ladder._check(matrix, solved) is None
    model = dict(result.model)
    model["l_result"] = model["l_result"] + 1
    assert ladder._check(matrix, (problem, type(result)(result.status, model), expr))


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert spec["per_layer"] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
