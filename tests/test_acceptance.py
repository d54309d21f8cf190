"""Acceptance criteria for the repair engine.

Each test implements one criterion end to end at its stated tolerance and
prints one PASS line on success (pytest -s shows them; a failure shows up
as a normal test failure). Everything runs on the built-in deterministic
solver backend.
"""
import random

from condfix.corpus import (
    builtin_seeded_bundles, default_corpus_dir, load_bundle, load_corpus,
    run_harness,
)
from condfix.faultloc import (
    METRICS, Spectrum, all_scores, suspiciousness, wasted_effort_from_scores,
)
from condfix.minilang import SKIP, decide, execute
from condfix.pipeline import RepairConfig
from condfix.synth import (
    Component, decode, encode, encode_with_components, evaluate, solve,
    to_source,
)
from condfix.testkit import verdict_holds
from condfix.trace import ColumnSpec, TraceMatrix, TraceRow, deduplicate
from enumeration_oracle import enumerate_oracle

FIXABLE_PORTS = ("cm1", "cm2", "cm5", "cl4", "pl4", "pm2")
GRID_PORTS = ("cm5", "cl4", "pl4", "pm2")
PER_BUNDLE_TIME_LIMIT = 60.0

_INT_VALUES = list(range(-8, 9))
_REAL_VALUES = [-2.5, -0.5, 0.0, 0.5, 1.5, 3.25]


def _harness_config():
    return RepairConfig()


def _random_matrix(rng, max_cols=6, max_rows=20, force_numeric=False):
    n_cols = rng.randint(1, max_cols)
    columns = []
    for i in range(n_cols):
        type_ = rng.choices(["int", "bool", "real"], weights=[6, 3, 1])[0]
        if force_numeric and i == 0:
            type_ = "int"
        columns.append(ColumnSpec(f"c{i}", type_, "var", var=f"c{i}"))
    rows = []
    for r in range(rng.randint(2, max_rows)):
        inputs = []
        for col in columns:
            if col.type == "int":
                inputs.append(rng.choice(_INT_VALUES))
            elif col.type == "real":
                inputs.append(rng.choice(_REAL_VALUES))
            else:
                inputs.append(rng.random() < 0.5)
        rows.append(TraceRow(f"t{r}", 0, tuple(inputs), rng.random() < 0.5))
    return TraceMatrix(1, "condition", columns, rows)


def test_criterion_01_corpus_repairability():
    """The six fixable paper-port bundles all yield validated patches,
    each within the per-bundle wall-time limit."""
    bundles = [load_bundle(default_corpus_dir() / name) for name in FIXABLE_PORTS]
    report = run_harness(bundles, _harness_config())
    by_id = {row.id: row for row in report.rows}
    for name in FIXABLE_PORTS:
        row = by_id[name]
        assert row.outcome == "patched", f"{name}: {row.outcome} ({row.reason})"
        assert row.wall_time < PER_BUNDLE_TIME_LIMIT, f"{name}: {row.wall_time:.1f}s"
    print("\nCRITERION 1 PASS: 6/6 fixable ports patched, all under "
          f"{PER_BUNDLE_TIME_LIMIT:.0f}s")


def test_criterion_02_limitation_fidelity():
    """The two limitation probes terminate with the documented reasons."""
    config = _harness_config()
    pm1 = run_harness([load_bundle(default_corpus_dir() / "pm1")], config).rows[0]
    assert pm1.outcome == "no-patch"
    assert pm1.reason == "no-angelic-value", pm1.reason
    pl3 = run_harness([load_bundle(default_corpus_dir() / "pl3")], config).rows[0]
    assert pl3.outcome == "no-patch"
    assert pl3.reason in ("conflicting-trace", "synthesis-timeout"), pl3.reason
    print(f"\nCRITERION 2 PASS: pm1 -> {pm1.reason}, pl3 -> {pl3.reason}")


def test_criterion_03_semantic_correctness_on_grids():
    """Synthesized and human patches agree pointwise on every bundle grid
    (>= 500 points; bool/int exact, reals within 1e-9)."""
    bundles = [load_bundle(default_corpus_dir() / name) for name in GRID_PORTS]
    report = run_harness(bundles, _harness_config())
    for row in report.rows:
        assert row.outcome == "patched", row.id
        assert row.grid_equivalent is True, f"{row.id}: grid disagreement"
    sizes = {b.id: b.grid.size() for b in bundles}
    assert all(size >= 500 for size in sizes.values()), sizes
    print(f"\nCRITERION 3 PASS: grid equivalence on {sizes}")


def test_criterion_04_and_06_soundness_and_structural_validity():
    """200 random matrices, levels 1 and 2: every sat model decodes to an
    expression reproducing all rows, and every sat model is structurally
    valid. Zero violations allowed."""
    rng = random.Random(20240817)
    sat_count = 0
    checked = 0
    while checked < 200:
        matrix = deduplicate(_random_matrix(rng))
        if matrix.conflicting:
            continue
        checked += 1
        for level in (1, 2):
            problem = encode(matrix, level)
            # the node budget only caps unsat exhaustion; sat instances are
            # found far below it, and only sat results are constrained here
            result = solve(problem, None, timeout_s=30.0, max_nodes=100_000)
            if not result.is_sat:
                continue
            sat_count += 1
            assert problem.check_model(result.model) == [], \
                f"structural violation at level {level}"
            expr = decode(problem, result.model)
            for row in matrix.rows:
                assert evaluate(expr, matrix.row_values(row)) == row.expected, \
                    f"row mismatch at level {level}: {to_source(expr)}"
    assert sat_count >= 40, f"only {sat_count} sat instances; raise generation odds"
    print(f"\nCRITERION 4 PASS: {sat_count} sat results over 200 matrices, "
          "all row-sound")
    print(f"CRITERION 6 PASS: {sat_count} sat models structurally valid")


def test_criterion_05_oracle_agreement():
    """100 random matrices where the brute-force enumerator finds a level-1
    expression of size <= 5: the solver answers sat at level 1 every time."""
    rng = random.Random(77)
    agreements = 0
    while agreements < 100:
        matrix = _random_matrix(rng, max_cols=5, max_rows=12, force_numeric=True)
        int_cols = [i for i, c in enumerate(matrix.columns) if c.type == "int"]
        if len(int_cols) < 1:
            continue
        # plant a level-1 comparison so the premise holds often
        op = rng.choice(["<", "<=", "==", "!="])
        left = rng.choice(int_cols)
        right = rng.choice(int_cols)
        comparator = Component(op, ("int", "int"), "bool")
        rows = [
            TraceRow(r.test, r.eval_index, r.inputs,
                     bool(comparator.evaluate((r.inputs[left], r.inputs[right]))))
            for r in matrix.rows
        ]
        matrix = TraceMatrix(1, "condition", matrix.columns, rows)
        tree = enumerate_oracle(matrix, 1, 5)
        if tree is None:
            continue
        result = solve(encode(matrix, 1), None, timeout_s=30.0)
        assert result.is_sat, "oracle found an expression but the solver did not"
        agreements += 1
    print("\nCRITERION 5 PASS: 100/100 oracle hits answered sat at level 1")


def test_criterion_07_faultloc_unit_values_and_invariance():
    """Ochiai anchor values, unique-maximum effort, and invariance of the
    effort measure under x -> 2x + 1 for all six metrics."""
    top = Spectrum({1: 1}, {1: 0}, 1, 0)
    assert suspiciousness("ochiai", top, 1) == 1.0
    zero = Spectrum({1: 0}, {1: 3}, 1, 3)
    assert suspiciousness("ochiai", zero, 1) == 0.0
    half = Spectrum({1: 1}, {1: 3}, 1, 3)
    assert abs(suspiciousness("ochiai", half, 1) - 0.5) < 1e-12

    unique_max = Spectrum({1: 2, 2: 1, 3: 0}, {1: 0, 2: 2, 3: 2}, 2, 2)
    scores = all_scores(unique_max, "ochiai")
    assert max(scores, key=scores.get) == 1
    assert wasted_effort_from_scores(scores, 1) == 1

    rng = random.Random(404)
    for _ in range(50):
        locs = list(range(1, 11))
        tf, tp = rng.randint(1, 6), rng.randint(0, 6)
        spectrum = Spectrum(
            {l: rng.randint(0, tf) for l in locs},
            {l: rng.randint(0, tp) for l in locs},
            tf, tp,
        )
        buggy = rng.choice(locs)
        for metric in METRICS:
            base = all_scores(spectrum, metric)
            transformed = {l: 2 * v + 1 for l, v in base.items()}
            assert wasted_effort_from_scores(base, buggy) == \
                wasted_effort_from_scores(transformed, buggy), metric
    print("\nCRITERION 7 PASS: Ochiai anchors exact; effort invariant for "
          "all 6 metrics on 50 random spectra")


def test_criterion_08_running_example_reproduction():
    """The two-component worked example: sat, row-equivalent decode, and
    the exact rendering for the published model."""
    columns = [
        ColumnSpec("i0", "int", "var", var="i0"),
        ColumnSpec("c1", "bool", "var", var="c1"),
        ColumnSpec("c2", "int", "const", const=3),
    ]
    rows = [
        TraceRow("t0", 0, (1, False, 3), True),
        TraceRow("t1", 0, (7, False, 3), True),
        TraceRow("t2", 0, (-2, False, 3), True),
    ]
    matrix = TraceMatrix(1, "condition", columns, rows)
    f1 = Component("!", ("bool",), "bool", label="f1")
    f2 = Component("==", ("int", "int"), "bool", label="f2")
    problem = encode_with_components(matrix, [f1, f2])

    result = solve(problem, None, 10.0)
    assert result.is_sat
    decoded = decode(problem, result.model)
    reference = {"i0": 0, "c1": False, "c2": 3}
    for row in matrix.rows:
        values = matrix.row_values(row)
        assert evaluate(decoded, values) == row.expected

    published = dict(problem.fixed_assignment())
    published["l_out_f1_bool_0"] = 4
    published["l_out_f2_int_int_0"] = 5
    published["l_arg_f1_bool_0_0"] = 2
    published["l_arg_f2_int_int_0_0"] = 1
    published["l_arg_f2_int_int_0_1"] = 1
    assert to_source(decode(problem, published)) == "f2(i0, i0)"
    print("\nCRITERION 8 PASS: running example sat; published model decodes "
          "to f2(i0, i0)")


def test_criterion_09_angelic_soundness_across_corpus():
    """Every angelic tuple logged by the pipeline re-passes its failing
    test when the recorded control is replayed. Zero violations."""
    bundles = load_corpus(default_corpus_dir()) + builtin_seeded_bundles()
    report = run_harness(bundles, _harness_config())
    replayed = 0
    by_id = {b.id: b for b in bundles}
    for row in report.rows:
        if row.report is None:
            continue
        bundle = by_id[row.id]
        program = bundle.program
        tests = {t.id: t for t in bundle.suite}
        for trial in row.report.trials:
            for tup in trial.angelic_tuples:
                test = tests[tup["test"]]
                decision = tup["val"] if trial.kind == "condition" else SKIP
                result = execute(decide(program, tup["loc"], decision), test.function,
                                 list(test.args))
                assert verdict_holds(result, test), (row.id, tup)
                replayed += 1
    assert replayed >= 10
    print(f"\nCRITERION 9 PASS: {replayed} angelic tuples replayed, zero "
          "violations")


def test_criterion_10_harness_determinism():
    """Two consecutive harness runs with a fixed configuration and the
    internal backend produce byte-identical CSV reports."""
    bundles = load_corpus(default_corpus_dir()) + builtin_seeded_bundles()
    first = run_harness(bundles, _harness_config())
    second = run_harness(bundles, _harness_config())
    assert first.to_csv() == second.to_csv()
    assert first.effort_table_csv() == second.effort_table_csv()
    print(f"\nCRITERION 10 PASS: byte-identical CSV over {len(bundles)} bundles")
