"""Probed runs end exactly as plain runs do.

A probe (``patching.probe``) only adds snapshots, so a run of the program
probed at any location must give the same value, error, timeout, steps
and hits as a run of the program as it was, and take one snapshot per hit
there. Checked on the suite runs of the budget sweep's programs (as
written and with each ``if`` forced) cut at a spread of step budgets, and
on recursions that end on the call-depth limit.
"""
import pytest

from condfix.corpus import builtin_seeded_bundles, default_corpus_dir, load_corpus
from condfix.minilang import IfStmt, decide, execute, parse_program, probe
from condfix.minilang.interp import MAX_CALL_DEPTH
from test_minilang import FACT, NESTED_DOWN

RECURSIONS = pytest.mark.parametrize("program, function, args", [
    (decide(parse_program(FACT), 1, False), "fact", [3]),
    (parse_program(FACT), "fact", [MAX_CALL_DEPTH - 2]),
    (parse_program(NESTED_DOWN), "down", [5]),
], ids=["unbounded", "within-the-limit", "nested-blocks"])


def outcome(result):
    return result.value, result.error, result.timed_out, result.steps, result.hits


@pytest.fixture(scope="module")
def bundles():
    return load_corpus(default_corpus_dir()) + builtin_seeded_bundles()


def spread(steps):
    """Budgets that cut a run of ``steps`` steps near its start, across it
    and at its end, plus one that lets it finish."""
    return sorted({0, 1, 2, 3, *range(0, steps, max(1, steps // 12)), steps - 1, steps + 1})


def sweep_programs(program):
    """The program as written, then with each ``if`` forced each way, each
    with the locations a probe is put at: every location of the program as
    written, and the forced location of a forced one, as trace collection
    probes it."""
    ifs = [loc for loc in program.locations() if isinstance(program.statement_at(loc), IfStmt)]
    return [(program, program.locations())] + [
        (decide(program, loc, value), [loc]) for loc in ifs for value in (True, False)
    ]


def test_probed_runs_of_the_budget_sweep_programs_at_a_spread_of_budgets(bundles):
    for bundle in bundles:
        program, suite = bundle.program, bundle.suite
        for run, locations in sweep_programs(program):
            probed = {loc: probe(run, loc) for loc in locations}
            for test in suite:
                args = list(test.args)
                full = execute(run, test.function, args)
                for loc, at in probed.items():
                    snapshots = execute(at, test.function, args).snapshots
                    assert len(snapshots) == full.hits.get(loc, 0), (bundle.id, test.id, loc)
                for budget in spread(full.steps):
                    plain = outcome(execute(run, test.function, args, step_budget=budget))
                    for loc, at in probed.items():
                        got = execute(at, test.function, args, step_budget=budget)
                        assert outcome(got) == plain, (bundle.id, test.id, loc, budget)


@RECURSIONS
def test_a_probed_recursion_ends_at_the_same_call(program, function, args):
    plain = execute(program, function, args)
    for loc in program.locations():
        probed = execute(probe(program, loc), function, args)
        assert outcome(probed) == outcome(plain), loc
        assert len(probed.snapshots) == plain.hits.get(loc, 0), loc


@pytest.mark.parametrize("statement", [
    "if (x) { return 1; }", "while (x) { return 1; }", "if (x >= 0) { while (x) { x = x - 1; } }",
], ids=["if", "while", "nested-while"])
@pytest.mark.parametrize("x", [0, 3])
def test_a_condition_that_is_not_a_bool_is_a_type_mismatch(statement, x):
    program = parse_program(f"fn f(x: int) -> int {{ {statement} return 0; }}")
    plain = outcome(execute(program, "f", [x]))
    assert plain[1] == "TypeMismatch"
    for loc in program.locations():
        assert outcome(execute(probe(program, loc), "f", [x])) == plain, loc
