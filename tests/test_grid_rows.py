"""Grid equivalence through ``execute_rows``.

``corpus.check_equivalence`` runs each program of a grid check over its
points in one run state. It must decide every grid as the per-point
oracle (``equivalence_oracle``) does, and each row must end as a fresh
``execute`` of it would: same value, error and timeout, whatever the row
before it left behind.
"""
import itertools
import sys

import pytest

from condfix import corpus
from condfix.corpus import (
    GridSpec, builtin_seeded_bundles, check_equivalence, default_corpus_dir, load_corpus,
    run_harness,
)
from condfix.minilang import (
    Patch, PatchKind, TIMEOUT, apply_patch, execute, execute_rows, parse_expression,
    parse_program, render_program, shadow_merge,
)
from condfix.minilang.interp import CALL_FRAMES, MAX_CALL_DEPTH
from equivalence_oracle import check_equivalence as oracle
from test_reference_eval import _key


def fresh(program, entry, points, budget):
    """Each point's outcome from its own ``execute``."""
    results = (execute(program, entry, list(p), step_budget=budget) for p in points)
    return [(_key(r.value), r.error, r.timed_out) for r in results]


def batched(program, entry, points, budget):
    """Each point's outcome from one ``execute_rows``."""
    return [(_key(value), error, timed_out)
            for value, error, timed_out in execute_rows(program, entry, points, budget)]


def points_of(program, entry, grid):
    names = [p.name for p in program.functions[entry].params]
    return list(itertools.product(*(grid.axes[n] for n in names)))


def rebuilt(program):
    """The same program parsed afresh, so that it shares no base."""
    return parse_program(render_program(program))


@pytest.fixture(scope="module")
def corpus_grids():
    """The (a, b, entry, grid, budget) of each grid check of a harness pass."""
    calls = []

    def recording(a, b, entry, grid, step_budget=corpus.DEFAULT_STEP_BUDGET):
        calls.append((a, b, entry, grid, step_budget))
        return check_equivalence(a, b, entry, grid, step_budget)

    bundles = load_corpus(default_corpus_dir()) + builtin_seeded_bundles()
    saved, corpus.check_equivalence = corpus.check_equivalence, recording
    try:
        run_harness(bundles)
    finally:
        corpus.check_equivalence = saved
    return calls


def test_the_corpus_grids_decide_and_run_as_the_oracle(corpus_grids):
    # cl4, cm5, pl4 and pm2: four shadow-merged grids
    assert sorted(grid.size() for _, _, _, grid, _ in corpus_grids) == [500, 520, 625, 676]
    for a, b, entry, grid, budget in corpus_grids:
        merged = shadow_merge(a, b)
        assert merged is not None
        points = points_of(a, entry, grid)
        for program in (merged, a, b):
            assert batched(program, entry, points, budget) == fresh(program, entry, points, budget)
        assert check_equivalence(a, b, entry, grid, budget) == oracle(a, b, entry, grid, budget)
        # with no shared base, every point runs both sides
        a2, b2 = rebuilt(a), rebuilt(b)
        assert shadow_merge(a2, b2) is None
        assert (check_equivalence(a2, b2, entry, grid, budget)
                == oracle(a2, b2, entry, grid, budget))


WALK = """\
fn walk(pos: int, target: int) -> int {
  let steps: int = 0;
  while (pos != target) {
    if (pos < target) {
      pos = pos + 1;
    } else {
      pos = pos - 1;
    }
    steps = steps + 1;
  }
  return steps;
}
"""


def walk_child(base, cond):
    return apply_patch(base, Patch(PatchKind.CONDITION_UPDATE, 3, parse_expression(cond)))


@pytest.mark.parametrize("cond_a, cond_b, equivalent", [
    ("pos < target", "pos > target", False),  # only the wrong way diverges
    ("pos > target", "target < pos", True),  # both diverge on the same points
    ("pos < target", "target > pos", True),
    ("pos >= target", "pos < target", False),
])
def test_diverging_loops_under_the_diverge_budget(cond_a, cond_b, equivalent):
    base = parse_program(WALK)
    grid = GridSpec({"pos": list(range(-4, 4)), "target": list(range(-3, 5))})
    a, b = walk_child(base, cond_a), walk_child(base, cond_b)
    points = points_of(a, "walk", grid)
    for program in (shadow_merge(a, b), a, b):
        outcomes = batched(program, "walk", points, 5_000)
        assert outcomes == fresh(program, "walk", points, 5_000)
    for pair in ((a, b), (rebuilt(a), rebuilt(b))):
        assert check_equivalence(*pair, "walk", grid, 5_000) == equivalent
        assert oracle(*pair, "walk", grid, 5_000) == equivalent


def test_a_grid_false_at_its_first_point_stops_there(monkeypatch):
    rows = []

    def counting(program, entry, points, step_budget):
        for outcome in execute_rows(program, entry, points, step_budget):
            rows.append(program)
            yield outcome

    monkeypatch.setattr(corpus, "execute_rows", counting)
    base = parse_program("fn f(x: int) -> int { if (x < 10) { return x; } return 0; }")
    a = apply_patch(base, Patch(PatchKind.CONDITION_UPDATE, 1, parse_expression("x < 9")))
    b = apply_patch(base, Patch(PatchKind.CONDITION_UPDATE, 1, parse_expression("x > 9")))
    grid = GridSpec({"x": list(range(1, 100))})
    assert not check_equivalence(a, b, "f", grid)
    assert not oracle(a, b, "f", grid)
    # the merged run, then one row of each side
    assert len(rows) == 3 and rows[1] is a and rows[2] is b


def test_no_shared_base_runs_both_sides_on_every_point():
    a = parse_program("fn f(x: int) -> int { return x * 2; }")
    b = parse_program("fn f(x: int) -> int { return x + x; }")
    grid = GridSpec({"x": [-3, 0, 9223372036854775807]})
    assert check_equivalence(a, b, "f", grid) and oracle(a, b, "f", grid)


# A call recursing n deep that throws (t = 1) or loops to its budget
# (t = 2) at the bottom, each leaving its calls' depth unreleased.
RECURSE = """\
fn f(n: int, t: int) -> int {
  if (n > 0) {
    return f(n - 1, t) + 1;
  }
  if (t == 1) {
    throw Boom;
  }
  while (t == 2) {
    t = 2;
  }
  return 0;
}
"""


def deepest(program):
    """The largest n whose call of f(n, 0) ends within the depth limit."""
    n = 0
    while not execute(program, "f", [n + 1, 0]).timed_out:
        n += 1
    assert n < MAX_CALL_DEPTH * CALL_FRAMES
    return n


def test_a_row_leaves_no_count_or_depth_to_the_next():
    program = parse_program(RECURSE)
    n = deepest(program)
    rows = [(50, 1), (n, 0), (50, 2), (n, 0), (n + 1, 0), (n, 0), (3, 0)]
    outcomes = batched(program, "f", rows, 2_000)
    assert outcomes == fresh(program, "f", rows, 2_000)
    assert [error for _, error, _ in outcomes] == [
        "Boom", None, TIMEOUT, None, TIMEOUT, None, None]


def test_a_row_ending_in_recursion_error_leaves_nothing_behind():
    program = parse_program(RECURSE)
    n = deepest(program)
    outcomes = execute_rows(program, "f", iter([(n, 0), (n, 0)]), 1_000_000)

    def deep(levels):
        # pulls the first row with Python's stack nearly full
        return deep(levels - 1) if levels else next(outcomes)

    limit = sys.getrecursionlimit()
    stack = len(_frames())
    first = deep(limit - stack - 60)
    assert first == (None, TIMEOUT, True)
    assert next(outcomes) == (n, None, False)


def _frames():
    frame, frames = sys._getframe(), []
    while frame is not None:
        frames.append(frame)
        frame = frame.f_back
    return frames
