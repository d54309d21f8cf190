"""Differential test of the solver's cone search over every position.

``reference_extend`` is the search stated plainly: every candidate of
every component outside the cone, each component wiring in product order,
counts one node and is walked, and the last position closes by
``test_solver_close.reference_close``. It computes the vector of a
wiring whose memo entry is a root's miss marker, which is no id. Both searches follow the same
one-member pass, ``close_empty``, whose atoms are all that ``confounded``
reads, and start at two members. ``_SearchState.extend`` closes the
cone over each candidate of the next-to-last position without walking
into it, and counts the subtrees that a twin component (the later
instance of an operator semantics whose earlier instance is outside the
cone) or a mirrored wiring of a commuting component repeats, without
walking them. Over the solve-digest climbs (levels 1 to 4, climbing until
the first sat, and level 4 again on each matrix that level 3 solves) and
20 criterion-4 matrices (levels 1 and 2), each solve must give the same
status, node count and model both ways, and read a counting clock as
often. The climbs run under a deadline that
passes after the ladder's node cap, the criterion-4 solves under one that
passes before it. At level 4 every function of two bool columns, xor
among them, is solved both ways too: each level-4 solve above runs out or
closes a cone of at most two members, so only these count twin subtrees
before a hit. None of those solves prunes a cone as unconsumable, so a few
problems over custom component sets (``custom_problem``) are solved both
ways too, each one on which that prune moves the node count.
"""
import random
from collections import Counter
from itertools import product

from condfix import budget
from condfix.synth import (
    MAX_LEVEL, MIN_LEVEL, SAT, TIMEOUT, Component, decode, encode, encode_with_components, internal,
    solve_internal, to_source,
)
from condfix.synth.components import ARITHMETIC_TAGS, COMPARISON_TAGS
from condfix.trace import ColumnSpec, TraceMatrix, TraceRow, deduplicate
from test_acceptance import _random_matrix
from test_deadline_sweep import FakeClock
from test_solve_digest import DEEP_CAP, LADDER_CAP, matrices
from test_solver_close import reference_close, reference_consumable, wirings


def reference_extend(state, k: int):
    """The first cone and wirings that close within ``k`` members, walking
    every candidate."""
    if len(state.cone) == k - 1:
        hit, nodes = reference_close(state)
        state.budget.advance(nodes)
        return hit
    seen = state.seen
    by_types = {}
    for ci, _out, in_types, memo, _twin, _mirrored, _closes in state.records:
        if state.in_cone[ci]:
            continue
        candidates = by_types.get(in_types)
        if candidates is None:
            candidates = by_types[in_types] = wirings(state, in_types)
        for wiring in candidates:
            state.budget.advance()
            vid = memo.get(wiring)
            if vid is None or vid < 0:  # a root's miss is no id
                vid = state.apply(ci, wiring)
            if seen[vid]:
                continue
            state.push(ci, wiring, vid)
            if not reference_consumable(state, k):
                state.pop()
                continue
            seen[vid] = True
            hit = reference_extend(state, k)
            if hit is not None:
                return hit
            seen[vid] = False
            state.pop()
    return None


def solve_both(monkeypatch, problem, passes_at, cap: int):
    """(status, nodes, model, clock reads) of the solve, by ``extend`` and
    by ``reference_extend``, on a clock that finds the deadline passed at
    read ``passes_at`` (read 1 sets it; never, if None)."""
    outcomes = []
    for extend in (internal._SearchState.extend, reference_extend):
        clock = FakeClock(passes_at)
        with monkeypatch.context() as patched:
            patched.setattr(budget, "now", clock)
            patched.setattr(internal._SearchState, "extend", extend)
            result = solve_internal(problem, 1.0, cap)
        outcomes.append((result.status, result.nodes, result.model, clock.reads))
    return outcomes


def test_extend_matches_the_reference_on_the_digest_climbs(monkeypatch):
    # the deadline passes at read 4, node 12,288, past the cap;
    # every level-4 rung of the climbs runs out of nodes, so level 4 also
    # runs, at the deep cap, on each matrix that level 3 solves
    statuses = set()
    for index, matrix in enumerate(matrices()):
        for level in range(MIN_LEVEL, MAX_LEVEL + 1):
            got, want = solve_both(monkeypatch, encode(matrix, level), 4, LADDER_CAP)
            assert got == want, (index, level)
            statuses.add((level, got[0], got[3]))
            if got[0] == SAT:
                break
        if level == 3 and got[0] == SAT:
            got, want = solve_both(monkeypatch, encode(matrix, MAX_LEVEL), 4, DEEP_CAP)
            assert got == want, (index, MAX_LEVEL)
            statuses.add((MAX_LEVEL, got[0], got[3]))
    assert {(3, TIMEOUT, 3), (4, SAT, 1), (4, TIMEOUT, 4)} <= statuses


def test_extend_matches_the_reference_on_every_function_of_two_bools(monkeypatch):
    # level 4 over two bool columns has the two instances of each of
    # ``&&``, ``||`` and ``!``; xor takes four members, both ``&&`` among
    # them, after passes that count twin subtrees on every position
    columns = [ColumnSpec(c, "bool", "var", var=c) for c in "ab"]
    inputs = list(product((False, True), repeat=2))
    sources = set()
    for outcomes in product((False, True), repeat=len(inputs)):
        matrix = TraceMatrix(1, "condition", columns,
                             [TraceRow(f"t{r}", 0, bits, exp)
                              for r, (bits, exp) in enumerate(zip(inputs, outcomes))])
        problem = encode(matrix, MAX_LEVEL)
        got, want = solve_both(monkeypatch, problem, 4, DEEP_CAP)
        assert got == want, outcomes
        assert got[0] == SAT
        sources.add(to_source(decode(problem, got[2])))
    assert "(a || b) && !(a && b)" in sources


def test_extend_matches_the_reference_on_criterion_4_matrices(monkeypatch):
    # the deadline passes at read 6, node 20,480, before the cap
    rng = random.Random(20240817)
    solved = timeouts = 0
    while solved < 20:
        matrix = deduplicate(_random_matrix(rng))
        if matrix.conflicting:
            continue
        solved += 1
        for level in (1, 2):
            got, want = solve_both(monkeypatch, encode(matrix, level), 6, 100_000)
            assert got == want, (solved, level)
            timeouts += got[0] == TIMEOUT
    assert timeouts


def custom_problem(seed: int):
    """A small problem over a custom component set, drawn from ``seed``:
    two or three columns of any type, five to seven components (a
    comparison, ``!``, ``&&`` or ``||``, or arithmetic, at 40, 25, 20 and 15
    in 100), and two to four rows of small values."""
    rng = random.Random(seed)
    types = [rng.choice(("int", "bool", "real")) for _ in range(rng.randint(2, 3))]
    numeric = [t for t in types if t != "bool"] or ["int"]
    instances = Counter()
    components = []
    for _ in range(rng.randint(5, 7)):
        draw = rng.random()
        if draw < 0.4:
            t = rng.choice(numeric)
            tag, in_types, out = rng.choice(COMPARISON_TAGS), (t, t), "bool"
        elif draw < 0.65:
            tag, in_types, out = "!", ("bool",), "bool"
        elif draw < 0.85:
            tag, in_types, out = rng.choice(("&&", "||")), ("bool", "bool"), "bool"
        else:
            t = rng.choice(numeric)
            tag, in_types, out = rng.choice(ARITHMETIC_TAGS), (t, t), t
        components.append(Component(tag, in_types, out, instances[tag, in_types]))
        instances[tag, in_types] += 1
    draws = {"bool": lambda: rng.random() < 0.5, "int": lambda: rng.randint(-3, 3),
             "real": lambda: rng.choice((-1.5, 0.0, 0.5, 2.0))}
    rows = {}
    for _ in range(rng.randint(2, 4)):
        rows.setdefault(tuple(draws[t]() for t in types), rng.random() < 0.5)
    columns = [ColumnSpec(f"c{i}", t, "var", var=f"c{i}") for i, t in enumerate(types)]
    matrix = TraceMatrix(1, "condition", columns,
                         [TraceRow(f"t{r}", 0, inputs, exp)
                          for r, (inputs, exp) in enumerate(rows.items())])
    return encode_with_components(matrix, components)


# Seeds of ``custom_problem`` on which the consumability prune moves the
# node count: its type half fires on all three, its capacity half on 1610,
# and counting unary ports before binary ones would fire it on 692 too.
PRUNED = (692, 1420, 1610)


def test_extend_matches_the_reference_where_the_prune_fires(monkeypatch):
    for seed in PRUNED:
        problem = custom_problem(seed)
        got, want = solve_both(monkeypatch, problem, None, LADDER_CAP)
        assert got == want, seed
        with monkeypatch.context() as patched:
            patched.setitem(globals(), "reference_consumable", lambda state, k: True)
            patched.setattr(internal._SearchState, "extend", reference_extend)
            unpruned = solve_internal(problem, None, LADDER_CAP)
        assert (unpruned.status, unpruned.model) == (got[0], got[2]) and unpruned.nodes > got[1], seed
