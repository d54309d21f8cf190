"""The built-in solver against the plain reference walk
(``reference_solver.py``), whole solve by whole solve.

Each solve runs both ways on a counting clock (``FakeClock``) and must give
the same status, node count, model and number of clock reads (``agreed``).
Here: custom component sets on which the consumability prune or the
partner rule moves the node count, a hit of each kind of closing wiring,
and every bool-output form as the root over a member. The digest climbs,
criterion-4 matrices and the functions of two bool columns are compared in
``test_solver_close.py`` and ``test_solver_extend.py``, and solves on a
vector table that an earlier solve filled in ``test_vector_table.py``. The
reference itself is checked against ``enumeration_oracle``, which shares no
code with either solver.
"""
import random
from collections import Counter
from itertools import product

from condfix import budget
from condfix.budget import Budget
from condfix.synth import (
    ARITHMETIC_TAGS, COMPARISON_TAGS, SAT, UNSAT, Component, decode, encode,
    encode_with_components, solve_internal, to_source,
)
from condfix.trace import ColumnSpec, TraceMatrix, TraceRow
from enumeration_oracle import enumerate_oracle
from reference_solver import Walk, reference_solve
from test_deadline_sweep import FakeClock
from test_solve_digest import LADDER_CAP
from test_synth import BOOL_OPERANDS, INT_OPERANDS, REAL_OPERANDS, operator_cases, small_matrix


def agreed(monkeypatch, problem, passes_at=None, cap=LADDER_CAP, case=None):
    """(status, nodes, model, clock reads) of the solve, asserted equal by
    ``solve_internal`` and ``reference_solve``, on a clock that finds the
    deadline passed at read ``passes_at`` (read 1 sets it; never, if None)."""
    outcomes = []
    for solve in (solve_internal, reference_solve):
        clock = FakeClock(passes_at)
        with monkeypatch.context() as patched:
            patched.setattr(budget, "now", clock)
            result = solve(problem, 1.0, cap)
        outcomes.append((result.status, result.nodes, result.model, clock.reads))
    assert outcomes[0] == outcomes[1], case
    return outcomes[0]


def rows_matrix(types, rows):
    """A matrix over columns ``c0, c1, ...`` of ``types`` from ``(inputs,
    expected)`` rows."""
    columns = [ColumnSpec(f"c{i}", t, "var", var=f"c{i}") for i, t in enumerate(types)]
    return TraceMatrix(1, "condition", columns,
                       [TraceRow(f"t{r}", 0, inputs, exp) for r, (inputs, exp) in enumerate(rows)])


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
    return encode_with_components(rows_matrix(types, rows.items()), components)


# Seeds of ``custom_problem`` on which the consumability prune moves the
# node count: its type half fires on all three, its capacity half on 1610,
# and counting unary ports before binary ones would fire it on 692 too.
PRUNED = (692, 1420, 1610)
# Seeds on which the next-to-last position refuses a candidate that leaves
# an earlier member pending with no binary component but itself left to
# take both (a pending ``!=`` beside a ``!=`` candidate on 18, a pending
# bool beside the ``&&`` candidate on 43); admitting it moves the count.
PARTNERLESS = (18, 43)


def test_custom_component_sets_agree(monkeypatch):
    statuses = {seed: agreed(monkeypatch, custom_problem(seed), case=seed)[0]
                for seed in PRUNED + PARTNERLESS}
    assert statuses[18] == UNSAT and statuses[43] == SAT


def test_the_consumability_prune_moves_the_node_count():
    for seed in PRUNED:
        problem = custom_problem(seed)
        pruned = reference_solve(problem, None, LADDER_CAP)
        unpruned = reference_solve(problem, None, LADDER_CAP, consumability=False)
        assert (unpruned.status, unpruned.model) == (pruned.status, pruned.model), seed
        assert unpruned.nodes > pruned.nodes, seed


# (level, column types, rows): each ends in a different kind of hit.
DIRECTED = [
    (2, "bool", [((True,), False), ((False,), False)]),
    (3, "real", [((1.5,), False), ((-0.5,), True)]),
    (2, "bool bool bool", [((True, True, True), False), ((False, True, True), True),
                           ((True, True, False), True)]),
    (3, "int bool", [((2, False), False), ((8, False), True)]),
    (3, "real", [((3.25,), False), ((-2.5,), False), ((1.5,), True)]),
    (3, "real", [((-0.0,), False), ((3.25,), True), ((1e300,), False), ((1.5,), True)]),
    (3, "real", [((1e300,), True), ((-2.5,), False), ((3.25,), False), ((0.0,), False),
                 ((0.5,), False)]),
    # c0 - c0 <= c0: (m, y) hits before (m, m), which hits too, as NaN <= NaN
    # is false; the (x, m) scan must stop short of m's own ref
    (3, "real", [((2.5,), True), ((float("-inf"),), False), ((-0.0,), True)]),
]


def closing_kind(cone, columns):
    """The root's closing wiring over the next-to-last member ``m``: ``(m,)``,
    ``(x, m)`` or ``(m, y)`` with a column or member partner, or ``(a, m)``
    or ``(m, a)`` when an earlier member ``a`` is pending too."""
    *members, (_, wiring, _) = cone
    m = members[-1][2]
    held = {vid for _, member_wiring, _ in members for vid in member_wiring}
    if len(wiring) == 1:
        return "(m,)"
    if any(vid not in held for _, _, vid in members[:-1]):
        return "(a, m)" if wiring[1] == m else "(m, a)"
    x, y = wiring
    if y == m and x != m:
        return "(x, m) x " + ("col" if x in columns else "comp")
    return "(m, y) y " + ("col" if y in columns else "comp")


def test_every_kind_of_closing_wiring_hits(monkeypatch):
    kinds = set()
    for level, types, rows in DIRECTED:
        problem = encode(rows_matrix(types.split(), rows), level)
        assert agreed(monkeypatch, problem)[0] == SAT
        walk = Walk(problem, Budget(LADDER_CAP))
        kinds.add(closing_kind(walk.search(), walk.columns))
    assert kinds == {"(m,)", "(x, m) x col", "(x, m) x comp", "(m, y) y col", "(m, y) y comp",
                     "(a, m)", "(m, a)"}


def test_a_root_that_cannot_close_still_counts_its_wirings(monkeypatch):
    # ``==`` over two int columns strands ``!``: it never closes a cone,
    # and every wiring of it is still one node
    components = [Component("!", ("bool",), "bool"), Component("==", ("int", "int"), "bool")]
    statuses = [agreed(monkeypatch, encode_with_components(rows_matrix(("int", "int"), rows),
                                                           components))[:2]
                for rows in ([((1, 1), True), ((1, 2), False), ((3, 3), True)],
                             [((1, 1), False), ((1, 2), True)])]
    assert statuses == [(UNSAT, 12), (SAT, 8)]


def test_a_twin_whose_earlier_instance_is_in_the_cone_is_tried(monkeypatch):
    # c0 && c1 && c2 takes both ``&&`` instances: the first opens the cone as
    # c0 && c1 on the next-to-last position, and its twin, whose checks are
    # skipped only while the first is outside the cone, closes it
    matrix = rows_matrix(("bool",) * 3, [(bits, all(bits))
                                         for bits in product((False, True), repeat=3)])
    components = [Component("&&", ("bool", "bool"), "bool", instance) for instance in (0, 1)]
    problem = encode_with_components(matrix, components)
    status, nodes, model, _ = agreed(monkeypatch, problem)
    assert (status, nodes) == (SAT, 32)
    assert to_source(decode(problem, model)) == "c2 && (c0 && c1)"


def test_the_row_comparison_forms_agree(monkeypatch):
    # the search compares a last-position root wiring's rows up to the first
    # that differs. Each bool-output form is the root over a member of its
    # input type (over numbers, NaN may come from the infinities), expected
    # to give its vector over a column and that member with at most one row
    # flipped; on zero rows every vector is the expected one.
    forms = [(tag, t) for tag, t, out in operator_cases() if out == "bool"]
    operands = {"int": INT_OPERANDS, "bool": BOOL_OPERANDS,
                "real": REAL_OPERANDS + (float("inf"), float("-inf"))}
    types = ("int", "int", "real", "real", "bool", "bool")
    rng = random.Random(47)
    statuses = Counter()
    for height in (0, 1, 2, 3, 5, 8):
        for _ in range(12):
            tag, t = rng.choice(forms)
            root = Component(tag, (t,) if tag == "!" else (t, t), "bool")
            member = (Component("!", ("bool",), "bool") if t == "bool"
                      else Component(rng.choice(ARITHMETIC_TAGS), (t, t), t))
            inputs = [tuple(rng.choice(operands[ct]) for ct in types) for _ in range(height)]
            first, second = [i for i, ct in enumerate(types) if ct == t]
            outcomes = [bool(root.evaluate([values[second], member.evaluate(
                [values[first]] * member.arity)][-root.arity:])) for values in inputs]
            if height and rng.random() < 0.5:
                flip = rng.randrange(height)
                outcomes[flip] = not outcomes[flip]
            problem = encode_with_components(rows_matrix(types, zip(inputs, outcomes)),
                                             [member, root])
            statuses[height > 0, agreed(monkeypatch, problem)[0]] += 1
    assert {(False, SAT), (True, SAT), (True, UNSAT)} <= statuses.keys()


def test_the_reference_agrees_with_the_enumeration_oracle():
    # at level 1 every tree has one component, within the oracle's size
    # bound of 5; a bool column alone, which a rung with no component may
    # return, is sat with no tree
    rng = random.Random(51)
    statuses = Counter()
    for matrix in (small_matrix(rng) for _ in range(60)):
        if matrix.conflicting:
            continue
        tree = enumerate_oracle(matrix, 1, 5)
        status = reference_solve(encode(matrix, 1), None, LADDER_CAP).status
        if tree is not None:
            assert status == SAT, matrix
        if status == UNSAT:
            assert tree is None, matrix
        statuses[status] += 1
    assert statuses[SAT] >= 5 and statuses[UNSAT] >= 5
