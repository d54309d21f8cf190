"""The built-in search over every cone position against the plain
reference walk (``reference_solver.py``), whole solve by whole solve
(``agreed``): the digest climbs under a deadline that passes after the
ladder's node cap, criterion-4 matrices at levels 1 and 2 under one that
passes before it, and level 4 of the functions of two bool columns, whose
solves count twin subtrees before a hit.
"""
from collections import Counter

from condfix.synth import MAX_LEVEL, MIN_LEVEL, SAT, TIMEOUT, UNSAT, decode, encode, to_source
from test_reference_solver import agreed
from test_solve_digest import DEEP_CAP, LADDER_CAP, bool_functions, matrices
from test_vector_table import criterion_4_matrices


def test_extend_matches_the_reference_on_the_digest_climbs(monkeypatch):
    # the deadline passes at read 4, node 12,288, past the cap; every level-4
    # rung of the climbs runs out of nodes, so level 4 also runs, at the
    # deep cap, on each matrix that level 3 solves, on the climb's table
    statuses = set()
    for index, matrix in enumerate(matrices()):
        for level in range(MIN_LEVEL, MAX_LEVEL + 1):
            got = agreed(monkeypatch, encode(matrix, level), 4, LADDER_CAP, (index, level))
            statuses.add((level, got[0], got[3]))
            if got[0] == SAT:
                break
        if level == 3 and got[0] == SAT:
            got = agreed(monkeypatch, encode(matrix, MAX_LEVEL), 4, DEEP_CAP, index)
            statuses.add((MAX_LEVEL, got[0], got[3]))
    assert {(1, UNSAT, 1), (2, UNSAT, 1), (3, TIMEOUT, 3), (4, SAT, 1), (4, TIMEOUT, 4)} <= statuses


def test_extend_matches_the_reference_on_criterion_4_matrices(monkeypatch):
    # the deadline passes at read 6, node 20,480, before the cap
    statuses = Counter(agreed(monkeypatch, encode(matrix, level), 6, 100_000, (index, level))[0]
                       for index, matrix in enumerate(criterion_4_matrices(20)) for level in (1, 2))
    assert statuses.keys() == {SAT, UNSAT, TIMEOUT}


def test_extend_matches_the_reference_on_every_function_of_two_bools(monkeypatch):
    # level 4 has two instances of each of ``&&``, ``||`` and ``!``; xor
    # takes four members, both ``&&`` among them
    sources = set()
    for name, matrix in bool_functions():
        problem = encode(matrix, MAX_LEVEL)
        got = agreed(monkeypatch, problem, 4, DEEP_CAP, name)
        assert got[0] == SAT
        sources.add(to_source(decode(problem, got[2])))
    assert "(a || b) && !(a && b)" in sources
