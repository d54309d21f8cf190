"""The closing step of the built-in search against the plain reference walk
(``reference_solver.py``), whole solve by whole solve (``agreed``), on
solves that end in it: levels 1 and 2 of the digest climbs, where a cone
closes on its first or second member, criterion-4 matrices at levels 1 and
2 with no deadline, and level 2 of the functions of two bool columns.
"""
from collections import Counter

from condfix.synth import SAT, TIMEOUT, UNSAT, encode
from test_reference_solver import agreed
from test_solve_digest import bool_functions, matrices
from test_vector_table import criterion_4_matrices


def test_close_matches_the_reference_on_the_digest_matrices(monkeypatch):
    statuses = set()
    for index, matrix in enumerate(matrices()):
        for level in (1, 2):
            status = agreed(monkeypatch, encode(matrix, level), case=(index, level))[0]
            statuses.add((level, status))
            if status == SAT:
                break
    assert {(1, UNSAT), (2, UNSAT)} <= statuses


def test_close_matches_the_reference_on_criterion_4_matrices(monkeypatch):
    statuses = Counter(agreed(monkeypatch, encode(matrix, level), None, 100_000, (index, level))[0]
                       for index, matrix in enumerate(criterion_4_matrices(20)) for level in (1, 2))
    assert statuses.keys() == {SAT, UNSAT, TIMEOUT}


def test_close_matches_the_reference_on_every_function_of_two_bools(monkeypatch):
    # level 2 has one each of ``&&``, ``||`` and ``!``: xor and xnor are
    # unsat after every three-member cone
    statuses = Counter(agreed(monkeypatch, encode(matrix, 2), 4, case=name)[0]
                       for name, matrix in bool_functions())
    assert statuses == {SAT: 14, UNSAT: 2}
