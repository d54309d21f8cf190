"""The solver A/B tool, ``tests/solver_ab.py``, stays runnable.

It runs in a child process, as a script is run, comparing this checkout's
``src/`` with itself on a few matrices: all three copies (the baseline,
the changed tree and its same-round control) must agree on every solve
and report the same work counts, and both of its tables, the solve table
and the op table, must be printed with a row per level and one in total,
each with its control column.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_tool_compares_a_tree_with_itself():
    child = subprocess.run(
        [sys.executable, "-B", str(ROOT / "tests" / "solver_ab.py"), str(ROOT / "src"),
         "--matrices", "3", "--rounds", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert lines[0] == ("12 solves over 3 matrices, seed 1: "
                        "every status, node count and model agrees")
    prefix = "apply, push, close, matches calls over the climbs: "
    assert lines[1].startswith(prefix)
    sides = [side.split(" ", 1) for side in lines[1][len(prefix):].split("; ")]
    assert [name for name, _ in sides] == ["baseline", "changed", "changed'"]
    assert len({counts for _, counts in sides}) == 1 and len(sides[0][1].split()) == 4
    for what in ("solve", "op"):
        header = lines.index(f"{'level':>6} {what + 's':>6} {'baseline':>9} {'changed':>9} "
                             f"{'median':>7} {'min':>7} {'max':>7} {'control':>8}")
        assert lines[header - 1].startswith(f"2 interleaved rounds: median CPU ms per {what};")
        rows = [line.split() for line in lines[header + 1:header + 6]]
        assert [row[:2] for row in rows] == [["1", "3"], ["2", "3"], ["3", "3"], ["4", "3"],
                                            ["all", "12"]]
        assert all(len(row) == 8 for row in rows)
