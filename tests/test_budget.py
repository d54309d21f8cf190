"""``Budget.advance(n)`` is ``n`` single advances.

The interpreter counts one step at a time, while the built-in solver
counts whole runs of nodes at once: the wirings of a last cone position,
and the subtrees of a twin component or a mirrored wiring, which run to
thousands of nodes. Both must stop on the same node, raise the same
exception and read the clock at the same counts as counting one at a
time would. ``budget.now`` is replaced by the deadline sweep's
``FakeClock``, which counts its reads and makes the deadline pass at a
chosen read.
"""
from itertools import product

import pytest

from condfix import budget
from condfix.budget import CLOCK_EVERY, Budget, Exhausted
from condfix.errors import DeadlineExceeded
from test_deadline_sweep import FakeClock

CAPS = (0, 1, CLOCK_EVERY - 1, CLOCK_EVERY, 9_000, 3 * CLOCK_EVERY + 1)
PASSES_AT = (None, 1, 2, 3)  # the read that finds the deadline passed
STARTS = (0, 1, CLOCK_EVERY - 1, CLOCK_EVERY, 2 * CLOCK_EVERY - 1)
BULKS = (0, 1, 2, CLOCK_EVERY - 1, CLOCK_EVERY, CLOCK_EVERY + 1, 3 * CLOCK_EVERY + 1)
TAIL = 3  # single advances after the bulk one, to check the state it leaves too


def run(monkeypatch, cap, passes_at, advances):
    """(count, exception type or None, clock reads) after ``advances``,
    stopping at the first raise."""
    clock = FakeClock(passes_at)
    monkeypatch.setattr(budget, "now", clock)
    counter = Budget(cap, None if passes_at is None else 1.0)
    raised = None
    try:
        for n in advances:
            counter.advance(n)
    except (Exhausted, DeadlineExceeded) as exc:
        raised = type(exc)
    return counter.count, raised, clock.reads


def test_a_bulk_advance_is_that_many_single_advances(monkeypatch):
    outcomes = set()
    for cap, passes_at, start, n, tail in product(CAPS, PASSES_AT, STARTS, BULKS, (0, TAIL)):
        head = [1] * start
        bulk = run(monkeypatch, cap, passes_at, head + [n] + [1] * tail)
        single = run(monkeypatch, cap, passes_at, head + [1] * (n + tail))
        assert bulk == single, (cap, passes_at, start, n, tail)
        outcomes.add(bulk[1])
    assert outcomes == {None, Exhausted, DeadlineExceeded}


@pytest.mark.parametrize("passes_at", [None, 1, 2])
def test_a_bulk_advance_stops_on_the_node_that_crosses(monkeypatch, passes_at):
    # the count at the raise is the first node past the cap, or the
    # multiple of CLOCK_EVERY whose read finds the deadline passed
    cap = 3 * CLOCK_EVERY
    count, raised, reads = run(monkeypatch, cap, passes_at, [1, 3 * CLOCK_EVERY + 1])
    if passes_at is None:
        assert (count, raised, reads) == (cap + 1, Exhausted, 0)
    else:
        assert (count, raised, reads) == (passes_at * CLOCK_EVERY, DeadlineExceeded, passes_at)
