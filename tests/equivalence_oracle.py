"""Grid equivalence one point at a time, used by tests as the oracle of
``corpus.check_equivalence``.

It runs every point as separate ``execute`` calls: first the two sides'
``shadow_merge``, when they have one, and both sides wherever that run
does not settle the point, stopping at the first point where the sides
disagree. That is how ``check_equivalence`` ran its grids before they ran
through ``execute_rows``, so it keeps each grid run's full result (steps,
hits, snapshots) for the execution digest.
"""
from __future__ import annotations

import itertools

from condfix.corpus import GridSpec, _same_outcome
from condfix.errors import BundleError
from condfix.minilang import DEFAULT_STEP_BUDGET, Program, execute, shadow_merge
from condfix.testkit import values_match


def check_equivalence(program_a: Program, program_b: Program, entry: str, grid: GridSpec,
                      step_budget: int = DEFAULT_STEP_BUDGET, execute=execute) -> bool:
    """``corpus.check_equivalence``, a point and an ``execute`` call at a
    time; ``execute`` is the function each run goes through."""
    names = [p.name for p in program_a.functions[entry].params]
    empty = sorted(n for n in names if not grid.axes[n])
    if empty:
        raise BundleError(f"grid axes {empty} are empty")
    merged = shadow_merge(program_a, program_b)
    for point in itertools.product(*(grid.axes[n] for n in names)):
        args = list(point)
        if merged is not None:
            shadow = execute(merged, entry, args, step_budget=step_budget)
            if shadow.error is None and values_match(shadow.value, shadow.value):
                continue
        ra = execute(program_a, entry, args, step_budget=step_budget)
        rb = execute(program_b, entry, args, step_budget=step_budget)
        if not _same_outcome((ra.value, ra.error, ra.timed_out), (rb.value, rb.error, rb.timed_out)):
            return False
    return True
