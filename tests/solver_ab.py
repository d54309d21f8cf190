"""In-process interleaved A/B of the built-in solver on ``synth-ladder``.

Loads condfix three times into one process: from a baseline ``src/`` tree,
and twice from a changed one (this checkout's by default), the second
copy being the same-round control (changed'). Each copy builds its own
copy of the benchmark's ``synth-ladder`` matrices through
``perfbench/workloads.SynthLadder``, which it only reads. Each matrix
climbs levels 1 to 4 until the first sat, as in the benchmark.

It first checks that all three give every solve of the climbs the same
status, node count and model, and stops if one differs. It prints each
side's ``_SearchState.apply``, ``push`` and ``close`` calls over the
climbs: the vectors computed, the candidates walked into the cone and the
next-to-last candidates that reach a root check, deterministic counts of
the search's work. It then times interleaved rounds in CPU time. A round
times a solve pass and an op pass over the climbs per side, each from
fresh copies of the matrices (``dataclasses.replace``): the rungs of one
matrix share its vector table, so a pass that re-solved the problems of
the pass before would start with every vector computed and overstate a
gain. The sides take each matrix in turn, first its solve pass and then
its op pass, in an order that rotates from one matrix to the next and
from round to round. The solve pass encodes its problems untimed and
times each ``solve_internal`` call alone. The op pass times, per rung,
what one benchmark op times: ``SynthLadder._solve``, an encode, a
``synth.solve`` and a decode on sat. For each pass, per level and in
total, it prints the baseline's and the changed tree's median CPU per
solve or op (a round's CPU over its rungs), the median, min and max over
rounds of the ratio changed / baseline, and in ``control`` the median
over rounds of changed' / changed.

The ratio is taken within each round, and the sides take turns on each
matrix, a few milliseconds apart, so a stretch in which the host slows
down moves every side alike; its median says by how much the same work
got cheaper. Both tables appear because a change may move a rung's fixed
work, its encode, its set-up and its decode, apart from the search: a
claim on the benchmark's ``op_ms_*`` cites the op table, and a claim on
the cost per node cites the solve table.

How noisy the ratios are depends on the host and the hour. On a shared
2-vCPU Xeon VM (Python 3.11, 72 matrices, 20 rounds, seeds 1 and 7), when
each side took a whole pass in turn, the control read overall medians
from 0.939 to 1.077 and single rounds of the A/B ran from 0.41 to 2.64;
taken matrix by matrix, every control median read 0.988 to 1.005 and the
A/B's overall rounds ran from 0.77 to 0.90. No fixed band says when a
ratio is evidence: the ``control`` column is that reading, taken in the
same rounds as the A/B, so its distance from 1 is the noise of that run,
and a ratio is evidence only when it stands well beyond it.

Run it as a script (pytest does not collect it):

    git archive <commit> src | tar -x -C /tmp/base
    PYTHONPATH= python tests/solver_ab.py /tmp/base/src --seed 1 --matrices 72 --rounds 20
"""
from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is not a package)

LEVELS = (1, 2, 3, 4)
CAP = workloads.SynthLadder.NODE_CAP
COUNTED = ("apply", "push", "close")
SIDES = ("baseline", "changed", "changed'")


def load(src: Path):
    """condfix imported afresh from ``src``, as the benchmark imports it."""
    sys.path.insert(0, str(src))
    try:
        return workloads.import_condfix()
    finally:
        sys.path.remove(str(src))


def climbs(api, seed: int, count: int):
    """Per matrix, the matrix and the levels its climb solves; each solve's
    (status, nodes, model); and the calls of each ``COUNTED`` method of
    ``_SearchState`` over the climbs."""
    synth, state = api.synth, api.synth.internal._SearchState
    calls = dict.fromkeys(COUNTED, 0)

    def counted(name, method):
        def call(*args):
            calls[name] += 1
            return method(*args)
        return call

    ladders, outcomes = [], []
    methods = {name: getattr(state, name) for name in COUNTED}
    for name, method in methods.items():
        setattr(state, name, counted(name, method))
    try:
        for matrix in islice(workloads.SynthLadder(api, seed, ROOT).groups(), count):
            levels = []
            for level in LEVELS:
                result = synth.solve_internal(synth.encode(matrix, level), None, CAP)
                levels.append(level)
                outcomes.append((result.status, result.nodes, result.model))
                if result.is_sat:
                    break
            ladders.append((matrix, levels))
    finally:
        for name, method in methods.items():
            setattr(state, name, method)
    return ladders, outcomes, calls


def timed_round(sides, shift: int):
    """Per side, CPU seconds per level of one solve pass and of one op pass
    over the climbs, each from fresh copies of the matrices, taken matrix
    by matrix: the sides climb each matrix in turn, in an order that
    rotates with ``shift`` and from one matrix to the next."""
    clock = time.process_time
    runs = [(dict.fromkeys(LEVELS, 0.0), dict.fromkeys(LEVELS, 0.0)) for _ in sides]
    ops = [workloads.SynthLadder(api, 0, ROOT)._solve for api, _, _ in sides]
    for index in range(len(sides[0][1])):
        turn = (shift + index) % len(sides)
        order = [*range(turn, len(sides)), *range(turn)]
        for side in order:
            api, ladders, _ = sides[side]
            matrix, levels = ladders[index]
            fresh = dataclasses.replace(matrix)
            problems = [(level, api.synth.encode(fresh, level)) for level in levels]
            solve, solves = api.synth.solve_internal, runs[side][0]
            for level, problem in problems:
                start = clock()
                solve(problem, None, CAP)
                solves[level] += clock() - start
        for side in order:
            matrix, levels = sides[side][1][index]
            fresh = dataclasses.replace(matrix)
            for level in levels:
                start = clock()
                ops[side](fresh, level)
                runs[side][1][level] += clock() - start
    return runs


def table(what: str, ladders, runs) -> None:
    """Per level and in total: the baseline's and the changed tree's median
    CPU ms per ``what``, the ratios changed / baseline per round (median,
    min, max) and the median ratio changed' / changed per round. ``runs``
    holds each side's rounds, in ``SIDES`` order."""
    print(f"{len(runs[0])} interleaved rounds: median CPU ms per {what}; changed / baseline "
          "per round (median, min, max); control: changed' / changed per round (median):")
    print(f"{'level':>6} {what + 's':>6} {'baseline':>9} {'changed':>9} "
          f"{'median':>7} {'min':>7} {'max':>7} {'control':>8}")
    for level in (*LEVELS, "all"):
        def total(run):
            return sum(run.values()) if level == "all" else run[level]

        base, new, again = [[total(run) for run in side] for side in runs]
        if not min(base):
            continue
        ratios = [b / a for a, b in zip(base, new)]
        control = statistics.median(b / a for a, b in zip(new, again))
        count = sum(1 for _, levels in ladders for lv in levels if level in ("all", lv))
        per_rung = [1000 * statistics.median(side) / count for side in (base, new)]
        print(f"{level:>6} {count:>6} {per_rung[0]:>9.4f} {per_rung[1]:>9.4f} "
              f"{statistics.median(ratios):>7.3f} {min(ratios):>7.3f} {max(ratios):>7.3f} "
              f"{control:>8.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", type=Path, help="the baseline tree's src/ directory")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the changed tree's src/ directory (default: this checkout's)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--matrices", type=int, default=72)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args()

    sources = (args.baseline.resolve(), args.src.resolve(), args.src.resolve())
    sides, outcomes, calls = [], [], []  # sides: each one's condfix, climbs and rounds
    for src in sources:
        api = load(src)
        ladders, solved, counts = climbs(api, args.seed, args.matrices)
        sides.append((api, ladders, []))
        outcomes.append(solved)
        calls.append(counts)
    for side, solved in zip(SIDES[1:], outcomes[1:]):
        if solved != outcomes[0]:
            moved = (sum(a != b for a, b in zip(outcomes[0], solved))
                     + abs(len(outcomes[0]) - len(solved)))
            sys.exit(f"the baseline and {side} disagree on {moved} of {len(outcomes[0])} "
                     "solves; no timing run")
    print(f"{len(outcomes[0])} solves over {args.matrices} matrices, seed {args.seed}: "
          "every status, node count and model agrees")
    print(f"{', '.join(COUNTED)} calls over the climbs: " + "; ".join(
        f"{side} {' '.join(f'{counts[name]:,}' for name in COUNTED)}"
        for side, counts in zip(SIDES, calls)))

    for round_ in range(args.rounds):
        for (_, _, runs), run in zip(sides, timed_round(sides, round_)):
            runs.append(run)
    ladders = sides[0][1]
    table("solve", ladders, [[run[0] for run in runs] for _, _, runs in sides])
    table("op", ladders, [[run[1] for run in runs] for _, _, runs in sides])


if __name__ == "__main__":
    main()
