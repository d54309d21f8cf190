"""In-process interleaved A/B of the built-in solver on ``synth-ladder``.

Loads condfix twice into one process, from a baseline ``src/`` tree and
from a changed one (this checkout's by default), and builds each tree its
own copy of the benchmark's ``synth-ladder`` matrices through
``perfbench/workloads.SynthLadder``, which it only reads. Each matrix climbs
levels 1 to 4 until the first sat, as in the benchmark.

It first checks that both trees give every solve of the climbs the same
status, node count and model, and stops if one differs. It then times
interleaved rounds, the tree that runs first alternating between rounds,
in CPU time. A round times two passes over the climbs per tree, each from
fresh copies of the matrices (``dataclasses.replace``): the rungs of one
matrix share its vector table, so a pass that re-solved the problems of
the pass before would start with every vector computed and overstate a
gain. The solve pass encodes its problems untimed and times each
``solve_internal`` call alone. The op pass times, per rung, what one
benchmark op times: ``SynthLadder._solve``, an encode, a ``synth.solve``
and a decode on sat. For each pass, per level and in total, it prints each
side's median CPU per solve or op (a round's CPU over its rungs), the
median, min and max over rounds of the ratio changed / baseline, and the
ratio of the two sides' CPU summed over all rounds.

Both ratios appear because they answer different questions. The median
pair ratio compares the two trees within each round, so a round in which
the host slows down moves both sides alike; it says by how much the same
work got cheaper. The summed ratio weights each round by its time, as a
throughput figure does, so it says how much CPU the whole run saved, and a
few slow rounds can move it. Both tables appear because a change may move
a rung's fixed work, its encode, its set-up and its decode, apart from the
search: a claim on the benchmark's ``op_ms_*`` cites the op table, and a
claim on the cost per node cites the solve table.

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


def load(src: Path):
    """condfix imported afresh from ``src``, as the benchmark imports it."""
    sys.path.insert(0, str(src))
    try:
        return workloads.import_condfix()
    finally:
        sys.path.remove(str(src))


def climbs(api, seed: int, count: int):
    """Per matrix, the matrix and the levels its climb solves, and each
    solve's (status, nodes, model)."""
    synth = api.synth
    ladders, outcomes = [], []
    for matrix in islice(workloads.SynthLadder(api, seed, ROOT).groups(), count):
        levels = []
        for level in LEVELS:
            result = synth.solve_internal(synth.encode(matrix, level), None, CAP)
            levels.append(level)
            outcomes.append((result.status, result.nodes, result.model))
            if result.is_sat:
                break
        ladders.append((matrix, levels))
    return ladders, outcomes


def encoded(api, ladders):
    """(level, problem) for every solve of the climbs, encoded from fresh
    copies of the matrices, whose vector tables are empty."""
    encode = api.synth.encode
    problems = []
    for matrix, levels in ladders:
        fresh = dataclasses.replace(matrix)
        problems += [(level, encode(fresh, level)) for level in levels]
    return problems


def timed_round(api, ladders):
    """CPU seconds per level of one solve pass and of one op pass over the
    climbs, each from fresh copies of the matrices."""
    solve, clock = api.synth.solve_internal, time.process_time
    solves, ops = dict.fromkeys(LEVELS, 0.0), dict.fromkeys(LEVELS, 0.0)
    for level, problem in encoded(api, ladders):
        start = clock()
        solve(problem, None, CAP)
        solves[level] += clock() - start
    op = workloads.SynthLadder(api, 0, ROOT)._solve
    for matrix, levels in ladders:
        fresh = dataclasses.replace(matrix)
        for level in levels:
            start = clock()
            op(fresh, level)
            ops[level] += clock() - start
    return solves, ops


def table(what: str, ladders, base_runs, new_runs) -> None:
    """Per level and in total: each side's median CPU ms per ``what``, and
    the ratios changed / baseline per round (median, min, max) and summed
    over the rounds."""
    print(f"{len(base_runs)} interleaved rounds: median CPU ms per {what}; changed / baseline "
          "per round (median, min, max) and summed over the rounds:")
    print(f"{'level':>6} {what + 's':>6} {'baseline':>9} {'changed':>9} "
          f"{'median':>7} {'min':>7} {'max':>7} {'summed':>7}")
    for level in (*LEVELS, "all"):
        def total(run):
            return sum(run.values()) if level == "all" else run[level]

        base = [total(run) for run in base_runs]
        new = [total(run) for run in new_runs]
        if not min(base):
            continue
        ratios = [b / a for a, b in zip(base, new)]
        count = sum(1 for _, levels in ladders for lv in levels if level in ("all", lv))
        per_rung = [1000 * statistics.median(side) / count for side in (base, new)]
        print(f"{level:>6} {count:>6} {per_rung[0]:>9.4f} {per_rung[1]:>9.4f} "
              f"{statistics.median(ratios):>7.3f} {min(ratios):>7.3f} {max(ratios):>7.3f} "
              f"{sum(new) / sum(base):>7.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", type=Path, help="the baseline tree's src/ directory")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the changed tree's src/ directory (default: this checkout's)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--matrices", type=int, default=72)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args()

    base_api, new_api = load(args.baseline.resolve()), load(args.src.resolve())
    base_ladders, base_out = climbs(base_api, args.seed, args.matrices)
    new_ladders, new_out = climbs(new_api, args.seed, args.matrices)
    if base_out != new_out:
        moved = sum(a != b for a, b in zip(base_out, new_out)) + abs(len(base_out) - len(new_out))
        sys.exit(f"the trees disagree on {moved} of {len(base_out)} solves; no timing run")
    print(f"{len(base_out)} solves over {args.matrices} matrices, seed {args.seed}: "
          "every status, node count and model agrees")

    base_runs, new_runs = [], []
    for round_ in range(args.rounds):
        order = [(base_api, base_ladders, base_runs), (new_api, new_ladders, new_runs)]
        for api, ladders, runs in (order if round_ % 2 == 0 else order[::-1]):
            runs.append(timed_round(api, ladders))
    table("solve", base_ladders, [run[0] for run in base_runs], [run[0] for run in new_runs])
    table("op", base_ladders, [run[1] for run in base_runs], [run[1] for run in new_runs])


if __name__ == "__main__":
    main()
