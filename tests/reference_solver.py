"""A plain reference for the built-in solver, ``synth.internal.solve_internal``.

``reference_solve`` walks the steps that ``internal.py``'s docstrings
state (``Walk.search``), with no memo, no twins, no mirrors, no closing
table and no row comparison. It keeps its own state: vectors are interned
by content, and one that holds NaN equals no other. It reads the clock only
through ``budget.now`` and counts nodes through a ``budget.Budget``. Every
shortcut of the search must count as this walk does, so the two agree on
the status, nodes, model and clock reads of every solve. A hit's model is
``internal._complete_model`` of its cone, with this walk's own ids.

Run as a script, it compares the two on the ``synth-ladder`` matrices of a
seed (``perfbench/workloads``), each climbing levels 1 to 4 under the
benchmark's node cap until the first sat. It prints the agreeing solves
per level, or exits 1 naming the first disagreement:

    PYTHONPATH=src python tests/reference_solver.py --seed 1 --count 72
"""
from __future__ import annotations

import argparse
import sys
import types
from itertools import compress, islice, product
from math import prod
from operator import eq
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

from condfix import budget
from condfix.budget import Budget, Exhausted
from condfix.errors import DeadlineExceeded
from condfix.minilang.values import wrap_int
from condfix.synth import BOOL, DEFAULT_NODE_BUDGET, SAT, TIMEOUT, UNSAT, SolveResult, internal
from condfix.synth.problem import SynthesisProblem

Member = Tuple[int, Tuple[int, ...], int]  # (component, wiring, id)


def reference_solve(problem: SynthesisProblem, timeout_s: Optional[float] = None,
                    max_nodes: int = DEFAULT_NODE_BUDGET, *, deadline: Optional[float] = None,
                    indistinct_rows: bool = True, consumability: bool = True) -> SolveResult:
    """Decide ``problem`` as ``solve_internal`` does, by the plain walk;
    ``indistinct_rows`` and ``consumability`` can turn off the unsat check
    after the one-member pass and the consumability prune."""
    if not problem.components:
        columns, fixed = problem.columns, problem.fixed_assignment()
        if columns and columns[-1].type == BOOL and problem.satisfies_rows(fixed):
            return SolveResult(SAT, fixed)
        return SolveResult(UNSAT)
    if timeout_s is None:
        stop = deadline
    else:
        start = budget.now()
        stop = start + timeout_s if deadline is None else min(start + timeout_s, deadline)
        if start > stop:
            return SolveResult(TIMEOUT)
    walk = Walk(problem, Budget(max_nodes, stop), indistinct_rows, consumability)
    try:
        hit = walk.search()
    except (Exhausted, DeadlineExceeded):
        return SolveResult(TIMEOUT, nodes=walk.nodes.count)
    if hit is None:
        return SolveResult(UNSAT, nodes=walk.nodes.count)
    return SolveResult(SAT, internal._complete_model(problem, hit, walk.columns), walk.nodes.count)


def closers(problem: SynthesisProblem) -> FrozenSet[int]:
    """The bool components that can own the result slot: with one of them
    as the root, the column types, grown by the output type of each other
    component whose input types they hold until none is added, hold the
    input types of every component."""
    components, found = problem.components, set()
    for ci, root in enumerate(components):
        if root.out_type != BOOL:
            continue
        others = components[:ci] + components[ci + 1:]
        available = {c.type for c in problem.columns}
        while True:
            more = {c.out_type for c in others if available.issuperset(c.in_types)} - available
            if not more:
                break
            available |= more
        if all(available.issuperset(c.in_types) for c in components):
            found.add(ci)
    return frozenset(found)


def confounded(atoms: List[Tuple], outcomes: Tuple) -> bool:
    """Two rows that agree on every atom expect different outcomes. No atom
    proves nothing."""
    seen: Dict[Tuple, bool] = {}
    return bool(atoms) and any(seen.setdefault(key, outcome) != outcome
                               for key, outcome in zip(zip(*atoms), outcomes))


class Walk:
    """One solve's state: the interned vectors, the ids a port may take
    (``refs``: columns first, then cone members in cone order), the cone
    and the node budget."""

    def __init__(self, problem: SynthesisProblem, nodes: Budget, indistinct_rows: bool = True,
                 consumability: bool = True):
        self.components = problem.components
        self.nodes = nodes
        self.indistinct_rows, self.consumability = indistinct_rows, consumability
        self.closers = closers(problem)
        types = {c.type for c in problem.columns} | {c.out_type for c in self.components}
        self.ids: Dict[str, Dict[Tuple, int]] = {t: {} for t in types}  # by type: vector -> id
        self.vectors: List[Tuple] = []  # by id
        self.refs: Dict[str, List[int]] = {t: [] for t in types}
        values = list(zip(*[inputs for inputs, _ in problem.rows])) or [()] * len(problem.columns)
        self.columns = [self.intern(c.type, v) for c, v in zip(problem.columns, values)]
        for col, vid in zip(problem.columns, self.columns):
            self.refs[col.type].append(vid)
        self.expected = tuple(exp for _, exp in problem.rows)
        self.cone: List[Member] = []

    def intern(self, type_: str, vector: Tuple) -> int:
        ids = self.ids[type_]
        vid = ids.get(vector)
        if vid is None:
            self.vectors.append(vector)
            vid = len(self.vectors) - 1
            if all(map(eq, vector, vector)):  # a NaN equals no other value
                ids[vector] = vid
        return vid

    def vector(self, ci: int, wiring: Tuple[int, ...]) -> Tuple:
        """Component ``ci``'s values over the input ids ``wiring``, row by
        row, as ``Component.evaluate`` gives them."""
        component = self.components[ci]
        vector = tuple(map(component.entry.fn, *map(self.vectors.__getitem__, wiring)))
        return tuple(map(wrap_int, vector)) if component.wraps else vector

    def wirings(self, ci: int) -> List[Tuple[int, ...]]:
        return list(product(*[self.refs[t] for t in self.components[ci].in_types]))

    def outside(self) -> List[int]:
        inside = {ci for ci, _, _ in self.cone}
        return [ci for ci in range(len(self.components)) if ci not in inside]

    def pending(self) -> List[Member]:
        """The cone members that no wiring of the cone holds."""
        held = {vid for _, wiring, _ in self.cone for vid in wiring}
        return [member for member in self.cone if member[2] not in held]

    def search(self) -> Optional[List[Member]]:
        """The first cone that reproduces every row, or None. With no
        component that can close a cone there is none, at no node. Else the
        one-member pass closes an empty cone, and no cone has two members
        when no component takes a type that a component outputs. When every
        component outputs a bool, two rows that agree on every atom of that
        pass yet expect different outcomes prove unsat. Then each cone
        size, smallest first."""
        components = self.components
        if not self.closers:
            return None
        atoms = [self.vectors[vid] for vid in self.refs[BOOL]]
        hit = self.close(atoms)
        produced = {c.out_type for c in components}
        if hit is not None or not any(produced.intersection(c.in_types) for c in components):
            return hit
        if self.indistinct_rows and all(c.out_type == BOOL for c in components) \
                and confounded(atoms, self.expected):
            return None
        return next(filter(None, map(self.grow, range(2, len(components) + 1))), None)

    def grow(self, k: int) -> Optional[List[Member]]:
        """The first hit that completes the cone at ``k`` members, or None.
        Every wiring of every component outside the cone, in component and
        then product order, is one node. A candidate whose vector is a
        column's or a member's is dropped, and so is one that leaves a
        member that the picks left cannot consume (``consumable``)."""
        if len(self.cone) == k - 1:
            return self.close()
        seen = set(self.columns) | {vid for _, _, vid in self.cone}
        for ci in self.outside():
            out = self.components[ci].out_type
            for wiring in self.wirings(ci):
                self.nodes.advance()
                vid = self.intern(out, self.vector(ci, wiring))
                if vid in seen:
                    continue
                self.cone.append((ci, wiring, vid))
                self.refs[out].append(vid)
                if not self.consumability or self.consumable(k):
                    hit = self.grow(k)
                    if hit is not None:
                        return hit
                self.cone.pop()
                self.refs[out].pop()
        return None

    def consumable(self, k: int) -> bool:
        """Whether the ``k - len(cone)`` picks left can consume every pending
        member: a component outside the cone takes each one's type, and they
        number at most the ports of as many components outside the cone,
        those with the most ports."""
        outside = [self.components[ci] for ci in self.outside()]
        pending = [self.components[ci].out_type for ci, _, _ in self.pending()]
        if not {t for c in outside for t in c.in_types}.issuperset(pending):
            return False
        ports = sorted((c.arity for c in outside), reverse=True)
        return len(pending) <= sum(ports[:k - len(self.cone)])

    def close(self, atoms: Optional[List[Tuple]] = None) -> Optional[List[Member]]:
        """The last position: the cone with a root that reproduces every row,
        or None. Every wiring of every bool component outside the cone is
        one node; only a closer's wiring that holds every pending member is
        computed, and its vector is added to ``atoms`` on a miss. A root
        with fewer ports than there are pending members, or without a port
        of each one's type, has no such wiring."""
        pending = self.pending()
        ids = {vid for _, _, vid in pending}
        types = {self.components[ci].out_type for ci, _, _ in pending}
        tried = 0
        for ci in self.outside():
            root = self.components[ci]
            if root.out_type != BOOL:
                continue
            if ci not in self.closers or len(ids) > root.arity or not types.issubset(root.in_types):
                tried += prod([len(self.refs[t]) for t in root.in_types])
                continue
            wirings = self.wirings(ci)
            for index in compress(range(len(wirings)), map(ids.issubset, wirings)):
                vector = self.vector(ci, wirings[index])
                if vector == self.expected:
                    self.nodes.advance(tried + index + 1)
                    return self.cone + [(ci, wirings[index], self.intern(BOOL, vector))]
                if atoms is not None:
                    atoms.append(vector)
            tried += len(wirings)
        self.nodes.advance(tried)
        return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=72, help="matrices to climb")
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "perfbench"))
    import workloads  # perfbench/ is not a package
    from condfix import synth, trace

    ladder = workloads.SynthLadder(types.SimpleNamespace(synth=synth, trace=trace), args.seed, root)
    agreed = dict.fromkeys(range(synth.MIN_LEVEL, synth.MAX_LEVEL + 1), 0)
    for index, matrix in enumerate(islice(ladder.groups(), args.count)):
        for level in agreed:
            problem = synth.encode(matrix, level)
            got, want = [(result.status, result.nodes, result.model) for result in (
                synth.solve_internal(problem, None, ladder.NODE_CAP),
                reference_solve(problem, None, ladder.NODE_CAP))]
            if got != want:
                sys.exit(f"matrix {index}, level {level}: solve_internal {got}, reference {want}")
            agreed[level] += 1
            if got[0] == SAT:
                break
    print(f"seed {args.seed}, {args.count} matrices: every solve agrees; solves by level: "
          + ", ".join(f"{level}: {n}" for level, n in agreed.items()))


if __name__ == "__main__":
    main()
