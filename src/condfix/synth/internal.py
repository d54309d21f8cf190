"""Built-in finite-domain backend.

The location-variable domains are finite, so satisfiability is decided by
deterministic search. The search enumerates only the producer cone that
feeds the result slot: a sequence of distinct components, each input wired
to a column or an earlier member, whose last member is bool-typed and
whose earlier members are all referenced. Cones are tried smallest first;
the first one reproducing every row is extended to a complete model by
parking the unused components on the remaining lower slots with arbitrary
valid wirings (their values cannot reach the result).

Exhausting the cone space proves unsatisfiability. The search honors both
a deadline, ``timeout_s`` after ``budget.now()`` and never later than the
caller's ``deadline``, and a deterministic node budget; crossing either
reports a timeout, never a wrong unsat. Nodes are counted through a
``budget.Budget``, which reads the clock each time the count reaches a
multiple of 4,096. A solve whose start, the read that sets its deadline,
is already past that deadline (the caller's, unless ``timeout_s`` is
negative) times out at once with no node; a timeout of zero is a deadline
that passes just after that read, so it stops the search at node 4,096.

One node is one candidate for the next cone position: a component not yet
in the cone with one wiring of its inputs. Candidates are visited in a
fixed order (components in problem order; wirings in ``itertools.product``
order over columns first, then earlier members), so under the node
budget alone the node count, the status and the model of a solve are
deterministic. Every candidate costs one node however cheaply it is
dismissed. A candidate's subtree is pruned, at no node, when a member the
cone leaves unconsumed cannot be: its type has no taker outside the cone,
or such members outnumber the ports of the components the picks left can
add, binary ones first. The cone is the search's only state, and each
component has one record of what the search reads of it (types, memo,
twin, whether it is mirrored and whether it can close a cone): ``extend``
reads both counts off the cone and the records once, on entry, against
totals taken once per solve.

Each distinct ``(type, value vector)`` gets a small int id, and each
operator semantics, a tag with its input types, memoizes its applications
on the ids of its inputs, so a repeated application is one dict lookup and
a duplicate check is one list index. Ids and memos live in the problem's
``trace.VectorTable``, one per trace matrix (hash-consing, Filliâtre and
Conchon 2006): every rung encoded from a matrix reads its rows, so each
rung finds the vectors and applications of the rungs before it, and a
ladder climb applies each operator to each input at most once. An id
names a vector's contents only, so which solve or which instance computed
it first changes no pruning, no node and no model; the two instances of
an operator at level 4 share one memo for the same reason. A solve keeps
the ids its columns and cone members hold in its own ``seen`` set, so
nothing it holds grows with the table, and holds the table's lock: two
threads solving rungs of one matrix take turns, and independent matrices
never contend. A vector holding NaN gets a fresh id each time and is
never memoized (see ``apply``), so it is the one application a climb
repeats. A wiring is the tuple of its input ids. A
member's id is no column's or other member's (``seen``); columns that hold
one vector share an id, which stands for the first of them: product order
reaches that column first, and a wiring through a later one only repeats a
subtree that has already missed.

The last two cone positions are taken in one step (``close``): a
candidate on the next-to-last position is not pushed. Every wiring of
every bool root outside the cone and the candidate is still one node, but
only a wiring that takes every unconsumed member can complete the cone, so
only those are enumerated, in product order, and the nodes before the
first hit are counted at once. One pick consumes at most two members
(every operator is unary or binary), and the candidate ``m``, the last
ref of its type, is always unconsumed. So ``m`` may leave at most one
earlier member unconsumed, each pending type needs a taker outside the
cone other than ``m``, and two pending members need a binary component
left. Then:

- when only ``m`` is unconsumed, a unary root closes as ``(m,)`` and a
  binary one as ``(x, m)``, ``x`` before ``m``, then ``(m, y)``;
- with an earlier member ``a`` unconsumed too, only a binary root closes,
  as ``(a, m)`` or ``(m, a)``.

One table there answers how a candidate closes the cone (``closing``),
built on first use in each ``extend`` call. It is keyed by the member
left pending, None or ``a``, and by the candidate's component when that
is a root, whose entry leaves the root's own wirings out, or else by its
output and input types, which components of one shape share. An entry
is empty when a pending type has no taker left, or when two pending
members have no binary component other than the candidate; otherwise it
holds the count of every root wiring outside the cone and the candidate,
with one more ref of the candidate's type, and one flat list of the
closing wirings, each with the root's memo, the root, which port ``m``
takes, the id on the other port and the count of root wirings up to and
including it. The counts come from a table of the roots outside the cone
(``root_counts``), built once per output type in each such call. The
refs do not change on this position, so ``close`` only builds each key
and looks it up, and an empty list counts the total with no ``close``
call.

A wiring with no memo entry is settled by comparing the root's results
with the expected vector row by row, up to the first row that differs
(``matches``); only a hit is applied and interned. A miss is memoized as
a marker, ``~e`` for the expected id ``e``: no id, as ids are never
negative, and it names the vector the wiring missed, so a repeated check
stays one dict lookup and an entry still depends on vector contents only.
A root's vector on the last position is never a ref, so skipping its id
changes no prune, no node and no model. Every other memo reader takes a
negative entry for no entry, applies, and the id overwrites the marker:
``extend``'s candidate lookup, where the wiring may now make a member, and
``close_empty``, whose keys hold column ids only and so meet no marker of
a problem over the same rows (``m``'s id is no column's, by ``seen``).
``close`` reads another expected vector's marker, from a problem over
other rows on the same table, as no entry too.

Two rules skip work whose outcome is already known, on every cone
position. Neither skips a hit, so neither moves a status or a model. Each
counts every node it skips through ``Budget.advance(n)``, which counts as
``n`` single advances would, so neither moves a node count, the node on
which the cap or a deadline stops the search, or the counts at which the
clock is read:

- *Twins.* A component's nearest earlier twin is the instance before it of
  its operator semantics, the component sharing its memo. While that twin
  is outside the cone, it was tried earlier in the same pass, on the same
  refs, and missed. Swapping the two instances maps each subtree of the
  twin onto the later instance's, wiring for wiring and vector for vector;
  the later one visits its candidates in another order, which changes no
  count of a subtree that misses. So on a position before the last the
  later instance's whole loop is counted as the twin's, and on the last its
  root wirings are counted and not checked. A twin inside the cone, or the
  candidate of the next-to-last position, was not tried there, so the
  later instance is.
- *Mirrors.* A mirrored component commutes (``Component.commutes``:
  ``==``, ``!=``, ``&&``, ``||``, ``+`` and ``*``) and both its ports take
  one type. A wiring's mirror gives the same vector and consumes the same
  members, and product order walks ``(j, i)`` before ``(i, j)`` for
  ``j < i``, so on a position before the last ``(i, j)`` is counted as the
  nodes that ``(j, i)`` took, its own node included. On the last position,
  with one unconsumed member ``m``, each ``(m, y)`` with ``y`` before ``m``
  mirrors an ``(x, m)`` that missed, so only ``(m, m)`` is checked; with
  two, ``(m, a)`` mirrors ``(a, m)`` and is not checked.

A root closes a cone only if every other component can park below it,
which the component shapes and the column types alone decide, once per
process for each (``_closers``); on the standard ladder every bool root
can. The wirings of a root that cannot still count as nodes.

The search starts with the one-member pass (``close_empty``): any root
wiring of the columns closes an empty cone. When no component takes a type
that a component outputs (level 1), no cone has two members, so the search
ends there. When no component outputs an int or a real (levels 1 and 2), a
failed pass can prove the problem unsat with no further search. Every
numeric port then takes a column, so every comparison in any cone is a
one-member root over a column wiring, and every other bool node is a bool
column or a component over bool nodes. On each row an expression's value
is thus a function of the bool columns and those roots, whose vector ids
the pass hands over as its atoms (not the table, which may hold the bool
vectors of deeper rungs). ``confounded`` keys the rows by the atoms: two
rows with one key that expect different outcomes make the problem unsat,
at no node beyond the pass's. The expected vector is an atom only as a
column's own: a deeper cone may still reach that column, as
``b == (b == b)`` does with two bool ``==`` components. No atom proves
nothing: then no column is bool and no comparison closes a cone (``!``
over ``==`` of two int columns), so a deeper cone may hold one untried.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import isnan, prod
from operator import eq
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .. import budget
from ..budget import Budget, Exhausted
from ..errors import DeadlineExceeded
from ..minilang.values import INT_MAX, INT_MIN, wrap_int
from .components import BOOL, REAL
from .problem import SynthesisProblem

SAT, UNSAT, TIMEOUT = "sat", "unsat", "timeout"

DEFAULT_NODE_BUDGET = 2_000_000


@dataclass
class SolveResult:
    status: str  # sat | unsat | timeout
    model: Optional[Dict[str, int]] = None
    nodes: int = 0  # search nodes of the built-in backend; 0 for an external solver

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


def solve_internal(
    problem: SynthesisProblem,
    timeout_s: Optional[float] = None,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    *,
    deadline: Optional[float] = None,
) -> SolveResult:
    """Decide ``problem`` within ``max_nodes`` nodes and by a deadline
    ``timeout_s`` after ``budget.now()``, capped at ``deadline`` (a time on
    ``budget.now``) when one is given. A NaN timeout or deadline, which no
    clock read would ever pass, raises ValueError."""
    if timeout_s is not None and isnan(timeout_s) or deadline is not None and isnan(deadline):
        raise ValueError(f"timeout_s and deadline must not be NaN, got {timeout_s} and {deadline}")
    columns = problem.columns
    components = problem.components

    if not components:
        if columns and columns[-1].type == BOOL and problem.satisfies_rows(
            problem.fixed_assignment()
        ):
            return SolveResult(SAT, problem.fixed_assignment())
        return SolveResult(UNSAT)

    if timeout_s is None:
        stop = deadline
    else:
        start = budget.now()
        stop = start + timeout_s if deadline is None else min(start + timeout_s, deadline)
        if start > stop:  # the deadline passed before the rung started
            return SolveResult(TIMEOUT)
    nodes = Budget(max_nodes, stop)
    with problem.vector_table.lock:
        try:
            found = _search_cones(problem, nodes)
        except (Exhausted, DeadlineExceeded):
            return SolveResult(TIMEOUT, nodes=nodes.count)
    if found is not None:
        return SolveResult(SAT, _complete_model(problem, *found), nodes.count)
    return SolveResult(UNSAT, nodes=nodes.count)


def _search_cones(problem: SynthesisProblem, budget: Budget):
    closers = _closers(problem)
    if not closers:
        return None
    state = _SearchState(problem, closers, budget)
    hit, atoms = state.close_empty()
    if hit is not None or not any(state.takers[c.out_type] for c in problem.components):
        return hit
    if all(c.out_type == BOOL for c in problem.components) and state.confounded(atoms):
        return None
    for k in range(2, len(problem.components) + 1):
        hit = state.extend(k)
        if hit is not None:
            return hit
    return None


def _closers(problem: SynthesisProblem) -> FrozenSet[int]:
    """The bool components that can own the result slot and so close a
    cone: those below which every other component parks, each once the
    columns or the components parked before it produce its input types,
    and whose own input types are then produced. Decided per shape from
    the columns alone, before any search; with none, no model exists.
    Cached by the shapes (input types, output type) and the column types,
    never by the components, whose dataclass hash is a Python call each:
    the rungs ``encode`` builds give 28 keys."""
    return _closing(tuple([(c.in_types, c.out_type) for c in problem.components]),
                    frozenset([c.type for c in problem.columns]))


@lru_cache(maxsize=32)
def _closing(shapes: Tuple[Tuple[Tuple[str, ...], str], ...],
             columns: FrozenSet[str]) -> FrozenSet[int]:
    verdicts: Dict[Tuple, bool] = {}
    closers = set()
    for ci, shape in enumerate(shapes):
        if shape[1] != BOOL:
            continue
        if shape not in verdicts:
            others = set(shapes[:ci] + shapes[ci + 1:])
            available = set(columns)
            while True:
                ready = {out for ins, out in others if available.issuperset(ins)}
                if ready <= available:
                    break
                available |= ready
            verdicts[shape] = all(available.issuperset(ins) for ins, _ in others | {shape})
        if verdicts[shape]:
            closers.add(ci)
    return frozenset(closers)


class _SearchState:
    """DFS over cones with interned per-row value vectors.

    Every cone member carries the id of the tuple of values it produces
    across all rows. A candidate member whose vector duplicates a
    same-typed column or an earlier member is pruned: any solution through
    the duplicate also exists through the original with a strictly smaller
    cone, which an earlier iteration already enumerated. So a wiring, the
    tuple of its input ids, uses a member exactly when it holds its id; a
    column's id stands for the first column of its vector.

    Ids, vectors and memos are the problem's ``vector_table``, shared with
    every other solve over the same matrix, and the caller holds its lock.
    Only ``seen``, the set of the ids the columns and the cone members
    hold, and the cone belong to this solve; neither is sized to the
    table. Each component has one record, read off its ``Component``'s
    precomputed facts (see ``__init__``); no per-process cache holds a
    memo, a vector or an id.

    The cone is the search's only state: one record per member, its
    component, wiring and id. ``push`` and ``pop`` add and drop the record,
    the component's ``in_cone`` flag, the id in ``seen``, and the id among
    the ids a port may take (``refs``: columns first, then cone members in
    cone order); they keep no count. Only positions before the
    next-to-last push: there ``extend`` tests each candidate against the
    members left unconsumed for the one pick left, without pushing it, and
    ``close`` tries the roots over it off the check list of its entry in
    one closing table, keyed by the candidate's shape and the member left
    pending (see the module docstring). The cone does not change there, so
    each entry, and the ``root_counts`` of each type it reads, holds for
    the whole ``extend`` call.

    On every cone position a later twin and a mirrored wiring repeat
    subtrees that just missed (see the module docstring). ``extend`` keeps
    the nodes of each component's loop and, for a mirrored component, the
    count before each wiring, and advances the budget by the recorded count
    in place of the walk; ``closing`` counts such root wirings without
    listing them for ``close`` to check.
    """

    def __init__(self, problem: SynthesisProblem, closers: FrozenSet[int], budget: Budget):
        components = problem.components
        table = problem.vector_table
        self.budget = budget
        types = {c.type for c in problem.columns} | {c.out_type for c in components}
        for t in types:
            table.ids.setdefault(t, {})
        self.ids = table.ids
        self.vectors = table.vectors  # by id
        # One record per component, in component order: its index, output
        # type, input types, memo, nearest earlier twin (the instance before
        # it of its operator semantics) or None, whether it is ``mirrored``
        # (it commutes and both its ports take one type), and whether it can
        # close a cone (see ``_closers``). The bool ones are the ``roots``,
        # the candidates of the last position, whose wirings all count as
        # nodes. ``semantics`` is ``apply``'s table, resolved once per solve
        # so the per-node path stays in C. One memo serves each operator
        # semantics, a tag with its input types: the two instances of an
        # operator at level 4 share theirs, while ``<`` over ints and over
        # reals do not.
        latest: Dict[Tuple, int] = {}
        self.records = []
        self.semantics = []
        for ci, c in enumerate(components):
            op = (c.tag, c.in_types)
            memo = table.memos.setdefault(op, {})
            twin, latest[op] = latest.get(op), ci
            mirrored = c.arity == 2 and c.commutes and c.in_types[0] == c.in_types[1]
            self.records.append((ci, c.out_type, c.in_types, memo, twin, mirrored, ci in closers))
            self.semantics.append((c.entry.fn, c.wraps, c.out_type == REAL,
                                   self.ids[c.out_type], memo))
        self.roots = [record for record in self.records if record[1] == BOOL]
        self.refs: Dict[str, List[int]] = {t: [] for t in types}
        values = list(zip(*[inputs for inputs, _ in problem.rows])) or [()] * len(problem.columns)
        self.columns = [self.intern(self.ids[c.type], v) for c, v in zip(problem.columns, values)]
        self.seen = set(self.columns)  # and the cone members' ids
        for col, vid in zip(problem.columns, self.columns):
            self.refs[col.type].append(vid)
        self.expected = self.intern(self.ids[BOOL], tuple(exp for _, exp in problem.rows))
        self.outcomes = self.vectors[self.expected]
        # A root wiring whose vector is not the expected one is memoized as
        # this marker, no id, which names the vector it missed (see ``close``).
        self.miss = ~self.expected

        self.cone: List[Tuple[int, Tuple[int, ...], int]] = []  # (component, wiring, id)
        self.in_cone = [False] * len(components)
        # Over every component: how many take each type, how many are
        # binary. ``extend`` takes the cone's members off both.
        self.takers = dict.fromkeys(types, 0)
        for c in components:
            for t in set(c.in_types):
                self.takers[t] += 1
        self.binary = sum(c.arity == 2 for c in components)

    def intern(self, ids: Dict[Tuple, int], vector: Tuple) -> int:
        """The id of ``vector`` among ``ids``, those of its type."""
        vid = ids.get(vector)
        if vid is None:
            vid = ids[vector] = self.fresh(vector)
        return vid

    def fresh(self, vector: Tuple) -> int:
        self.vectors.append(vector)
        return len(self.vectors) - 1

    def apply(self, ci: int, key: Tuple[int, ...]) -> int:
        """Id of component ``ci``'s vector over the input ids ``key``,
        computed and memoized on a memo miss."""
        fn, wraps, real, ids, memo = self.semantics[ci]
        vectors = self.vectors
        if len(key) == 2:
            vector = tuple(map(fn, vectors[key[0]], vectors[key[1]]))
        else:
            vector = tuple(map(fn, vectors[key[0]]))
        if wraps and (max(vector, default=0) > INT_MAX or min(vector, default=0) < INT_MIN):
            vector = tuple(map(wrap_int, vector))
        if real and any(v != v for v in vector):
            # A NaN equals no other value, so each application yields a
            # vector no other one matches: a fresh id, never memoized.
            return self.fresh(vector)
        vid = memo[key] = self.intern(ids, vector)
        return vid

    def push(self, ci: int, wiring: Tuple[int, ...], vid: int) -> None:
        self.refs[self.records[ci][1]].append(vid)
        self.cone.append((ci, wiring, vid))
        self.in_cone[ci] = True
        self.seen.add(vid)

    def pop(self) -> None:
        ci, _, vid = self.cone.pop()
        self.refs[self.records[ci][1]].pop()
        self.in_cone[ci] = False
        self.seen.remove(vid)

    def extend(self, k: int):
        """The first hit that grows the cone to at most ``k`` members, or
        None; a cone that leaves a member unconsumable is pruned here, on
        entry (see the module docstring)."""
        budget, seen, in_cone = self.budget, self.seen, self.in_cone
        refs, records, cone = self.refs, self.records, self.cone
        takers, binary = dict(self.takers), self.binary  # outside the cone
        used: Set[int] = set()  # the ids the cone's wirings hold
        for ci, wiring, _ in cone:
            in_types = records[ci][2]
            for t in set(in_types):
                takers[t] -= 1
            binary -= len(in_types) == 2
            used.update(wiring)
        # the members no wiring holds: id, type, index among that type's refs
        unconsumed = [(vid, records[ci][1], refs[records[ci][1]].index(vid))
                      for ci, _, vid in cone if vid not in used]
        remaining = k - len(cone)
        pairs = min(remaining, binary)
        capacity = 2 * pairs + min(remaining - pairs, len(records) - len(cone) - binary)
        if len(unconsumed) > capacity or not all(takers[t] for _, t, _ in unconsumed):
            return None
        last = len(cone) == k - 2  # each candidate here takes the next-to-last position
        if last:
            counts: Dict[str, tuple] = {}  # by output type: ``root_counts``
            # by a root's index, or any other component's output and input
            # types, and the member left pending: ``closing``
            closings: Dict[Tuple, tuple] = {}
        by_types: Dict[Tuple[str, ...], list] = {}
        spent: Dict[int, int] = {}  # the nodes of each component's wirings here
        for ci, out, in_types, memo, twin, mirrored, _ in records:
            if in_cone[ci]:
                continue
            if twin is not None and not in_cone[twin]:
                # the twin's wirings just missed; these walk the same subtrees
                spent[ci] = spent[twin]
                budget.advance(spent[ci])
                continue
            start = budget.count
            candidates = by_types.get(in_types)
            if candidates is None:  # every wiring, in product order
                candidates = by_types[in_types] = list(product(*[refs[t] for t in in_types]))
            shape = ci if out == BOOL else (out, in_types)
            if mirrored:
                n = len(refs[in_types[0]])
                starts: List[int] = []  # the count before each wiring
            for wiring in candidates:
                if mirrored:
                    i, j = divmod(len(starts), n)
                    starts.append(budget.count)
                    if j < i:  # (i, j) walks the subtree of (j, i), which missed
                        mirror = j * n + i
                        budget.advance(starts[mirror + 1] - starts[mirror])
                        continue
                budget.advance()
                vid = memo.get(wiring)
                if vid is None or vid < 0:  # not computed, or only a root's miss
                    vid = self.apply(ci, wiring)
                if vid in seen:
                    continue
                if last:
                    left = unconsumed and [m for m in unconsumed if m[0] not in wiring]
                    if len(left) > 1:
                        continue
                    a = left[0] if left else None
                    closing = closings.get((shape, a))
                    if closing is None:
                        closing = closings[shape, a] = self.closing(ci, a, takers, binary, counts)
                    if not closing:
                        continue
                    total, checks = closing
                    if not checks:
                        budget.advance(total)
                        continue
                    hit = self.close(total, checks, ci, wiring, vid)
                    if hit is not None:
                        return hit
                    continue
                self.push(ci, wiring, vid)
                hit = self.extend(k)
                if hit is not None:
                    return hit
                self.pop()
            spent[ci] = budget.count - start
        return None

    def root_counts(self, tm: str):
        """The root wirings of the roots outside the cone, with one more ref
        of type ``tm``: their total, and the roots that can close over
        ``tm``, each with the count before it and its earlier twin while
        that is outside the cone (see ``closing``)."""
        refs, in_cone = self.refs, self.in_cone
        total, closers = 0, []
        for rci, _, in_types, memo, twin, mirrored, closes in self.roots:
            if in_cone[rci]:
                continue
            if closes and tm in in_types:
                waits = None if twin is None or in_cone[twin] else twin
                closers.append((rci, in_types, memo, mirrored, total, waits))
            size = 1
            for t in in_types:
                size *= len(refs[t]) + (t == tm)
            total += size
        return total, closers

    def closing(self, ci: int, a: Optional[Tuple[int, str, int]],
                takers: Dict[str, int], binary: int, counts: Dict[str, tuple]):
        """How component ``ci`` on the next-to-last position closes the
        cone, with ``a`` the earlier member left unconsumed, or None. It is
        ``()`` when no root wiring can: ``ci``'s output type, or ``a``'s,
        would have no taker left, or no binary component other than ``ci``
        is left to take both (``takers`` and ``binary`` count the components
        outside the cone). Otherwise it is ``(total, checks)``: the root
        wirings of every root outside the cone and ``ci``, with the ref of
        ``ci`` counted among its type's, and the closing wirings, in product
        order (see the module docstring). Each check is ``(memo, root, port,
        other, nodes)``: the root's memo, which port ``ci``'s ref takes (0
        or 1, 2 for both of a binary root's, None for a unary root's), the
        id on the other port, and the root wirings up to and including this
        one. The counts come from ``root_counts`` of ``ci``'s type, built
        once per call of ``extend`` in ``counts``, less ``ci``'s own wirings
        when it is a root; the refs do not change on this position."""
        _, tm, ins = self.records[ci][:3]
        if takers[tm] <= (tm in ins) or a is not None and (
                binary <= (len(ins) == 2) or takers[a[1]] <= (a[1] in ins)):
            return ()
        table = counts.get(tm)
        if table is None:
            table = counts[tm] = self.root_counts(tm)
        total, roots = table
        refs = self.refs
        im = len(refs[tm])
        own = 0  # ``ci``'s own root wirings
        if tm == BOOL:
            own = 1
            for t in ins:
                own *= len(refs[t]) + (t == tm)
        checks = []
        for rci, in_types, memo, mirrored, tried, waits in roots:
            # a twin follows one that missed here, unless that one is ``ci``
            if rci == ci or waits is not None and waits != ci:
                continue
            if ci < rci:
                tried -= own
            if len(in_types) == 1:
                if a is None:
                    checks.append((memo, rci, None, None, tried + im + 1))
                continue
            t0, t1 = in_types
            n1 = len(refs[t1]) + (t1 == tm)
            if a is not None:  # (a, m), then (m, a) unless it mirrors (a, m)
                if t0 == a[1] and t1 == tm:
                    checks.append((memo, rci, 1, a[0], tried + a[2] * n1 + im + 1))
                if not mirrored and t0 == tm and t1 == a[1]:
                    checks.append((memo, rci, 0, a[0], tried + im * n1 + a[2] + 1))
                continue
            # (x, m) with x before m, then (m, y), mirrors of a miss skipped
            if t1 == tm:
                checks += [(memo, rci, 1, x, tried + i * n1 + im + 1)
                           for i, x in enumerate(refs[t0])]
            if t0 == tm:
                if not mirrored:
                    checks += [(memo, rci, 0, y, tried + im * n1 + j + 1)
                               for j, y in enumerate(refs[t1])]
                if t1 == tm:
                    checks.append((memo, rci, 2, None, tried + im * n1 + im + 1))
        return total - own, checks

    def close(self, total: int, checks, ci: int, wiring: Tuple[int, ...], vid: int):
        """Close the cone with component ``ci`` wired ``wiring`` (vector
        ``vid``) as ``m`` on the next-to-last position and a root on the
        last, trying the wirings of ``checks`` in order; ``total`` root
        wirings count as nodes on a miss, a hit's own count on a hit. A
        wiring whose memo has no entry is compared with the expected
        vector row by row (``matches``): a miss is memoized as ``miss``, no
        id, and only a hit is applied. The marker of another expected
        vector is no entry here. A hit is ``(cone, columns)``: the cone's
        member records with ``ci``'s and the root's, and the column ids,
        what ``_complete_model`` takes."""
        miss, expected = self.miss, self.expected
        for memo, rci, port, other, nodes in checks:
            if port is None:
                key = (vid,)
            elif port == 1:
                key = (other, vid)
            elif port == 0:
                key = (vid, other)
            else:
                key = (vid, vid)
            got = memo.get(key)
            if got is None or (got < 0 and got != miss):
                if not self.matches(rci, key):
                    memo[key] = miss
                    continue
                got = self.apply(rci, key)
            if got == expected:
                self.budget.advance(nodes)
                return self.cone + [(ci, wiring, vid), (rci, key, expected)], self.columns
        self.budget.advance(total)
        return None

    def matches(self, ci: int, key: Tuple[int, ...]) -> bool:
        """Whether bool component ``ci``'s vector over the input ids ``key``
        is the expected one, compared row by row up to the first row that
        differs; nothing is computed whole, interned or memoized."""
        fn, vectors = self.semantics[ci][0], self.vectors
        if len(key) == 2:
            results = map(fn, vectors[key[0]], vectors[key[1]])
        else:
            results = map(fn, vectors[key[0]])
        return all(map(eq, results, self.outcomes))

    def close_empty(self):
        """The one-member pass over every root wiring of the columns:
        ``(hit, None)``, a hit as ``close`` gives it, or ``(None, atoms)``,
        the ids of the bool columns and of every vector computed, all that
        ``confounded`` reads. The wirings of a twin or of a root that cannot
        close are counted only."""
        refs, expected = self.refs, self.expected
        atoms, tried = set(refs[BOOL]), 0
        for ci, _, in_types, memo, twin, _, closes in self.roots:
            if closes and twin is None:
                for index, key in enumerate(product(*[refs[t] for t in in_types])):
                    vid = memo.get(key)
                    if vid is None or vid < 0:
                        vid = self.apply(ci, key)
                    if vid == expected:
                        self.budget.advance(tried + index + 1)
                        return ([(ci, key, expected)], self.columns), None
                    atoms.add(vid)
            tried += prod([len(refs[t]) for t in in_types])
        self.budget.advance(tried)
        return None, atoms

    def confounded(self, atoms: Set[int]) -> bool:
        """Two rows that agree on every atom of a one-member pass that
        missed expect different outcomes (see the module docstring). No
        atom proves nothing."""
        if not atoms:
            return False
        vectors = self.vectors
        outcomes: Dict[Tuple, bool] = {}
        for key, outcome in zip(zip(*[vectors[vid] for vid in atoms]), vectors[self.expected]):
            if outcomes.setdefault(key, outcome) != outcome:
                return True
        return False


def _complete_model(
    problem: SynthesisProblem, cone: List[Tuple[int, Tuple[int, ...], int]], columns: List[int],
) -> Dict[str, int]:
    """Give every component a slot above the columns and wire its ports.

    Slots fill bottom up. ``first`` maps each type to the slot of its first
    producer: a column, else the first component placed that outputs it.
    Unused components park in repeated passes over ``dead``, each as soon
    as ``first`` holds its input types, and each port of one takes the
    first producer of its type, which is therefore below it. Cone members
    follow in discovery order, each followed by the unused components it
    lets park; ``cone`` holds one record per member, its component, wiring
    and id. A member's port takes the slot of its input id in ``slots``,
    which maps the id of each column (``columns``, by column) and cone
    member to the first slot that holds it. A member's id is no
    other column's or member's; two columns that hold one vector share an
    id, and the search wired the first of them: product order reaches it
    before the later one, whose wirings only repeat subtrees that missed.
    Every unused component parks before the root, the last member (see
    ``_closers``), so the root takes the final slot."""
    components = problem.components
    base = problem.num_inputs + 1
    first: Dict[str, int] = {}
    slots: Dict[int, int] = {}  # by id
    for slot, (col, vid) in enumerate(zip(problem.columns, columns), 1):
        first.setdefault(col.type, slot)
        slots.setdefault(vid, slot)
    in_cone = {ci for ci, _, _ in cone}
    dead = [ci for ci in range(len(components)) if ci not in in_cone]
    placement: List[Tuple[int, List[int]]] = []  # (component, port slots) in slot order
    for pos in range(len(cone) + 1):
        parked = True
        while parked:
            parked = False
            for ci in list(dead):
                comp = components[ci]
                if all(t in first for t in comp.in_types):
                    dead.remove(ci)
                    placement.append((ci, [first[t] for t in comp.in_types]))
                    first.setdefault(comp.out_type, base + len(placement) - 1)
                    parked = True
        if pos < len(cone):
            ci, wiring, vid = cone[pos]
            ports = [slots[v] for v in wiring]
            slots.setdefault(vid, base + len(placement))
            first.setdefault(components[ci].out_type, base + len(placement))
            placement.append((ci, ports))
    if dead:
        raise RuntimeError("could not place unused components below the result")
    model = problem.fixed_assignment()
    for slot, (ci, ports) in enumerate(placement, base):
        model[problem.output_elements[ci].name] = slot
        model.update(zip(problem.port_names[ci], ports))
    return model
