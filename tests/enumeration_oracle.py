"""Independent brute-force oracle for the synthesis path, used by tests.

Exhaustively enumerates typed expression trees (smallest first) over the
same columns and component multiset a ladder rung offers, each component
instance used at most once, and returns the first tree whose evaluation
reproduces every row. The tree evaluator here is intentionally separate
from the model decoder so the two routes stay independent.

Meant for small instances only: the preconditions cap rows, level, and
tree size.
"""
from __future__ import annotations

from itertools import product
from typing import List, Optional, Tuple

from condfix.synth import BOOL, components_for_level
from condfix.trace import TraceMatrix

MAX_ORACLE_ROWS = 64
MAX_ORACLE_LEVEL = 2
MAX_ORACLE_SIZE = 7

# A tree is ("leaf", column_index) or ("app", component_index, (subtrees...)).
Tree = Tuple


def enumerate_oracle(
    matrix: TraceMatrix, level: int, size_bound: int
) -> Optional[Tree]:
    """First expression tree (by size, then enumeration order) matching all
    rows, or None if the bounded space holds no match. The root is always a
    component application, mirroring the synthesized result shape."""
    if len(matrix.rows) > MAX_ORACLE_ROWS:
        raise ValueError(f"oracle accepts at most {MAX_ORACLE_ROWS} rows")
    if level > MAX_ORACLE_LEVEL:
        raise ValueError(f"oracle accepts levels up to {MAX_ORACLE_LEVEL}")
    if size_bound > MAX_ORACLE_SIZE:
        raise ValueError(f"oracle accepts size bounds up to {MAX_ORACLE_SIZE}")
    if not matrix.rows:
        raise ValueError("matrix has no rows")

    components = components_for_level(level, [c.type for c in matrix.columns])
    columns = matrix.columns
    rows = [(r.inputs, r.expected) for r in matrix.rows]

    for target in range(2, size_bound + 1):
        for tree in _trees(target, BOOL, columns, components, frozenset(), True):
            if _matches(tree, components, rows):
                return tree
    return None


def _trees(size, type_, columns, components, used, root: bool):
    """All trees of exactly ``size`` nodes producing ``type_``; the unused
    instance set threads through so no component repeats within a tree."""
    if size < 1:
        return
    if size == 1:
        if not root:
            for i, col in enumerate(columns):
                if col.type == type_:
                    yield ("leaf", i)
        return
    for ci, comp in enumerate(components):
        if ci in used or comp.out_type != type_:
            continue
        for shape in _splits(size - 1, comp.arity):
            pools = []
            for k, sub_size in enumerate(shape):
                pools.append(
                    list(
                        _trees(
                            sub_size, comp.in_types[k], columns, components,
                            used | {ci}, False,
                        )
                    )
                )
            for args in product(*pools):
                instances = [ci]
                ok = True
                for arg in args:
                    arg_instances = _instances(arg)
                    if any(i in instances for i in arg_instances):
                        ok = False
                        break
                    instances.extend(arg_instances)
                if ok:
                    yield ("app", ci, tuple(args))


def _splits(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _splits(total - first, parts - 1):
            yield (first,) + rest


def _instances(tree: Tree) -> List[int]:
    if tree[0] == "leaf":
        return []
    out = [tree[1]]
    for arg in tree[2]:
        out.extend(_instances(arg))
    return out


def _matches(tree, components, rows) -> bool:
    for inputs, expected in rows:
        if _eval_tree(tree, components, inputs) != expected:
            return False
    return True


def _eval_tree(tree, components, inputs):
    if tree[0] == "leaf":
        return inputs[tree[1]]
    comp = components[tree[1]]
    return comp.evaluate([_eval_tree(a, components, inputs) for a in tree[2]])


def tree_to_source(tree: Tree, matrix: TraceMatrix, components=None, level=1) -> str:
    components = components or components_for_level(
        level, [c.type for c in matrix.columns]
    )
    if tree[0] == "leaf":
        return matrix.columns[tree[1]].name
    comp = components[tree[1]]
    args = [tree_to_source(a, matrix, components) for a in tree[2]]
    if comp.arity == 1:
        return f"{comp.tag}({args[0]})"
    return f"({args[0]} {comp.tag} {args[1]})"
