"""Building blocks for expression synthesis.

Each component is one operator instance with fixed input/output types.
Comparisons map int or real pairs to bool, arithmetic maps numeric pairs
to the same numeric type, and the logical operators work on bools.
Greater-than forms are not separate components; they are reachable by
swapping operands of ``<`` and ``<=``. Division is excluded.

A component means what its operator means in MiniLang: its semantics
(``Component.entry``) come from ``minilang.values.OPERATORS`` and
``UNARY_OPERATORS``, the one table of operator semantics, so int ``+ - *``
wrap to signed 64 bits in every backend. This module keeps only each
tag's variable-name stem and SMT-LIB2 symbol (``STEMS``, ``SMT_SYMBOLS``).

The difficulty ladder has four rungs: comparisons only, plus logical
operators, plus arithmetic, and finally two instances of everything.

A solve reads its components' facts on every rung, so each is computed
once. A ``Component`` works out its arity, table entry, wrapping, whether
it commutes and its variable-name stem when it is built, as fields that
take no part in equality, hashing or ``repr``. ``components_for_level``
builds the list of each rung over each set of numeric column types once
per process, 16 lists at most, and hands every caller its own copy of the
list, holding the same ``Component`` objects.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..minilang.values import OPERATORS, UNARY_OPERATORS, Operator, wrap_int

BOOL, INT, REAL = "bool", "int", "real"

COMPARISON_TAGS = ("<", "<=", "==", "!=")
LOGICAL_TAGS = ("&&", "||", "!")
ARITHMETIC_TAGS = ("+", "-", "*")

MIN_LEVEL, MAX_LEVEL = 1, 4


# Each tag's variable-name stem and SMT-LIB2 function symbol.
STEMS = {"<": "lt", "<=": "le", "==": "eq", "!=": "ne", "&&": "and", "||": "or", "!": "not",
         "+": "add", "-": "sub", "*": "mul"}
SMT_SYMBOLS = {"<": "<", "<=": "<=", "==": "=", "!=": "distinct", "&&": "and", "||": "or",
               "!": "not", "+": "+", "-": "-", "*": "*"}


@dataclass(frozen=True)
class Component:
    tag: str
    in_types: Tuple[str, ...]
    out_type: str
    instance: int = 0
    label: Optional[str] = None  # call-style display name override
    # Facts computed once, in ``__post_init__``; none takes part in equality.
    arity: int = field(init=False, repr=False, compare=False)
    # The operator's entry in MiniLang's table of operator semantics.
    entry: Operator = field(init=False, repr=False, compare=False)
    # Results wrap to signed 64 bits, as the table's int results do.
    wraps: bool = field(init=False, repr=False, compare=False)
    # Swapping the two inputs never changes the output.
    commutes: bool = field(init=False, repr=False, compare=False)
    # Unique variable-name stem, e.g. ``le_int_0``.
    uid: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arity = len(self.in_types)
        entry = (UNARY_OPERATORS if arity == 1 else OPERATORS)[self.tag]
        stem = self.label or STEMS[self.tag]
        facts = {
            "arity": arity,
            "entry": entry,
            "wraps": entry.result is None and self.in_types[0] == INT,
            "commutes": entry.commutes,
            "uid": f"{stem}_{'_'.join(self.in_types)}_{self.instance}",
        }
        for name, value in facts.items():
            object.__setattr__(self, name, value)

    def evaluate(self, args: Sequence):
        value = self.entry.fn(*args)
        return wrap_int(value) if self.wraps else value


# The component list of each rung over each tuple of numeric column types,
# built on first request: 4 levels times 4 tuples bound it at 16 lists.
_LADDER: Dict[Tuple[int, Tuple[str, ...]], Tuple[Component, ...]] = {}


def components_for_level(level: int, column_types: Iterable[str]) -> List[Component]:
    """Component multiset for a ladder rung, instantiated only over numeric
    types that actually occur among the matrix columns (a comparison over
    reals is useless, and unwireable, without a real column). Each call
    returns a new list of components shared by every call alike."""
    if level not in range(MIN_LEVEL, MAX_LEVEL + 1):
        raise ValueError(f"level must be in [{MIN_LEVEL}, {MAX_LEVEL}], got {level}")
    present = set(column_types)
    numeric = tuple(t for t in (INT, REAL) if t in present)
    comps = _LADDER.get((level, numeric))
    if comps is None:  # two threads may build it; both return the one kept
        comps = _LADDER.setdefault((level, numeric), tuple(_rung(level, numeric)))
    return list(comps)


def _rung(level: int, numeric: Tuple[str, ...]) -> List[Component]:
    comps: List[Component] = []
    for instance in (0, 1) if level >= 4 else (0,):
        comps += [Component(tag, (t, t), BOOL, instance)
                  for t in numeric for tag in COMPARISON_TAGS]
        if level >= 2:
            comps += [Component(tag, (BOOL,) if tag == "!" else (BOOL, BOOL), BOOL, instance)
                      for tag in LOGICAL_TAGS]
        if level >= 3:
            comps += [Component(tag, (t, t), t, instance)
                      for t in numeric for tag in ARITHMETIC_TAGS]
    return comps
