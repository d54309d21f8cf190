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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

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

    @property
    def arity(self) -> int:
        return len(self.in_types)

    @property
    def entry(self) -> Operator:
        """The operator's entry in MiniLang's table of operator semantics."""
        return (UNARY_OPERATORS if self.arity == 1 else OPERATORS)[self.tag]

    @property
    def wraps(self) -> bool:
        """Results wrap to signed 64 bits, as the table's int results do."""
        return self.entry.result is None and self.in_types[0] == INT

    @property
    def commutes(self) -> bool:
        """Swapping the two inputs never changes the output."""
        return self.entry.commutes

    @property
    def uid(self) -> str:
        """Unique variable-name stem, e.g. ``le_int_0``."""
        stem = self.label or STEMS[self.tag]
        return f"{stem}_{'_'.join(self.in_types)}_{self.instance}"

    def evaluate(self, args: Sequence):
        value = self.entry.fn(*args)
        return wrap_int(value) if self.wraps else value


def components_for_level(level: int, column_types: Iterable[str]) -> List[Component]:
    """Component multiset for a ladder rung, instantiated only over numeric
    types that actually occur among the matrix columns (a comparison over
    reals is useless, and unwireable, without a real column)."""
    if not MIN_LEVEL <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [{MIN_LEVEL}, {MAX_LEVEL}], got {level}")
    present = set(column_types)
    numeric = [t for t in (INT, REAL) if t in present]

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
