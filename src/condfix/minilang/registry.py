"""Registry of argumentless, side-effect-free state query methods.

Classes have no user-definable methods; the only callable surface on a
record value is the set of queries registered for its class tag.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from ..errors import ResolutionError


@dataclass(frozen=True)
class QueryMethod:
    name: str
    return_type: str  # bool | int | real
    fn: Callable[[Any], object]


@dataclass
class StateQueryRegistry:
    classes: Dict[str, Dict[str, QueryMethod]] = field(default_factory=dict)

    def register(self, class_name: str, method: QueryMethod) -> None:
        self.classes.setdefault(class_name, {})[method.name] = method

    def methods_for(self, class_name: str):
        return dict(sorted(self.classes.get(class_name, {}).items()))

    def lookup(self, class_name: str, method_name: str) -> QueryMethod:
        methods = self.classes.get(class_name, {})
        if method_name not in methods:
            raise ResolutionError(
                f"no state query {method_name!r} registered for class {class_name!r}"
            )
        return methods[method_name]


def default_registry() -> StateQueryRegistry:
    reg = StateQueryRegistry()
    reg.register("Str", QueryMethod("length", "int", lambda p: len(p)))
    reg.register("Str", QueryMethod("isEmpty", "bool", lambda p: len(p) == 0))
    return reg
