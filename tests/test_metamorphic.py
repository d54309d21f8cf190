"""Metamorphic relations of the whole repair (Chen, Cheung & Yiu, HKUST TR
1998; Segura et al., TSE 2016): how ``repair``'s report must change when
its input changes in a known way. A golden file pins the answer on known
inputs; a relation also holds where no answer is known. Each relation is
checked on every packaged and seeded bundle, and on a fixed slice of the
benchmark's ``diverge`` workload, ignoring the report's time fields
(``wall_time`` and each level's ``seconds``)."""
import dataclasses
from types import SimpleNamespace

import pytest

from condfix.corpus import builtin_seeded_bundles, default_corpus_dir, load_corpus
from condfix.minilang import parse_program, render_program
from condfix.minilang.lexer import tokenize
from condfix.pipeline import RepairConfig, repair
from condfix.testkit import TestCase
from test_reference_eval import CASES, LOOPS

# A function that no test calls, of UNUSED_STATEMENTS statements.
UNUSED = """
fn unusedHelper(a: int, b: int) -> int {
  let c: int = a + b;
  if (c > 10) {
    c = c - 10;
  }
  return c;
}
"""
UNUSED_STATEMENTS = 4


def _walk_sum(pos, target):
    step = 1 if pos < target else -1
    return sum(range(pos + step, target + step, step))


# Each diverge loop with one wrong-way comparison, its Python model and
# the workload's step budget: the buggy runs and the wrongly forced runs
# use up that budget.
DIVERGE = [
    ("walk", "pos > target", lambda pos, target: abs(target - pos)),
    ("walkSum", "target <= pos", _walk_sum),
    ("meet", "a >= b", max),
]
DIVERGE_CONFIG = RepairConfig(step_budget=5_000)


def diverge_bundle(function, comparison, model):
    suite = [TestCase(f"t{i}", function, args, model(*args)) for i, args in enumerate(CASES)]
    program = parse_program(LOOPS[function].replace("COND", comparison))
    return SimpleNamespace(id=f"diverge-{function}", program=program, suite=suite,
                           config=DIVERGE_CONFIG)


BUNDLES = [SimpleNamespace(id=b.id, program=b.program, suite=b.suite, config=None)
           for b in load_corpus(default_corpus_dir()) + builtin_seeded_bundles()]
BUNDLES += [diverge_bundle(*loop) for loop in DIVERGE]
each_bundle = pytest.mark.parametrize("bundle", BUNDLES, ids=[b.id for b in BUNDLES])


def source(bundle):
    """The bundle's program as text, as its ``program.ml`` holds it."""
    return render_program(bundle.program)


def report(bundle, program_text=None, suite=None):
    """``repair``'s report on the bundle, or on ``program_text`` and
    ``suite`` in its place, under the bundle's config, as a dict without
    its time fields."""
    program = parse_program(source(bundle) if program_text is None else program_text)
    body = repair(program, bundle.suite if suite is None else suite, bundle.config).to_dict()
    del body["wall_time"]
    for trial in body["trials"]:
        for level in trial["levels"]:
            del level["seconds"]
    return body


def shifted(body, by):
    """``body`` with every location moved by ``by``: each trial's, each
    angelic tuple's and the patch's."""
    for trial in body["trials"]:
        trial["location"] += by
        for angelic in trial["angelic_tuples"]:
            angelic["loc"] += by
    if body["patch"] is not None:
        body["patch"]["location"] += by
    return body


def renaming(program_text):
    """A new name for each parameter and local, by function. A function's
    names, sorted, get new names in the reverse order (``v01`` for the
    last), so a result that depends on the names' order would change."""
    declared, function = {}, None
    tokens = tokenize(program_text)
    for i, token in enumerate(tokens):
        if token.kind == "keyword" and token.text in ("fn", "const"):
            function = tokens[i + 1].text if token.text == "fn" else None
        elif function and token.kind == "ident" and tokens[i + 1].text == ":":
            declared.setdefault(function, {})[token.text] = None
    return {
        function: {name: f"v{len(names) - rank:02d}" for rank, name in enumerate(sorted(names))}
        for function, names in declared.items()
    }


def renamed(text, names, function=None):
    """``text`` with each ident token that names a variable renamed as
    ``names`` says for the function it lies in (``function`` for text with
    no ``fn``, such as an expression). Function names (a call's), method
    names and constants keep their text."""
    tokens, edits = tokenize(text), []
    for i, token in enumerate(tokens):
        if token.kind == "keyword" and token.text in ("fn", "const"):
            function = tokens[i + 1].text if token.text == "fn" else None
        elif (token.kind == "ident" and token.text in names.get(function, {})
              and tokens[i + 1].text != "(" and (i == 0 or tokens[i - 1].text != ".")):
            edits.append((token, names[function][token.text]))
    lines = text.split("\n")
    for token, name in reversed(edits):  # right to left keeps each column valid
        line, start = lines[token.line - 1], token.column - 1
        lines[token.line - 1] = line[:start] + name + line[start + len(token.text):]
    return "\n".join(lines)


@each_bundle
def test_reversing_the_suite_keeps_the_report(bundle):
    assert report(bundle, suite=bundle.suite[::-1]) == report(bundle)


@each_bundle
def test_appending_an_unused_function_keeps_the_report(bundle):
    assert report(bundle, source(bundle) + UNUSED) == report(bundle)


@each_bundle
def test_prepending_an_unused_function_shifts_every_location(bundle):
    assert parse_program(UNUSED).locations() == list(range(1, UNUSED_STATEMENTS + 1))
    expected = shifted(report(bundle), UNUSED_STATEMENTS)
    assert report(bundle, UNUSED + source(bundle)) == expected


@each_bundle
def test_doubling_the_suite_keeps_the_answer(bundle):
    suite = bundle.suite
    doubled = suite + [dataclasses.replace(t, id=f"{t.id}_again") for t in suite]
    assert len({t.id for t in doubled}) == 2 * len(suite)
    answer = ("outcome", "reason", "patch", "level")
    once, twice = report(bundle), report(bundle, suite=doubled)
    assert {key: twice[key] for key in answer} == {key: once[key] for key in answer}


@each_bundle
def test_renaming_parameters_and_locals_renames_the_patch(bundle):
    names = renaming(source(bundle))
    program_text = renamed(source(bundle), names)
    assert program_text != source(bundle)
    expected = report(bundle)
    if expected["patch"] is not None:
        patch = expected["patch"]
        function = parse_program(source(bundle)).function_of(patch["location"])
        patch["expression"] = renamed(patch["expression"], names, function)
    assert report(bundle, program_text) == expected


def in_id_order(body):
    """``body`` with each trial's angelic tuples sorted by test id."""
    for trial in body["trials"]:
        trial["angelic_tuples"].sort(key=lambda angelic: angelic["test"])
    return body


@each_bundle
def test_renaming_the_test_ids_renames_the_tuples(bundle):
    # the new ids sort in the reverse order of the old ones; on these inputs
    # no location's reason depends on which failing test ends its search
    ids = sorted(test.id for test in bundle.suite)
    new_ids = {old: f"t{len(ids) - rank:03d}" for rank, old in enumerate(ids)}
    suite = [dataclasses.replace(test, id=new_ids[test.id]) for test in bundle.suite]
    expected = report(bundle)
    for trial in expected["trials"]:
        for angelic in trial["angelic_tuples"]:
            angelic["test"] = new_ids[angelic["test"]]
    assert in_id_order(report(bundle, suite=suite)) == in_id_order(expected)
