"""Metamorphic relations of the whole repair (Chen, Cheung & Yiu, HKUST TR
1998; Segura et al., TSE 2016): how ``repair``'s report must change when
its input changes in a known way. A golden file pins the answer on known
inputs; a relation also holds where no answer is known. Each relation is
checked on every packaged and seeded bundle, ignoring the report's time
fields (``wall_time`` and each level's ``seconds``)."""
import dataclasses

import pytest

from condfix.corpus import builtin_seeded_bundles, default_corpus_dir, load_corpus
from condfix.minilang import parse_program, render_program
from condfix.minilang.lexer import tokenize
from condfix.pipeline import repair

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

BUNDLES = load_corpus(default_corpus_dir()) + builtin_seeded_bundles()
each_bundle = pytest.mark.parametrize("bundle", BUNDLES, ids=[b.id for b in BUNDLES])


def source(bundle):
    """The bundle's program as text, as its ``program.ml`` holds it."""
    return render_program(bundle.program)


def report(program_text, suite):
    """``repair``'s report as a dict, without its time fields."""
    body = repair(parse_program(program_text), suite).to_dict()
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
    suite = bundle.suite
    assert report(source(bundle), suite[::-1]) == report(source(bundle), suite)


@each_bundle
def test_appending_an_unused_function_keeps_the_report(bundle):
    suite = bundle.suite
    assert report(source(bundle) + UNUSED, suite) == report(source(bundle), suite)


@each_bundle
def test_prepending_an_unused_function_shifts_every_location(bundle):
    suite = bundle.suite
    assert parse_program(UNUSED).locations() == list(range(1, UNUSED_STATEMENTS + 1))
    expected = shifted(report(source(bundle), suite), UNUSED_STATEMENTS)
    assert report(UNUSED + source(bundle), suite) == expected


@each_bundle
def test_doubling_the_suite_keeps_the_answer(bundle):
    suite = bundle.suite
    doubled = suite + [dataclasses.replace(t, id=f"{t.id}_again") for t in suite]
    assert len({t.id for t in doubled}) == 2 * len(suite)
    answer = ("outcome", "reason", "patch", "level")
    once, twice = report(source(bundle), suite), report(source(bundle), doubled)
    assert {key: twice[key] for key in answer} == {key: once[key] for key in answer}


@each_bundle
def test_renaming_parameters_and_locals_renames_the_patch(bundle):
    suite, names = bundle.suite, renaming(source(bundle))
    program_text = renamed(source(bundle), names)
    assert program_text != source(bundle)
    expected = report(source(bundle), suite)
    if expected["patch"] is not None:
        patch = expected["patch"]
        function = parse_program(source(bundle)).function_of(patch["location"])
        patch["expression"] = renamed(patch["expression"], names, function)
    assert report(program_text, suite) == expected
