"""Golden digest of every interpreter run in one harness pass.

For each packaged and built-in seeded bundle, one ``run_harness`` pass is
recorded at the ``execute`` name of every module that calls it. Grid
equivalence runs its points through ``execute_rows``, which keeps no full
result, so the pass checks grids with the per-point oracle
(``equivalence_oracle``), whose runs are recorded as ``corpus``'s. Per bundle
and per calling module the digest keeps the number of executions, their
total steps, and a sha256 over a canonical rendering of each result
(value, error, timed_out, hits, steps, and the snapshots with the value
each probed ``if`` condition gave), in call order. Any change to
interpreter semantics or step accounting shows up here as a changed
digest; a change that only adds or drops runs of one caller moves only
that caller's entries.

Regenerate ``tests/data/exec_digest.json`` (only when a semantic change is
intended) with:

    PYTHONPATH=src python tests/test_exec_digest.py --write

which also prints each bundle's old -> new executions and steps per caller,
starring the entries that moved. A failing test lists the moved entries in
the same form.
"""
import functools
import hashlib
import json
from pathlib import Path

from condfix import angelic, corpus, testkit, trace
from condfix.corpus import (
    builtin_seeded_bundles, default_corpus_dir, load_corpus, run_harness,
)
from condfix.minilang import QUERIES, Null, Obj, format_value
from equivalence_oracle import check_equivalence
from golden import Golden

DIGEST_PATH = Path(__file__).parent / "data" / "exec_digest.json"
CALLERS = {m.__name__.rpartition(".")[2]: m for m in (angelic, corpus, testkit, trace)}


def _snapshot(snap) -> dict:
    """A snapshot holds values only; its nullness flags and state-query
    results are derived here as the interpreter once took them, so the
    digest still pins every value that a trace column reads."""
    null_flags, queries = {}, {}
    for name, value in snap.values.items():
        if isinstance(value, (Null, Obj)):
            null_flags[name] = isinstance(value, Null)
        if isinstance(value, Obj):
            for method in QUERIES.get(value.cls, {}).values():
                queries[f"{name}.{method.name}()"] = format_value(method.fn(value.payload))
    return {
        "values": {k: format_value(v) for k, v in snap.values.items()},
        "null_flags": null_flags,
        "queries": queries,
        "condition": None if snap.condition is None else format_value(snap.condition),
    }


def canonical(result) -> str:
    """One JSON line per result; dict keys sorted, values in literal syntax."""
    return json.dumps({
        "value": None if result.value is None else format_value(result.value),
        "error": result.error,
        "timed_out": result.timed_out,
        "hits": result.hits,
        "steps": result.steps,
        "snapshots": [_snapshot(s) for s in result.snapshots],
    }, sort_keys=True)


def _recorder(original, runs):
    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        runs.append(result)
        return result
    return recording


def _summary(runs) -> dict:
    sha = hashlib.sha256()
    for result in runs:
        sha.update(canonical(result).encode())
        sha.update(b"\n")
    return {
        "executions": len(runs),
        "steps": sum(r.steps for r in runs),
        "sha256": sha.hexdigest(),
    }


def compute_digest() -> dict:
    bundles = load_corpus(default_corpus_dir()) + builtin_seeded_bundles()
    original, batched = corpus.execute, corpus.check_equivalence
    digest = {}
    for bundle in bundles:
        runs = {name: [] for name in CALLERS}
        for name, module in CALLERS.items():
            module.execute = _recorder(original, runs[name])
        corpus.check_equivalence = functools.partial(check_equivalence, execute=corpus.execute)
        try:
            run_harness([bundle])
        finally:
            for module in CALLERS.values():
                module.execute = original
            corpus.check_equivalence = batched
        digest[bundle.id] = {caller: _summary(r) for caller, r in runs.items()}
    return digest


def _counts(entry) -> str:
    if entry is None:
        return "-"
    return f"{entry['executions']} runs/{entry['steps']} steps"


GOLDEN = Golden(DIGEST_PATH, compute_digest, _counts, 8)


def test_harness_executions_match_the_golden_digest():
    expected = GOLDEN.committed()
    assert len(expected) == 18
    GOLDEN.check(expected, compute_digest(), "digest")


if __name__ == "__main__":
    GOLDEN.main()
