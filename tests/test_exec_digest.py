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
import sys
from pathlib import Path

import pytest

from condfix import angelic, corpus, testkit, trace
from condfix.corpus import (
    builtin_seeded_bundles, default_corpus_dir, load_corpus, run_harness,
)
from condfix.minilang import Null, Obj, default_registry, format_value
from equivalence_oracle import check_equivalence

DIGEST_PATH = Path(__file__).parent / "data" / "exec_digest.json"
REGISTRY = default_registry()
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
            for method in REGISTRY.methods_for(value.cls).values():
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


def test_harness_executions_match_the_golden_digest():
    expected = json.loads(DIGEST_PATH.read_text())
    assert len(expected) == 18
    moved = [line for line, changed in _comparison(expected, compute_digest()) if changed]
    if moved:
        pytest.fail("moved digest entries (old -> new):\n" + "\n".join(moved), pytrace=False)


def _counts(entry) -> str:
    if entry is None:
        return "-"
    return f"{entry['executions']} runs/{entry['steps']} steps"


def _comparison(old: dict, new: dict, counts=_counts):
    """(line, changed) per (bundle, caller) of either digest, in the new
    digest's order; each line shows the entry's old -> new ``counts``
    (runs and steps), starred when the entry moved."""
    keys = [(b, c) for b, callers in new.items() for c in callers]
    keys += [(b, c) for b, callers in old.items() for c in callers if (b, c) not in keys]
    for bundle_id, caller in keys:
        before = old.get(bundle_id, {}).get(caller)
        after = new.get(bundle_id, {}).get(caller)
        changed = before != after
        mark = ""
        if changed:
            same_counts = counts(before) == counts(after)
            mark = "  * (sha256 only)" if same_counts else "  *"
        yield f"{bundle_id:<12} {caller:<8} {counts(before)} -> {counts(after)}{mark}", changed


def _write() -> None:
    old = json.loads(DIGEST_PATH.read_text()) if DIGEST_PATH.exists() else {}
    new = compute_digest()
    for line, _ in _comparison(old, new):
        print(line)
    DIGEST_PATH.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_exec_digest.py --write")
    _write()
