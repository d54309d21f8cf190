"""Golden digest of every suite run cut short at every step budget.

For each packaged and built-in seeded bundle, every suite test is run at
each step budget from 0 to the steps its full run takes, so each run
times out once on every step it would take, in the middle of an
expression as well as between statements. The sweep is made once on the
program as written ("plain") and once with each ``if`` location forced
true and then false ("forced", each forcing a program edit made with
``decide``). Per bundle and per sweep the digest keeps
the number of runs, how many timed out, and a sha256 over the canonical
rendering of each result (see ``test_exec_digest.canonical``), in run
order. Any change to where a budget cuts a run shows here. The sweep
runs once without a deadline and once with one that does not pass: its
clock reads must change no run.

Regenerate ``tests/data/budget_sweep.json`` (only when a change to step
accounting is intended) with:

    PYTHONPATH=src python tests/test_budget_sweep.py --write

which also prints each bundle's old -> new runs and timeouts per sweep,
starring the entries that moved. A failing test lists the moved entries
in the same form.
"""
import hashlib
import time
from pathlib import Path

import pytest

from condfix.corpus import builtin_seeded_bundles, default_corpus_dir, load_corpus
from condfix.minilang import IfStmt, decide, execute
from golden import Golden
from test_exec_digest import canonical

DIGEST_PATH = Path(__file__).parent / "data" / "budget_sweep.json"


def _sweep(program, test, deadline) -> list:
    """The test's results at every budget its full run can be cut at."""
    full = execute(program, test.function, test.args)
    if full.timed_out:
        raise AssertionError(f"{test.id} exhausts the default budget; nothing to sweep")
    return [execute(program, test.function, test.args, step_budget=budget, deadline=deadline)
            for budget in range(full.steps + 1)]


def _summary(runs) -> dict:
    sha = hashlib.sha256()
    for result in runs:
        sha.update(canonical(result).encode())
        sha.update(b"\n")
    return {
        "runs": len(runs),
        "timeouts": sum(r.timed_out for r in runs),
        "sha256": sha.hexdigest(),
    }


def compute_digest(deadline=None) -> dict:
    digest = {}
    for bundle in load_corpus(default_corpus_dir()) + builtin_seeded_bundles():
        program, suite = bundle.program, bundle.suite
        ifs = [loc for loc in program.locations()
               if isinstance(program.statement_at(loc), IfStmt)]
        forcings = [decide(program, loc, value) for loc in ifs for value in (True, False)]
        plain, forced = [], []
        for test in suite:
            plain += _sweep(program, test, deadline)
            for decided in forcings:
                forced += _sweep(decided, test, deadline)
        digest[bundle.id] = {"plain": _summary(plain), "forced": _summary(forced)}
    return digest


def _counts(entry) -> str:
    if entry is None:
        return "-"
    return f"{entry['runs']} runs/{entry['timeouts']} timeouts"


GOLDEN = Golden(DIGEST_PATH, compute_digest, _counts, 8)


@pytest.mark.parametrize("seconds", [None, 3600.0], ids=["no-deadline", "distant-deadline"])
def test_budget_sweep_matches_the_golden_digest(seconds):
    expected = GOLDEN.committed()
    assert len(expected) == 18
    actual = compute_digest(None if seconds is None else time.monotonic() + seconds)
    GOLDEN.check(expected, actual, "sweep")
    assert actual.keys() == expected.keys()


if __name__ == "__main__":
    GOLDEN.main()
