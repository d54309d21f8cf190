"""Golden files of the built-in seeded corpus.

``builtin_seeded_bundles()`` with the default ``RepairConfig`` is written
with ``write_bundle``, one directory per bundle, and every file it writes
must match the sha256 committed in ``tests/data/seeded_corpus.json``: which
mutants are kept, their ids, program text, suite, human patch and meta are
all pinned here.

Regenerate ``tests/data/seeded_corpus.json`` (only when a change of the
seeded corpus is intended) with:

    PYTHONPATH=src python tests/test_seeded_golden.py --write

which also prints each (bundle, file) entry, starring the ones that moved.
A failing test lists the moved entries in the same form.
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from condfix.corpus import builtin_seeded_bundles, write_bundle

GOLDEN_PATH = Path(__file__).parent / "data" / "seeded_corpus.json"


def compute_hashes() -> dict:
    """bundle id -> file name -> sha256 of the file ``write_bundle`` wrote."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for bundle in builtin_seeded_bundles():
            directory = Path(tmp) / bundle.id
            write_bundle(bundle, directory)
            hashes[bundle.id] = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(directory.iterdir())
            }
    return hashes


def _comparison(old: dict, new: dict):
    """(line, changed) per (bundle, file) of either side, in the new side's
    order; each line shows old -> new hash prefixes, starred when moved."""
    keys = [(b, f) for b, files in new.items() for f in files]
    keys += [(b, f) for b, files in old.items() for f in files if (b, f) not in keys]
    for bundle_id, name in keys:
        before = old.get(bundle_id, {}).get(name)
        after = new.get(bundle_id, {}).get(name)
        changed = before != after
        line = f"{bundle_id:<12} {name:<16} {(before or '-')[:12]} -> {(after or '-')[:12]}"
        yield line + ("  *" if changed else ""), changed


def test_seeded_corpus_matches_the_golden_hashes():
    expected = json.loads(GOLDEN_PATH.read_text())
    moved = [line for line, changed in _comparison(expected, compute_hashes()) if changed]
    if moved:
        pytest.fail("moved seeded-corpus entries (old -> new):\n" + "\n".join(moved),
                    pytrace=False)


def _write() -> None:
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    new = compute_hashes()
    for line, _ in _comparison(old, new):
        print(line)
    GOLDEN_PATH.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_seeded_golden.py --write")
    _write()
