"""Golden files of the built-in seeded corpus.

``builtin_seeded_bundles()``, which runs no repair, is written with
``write_bundle``, one directory per bundle, and every file it writes
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
import tempfile
from pathlib import Path

from condfix.corpus import builtin_seeded_bundles, write_bundle
from golden import Golden

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


def _prefix(sha256) -> str:
    return (sha256 or "-")[:12]


GOLDEN = Golden(GOLDEN_PATH, compute_hashes, _prefix, 16)


def test_seeded_corpus_matches_the_golden_hashes():
    GOLDEN.check(GOLDEN.committed(), compute_hashes(), "seeded-corpus")


if __name__ == "__main__":
    GOLDEN.main()
