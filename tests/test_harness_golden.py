"""Golden harness CSVs of one ``run_harness`` pass.

The pass covers the 8 packaged bundles and the built-in seeded bundles,
in that order, with the default ``RepairConfig``. Both CSVs it writes (the
per-bundle report and the wasted-effort table) must match the committed
files byte for byte: every outcome, patch expression, grid verdict and
effort figure of the harness is pinned here.

Regenerate ``tests/data/harness.csv`` and ``tests/data/harness_effort.csv``
(only when a change of harness output is intended) with:

    PYTHONPATH=src python tests/test_harness_golden.py --write

which also prints each CSV line that changed.
"""
import difflib
import sys
from pathlib import Path

from condfix.corpus import (
    builtin_seeded_bundles, default_corpus_dir, load_corpus, run_harness,
)

DATA = Path(__file__).parent / "data"
GOLDEN = {"harness.csv": "to_csv", "harness_effort.csv": "effort_table_csv"}


def compute_outputs() -> dict:
    report = run_harness(load_corpus(default_corpus_dir()) + builtin_seeded_bundles())
    return {name: getattr(report, method)() for name, method in GOLDEN.items()}


def test_harness_csvs_match_the_golden_files():
    outputs = compute_outputs()
    for name, text in outputs.items():
        assert text == (DATA / name).read_text(), name


def _write() -> None:
    for name, text in compute_outputs().items():
        path = DATA / name
        old = path.read_text() if path.exists() else ""
        for line in difflib.unified_diff(
            old.splitlines(), text.splitlines(), name, name, lineterm="", n=0
        ):
            print(line)
        path.write_text(text)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_harness_golden.py --write")
    _write()
