"""Bundle-keyed golden files: compare, report moved entries, regenerate.

A golden file is a JSON object from bundle id to an object of entries
(one per caller, sweep or written file). A test module keeps its own
compute function, entry rendering and data file, and shares the rest
through one ``Golden``:

    GOLDEN = Golden(DATA_PATH, compute, show, width)

``GOLDEN.check(GOLDEN.committed(), actual, "digest")`` fails a test with
the entries that moved, and ``GOLDEN.main()`` is the module's ``--write`` command, which prints
every entry's old -> new rendering, starring the ones that moved, and
rewrites the file. pytest does not collect this module.
"""
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Tuple

import pytest


@dataclass(frozen=True)
class Golden:
    path: Path
    compute: Callable[[], dict]
    # An entry, or None for one a side lacks, as its line shows it.
    show: Callable[[Optional[object]], str]
    width: int  # of the entry-key column

    def committed(self) -> dict:
        return json.loads(self.path.read_text())

    def comparison(self, old: dict, new: dict) -> Iterator[Tuple[str, bool]]:
        """(line, changed) per (bundle, key) of either side, in the new
        side's order; each line shows the entry's old -> new rendering,
        starred when the entry moved, and marked when only its sha256
        did."""
        keys = [(b, k) for b, entries in new.items() for k in entries]
        keys += [(b, k) for b, entries in old.items() for k in entries if (b, k) not in keys]
        for bundle_id, key in keys:
            before = old.get(bundle_id, {}).get(key)
            after = new.get(bundle_id, {}).get(key)
            changed = before != after
            mark = ""
            if changed:
                mark = "  * (sha256 only)" if _sha256_only(before, after) else "  *"
            line = f"{bundle_id:<12} {key:<{self.width}} {self.show(before)} -> {self.show(after)}"
            yield line + mark, changed

    def check(self, expected: dict, actual: dict, what: str) -> None:
        """Fail the calling test with every entry ``actual`` moves."""
        moved = [line for line, changed in self.comparison(expected, actual) if changed]
        if moved:
            pytest.fail(f"moved {what} entries (old -> new):\n" + "\n".join(moved),
                        pytrace=False)

    def main(self) -> None:
        """The ``--write`` command: print the comparison, rewrite the file."""
        if sys.argv[1:] != ["--write"]:
            sys.exit(f"usage: {Path(sys.argv[0]).name} --write")
        old = self.committed() if self.path.exists() else {}
        new = self.compute()
        for line, _ in self.comparison(old, new):
            print(line)
        self.path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")


def _sha256_only(before, after) -> bool:
    """Both entries are digests, which differ in their sha256 alone."""
    if not (isinstance(before, dict) and isinstance(after, dict)):
        return False
    return {**before, "sha256": None} == {**after, "sha256": None}
