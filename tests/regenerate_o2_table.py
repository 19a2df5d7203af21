"""Regenerate the mode-1 orbit-type table ``src/octavib/o2_mode1.json``.

    PYTHONPATH=src python tests/regenerate_o2_table.py          # rewrite it
    PYTHONPATH=src python tests/regenerate_o2_table.py --check  # exit 1 if stale

The table is ``orbit_o2.build_mode1_table()``: every datum the orbit-type
ring reads about the mode-1 classes, computed by element arithmetic.  The
same text comes out on every run, so ``--check`` compares bytes; the tier-1
test ``tests/test_o2_table.py::test_committed_table_is_current`` runs it.
"""

import pathlib
import sys

from octavib import orbit_o2

TABLE = pathlib.Path(orbit_o2.TABLE)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    text = orbit_o2.build_mode1_table().encode()
    if "--check" in argv:
        if not TABLE.exists() or TABLE.read_bytes() != text:
            print(f"{TABLE} is stale; run {__file__} to regenerate it", file=sys.stderr)
            return 1
        return 0
    TABLE.write_bytes(text)
    print(f"wrote {TABLE} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
