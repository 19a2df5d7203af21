"""Regenerate the golden CLI outputs in ``tests/golden/``.

    PYTHONPATH=src python tests/regenerate_golden.py          # rewrite them
    PYTHONPATH=src python tests/regenerate_golden.py --check  # exit 1 if stale

Each stdout file is the output of its command in ``test_golden.COMMANDS``,
and each mode file is what ``octavib modes`` writes for its entry in
``test_golden.MODE_COMMANDS``.  Every command runs on an empty orbit-type
ring, as the tests run it.  The script names each file whose bytes differ,
so a change that means to alter an output shows which files it rewrote.
"""

import contextlib
import io
import pathlib
import sys
import tempfile

from octavib import cli, orbit_o2

from test_golden import COMMANDS, GOLDEN, MODE_COMMANDS


def _run(argv):
    orbit_o2.ring.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"octavib {' '.join(argv)} exited with {code}")
    return out.getvalue().encode()


def golden_outputs():
    """File name -> bytes of every golden file, computed afresh."""
    outputs = {name: _run(argv) for name, argv in COMMANDS.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for stem, argv in MODE_COMMANDS.items():
            _run([*argv, "--out", tmp])
            for ext in (".csv", ".json"):
                outputs[stem + ext] = (pathlib.Path(tmp) / (stem + ext)).read_bytes()
    return outputs


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    stale = []
    for name, data in sorted(golden_outputs().items()):
        path = GOLDEN / name
        if path.exists() and path.read_bytes() == data:
            continue
        stale.append(name)
        if "--check" not in argv:
            path.write_bytes(data)
    verb = "stale" if "--check" in argv else "rewrote"
    for name in stale:
        print(f"{verb} {GOLDEN / name}")
    return 1 if stale and "--check" in argv else 0


if __name__ == "__main__":
    sys.exit(main())
