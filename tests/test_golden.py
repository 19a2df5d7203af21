"""CLI output at the reference parameters against the files in tests/golden/.

Each command runs on an empty orbit-type ring, so its output may not depend
on what the process computed before.  The stdout files are the output of the
command line ``octavib <args> > tests/golden/<name>``; the mode files are the
CSV and manifest that ``octavib modes <args> --out tests/golden`` writes.  A
change that means to alter an output rewrites its file in the same commit.
"""

import contextlib
import io
import pathlib

import pytest

from octavib import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

COMMANDS = {
    "equilibrium.txt": ["equilibrium"],
    "spectrum.txt": ["spectrum"],
    "critical.txt": ["critical"],
    "invariant_j0.txt": ["invariant", "--j", "0"],
    "invariant_j4.txt": ["invariant", "--j", "4"],
    "invariant_j7.txt": ["invariant", "--j", "7"],
    "invariant_j7s.txt": ["invariant", "--j", "7*"],
    "invariant_j8.txt": ["invariant", "--j", "8"],
    "invariant_j8_full.txt": ["invariant", "--j", "8", "--full"],
    "invariant_j9.txt": ["invariant", "--j", "9"],
    "invariant_j9_full.txt": ["invariant", "--j", "9", "--full"],
    "census.txt": ["census"],
    "catalog_dump.txt": ["catalog", "--catalog-dump"],
}

# the stem of the files `modes` writes -> its arguments
MODE_COMMANDS = {
    "mode_j0_k1": ["modes", "--j", "0", "--k", "1", "--samples", "24"],
    "mode_j9_k5": ["modes", "--j", "9", "--k", "5", "--samples", "24"],
}
MODE_FILES = [stem + ext for stem in MODE_COMMANDS for ext in (".csv", ".json")]


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*COMMANDS, *MODE_FILES])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_is_byte_identical(name, fresh_ring):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(COMMANDS[name])
    assert code == 0
    assert out.getvalue().encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("stem", sorted(MODE_COMMANDS))
def test_mode_files_are_byte_identical(stem, fresh_ring, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*MODE_COMMANDS[stem], "--out", str(tmp_path)])
    assert code == 0
    for ext in (".csv", ".json"):
        assert (tmp_path / (stem + ext)).read_bytes() == (GOLDEN / (stem + ext)).read_bytes()
