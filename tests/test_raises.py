"""Every ``raise`` in the package is a driven refusal or a named guard.

An AST scan lists each ``raise`` statement of ``src/octavib`` under a key:
the dotted name of the function or class around it and the name the
statement raises, as spelled (a factory such as ``_resonance_error`` by its
own name, ``raise`` alone for a bare re-raise).  ``RAISES`` gives each key
one row per statement, in source order, so no row names a line number.

- A refusal row (``Cli`` or ``Call``) covers a ``ConfigError`` or
  ``NumericalError``: an input a user can give, the class it is refused
  with and the cause its message names, and for a command line the exit
  code.  The test drives the input and checks that the run reaches the
  statement's own line.
- A guard row (``Guard``) names the invariant the statement protects: a
  ``ConsistencyError``, or a Python exception another part of the package
  relies on.  Where a call reaches it, the row gives that call too.

A raise no row covers fails the scan, and so does a stale row: a key with no
raise left, or more rows than the key has raises.  A key whose spelled name
is a ``ConfigError`` or ``NumericalError`` class has refusal rows, one of a
``ConsistencyError`` class guard rows.
"""

import ast
import contextlib
import io
import pathlib
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np
import pytest

from octavib import _kernels, _serialize, bifurcation, cli, modes, spectral
from octavib import force_field as ff
from octavib import group_core as gc
from octavib import orbit_o2 as o2
from octavib.errors import (
    AmplitudeError,
    CatalogError,
    CollisionError,
    ConfigError,
    ConsistencyError,
    LabelingError,
    NumericalError,
    ResonanceError,
    SamplingError,
    SearchFailureError,
    ShapeError,
)

from conftest import UNSTABLE_REPORTED_9

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "octavib"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Cli(NamedTuple):
    """``octavib`` run in-process on ``argv`` (``{tmp}`` is a fresh
    directory), after writing ``files`` under it: (name, bytes) pairs, a
    name ending in "/" a directory.  The command exits with ``code``, the
    exception that leaves it is a ``error`` and stderr names ``cause``."""

    argv: str
    code: int
    error: type
    cause: str
    files: tuple = ()


class Call(NamedTuple):
    """``call(tmp)`` raises an ``error`` whose message names ``cause``."""

    call: Callable
    error: type
    cause: str


class Guard(NamedTuple):
    """The invariant a raise protects, and a call that reaches it if any."""

    invariant: str
    reach: Call | None = None


def sigma(s1, s2, s3):
    """A parameter file of these constants, as ``--config {tmp}/p.cfg`` reads it."""
    return (("p.cfg", f"sigma1={s1!r}\nsigma2={s2!r}\nsigma3={s3!r}\n".encode()),)


def read_csv(text):
    """``read_trajectory`` of a file holding ``text``."""
    def call(tmp):
        path = tmp / "mode.csv"
        path.write_text(text)
        return modes.read_trajectory(path)
    return call


def type_index(j, label):
    """The --k of the maximal type of block j with this label."""
    shop = modes.ModeWorkshop()
    return 1 + [shop.ring.label_of(c) for c in shop.types_for(j)].index(label)


def class_of(label):
    return next(ci for ci in o2.graph_classes(1) if o2.ring().label_of(ci) == label)


def nan_trajectory(tmp):
    traj = modes.ModeWorkshop().build_mode("0", 1, n_samples=8)
    modes.export_trajectory(traj._replace(samples=traj.samples * np.nan), tmp / "nan.csv")


ZERO_REPORT = spectral.stiffness_spectrum(0.0, 0.0, 0.0, 0.0, 0.0)
CFG = "--config {tmp}/p.cfg"
ZERO = sigma(0.0, 0.0, 0.0)
ROW = ",".join(["0"] * 19) + "\n"
MERGED = "resonance between isotypic blocks 6, 7, 8 and 9"
LONG_NAME = "x" * 256  # one byte over a file name's limit

RAISES = {
    # -- the CSV reader's kernel and the JSON writer
    ("_kernels._non_numeric", "ValueError"): (
        Guard("parse_values reads cells of format_float's grammar only; "
              "read_trajectory turns this into its non-numeric-sample refusal",
              Call(lambda tmp: _kernels.parse_values(b"1,2", 2), ValueError,
                   "outside format_float's grammar")),
    ),
    ("_kernels.parse_values", "RowWidthError"): (
        Guard("every row has the header's width; read_trajectory turns this "
              "into its column-count refusal",
              Call(lambda tmp: _kernels.parse_values(b"1,2,3\n", 2), _serialize.RowWidthError,
                   "rows of other than 2 cells")),
    ),
    ("_serialize._fmt", "ValueError"): (
        Guard("a JSON document holds finite numbers only",
              Call(lambda tmp: _serialize.dumps(float("nan")), ValueError, "non-finite float")),
    ),
    ("_serialize._fmt", "TypeError"): (
        Guard("a document holds JSON values and 2-D float arrays only",
              Call(lambda tmp: _serialize.dumps(object()), TypeError, "cannot serialize")),
    ),
    ("_serialize.json_rows", "ValueError"): (
        Guard("an array written as JSON rows is finite",
              Call(lambda tmp: _serialize.json_rows(np.array([[np.inf]])), ValueError,
                   "non-finite float")),
    ),
    # -- critical numbers and invariants
    ("bifurcation._check_frequencies", "ResonanceError"): (
        Call(lambda tmp: bifurcation.critical_set({"0": 0.0}, 1.0), ResonanceError,
             "alpha must be positive and finite, got 0.0 for block 0"),
    ),
    ("bifurcation.check_lambda_max", "ConfigError"): (
        Cli("critical --max inf", 2, ConfigError, "lambda_max must be finite, got inf"),
    ),
    ("bifurcation.critical_set", "ConfigError"): (
        Cli("critical --max 1e9", 2, ConfigError, "more than the bound of 262144"),
    ),
    ("bifurcation.factors_before", "ResonanceError"): (
        Call(lambda tmp: bifurcation.factors_before("0", {"0": 1.0, "4": 2.0}),
             ResonanceError, "lambda_(4,2) and lambda_(0,1) coincide"),
    ),
    ("bifurcation.InvariantEngine.__init__", "ConsistencyError"): (
        Guard("an engine holds a frequency for each block of ISOTYPIC, as "
              "checked_frequencies gives them",
              Call(lambda tmp: bifurcation.InvariantEngine({"0": 1.0}), ConsistencyError,
                   "missing frequencies for ['4', '7', '7*', '8', '9']")),
    ),
    ("bifurcation.InvariantEngine.fast_coefficient", "ConsistencyError"): (
        Guard("omega's mark at a maximal type H is a multiple of |W(H)|"),
    ),
    ("bifurcation.checked_frequencies", "_resonance_error"): (
        Cli(f"{CFG} census", 1, ResonanceError, MERGED, ZERO),
    ),
    ("bifurcation.checked_frequency", "_resonance_error"): (
        Cli(f"{CFG} modes --j 9 --out {{tmp}}/out", 1, ResonanceError, MERGED, ZERO),
    ),
    # -- ring arithmetic
    ("burnside.BurnsideElement._check", "ConsistencyError"): (
        Guard("ring arithmetic combines elements of one ring",
              Call(lambda tmp: o2.ring().unit() + 1, ConsistencyError,
                   "different ambient rings")),
    ),
    ("burnside.BurnsideRing.recurrence", "ConsistencyError"): (
        Guard("every division of the recurrence by |W(L)| is exact"),
    ),
    # -- the command line's own refusals
    ("cli._writing", "ConfigError"): (
        Cli(f"modes --j 0 --samples 8 --out {{tmp}}/{LONG_NAME}", 2, ConfigError,
            f"cannot write {{tmp}}/{LONG_NAME}: File name too long"),
    ),
    ("cli._output_directory", "ConfigError"): (
        Cli("modes --j 0 --out {tmp}/file/sub", 2, ConfigError,
            "cannot write {tmp}/file/sub: not a directory", (("file", b""),)),
    ),
    ("cli._file_path", "ConfigError"): (
        Cli(f"{CFG} modes --j 0 --out {{tmp}}", 2, ConfigError,
            "cannot write {tmp}/mode_j0_k1.csv: Is a directory",
            ZERO + (("mode_j0_k1.csv/", b""),)),
    ),
    ("cli._output_file", "ConfigError"): (
        Cli("spectrum --out {tmp}/missing", 2, ConfigError,
            "cannot write {tmp}/missing/spectrum.json: No such file or directory"),
    ),
    ("cli.cmd_critical", "raise"): (
        Cli(f"{CFG} critical", 1, ResonanceError, MERGED, ZERO),
    ),
    ("cli.cmd_invariant", "ConfigError"): (
        Cli("invariant --j 5", 2, ConfigError, "--j must be one of 0, 4, 7, 7*, 8, 9"),
    ),
    ("cli.cmd_invariant", "ConsistencyError"): (
        Guard("the fast path's maximal coefficients are those of the whole invariant"),
    ),
    # -- parameters, configurations and the equilibrium
    ("force_field.PotentialParams.__new__", "ConfigError"): (
        Cli(f"{CFG} equilibrium", 2, ConfigError, "sigma1 must be nonnegative",
            sigma(-1.0, 0.0, 1.0)),
        Cli(f"{CFG} equilibrium", 2, ConfigError,
            "sigma1=0 with sigma2>0 removes the short-range barrier", sigma(0.0, 0.5, 1.0)),
    ),
    ("force_field.load_params", "ConfigError"): (
        Cli(f"{CFG} equilibrium", 2, ConfigError,
            "cannot read {tmp}/p.cfg: No such file or directory"),
        Cli(f"{CFG} equilibrium", 2, ConfigError, "cannot read {tmp}/p.cfg: not UTF-8 text",
            (("p.cfg", b"\xff\n"),)),
        Cli(f"{CFG} equilibrium", 2, ConfigError,
            "{tmp}/p.cfg:1: expected key=value, got 'sigma1'", (("p.cfg", b"sigma1\n"),)),
        Cli(f"{CFG} equilibrium", 2, ConfigError, "{tmp}/p.cfg:1: unknown key 'sigma4'",
            (("p.cfg", b"sigma4=1\n"),)),
        Cli(f"{CFG} equilibrium", 2, ConfigError,
            "{tmp}/p.cfg:2: repeated key 'sigma1', first set on line 1",
            (("p.cfg", b"sigma1=1\nsigma1=2\n"),)),
        Cli(f"{CFG} equilibrium", 2, ConfigError, "{tmp}/p.cfg:1: bad number 'x'",
            (("p.cfg", b"sigma1=x\n"),)),
        Cli(f"{CFG} equilibrium", 2, ConfigError,
            "{tmp}/p.cfg:1: sigma1 must be finite, got 'inf'", (("p.cfg", b"sigma1=inf\n"),)),
        Cli(f"{CFG} equilibrium", 2, ConfigError, "{tmp}/p.cfg: missing sigma2, sigma3",
            (("p.cfg", b"sigma1=1\n"),)),
    ),
    ("force_field._one", "ShapeError"): (
        Call(lambda tmp: ff.gradient(ff.REFERENCE_PARAMS, np.zeros(5)), ShapeError,
             "configuration must be (6,3) or (18,), got (5,)"),
    ),
    ("force_field.check_configurations", "ShapeError"): (
        Call(lambda tmp: ff.gradients(ff.REFERENCE_PARAMS, np.zeros((2, 5))), ShapeError,
             "configurations must be (n,6,3) or (n,18), got (2, 5)"),
    ),
    ("force_field.check_configurations", "CollisionError"): (
        Call(lambda tmp: ff.gradient(ff.REFERENCE_PARAMS, np.zeros((6, 3))), CollisionError,
             "ligand 1 coincides with the central atom"),
    ),
    ("force_field.find_equilibrium", "SearchFailureError"): (
        Cli(f"{CFG} equilibrium", 1, SearchFailureError,
            "no sign change of phi' in (0.001, 1000)", sigma(1e300, 0.0, 0.0)),
    ),
    ("force_field.equilibrium_stiffness", "ShapeError"): (
        Call(lambda tmp: ff.hessian_blocks(ff.REFERENCE_PARAMS, 2.0), ShapeError,
             "only valid at the octahedral equilibrium radius"),
    ),
    # -- the group tables, built once from constants
    ("group_core._build_group", "ConsistencyError"): (
        Guard("the generator images define a homomorphism of the rotations"),
        Guard("the rotation subgroup has 24 elements"),
    ),
    ("group_core.element_from_word", "ConsistencyError"): (
        Guard("a catalog word moves vertices 1 to 4, and 5 and 6 only as the swap (56)"),
        Guard("a catalog word names an element of the group"),
    ),
    ("group_core.Catalog.__init__", "ConsistencyError"): (
        Guard("the reference words of two labels close to different classes"),
    ),
    # -- modes
    ("modes.ModeWorkshop.types_for", "ConfigError"): (
        Cli("modes --j 5 --out {tmp}", 2, ConfigError, "unknown isotypic label '5'"),
    ),
    ("modes.ModeWorkshop.build_mode", "ConfigError"): (
        Cli("modes --j 0 --eps=-1 --out {tmp}", 2, ConfigError,
            "epsilon must be finite and nonnegative, got -1.0"),
        Cli("modes --j 0 --samples 4 --out {tmp}", 2, ConfigError,
            "need at least 8 samples per period"),
        Cli("modes --j 0 --samples 65537 --out {tmp}", 2, ConfigError,
            "65537 samples per period exceed the bound of 65536"),
        Cli("modes --j 0 --k 2 --out {tmp}", 2, ConfigError,
            "block 0 has 1 maximal types; k=2 is out of range"),
    ),
    ("modes.ModeWorkshop.build_mode_for_type", "AmplitudeError"): (
        Cli("modes --j 0 --eps 10 --out {tmp}", 1, AmplitudeError,
            "amplitude 10.0 exceeds the collision-safe bound"),
    ),
    ("modes.ModeWorkshop.build_mode_for_type", "ConsistencyError"): (
        Guard("every maximal type of a block has a fixed pair in that block"),
    ),
    ("modes._shift_groups", "SamplingError"): (
        Cli(f"modes --j 8 --k {type_index('8', 'D_3^{Z_1} x_{D_3} D_3^p')} --samples 50 "
            "--out {tmp}", 2, SamplingError,
            "phase 1/3 of a turn needs the sample count to be a multiple of 3"),
    ),
    ("modes.export_trajectory", "ValueError"): (
        Guard("a built mode's samples are finite",
              Call(nan_trajectory, ValueError, "non-finite sample")),
    ),
    ("modes.read_trajectory", "ConfigError"): (
        Call(read_csv("t\n"), ConfigError, "unexpected CSV header in"),
        Call(read_csv(f"{modes.CSV_HEADER}\n1,2\n"), ConfigError,
             "do not all have 19 columns"),
        Call(read_csv(f"{modes.CSV_HEADER}\nx{ROW[1:]}"), ConfigError,
             "non-numeric sample in"),
        Call(read_csv(f"{modes.CSV_HEADER}\n"), ConfigError, "no samples in"),
    ),
    ("modes.read_trajectory", "raise"): (
        Guard("the kernel's refusal, when no blank line explains it, goes on "
              "to the non-numeric-sample refusal",
              Call(read_csv(f"{modes.CSV_HEADER}\nx{ROW[1:]}"), ConfigError,
                   "non-numeric sample in")),
    ),
    # -- orbit types
    ("orbit_o2._conjugators", "ConsistencyError"): (
        Guard("alignment runs on reflection-containing subgroups only"),
    ),
    ("orbit_o2.ConcreteSubgroup.weyl_order", "ConsistencyError"): (
        Guard("a normalizer's size is a multiple of the subgroup's order"),
    ),
    ("orbit_o2.mode_cover", "CatalogError"): (
        Call(lambda tmp: o2.mode_cover(o2.ConcreteSubgroup(o2.closure([o2.encode(0, 315, gc.IDENTITY)])), 2),
             CatalogError, f"mode 2 cover off the 1/{o2.GRID} grid"),
    ),
    ("orbit_o2.TemporalOctahedralRing.find_class", "CatalogError"): (
        Call(lambda tmp: o2.ring().find_class(
                 o2.mode_cover(o2.ring().representative(class_of("D_1 x Z_1")), 2)),
             CatalogError, "subgroup conjugate to no mode-1 class"),
    ),
    ("orbit_o2.TemporalOctahedralRing.weyl", "ConsistencyError"): (
        Guard("ring arithmetic runs on classes of finite Weyl group only"),
    ),
    ("orbit_o2._reference_hits", "ConsistencyError"): (
        Guard("each red family of the reference table matches one mode-1 class"),
    ),
    # -- the spectrum
    ("spectral.SpectrumReport.alpha", "KeyError"): (
        Guard("a block label names a line of the report",
              Call(lambda tmp: ZERO_REPORT.alpha("3"), KeyError, "'3'")),
    ),
    ("spectral.SpectrumReport.basis_for", "KeyError"): (
        Guard("a block label names a line of the report",
              Call(lambda tmp: ZERO_REPORT.basis_for("3"), KeyError, "'3'")),
    ),
    ("spectral._frequency", "NonPositiveFrequencyError"): (
        Cli(f"{CFG} census", 1, spectral.NonPositiveFrequencyError,
            "block 9 has alpha^2 = -0.00013", sigma(*UNSTABLE_REPORTED_9)),
    ),
    ("spectral.numeric_spectrum", "ShapeError"): (
        Call(lambda tmp: spectral.numeric_spectrum(np.zeros((3, 3))), ShapeError,
             "expected an 18x18 matrix, got (3, 3)"),
        Call(lambda tmp: spectral.numeric_spectrum(np.triu(np.ones((18, 18)))), ShapeError,
             "matrix is not symmetric"),
        Call(lambda tmp: spectral.numeric_spectrum(np.diag(np.arange(18.0))), ShapeError,
             "matrix does not commute with the octahedral action"),
    ),
    ("spectral.assign_eigenspaces", "LabelingError"): (
        Guard("the lines of an equivariant matrix are isotypic: each line's "
              "character is a row of the character table",
              Call(lambda tmp: spectral.assign_eigenspaces(spectral.SpectrumReport(
                       (spectral.SpectrumLine("0", 1.0, 1),), np.eye(18)[:, :1])),
                   LabelingError, "matches no irreducible character")),
    ),
}


# -- the scan ---------------------------------------------------------------

def raises(sources):
    """{key: [line of each raise, in source order]} of {module: source}."""
    out = {}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES):
                visit(child, module, (*scope, child.name))
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = "raise" if exc is None else ast.unparse(exc)
                key = (".".join((module, *scope)), name)
                out.setdefault(key, []).append(child.lineno)
            visit(child, module, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module, ())
    return out


def findings(sources, table):
    """(raises no row covers, stale rows), each as 'key #n' strings."""
    found = raises(sources)
    unlisted = [f"{key} #{n + 1}" for key, lines in found.items()
                for n in range(len(table.get(key, ())), len(lines))]
    stale = [f"{key} #{n + 1}" for key, rows in table.items()
             for n in range(len(found.get(key, ())), len(rows))]
    return unlisted, stale


def package_sources():
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


LINES = raises(package_sources())


def spelled_class(key):
    """The exception class a key's spelled name binds in its module, or None."""
    found = getattr(sys.modules[f"octavib.{key[0].split('.')[0]}"], key[1], None)
    return found if isinstance(found, type) and issubclass(found, Exception) else None


def test_every_raise_has_a_row_and_every_row_a_raise():
    start = time.perf_counter()
    unlisted, stale = findings(package_sources(), RAISES)
    assert not unlisted, f"raises with no row in RAISES: {unlisted}"
    assert not stale, f"stale rows of RAISES: {stale}"
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("key", sorted(RAISES), ids="{0[0]}:{0[1]}".format)
def test_user_errors_are_refusals_and_consistency_errors_guards(key):
    cls = spelled_class(key)
    refusals = [not isinstance(row, Guard) for row in RAISES[key]]
    if cls is not None and issubclass(cls, (ConfigError, NumericalError)):
        assert all(refusals)
    if cls is not None and issubclass(cls, ConsistencyError):
        assert not any(refusals)
    for row in RAISES[key]:
        if isinstance(row, Guard):
            assert row.invariant.strip()
        else:
            assert issubclass(row.error, (ConfigError, NumericalError)), row


# -- driving the rows -------------------------------------------------------

class Reached:
    """Trace a run: the raise lines of the package it executes, as (module,
    line), and the class of the first exception leaving a command of
    ``cli.main``."""

    def __init__(self):
        self.sites = defaultdict(set)  # module -> raise lines
        for (dotted, _), lines in LINES.items():
            self.sites[dotted.split(".")[0]].update(lines)
        self.codes = {}  # code object -> (module, its raise lines)
        self.lines = set()
        self.escaped = None

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code is cli.main.__code__:
            return self._main
        if code not in self.codes:
            path = pathlib.Path(code.co_filename).resolve()
            sites = self.sites[path.stem] if path.parent == PACKAGE else set()
            self.codes[code] = path.stem, sites & {line for _, _, line in code.co_lines()}
        return self._line if self.codes[code][1] else None

    def _line(self, frame, event, arg):
        module, sites = self.codes[frame.f_code]
        if event == "line" and frame.f_lineno in sites:
            self.lines.add((module, frame.f_lineno))
        return self._line

    def _main(self, frame, event, arg):
        if event == "exception" and self.escaped is None:
            self.escaped = arg[0]
        return self._main

    @contextlib.contextmanager
    def tracing(self):
        previous = sys.gettrace()
        sys.settrace(self._call)
        try:
            yield self
        finally:
            sys.settrace(previous)


def rows():
    """(key, n, row) of every row that gives an input, n its raise's index."""
    for key, entries in RAISES.items():
        for n, row in enumerate(entries):
            call = row.reach if isinstance(row, Guard) else row
            if call is not None:
                yield pytest.param(key, n, call, id=f"{key[0]}:{key[1]}#{n + 1}")


@pytest.mark.parametrize("key, n, row", list(rows()))
def test_row_reaches_its_raise(tmp_path, key, n, row):
    reached = Reached()
    if isinstance(row, Cli):
        for name, data in row.files:
            if name.endswith("/"):
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        argv = row.argv.format(tmp=tmp_path).split()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), reached.tracing():
            code = cli.main(argv)
        assert code == row.code, err.getvalue()
        assert reached.escaped is row.error
        assert row.cause.format(tmp=tmp_path) in err.getvalue()
        assert err.getvalue().count("\n") == 1
    else:
        with pytest.raises(row.error) as exc, reached.tracing():
            row.call(tmp_path)
        assert type(exc.value) is row.error
        assert row.cause in str(exc.value)
    module = key[0].split(".")[0]
    assert (module, LINES[key][n]) in reached.lines, sorted(reached.lines)


# -- the scan on planted sources --------------------------------------------

PLANTED = {
    "core": (
        "def check(x):\n"
        "    if x < 0:\n"
        "        raise ConfigError('negative')\n"
        "    try:\n"
        "        return 1 / x\n"
        "    except ZeroDivisionError:\n"
        "        raise\n"
        "\n"
        "class Ring:\n"
        "    def weyl(self, ci):\n"
        "        raise ConsistencyError('infinite')\n"
    ),
}


class TestScan:
    def test_keys_are_scope_and_spelled_class(self):
        assert raises(PLANTED) == {
            ("core.check", "ConfigError"): [3],
            ("core.check", "raise"): [7],
            ("core.Ring.weyl", "ConsistencyError"): [11],
        }

    def test_flags_an_unlisted_raise(self):
        table = {("core.check", "ConfigError"): (Guard("x"),),
                 ("core.Ring.weyl", "ConsistencyError"): (Guard("y"),)}
        assert findings(PLANTED, table) == (["('core.check', 'raise') #1"], [])

    def test_flags_stale_rows(self):
        table = {("core.check", "ConfigError"): (Guard("x"), Guard("x")),
                 ("core.check", "raise"): (Guard("y"),),
                 ("core.Ring.weyl", "ConsistencyError"): (Guard("z"),),
                 ("core.gone", "ValueError"): (Guard("w"),)}
        assert findings(PLANTED, table) == (
            [], ["('core.check', 'ConfigError') #2", "('core.gone', 'ValueError') #1"]
        )

    def test_the_package_keys_name_their_classes(self):
        assert spelled_class(("spectral._frequency", "NonPositiveFrequencyError")) is (
            spectral.NonPositiveFrequencyError
        )
        assert spelled_class(("bifurcation.checked_frequency", "_resonance_error")) is None
        assert spelled_class(("cli.cmd_critical", "raise")) is None
