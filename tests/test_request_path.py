"""The package is the request path: each name ``src/octavib`` binds is read
somewhere outside the code that binds it.

An AST scan collects three kinds of binding:
- every module-level function and class of the package and every method of
  such a class;
- every name a module-level assignment binds (``Assign`` or ``AnnAssign``,
  tuple targets included);
- every instance attribute, ``self.<name> = ...`` in a method of a package
  class.

It then collects every name each module reads: a bare name, an attribute or
a name a ``from ... import`` brings in.  A binding counts as used when its
name is read in another package module, in perfbench's op code (``ops.py``,
``worker.py``, ``run.py``), or in its own module outside its own lines: the
definition, the assignment statement, or the method that sets the attribute.
So a name that only its own body reads, by recursion, is unused, and so is
an attribute that only the method building it reads back.  An attribute is
read only as an attribute: a local variable of the same spelling is no
reader.  Names match by spelling alone.  Dunder names are exempt: Python
reads them itself.  ``perfbench/tracing.py`` is not read, since pinning a
name for the tracer is not using it.

A name the scan flags may stay only if ``KEPT`` names it with its reason; an
entry whose name is gone or now has a reader is stale.  ``KEPT`` is what is
left to move out of ``src/`` once the tracer no longer pins it.
"""

import ast
import pathlib
import time
from collections import defaultdict

import pytest

from test_benchmark_contract import TARGETS

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "octavib"
CALLERS = tuple(ROOT / "perfbench" / name for name in ("ops.py", "worker.py", "run.py"))
METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*METHODS, ast.ClassDef)
ASSIGNMENTS = (ast.Assign, ast.AnnAssign)

# dotted name -> why it stays although nothing reads it; a reason ending in
# "TARGETS <metric>" names the tracer row that wraps it
KEPT = {
    "bifurcation.InvariantEngine.invariant_full": (
        "the whole invariant as the pairwise product of basic degrees, the "
        "tests' oracle for the marks recurrence; TARGETS bifurcation.invariant_full"
    ),
    "burnside.BurnsideRing.pi0_truncate": (
        "drops the infinite-Weyl types of a product of basic degrees, for that "
        "oracle; TARGETS burnside.pi0_truncate"
    ),
    "burnside.OctahedralBurnside.generator": (
        "paper data: the generators (H) of A(S_4^p), whose products are the "
        "ring's stated product table"
    ),
    "force_field.PotentialParams._make": (
        "the NamedTuple hook: _replace builds its copy through it, and the "
        "override refuses a copy that is not a valid construction"
    ),
    "force_field.potential": (
        "the model's energy U, whose gradient and Hessian the request path runs"
    ),
    "force_field.phi": (
        "the model's radial energy phi(r) = U(r * template), whose phi' and "
        "phi'' the equilibrium search runs"
    ),
    "force_field.hessian_blocks": (
        "the 18x18 block Hessian, the oracle for the closed-form Schur "
        "numbers; TARGETS force_field.hessian_blocks"
    ),
    "orbit_o2.mode_cover": (
        "the element set of a cover K^l, the oracle for the ring's (K, l) "
        "pairs; TARGETS orbit_o2.mode_cover"
    ),
    "orbit_o2.TemporalOctahedralRing.find_class": (
        "the class of a subgroup by element arithmetic, the oracle for the "
        "table's classes and images; TARGETS orbit_o2.find_class"
    ),
    "spectral.numeric_spectrum": (
        "the spectrum of any equivariant matrix, the oracle for the closed "
        "form; TARGETS spectral.numeric_spectrum"
    ),
    "spectral.assign_eigenspaces": (
        "labels from restricted characters, the oracle for labeling by "
        "construction; TARGETS spectral.assign_eigenspaces"
    ),
}


def lines(node):
    return range(node.lineno, node.end_lineno + 1)


def targets(node):
    """The plain targets an assignment binds, tuple and starred ones unpacked."""
    stack = list(node.targets) if isinstance(node, ast.Assign) else [node.target]
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            yield target


def attributes(method):
    """The name of each ``self.<name>`` a method assigns."""
    for node in ast.walk(method):
        if isinstance(node, ASSIGNMENTS):
            for target in targets(node):
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name) and target.value.id == "self"):
                    yield target.attr


def bindings(tree):
    """(dotted name, own lines, is an attribute) of each binding the scan
    covers in a module, once per place that binds it."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name, lines(node), False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFINITIONS):
                    yield f"{node.name}.{item.name}", lines(item), False
                if isinstance(item, METHODS):
                    for attr in attributes(item):
                        yield f"{node.name}.{attr}", lines(item), True
        elif isinstance(node, ASSIGNMENTS):
            for target in targets(node):
                if isinstance(target, ast.Name):
                    yield target.id, lines(node), False


def reads(tree):
    """(name, line, is an attribute) of each bare name and attribute a module
    reads and each name it imports from a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False


def bound(package):
    """{"module.dotted name": (own line ranges, is an attribute)} of every
    binding of ``package``, a {module: source} map."""
    out = {}
    for module, source in package.items():
        for dotted, own, attribute in bindings(ast.parse(source)):
            out.setdefault(f"{module}.{dotted}", ([], attribute))[0].append(own)
    return out


def unreferenced(package, callers=()):
    """The sorted "module.dotted name" of each binding of ``package`` that
    nothing reads: no other package module, no source of ``callers`` and no
    line of its own module outside its own."""
    readers = defaultdict(list)  # name -> [(module, line, is an attribute)]
    for module, source in package.items():
        for name, line, attribute in reads(ast.parse(source)):
            readers[name].append((module, line, attribute))
    for source in callers:  # module None: every read of a caller is a use
        for name, _, attribute in reads(ast.parse(source)):
            readers[name].append((None, 0, attribute))
    out = []
    for dotted, (own, attribute) in bound(package).items():
        module, name = dotted.partition(".")[0], dotted.rpartition(".")[2]
        if name.startswith("__") and name.endswith("__"):
            continue
        if all(
            m == module and any(line in lines_ for lines_ in own)
            for m, line, read_as_attribute in readers[name]
            if read_as_attribute or not attribute
        ):
            out.append(dotted)
    return sorted(out)


def findings(package, callers, kept):
    """(flagged names ``kept`` does not list, stale entries of ``kept``): an
    entry is stale when its name is no longer bound or now has a reader."""
    flagged = unreferenced(package, callers)
    unlisted = [name for name in flagged if name not in kept]
    stale = sorted(name for name in kept if name not in flagged)
    return unlisted, stale


def package_sources():
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def caller_sources():
    return [p.read_text(encoding="utf-8") for p in CALLERS]


def test_every_definition_is_read_or_kept_with_its_reason():
    start = time.perf_counter()
    unlisted, stale = findings(package_sources(), caller_sources(), KEPT)
    elapsed = time.perf_counter() - start
    assert not unlisted, (
        f"nothing reads these: move them to tests/ or list them in KEPT: {unlisted}"
    )
    assert not stale, f"stale KEPT entries (gone, or now read): {stale}"
    assert elapsed < 1.0, f"the scan took {elapsed:.3f} s"


@pytest.mark.parametrize("name", sorted(KEPT))
def test_kept_reason_names_its_tracer_row(name):
    # a reason citing the tracer names a TARGETS row that wraps this very name
    reason = KEPT[name]
    assert reason.strip()
    if "TARGETS " not in reason:
        return
    metric = reason.rpartition("TARGETS ")[2]
    rows = {row[0]: f"{row[1]}.{row[2]}" for row in TARGETS}
    assert rows.get(metric) == name, (metric, rows.get(metric))


SYNTHETIC = {
    "core": (
        "def served(x):\n"
        "    return helper(x)\n"
        "\n"
        "def helper(x):\n"
        "    return x + 1\n"
        "\n"
        "def only_tests(x):\n"
        "    return x - 1\n"
        "\n"
        "def recursive(n):\n"
        "    return 1 if n < 2 else n * recursive(n - 1)\n"
        "\n"
        "class Ring:\n"
        "    def __mul__(self, other):\n"
        "        return self.product(other)\n"
        "\n"
        "    def product(self, other):\n"
        "        return Ring()\n"
        "\n"
        "    def oracle(self):\n"
        "        return self.oracle\n"
    ),
    "cli": (
        "from .core import Ring, served\n"
        "\n"
        "def main():\n"
        "    return served(1), Ring() * Ring()\n"
    ),
}
CALLER = "from octavib import cli\n\ncli.main()\n"


class TestScan:
    def test_flags_what_only_tests_would_call(self):
        assert unreferenced(SYNTHETIC, [CALLER]) == [
            "core.Ring.oracle", "core.only_tests", "core.recursive",
        ]

    def test_a_read_in_its_own_body_is_not_a_use(self):
        # recursive calls only itself; one read elsewhere makes it used
        assert "core.recursive" in unreferenced(SYNTHETIC, [CALLER])
        used = dict(SYNTHETIC, cli=SYNTHETIC["cli"] + "\nrecursive(3)\n")
        assert "core.recursive" not in unreferenced(used, [CALLER])

    def test_a_caller_counts_as_a_reader(self):
        assert "cli.main" in unreferenced(SYNTHETIC)
        assert "cli.main" not in unreferenced(SYNTHETIC, [CALLER])

    def test_flags_a_function_planted_in_the_package(self):
        package = package_sources()
        package["group_core"] += "\n\ndef planted_for_tests(mask):\n    return mask\n"
        unlisted, stale = findings(package, caller_sources(), KEPT)
        assert unlisted == ["group_core.planted_for_tests"] and not stale

    def test_flags_a_stale_entry(self):
        kept = {"core.Ring.oracle": "r", "core.only_tests": "r", "core.recursive": "r",
                "core.helper": "now read", "core.gone": "removed"}
        assert findings(SYNTHETIC, [CALLER], kept) == ([], ["core.gone", "core.helper"])


BOUND = {
    "tables": (
        "__all__ = ['SIZE']\n"
        "SIZE = 48\n"
        "TABLE, _SCRATCH = tuple(range(SIZE)), 0\n"
        "TESTS_ONLY = (1, 2)\n"
        "ENV_FLAG: bool = False\n"
        "\n"
        "def lookup(i):\n"
        "    return TABLE[i]\n"
        "\n"
        "def tally():\n"
        "    count = 1\n"
        "    return count\n"
        "\n"
        "class Cache:\n"
        "    def __init__(self):\n"
        "        self.rows = {}\n"
        "        self.unread = 0\n"
        "        self.built = {}\n"
        "        self.built.update(a=1)\n"
        "        self.size, self.count = SIZE, 0\n"
        "\n"
        "    def get(self, key):\n"
        "        return self.rows[key]\n"
    ),
    "cli": (
        "from .tables import SIZE, Cache, lookup, tally\n"
        "\n"
        "def main():\n"
        "    return Cache().get(lookup(SIZE)), tally()\n"
    ),
}
WORKER = (
    "from octavib import cli, tables\n"
    "\n"
    "cli.main()\n"
    "print(tables.ENV_FLAG, tables.Cache().size)\n"
)


class TestScanBindings:
    """Module-level names and instance attributes, on a synthetic source and
    planted into the package's own."""

    def test_flags_unread_names_and_attributes(self):
        assert unreferenced(BOUND, [WORKER]) == [
            "tables.Cache.built", "tables.Cache.count", "tables.Cache.unread",
            "tables.TESTS_ONLY", "tables._SCRATCH",
        ]

    def test_flags_a_constant_planted_for_tests(self):
        package = package_sources()
        package["group_core"] += "\nPLANTED_FOR_TESTS = (1, 1, 6)\n"
        unlisted, stale = findings(package, caller_sources(), KEPT)
        assert unlisted == ["group_core.PLANTED_FOR_TESTS"] and not stale

    def test_flags_an_attribute_set_but_never_read(self):
        package = package_sources()
        anchor = "        self.classes = []\n"
        assert anchor in package["group_core"]
        package["group_core"] = package["group_core"].replace(
            anchor, anchor + "        self.planted_never_read = {}\n"
        )
        unlisted, stale = findings(package, caller_sources(), KEPT)
        assert unlisted == ["group_core.Catalog.planted_never_read"] and not stale

    def test_a_read_in_the_method_that_builds_it_is_not_a_use(self):
        # self.built.update(...) in __init__ reads it back; another method's
        # read makes it used
        assert "tables.Cache.built" in unreferenced(BOUND, [WORKER])
        method = "\n    def all(self):\n        return self.built\n"
        read = dict(BOUND, tables=BOUND["tables"] + method)
        assert "tables.Cache.built" not in unreferenced(read, [WORKER])

    def test_a_local_of_the_same_spelling_does_not_read_an_attribute(self):
        # tally's local `count` is a bare name; cache.count would be a read
        assert "tables.Cache.count" in unreferenced(BOUND, [WORKER])
        read = dict(BOUND, cli=BOUND["cli"] + "\nCache().count\n")
        assert "tables.Cache.count" not in unreferenced(read, [WORKER])

    def test_a_constant_a_caller_reads_is_not_flagged(self):
        assert "tables.ENV_FLAG" in unreferenced(BOUND)
        assert "tables.ENV_FLAG" not in unreferenced(BOUND, [WORKER])
        # perfbench/worker.py is the only reader of the kernel-path flags
        package = package_sources()
        worker = [(ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8")]
        for name in ("accel.HAVE_NUMBA", "accel.USE_NUMBA"):
            assert name in unreferenced(package)
            assert name not in unreferenced(package, worker)

    def test_flags_stale_entries_of_each_kind(self):
        flagged = dict.fromkeys(unreferenced(BOUND, [WORKER]), "r")
        kept = dict(flagged, **{
            "tables.SIZE": "now read", "tables.GONE": "removed",
            "tables.Cache.rows": "now read", "tables.Cache.gone": "removed",
        })
        assert findings(BOUND, [WORKER], kept) == ([], [
            "tables.Cache.gone", "tables.Cache.rows", "tables.GONE", "tables.SIZE",
        ])
