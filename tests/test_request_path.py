"""The package is the request path: each name ``src/octavib`` binds is read
somewhere outside the code that binds it.

An AST scan collects three kinds of binding:
- every module-level function and class of the package and every method of
  such a class;
- every name a module-level assignment binds (``Assign`` or ``AnnAssign``,
  tuple targets included);
- every instance attribute, ``self.<name> = ...`` in a method of a package
  class.

It then collects every name each module reads, in package modules and in
perfbench's op code (``ops.py``, ``worker.py``, ``run.py``), and what each
read resolves to:
- a bare name resolves to its own module's global unless a function, lambda
  or comprehension around the read binds it: a parameter, an assignment, an
  import, a nested definition (class bodies are not such scopes here);
- ``mod.name``, with ``mod`` a package module bound by an import, and a name
  that ``from .mod import name`` (or ``from octavib.mod import name``)
  brings in, resolve to ``mod``.
A module-level binding counts as used when a read of its name resolves to
its module, in another module or in its own outside its own lines: the
definition or the assignment statement.  So a name that only its own body
reads, by recursion, is unused, and so is one that only a same-named
parameter, local or another module's own global "reads".

Methods and instance attributes are matched by spelling alone, since the
scan does not infer types: any read of a method's name, and any attribute
read of an attribute's name, outside the method that binds it counts.  So
a method stays unflagged while anything anywhere reads an attribute of its
spelling, and an attribute that only the method building it reads back is
unused.  Dunder names are exempt: Python reads them itself.
``perfbench/tracing.py`` is not read, since pinning a name for the tracer is
not using it.

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
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
SCOPES = (*METHODS, ast.Lambda, *COMPREHENSIONS)
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
    "force_field.gradient": (
        "the model's gradient at one configuration, the single-configuration "
        "form of gradients; TARGETS force_field.gradient"
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


def imported_from(node):
    """The package module a ``from ... import`` takes names from: "" for the
    package itself, whose names are modules, None for any other package."""
    if node.level:
        return node.module or ""
    if node.module == "octavib" or node.module.startswith("octavib."):
        return node.module[len("octavib."):]
    return None


def module_aliases(tree):
    """{name: package module} of each name an import binds to a package
    module, wherever in the source it stands."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and imported_from(node) == "":
            out.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(
                (alias.asname, alias.name[len("octavib."):]) for alias in node.names
                if alias.asname and alias.name.startswith("octavib.")
            )
    return out


def scope_locals(scope):
    """The names a function, lambda or comprehension binds in its own scope:
    its parameters or targets and what its body assigns, imports or defines,
    less the names it declares ``global``."""
    if isinstance(scope, COMPREHENSIONS):
        return {n.id for g in scope.generators for n in ast.walk(g.target)
                if isinstance(n, ast.Name)}
    args = scope.args
    found = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a}
    declared = set()
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            found.add(node.name)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
        if isinstance(node, DEFINITIONS):
            found.add(node.name)
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return found - declared


def reads(tree, module=None):
    """(name, owner, line, is an attribute) of each bare name and attribute
    a module reads and each name it imports from a package module.  The
    owner is the module the read resolves to, ``module`` for a bare name
    that no scope around it binds, or None."""
    aliases = module_aliases(tree)
    stack = [(tree, frozenset())]
    while stack:
        node, local = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, None if node.id in local else module, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            value = node.value
            through = isinstance(value, ast.Name) and value.id not in local
            yield node.attr, aliases.get(value.id) if through else None, node.lineno, True
        elif isinstance(node, ast.ImportFrom) and imported_from(node):
            for alias in node.names:
                yield alias.name, imported_from(node), node.lineno, False
        if isinstance(node, SCOPES):
            local = local | scope_locals(node)
        stack.extend((child, local) for child in ast.iter_child_nodes(node))


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
    readers = defaultdict(list)  # name -> [(reading module, line, owner, is an attribute)]
    sources = [*package.items(), *((None, source) for source in callers)]
    for reader, source in sources:  # reader None: every read of a caller is a use
        for name, owner, line, attribute in reads(ast.parse(source), reader):
            readers[name].append((reader, line, owner, attribute))
    out = []
    for dotted, (own, attribute) in bound(package).items():
        module, _, path = dotted.partition(".")
        name = path.rpartition(".")[2]
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(
            (reader != module or not any(line in lines_ for lines_ in own))
            and (owner == module if "." not in path else read_as_attribute or not attribute)
            for reader, line, owner, read_as_attribute in readers[name]
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
        # recursive calls only itself; one import and read elsewhere makes it used
        assert "core.recursive" in unreferenced(SYNTHETIC, [CALLER])
        used = dict(SYNTHETIC, cli=SYNTHETIC["cli"] + "\nfrom .core import recursive\nrecursive(3)\n")
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


SCOPED = {
    "core": (
        "def ring():\n"
        "    return 1\n"
        "\n"
        "def hessian(x):\n"
        "    return x\n"
        "\n"
        "def table():\n"
        "    return 2\n"
        "\n"
        "def gradient(x):\n"
        "    return x\n"
        "\n"
        "def build(ring, n):\n"
        "    hessian = n\n"
        "    rows = [table for table in range(n)]\n"
        "    return ring, hessian, rows, lambda gradient: gradient\n"
        "\n"
        "def outer(table):\n"
        "    def inner():\n"
        "        return table\n"
        "    return inner\n"
        "\n"
        "class Element:\n"
        "    def __init__(self, ring):\n"
        "        self.ring = ring\n"
        "\n"
        "    def product(self, other):\n"
        "        return self.ring\n"
    ),
    "other": (
        "from . import core\n"
        "\n"
        "def gradient(x):\n"
        "    return x\n"
        "\n"
        "def main(element):\n"
        "    return gradient(1), hessian(2), core.build(3, 4), core.outer(5), element.product\n"
    ),
}
RUNNER = "from octavib import other\n\nother.main(None)\n"


class TestScanScopes:
    """A module-level name is read through its own module: a bare name in
    that module where no scope binds it, ``mod.name`` or ``from .mod import
    name``; methods and attributes match by spelling."""

    def test_flags_names_read_only_by_a_same_spelled_name(self):
        # ring: a parameter; hessian: a local, and another module's unbound
        # name; table: a comprehension target and an enclosing function's
        # parameter; gradient: a lambda's parameter and another module's own
        # function
        assert unreferenced(SCOPED, [RUNNER]) == [
            "core.Element", "core.gradient", "core.hessian", "core.ring", "core.table",
        ]

    def test_a_bare_name_reads_its_own_modules_global(self):
        read = dict(SCOPED, core=SCOPED["core"] + "\nring(), table()\n")
        assert unreferenced(read, [RUNNER]) == ["core.Element", "core.gradient", "core.hessian"]
        # a function that declares the name global reads the module's
        declared = "\ndef current():\n    global hessian\n    return hessian\n"
        read = dict(SCOPED, core=SCOPED["core"] + declared)
        assert "core.hessian" not in unreferenced(read, [RUNNER])

    @pytest.mark.parametrize("reader", [
        "from .core import gradient\n",
        "from octavib.core import gradient as g\n",
        "def grad(x):\n    return core.gradient(x)\n",
    ])
    def test_another_module_reads_through_the_module(self, reader):
        read = dict(SCOPED, other=SCOPED["other"] + reader)
        assert "core.gradient" not in unreferenced(read, [RUNNER])

    @pytest.mark.parametrize("reader", [
        "from . import other as core\ncore.gradient(1)\n",
        "from .other import gradient\n",
        "def grad(core):\n    return core.gradient(1)\n",
    ])
    def test_a_read_through_another_module_or_a_local_is_not_a_use(self, reader):
        read = dict(SCOPED, other=reader)
        assert "core.gradient" in unreferenced(read, [RUNNER])

    @pytest.mark.parametrize("caller", [
        "from octavib.core import Element\n",
        "import octavib.core as c\n\nc.Element\n",
        "from octavib import core\n\ncore.Element()\n",
    ])
    def test_a_caller_reads_through_the_module(self, caller):
        assert "core.Element" in unreferenced(SCOPED, [RUNNER])
        assert "core.Element" not in unreferenced(SCOPED, [RUNNER, caller])

    def test_methods_and_attributes_match_by_spelling(self):
        # element.product reads Element.product whatever element is, and
        # product's self.ring reads the attribute __init__ sets
        flagged = unreferenced(SCOPED, [RUNNER])
        assert "core.Element.product" not in flagged and "core.Element.ring" not in flagged
        alone = dict(SCOPED, other="def main():\n    return 0\n")
        assert "core.Element.product" in unreferenced(alone)
