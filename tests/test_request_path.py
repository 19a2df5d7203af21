"""The package is the request path: each function, class and method of
``src/octavib`` is read somewhere outside its own body.

An AST scan collects every module-level function and class of the package
and every method of such a class, and every name each module reads (a bare
name or an attribute).  A definition counts as used when its name is read in
another package module, in perfbench's op code (``ops.py``, ``worker.py``,
``run.py``), or in its own module outside its own lines; so a name that only
its own body reads, by recursion, is unused.  Names match by spelling
alone.  Dunder methods are exempt: Python calls them from syntax.
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
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

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


def definitions(tree):
    """(dotted name, node) of each module-level function and class of a
    module and each method of such a class."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFINITIONS):
                        yield f"{node.name}.{item.name}", item


def reads(tree):
    """(name, line) of each bare name and attribute a module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def unreferenced(package, callers=()):
    """The sorted "module.dotted name" of each definition of ``package``, a
    {module: source} map, that nothing reads: no other package module, no
    source of ``callers`` and no line of its own module outside its own."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    readers = defaultdict(list)  # name -> [(module, line)], module None for a caller
    for module, tree in trees.items():
        for name, line in reads(tree):
            readers[name].append((module, line))
    for source in callers:
        for name, _ in reads(ast.parse(source)):
            readers[name].append((None, 0))
    out = []
    for module, tree in trees.items():
        for dotted, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if all(m == module and line in own for m, line in readers[name]):
                out.append(f"{module}.{dotted}")
    return sorted(out)


def findings(package, callers, kept):
    """(flagged names ``kept`` does not list, stale entries of ``kept``): an
    entry is stale when its name is no longer defined or now has a reader."""
    flagged = unreferenced(package, callers)
    defined = {
        f"{module}.{dotted}"
        for module, source in package.items()
        for dotted, _ in definitions(ast.parse(source))
    }
    unlisted = [name for name in flagged if name not in kept]
    stale = sorted(name for name in kept if name not in defined or name not in flagged)
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
