"""The committed mode-1 table against its builder, and the request path that
reads it without element arithmetic or the builder."""

import contextlib
import io
import json
import math
import types

import pytest

from octavib import bifurcation as bf
from octavib import cli
from octavib import group_core as gc
from octavib import orbit_o2 as o2

import oracles
import regenerate_o2_table as builder
from test_golden import COMMANDS, GOLDEN


def test_committed_table_is_current():
    assert builder.main(["--check"]) == 0, (
        f"{o2.TABLE} is stale: regenerate it with "
        f"`PYTHONPATH=src python tests/regenerate_o2_table.py`"
    )


class ReadRecorder(dict):
    """A table whose key reads are recorded."""

    def __init__(self, doc):
        super().__init__(doc)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_the_ring_reads_every_column(monkeypatch):
    # a column nobody reads has no owner: the builder should not write it
    tables = []

    def load(fh):
        tables.append(ReadRecorder(json.load(fh)))
        return tables[-1]

    monkeypatch.setattr(o2, "json", types.SimpleNamespace(load=load))
    o2.TemporalOctahedralRing()
    (doc,) = tables
    assert doc.read == set(doc)


def float_fixed_dim(A, j, m):
    """dim of A's fixed space in irrep-j Fourier-mode-m by summing
    2 cos(2 pi m k / GRID) chi_j(g) over its rotations as floats and
    snapping the mean (oracle for ``exact_fixed_dim``)."""
    total = 0.0
    for x in A.elements:
        e, k, g = o2.decode(x)
        if e:
            continue
        c2 = 2.0 * math.cos(2.0 * math.pi * ((m * k) % o2.GRID) / o2.GRID)
        total += c2 * gc.CHARACTER_TABLE[j][gc.ELEMENT_CLASS[g]]
    q = total / len(A)
    assert abs(q - round(q)) <= 1e-9
    return int(round(q))


def test_exact_fixed_dims_match_the_float_path():
    with open(o2.TABLE, encoding="utf-8") as fh:
        doc = json.load(fh)
    period = doc["mode_period"]
    assert period == 12
    checked = 0
    for els, rows in zip(doc["elements"], doc["fixed_dim"]):
        A = o2.ConcreteSubgroup(els)
        for j, row in enumerate(rows):
            for m in range(1, period + 1):
                exact = builder.exact_fixed_dim(A, j, m)
                assert exact == float_fixed_dim(A, j, m), (j, m)
                assert int(row[m - 1]) == exact, (j, m)
                checked += 1
    assert checked == 257 * 10 * 12


def test_rows_of_marks_are_the_upper_sets(fresh_ring):
    classes = o2.graph_classes(1)
    for h in classes:
        above = {t for t in classes if fresh_ring.fixed_cosets(h, t) > 0}
        assert oracles.upper_set(h) == above, h


def test_halves_are_pairs_from_the_start(fresh_ring):
    # the three mode-1 classes with two rotations over the spatial identity
    halves = [M for M in o2.graph_classes(1) if fresh_ring.symbol_key(M)[3] == 2]
    assert [fresh_ring._pairs[M] for M in halves] == [(17, 2), (21, 2), (109, 2)]
    assert all(fresh_ring.symbol_key(K)[3] == 1 for K, _ in fresh_ring._pairs[:257])
    for M in halves:
        K, _ = fresh_ring._pairs[M]
        assert fresh_ring.register_cover(K, 2) == M
        image = builder.mode_image(fresh_ring.representative(M), 2)
        assert fresh_ring.find_class(image) == K


# the table builder's functions, none of which the package holds
BUILDER = (
    "build_mode1_table", "_graph_representatives", "_characters_of", "fixed_cosets",
    "profile_fits", "mode_image", "exact_fixed_dim", "symbol_key", "mode1_labels",
)


def forbidden(name):
    def raise_(*args, **kwargs):
        raise AssertionError(f"{name} ran on the request path")

    return raise_


@pytest.fixture
def arithmetic_forbidden(monkeypatch):
    """A new ring on which the conjugator search, closures, conjugacy tests
    and every function of the table builder raise: the character-graph
    enumeration, fixed cosets, exact fixed dimensions, images, symbol keys
    and labels."""
    for name in ("_conjugators", "closure"):
        monkeypatch.setattr(o2, name, forbidden(name))
    for name in BUILDER:
        monkeypatch.setattr(builder, name, forbidden(name))
    monkeypatch.setattr(
        o2.ConcreteSubgroup, "is_conjugate", forbidden("ConcreteSubgroup.is_conjugate")
    )
    ring = o2.TemporalOctahedralRing()
    monkeypatch.setattr(o2, "ring", lambda: ring)
    return ring


# every golden command, and --full for the blocks `invariant` runs in full
# anyway (0, 4, 7 and 7*), which print the same
GUARDED = [(argv, name) for name, argv in sorted(COMMANDS.items())] + [
    (["invariant", "--j", j, "--full"], f"invariant_j{j.replace('*', 's')}.txt")
    for j in ("0", "4", "7", "7*")
]


def test_request_path_does_no_element_arithmetic(arithmetic_forbidden, tmp_path):
    assert not [name for name in BUILDER if hasattr(o2, name)]
    assert not hasattr(o2.ConcreteSubgroup, "fixed_cosets")
    assert {argv[2] for argv, _ in GUARDED if argv[0] == "invariant"} == set(
        bf.ISOTYPIC
    )
    for argv, name in GUARDED:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, argv
        assert out.getvalue().encode() == (GOLDEN / name).read_bytes(), argv
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["modes", "--j", "9", "--out", str(tmp_path)]) == 0
