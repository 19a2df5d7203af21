import math
from collections import Counter

import numpy as np
import pytest

from octavib import bifurcation as bf
from octavib import group_core as gc
from octavib import orbit_o2 as o2
from octavib.burnside import BurnsideRing, cached

import oracles
import regenerate_o2_table as builder
from conftest import all_pairs_maximal, engine_at, python, sweep_box

R = lambda: o2.ring()


class ReferenceFixedCosets:
    """|(G/H)^L| of subgroups L and H as the distinct conjugates of H
    containing L, times |W(H)| (oracle).

    The conjugates c H c^-1 that contain the least reflection x0 of L are
    found once per (x0, H), one per coset cH of the conjugators aligning x0
    into H; ``weyl_order()`` is read once per H.
    """

    def __init__(self):
        self._conjugates = {}
        self._weyl = {}

    def _holding(self, x0, b):
        key = (x0, b)
        if key not in self._conjugates:
            out, seen = set(), set()
            for c in oracles.alignment_candidates([x0], b, o2._refl_by_spatial(b)):
                if c not in seen:
                    # every conjugator in the coset cH gives the same conjugate
                    seen.update(o2.multiply(c, h) for h in b)
                    out.add(frozenset(oracles.conjugate(x, c) for x in b))
            self._conjugates[key] = out
        return self._conjugates[key]

    def __call__(self, L, H):
        a, b = L.elements, H.elements
        if len(b) % len(a):
            return 0
        hits = sum(a <= C for C in self._holding(min(o2.reflections_of(a)), b))
        if not hits:
            return 0
        if b not in self._weyl:
            self._weyl[b] = H.weyl_order()
        return hits * self._weyl[b]


def element_cover(ring, ci):
    """The subgroup K^l of the class ci = (K, l), built element by element
    on the grid (oracle)."""
    K, l = ring._pairs[ci]
    return o2.mode_cover(ring.representative(K), l)


class ElementBuiltRing(BurnsideRing):
    """Every class an element set and every datum computed from it by the
    table builder's arithmetic: the mode-1 classes as the character-graph
    enumeration meets them, and their covers built element by element with
    ``mode_cover``, each registered as a class of its own (oracle for the
    table and for reading every mode from mode 1, at the modes whose covers
    stay on the grid).

    Weyl orders are ``weyl_order()``.  Maximal types and basic degrees at
    mode l come from the fixing set of ``graph_classes(l)`` and the
    recurrence over its downward closure.
    """

    def __init__(self):
        super().__init__()
        self.reps = list(builder._graph_representatives())
        self.mode1 = list(range(len(self.reps)))
        self._by_set = {A.elements: ci for ci, A in enumerate(self.reps)}

    def register_cover(self, ci, l):
        cover = o2.mode_cover(self.reps[ci], l)
        if cover.elements not in self._by_set:
            self._by_set[cover.elements] = len(self.reps)
            self.reps.append(cover)
        return self._by_set[cover.elements]

    def representative(self, ci):
        return self.reps[ci]

    def order_of(self, ci):
        return len(self.reps[ci])

    def symbol_key(self, ci):
        return builder.symbol_key(self.reps[ci])

    @cached
    def weyl(self, ci):
        return self.reps[ci].weyl_order()

    @cached
    def fixed_cosets(self, L, H):
        return builder.fixed_cosets(self.reps[H], self.reps[L])

    @cached
    def fixed_dim(self, j, m, ci):
        return builder.exact_fixed_dim(self.reps[ci], j, m)

    @cached
    def graph_classes(self, l):
        return sorted({self.register_cover(ci, l) for ci in self.mode1})

    @cached
    def candidate_subtypes(self, ci):
        lH = self.symbol_key(ci)[3]
        pool = {ci}
        for l in range(1, lH + 1):
            if lH % l == 0:
                pool.update(self.graph_classes(l))
        return sorted(L for L in pool if self.fixed_cosets(L, ci) > 0)

    @cached
    def maximal_orbit_types(self, j, l):
        fixing = [ci for ci in self.graph_classes(l) if self.fixed_dim(j, l, ci) >= 1]
        return tuple(self.maximal(fixing))

    @cached
    def basic_degree(self, j, l):
        pool = set()
        for ci in self.maximal_orbit_types(j, l):
            pool.update(self.candidate_subtypes(ci))
        return self.element(
            1, self.recurrence(pool, lambda K: (-1) ** self.fixed_dim(j, l, K) - 1)
        )


# the Fourier modes up to 15 whose element-built covers stay on the angle
# grid: the divisors of GRID / 24
ON_GRID_MODES = (1, 2, 3, 4, 5, 6, 7, 10, 12, 14, 15)


def reference_graph_subgroups():
    """The closure of every character graph (K, chi, t), in catalog,
    character and t order; a type may appear more than once (oracle)."""
    cat = gc.catalog()
    for cls in cat.classes:
        K = cls.mask
        els = gc.mask_elements(K)
        spatial_gens = o2.ConcreteSubgroup(els).generators
        for chi in builder._characters_of(els, spatial_gens):
            for t in range(o2.N):
                if oracles.conj_mask(K, t) != K:
                    continue
                if not K >> gc.MUL[t][t] & 1:
                    continue
                if any(
                    chi[gc.MUL[gc.MUL[t][x]][oracles.INV[t]]] != (-chi[x]) % o2.GRID
                    for x in els
                ):
                    continue
                gens = [o2.encode(0, chi[x], x) for x in spatial_gens]
                yield oracles.generated(gens + [o2.encode(1, 0, t)])


def reference_graph_classes():
    """The first-met subgroup of each class, interning every closed graph by
    a conjugacy scan over the classes met before (oracle)."""
    reps, seen = [], set()
    for A in reference_graph_subgroups():
        if A.elements in seen:
            continue
        seen.add(A.elements)
        if not any(len(B) == len(A) and B.is_conjugate(A) for B in reps):
            reps.append(A)
    return reps


def oct_word(word):
    return oracles.element_from_vertex_word(word)


@pytest.fixture(scope="module")
def sixteen_types():
    out = {}
    for j in (0, 4, 7, 8, 9):
        classes = o2.maximal_orbit_types(j, 1)
        o2.pin_reference_labels(j, classes)
        out[j] = classes
    return out


class TestElementAlgebra:
    @staticmethod
    def _matrix(code):
        refl, k, g = o2.decode(code)
        t = 2 * math.pi * k / o2.GRID
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        kap = np.array([[1.0, 0.0], [0.0, -1.0]])
        m2 = rot @ kap if refl else rot
        return m2, gc.octahedral_matrix(g)

    def test_multiplication_matches_matrices(self, rng):
        for _ in range(300):
            x = o2.encode(rng.integers(2), rng.integers(o2.GRID), rng.integers(48))
            y = o2.encode(rng.integers(2), rng.integers(o2.GRID), rng.integers(48))
            mx, sx = self._matrix(x)
            my, sy = self._matrix(y)
            mz, sz = self._matrix(o2.multiply(x, y))
            assert np.allclose(mx @ my, mz, atol=1e-9)
            assert np.array_equal(sx @ sy, sz)

    def test_inverse_and_conjugation(self, rng):
        for _ in range(200):
            x = o2.encode(rng.integers(2), rng.integers(o2.GRID), rng.integers(48))
            c = o2.encode(rng.integers(2), rng.integers(o2.GRID), rng.integers(48))
            assert o2.multiply(x, oracles.inverse(x)) == o2.IDENTITY
            lhs = oracles.conjugate(x, c)
            rhs = o2.multiply(o2.multiply(c, x), oracles.inverse(c))
            assert lhs == rhs


    def test_parts_reads_an_exact_turn(self):
        g = oct_word("(1234)")
        assert o2.parts(oracles.temporal(1, 3, g, refl=True)) == (1, (1, 3), g)
        assert o2.parts(o2.IDENTITY) == (0, (0, 1), gc.IDENTITY)


class TestConcreteSubgroups:
    def test_full_symmetry_type_order(self):
        gens = [
            oracles.reflection(),
            oracles.rotation(0, oct_word("(1234)")),
            oracles.rotation(0, oct_word("(146)(253)")),
            oracles.rotation(0, oct_word("(13)(24)(56)")),
        ]
        A = oracles.generated(gens)
        assert len(A) == 96
        assert A.weyl_order() == 2

    def test_rotating_wave_type(self):
        gens = [
            oracles.temporal(1, 6, oct_word("(145326)")),
            oracles.reflection(0, oct_word("(14)(23)(56)")),
        ]
        A = oracles.generated(gens)
        assert len(A) == 12
        assert A.weyl_order() == 2
        assert oracles.amalgam_symbol(builder.symbol_key(A)) == "D_6^{Z_1} x_{D_3^p} D_3^p"

    def test_self_conjugate(self):
        A = oracles.generated([oracles.reflection(0, oct_word("(56)"))])
        assert A.is_conjugate(A)

    def test_rotated_reflections_conjugate(self):
        A = oracles.generated([oracles.reflection(0)])
        B = oracles.generated([oracles.reflection(o2.GRID // 3)])
        assert A.is_conjugate(B)

    def test_distinct_kernels_not_conjugate(self, sixteen_types):
        ring = R()
        d2d = next(
            ci for ci in sixteen_types[9]
            if ring.label_of(ci) == "D_2^{D_1} x^{D_2^d} D_2^p"
        )
        d1p = next(
            ci for ci in sixteen_types[8]
            if ring.label_of(ci) == "D_2^{D_1} x^{D_1^p} D_2^p"
        )
        a = ring.representative(d2d)
        b = ring.representative(d1p)
        assert len(a) == len(b)
        assert not a.is_conjugate(b)

    def test_truncation_oracle_stabilizes(self, sixteen_types):
        ring = R()
        for j in (0, 7):
            for ci in sixteen_types[j]:
                rep = ring.representative(ci)
                w24 = oracles.truncated_weyl_order(rep, 24)
                w48 = oracles.truncated_weyl_order(rep, 48)
                assert w24 == w48 == rep.weyl_order()

    def test_infinite_weyl_for_rotation_only(self):
        A = oracles.generated([oracles.rotation(o2.GRID // 2)])
        assert A.weyl_order() is None

    def test_mode_cover_order(self):
        A = oracles.generated([oracles.reflection()])
        for l in (2, 3, 5):
            assert len(o2.mode_cover(A, l)) == 2 * l


class TestMaximalTypes:
    def test_maximal_types_carry_reference_labels(self, fresh_ring):
        for j in (0, 4, 7, 8, 9):
            classes = o2.maximal_orbit_types(j, 1)
            assert o2.maximal_orbit_types(j, 1) is classes  # computed once
            got = {fresh_ring.label_of(ci) for ci in classes}
            assert got == set(oracles.reference_red_labels(j)), j

    def test_reference_spellings_hold_before_maximal_types(self, fresh_ring):
        # blocks 7 and 8 hold three classes whose reference spelling differs
        # from their amalgam symbol; a label read before any maximal-type
        # computation already carries it, and keeps it after
        before = {}
        for j in (7, 8):
            fixing = [
                ci for ci in o2.graph_classes(1) if fresh_ring.fixed_dim(j, 1, ci) >= 1
            ]
            before[j] = {ci: fresh_ring.label_of(ci) for ci in fresh_ring.maximal(fixing)}
            assert set(before[j].values()) == set(oracles.reference_red_labels(j)), j
        assert "maximal_orbit_types" not in fresh_ring.memo
        respelled = {
            ci for labels in before.values() for ci, label in labels.items()
            if label != oracles.amalgam_symbol(fresh_ring.symbol_key(ci))
        }
        assert len(respelled) == 3
        for j, labels in before.items():
            assert set(o2.maximal_orbit_types(j, 1)) == set(labels), j
            assert {ci: fresh_ring.label_of(ci) for ci in labels} == labels, j

    def test_new_ring_starts_with_empty_tables(self, fresh_ring):
        assert fresh_ring.memo == {}
        o2.maximal_orbit_types(0, 1)
        assert fresh_ring.memo["maximal_orbit_types"]
        assert "label_of" not in fresh_ring.memo
        assert o2.TemporalOctahedralRing().memo == {}

    def test_one_ring_and_catalog_per_process(self):
        # each is built on first use and then returned as is; after
        # cache_clear the next call builds a new one, a ring with no tables
        code = "\n".join((
            "from octavib import group_core, orbit_o2",
            "for get, fill in ((orbit_o2.ring, lambda R: R.maximal_orbit_types(0, 1)),",
            "                  (group_core.catalog, lambda C: None)):",
            "    first = get()",
            "    fill(first)",
            "    same = get() is first",
            "    get.cache_clear()",
            "    new = get()",
            "    print(same, new is not first, new is get(), getattr(new, 'memo', {}) == {})",
        ))
        assert python(code).splitlines() == ["True True True True"] * 2

    def test_reference_check_writes_nothing(self, fresh_ring):
        classes = {j: o2.maximal_orbit_types(j, 1) for j in (0, 4, 7, 8, 9)}
        snapshot = {name: dict(table) for name, table in fresh_ring.memo.items()}
        for j, cis in classes.items():
            labels = o2.pin_reference_labels(j, cis)
            assert sorted(labels.values()) == sorted(oracles.reference_red_labels(j)), j
        assert {name: dict(t) for name, t in fresh_ring.memo.items()} == snapshot

    def test_reference_red_sets(self, sixteen_types):
        ring = R()
        for j in (0, 4, 7, 8, 9):
            got = {ring.label_of(ci) for ci in sixteen_types[j]}
            assert got == set(oracles.reference_red_labels(j)), j

    def test_weyl_orders_all_two(self, sixteen_types):
        ring = R()
        for j, classes in sixteen_types.items():
            for ci in classes:
                assert ring.weyl(ci) == 2

    def test_fixed_dims_odd(self, sixteen_types):
        ring = R()
        for j, classes in sixteen_types.items():
            for ci in classes:
                assert ring.fixed_dim(j, 1, ci) % 2 == 1


class TestLabels:
    def test_mode1_labels_are_unique(self, fresh_ring):
        labels = [fresh_ring.label_of(ci) for ci in o2.graph_classes(1)]
        assert len(set(labels)) == len(labels) == 257
        # 27 amalgam symbols are shared, by 75 classes; each of those is numbered
        shared = [lb.rsplit(" #", 1)[0] for lb in labels if " #" in lb]
        assert (len(shared), len(set(shared))) == (75, 27)

    def test_labels_do_not_depend_on_ring_history(self, fresh_ring):
        names = {
            fresh_ring.representative(ci): fresh_ring.label_of(ci)
            for ci in o2.graph_classes(1)
        }
        other = o2.TemporalOctahedralRing()  # asked for the classes in reverse first
        for A in reversed(list(reference_graph_subgroups())):
            other.find_class(A)
        for j in (0, 4, 7, 8, 9):  # and computes every block's maximal types
            other.maximal_orbit_types(j, 1)
        for rep, label in names.items():
            assert other.label_of(other.find_class(rep)) == label

    def test_census_keeps_the_labels_read_first(self, fresh_ring, labeled_spectrum):
        first = {ci: fresh_ring.label_of(ci) for ci in o2.graph_classes(1)}
        census = bf.InvariantEngine(labeled_spectrum.alphas()).census()
        assert {ci: fresh_ring.label_of(ci) for ci in first} == first
        assert {row["label"] for row in census} <= set(first.values())

    def test_a_cover_keeps_its_base_ordinal(self, fresh_ring):
        labels = {ci: fresh_ring.label_of(ci) for ci in o2.graph_classes(1)}
        base = next(ci for ci, label in labels.items() if label.endswith(" #2"))
        cover = fresh_ring.register_cover(base, 3)
        label = fresh_ring.label_of(cover)
        assert label.endswith(" #2") and label != labels[base]


class TestCoverLabels:
    """A cover K^l is labeled as K with its temporal orders times l."""

    MODES = range(1, 13)
    RED = o2._red_families(0, 4, 7, 8, 9)

    def test_red_families_keep_their_spelling_at_every_mode(self, fresh_ring):
        for l in self.MODES:
            keys = [(ci, fresh_ring.symbol_key(ci)) for ci in o2.graph_classes(l)]
            for fam in self.RED:
                (ci,) = [ci for ci, key in keys if key == fam.key(l)]
                assert fresh_ring.label_of(ci) == oracles.family_label(fam, l), (l, fam)

    def test_other_covers_are_the_amalgam_symbol_with_the_base_ordinal(self, fresh_ring):
        checked = 0
        for l in self.MODES[1:]:
            red = {fam.key(l) for fam in self.RED}
            for ci in o2.graph_classes(l):
                key = fresh_ring.symbol_key(ci)
                if key in red:
                    continue
                base = fresh_ring.label_of(fresh_ring._pairs[ci][0])
                _, shared, k = base.rpartition(" #")
                ordinal = f" #{k}" if shared else ""
                assert fresh_ring.label_of(ci) == oracles.amalgam_symbol(key) + ordinal
                checked += 1
        assert checked == 2827 - 11 * 16  # all but the 16 maximal types

    def test_labels_are_unique_at_every_mode(self, fresh_ring):
        for l in self.MODES:
            labels = [fresh_ring.label_of(ci) for ci in o2.graph_classes(l)]
            assert len(set(labels)) == len(labels), l

    def test_mode1_labels_start_with_their_head(self, fresh_ring):
        # what a cover's label rewrites: everything before the first " x",
        # the temporal part H or H^{H_o} of the class's amalgam symbol
        for ci in o2.graph_classes(1):
            symbol = oracles.amalgam_symbol(fresh_ring.symbol_key(ci))
            head = symbol[: symbol.index(" x")]
            assert fresh_ring.label_of(ci).startswith(head + " x"), ci


class TestGraphClasses:
    """One build per orbit of character graphs against closing every graph."""

    @pytest.fixture(scope="class")
    def reference(self):
        return reference_graph_classes()

    def test_same_classes_in_the_same_order(self, fresh_ring, reference):
        got = [fresh_ring.representative(ci) for ci in o2.graph_classes(1)]
        assert [A.elements for A in got] == [A.elements for A in reference]
        assert [len(A) for A in got] == [len(A) for A in reference]
        for ci, A in zip(o2.graph_classes(1), reference):
            assert fresh_ring.weyl(ci) == A.weyl_order(), ci
            assert fresh_ring.symbol_key(ci) == builder.symbol_key(A), ci

    def test_same_labels(self, fresh_ring, reference):
        labels = [fresh_ring.label_of(ci) for ci in o2.graph_classes(1)]
        built = builder.mode1_labels([builder.symbol_key(A) for A in reference])
        assert built == labels

    def test_registry_opens_with_the_mode1_classes(self, fresh_ring):
        rotations = oracles.generated([oracles.rotation(0, oct_word("(1234)"))])
        ci = fresh_ring.find_class(rotations)
        assert fresh_ring.graph_classes(1) == list(range(257))
        assert ci == 257

    def test_conjugate_reflection_free_subgroups_share_a_class(self, fresh_ring):
        first, second = (
            oracles.generated([oracles.rotation(0, oct_word(w))])
            for w in ("(1234)", "(1536)")
        )
        assert first.elements != second.elements and first.is_conjugate(second)
        ci = fresh_ring.find_class(first)
        assert fresh_ring.find_class(second) == ci
        assert fresh_ring.order_of(ci) == 4 and not fresh_ring.finite_weyl(ci)
        third = oracles.generated([oracles.rotation(0, oct_word("(13)(24)"))])
        assert fresh_ring.find_class(third) == ci + 1


class TestMaximalAgainstAllPairs:
    @pytest.mark.parametrize("l", [1, 2])
    def test_each_block_fixing_set(self, l):
        ring = R()
        for j in (0, 4, 7, 8, 9):
            fixing = [ci for ci in o2.graph_classes(l) if ring.fixed_dim(j, l, ci) >= 1]
            assert ring.maximal(fixing) == all_pairs_maximal(ring, fixing), (j, l)

    @pytest.mark.parametrize(
        "draw", [None, 0, 10, 16], ids=["reference", "draw0", "draw10", "draw16"]
    )
    def test_full_invariant_support(self, engine, draw):
        ring = R()
        eng = engine if draw is None else engine_at(sweep_box(draw + 1)[draw])
        for j in bf.ISOTYPIC:
            keys = list(eng.report(j, full=True).invariant.coeffs)
            assert ring.maximal(keys) == all_pairs_maximal(ring, keys), j


class TestBasicDegrees:
    def test_block0(self):
        ring = R()
        deg = o2.basic_degree(0, 1)
        assert deg.unit == 1
        assert len(deg.coeffs) == 1
        ((ci, coeff),) = deg.coeffs.items()
        assert coeff == -1
        assert ring.label_of(ci) == "D_1 x S_4^p"

    def test_block0_mode2(self):
        ring = R()
        deg = o2.basic_degree(0, 2)
        ((ci, coeff),) = deg.coeffs.items()
        assert coeff == -1
        assert ring.order_of(ci) == 192
        rep = element_cover(ring, ci)
        assert len(rep) == 192
        assert builder.temporal_projection(rep) == ("D", 2)

    def test_involutions(self):
        ring = R()
        unit = ring.unit()
        for j in (0, 4, 7, 8, 9):
            deg = o2.basic_degree(j, 1)
            assert deg * deg == unit, j

    def test_self_product_leading_coefficient(self, sixteen_types):
        ring = R()
        for ci in (sixteen_types[9][0], sixteen_types[0][0]):
            gen = ring.element(0, {ci: 1})
            sq = gen * gen
            assert sq.coeffs[ci] == ring.weyl(ci)

    def test_unit_law(self):
        ring = R()
        x = o2.basic_degree(4, 1)
        assert ring.unit() * x == x

    def test_maximal_coefficient_law(self, sixteen_types):
        # leading coefficients satisfy n = -2/|W|, and the cancellation
        # identity 2n + n^2 |W| = 0 follows
        ring = R()
        for j in (0, 4, 7, 8, 9):
            deg = o2.basic_degree(j, 1)
            for ci in sixteen_types[j]:
                n = deg.coeffs[ci]
                w = ring.weyl(ci)
                assert n == -2 // w
                assert 2 * n + n * n * w == 0

    def test_reference_diff_is_weyl_halving(self):
        # reference magnitudes double ours exactly on the types the
        # publication lists with -2; signs and term sets agree
        ring = R()
        for j in (4, 7):
            deg = o2.basic_degree(j, 1)
            reds = {
                oracles.family_label(fam, 1): coeff
                for coeff, red, fam in o2.REFERENCE_EXPANSIONS[j]
                if red
            }
            got = {
                ring.label_of(ci): deg.coeffs[ci]
                for ci in o2.maximal_orbit_types(j, 1)
            }
            assert set(got) == set(reds)
            for label, reference in reds.items():
                mine = got[label]
                assert mine < 0 and reference < 0
                assert abs(reference) in (abs(mine), 2 * abs(mine))

    def test_nonunit_term_count_matches_publication(self):
        for j in (0, 4, 7, 8, 9):
            deg = o2.basic_degree(j, 1)
            assert len(deg.coeffs) == len(o2.REFERENCE_EXPANSIONS[j])


class TestInstantiation:
    def test_product_family(self):
        ring = R()
        fam = o2.OrbitTypeO2("D", 1, "full", "S_4^p", "full")
        (ci,) = oracles.instantiate(fam, 1)
        assert ring.order_of(ci) == 96
        assert ring.label_of(ci) == "D_1 x S_4^p"

    def test_rotating_wave_family(self):
        ring = R()
        fam = o2.OrbitTypeO2("D", 6, "Z_l", "D_3^p", "Z_1")
        hits = oracles.instantiate(fam, 1)
        gens = [
            oracles.temporal(1, 6, oct_word("(145326)")),
            oracles.reflection(0, oct_word("(14)(23)(56)")),
        ]
        target = ring.find_class(oracles.generated(gens))
        assert target in hits

    @pytest.mark.parametrize("l", [8, 11, 41])
    def test_red_families_off_the_grid(self, l):
        # once refused off the angle grid; each family's class at mode l is
        # the cover of its class at mode 1
        ring = R()
        for fam in o2._red_families(0, 4, 7, 8, 9):
            (ci,) = oracles.instantiate(fam, 1)
            cover = ring.register_cover(ci, l)
            assert oracles.instantiate(fam, l) == [cover], oracles.family_label(fam, l)
            assert ring.symbol_key(cover) == fam.key(l)
            assert ring.order_of(cover) == l * ring.order_of(ci)

    def test_pi0_drops_infinite_weyl(self):
        ring = R()
        spatial_only = ring.find_class(
            oracles.generated([oracles.rotation(0, oct_word("(1234)"))])
        )
        finite = o2.basic_degree(0, 1)
        x = ring.element(2, {spatial_only: 5, **finite.coeffs})
        cut = ring.pi0_truncate(x)
        assert spatial_only not in cut.coeffs
        assert cut.coeffs == finite.coeffs
        assert cut.unit == 2


class TestFastPathOracles:
    """The ring's conjugator counts against the direct constructions."""

    @staticmethod
    def _check_pairs(ring, pairs):
        reference = ReferenceFixedCosets()
        classes = {ci for pair in pairs for ci in pair}
        covers = {ci: element_cover(ring, ci) for ci in classes}
        nonzero = 0
        for L, H in pairs:
            want = reference(covers[L], covers[H])
            assert ring.fixed_cosets(L, H) == want, (L, H)
            if want:
                nonzero += 1
                # the builder's profile test rejects no subconjugate pair
                assert builder.profile_fits(covers[H], covers[L]), (L, H)
        return nonzero

    def test_alignment_candidates_match_brute_force(self):
        ring = R()
        step = o2.GRID // 24
        classes = sorted(o2.graph_classes(1), key=ring.order_of)
        pairs = []
        for H in classes[-1], classes[-40], classes[len(classes) // 2]:
            b = ring.representative(H).elements
            refl = sorted(o2.reflections_of(b))
            pairs.append((b, b))
            pairs += [(o2.closure([x]), b) for x in (refl[0], refl[-1])]
            pairs.append((ring.representative(classes[7]).elements, b))
        with_reflection_conjugators = 0
        for a, b in pairs:
            x0 = o2.reflections_of(a)[0]
            brute = {
                c
                for e in (0, 1)
                for k in range(0, o2.GRID, step)
                for g in range(o2.N)
                if oracles.conjugate(x0, oracles.inverse(c := o2.encode(e, k, g))) in b
            }
            got = oracles.alignment_candidates(a, b, o2._refl_by_spatial(b))
            assert got == brute
            with_reflection_conjugators += any(o2.decode(c)[0] == 1 for c in got)
        assert with_reflection_conjugators >= 9

    def test_fixed_cosets_mode1_all_pairs(self):
        ring = R()
        classes = o2.graph_classes(1)
        pairs = [(L, H) for H in classes for L in classes]
        assert self._check_pairs(ring, pairs) > len(classes)

    def test_fixed_cosets_mode2_sample(self):
        ring = R()
        mode1, mode2 = o2.graph_classes(1), o2.graph_classes(2)
        rng = np.random.default_rng(7)
        pool = mode1 + mode2
        pairs = [
            (L, H)
            for H in rng.choice(mode2, size=6, replace=False).tolist()
            for L in pool
        ]
        pairs += [tuple(rng.choice(pool, size=2).tolist()) for _ in range(300)]
        assert self._check_pairs(ring, pairs) > 6

    def test_generators_generate(self):
        ring = R()
        for ci in o2.graph_classes(1) + o2.graph_classes(2):
            rep = element_cover(ring, ci)
            assert o2.closure(rep.generators) == rep.elements, ci
            assert rep.generators is rep.generators, ci

    @pytest.mark.parametrize("l", [2, 3])
    def test_covers_inherit_weyl_order(self, l):
        ring = R()
        for base in o2.graph_classes(1):
            ci = ring.register_cover(base, l)
            assert ring.weyl(ci) == ring.weyl(base)
            assert ring.weyl(ci) == element_cover(ring, ci).weyl_order(), (base, l)


class TestModeOneReading:
    """Every datum of a class K^l read from the mode-1 class K, against the
    covers built element by element at the modes that stay on the grid."""

    BLOCKS = (0, 4, 7, 8, 9)

    @pytest.fixture(scope="class")
    def built(self):
        ring = ElementBuiltRing()
        ring.graph_classes(1)
        return ring

    @staticmethod
    def as_built(ring, built, ci):
        return built.register_cover(*ring._pairs[ci])

    @pytest.mark.parametrize("l", ON_GRID_MODES)
    def test_cover_data(self, built, l):
        ring = R()
        for K in o2.graph_classes(1):
            ci, cj = ring.register_cover(K, l), built.register_cover(K, l)
            A = built.representative(cj)
            assert ring.order_of(ci) == len(A) == l * ring.order_of(K), (K, l)
            assert ring.symbol_key(ci) == builder.symbol_key(A), (K, l)
        rng = np.random.default_rng(300 + l)
        for K in rng.choice(o2.graph_classes(1), size=12, replace=False).tolist():
            ci, cj = ring.register_cover(K, l), built.register_cover(K, l)
            assert ring.weyl(ci) == built.weyl(cj) == ring.weyl(K), (K, l)
            for j in self.BLOCKS:
                for m in (1, l, 2 * l, 3 * l):
                    assert ring.fixed_dim(j, m, ci) == built.fixed_dim(j, m, cj), (K, l)

    @pytest.mark.parametrize("l", ON_GRID_MODES)
    def test_basic_degrees_and_maximal_types(self, built, l):
        ring = R()
        for j in self.BLOCKS:
            got = ring.basic_degree(j, l)
            want = built.basic_degree(j, l)
            assert got.unit == want.unit == 1
            coeffs = {self.as_built(ring, built, ci): n for ci, n in got.coeffs.items()}
            assert coeffs == want.coeffs, (j, l)
            maximal = ring.maximal_orbit_types(j, l)
            assert {self.as_built(ring, built, ci) for ci in maximal} == set(
                built.maximal_orbit_types(j, l)
            ), (j, l)

    def test_fixed_cosets(self, built):
        ring = R()
        classes = o2.graph_classes(1)
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(150):  # (K) <= (M) at mode 1, and a divides b
            M = int(rng.choice(classes))
            K = int(rng.choice(ring.candidate_subtypes(M)))
            b = int(rng.choice(ON_GRID_MODES))
            a = int(rng.choice([a for a in ON_GRID_MODES if b % a == 0]))
            pairs.append((K, a, M, b))
        for _ in range(150):  # drawn blind
            K, M = rng.choice(classes, size=2).tolist()
            a, b = rng.choice(ON_GRID_MODES, size=2).tolist()
            pairs.append((K, a, M, b))
        # a mode-1 class M of temporal-kernel order 2 is the pair (K, 2) for
        # the mode-1 class K, M's image under z -> z^2: a class at mode 1 or
        # 2 is counted against M through K's row of marks, at a / d = 1, and
        # a class at mode 2 against K itself at a / d = 2, which is 0
        kernel_2 = [M for M in classes if ring.symbol_key(M)[3] == 2]
        assert len(kernel_2) == 3
        pairs += [(K, a, M, 1) for M in kernel_2 for K in classes for a in (1, 2)]
        bases = [ring._pairs[M][0] for M in kernel_2]
        pairs += [(K, 2, B, 1) for B in bases for K in classes]
        counted = Counter()
        for K, a, M, b in pairs:
            L, H = ring.register_cover(K, a), ring.register_cover(M, b)
            L_built, H_built = built.register_cover(K, a), built.register_cover(M, b)
            want = built.fixed_cosets(L_built, H_built)
            assert ring.fixed_cosets(L, H) == want, (K, a, M, b)
            (_, a), (_, b) = ring._pairs[L], ring._pairs[H]
            counted[a // math.gcd(a, b), want > 0] += 1
        assert counted[1, True] >= 150 and counted[2, False] >= 500, counted
        assert {a for a, hit in counted if hit} == {1}, counted

    def test_every_basic_degree_to_mode_41(self):
        # the seed-1 sweep box reaches Fourier mode 41
        ring = R()
        unit = ring.unit()
        for l in range(1, 42):
            for j in self.BLOCKS:
                deg = o2.basic_degree(j, l)
                assert deg.unit == 1 and deg * deg == unit, (j, l)

    @pytest.mark.parametrize("l", [2, 8, 9, 11])
    def test_products_match_the_recurrence(self, l):
        # Theta_d is a ring map: for H = A^a and K = B^b with d = gcd(a, b),
        # the recurrence's (H)(K) is its (A^(a/d))(B^(b/d)) with every class
        # L replaced by the cover L^d
        ring = R()
        for j in self.BLOCKS:
            support = sorted(o2.basic_degree(j, l).coeffs)
            for H in support:
                for K in support[support.index(H):]:
                    (A, a), (B, b) = ring._pairs[H], ring._pairs[K]
                    d = math.gcd(a, b)
                    assert d > 1
                    low = ring.multiply_generators(
                        ring.register_cover(A, a // d), ring.register_cover(B, b // d)
                    )
                    covers = {ring.register_cover(L, d): n for L, n in low.items()}
                    assert ring.multiply_generators(H, K) == covers, (j, l, H, K)

    def test_basic_degrees_are_covers_of_mode_one(self):
        # Theta_l is a ring map: the degree at mode l is the mode-1 degree
        # with every class K replaced by the cover K^l
        ring = R()
        for j in self.BLOCKS:
            low = o2.basic_degree(j, 1)
            for l in range(2, 13):
                deg = o2.basic_degree(j, l)
                covers = {ring.register_cover(K, l): n for K, n in low.coeffs.items()}
                assert deg.unit == low.unit == 1 and deg.coeffs == covers, (j, l)


def reference_conjugators(a, b):
    """Alignment candidates c with c^-1 x c in b for every x of a (oracle).

    Element by element through ``conjugate`` and ``inverse``; the ring's
    fused arithmetic must find exactly these.
    """
    candidates = oracles.alignment_candidates(a, b, o2._refl_by_spatial(b))
    return {
        c for c in candidates if all(oracles.conjugate(x, oracles.inverse(c)) in b for x in a)
    }


class TestFusedConjugators:
    """Table-driven conjugator search against the element arithmetic."""

    @staticmethod
    def _pairs(ring, l, rng, n=12):
        """(L, H) pairs at mode l, seeded: half subconjugate, half drawn blind.

        Every class with two or more reflections among its generators is
        also paired with itself: only there do the angles of the other
        reflections enter the search.
        """
        classes = o2.graph_classes(l)
        pairs = []
        for H in rng.choice(classes, size=n, replace=False).tolist():
            subs = ring.candidate_subtypes(H)
            pairs.append((int(rng.choice(subs)), H))
            pairs.append((int(rng.choice(classes)), H))
        for ci in classes:
            if len(o2.reflections_of(element_cover(ring, ci).generators)) > 1:
                pairs.append((ci, ci))
        return pairs

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_conjugators_match_element_arithmetic(self, l):
        ring = R()
        rng = np.random.default_rng(100 + l)
        found = 0
        for L, H in self._pairs(ring, l, rng):
            a = element_cover(ring, L)
            b = element_cover(ring, H).elements
            gens = [o2.decode(x) for x in a.generators]
            got = list(o2._conjugators(gens, b, o2._refl_by_spatial(b)))
            assert len(got) == len(set(got))
            assert set(got) == reference_conjugators(a.elements, b), (L, H)
            found += bool(got)
        assert found >= 12

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_conjugators_onto_match_element_arithmetic(self, l):
        ring = R()
        rng = np.random.default_rng(200 + l)
        for ci in rng.choice(o2.graph_classes(l), size=6, replace=False).tolist():
            A = element_cover(ring, ci)
            e, k, g = rng.integers(2), rng.integers(o2.GRID), rng.integers(48)
            t = o2.encode(int(e), int(k), int(g))
            B = o2.ConcreteSubgroup(oracles.conjugate(x, oracles.inverse(t)) for x in A.elements)
            got = set(A.conjugators_onto(B))
            assert t in got
            assert got == reference_conjugators(A.elements, B.elements), ci
            assert len(got) % len(A) == 0
