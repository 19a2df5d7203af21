import math

import numpy as np
import pytest

from octavib import group_core as gc
from octavib import orbit_o2 as o2

R = lambda: o2.ring()


def reference_fixed_cosets(ring, L, H, weyl_orders):
    """Distinct conjugates of H containing L, times |W(H)| (oracle).

    ``weyl_orders`` caches ``ConcreteSubgroup.weyl_order()`` per class.
    """
    a = ring.representative(L).elements
    b = ring.representative(H).elements
    if len(b) % len(a):
        return 0
    hits, seen = set(), set()
    for c in o2._alignment_candidates(a, b, o2._refl_by_spatial(b)):
        if c in seen:
            continue
        ci = o2.inverse(c)
        if all(o2.conjugate(x, ci) in b for x in a):
            # every conjugator in the coset cH gives the same conjugate
            seen.update(o2.multiply(c, h) for h in b)
            hits.add(frozenset(o2.conjugate(x, c) for x in b))
    if not hits:
        return 0
    if H not in weyl_orders:
        weyl_orders[H] = ring.representative(H).weyl_order()
    return len(hits) * weyl_orders[H]


def oct_word(word):
    return gc.element_from_vertex_word(word)


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
            assert o2.multiply(x, o2.inverse(x)) == o2.IDENTITY
            lhs = o2.conjugate(x, c)
            rhs = o2.multiply(o2.multiply(c, x), o2.inverse(c))
            assert lhs == rhs


class TestConcreteSubgroups:
    def test_full_symmetry_type_order(self):
        gens = [
            o2.reflection(),
            o2.rotation(0, oct_word("(1234)")),
            o2.rotation(0, oct_word("(146)(253)")),
            o2.rotation(0, oct_word("(13)(24)(56)")),
        ]
        A = o2.ConcreteSubgroup.generated(gens)
        assert len(A) == 96
        assert A.weyl_order() == 2

    def test_rotating_wave_type(self):
        gens = [
            o2.temporal(1, 6, oct_word("(145326)")),
            o2.reflection(0, oct_word("(14)(23)(56)")),
        ]
        A = o2.ConcreteSubgroup.generated(gens)
        assert len(A) == 12
        assert A.weyl_order() == 2
        assert o2.amalgam_symbol(A) == "D_6^{Z_1} x_{D_3^p} D_3^p"

    def test_self_conjugate(self):
        A = o2.ConcreteSubgroup.generated([o2.reflection(0, oct_word("(56)"))])
        assert A.is_conjugate(A)

    def test_rotated_reflections_conjugate(self):
        A = o2.ConcreteSubgroup.generated([o2.reflection(0)])
        B = o2.ConcreteSubgroup.generated([o2.reflection(o2.GRID // 3)])
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
                w24 = rep.truncated_weyl_order(24)
                w48 = rep.truncated_weyl_order(48)
                assert w24 == w48 == rep.weyl_order()

    def test_infinite_weyl_for_rotation_only(self):
        A = o2.ConcreteSubgroup.generated([o2.rotation(o2.GRID // 2)])
        assert A.weyl_order() is None

    def test_mode_cover_order(self):
        A = o2.ConcreteSubgroup.generated([o2.reflection()])
        for l in (2, 3, 5):
            assert len(o2.mode_cover(A, l)) == 2 * l


class TestMaximalTypes:
    def test_labels_pinned_by_the_ring(self, fresh_ring):
        for j in (0, 4, 7, 8, 9):
            classes = o2.maximal_orbit_types(j, 1)
            assert o2.maximal_orbit_types(j, 1) is classes  # computed once
            got = {fresh_ring.label_of(ci) for ci in classes}
            assert got == set(o2.reference_red_labels(j)), j

    def test_pin_replaces_a_label_read_before(self, fresh_ring):
        # blocks 7 and 8 each hold a class whose reference spelling differs
        # from its amalgam symbol; a label read first must not survive the pin
        replaced = 0
        for j in (7, 8):
            fixing = [
                ci for ci in o2.graph_classes(1) if fresh_ring.fixed_dim(j, 1, ci) >= 1
            ]
            unpinned = fresh_ring.maximal(fixing)
            before = {ci: fresh_ring.label_of(ci) for ci in unpinned}
            assert set(o2.maximal_orbit_types(j, 1)) == set(unpinned)
            after = {ci: fresh_ring.label_of(ci) for ci in unpinned}
            assert set(after.values()) == set(o2.reference_red_labels(j)), j
            replaced += sum(before[ci] != after[ci] for ci in unpinned)
        assert replaced == 3

    def test_new_ring_starts_with_empty_tables(self, fresh_ring):
        assert fresh_ring.memo == {}
        o2.maximal_orbit_types(0, 1)
        assert fresh_ring.memo["fixed_dim"] and fresh_ring.memo["label_of"]
        assert o2.TemporalOctahedralRing().memo == {}

    def test_reference_red_sets(self, sixteen_types):
        ring = R()
        for j in (0, 4, 7, 8, 9):
            got = {ring.label_of(ci) for ci in sixteen_types[j]}
            assert got == set(o2.reference_red_labels(j)), j

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
        rep = ring.representative(ci)
        assert rep.temporal_projection() == ("D", 2)

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
                fam.label(1): coeff
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
        (ci,) = o2.instantiate(fam, 1)
        assert ring.order_of(ci) == 96
        assert ring.label_of(ci) == "D_1 x S_4^p"

    def test_rotating_wave_family(self):
        ring = R()
        fam = o2.OrbitTypeO2("D", 6, "Z_l", "D_3^p", "Z_1")
        hits = o2.instantiate(fam, 1)
        gens = [
            o2.temporal(1, 6, oct_word("(145326)")),
            o2.reflection(0, oct_word("(14)(23)(56)")),
        ]
        target = ring.find_class(o2.ConcreteSubgroup.generated(gens))
        assert target in hits

    def test_pi0_drops_infinite_weyl(self):
        ring = R()
        spatial_only = ring.find_class(
            o2.ConcreteSubgroup.generated([o2.rotation(0, oct_word("(1234)"))])
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
    def _check_pairs(ring, pairs, weyl_orders):
        nonzero = 0
        for L, H in pairs:
            want = reference_fixed_cosets(ring, L, H, weyl_orders)
            assert ring.fixed_cosets(L, H) == want, (L, H)
            if want:
                nonzero += 1
                assert ring._profile_fits(L, H), (L, H)
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
                if o2.conjugate(x0, o2.inverse(c := o2.encode(e, k, g))) in b
            }
            got = o2._alignment_candidates(a, b, o2._refl_by_spatial(b))
            assert got == brute
            with_reflection_conjugators += any(o2.decode(c)[0] == 1 for c in got)
        assert with_reflection_conjugators >= 9

    def test_fixed_cosets_mode1_all_pairs(self):
        ring = R()
        classes = o2.graph_classes(1)
        weyl_orders = {}
        pairs = [(L, H) for H in classes for L in classes]
        assert self._check_pairs(ring, pairs, weyl_orders) > len(classes)

    def test_fixed_cosets_mode2_sample(self):
        ring = R()
        mode1, mode2 = o2.graph_classes(1), o2.graph_classes(2)
        rng = np.random.default_rng(7)
        weyl_orders = {}
        pool = mode1 + mode2
        pairs = [
            (L, H)
            for H in rng.choice(mode2, size=6, replace=False).tolist()
            for L in pool
        ]
        pairs += [tuple(rng.choice(pool, size=2).tolist()) for _ in range(300)]
        assert self._check_pairs(ring, pairs, weyl_orders) > 6

    def test_generators_generate(self):
        ring = R()
        for ci in o2.graph_classes(1) + o2.graph_classes(2):
            rep = ring.representative(ci)
            assert o2.closure(rep.generators()) == rep.elements, ci

    @pytest.mark.parametrize("l", [2, 3])
    def test_covers_inherit_weyl_order(self, l):
        ring = R()
        for base in o2.graph_classes(1):
            ci = ring.register_cover(base, l)
            assert ring.weyl(ci) == ring.weyl(base)
            assert ring.weyl(ci) == ring.representative(ci).weyl_order(), (base, l)


def reference_conjugators(a, b):
    """Alignment candidates c with c^-1 x c in b for every x of a (oracle).

    Element by element through ``conjugate`` and ``inverse``; the ring's
    fused arithmetic must find exactly these.
    """
    candidates = o2._alignment_candidates(a, b, o2._refl_by_spatial(b))
    return {
        c for c in candidates if all(o2.conjugate(x, o2.inverse(c)) in b for x in a)
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
            if len(o2.reflections_of(ring.representative(ci).generators())) > 1:
                pairs.append((ci, ci))
        return pairs

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_conjugators_match_element_arithmetic(self, l):
        ring = R()
        rng = np.random.default_rng(100 + l)
        found = 0
        for L, H in self._pairs(ring, l, rng):
            a = ring.representative(L)
            b = ring.representative(H).elements
            gens = [o2.decode(x) for x in a.generators()]
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
            A = ring.representative(ci)
            e, k, g = rng.integers(2), rng.integers(o2.GRID), rng.integers(48)
            t = o2.encode(int(e), int(k), int(g))
            B = o2.ConcreteSubgroup(o2.conjugate(x, o2.inverse(t)) for x in A.elements)
            got = set(A.conjugators_onto(B))
            assert t in got
            assert got == reference_conjugators(A.elements, B.elements), ci
            assert len(got) % len(A) == 0
