import itertools

import numpy as np
import pytest

from octavib import burnside, group_core as gc
from octavib.errors import ConsistencyError

import oracles
from oracles import element_from_vertex_word, enumerate_subgroups


def closure_mask_oracle(gen_ids):
    """Subgroup generated by the ids, closed under products on both sides."""
    elems = {gc.IDENTITY, *gen_ids}
    frontier = list(elems)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(elems):
                for z in (gc.MUL[x][y], gc.MUL[y][x]):
                    if z not in elems:
                        elems.add(z)
                        nxt.append(z)
        frontier = nxt
    m = 0
    for x in elems:
        m |= 1 << x
    return m


class TestElements:
    def test_group_order_by_closure(self):
        # repeated multiplication from the reference generator images
        gens = [
            gc.element_from_word(w)
            for w in ("(24)", "(12)(34)", "(56)", "(132)", "(1234)")
        ]
        elems = {gc.IDENTITY}
        frontier = [gc.IDENTITY]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = gc.MUL[g][x]
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
            frontier = nxt
        assert len(elems) == 48
        assert sorted(elems) == list(range(48))

    def test_identity(self):
        assert gc.PERM[gc.IDENTITY] == (0, 1, 2, 3, 4, 5)
        assert np.array_equal(gc.octahedral_matrix(gc.IDENTITY), np.eye(3))

    def test_vertex_correspondences(self):
        # the reference element pairings, read as vertex permutations
        cases = {
            "(24)": ((1, 4), (2, 3), (5, 6)),
            "(12)(34)": ((1, 3), (5, 6)),
            "(56)": ((1, 3), (2, 4), (5, 6)),
            "(132)": ((1, 4, 6), (2, 5, 3)),
        }
        for word, cycles in cases.items():
            i = gc.element_from_word(word)
            expect = [0, 1, 2, 3, 4, 5]
            for cyc in cycles:
                for t in range(len(cyc)):
                    expect[cyc[t] - 1] = cyc[(t + 1) % len(cyc)] - 1
            assert gc.PERM[i] == tuple(expect)

    def test_four_cycle_lands_on_inverse_vertex_cycle(self):
        # the remaining pairing of the reference list holds up to cycle
        # orientation: the element maps to the inverse vertex 4-cycle
        i = gc.element_from_word("(1234)")
        assert gc.PERM[i] == (3, 0, 1, 2, 4, 5)
        assert gc.PERM[gc.INV[i]] == (1, 2, 3, 0, 4, 5)

    def test_quarter_turn_matrix(self):
        i = element_from_vertex_word("(1234)")
        assert np.array_equal(
            gc.octahedral_matrix(i), np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        )

    def test_antipode_matrix(self):
        i = gc.element_from_word("(56)")
        assert np.array_equal(gc.octahedral_matrix(i), -np.eye(3))

    def test_matrix_homomorphism(self, rng):
        for _ in range(200):
            i, j = rng.integers(0, 48, size=2)
            ij = gc.MUL[i][j]
            assert np.array_equal(
                gc.octahedral_matrix(ij),
                gc.octahedral_matrix(i) @ gc.octahedral_matrix(j),
            )

    def test_matrix_moves_vertices(self):
        for i in range(48):
            M = gc.octahedral_matrix(i)
            for j in range(6):
                assert np.array_equal(M @ gc.VERTICES[j], gc.VERTICES[gc.PERM[i][j]])

    def test_class_sizes(self):
        assert gc.CLASS_SIZES == (1, 1, 6, 6, 3, 3, 8, 8, 6, 6)
        assert sum(gc.CLASS_SIZES) == 48


class TestAction:
    def test_identity_action(self):
        assert np.array_equal(gc.action_matrix_18(gc.IDENTITY), np.eye(18))

    def test_orthogonal(self):
        for i in range(48):
            G = gc.action_matrix_18(i)
            assert np.allclose(G @ G.T, np.eye(18), atol=1e-12)

    def test_representation_property_exhaustive(self):
        mats = [gc.action_matrix_18(i) for i in range(48)]
        for i in range(48):
            for j in range(48):
                assert np.array_equal(mats[gc.MUL[i][j]], mats[i] @ mats[j])

    def test_fixes_radial_configuration(self):
        v0 = (1.4128 * gc.VERTICES.astype(float)).reshape(18)
        for i in range(48):
            assert np.allclose(gc.action_matrix_18(i) @ v0, v0)

    def test_row_gather_is_the_action(self, rng):
        # the stacked (x, -x) gathered at ACTION_ROWS[g] is ACTIONS_18[g] @ x
        for x in (rng.normal(size=(18, 7)), np.arange(1.0, 19.0)[:, None]):
            stacked = np.concatenate([x, -x])
            for g in range(gc.N):
                got = stacked[gc.ACTION_ROWS[g]]
                assert got.tobytes() == (gc.ACTIONS_18[g] @ x).tobytes()

    def test_action_character_row(self):
        assert gc.action_character() == (18, 0, 0, 2, -2, 4, 0, 0, 2, 0)

    def test_isotropy_is_exactly_the_paired_embedding(self):
        # among all (vertex permutation, octahedral matrix) pairs, exactly
        # the 48 matched pairs fix the template configuration
        p0 = gc.VERTICES.astype(float).reshape(18)
        count = 0
        for i, j in itertools.product(range(48), range(48)):
            pi = gc.PERM[i]
            M = gc.octahedral_matrix(j)
            G = np.zeros((18, 18))
            for k in range(6):
                G[3 * pi[k] : 3 * pi[k] + 3, 3 * k : 3 * k + 3] = M
            if np.allclose(G @ p0, p0):
                count += 1
                assert i == j
        assert count == 48

    def test_fixed_space_is_one_dimensional(self):
        P = sum(gc.action_matrix_18(i) for i in range(48)) / 48.0
        w = np.linalg.eigvalsh(P)
        assert int(round(np.sum(w > 0.5))) == 1


class TestCatalog:
    def test_thirty_three_classes(self):
        cat = gc.catalog()
        assert len(cat) == 33
        assert set(cat.index_of_label) == set(gc.CATALOG_WORDS)

    def test_every_subgroup_covered_once(self):
        cat = gc.catalog()
        all_subgroups = enumerate_subgroups()
        union = [m for c in cat.classes for m in c.conjugates]
        assert len(union) == len(set(union)) == len(all_subgroups)
        assert set(union) == all_subgroups

    def test_built_from_the_reference_words_alone(self):
        # the subgroup enumeration is a test oracle: the package has none
        assert not hasattr(gc, "enumerate_subgroups")
        cat = gc.Catalog()
        assert len(cat) == 33
        reps = [c.mask for c in cat.classes]
        assert reps == sorted(reps)  # ordered by least member
        assert all(c.mask == min(c.conjugates) for c in cat.classes)

    def test_duplicate_reference_word_refused(self, monkeypatch):
        monkeypatch.setitem(gc.CATALOG_WORDS, "Z_2'", ("(13)(24)",))
        with pytest.raises(ConsistencyError, match="duplicate catalog class: Z_2' vs Z_2"):
            gc.Catalog()

    def test_named_generators_reproduce_orders(self):
        cat = gc.catalog()
        expected_orders = {
            "Z_1": 1, "D_3^p": 12, "V_4^p": 8, "D_4^p": 16, "S_4^p": 48,
            "A_4^p": 24, "S_4^-": 24, "Z_2^-": 2, "D_2^d": 4, "D_1^z": 2,
        }
        for label, order in expected_orders.items():
            assert cat.by_label(label).order == order

    def test_d3p_generators(self):
        cat = gc.catalog()
        cls = cat.by_label("D_3^p")
        gens = [gc.element_from_word(w) for w in ("(234)", "(24)", "(56)")]
        assert gc.closure_mask(gens) in cls.conjugates
        assert cls.order == 12

    def test_trivial_weyl(self):
        cat = gc.catalog()
        assert cat.by_label("Z_1").weyl_order == 48
        assert cat.by_label("S_4^p").weyl_order == 1

    def test_weyl_consistency(self):
        cat = gc.catalog()
        for c in cat.classes:
            assert c.normalizer_order % c.order == 0
            assert c.weyl_order == c.normalizer_order // c.order

    def test_normalizer_orders_against_the_scan(self):
        # oracle: count the elements conjugating the representative to itself
        for c in gc.catalog().classes:
            scan = sum(1 for g in range(gc.N) if gc.conj_mask(c.mask, g) == c.mask)
            assert c.normalizer_order == scan, c.label

    def test_tables_equal_the_composition_oracle(self):
        # MUL and INV from index arithmetic on PERM, against composing the
        # vertex permutations pair by pair: the same tuples of ints
        mul, inv = oracles.composed_tables()
        assert gc.MUL == mul and gc.INV == inv
        assert all(type(x) is int for row in gc.MUL for x in row)
        assert all(type(x) is int for x in gc.INV)

    def test_conjugation_table(self):
        for g in range(gc.N):
            for x in range(gc.N):
                assert gc.CONJ[g, x] == gc.MUL[gc.MUL[gc.INV[g]][x]][g]

    def test_conjugates_against_the_scan(self):
        # oracle: conjugate the representative by each element, one at a time
        for c in gc.catalog().classes:
            scan = [gc.conj_mask(c.mask, gc.INV[g]) for g in range(gc.N)]
            assert gc.conjugate_masks(c.mask) == scan, c.label
            assert c.conjugates == tuple(sorted(set(scan))), c.label


class TestCounts:
    def test_self_count(self):
        ring = burnside.ring()
        for label in ("Z_1", "D_3^p", "S_4^p", "V_4^p"):
            assert ring.fixed_cosets(label, label) == ring.weyl(label)

    def test_lagrange_zero(self):
        # order 12 does not divide order 16
        assert burnside.ring().fixed_cosets("D_3^p", "D_4^p") == 0

    def test_trivial_subgroup_fixes_all_cosets(self):
        ring = burnside.ring()
        for c in ring.catalog.classes:
            assert ring.fixed_cosets("Z_1", c.label) == 48 // c.order

    def test_export_shape(self):
        rows = gc.catalog().export()
        assert len(rows) == 33
        for row in rows:
            assert set(row) == {
                "label", "order", "generators", "normalizer_order", "weyl_order",
            }


class TestClosureOracle:
    """Generator-BFS closure against closure under all products."""

    def test_every_subgroup_element_list(self):
        for m in enumerate_subgroups():
            els = gc.mask_elements(m)
            assert gc.closure_mask(els) == closure_mask_oracle(els) == m

    def test_random_generator_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            gens = rng.integers(0, 48, size=rng.integers(0, 5)).tolist()
            assert gc.closure_mask(gens) == closure_mask_oracle(gens), gens

    def test_enumeration_unchanged(self, monkeypatch):
        fast = enumerate_subgroups()
        monkeypatch.setattr(gc, "closure_mask", closure_mask_oracle)
        slow = enumerate_subgroups()
        assert len(fast) == 98
        assert fast == slow
