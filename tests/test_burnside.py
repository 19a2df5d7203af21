import pytest

from octavib import group_core as gc
from octavib.errors import ConsistencyError

from conftest import all_pairs_maximal
from oracles import INV, OctahedralBurnside, by_label, census_multiply, spatial_ring


@pytest.fixture(scope="module")
def ring():
    return spatial_ring()


class TestElementAlgebra:
    def test_unit_law_random(self, ring, rng):
        labels = [c.label for c in ring.catalog.classes]
        unit = ring.unit()
        for _ in range(20):
            picks = rng.choice(len(labels), size=3, replace=False)
            x = ring.element(
                int(rng.integers(-3, 4)),
                {labels[p]: int(rng.integers(-5, 6)) or 1 for p in picks},
            )
            assert unit * x == x
            assert x * unit == x

    def test_add_sub(self, ring):
        x = ring.generator("D_3^p")
        y = ring.generator("V_4^p")
        assert x + y - x == y

    def test_mixed_rings_rejected(self, ring):
        other = OctahedralBurnside()
        with pytest.raises(ConsistencyError):
            ring.generator("D_3^p") * other.generator("D_3^p")

    def test_json(self, ring):
        x = ring.element(0, {"D_3^z": -1, "Z_1": 2})
        assert x.to_json() == '{"(D_3^z)":-1,"(Z_1)":2}'


class TestProducts:
    def test_recurrence_equals_census_everywhere(self, ring):
        labels = [c.label for c in ring.catalog.classes]
        for H in labels:
            for K in labels:
                product = ring.generator(H) * ring.generator(K)
                assert product == census_multiply(ring, H, K), (H, K)

    def test_fixed_cosets_count_the_conjugators(self, ring):
        # |(G/H)^L| = #{g : L <= g H g^-1} / |H|, each g H g^-1 conjugated
        # element by element through the multiplication table
        for H in ring.catalog.classes:
            conjugates = [
                sum(1 << gc.MUL[gc.MUL[g][x]][INV[g]] for x in H.elements)
                for g in range(gc.N)
            ]
            for L in ring.catalog.classes:
                hits = sum(1 for c in conjugates if L.mask & ~c == 0)
                want, r = divmod(hits, H.order)
                assert not r, (L.label, H.label)
                assert ring.fixed_cosets(L.label, H.label) == want, (L.label, H.label)

    def test_commutative_associative_sample(self, ring, rng):
        labels = [c.label for c in ring.catalog.classes]
        for _ in range(10):
            a, b, c = (ring.generator(labels[i]) for i in rng.integers(0, 33, 3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_self_product_leading_coefficient(self, ring):
        for label in ("D_3^p", "V_4^p", "D_4^z", "D_1^z"):
            cls = by_label(ring.catalog, label)
            sq = ring.generator(label) * ring.generator(label)
            assert sq.coeffs.get(label, 0) == cls.weyl_order


class TestBasicDegrees:
    def test_trivial_representation(self, ring):
        deg = ring.basic_degree(0)
        assert deg == ring.element(-1, {})

    def test_all_ten_are_involutions(self, ring):
        unit = ring.unit()
        for j in range(10):
            deg = ring.basic_degree(j)
            assert deg * deg == unit, j

    def test_block_seven_expansion(self, ring):
        deg = ring.basic_degree(7)
        assert deg == ring.element(
            1, {"D_4^z": -1, "D_3^z": -1, "D_2^d": -1, "D_1^z": 2, "Z_2^-": 1, "Z_1": -1}
        )

    def test_leading_coefficient_law(self, ring):
        for j in range(10):
            deg = ring.basic_degree(j) - ring.unit()
            if j == 0:
                assert deg.unit == -2  # the full group itself carries the law
                continue
            maximal = ring.maximal(list(deg.coeffs))
            assert maximal
            for lb in maximal:
                n, w = deg.coeffs.get(lb, 0), ring.weyl(lb)
                assert (n, w) in ((-1, 2), (-2, 1)), (j, lb, n, w)
                assert ring.fixed_dim(j, lb) % 2 == 1

    def test_degree_from_dims_matches_character_path(self, ring):
        for j in (1, 4, 7, 9):
            dims = {c.label: ring.fixed_dim(j, c.label) for c in ring.catalog.classes}
            assert ring.basic_degree_from_dims(dims) == ring.basic_degree(j)

    def test_inconsistent_dims_panic(self, ring):
        dims = {c.label: 1 for c in ring.catalog.classes}
        dims["D_1^z"] = 2  # breaks the parity structure of a real representation
        with pytest.raises(ConsistencyError):
            ring.basic_degree_from_dims(dims)

    def test_maximal_matches_all_pairs_on_every_support(self, ring):
        for j in range(10):
            keys = list(ring.basic_degree(j).coeffs)
            assert ring.maximal(keys) == all_pairs_maximal(ring, keys), j

    def test_pi0_is_identity_here(self, ring):
        x = ring.basic_degree(7)
        assert ring.pi0_truncate(x) == x


class TestRingTables:
    def test_basic_degree_fills_the_ring_tables_once(self):
        fresh = OctahedralBurnside()
        assert not fresh.memo
        fresh.basic_degree(7)
        assert fresh.memo["fixed_cosets"] and fresh.memo["fixed_dim"]
        keys = {name: set(table) for name, table in fresh.memo.items()}
        fresh.basic_degree(7)
        assert {name: set(table) for name, table in fresh.memo.items()} == keys
