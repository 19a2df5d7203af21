import numpy as np
import pytest

from octavib import accel, burnside, group_core as gc
from octavib.errors import ConsistencyError


def census_loop(conj_h, conj_k, sorted_masks, class_ids, n_classes):
    """Scalar oracle for ``accel.census_counts``, one coset pair at a time."""
    counts = np.zeros(n_classes, dtype=np.int64)
    for mh in conj_h:
        for mk in conj_k:
            counts[class_ids[np.searchsorted(sorted_masks, mh & mk)]] += 1
    return counts


@pytest.fixture(scope="module")
def ring():
    return burnside.ring()


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
        other = burnside.OctahedralBurnside()
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
                assert ring.generator(H) * ring.generator(K) == ring.census_multiply(
                    H, K
                ), (H, K)

    def test_commutative_associative_sample(self, ring, rng):
        labels = [c.label for c in ring.catalog.classes]
        for _ in range(10):
            a, b, c = (ring.generator(labels[i]) for i in rng.integers(0, 33, 3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_self_product_leading_coefficient(self, ring):
        for label in ("D_3^p", "V_4^p", "D_4^z", "D_1^z"):
            cls = ring.catalog.by_label(label)
            sq = ring.generator(label) * ring.generator(label)
            assert sq.coefficient(label) == cls.weyl_order

    def test_census_kernels_agree(self, ring):
        cat = ring.catalog
        masks, ids = ring._tables()
        for h, k in (("D_3^p", "D_4^p"), ("V_4^p", "D_2^d"), ("Z_1", "S_4^p")):
            conj_h, conj_k = (
                np.array(
                    [gc.conj_mask(cat.classes[i].mask, g) for g in cat.coset_reps(i)],
                    dtype=np.uint64,
                )
                for i in (cat.index_of_label[h], cat.index_of_label[k])
            )
            args = (conj_h, conj_k, masks, ids, len(cat.classes))
            counts = accel.census_counts(*args)
            assert np.array_equal(counts, census_loop(*args)), (h, k)
            assert counts.sum() == len(conj_h) * len(conj_k)


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
        cat = ring.catalog
        for j in range(10):
            deg = ring.basic_degree(j) - ring.unit()
            supp = list(deg.coeffs)
            if j == 0:
                supp.append(burnside.UNIT_KEY)
            maximal = [
                lb
                for lb in deg.coeffs
                if not any(
                    other != lb
                    and cat.subconjugate(
                        cat.index_of_label[lb], cat.index_of_label[other]
                    )
                    for other in deg.coeffs
                )
            ]
            if j == 0:
                assert deg.unit == -2  # the full group itself carries the law
                continue
            assert maximal
            for lb in maximal:
                w = cat.by_label(lb).weyl_order
                n = deg.coefficient(lb)
                assert (n, w) in ((-1, 2), (-2, 1)), (j, lb, n, w)
                ci = cat.index_of_label[lb]
                assert cat.irrep_fixed_dim(j, ci) % 2 == 1

    def test_degree_from_dims_matches_character_path(self, ring):
        cat = ring.catalog
        for j in (1, 4, 7, 9):
            dims = {
                c.label: cat.irrep_fixed_dim(j, ci)
                for ci, c in enumerate(cat.classes)
            }
            assert ring.basic_degree_from_dims(dims) == ring.basic_degree(j)

    def test_inconsistent_dims_panic(self, ring):
        cat = ring.catalog
        dims = {c.label: 1 for c in cat.classes}
        dims["D_1^z"] = 2  # breaks the parity structure of a real representation
        with pytest.raises(ConsistencyError):
            ring.basic_degree_from_dims(dims)

    def test_pi0_is_identity_here(self, ring):
        x = ring.basic_degree(7)
        assert ring.pi0_truncate(x) == x
