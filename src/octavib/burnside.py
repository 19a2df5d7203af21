"""Burnside ring arithmetic over a catalog of orbit types.

The product of two generators is computed with the standard recurrence

    n_L = [ fix_L(G/H) * fix_L(G/K) - sum_{(Lt) > (L)} fix_L(G/Lt) * n_Lt ]
          / |W(L)|,

processed in decreasing subgroup order; every division must be exact, a
fractional quotient aborts with a consistency error.  ``fix_L(G/H)`` is the
number of cosets fixed pointwise by L, equal to n(L,H) |W(H)|.  Products,
basic degrees and coefficients read back from marks all run this one
recurrence (``BurnsideRing.recurrence``), each with its own pool and
leading term.

Two backends provide the catalog hooks: the finite octahedral group (this
module) and the temporal-symmetry extension (``orbit_o2``).  Whatever a ring
keeps goes through one mechanism, ``cached``: a per-instance table keyed by
method name and arguments.
"""

import functools
from collections import defaultdict

import numpy as np

from . import accel, group_core
from ._serialize import dumps
from .errors import ConsistencyError

UNIT_KEY = "__unit__"


def cached(method):
    """Make a ring method a lookup in ``ring.memo[method name]``, by arguments.

    Each value is computed once per key per ring, and a new ring starts with
    no tables.  Arguments are positional, so one key names one value; a call
    that raises stores nothing.
    """
    name = method.__name__

    @functools.wraps(method)
    def lookup(self, *args):
        table = self.memo[name]
        try:
            return table[args]
        except KeyError:
            pass  # compute outside the handler: its errors must not chain to a KeyError
        value = table[args] = method(self, *args)
        return value

    return lookup


class BurnsideElement:
    """Finitely supported integer combination of orbit types, plus a unit part."""

    __slots__ = ("ring", "unit", "coeffs")

    def __init__(self, ring, unit=0, coeffs=None):
        self.ring = ring
        self.unit = int(unit)
        self.coeffs = {k: int(v) for k, v in (coeffs or {}).items() if v}

    def __eq__(self, other):
        return (
            isinstance(other, BurnsideElement)
            and self.ring is other.ring
            and self.unit == other.unit
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.ring), self.unit, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return BurnsideElement(self.ring, self.unit + other.unit, out)

    def __neg__(self):
        return BurnsideElement(self.ring, -self.unit, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for k, v in self.coeffs.items():
            out[k] = out.get(k, 0) + v * other.unit
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v * self.unit
        for h, ch in self.coeffs.items():
            for k, ck in other.coeffs.items():
                for l, q in self.ring.multiply_generators(h, k).items():
                    out[l] = out.get(l, 0) + ch * ck * q
        return BurnsideElement(self.ring, self.unit * other.unit, out)

    def _check(self, other):
        if not isinstance(other, BurnsideElement) or other.ring is not self.ring:
            raise ConsistencyError("elements belong to different ambient rings")

    def support(self):
        return set(self.coeffs)

    def coefficient(self, key):
        if key == UNIT_KEY:
            return self.unit
        return self.coeffs.get(key, 0)

    def items(self):
        return self.coeffs.items()

    def to_json(self):
        doc = {f"({self.ring.label_of(k)})": v for k, v in self.coeffs.items()}
        if self.unit:
            doc[f"({self.ring.unit_label})"] = self.unit
        return dumps(doc)

    def __repr__(self):
        terms = []
        if self.unit:
            terms.append(f"{self.unit:+d}({self.ring.unit_label})")
        for k in self.ring.sorted_support(self.coeffs):
            terms.append(f"{self.coeffs[k]:+d}({self.ring.label_of(k)})")
        return " ".join(terms) if terms else "0"


class BurnsideRing:
    """Shared recurrence machinery; subclasses provide the catalog hooks."""

    unit_label = "G"

    def __init__(self):
        self.memo = defaultdict(dict)  # method name -> {arguments: value}

    # hooks ------------------------------------------------------------
    def weyl(self, key):
        raise NotImplementedError

    def order_of(self, key):
        raise NotImplementedError

    def fixed_cosets(self, L, H):
        raise NotImplementedError

    def candidate_subtypes(self, H):
        """Orbit-type keys of all subgroup classes of H (including H)."""
        raise NotImplementedError

    def label_of(self, key):
        return str(key)

    def finite_weyl(self, key):
        return True

    # generic machinery -------------------------------------------------
    def element(self, unit=0, coeffs=None):
        return BurnsideElement(self, unit, coeffs)

    def unit(self):
        return BurnsideElement(self, 1, {})

    def sorted_support(self, coeffs):
        return sorted(coeffs, key=lambda k: (-self.order_of(k), self.label_of(k)))

    def recurrence(self, pool, lead):
        """Coefficients n_L over the classes of `pool`, largest first:

            n_L = (lead(L) - sum_{Lt found earlier} fix_L(G/Lt) n_Lt) / |W(L)|.

        Every division is checked exact; zero coefficients are dropped.
        """
        out = {}
        for L in sorted(pool, key=lambda L: -self.order_of(L)):
            s = lead(L) - sum(self.fixed_cosets(L, Lt) * n for Lt, n in out.items())
            q, r = divmod(s, self.weyl(L))
            if r:
                raise ConsistencyError(
                    f"recurrence non-integral at {self.label_of(L)}: {s}/{self.weyl(L)}"
                )
            if q:
                out[L] = q
        return out

    def maximal(self, keys):
        """The keys no other key of `keys` lies above."""
        return [
            L
            for L in keys
            if not any(t != L and self.fixed_cosets(L, t) > 0 for t in keys)
        ]

    def multiply_generators(self, H, K):
        """(H) * (K); the product commutes, so both orders share one entry."""
        return self._product(min(H, K), max(H, K))

    @cached
    def _product(self, H, K):
        return self.recurrence(
            [L for L in self.candidate_subtypes(H) if self.fixed_cosets(L, K) > 0],
            lambda L: self.fixed_cosets(L, H) * self.fixed_cosets(L, K),
        )

    def pi0_truncate(self, element):
        """Drop every orbit type with positive-dimensional Weyl group."""
        keep = {k: v for k, v in element.coeffs.items() if self.finite_weyl(k)}
        return BurnsideElement(self, element.unit, keep)


class OctahedralBurnside(BurnsideRing):
    """A(G) for the order-48 octahedral group; keys are catalog labels."""

    unit_label = "S_4^p"

    def __init__(self, cat=None):
        super().__init__()
        self.catalog = cat or group_core.catalog()

    def weyl(self, label):
        return self.catalog.by_label(label).weyl_order

    def order_of(self, label):
        return self.catalog.by_label(label).order

    def fixed_cosets(self, L, H):
        return self.catalog.fixed_cosets(
            self.catalog.index_of_label[L], self.catalog.index_of_label[H]
        )

    def candidate_subtypes(self, H):
        hidx = self.catalog.index_of_label[H]
        return [
            c.label
            for ci, c in enumerate(self.catalog.classes)
            if self.catalog.subconjugate(ci, hidx)
        ]

    def generator(self, label):
        self.catalog.by_label(label)  # validate
        if label == self.unit_label:
            return self.unit()
        return self.element(0, {label: 1})

    # ---------------- brute-force census oracle ----------------------
    @cached
    def _tables(self):
        cat = self.catalog
        masks = []
        ids = []
        for ci, c in enumerate(cat.classes):
            for m in c.conjugates:
                masks.append(m)
                ids.append(ci)
        order = np.argsort(masks)
        return (
            np.array(masks, dtype=np.uint64)[order],
            np.array(ids, dtype=np.int64)[order],
        )

    def census_multiply(self, H, K):
        """(H)*(K) by enumerating points of G/H x G/K and their stabilizers."""
        cat = self.catalog
        sorted_masks, class_ids = self._tables()
        hi = cat.index_of_label[H]
        ki = cat.index_of_label[K]
        conj_h = np.array(
            [group_core.conj_mask(cat.classes[hi].mask, g) for g in cat.coset_reps(hi)],
            dtype=np.uint64,
        )
        conj_k = np.array(
            [group_core.conj_mask(cat.classes[ki].mask, g) for g in cat.coset_reps(ki)],
            dtype=np.uint64,
        )
        counts = accel.census_counts(
            conj_h, conj_k, sorted_masks, class_ids, len(cat.classes)
        )
        out = {}
        for ci, cnt in enumerate(counts):
            if not cnt:
                continue
            orbit_size = group_core.N // cat.classes[ci].order
            n, r = divmod(int(cnt), orbit_size)
            if r:
                raise ConsistencyError("census points do not fill whole orbits")
            label = cat.classes[ci].label
            if label == self.unit_label:
                continue
            out[label] = n
        unit = 1 if H == self.unit_label and K == self.unit_label else 0
        # the unit class appears only when both factors are the full group
        full = self.element(unit, out)
        return full

    # ---------------- basic degrees ----------------------------------
    def basic_degree_from_dims(self, fixed_dims):
        """Degree of the antipodal map from dim V^K data (one per label)."""
        if self.unit_label not in fixed_dims:
            raise ConsistencyError("fixed_dims must include the full group")
        out = self.recurrence(fixed_dims, lambda K: (-1) ** fixed_dims[K])
        unit = out.pop(self.unit_label, 0)
        return self.element(unit, out)

    def basic_degree(self, j):
        """Degree of the antipodal map on the ball of irreducible j."""
        cat = self.catalog
        dims = {
            c.label: cat.irrep_fixed_dim(j, ci) for ci, c in enumerate(cat.classes)
        }
        return self.basic_degree_from_dims(dims)


_RING = None


def ring():
    global _RING
    if _RING is None:
        _RING = OctahedralBurnside()
    return _RING
