"""Orbit types in the product of the temporal O(2) with the octahedral group.

Elements of the ambient group are encoded as integers: a triple
(refl, angle, g) with angle on a fixed fraction-of-turn grid (denominator
``GRID``), refl selecting rotation vs reflection in O(2), and g one of the
48 spatial elements.  All subgroup work (closure, conjugacy, normalizers)
is exact integer arithmetic.

Every finite reflection-containing subgroup is conjugate to a cover of a
"character graph": a subgroup K of the spatial group, a U(1)-character chi
pairing each k with the rotation angle chi(k), and a reflection extension.
Enumerating those triples yields the mode-1 classes, with their element
sets.  A class at Fourier mode l is the pair (K, l) of a mode-1 class K and
l: the preimage K^l of K under the temporal map z -> z^l, which is never
built.  Pulling orbit types back along z -> z^l is the l-folding
homomorphism Theta_l, a ring map that keeps marks (Balanov, Krawcewicz and
Steinlein, *Applied Equivariant Degree*, 2006), so each datum of K^l is
read from K: its order, Weyl order, symbol key, label, fixed dimensions,
fixed cosets and maximal types.

The mode-1 data are constants of the group.  The builder in
``tests/regenerate_o2_table.py`` enumerates the character graphs, computes
the data by the element arithmetic of this module and writes them as
``o2_mode1.json``, a table of marks in the sense of Pfeiffer ("The
subgroups of M24, or how to compute the table of marks of a finite group",
1997).  The table also holds, for each maximal type of each irreducible,
its fixed pairs in the irreducible's first copy at mode 1 (``fixed_pairs``),
which ``modes`` builds its modes from: the builder solves them, so no
request does.  The ring, ``ring()``, is a ``functools.cache`` function: one ring
per process, which reads that file once, when it is built, and answers
every datum from it; products and basic degrees, at every mode,
run over its registry of classes through the one recurrence in
:mod:`octavib.burnside`, and what the ring computes beyond the table
(classes per mode, maximal types above mode 1, candidate subtypes,
products and basic degrees) is a ``cached`` method.
"""

import json
import math
import os
from collections import Counter
from functools import cache, cached_property
from typing import NamedTuple

from . import group_core as gc
from .burnside import BurnsideRing, cached
from .errors import CatalogError, ConsistencyError

# angle denominator, 24 * lcm(1..7).  It holds every mode-1 class and its
# images under z -> z^b; no class at a higher mode is built, so it limits
# no Fourier mode
GRID = 10080

# the mode-1 table the ring reads, written by ``tests/regenerate_o2_table.py``
TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "o2_mode1.json")
_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))  # digit -> its value

N = gc.N
_IDENT = gc.IDENTITY


def encode(refl, k, g):
    return (refl * GRID + k % GRID) * N + g


def decode(code):
    g = code % N
    ek = code // N
    return ek // GRID, ek % GRID, g


@cache
def parts(code):
    """(reflection bit, O(2) turn in [0, 1), spatial index), the turn as an
    exact fraction (numerator, denominator) in lowest terms, (0, 1) for none.

    Callers outside this module read angles only here, never the grid.
    """
    refl, k, g = decode(code)
    d = math.gcd(k, GRID)
    return refl, (k // d, GRID // d), g


IDENTITY = encode(0, 0, _IDENT)


def multiply(x, y):
    ex, kx, gx = decode(x)
    ey, ky, gy = decode(y)
    return encode(ex ^ ey, kx + (ky if ex == 0 else -ky), gc.MUL[gx][gy])


_REFL = encode(1, 0, 0)  # codes from here on are temporal reflections

# spatial conjugation table: _CONJ[g][x] = g^-1 x g
_CONJ = gc.CONJ.tolist()


def _conjugators(gens, H, refl_h_by_spatial, spatial=range(N)):
    """Every c with c^-1 x c in H for each decoded generator x = (e, k, g),
    among those whose spatial part g_c is in ``spatial``.

    Table-driven and fused, with no element decoded or encoded on the way.
    Let x0 = (1, k0, g0) be the first reflection of gens.  Conjugation by
    c = (e_c, kc, g_c) sends (e, k, g) to (e, s (k - 2 e kc), _CONJ[g_c][g]),
    with s = -1 when c is a reflection.  So x0 lands on a reflection
    (1, kb, h) of H exactly when h = _CONJ[g_c][g0] and
    2 kc = k0 - s kb (mod GRID): two kc half a turn apart when k0 - s kb is
    even.  Both send every other reflection (1, k, g) to angle
    kb + s (k - k0) and every rotation (0, k, g) to angle s k, so each
    (g_c, s, kb) is tested once, and the rotations once per (g_c, s).
    """
    refls = [(k, g) for e, k, g in gens if e]
    if not refls:
        raise ConsistencyError("alignment needs a reflection-containing subgroup")
    k0, g0 = refls[0]
    refls = [(k - k0, g) for k, g in refls[1:]]
    rots = [(k, g) for e, k, g in gens if not e]
    half = GRID // 2
    for g_c in spatial:
        row = _CONJ[g_c]
        kbs = refl_h_by_spatial.get(row[g0])
        if kbs is None:
            continue
        # the codes of c = (e_c, kc, g_c) are e_c * _REFL + kc * N + g_c
        for s, base in ((1, g_c), (-1, _REFL + g_c)):
            for k, g in rots:
                if (s * k) % GRID * N + row[g] not in H:
                    break
            else:
                for kb in kbs:
                    d = (k0 - s * kb) % GRID
                    if d % 2:
                        continue
                    for dk, g in refls:
                        if _REFL + (kb + s * dk) % GRID * N + row[g] not in H:
                            break
                    else:
                        yield base + d // 2 * N
                        yield base + (d // 2 + half) * N


def closure(gens):
    """Finite subgroup generated by gens: breadth-first over the generators."""
    gens = [decode(g) for g in gens]
    elems = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for x in frontier:
            ek, gx = divmod(x, N)
            ex, kx = divmod(ek, GRID)
            row = gc.MUL[gx]
            for e, k, g in gens:
                # multiply(x, g), inline
                z = ((ex ^ e) * GRID + (kx - k if ex else kx + k) % GRID) * N + row[g]
                if z not in elems:
                    elems.add(z)
                    nxt.append(z)
        frontier = nxt
    return frozenset(elems)


@cache
def _element_order(x):
    y, n = x, 1
    while y != IDENTITY:
        y = multiply(y, x)
        n += 1
    return n


def reflections_of(A):
    return [x for x in A if x >= _REFL]


def profile(A):
    """Cheap conjugacy invariant."""
    cnt = Counter(
        (decode(x)[0], _element_order(x), gc.ELEMENT_CLASS[decode(x)[2]]) for x in A
    )
    return (len(A), tuple(sorted(cnt.items())))


def _refl_by_spatial(H):
    d = {}
    for x in reflections_of(H):
        k, g = divmod(x - _REFL, N)
        d.setdefault(g, []).append(k)
    return d


class ConcreteSubgroup:
    """Finite subgroup of the ambient group, with exact conjugacy tooling."""

    def __init__(self, elements):
        self.elements = frozenset(elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, ConcreteSubgroup) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    @cached_property
    def profile(self):
        return profile(self.elements)

    @cached_property
    def generators(self):
        """A small generating set, picked greedily, longest orders first."""
        gens, got = [], {IDENTITY}
        for x in sorted(self.elements, key=lambda x: (-_element_order(x), x)):
            if x not in got:
                gens.append(x)
                got = closure(gens)
                if len(got) == len(self.elements):
                    break
        return tuple(gens)

    def has_reflection(self):
        return any(x >= _REFL for x in self.elements)

    def conjugators_onto(self, other):
        """Every c with c^-1 self c == other, generated lazily."""
        A, B = self.elements, other.elements
        if len(A) != len(B):
            return
        gens = [decode(x) for x in self.generators]
        # conjugation is injective and |A| = |B|: containment is equality
        yield from _conjugators(gens, B, _refl_by_spatial(B))

    def is_conjugate(self, other):
        if self.elements == other.elements:
            return True
        if self.profile != other.profile:
            return False
        if not self.has_reflection():
            # temporal rotations commute with rotations: c acts only by its
            # spatial part and, when c is a reflection, by negating angles
            rots = [decode(x) for x in self.elements]
            return any(
                frozenset(encode(0, s * k, _CONJ[c][g]) for _, k, g in rots)
                == other.elements
                for c in range(N)
                for s in (1, -1)
            )
        return next(self.conjugators_onto(other), None) is not None

    def weyl_order(self):
        """|N(A)/A| in the full ambient group; None when infinite."""
        if not self.has_reflection():
            return None  # a circle of rotations centralizes the subgroup
        n = sum(1 for _ in self.conjugators_onto(self))
        if n % len(self.elements):
            raise ConsistencyError("normalizer size not divisible by group order")
        return n // len(self.elements)


def _class_among(reps, A):
    """Index of the subgroup of ``reps`` that A is conjugate to, or None."""
    p = A.profile
    for ci, B in enumerate(reps):
        if len(B) == len(A) and B.profile == p and B.is_conjugate(A):
            return ci
    return None


def mode_cover(subgroup, l):
    """Preimage of a subgroup under the l-fold temporal map z -> z^l.

    Refused when a preimage angle is off the grid, rather than dropped.
    """
    out = []
    for x in subgroup.elements:
        e, k, g = decode(x)
        for m in range(l):
            num = k + m * GRID
            if num % l == 0:
                out.append(encode(e, num // l, g))
    if len(out) != l * len(subgroup):
        raise CatalogError(f"mode {l} cover off the 1/{GRID} grid")
    return ConcreteSubgroup(out)


# ---------------------------------------------------------------------------
# the Burnside ring over the registry of conjugacy classes
# ---------------------------------------------------------------------------


class TemporalOctahedralRing(BurnsideRing):
    """A(O(2) x octahedral group), restricted to finite-Weyl orbit types.

    Every datum of a mode-1 class is read from the table ``o2_mode1.json``,
    loaded once when the ring is built, and every datum of a class K^l from
    K's.  A class's base K is a mode-1 class with one rotation over the
    spatial identity: the three mode-1 classes M with two are M = K^2 for
    the mode-1 class K, M's image under z -> z^2, and are the pair (K, 2).
    """

    unit_label = "O(2) x S_4^p"

    def __init__(self):
        super().__init__()
        with open(TABLE, encoding="utf-8") as fh:
            doc = json.load(fh)
        self._period = doc["mode_period"]
        self._labels = doc["label"]
        # by base K: |K|, and |W(K)| (None when infinite)
        self._orders = dict(enumerate(doc["order"]))
        self._weyl = dict(enumerate(doc["weyl"]))
        self._keys = [tuple(key) for key in doc["symbol_key"]]
        # class -> irrep -> one byte per mode 1 .. period, the dimension
        self._dims = [
            [row.encode().translate(_DIGITS) for row in rows] for rows in doc["fixed_dim"]
        ]
        # class -> b mod period -> the class of phi_b(class)
        self._images = doc["image"]
        # L -> {H: fix_L(G/H)}, nonzero marks only
        self._marks = [dict(row) for row in doc["marks"]]
        self._maximal = {int(j): cis for j, cis in doc["maximal"].items()}
        # (irrep, maximal type) -> its fixed pairs' rows, as float tuples
        self._fixed_pairs = {
            (int(j), ci): tuple(map(tuple, rows))
            for j, cis in doc["maximal"].items()
            for ci, rows in zip(cis, doc["fixed_pairs"][j])
        }
        # the element sets of the mode-1 classes and of the classes
        # ``find_class`` registers
        self._reps = {ci: ConcreteSubgroup(els) for ci, els in enumerate(doc["elements"])}
        self._by_set = {A.elements: ci for ci, A in self._reps.items()}
        self._pairs = [(ci, 1) for ci in self._reps]  # class id -> (K, l): K^l
        for M, K in doc["halves"]:
            self._pairs[M] = (K, 2)
        self._by_pair = {pair: ci for ci, pair in enumerate(self._pairs)}

    # registry ---------------------------------------------------------
    def find_class(self, subgroup):
        """Class id of a subgroup: the mode-1 class it is conjugate to, or,
        for a subgroup without reflections, the class of the first such
        subgroup conjugate to it that was asked for.  Such a class has no
        table row: only ``order_of``, ``finite_weyl`` and ``pi0_truncate``
        are defined on it (its order, and that its Weyl group is infinite).

        Element arithmetic: the tests ask, no request does.
        """
        key = subgroup.elements
        if key not in self._by_set:
            if subgroup.has_reflection():
                mode1 = [self._reps[ci] for ci in self.graph_classes(1)]
                ci = _class_among(mode1, subgroup)
                if ci is None:
                    raise CatalogError("subgroup conjugate to no mode-1 class")
            else:
                free = [ci for ci in self._reps if ci >= len(self._labels)]
                i = _class_among([self._reps[ci] for ci in free], subgroup)
                if i is not None:
                    ci = free[i]
                else:
                    ci = len(self._pairs)
                    self._reps[ci] = subgroup
                    self._pairs.append((ci, 1))
                    self._by_pair[ci, 1] = ci
                    self._orders[ci] = len(subgroup)
                    self._weyl[ci] = None
            self._by_set[key] = ci
        return self._by_set[key]

    def register_cover(self, ci, l):
        """Class of ci^l, the preimage of class ci under z -> z^l, interned as
        a pair, (K^a)^l = K^(a l); no element set is built."""
        K, a = self._pairs[ci]
        key = (K, a * l)
        if key not in self._by_pair:
            self._by_pair[key] = len(self._pairs)
            self._pairs.append(key)
        return self._by_pair[key]

    def representative(self, ci):
        """The element set of a mode-1 class; a cover has none."""
        return self._reps[ci]

    @cached
    def graph_classes(self, l):
        """Class ids of every finite-Weyl orbit type at Fourier mode l.

        At l = 1 these are the table's classes, the ring's first ids, one
        per orbit of character graphs in the order the enumeration meets
        them.  At l > 1 they are the covers of the mode-1 classes.
        """
        if l > 1:
            return sorted({self.register_cover(ci, l) for ci in self.graph_classes(1)})
        return list(range(len(self._labels)))

    def mode_period(self):
        """A period in l of dim V_{j,l}^K for every mode-1 class K: the lcm
        of their temporal orders (12)."""
        return self._period

    # ring hooks: each datum of K^l read from K ----------------------------
    def weyl(self, ci):
        w = self._weyl[self._pairs[ci][0]]
        if w is None:
            raise ConsistencyError("infinite Weyl group inside Burnside arithmetic")
        return w

    def finite_weyl(self, ci):
        return self._weyl[self._pairs[ci][0]] is not None

    def order_of(self, ci):
        K, l = self._pairs[ci]
        return l * self._orders[K]

    def symbol_key(self, ci):
        """What ci's label and every reference-family match read: K's key
        with both temporal orders times l."""
        K, l = self._pairs[ci]
        hk, hm, ok, om, spatial, spatial_kernel = self._keys[K]
        return hk, hm * l, ok, om * l, spatial, spatial_kernel

    def label_of(self, ci):
        """A mode-1 class's label, from the table; a cover K^l's is K's with
        the head before `` x`` rewritten from ci's symbol key: Theta_l keeps
        a symbol's spatial part and multiplies its temporal orders by l.
        """
        if ci < len(self._labels):
            return self._labels[ci]
        hk, hm, ok, om = self.symbol_key(ci)[:4]
        head = f"{hk}_{hm}" if (hk, hm) == (ok, om) else f"{hk}_{hm}^{{{ok}_{om}}}"
        base = self._labels[self._pairs[ci][0]]
        return head + base[base.index(" x"):]

    @cached
    def candidate_subtypes(self, ci):
        """Classes subconjugate to ci, drawn from the complete catalog.

        Every finite orbit type with temporal kernel of order l appears in
        ``graph_classes(l)``, so the catalog over the divisors of ci's
        kernel order is a complete candidate pool.
        """
        lH = self.symbol_key(ci)[3]
        pool = {ci}
        for l in range(1, lH + 1):
            if lH % l == 0:
                pool.update(self.graph_classes(l))
        return sorted(L for L in pool if self.fixed_cosets(L, ci) > 0)

    def fixed_cosets(self, L, H):
        """|(G/H)^L| for L = K^a and H = M^b, read from the mode-1 marks.

        z -> z^b carries G/H onto G/M, so with d = gcd(a, b) the count is
        |(G/M)^A| for A = phi_{b/d}(K)^{a/d}, the image of L under z -> z^b,
        where phi_b multiplies every temporal angle by b.  A holds a/d
        rotations over the spatial identity and M one, so the count is 0
        unless a = d.  Then A = phi_{b/d}(K), whose class the table holds
        by b/d modulo the mode period.
        """
        (K, a), (M, b) = self._pairs[L], self._pairs[H]
        d = math.gcd(a, b)
        if a > d:
            return 0
        return self._marks[self._images[K][b // d % self._period]].get(M, 0)

    def fixed_dim(self, j, m, ci):
        """dim of the fixed space of class ci = K^l in irrep-j Fourier-mode-m.

        ker(z -> z^l) turns V_{j,m} by multiples of m/l turns, so it fixes
        nothing unless l divides m, and then the space is K's in mode m/l,
        which the table holds by m/l modulo the mode period.
        """
        K, l = self._pairs[ci]
        if m % l:
            return 0
        return self._dims[K][j][(m // l - 1) % self._period]

    def fixed_pairs(self, j, ci):
        """The fixed space of a maximal type ci of irrep j in the first copy B
        of j at mode 1 (``spectral.BASES``): one row per dimension, the
        coefficients (x, y) on B's columns of the pair (a, b) = (B x, B y),
        2 dim B floats, each row's first entry beyond 1e-9 positive."""
        return self._fixed_pairs[j, ci]

    # the invariant's marks -------------------------------------------------
    def invariant_mark(self, j, odd, K):
        """The mark at a mode-1 class K of the invariant of irrep j whose
        factors leave the groups `odd`: (-1)^(sum of dim V_{j',l'}^K over
        the pairs (j', l') of `odd`) times ((-1)^dim V_{j,1}^K - 1).

        A factor's sign depends on l only modulo the mode period, so the
        factors fall into groups (j', l' mod period), and a group of even
        size multiplies the mark by 1: `odd` holds the others.
        """
        sign = (-1) ** sum(self.fixed_dim(i, l, K) for i, l in odd)
        return sign * ((-1) ** self.fixed_dim(j, 1, K) - 1)

    # maximal types and basic degrees --------------------------------------
    @cached
    def maximal_orbit_types(self, j, l):
        """Maximal finite-Weyl orbit types of irrep j at mode l: the table's,
        largest group first, then label (``sorted_support``), or at l > 1 their
        covers K^l in that order."""
        if l > 1:
            return tuple(
                self.register_cover(K, l) for K in self.maximal_orbit_types(j, 1)
            )
        return tuple(self.sorted_support(self._maximal[j]))

    @cached
    def basic_degree(self, j, l):
        """Antipodal-map degree on the ball of irrep-j mode-l, by the
        recurrence; the unit coefficient is +1.  Its pool is the covers K^l
        of the downward closure of the mode-1 maximal orbit types, where
        Theta_l puts every nonzero coefficient."""
        low = set()
        for ci in self.maximal_orbit_types(j, 1):
            low.update(self.candidate_subtypes(ci))
        pool = {self.register_cover(K, l) for K in low}
        return self.element(
            1, self.recurrence(pool, lambda K: (-1) ** self.fixed_dim(j, l, K) - 1)
        )


@cache
def ring():
    """The orbit-type ring, built on first use, once per process."""
    return TemporalOctahedralRing()


def graph_classes(l=1):
    """Class ids of every finite-Weyl orbit type at Fourier mode l."""
    return ring().graph_classes(l)


def maximal_orbit_types(j, l=1):
    """Maximal finite-Weyl orbit types of irrep j at mode l, kept on the ring."""
    return ring().maximal_orbit_types(j, l)


def basic_degree(j, l=1):
    """Antipodal-map degree on the ball of irrep-j mode-l, kept on the ring."""
    return ring().basic_degree(j, l)


# ---------------------------------------------------------------------------
# symbolic orbit-type families and the reference expansions
# ---------------------------------------------------------------------------


class OrbitTypeO2(NamedTuple):
    """Symbolic amalgamated family, scaling with the Fourier mode."""

    o2_kind: str          # "D" or "Z"
    o2_scale: int         # temporal order is o2_scale * l
    o2_kernel: str        # "full", "Z_l", "D_l", "Z_1"
    spatial: str          # catalog label of K
    spatial_kernel: str   # catalog label of K_o ("full" for product types)
    quotient: str = ""    # informative; "" when forced

    def key(self, l=1):
        """The ``symbol_key`` of the family's classes at mode l."""
        m = self.o2_scale * l
        kernel = {"full": (self.o2_kind, m), "Z_l": ("Z", l), "D_l": ("D", l),
                  "Z_1": ("Z", 1)}[self.o2_kernel]
        ko = self.spatial if self.spatial_kernel == "full" else self.spatial_kernel
        return (self.o2_kind, m, *kernel, self.spatial, ko)


# the reference l-parametrized basic-degree expansions; (coefficient, red, family)
REFERENCE_EXPANSIONS = {
    0: ((-1, True, OrbitTypeO2("D", 1, "full", "S_4^p", "full")),),
    4: (
        (4, False, OrbitTypeO2("D", 1, "Z_l", "D_4^p", "V_4^p")),
        (1, False, OrbitTypeO2("D", 1, "full", "V_4^p", "full")),
        (-1, True, OrbitTypeO2("D", 2, "D_l", "D_4^p", "V_4^p")),
        (-1, True, OrbitTypeO2("D", 1, "full", "D_4^p", "full")),
        (-2, True, OrbitTypeO2("D", 3, "Z_l", "S_4^p", "V_4^p", "D_3")),
    ),
    7: (
        (-2, False, OrbitTypeO2("D", 2, "Z_l", "Z_2^p", "Z_1")),
        (-1, False, OrbitTypeO2("D", 2, "D_l", "Z_1^p", "Z_1")),
        (2, False, OrbitTypeO2("D", 2, "Z_l", "D_2^p", "D_1^z", "D_2")),
        (2, False, OrbitTypeO2("D", 2, "Z_l", "D_2^p", "Z_2^-", "D_2")),
        (2, False, OrbitTypeO2("D", 2, "Z_l", "V_4^p", "Z_2^-", "D_2")),
        (2, False, OrbitTypeO2("D", 2, "D_l", "D_1^p", "D_1^z")),
        (1, False, OrbitTypeO2("D", 2, "D_l", "Z_2^p", "Z_2^-")),
        (-2, True, OrbitTypeO2("D", 6, "Z_l", "D_3^p", "Z_1")),
        (-2, True, OrbitTypeO2("D", 4, "Z_l", "D_4^p", "Z_2^-")),
        (-1, True, OrbitTypeO2("D", 2, "D_l", "D_2^p", "D_2^d")),
        (-1, True, OrbitTypeO2("D", 2, "D_l", "D_3^p", "D_3^z")),
        (-1, True, OrbitTypeO2("D", 2, "D_l", "D_4^p", "D_4^z")),
    ),
    8: (
        (-2, False, OrbitTypeO2("D", 1, "Z_l", "Z_2^p", "Z_1^p")),
        (-1, False, OrbitTypeO2("D", 1, "full", "Z_1^p", "full")),
        (2, False, OrbitTypeO2("D", 1, "Z_l", "D_2^p", "D_1^p")),
        (2, False, OrbitTypeO2("D", 2, "Z_l", "D_2^p", "Z_1^p", "D_2")),
        (2, False, OrbitTypeO2("D", 2, "Z_l", "V_4^p", "Z_1^p", "V_4")),
        (2, False, OrbitTypeO2("D", 1, "full", "D_1^p", "full")),
        (1, False, OrbitTypeO2("D", 2, "D_l", "Z_2^p", "Z_1^p")),
        (-2, True, OrbitTypeO2("D", 3, "Z_l", "D_3^p", "Z_1^p", "D_3")),
        (-2, True, OrbitTypeO2("D", 4, "Z_l", "D_4^p", "Z_1^p", "D_4")),
        (-1, True, OrbitTypeO2("D", 2, "D_l", "D_2^p", "D_1^p")),
        (-1, True, OrbitTypeO2("D", 1, "full", "D_3^p", "full")),
        (-1, True, OrbitTypeO2("D", 2, "D_l", "D_4^p", "D_2^p")),
    ),
    9: (
        (-2, False, OrbitTypeO2("D", 2, "Z_l", "Z_2^p", "Z_1")),
        (-1, False, OrbitTypeO2("D", 2, "D_l", "Z_1^p", "Z_1")),
        (2, False, OrbitTypeO2("D", 2, "Z_l", "D_2^p", "D_1", "Z_2^p")),
        (2, False, OrbitTypeO2("D", 2, "Z_l", "D_2^p", "Z_2^-", "D_2")),
        (2, False, OrbitTypeO2("D", 2, "Z_l", "V_4^p", "Z_2^-", "D_2")),
        (2, False, OrbitTypeO2("D", 2, "D_l", "D_1^p", "D_1")),
        (1, False, OrbitTypeO2("D", 2, "D_l", "Z_2^p", "Z_2^-")),
        (-2, True, OrbitTypeO2("D", 6, "Z_l", "D_3^p", "Z_1")),
        (-2, True, OrbitTypeO2("D", 4, "Z_l", "D_4^p", "Z_2^-")),
        (-1, True, OrbitTypeO2("D", 2, "D_l", "D_2^p", "D_2^d")),
        (-1, True, OrbitTypeO2("D", 2, "D_l", "D_3^p", "D_3")),
        (-1, True, OrbitTypeO2("D", 2, "D_l", "D_4^p", "D_4^d")),
    ),
}


def _red_families(*blocks):
    return [fam for j in blocks for _, red, fam in REFERENCE_EXPANSIONS[j] if red]


def _reference_hits(families, keys):
    """{class id: family} for the one class of ``keys``, a list of
    (class id, symbol key), that holds each family's key at mode 1.

    Raises when a family matches zero or several classes (ambiguity is
    surfaced, not guessed).
    """
    out = {}
    for fam in families:
        hits = [ci for ci, key in keys if key == fam.key()]
        if len(hits) != 1:
            raise ConsistencyError(
                f"reference family {fam.key()} matches {len(hits)} classes"
            )
        out[hits[0]] = fam
    return out


def pin_reference_labels(j, class_ids):
    """Check that each red family of block j matches exactly one of the
    mode-1 classes, and return {class id: its label}, the family's
    spelling; writes nothing."""
    keys = [(ci, ring().symbol_key(ci)) for ci in class_ids]
    return {ci: ring().label_of(ci) for ci in _reference_hits(_red_families(j), keys)}

