"""Orbit types in the product of the temporal O(2) with the octahedral group.

Elements of the ambient group are encoded as integers: a triple
(refl, angle, g) with angle on a fixed fraction-of-turn grid (denominator
``GRID``), refl selecting rotation vs reflection in O(2), and g one of the
48 spatial elements.  All subgroup work (closure, conjugacy, normalizers,
fixed-coset counts) is exact integer arithmetic.

Every finite reflection-containing subgroup is conjugate to a cover of a
"character graph": a subgroup K of the spatial group, a U(1)-character chi
pairing each k with the rotation angle chi(k), and a reflection extension.
Enumerating those triples yields the mode-1 classes, with their element
sets.  A class at Fourier mode l is the pair (K, l) of a mode-1 class K and
l: the preimage K^l of K under the temporal map z -> z^l, which is never
built.  Pulling orbit types back along z -> z^l is the l-folding
homomorphism Theta_l, a ring map that keeps marks (Balanov, Krawcewicz and
Steinlein, *Applied Equivariant Degree*, 2006), so each datum of K^l is
read from K: its order, Weyl order, symbol key, fixed dimensions, fixed
cosets, maximal types and basic degrees.

The mode-1 data are constants of the group.  ``build_mode1_table()``
computes them by the element arithmetic of this module and writes them as
``o2_mode1.json``, a table of marks in the sense of Pfeiffer ("The
subgroups of M24, or how to compute the table of marks of a finite group",
1997).  The ring (``ring()``) reads that file once, when it is built, and
answers every datum from it; Burnside products run over its registry of
classes through the shared recurrence in :mod:`octavib.burnside`, and what
the ring computes beyond the table (classes per mode, maximal types and
basic degrees above mode 1, candidate subtypes) is a ``cached`` method.
"""

import json
import math
import os
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import group_core as gc
from ._serialize import dumps
from .burnside import BurnsideRing, cached
from .errors import CatalogError, ConsistencyError

# angle denominator, 24 * lcm(1..7).  It holds every mode-1 class and its
# images under z -> z^b; no class at a higher mode is built, so it limits
# no Fourier mode
GRID = 10080

# the mode-1 table the ring reads, written by ``build_mode1_table()``
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


@lru_cache(maxsize=None)
def parts(code):
    """(reflection bit, O(2) turn as an exact fraction in [0, 1), spatial index).

    Callers outside this module read angles only here, never the grid.
    """
    refl, k, g = decode(code)
    return refl, Fraction(k, GRID), g


IDENTITY = encode(0, 0, _IDENT)


def multiply(x, y):
    ex, kx, gx = decode(x)
    ey, ky, gy = decode(y)
    return encode(ex ^ ey, kx + (ky if ex == 0 else -ky), gc.MUL[gx][gy])


def inverse(x):
    e, k, g = decode(x)
    return encode(e, -k if e == 0 else k, gc.INV[g])


def conjugate(x, c):
    """c x c^-1."""
    ec, kc, gcpart = decode(c)
    ex, kx, gx = decode(x)
    gg = gc.MUL[gc.MUL[gcpart][gx]][gc.INV[gcpart]]
    if ec == 0:
        return encode(ex, kx if ex == 0 else kx + 2 * kc, gg)
    return encode(ex, -kx if ex == 0 else 2 * kc - kx, gg)


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


def rotation(k, g=_IDENT):
    return encode(0, k, g)


def reflection(k=0, g=_IDENT):
    return encode(1, k, g)


def temporal(turn_num, turn_den, g=_IDENT, refl=False):
    """Element with O(2) part a turn_num/turn_den turn (reflection if asked)."""
    if (GRID * turn_num) % turn_den:
        raise CatalogError(
            f"angle {turn_num}/{turn_den} is off the 1/{GRID} grid",
            missing=(turn_num, turn_den),
        )
    return encode(1 if refl else 0, GRID * turn_num // turn_den, g)


@lru_cache(maxsize=None)
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


def _alignment_candidates(L, H, refl_h_by_spatial):
    """Conjugators c with c^-1 x0 c in H, for one reflection x0 of L.

    Every c with c^-1 L c contained in H is among them.  The tests check
    this superset against brute force and filter it with the element
    arithmetic as the reference for ``_conjugators``.
    """
    x0 = [decode(x) for x in reflections_of(L)[:1]]
    return set(_conjugators(x0, H, refl_h_by_spatial))


class ConcreteSubgroup:
    """Finite subgroup of the ambient group, with exact conjugacy tooling."""

    __slots__ = ("elements", "_profile", "_generators", "_search")

    def __init__(self, elements):
        self.elements = frozenset(elements)
        self._profile = None
        self._generators = None
        self._search = None

    @classmethod
    def generated(cls, gens):
        return cls(closure(gens))

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, ConcreteSubgroup) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def profile(self):
        if self._profile is None:
            self._profile = profile(self.elements)
        return self._profile

    def generators(self):
        """A small generating set, picked greedily, longest orders first."""
        if self._generators is None:
            gens, got = [], {IDENTITY}
            for x in sorted(self.elements, key=lambda x: (-_element_order(x), x)):
                if x not in got:
                    gens.append(x)
                    got = closure(gens)
                    if len(got) == len(self.elements):
                        break
            self._generators = tuple(gens)
        return self._generators

    def has_reflection(self):
        return any(x >= _REFL for x in self.elements)

    def conjugators_onto(self, other):
        """Every c with c^-1 self c == other, generated lazily."""
        A, B = self.elements, other.elements
        if len(A) != len(B):
            return
        gens = [decode(x) for x in self.generators()]
        # conjugation is injective and |A| = |B|: containment is equality
        yield from _conjugators(gens, B, _refl_by_spatial(B))

    def is_conjugate(self, other):
        if self.elements == other.elements:
            return True
        if self.profile() != other.profile():
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

    def truncated_weyl_order(self, m):
        """Brute-force Weyl order inside the dihedral-m truncation (oracle)."""
        if GRID % m:
            raise CatalogError(f"truncation order {m} off the grid")
        step = GRID // m
        n = 0
        for e in (0, 1):
            for k in range(0, GRID, step):
                for g in range(N):
                    c = encode(e, k, g)
                    if all(conjugate(x, c) in self.elements for x in self.elements):
                        n += 1
        return n // len(self.elements)

    def _search_aids(self):
        """What a conjugator search into this subgroup H reads: its
        reflection angles by spatial part, its element count per profile
        key, one spatial part per left coset g pi(H) of its spatial
        projection pi(H), and |H| / |pi(H)|."""
        if self._search is None:
            projection = self.spatial_projection()
            reps, covered = [], set()
            for g in range(N):
                if g not in covered:
                    reps.append(g)
                    covered.update(gc.MUL[g][p] for p in projection)
            self._search = (
                _refl_by_spatial(self.elements),
                dict(self.profile()[1]),
                tuple(reps),
                len(self) // len(projection),
            )
        return self._search

    def profile_fits(self, A):
        """Whether every profile key counts no more elements in the subgroup
        A than in this one.

        A necessary condition for A to be subconjugate to it, since
        conjugation keeps the reflection bit, the order and the spatial
        class of an element.
        """
        have = self._search_aids()[1]
        return all(have.get(k, 0) >= n for k, n in A.profile()[1])

    def fixed_cosets(self, A):
        """|(G/H)^A| for this subgroup H and a reflection-containing
        subgroup A: |{c : c^-1 A c in H}| / |H|.

        The conjugators form whole left cosets cH, and right multiplication
        by h in H moves a conjugator's spatial part g_c to g_c pi(h) while
        keeping the count per spatial part.  So one g_c per left coset
        g pi(H) is searched, and the count over those is divided (checked)
        by |H| / |pi(H)| instead of |H|.
        """
        if len(self) % len(A) or not self.profile_fits(A):
            return 0
        refl_index, _, spatial, kernel = self._search_aids()
        gens = [decode(x) for x in A.generators()]
        n = sum(1 for _ in _conjugators(gens, self.elements, refl_index, spatial))
        val, r = divmod(n, kernel)
        if r:
            raise ConsistencyError(
                f"conjugator count {n} over one spatial part per coset of pi(H)"
                f" not divisible by |H|/|pi(H)| = {kernel}"
            )
        return val

    # structural projections used for symbol rendering -----------------
    def spatial_projection(self):
        return sorted({decode(x)[2] for x in self.elements})

    def spatial_kernel(self):
        return sorted({decode(x)[2] for x in self.elements if decode(x)[:2] == (0, 0)})

    def temporal_projection(self):
        rots = {decode(x)[1] for x in self.elements if decode(x)[0] == 0}
        return ("D" if self.has_reflection() else "Z", len(rots))

    def temporal_kernel(self):
        over_id = [x for x in self.elements if decode(x)[2] == _IDENT]
        rots = {decode(x)[1] for x in over_id if decode(x)[0] == 0}
        refl = any(decode(x)[0] == 1 for x in over_id)
        return ("D" if refl else "Z", len(rots))


def _class_among(reps, A):
    """Index of the subgroup of ``reps`` that A is conjugate to, or None."""
    p = A.profile()
    for ci, B in enumerate(reps):
        if len(B) == len(A) and B.profile() == p and B.is_conjugate(A):
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
        raise CatalogError(f"mode {l} cover off the 1/{GRID} grid", missing=l)
    return ConcreteSubgroup(out)


def mode_image(subgroup, b):
    """Image of a subgroup under the b-fold temporal map z -> z^b: every
    temporal angle times b."""
    return ConcreteSubgroup(
        encode(e, b * k, g) for e, k, g in map(decode, subgroup.elements)
    )


# ---------------------------------------------------------------------------
# fixed dimensions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rotation_weight(q):
    """2 mu(q) / phi(q): the mean of 2 cos(2 pi k / q) over the k prime to q
    (Ramanujan's sum c_q(1) = mu(q), over phi(q) terms)."""
    mu, phi, n, p = 1, 1, q, 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            mu = 0 if e > 1 else -mu
            phi *= (p - 1) * p ** (e - 1)
        p += 1
    return Fraction(2 * mu, phi)


def exact_fixed_dim(A, j, m):
    """dim of the fixed space of the subgroup A in irrep-j Fourier-mode-m.

    The average over A of the trace: temporal reflections act with trace 0,
    a rotation (0, k, g) with 2 cos(2 pi m k / GRID) chi_j(g).  The total is
    rational, so it equals its mean over the Galois conjugates, which turn
    the angle m k / GRID of order q through the turns of order q and leave
    the rational chi_j(g) alone: each rotation contributes
    2 mu(q) / phi(q) chi_j(g) exactly.
    """
    chi = gc.CHARACTER_TABLE[j]
    turns = Counter(
        (GRID // math.gcd(m * k, GRID), gc.ELEMENT_CLASS[g])
        for e, k, g in map(decode, A.elements)
        if not e
    )
    dim = sum(_rotation_weight(q) * n * chi[c] for (q, c), n in turns.items()) / len(A)
    if dim.denominator != 1:
        raise ConsistencyError(f"non-integral fixed dimension {dim}")
    return int(dim)


# ---------------------------------------------------------------------------
# amalgam symbols
# ---------------------------------------------------------------------------

def _spatial_label(ids):
    cat = gc.catalog()
    mask = 0
    for g in ids:
        mask |= 1 << g
    return cat.classes[cat.class_of_mask[mask]].label


_ABSTRACT_NAME = {
    (1, False): "Z_1", (1, True): "D_1", (2, False): "Z_2", (2, True): "D_2",
    (3, False): "Z_3", (3, True): "D_3", (4, False): "Z_4", (4, True): "D_4",
    (6, False): "Z_6", (6, True): "D_6", (8, True): "D_8", (12, True): "D_12",
}


def symbol_key(subgroup):
    """What an amalgam symbol names: (temporal kind, temporal order, kernel
    kind, kernel order, spatial label, spatial-kernel label)."""
    return (
        *subgroup.temporal_projection(),
        *subgroup.temporal_kernel(),
        _spatial_label(subgroup.spatial_projection()),
        _spatial_label(subgroup.spatial_kernel()),
    )


def amalgam_symbol(key):
    """Render the orbit-type symbol ``H^{Ho} x_{L}^{Ko} K`` of a symbol key."""
    hk, hm, ok, om, K, Ko = key
    H = f"{hk}_{hm}"
    Ho = f"{ok}_{om}"
    untwisted = hk == ok and hm == om
    if untwisted:
        if Ko == K:
            return f"{H} x {K}"
        return f"{H} x^{{{Ko}}} {K}"
    # quotient size |H/Ho|
    hsize = (2 if hk == "D" else 1) * hm
    osize = (2 if ok == "D" else 1) * om
    q = hsize // osize
    if Ko == "Z_1":
        return f"{H}^{{{Ho}}} x_{{{K}}} {K}"
    if q == 2:
        return f"{H}^{{{Ho}}} x^{{{Ko}}} {K}"
    quot = _ABSTRACT_NAME.get((q // 2, True), f"?_{q}")
    return f"{H}^{{{Ho}}} x_{{{quot}}}^{{{Ko}}} {K}"


def mode1_labels(keys):
    """The label and ordinal of each mode-1 class, from the symbol keys in
    class order.

    A class's label is its reference spelling if it has one (each red
    reference family's key must be held by exactly one class), else its
    amalgam symbol plus `` #k`` where k, its ordinal, counts the classes
    sharing the symbol in class order; the ordinal is 0 for a symbol of one
    class.
    """
    symbols = [amalgam_symbol(key) for key in keys]
    same = defaultdict(list)
    for ci, symbol in enumerate(symbols):
        same[symbol].append(ci)
    ordinals = [0] * len(keys)
    for group in same.values():
        if len(group) > 1:
            for k, ci in enumerate(group, 1):
                ordinals[ci] = k
    spellings = _reference_hits(
        _red_families(*REFERENCE_EXPANSIONS), list(enumerate(keys)), 1
    )
    labels = [
        spellings.get(ci, f"{symbol} #{k}" if k else symbol)
        for ci, (symbol, k) in enumerate(zip(symbols, ordinals))
    ]
    return labels, ordinals


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
        self._ordinals = doc["ordinal"]
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
        self._maximal = {int(j): tuple(cis) for j, cis in doc["maximal"].items()}
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
        """A mode-1 class's label, from the table; a cover K^l's amalgam
        symbol, with K's ordinal `` #k`` where mode-1 classes share K's.

        Covers share a symbol exactly when their mode-1 classes do and
        their modes are equal.
        """
        if ci < len(self._labels):
            return self._labels[ci]
        symbol = amalgam_symbol(self.symbol_key(ci))
        k = self._ordinals[self._pairs[ci][0]]
        return f"{symbol} #{k}" if k else symbol

    def multiply_generators(self, H, K):
        """(H)(K) for H = A^a and K = B^b: with d = gcd(a, b), Theta_d of
        (A^(a/d))(B^(b/d)), since Theta_d is a ring map."""
        (A, a), (B, b) = self._pairs[H], self._pairs[K]
        d = math.gcd(a, b)
        if d == 1:
            return super().multiply_generators(H, K)
        low = self.multiply_generators(
            self.register_cover(A, a // d), self.register_cover(B, b // d)
        )
        return {self.register_cover(L, d): n for L, n in low.items()}

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

    def upper_set(self, h):
        """The mode-1 classes >= (h), the pool of the fast path's recurrence:
        the classes of h's row of marks."""
        return frozenset(self._marks[h])

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

    # maximal types and basic degrees --------------------------------------
    @cached
    def maximal_orbit_types(self, j, l):
        """Maximal finite-Weyl orbit types of irrep j at mode l: the covers
        K^l of those at mode 1, which the table holds."""
        if l > 1:
            return tuple(
                self.register_cover(K, l) for K in self.maximal_orbit_types(j, 1)
            )
        return self._maximal[j]

    @cached
    def basic_degree(self, j, l):
        """Antipodal-map degree on the ball of irrep-j mode-l.

        At mode 1 by the recurrence, whose pool is the downward closure of
        the maximal orbit types; the unit coefficient is +1.  At mode l it
        is Theta_l of that: every class K replaced by K^l.
        """
        if l > 1:
            deg = self.basic_degree(j, 1)
            return self.element(
                deg.unit, {self.register_cover(K, l): n for K, n in deg.coeffs.items()}
            )
        pool = set()
        for ci in self.maximal_orbit_types(j, 1):
            pool.update(self.candidate_subtypes(ci))
        return self.element(
            1, self.recurrence(pool, lambda K: (-1) ** self.fixed_dim(j, 1, K) - 1)
        )


_RING = None


def ring():
    global _RING
    if _RING is None:
        _RING = TemporalOctahedralRing()
    return _RING


# ---------------------------------------------------------------------------
# the mode-1 table, by element arithmetic
# ---------------------------------------------------------------------------


def build_mode1_table():
    """The text of ``o2_mode1.json``: every datum the ring reads about the
    mode-1 classes, computed from the subgroups ``_graph_representatives()``
    meets, in class order.

    Per class: its elements, order, Weyl order |W(K)| = |(G/K)^K|, symbol
    key, label and ordinal, fixed dimensions at irreps 0-9 (one string of
    digits per irrep, over the modes 1 to the mode period, which JSON reads
    far faster than a list of numbers), its row of nonzero marks
    fix_K(G/H), and the class of phi_b(K) for b modulo the mode period.  Also the classes M = K^2 (as
    [M, K]) and each reference block's maximal types.  Raises when a class
    has more than two rotations over the spatial identity, or when an image
    phi_b(K) is conjugate to none of the classes.
    """
    reps = list(_graph_representatives())
    keys = [symbol_key(A) for A in reps]
    if any(key[3] not in (1, 2) for key in keys):
        raise ConsistencyError("a mode-1 class with more than two kernel rotations")
    period = math.lcm(*(key[1] for key in keys))

    def find(A):
        ci = _class_among(reps, A)
        if ci is None:
            raise ConsistencyError("an image phi_b(K) of a mode-1 class is a new class")
        return ci

    marks = [{H: n for H, B in enumerate(reps) if (n := B.fixed_cosets(A))} for A in reps]
    images = [[find(mode_image(A, b)) for b in range(period)] for A in reps]
    dims = [
        [[exact_fixed_dim(A, j, m) for m in range(1, period + 1)]
         for j in range(len(gc.CHARACTER_TABLE))]
        for A in reps
    ]
    if any(d > 9 for rows in dims for row in rows for d in row):
        raise ConsistencyError("a fixed dimension of more than one digit")
    maximal = {}
    for j in REFERENCE_EXPANSIONS:
        fixing = {ci for ci, rows in enumerate(dims) if rows[j][0] >= 1}
        maximal[j] = [
            L for L in sorted(fixing) if not any(t != L and t in fixing for t in marks[L])
        ]
    labels, ordinals = mode1_labels(keys)
    doc = {
        "elements": [sorted(A.elements) for A in reps],
        "fixed_dim": [["".join(map(str, row)) for row in rows] for rows in dims],
        "halves": [[M, images[M][2]] for M, key in enumerate(keys) if key[3] == 2],
        "image": images,
        "label": labels,
        "marks": [sorted(row.items()) for row in marks],
        "maximal": maximal,
        "mode_period": period,
        "ordinal": ordinals,
        "order": [len(A) for A in reps],
        "symbol_key": keys,
        "weyl": [marks[ci][ci] for ci in range(len(reps))],
    }
    return dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# graph-subgroup enumeration: the complete mode-l orbit-type family
# ---------------------------------------------------------------------------


def _characters_of(els, gens):
    """All homomorphisms to the angle grid from the spatial subgroup els,
    generated by gens."""
    sols = []

    def extend(assign):
        chi = {gc.IDENTITY: 0}
        frontier = [gc.IDENTITY]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = gc.MUL[g][x]
                    v = (assign[g] + chi[x]) % GRID
                    if y not in chi:
                        chi[y] = v
                        nxt.append(y)
                    elif chi[y] != v:
                        return
            frontier = nxt
        if len(chi) == len(els):
            sols.append(chi)

    def backtrack(i, assign):
        if i == len(gens):
            extend(assign)
            return
        g = gens[i]
        step = GRID // _element_order(encode(0, 0, g))
        for k in range(0, GRID, step):
            assign[g] = k
            backtrack(i + 1, assign)
        del assign[g]

    backtrack(0, {})
    uniq = {tuple(sorted(c.items())) for c in sols}
    return [dict(u) for u in uniq]


def _graph_representatives():
    """The subgroup each mode-1 finite-Weyl orbit type is first met as.

    A character graph (K, chi, t) pairs a catalog representative K, a
    character chi of K and a t normalizing K with t^2 in K and
    chi(t x t^-1) = -chi(x); it names the subgroup generated by
    graph(chi) = {(0, chi(x), x)} and the reflection (1, 0, t).  The
    triples are walked in catalog, character and t order.  Triples in one
    orbit under conjugation by N(K), chi -> -chi (conjugation by the
    temporal reflection) and t -> t x for x in K (a temporal rotation turns
    the subgroup's reflection (1, -chi(x), t x) to angle 0) name conjugate
    subgroups, so a triple in the orbit of one met before is skipped.

    chi(t^2) is 0 or a half turn.  At 0 the subgroup is
    graph(chi) + (1, 0, t) graph(chi), built directly, and conversely a
    subgroup conjugate to it comes from a triple of the same orbit, so it
    is a new class.  At a half turn, (1, 0, t)^2 = (0, 0, t^2) adds the
    rotation (0, 1/2, 1): the subgroup is closed from its generators, it
    fixes chi only up to a character into {0, 1/2}, and so it is checked
    against the earlier subgroups of this kind, the only ones it can be
    conjugate to.
    """
    half_turn = []
    for cls in gc.catalog().classes:
        K = cls.mask
        els = gc.mask_elements(K)
        normalizer = [n for n in range(N) if gc.conj_mask(K, n) == K]
        # each coset g K of the normalizer, named by its least element
        coset = {g: min(gc.MUL[g][x] for x in els) for g in normalizer}
        # spatial element g has code g, so these are spatial generators
        spatial_gens = ConcreteSubgroup(els).generators()
        # the N(K)-images (chi as angles over els, coset t K) of the triples
        # built; chi -> -chi is looked up, not stored
        met = set()
        for chi in _characters_of(els, spatial_gens):
            angles = tuple(chi[x] for x in els)
            negated = tuple(-a % GRID for a in angles)
            for t in normalizer:
                if not K >> gc.MUL[t][t] & 1:
                    continue
                if (angles, coset[t]) in met or (negated, coset[t]) in met:
                    continue
                if any(
                    chi[gc.MUL[gc.MUL[t][x]][gc.INV[t]]] != (-chi[x]) % GRID
                    for x in els
                ):
                    continue
                for n in normalizer:
                    turned = tuple(chi[_CONJ[n][y]] for y in els)
                    met.add((turned, coset[gc.MUL[gc.MUL[n][t]][gc.INV[n]]]))
                if chi[gc.MUL[t][t]]:
                    gens = [encode(0, chi[x], x) for x in spatial_gens]
                    A = ConcreteSubgroup.generated(gens + [encode(1, 0, t)])
                    if any(A.is_conjugate(B) for B in half_turn):
                        continue
                    half_turn.append(A)
                else:
                    A = ConcreteSubgroup(
                        [encode(0, chi[x], x) for x in els]
                        + [encode(1, -chi[x], gc.MUL[t][x]) for x in els]
                    )
                yield A


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


@dataclass(frozen=True)
class OrbitTypeO2:
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

    def label(self, l=1):
        m = self.o2_scale * l
        H = f"{self.o2_kind}_{m}"
        if self.o2_kernel == "full":
            if self.spatial_kernel in ("full", self.spatial):
                return f"{H} x {self.spatial}"
            return f"{H} x^{{{self.spatial_kernel}}} {self.spatial}"
        Ho = {"Z_l": f"Z_{l}", "D_l": f"D_{l}", "Z_1": "Z_1"}[self.o2_kernel]
        if self.spatial_kernel == "Z_1":
            return f"{H}^{{{Ho}}} x_{{{self.spatial}}} {self.spatial}"
        if self.quotient and self.spatial_kernel == "Z_1^p":
            # central spatial kernel is left implicit in the reference symbols
            return f"{H}^{{{Ho}}} x_{{{self.quotient}}} {self.spatial}"
        if self.quotient:
            return f"{H}^{{{Ho}}} x_{{{self.quotient}}}^{{{self.spatial_kernel}}} {self.spatial}"
        return f"{H}^{{{Ho}}} x^{{{self.spatial_kernel}}} {self.spatial}"


def _fam(kind, scale, kernel, spatial, spatial_kernel, quotient=""):
    return OrbitTypeO2(kind, scale, kernel, spatial, spatial_kernel, quotient)


# the reference l-parametrized basic-degree expansions; (coefficient, red, family)
REFERENCE_EXPANSIONS = {
    0: ((-1, True, _fam("D", 1, "full", "S_4^p", "full")),),
    4: (
        (4, False, _fam("D", 1, "Z_l", "D_4^p", "V_4^p")),
        (1, False, _fam("D", 1, "full", "V_4^p", "full")),
        (-1, True, _fam("D", 2, "D_l", "D_4^p", "V_4^p")),
        (-1, True, _fam("D", 1, "full", "D_4^p", "full")),
        (-2, True, _fam("D", 3, "Z_l", "S_4^p", "V_4^p", "D_3")),
    ),
    7: (
        (-2, False, _fam("D", 2, "Z_l", "Z_2^p", "Z_1")),
        (-1, False, _fam("D", 2, "D_l", "Z_1^p", "Z_1")),
        (2, False, _fam("D", 2, "Z_l", "D_2^p", "D_1^z", "D_2")),
        (2, False, _fam("D", 2, "Z_l", "D_2^p", "Z_2^-", "D_2")),
        (2, False, _fam("D", 2, "Z_l", "V_4^p", "Z_2^-", "D_2")),
        (2, False, _fam("D", 2, "D_l", "D_1^p", "D_1^z")),
        (1, False, _fam("D", 2, "D_l", "Z_2^p", "Z_2^-")),
        (-2, True, _fam("D", 6, "Z_l", "D_3^p", "Z_1")),
        (-2, True, _fam("D", 4, "Z_l", "D_4^p", "Z_2^-")),
        (-1, True, _fam("D", 2, "D_l", "D_2^p", "D_2^d")),
        (-1, True, _fam("D", 2, "D_l", "D_3^p", "D_3^z")),
        (-1, True, _fam("D", 2, "D_l", "D_4^p", "D_4^z")),
    ),
    8: (
        (-2, False, _fam("D", 1, "Z_l", "Z_2^p", "Z_1^p")),
        (-1, False, _fam("D", 1, "full", "Z_1^p", "full")),
        (2, False, _fam("D", 1, "Z_l", "D_2^p", "D_1^p")),
        (2, False, _fam("D", 2, "Z_l", "D_2^p", "Z_1^p", "D_2")),
        (2, False, _fam("D", 2, "Z_l", "V_4^p", "Z_1^p", "V_4")),
        (2, False, _fam("D", 1, "full", "D_1^p", "full")),
        (1, False, _fam("D", 2, "D_l", "Z_2^p", "Z_1^p")),
        (-2, True, _fam("D", 3, "Z_l", "D_3^p", "Z_1^p", "D_3")),
        (-2, True, _fam("D", 4, "Z_l", "D_4^p", "Z_1^p", "D_4")),
        (-1, True, _fam("D", 2, "D_l", "D_2^p", "D_1^p")),
        (-1, True, _fam("D", 1, "full", "D_3^p", "full")),
        (-1, True, _fam("D", 2, "D_l", "D_4^p", "D_2^p")),
    ),
    9: (
        (-2, False, _fam("D", 2, "Z_l", "Z_2^p", "Z_1")),
        (-1, False, _fam("D", 2, "D_l", "Z_1^p", "Z_1")),
        (2, False, _fam("D", 2, "Z_l", "D_2^p", "D_1", "Z_2^p")),
        (2, False, _fam("D", 2, "Z_l", "D_2^p", "Z_2^-", "D_2")),
        (2, False, _fam("D", 2, "Z_l", "V_4^p", "Z_2^-", "D_2")),
        (2, False, _fam("D", 2, "D_l", "D_1^p", "D_1")),
        (1, False, _fam("D", 2, "D_l", "Z_2^p", "Z_2^-")),
        (-2, True, _fam("D", 6, "Z_l", "D_3^p", "Z_1")),
        (-2, True, _fam("D", 4, "Z_l", "D_4^p", "Z_2^-")),
        (-1, True, _fam("D", 2, "D_l", "D_2^p", "D_2^d")),
        (-1, True, _fam("D", 2, "D_l", "D_3^p", "D_3")),
        (-1, True, _fam("D", 2, "D_l", "D_4^p", "D_4^d")),
    ),
}


def _red_families(*blocks):
    return [fam for j in blocks for _, red, fam in REFERENCE_EXPANSIONS[j] if red]


def _reference_hits(families, keys, l):
    """{class id: family.label(l)} for the one class of ``keys``, a list of
    (class id, symbol key), that holds each family's key at mode l.

    Raises when a family matches zero or several classes (ambiguity is
    surfaced, not guessed).
    """
    out = {}
    for fam in families:
        hits = [ci for ci, key in keys if key == fam.key(l)]
        if len(hits) != 1:
            raise ConsistencyError(
                f"reference family {fam.label(l)} matches {len(hits)} classes"
            )
        out[hits[0]] = fam.label(l)
    return out


def reference_red_labels(j, l=1):
    """Maximal-type labels of the reference expansion for irrep j at mode l."""
    return tuple(fam.label(l) for fam in _red_families(j))


def pin_reference_labels(j, class_ids, l=1):
    """Check that each red family of block j matches exactly one of the
    classes, and return {class id: reference spelling}; writes nothing."""
    keys = [(ci, ring().symbol_key(ci)) for ci in class_ids]
    return _reference_hits(_red_families(j), keys, l)


def instantiate(family, l=1):
    """Concrete realizations of a symbolic family at mode l.

    Enumerates all kernel choices and quotient identifications, deduplicates
    up to conjugacy, and returns the distinct classes.  Ambiguous labels
    (more than one class) are returned in full rather than guessed.
    """
    R = ring()
    cat = gc.catalog()
    K_cls = cat.by_label(family.spatial)
    m = family.o2_scale * l
    if family.o2_kind != "D":
        raise CatalogError("only dihedral temporal families instantiate")

    results = set()
    if family.o2_kernel == "full":
        if family.spatial_kernel not in ("full", family.spatial):
            raise CatalogError(
                f"untwisted temporal part requires an untwisted spatial part: "
                f"{family.label(l)}"
            )
        # D_m x K is the cover at mode m of the mode-1 class D_1 x K
        product = ("D", 1, "D", 1, family.spatial, family.spatial)
        results.update(
            R.register_cover(ci, m)
            for ci in R.graph_classes(1)
            if R.symbol_key(ci) == product
        )
    else:
        # twisted family: match against the complete graph-class enumeration
        hsize = 2 * m
        osize = {"Z_l": l, "D_l": 2 * l, "Z_1": 1}[family.o2_kernel]
        lsize = hsize // osize  # |L| = |H| / |H_o| = |K| / |K_o|
        ko_label = family.spatial_kernel
        if ko_label not in ("full", family.spatial):
            ko_order = cat.by_label(ko_label).order
            if K_cls.order != lsize * ko_order:
                raise CatalogError(
                    f"malformed amalgam {family.label(l)}: quotient sizes "
                    f"{lsize} vs {K_cls.order}/{ko_order} do not match"
                )
        target_order = hsize * K_cls.order // lsize
        for ci in R.graph_classes(l):
            if R.order_of(ci) == target_order and R.symbol_key(ci) == family.key(l):
                results.add(ci)
    return sorted(results)
