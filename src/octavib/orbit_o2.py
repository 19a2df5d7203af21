"""Orbit types in the product of the temporal O(2) with the octahedral group.

Elements of the ambient group are encoded as integers: a triple
(refl, angle, g) with angle on a fixed fraction-of-turn grid (denominator
``GRID``), refl selecting rotation vs reflection in O(2), and g one of the
48 spatial elements.  All subgroup work (closure, conjugacy, normalizers,
fixed-coset counts) is exact integer arithmetic.

Conjugacy classes are interned in a registry; Burnside-ring products run
over it through the shared recurrence in :mod:`octavib.burnside`.  The ring
(``ring()``) owns everything that depends only on the group and the Fourier
mode, each datum a ``cached`` method computed once per key: classes per
mode, Weyl orders, labels, fixed-coset counts, fixed dimensions, maximal
types, basic degrees, upper sets and per-class conjugacy data.

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
"""

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import group_core as gc
from .burnside import BurnsideRing, cached
from .errors import CatalogError, ConsistencyError

# angle denominator, 24 * lcm(1..7).  It holds every mode-1 class and the
# mode-2 covers that ``fixed_cosets`` builds; no class at a higher mode is
# built, so it limits no Fourier mode
GRID = 10080

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
_CONJ = tuple(
    tuple(gc.MUL[gc.MUL[gc.INV[g]][x]][g] for x in range(N)) for g in range(N)
)


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

    __slots__ = ("elements", "_profile", "_generators")

    def __init__(self, elements):
        self.elements = frozenset(elements)
        self._profile = None
        self._generators = None

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


# ---------------------------------------------------------------------------
# the Burnside ring over the registry of conjugacy classes
# ---------------------------------------------------------------------------


class TemporalOctahedralRing(BurnsideRing):
    """A(O(2) x octahedral group), restricted to finite-Weyl orbit types."""

    unit_label = "O(2) x S_4^p"

    def __init__(self):
        super().__init__()
        self._reps = {}      # class id -> ConcreteSubgroup, where l = 1
        self._by_set = {}
        self._pairs = []     # class id -> (K, l): the class is K^l
        self._by_pair = {}   # (K, l) -> class id

    # registry ---------------------------------------------------------
    def find_class(self, subgroup):
        """Class id of a subgroup, registering a new class if none is conjugate.

        The mode-1 classes are registered first, so their ids do not depend
        on what the ring was asked before.  A subgroup conjugate to none of
        the classes with an element set becomes such a class, as (A, 1).
        """
        self.graph_classes(1)
        key = subgroup.elements
        if key in self._by_set:
            return self._by_set[key]
        p = subgroup.profile()
        size = len(subgroup)
        for ci, rep in self._reps.items():
            if len(rep) != size:
                continue
            if rep.profile() == p and rep.is_conjugate(subgroup):
                self._by_set[key] = ci
                return ci
        return self._register(subgroup)

    def _register(self, subgroup):
        ci = len(self._pairs)
        self._reps[ci] = subgroup
        self._by_set[subgroup.elements] = ci
        self._pairs.append((ci, 1))
        self._by_pair[ci, 1] = ci
        return ci

    def register_cover(self, ci, l):
        """Class of ci^l, the preimage of class ci under z -> z^l, interned as
        a pair; no element set is built.

        (K^a)^l = K^(a l).  A mode-1 class M of temporal-kernel order 2 is
        itself K^2 for the mode-1 class K = M's image under z -> z^2
        (``_halves``), so M's covers are interned through K and each class
        has one pair.
        """
        K, a = self._pairs[ci]
        halves = self._halves()
        key = (halves[K], 2 * a * l) if K in halves else (K, a * l)
        if key not in self._by_pair:
            self._by_pair[key] = len(self._pairs)
            self._pairs.append(key)
        return self._by_pair[key]

    @cached
    def _halves(self):
        """{M: K} for the mode-1 classes M = K^2 of a mode-1 class K: those of
        temporal-kernel order 2.  Interns the pair (K, 2) as M."""
        out = {}
        for M in self.graph_classes(1):
            if self.symbol_key(M)[3] == 2:
                out[M] = K = self.find_class(mode_image(self._reps[M], 2))
                self._by_pair[K, 2] = M
        return out

    def representative(self, ci):
        """The element set of a class with l = 1; a cover has none."""
        return self._reps[ci]

    @cached
    def graph_classes(self, l):
        """Class ids of every finite-Weyl orbit type at Fourier mode l.

        At l = 1 these are the ring's first ids, one class per orbit of
        character graphs, each built once as the subgroup its first graph
        names, in the order ``_graph_representatives()`` meets them.  At
        l > 1 they are the covers of the mode-1 classes.
        """
        if l > 1:
            return sorted({self.register_cover(ci, l) for ci in self.graph_classes(1)})
        return [self._register(A) for A in _graph_representatives()]

    @cached
    def mode_period(self):
        """A period in l of dim V_{j,l}^K for every mode-1 class K.

        Only K's rotations have a trace, each a turn whose order divides K's
        temporal order m_K; the period is the lcm of the m_K.
        """
        return math.lcm(
            *(self._reps[ci].temporal_projection()[1] for ci in self.graph_classes(1))
        )

    # ring hooks: each datum of K^l read from K ----------------------------
    @cached
    def _weyl_order(self, ci):
        """|W(ci)| = |(G/ci)^ci|; None when infinite, as a circle of
        rotations centralizes a class without reflections."""
        K, _ = self._pairs[ci]
        return self.fixed_cosets(ci, ci) if self._reps[K].has_reflection() else None

    def weyl(self, ci):
        w = self._weyl_order(ci)
        if w is None:
            raise ConsistencyError("infinite Weyl group inside Burnside arithmetic")
        return w

    def finite_weyl(self, ci):
        return self._weyl_order(ci) is not None

    def order_of(self, ci):
        K, l = self._pairs[ci]
        return l * len(self._reps[K])

    @cached
    def symbol_key(self, ci):
        """What ci's label and every reference-family match read: K's key
        with both temporal orders times l."""
        K, l = self._pairs[ci]
        hk, hm, ok, om, spatial, spatial_kernel = symbol_key(self._reps[K])
        return hk, hm * l, ok, om * l, spatial, spatial_kernel

    @cached
    def label_of(self, ci):
        """ci's reference spelling if it has one, else its amalgam symbol plus
        an ordinal `` #k`` where classes share the symbol.

        K^l takes K's ordinal: covers share a symbol exactly when their
        mode-1 classes do and their modes are equal.
        """
        symbol = amalgam_symbol(self.symbol_key(ci))
        k = self._symbol_ordinals().get(self._pairs[ci][0])
        symbol = symbol if k is None else f"{symbol} #{k}"
        return self._reference_spellings().get(ci, symbol)

    @cached
    def _reference_spellings(self):
        """The mode-1 class of each red reference family, with its spelling.

        Each family's key must be held by exactly one mode-1 class.
        """
        keys = [(ci, self.symbol_key(ci)) for ci in self.graph_classes(1)]
        return _reference_hits(_red_families(*REFERENCE_EXPANSIONS), keys, 1)

    @cached
    def _symbol_ordinals(self):
        """Ordinal of each mode-1 class among those sharing its symbol, if any.

        Counted in ``graph_classes(1)`` order: neither ids nor ring history.
        """
        same = defaultdict(list)
        for ci in self.graph_classes(1):
            same[amalgam_symbol(self.symbol_key(ci))].append(ci)
        return {
            ci: k for group in same.values() if len(group) > 1
            for k, ci in enumerate(group, 1)
        }

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

    @cached
    def upper_set(self, h):
        """The mode-1 classes >= (h): the pool of the fast path's recurrence."""
        pool = self.graph_classes(1)
        above = {t for t in pool if t != h and self.fixed_cosets(h, t) > 0}
        return frozenset({h} | above)

    @cached
    def _refl_index(self, ci):
        """The angles of ci's reflections, by spatial part (``_conjugators``)."""
        return _refl_by_spatial(self._reps[ci].elements)

    @cached
    def _profile_counts(self, ci):
        """ci's element count per (reflection bit, order, spatial class)."""
        return dict(self._reps[ci].profile()[1])

    def _profile_fits(self, A, H):
        """Whether every profile key counts no more elements in the subgroup A
        than in H's representative.

        A necessary condition for A to be subconjugate to H, since
        conjugation keeps the reflection bit, the order and the spatial
        class of an element.
        """
        have = self._profile_counts(H)
        return all(have.get(k, 0) >= n for k, n in A.profile()[1])

    @cached
    def _spatial_cosets(self, ci):
        """One spatial part per left coset g pi(A) of the spatial projection
        pi(A) of ci's representative A, and |A| / |pi(A)|."""
        projection = self._reps[ci].spatial_projection()
        reps, covered = [], set()
        for g in range(N):
            if g not in covered:
                reps.append(g)
                covered.update(gc.MUL[g][p] for p in projection)
        return tuple(reps), len(self._reps[ci]) // len(projection)

    @cached
    def _pullback(self, K, a, b):
        """phi_b(K)^a: K's representative with every temporal angle times b,
        then its preimage under z -> z^a."""
        A = self._reps[K]
        if b > 1:
            A = mode_image(A, b)
        return A if a == 1 else mode_cover(A, a)

    @cached
    def fixed_cosets(self, L, H):
        """|(G/H)^L| for L = K^a and H = M^b, read from mode 1.

        z -> z^b carries G/H onto G/M, so with d = gcd(a, b) the count is
        |(G/M)^A| for A = phi_{b/d}(K)^{a/d}, the image of L under z -> z^b.
        A holds the a/d rotations of ker(z -> z^(a/d)) over the spatial
        identity, so it lies in no conjugate of M unless a/d divides the
        order of M's temporal kernel, 1 or 2 for a mode-1 class: A is built
        only for a/d <= 2.

        |(G/M)^A| = |{c : c^-1 A c in M}| / |M|.  The conjugators form whole
        left cosets cM, and right multiplication by m in M moves a
        conjugator's spatial part g_c to g_c pi(m) while keeping the count
        per spatial part.  So one g_c per left coset g pi(M) is searched,
        and the count over those is divided (checked) by |M| / |pi(M)|
        instead of |M|.
        """
        (K, a), (M, b) = self._pairs[L], self._pairs[H]
        d = math.gcd(a, b)
        a, b = a // d, b // d
        if a > 1 and self.symbol_key(M)[3] % a:
            return 0
        A = self._pullback(K, a, b)
        B = self._reps[M].elements
        if len(B) % len(A) or not self._profile_fits(A, M):
            return 0
        gens = [decode(x) for x in A.generators()]
        spatial, kernel = self._spatial_cosets(M)
        n = sum(1 for _ in _conjugators(gens, B, self._refl_index(M), spatial))
        val, r = divmod(n, kernel)
        if r:
            raise ConsistencyError(
                f"conjugator count {n} over one spatial part per coset of pi(M)"
                f" not divisible by |M|/|pi(M)| = {kernel}"
            )
        return val

    # characters / fixed dimensions --------------------------------------
    @cached
    def fixed_dim(self, j, m, ci):
        """dim of the fixed space of class ci = K^l in irrep-j Fourier-mode-m.

        ker(z -> z^l) turns V_{j,m} by multiples of m/l turns, so it fixes
        nothing unless l divides m, and then the space is K's in mode m/l.
        Individual rotation terms 2 cos(2 pi m k / GRID) may be irrational,
        but the group average is an integer; a strict snap guards precision.
        """
        K, l = self._pairs[ci]
        if m % l:
            return 0
        m //= l
        total = 0.0
        for x in self._reps[K].elements:
            e, k, g = decode(x)
            if e:
                continue  # temporal reflections act with zero trace
            c2 = 2.0 * math.cos(2.0 * math.pi * ((m * k) % GRID) / GRID)
            total += c2 * gc.CHARACTER_TABLE[j][gc.ELEMENT_CLASS[g]]
        q = total / len(self._reps[K])
        if abs(q - round(q)) > 1e-9:
            raise ConsistencyError(f"non-integral fixed dimension {q}")
        return int(round(q))

    # maximal types and basic degrees --------------------------------------
    @cached
    def maximal_orbit_types(self, j, l):
        """Maximal finite-Weyl orbit types of irrep j at mode l: the covers
        K^l of those at mode 1, found there by fixed spaces."""
        if l > 1:
            return tuple(
                self.register_cover(K, l) for K in self.maximal_orbit_types(j, 1)
            )
        fixing = [ci for ci in self.graph_classes(1) if self.fixed_dim(j, 1, ci) >= 1]
        return tuple(self.maximal(fixing))

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
    keys = [(ci, symbol_key(ring().representative(ci))) for ci in class_ids]
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
