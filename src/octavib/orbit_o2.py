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
Enumerating those triples yields the complete list of orbit types with
finite Weyl group at a given Fourier mode, which is how the maximal orbit
types of each irreducible block are found (and cross-checked against the
reference lists).
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import group_core as gc
from .burnside import BurnsideRing, cached
from .errors import CatalogError, ConsistencyError

GRID = 10080  # angle denominator: covers D_{2nl} for n <= 8, modes l <= 8

N = gc.N
_IDENT = gc.IDENTITY


def encode(refl, k, g):
    return (refl * GRID + k % GRID) * N + g


def decode(code):
    g = code % N
    ek = code // N
    return ek // GRID, ek % GRID, g


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


def _conjugators(gens, H, refl_h_by_spatial):
    """Every c with c^-1 x c in H for each decoded generator x = (e, k, g).

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
    for g_c in range(N):
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
    """Preimage of a mode-1 group under the l-fold temporal cover."""
    if GRID % l:
        raise CatalogError(f"mode {l} off the 1/{GRID} grid", missing=l)
    out = []
    for x in subgroup.elements:
        e, k, g = decode(x)
        for m in range(l):
            num = k + m * GRID
            if num % l == 0:
                out.append(encode(e, num // l, g))
    return ConcreteSubgroup(out)


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


def amalgam_symbol(subgroup):
    """Render the orbit-type symbol ``H^{Ho} x_{L}^{Ko} K`` of a subgroup."""
    hk, hm = subgroup.temporal_projection()
    ok, om = subgroup.temporal_kernel()
    K = _spatial_label(subgroup.spatial_projection())
    Ko = _spatial_label(subgroup.spatial_kernel())
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
        self._reps = []       # class id -> ConcreteSubgroup
        self._by_set = {}
        self._cover_base = {}  # cover class id -> mode-1 base class id

    def pin_label(self, ci, label):
        """Fix the rendered symbol of a class (reference spelling)."""
        self.memo["label_of"][(ci,)] = label

    # registry ---------------------------------------------------------
    def find_class(self, subgroup):
        key = subgroup.elements
        if key in self._by_set:
            return self._by_set[key]
        p = subgroup.profile()
        size = len(subgroup)
        for ci, rep in enumerate(self._reps):
            if len(rep) != size:
                continue
            if rep.profile() == p and rep.is_conjugate(subgroup):
                self._by_set[key] = ci
                return ci
        self._reps.append(subgroup)
        ci = len(self._reps) - 1
        self._by_set[key] = ci
        return ci

    def register_cover(self, base_ci, l):
        """Class of the l-fold temporal cover of a registered mode-1 class.

        Covers of non-conjugate classes are non-conjugate and their kernels
        distinguish them from every mode-1 class, so they are interned
        directly without a conjugacy scan.  z -> z^l maps O(2) onto O(2)
        with kernel Z_l, so normalizers correspond and a cover has its
        base's Weyl order.
        """
        key = ("cover", base_ci, l)
        if key in self._by_set:
            return self._by_set[key]
        cov = mode_cover(self._reps[base_ci], l)
        if cov.elements in self._by_set:
            ci = self._by_set[cov.elements]
        else:
            self._reps.append(cov)
            ci = len(self._reps) - 1
            self._by_set[cov.elements] = ci
        self._by_set[key] = ci
        self._cover_base[ci] = base_ci
        return ci

    def representative(self, ci):
        return self._reps[ci]

    @cached
    def graph_classes(self, l):
        """Class ids of every finite-Weyl orbit type at Fourier mode l."""
        if l > 1:
            return sorted({self.register_cover(ci, l) for ci in self.graph_classes(1)})
        return sorted({self.find_class(A) for A in _graph_subgroups()})

    # ring hooks ---------------------------------------------------------
    @cached
    def _weyl_order(self, ci):
        base = self._cover_base.get(ci)
        return self._reps[ci].weyl_order() if base is None else self._weyl_order(base)

    def weyl(self, ci):
        w = self._weyl_order(ci)
        if w is None:
            raise ConsistencyError("infinite Weyl group inside Burnside arithmetic")
        return w

    def finite_weyl(self, ci):
        return self._weyl_order(ci) is not None

    def order_of(self, ci):
        return len(self._reps[ci])

    @cached
    def label_of(self, ci):
        return amalgam_symbol(self._reps[ci])

    @cached
    def candidate_subtypes(self, ci):
        """Classes subconjugate to ci, drawn from the complete catalog.

        Every finite orbit type with temporal kernel of order l appears in
        ``graph_classes(l)``, so the catalog over the divisors of ci's
        kernel order is a complete candidate pool.
        """
        lH = self._reps[ci].temporal_kernel()[1]
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

    def _profile_fits(self, L, H):
        """Whether every profile key counts no more elements in L than in H.

        A necessary condition for L to be subconjugate to H, since
        conjugation keeps the reflection bit, the order and the spatial
        class of an element.
        """
        have = self._profile_counts(H)
        return all(have.get(k, 0) >= n for k, n in self._profile_counts(L).items())

    @cached
    def fixed_cosets(self, L, H):
        """|(G/H)^L| = |{c : c^-1 L c in H}| / |H|, counted over conjugators."""
        a, b = self._reps[L], self._reps[H].elements
        if len(b) % len(a) or not self._profile_fits(L, H):
            return 0
        gens = [decode(x) for x in a.generators()]
        n = sum(1 for _ in _conjugators(gens, b, self._refl_index(H)))
        val, r = divmod(n, len(b))
        if r:
            raise ConsistencyError(
                f"conjugator count {n} not divisible by |H| = {len(b)}"
            )
        return val

    # characters / fixed dimensions --------------------------------------
    @cached
    def fixed_dim(self, j, l, ci):
        """dim of the fixed space of class ci in irrep-j Fourier-mode-l.

        Individual rotation terms 2 cos(2 pi l k / GRID) may be irrational,
        but the group average is an integer; a strict snap guards precision.
        """
        total = 0.0
        for x in self._reps[ci].elements:
            e, k, g = decode(x)
            if e:
                continue  # temporal reflections act with zero trace
            c2 = 2.0 * math.cos(2.0 * math.pi * ((l * k) % GRID) / GRID)
            total += c2 * gc.CHARACTER_TABLE[j][gc.ELEMENT_CLASS[g]]
        q = total / len(self._reps[ci])
        if abs(q - round(q)) > 1e-9:
            raise ConsistencyError(f"non-integral fixed dimension {q}")
        return int(round(q))

    # maximal types, reference labels and basic degrees -------------------
    @cached
    def maximal_orbit_types(self, j, l):
        """Maximal finite-Weyl orbit types of irrep j at mode l, by fixed spaces.

        At l = 1 the classes carry their reference labels from then on.
        """
        fixing = [ci for ci in self.graph_classes(l) if self.fixed_dim(j, l, ci) >= 1]
        classes = tuple(self.maximal(fixing))
        if l == 1:
            self.pin_reference_labels(j, classes, l)
        return classes

    def pin_reference_labels(self, j, class_ids, l):
        """Pin computed maximal classes to the reference symbol spellings.

        Returns the pinned labels; raises when a reference family matches zero
        or several of the given classes (ambiguity is surfaced, not guessed).
        """
        out = {}
        for _, red, fam in REFERENCE_EXPANSIONS[j]:
            if not red:
                continue
            hits = [ci for ci in class_ids if _family_matches(fam, self._reps[ci], l)]
            if len(hits) != 1:
                raise ConsistencyError(
                    f"reference family {fam.label(l)} matches {len(hits)} classes"
                )
            self.pin_label(hits[0], fam.label(l))
            out[hits[0]] = fam.label(l)
        return out

    @cached
    def basic_degree(self, j, l):
        """Antipodal-map degree on the ball of irrep-j mode-l, by the recurrence.

        The pool is the downward closure of the maximal orbit types; the unit
        coefficient is +1.
        """
        pool = set()
        for ci in self.maximal_orbit_types(j, l):
            pool.update(self.candidate_subtypes(ci))
        return self.element(
            1, self.recurrence(pool, lambda K: (-1) ** self.fixed_dim(j, l, K) - 1)
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


def _spatial_generators(mask):
    """A small generating set of the spatial subgroup, longest orders first."""
    els = gc.mask_elements(mask)
    gens = []
    got = {gc.IDENTITY}
    for g in sorted(els, key=lambda i: -_element_order(encode(0, 0, i))):
        if g not in got:
            gens.append(g)
            got = set(gc.mask_elements(gc.closure_mask(gens)))
            if len(got) == len(els):
                break
    return gens


def _characters_of(mask):
    """All homomorphisms from the spatial subgroup to the angle grid."""
    els = gc.mask_elements(mask)
    gens = _spatial_generators(mask)
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


def _graph_subgroups():
    """One subgroup per character graph: every mode-1 finite-Weyl orbit type.

    A type may appear more than once; ``find_class`` interns the repeats.
    """
    cat = gc.catalog()
    for cls in cat.classes:
        K = cls.mask
        els = gc.mask_elements(K)
        spatial_gens = _spatial_generators(K)
        for chi in _characters_of(K):
            for t in range(N):
                if gc.conj_mask(K, t) != K:
                    continue
                if not K >> gc.MUL[t][t] & 1:
                    continue
                if any(
                    chi[gc.MUL[gc.MUL[t][x]][gc.INV[t]]] != (-chi[x]) % GRID
                    for x in els
                ):
                    continue
                gens = [encode(0, chi[x], x) for x in spatial_gens] + [encode(1, 0, t)]
                yield ConcreteSubgroup.generated(gens)


def graph_classes(l=1):
    """Class ids of every finite-Weyl orbit type at Fourier mode l."""
    return ring().graph_classes(l)


def maximal_orbit_types(j, l=1):
    """Maximal finite-Weyl orbit types of irrep j at mode l; pinned at l = 1."""
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


def reference_red_labels(j, l=1):
    """Maximal-type labels of the reference expansion for irrep j at mode l."""
    return tuple(f.label(l) for _, red, f in REFERENCE_EXPANSIONS[j] if red)


def _family_matches(family, subgroup, l=1):
    hk, hm = subgroup.temporal_projection()
    if (hk, hm) != (family.o2_kind, family.o2_scale * l):
        return False
    ok, om = subgroup.temporal_kernel()
    want = {
        "full": (hk, hm),
        "Z_l": ("Z", l),
        "D_l": ("D", l),
        "Z_1": ("Z", 1),
    }[family.o2_kernel]
    if (ok, om) != want:
        return False
    if _spatial_label(subgroup.spatial_projection()) != family.spatial:
        return False
    ko = family.spatial_kernel if family.spatial_kernel != "full" else family.spatial
    return _spatial_label(subgroup.spatial_kernel()) == ko


def pin_reference_labels(j, class_ids, l=1):
    """Pin the ring's maximal classes to the reference symbol spellings."""
    return ring().pin_reference_labels(j, class_ids, l)


def instantiate(family, l=1):
    """Concrete realizations of a symbolic family at mode l.

    Enumerates all kernel choices and quotient identifications, deduplicates
    up to conjugacy, and returns the distinct classes.  Ambiguous labels
    (more than one class) are returned in full rather than guessed.
    """
    R = ring()
    cat = gc.catalog()
    K_cls = cat.by_label(family.spatial)
    K = K_cls.mask
    els = gc.mask_elements(K)
    m = family.o2_scale * l
    if family.o2_kind != "D":
        raise CatalogError("only dihedral temporal families instantiate")
    if GRID % (2 * m):
        raise CatalogError(f"temporal order {m} off the grid", missing=family)

    results = set()
    if family.o2_kernel == "full":
        if family.spatial_kernel not in ("full", family.spatial):
            raise CatalogError(
                f"untwisted temporal part requires an untwisted spatial part: "
                f"{family.label(l)}"
            )
        gens = [encode(0, GRID // m, _IDENT), encode(1, 0, _IDENT)]
        gens += [encode(0, 0, g) for g in els]
        results.add(R.find_class(ConcreteSubgroup.generated(gens)))
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
            rep = R.representative(ci)
            if len(rep) == target_order and _family_matches(family, rep, l):
                results.add(ci)
    return sorted(results)
