"""Brute-force oracles the tests check the package against.

No request runs these.  They are the direct constructions the package's tables
and kernels replace, and the tables only tests read: the group tables by
composing permutations, the element inverses, class sizes, the subgroup class
of each mask and the class of each label, conjugation of a subgroup mask
element by element, the subgroup enumeration, the 18-dim character and its
isotypic decomposition, the spatial ring A(S_4^p) with its product table and
basic degrees, and its products by a census of coset pairs, element
constructors and conjugation in the temporal-spatial group, the upper sets of
the mode-1 table's rows of marks and the recurrence over them, Weyl orders in
a dihedral truncation, symbolic families matched against the catalog, the
amalgam symbol of a symbol key and the reference spelling of a family, the
force field with its pair and bond terms written inline, the equilibrium
search on float64 scalars, the closed-form spectrum from the stiffness
constants, the brake checks of a mode, the elements that fix it, solved from
its first harmonic, and the names of its symmetry relations.
"""

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from octavib import accel, force_field
from octavib import group_core as gc
from octavib import orbit_o2 as o2
from octavib.burnside import BurnsideRing, cached
from octavib.errors import (
    CatalogError,
    ConfigError,
    ConsistencyError,
    NumericalError,
    SamplingError,
    SearchFailureError,
)
from octavib.spectral import SpectrumLine, SpectrumReport

# ---------------------------------------------------------------------------
# the spatial group
# ---------------------------------------------------------------------------


# each element's inverse, read off the product table, and the size of each
# element class in character-table column order
INV = tuple(row.index(gc.IDENTITY) for row in gc.MUL)
CLASS_SIZES = tuple(gc.ELEMENT_CLASS.count(c) for c in range(10))


@functools.cache
def class_of_mask(cat):
    """{subgroup mask: index of its class} over every conjugate in ``cat``."""
    return {mask: ci for ci, c in enumerate(cat.classes) for mask in c.conjugates}


@functools.cache
def by_label(cat, label):
    """The class of the catalog ``cat`` named ``label``."""
    (cls,) = [c for c in cat.classes if c.label == label]
    return cls


def composed_tables():
    """(MUL, INV) by composing the vertex permutations one pair at a time
    (oracle for ``group_core``'s index arithmetic)."""
    index = {p: i for i, p in enumerate(gc.PERM)}
    mul = tuple(
        tuple(index[gc._compose(gc.PERM[i], gc.PERM[j])] for j in range(gc.N))
        for i in range(gc.N)
    )
    inv = tuple(next(j for j in range(gc.N) if mul[i][j] == gc.IDENTITY) for i in range(gc.N))
    return mul, inv


def conj_mask(mask, g):
    """The conjugate g H g^-1 of a subgroup mask, element by element (the
    reference for ``group_core.conjugate_masks`` among others, and the
    normalizer test of ``tests/regenerate_o2_table.py``)."""
    out = 0
    gi = INV[g]
    for x in gc.mask_elements(mask):
        out |= 1 << gc.MUL[gc.MUL[g][x]][gi]
    return out


def enumerate_subgroups():
    """All subgroups of the group, as bitmasks (cyclic extension sweep)."""
    triv = gc.closure_mask([])
    found = {triv}
    frontier = [triv]
    while frontier:
        nxt = []
        for m in frontier:
            for g in range(gc.N):
                if m >> g & 1:
                    continue
                m2 = gc.closure_mask(gc.mask_elements(m) + [g])
                if m2 not in found:
                    found.add(m2)
                    nxt.append(m2)
        frontier = nxt
    return found


def element_from_vertex_word(word):
    """Element index from a vertex permutation word like "(145326)"."""
    word = word.replace(" ", "")
    if word in ("e", "()", "(1)"):
        return gc.IDENTITY
    cycles = []
    for part in word.strip(")").split(")"):
        part = part.lstrip("(")
        if part:
            cycles.append(tuple(int(ch) for ch in part))
    perm = gc._cycles_to_perm(cycles, 6)
    if perm not in gc.PERM:
        raise ConsistencyError(f"vertex word {word!r} is not an octahedral symmetry")
    return gc.PERM.index(perm)


def action_character():
    """Trace of the 18-dim action on the ten class representatives."""
    return tuple(int(round(np.trace(gc.actions_18()[g]))) for g in gc.CLASS_REPS)


class InvalidCharacterError(ConfigError):
    """A class function does not decompose integrally over the irreducibles."""


def isotypic_multiplicities(character):
    """Decompose a class function over the ten irreducibles."""
    chi = tuple(character)
    if len(chi) != 10:
        raise InvalidCharacterError("need values on the ten conjugacy classes")
    sizes = CLASS_SIZES
    order = sum(sizes)
    out = []
    for row in gc.CHARACTER_TABLE:
        s = sum(sz * cv * rv for sz, cv, rv in zip(sizes, chi, row))
        m = s / order
        if abs(m - round(m)) > 1e-9 or round(m) < 0:
            raise InvalidCharacterError(f"inner product {m} is not a natural number")
        out.append(int(round(m)))
    return tuple(out)


def census_multiply(ring, H, K):
    """(H)*(K) in the spatial ring by enumerating points of G/H x G/K and
    their stabilizers: a pair of conjugates (a, b) is |W(H)| |W(K)| points
    fixed by a & b (oracle for the recurrence's products)."""
    cat = ring.catalog
    H, K = by_label(cat, H), by_label(cat, K)
    class_of = class_of_mask(cat)
    counts = Counter(class_of[a & b] for a in H.conjugates for b in K.conjugates)
    out = {}
    for ci, cnt in counts.items():
        cls = cat.classes[ci]
        n, r = divmod(cnt * H.weyl_order * K.weyl_order, gc.N // cls.order)
        if r:
            raise ConsistencyError("census points do not fill whole orbits")
        out[cls.label] = n
    return ring.element(out.pop(ring.unit_label, 0), out)


class OctahedralBurnside(BurnsideRing):
    """The spatial ring A(S_4^p) the paper states, with its product table
    and antipodal basic degrees; keys are catalog labels.

    Its data come from ``group_core.Catalog``: |(G/H)^L| is |W(H)| times
    the number of H's conjugates that contain L, and dim V^K a character
    sum over K.
    """

    unit_label = "S_4^p"

    def __init__(self):
        super().__init__()
        self.catalog = gc.catalog()

    def weyl(self, label):
        return by_label(self.catalog, label).weyl_order

    def order_of(self, label):
        return by_label(self.catalog, label).order

    def label_of(self, label):
        return label

    def finite_weyl(self, label):
        return True

    @cached
    def fixed_cosets(self, L, H):
        """|(G/H)^L|: each conjugate of H that contains L fixes |W(H)| cosets."""
        mask = by_label(self.catalog, L).mask
        H = by_label(self.catalog, H)
        return H.weyl_order * sum(1 for c in H.conjugates if mask & ~c == 0)

    @cached
    def candidate_subtypes(self, H):
        return [c.label for c in self.catalog.classes if self.fixed_cosets(c.label, H)]

    @cached
    def fixed_dim(self, j, label):
        """dim of the irrep-j fixed space under the class `label`, via characters."""
        cls = by_label(self.catalog, label)
        chi = gc.CHARACTER_TABLE[j]
        total = sum(chi[gc.ELEMENT_CLASS[x]] for x in cls.elements)
        q, r = divmod(total, cls.order)
        if r:
            raise ConsistencyError(f"non-integer fixed dimension at {label}")
        return q

    def generator(self, label):
        by_label(self.catalog, label)  # validate
        if label == self.unit_label:
            return self.unit()
        return self.element(0, {label: 1})

    def basic_degree_from_dims(self, fixed_dims):
        """Degree of the antipodal map from dim V^K data (one per label)."""
        if self.unit_label not in fixed_dims:
            raise ConsistencyError("fixed_dims must include the full group")
        out = self.recurrence(fixed_dims, lambda K: (-1) ** fixed_dims[K])
        unit = out.pop(self.unit_label, 0)
        return self.element(unit, out)

    def basic_degree(self, j):
        """Degree of the antipodal map on the ball of irreducible j."""
        dims = {c.label: self.fixed_dim(j, c.label) for c in self.catalog.classes}
        return self.basic_degree_from_dims(dims)


@functools.cache
def spatial_ring():
    """The spatial ring, built on first use, once per process."""
    return OctahedralBurnside()


# ---------------------------------------------------------------------------
# elements of the temporal-spatial group
# ---------------------------------------------------------------------------


def inverse(x):
    e, k, g = o2.decode(x)
    return o2.encode(e, -k if e == 0 else k, INV[g])


def conjugate(x, c):
    """c x c^-1."""
    ec, kc, gcpart = o2.decode(c)
    ex, kx, gx = o2.decode(x)
    gg = gc.MUL[gc.MUL[gcpart][gx]][INV[gcpart]]
    if ec == 0:
        return o2.encode(ex, kx if ex == 0 else kx + 2 * kc, gg)
    return o2.encode(ex, -kx if ex == 0 else 2 * kc - kx, gg)


def rotation(k, g=gc.IDENTITY):
    return o2.encode(0, k, g)


def reflection(k=0, g=gc.IDENTITY):
    return o2.encode(1, k, g)


def temporal(turn_num, turn_den, g=gc.IDENTITY, refl=False):
    """Element with O(2) part a turn_num/turn_den turn (reflection if asked)."""
    if (o2.GRID * turn_num) % turn_den:
        raise CatalogError(f"angle {turn_num}/{turn_den} is off the 1/{o2.GRID} grid")
    return o2.encode(1 if refl else 0, o2.GRID * turn_num // turn_den, g)


def generated(gens):
    """The subgroup the elements ``gens`` generate, with its conjugacy tooling."""
    return o2.ConcreteSubgroup(o2.closure(gens))


def alignment_candidates(L, H, refl_h_by_spatial):
    """Conjugators c with c^-1 x0 c in H, for one reflection x0 of L.

    Every c with c^-1 L c contained in H is among them.  The tests check
    this superset against brute force and filter it with the element
    arithmetic as the reference for ``orbit_o2._conjugators``.
    """
    x0 = [o2.decode(x) for x in o2.reflections_of(L)[:1]]
    return set(o2._conjugators(x0, H, refl_h_by_spatial))


def truncated_weyl_order(subgroup, m):
    """Brute-force Weyl order inside the dihedral-m truncation."""
    if o2.GRID % m:
        raise CatalogError(f"truncation order {m} off the grid")
    step = o2.GRID // m
    n = 0
    for e in (0, 1):
        for k in range(0, o2.GRID, step):
            for g in range(o2.N):
                c = o2.encode(e, k, g)
                if all(conjugate(x, c) in subgroup.elements for x in subgroup.elements):
                    n += 1
    return n // len(subgroup.elements)


@functools.cache
def marks_rows():
    """Each mode-1 class's row of nonzero marks {H: fix_K(G/H)}, read from
    the committed table."""
    with open(o2.TABLE, encoding="utf-8") as fh:
        return tuple(dict(row) for row in json.load(fh)["marks"])


def upper_set(h):
    """The mode-1 classes >= (h): the classes of h's row of marks."""
    return frozenset(marks_rows()[h])


def marks_coefficient(ring, j, odd, h):
    """Coefficient of (h) in the invariant of irrep j whose factors leave the
    groups `odd`, by the recurrence over the marks above h (oracle for the
    closed form ``InvariantEngine.fast_coefficient``)."""
    marks = functools.partial(ring.invariant_mark, j, odd)
    return ring.recurrence(upper_set(h), marks).get(h, 0)


def instantiate(family, l=1):
    """Concrete realizations of a symbolic family at mode l.

    Enumerates all kernel choices and quotient identifications, deduplicates
    up to conjugacy, and returns the distinct classes.  Ambiguous labels
    (more than one class) are returned in full rather than guessed.
    """
    R = o2.ring()
    cat = gc.catalog()
    K_cls = by_label(cat, family.spatial)
    m = family.o2_scale * l
    if family.o2_kind != "D":
        raise CatalogError("only dihedral temporal families instantiate")

    results = set()
    if family.o2_kernel == "full":
        if family.spatial_kernel not in ("full", family.spatial):
            raise CatalogError(
                f"untwisted temporal part requires an untwisted spatial part: "
                f"{family_label(family, l)}"
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
            ko_order = by_label(cat, ko_label).order
            if K_cls.order != lsize * ko_order:
                raise CatalogError(
                    f"malformed amalgam {family_label(family, l)}: quotient sizes "
                    f"{lsize} vs {K_cls.order}/{ko_order} do not match"
                )
        target_order = hsize * K_cls.order // lsize
        for ci in R.graph_classes(l):
            if R.order_of(ci) == target_order and R.symbol_key(ci) == family.key(l):
                results.add(ci)
    return sorted(results)


def reference_red_labels(j, l=1):
    """Maximal-type labels of the reference expansion for irrep j at mode l."""
    reds = (fam for _, red, fam in o2.REFERENCE_EXPANSIONS[j] if red)
    return tuple(family_label(fam, l) for fam in reds)


_ABSTRACT_NAME = {
    (1, False): "Z_1", (1, True): "D_1", (2, False): "Z_2", (2, True): "D_2",
    (3, False): "Z_3", (3, True): "D_3", (4, False): "Z_4", (4, True): "D_4",
    (6, False): "Z_6", (6, True): "D_6", (8, True): "D_8", (12, True): "D_12",
}


def amalgam_symbol(key):
    """Render the orbit-type symbol ``H^{Ho} x_{L}^{Ko} K`` of a symbol key
    (the spelling the table's builder gives a class with no reference
    spelling, before its ordinal)."""
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


def family_label(fam, l=1):
    """The reference spelling of an ``OrbitTypeO2`` family at mode l."""
    m = fam.o2_scale * l
    H = f"{fam.o2_kind}_{m}"
    if fam.o2_kernel == "full":
        if fam.spatial_kernel in ("full", fam.spatial):
            return f"{H} x {fam.spatial}"
        return f"{H} x^{{{fam.spatial_kernel}}} {fam.spatial}"
    Ho = {"Z_l": f"Z_{l}", "D_l": f"D_{l}", "Z_1": "Z_1"}[fam.o2_kernel]
    if fam.spatial_kernel == "Z_1":
        return f"{H}^{{{Ho}}} x_{{{fam.spatial}}} {fam.spatial}"
    if fam.quotient and fam.spatial_kernel == "Z_1^p":
        # central spatial kernel is left implicit in the reference symbols
        return f"{H}^{{{Ho}}} x_{{{fam.quotient}}} {fam.spatial}"
    if fam.quotient:
        quot = f"x_{{{fam.quotient}}}^{{{fam.spatial_kernel}}}"
        return f"{H}^{{{Ho}}} {quot} {fam.spatial}"
    return f"{H}^{{{Ho}}} x^{{{fam.spatial_kernel}}} {fam.spatial}"


# ---------------------------------------------------------------------------
# the force field with every pair and bond term written inline, each
# expression in the order the package must keep (bit-for-bit oracle for the
# terms ``accel`` defines once)
# ---------------------------------------------------------------------------


def inline_potential(pos, s1, s2, s3):
    _, r = accel.pairs(pos)
    rr = np.einsum("...jc,...jc->...j", pos, pos)
    pair = np.sum(s1 / r ** 6 - s2 / r ** 3 + s3 / np.sqrt(r), axis=-1)
    return pair + np.sum((np.sqrt(rr) - 1.0) ** 2, axis=-1)


def inline_gradient(pos, s1, s2, s3):
    d, r = accel.pairs(pos)
    u1p = -6.0 * s1 / r ** 7 + 3.0 * s2 / r ** 4 - 0.5 * s3 * r ** -1.5
    g = accel.INCIDENCE @ (2.0 * u1p[..., None] * d)
    rr = np.einsum("...jc,...jc->...j", pos, pos)
    g += 2.0 * (1.0 - rr ** -0.5)[..., None] * pos
    return g


def inline_hessian(pos, s1, s2, s3):
    d, r = accel.pairs(pos)
    u1p = -6.0 * s1 / r ** 7 + 3.0 * s2 / r ** 4 - 0.5 * s3 * r ** -1.5
    u1pp = 42.0 * s1 / r ** 8 - 12.0 * s2 / r ** 5 + 0.75 * s3 * r ** -2.5
    blk = -4.0 * u1pp[:, None, None] * np.einsum("pa,pb->pab", d, d)
    blk -= 2.0 * u1p[:, None, None] * np.eye(3)
    H = -np.einsum("jp,kp,pab->jakb", accel.INCIDENCE, accel.INCIDENCE, blk)
    rr = np.einsum("jc,jc->j", pos, pos)
    for j in range(6):
        H[j, :, j, :] += 2.0 * rr[j] ** -1.5 * np.outer(pos[j], pos[j])
        H[j, :, j, :] += 2.0 * (1.0 - rr[j] ** -0.5) * np.eye(3)
    return H.reshape(18, 18)


def _u1(r, p):
    return p.sigma1 / r ** 6 - p.sigma2 / r ** 3 + p.sigma3 / np.sqrt(r)


def _u1_prime(r, p):
    return -6 * p.sigma1 / r ** 7 + 3 * p.sigma2 / r ** 4 - 0.5 * p.sigma3 * r ** -1.5


def _u1_second(r, p):
    return 42 * p.sigma1 / r ** 8 - 12 * p.sigma2 / r ** 5 + 0.75 * p.sigma3 * r ** -2.5


def _u2(r):
    return (np.sqrt(r) - 1.0) ** 2


def _u2_prime(r):
    return 1.0 - r ** -0.5


def _u2_second(r):
    return 0.5 * r ** -1.5


def inline_phi(params, r):
    return 12 * _u1(2 * r * r, params) + 3 * _u1(4 * r * r, params) + 6 * _u2(r * r)


def inline_phi_prime(params, r):
    return 12 * r * (
        4 * _u1_prime(2 * r * r, params) + 2 * _u1_prime(4 * r * r, params) + _u2_prime(r * r)
    )


def inline_ct_residual(params, r):
    return (
        4 * _u1_prime(2 * r * r, params) + 2 * _u1_prime(4 * r * r, params) + _u2_prime(r * r)
    )


def inline_phi_second(params, r):
    return 12 * inline_ct_residual(params, r) + 24 * r * r * (
        8 * _u1_second(2 * r * r, params)
        + 8 * _u1_second(4 * r * r, params)
        + _u2_second(r * r)
    )


def inline_stiffness(params, r0):
    return (
        _u1_second(2 * r0 * r0, params),
        _u1_second(4 * r0 * r0, params),
        _u2_second(r0 * r0),
        _u1_prime(4 * r0 * r0, params),
        _u1_prime(2 * r0 * r0, params),
    )


# ---------------------------------------------------------------------------
# the equilibrium search on float64 scalars
# ---------------------------------------------------------------------------


def numpy_scalar_equilibrium(params):
    """``force_field.find_equilibrium`` with a grid built per call and the
    bisection and the Newton polish on numpy float64 scalars (oracle for the
    cached grid and the Python-float bisection)."""
    if params.sigma1 == params.sigma2 == params.sigma3 == 0:
        return force_field.Equilibrium(1.0, params)
    lo, hi = force_field.SEARCH_LO, force_field.SEARCH_HI
    grid = np.geomspace(lo, hi, 200)
    with np.errstate(all="ignore"):
        vals = force_field.phi_prime(params, grid)
    steps = np.flatnonzero((vals[:-1] < 0) & (vals[1:] >= 0))
    if not steps.size:
        raise SearchFailureError(f"no sign change of phi' in ({lo:g}, {hi:g})")
    a, b = grid[steps[0]], grid[steps[0] + 1]
    for _ in range(100):
        mid = 0.5 * (a + b)
        if force_field.phi_prime(params, mid) < 0:
            a = mid
        else:
            b = mid
        if b - a < 1e-12 * mid:
            break
    r0 = 0.5 * (a + b)
    fp = force_field.phi_prime(params, r0)
    fpp = force_field.phi_second(params, r0)
    if fpp > 0:
        r0 -= fp / fpp
    return force_field.Equilibrium(float(r0), params)


# ---------------------------------------------------------------------------
# the closed-form spectrum
# ---------------------------------------------------------------------------

MULTIPLICITIES = {"0": 1, "4": 2, "6": 3, "7": 3, "7*": 3, "8": 3, "9": 3}


@dataclass(frozen=True)
class StiffnessCoefficients:
    """Radial stiffness constants of the equilibrium, plus the mixing radius."""

    a: float
    b: float
    c: float
    d: float
    e: float

    @classmethod
    def from_equilibrium(cls, eq):
        a, b, c, d, e = force_field.stiffness(eq.params, eq.radius)
        return cls(a, b, c, d, e)

    @property
    def rho(self):
        a, c, e = self.a, self.c, self.e
        radicand = 36 * a * a + 4 * a * c + c * c + 36 * a * e + 2 * c * e + 9 * e * e
        if radicand < 0:
            raise NumericalError(
                f"negative mixing radicand {radicand:g}: not a valid equilibrium"
            )
        return float(np.sqrt(radicand))


def closed_form_spectrum(coeffs):
    """The seven closed-form eigenvalues with their multiplicities."""
    a, b, c, d, e = coeffs.a, coeffs.b, coeffs.c, coeffs.d, coeffs.e
    rho = coeffs.rho
    values = {
        "0": 2 * (8 * a + 8 * b + c),
        "4": 2 * (2 * a + 8 * b + c),
        "6": 0.0,
        "7": 6 * a + c - 2 * d - e - rho,
        "7*": 6 * a + c - 2 * d - e + rho,
        "8": 8 * a,
        "9": 2 * (2 * a - d + e),
    }
    lines = tuple(
        SpectrumLine(j, float(values[j]), MULTIPLICITIES[j])
        for j in sorted(values, key=lambda k: values[k])
    )
    return SpectrumReport(lines=lines)


# ---------------------------------------------------------------------------
# brake modes
# ---------------------------------------------------------------------------


def brake_velocity(traj):
    """Central-difference speed at the two turning phases t = 0 and pi."""
    n = traj.n_samples
    if n % 2:
        raise SamplingError("brake check needs an even sample count")
    dt = 2 * math.pi / n
    out = []
    for i in (0, n // 2):
        v = (traj.samples[(i + 1) % n] - traj.samples[i - 1]) / (2 * dt)
        out.append(float(np.linalg.norm(v)))
    return out


def is_brake_type(ring, type_class):
    """True when the type contains the bare time reversal."""
    A = ring.representative(type_class)
    return o2.encode(1, 0, gc.IDENTITY) in A.elements


# ---------------------------------------------------------------------------
# the isotropy of a mode
# ---------------------------------------------------------------------------


def first_harmonic(traj):
    """The coefficient c of x(t) = v0 + eps Re(c e^{it}), read from a mode's
    samples by the discrete Fourier transform; a linear mode has c = a - i b."""
    disp = traj.samples - traj.center
    return 2 * np.fft.fft(disp, axis=0)[1] / (traj.n_samples * traj.epsilon)


def isotropy(c, rel=1e-9):
    """The elements that fix the linear mode of first harmonic c.

    An element of turn theta and spatial action G maps x(t) to
    G x(t - theta), or to G x(theta - t) with a reflection, so it fixes the
    mode when G c = e^{i theta} c, with conj(c) in place of c for a
    reflection.  Each of the 48 spatial elements and each reflection bit
    admit at most one theta, read off the largest entry of c and checked on
    all 18 within ``rel`` of |c|; any turn is solved, not only the sample
    grid's.  An element whose turn is off the 1/GRID grid, which no code
    can name, is returned as (reflection bit, turn, spatial index).
    """
    p = int(np.argmax(np.abs(c)))
    out = set()
    for refl, v in enumerate((c, c.conj())):
        for g, moved in enumerate(gc.actions_18() @ v):
            z = moved[p] / c[p]
            if np.linalg.norm(moved - z * c) > rel * np.linalg.norm(c):
                continue
            turn = math.atan2(z.imag, z.real) / (2 * math.pi) % 1.0
            k = round(turn * o2.GRID)
            out.add(o2.encode(refl, k, g) if abs(turn * o2.GRID - k) < 1e-6 else (refl, turn, g))
    return out


# ---------------------------------------------------------------------------
# the names of a mode's symmetry relations
# ---------------------------------------------------------------------------


def cycle_string(perm):
    """A vertex permutation's cycles that move something, 1-based, in the
    order of their least points; "e" for the identity (oracle for the
    cycles in a verify report's names)."""
    seen = [False] * len(perm)
    parts = []
    for i in range(len(perm)):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        parts.append("(" + "".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts) or "e"


def describe_element(element):
    """A verify report's name of one temporal-spatial element."""
    refl, (num, den), g = o2.parts(element)
    kind = "refl" if refl else "rot"
    return f"({kind}{f' {num}/{den}' if num else ''}, {cycle_string(gc.PERM[g])})"
