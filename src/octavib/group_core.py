"""The order-48 point group of the octahedron and its subgroup catalog.

Elements are indexed 0..47.  Each element is simultaneously

* a permutation of the six vertices (its image in the symmetric group S6),
* a pair (sigma, eps) with sigma a permutation of {1,2,3,4} and eps = +-1,
* a signed-permutation matrix in O(3).

The vertex realization is generated multiplicatively from the images of
((1234),1) and ((132),1); of the five reference generator correspondences
this is the unique homomorphic completion (four hold verbatim, the 4-cycle
lands on its inverse vertex cycle, i.e. the reference list mixes the two
cycle-composition conventions; subgroup-level data is unaffected).

Generator words in the catalog follow the convention of the subgroup
listing: cycles on {1,2,3,4} give sigma, a trailing "(56)" flags eps = -1.
The catalog, ``catalog()``, is a ``functools.cache`` function: one per
process.
"""

import functools
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError

N = 48
# the unit octahedron, one vertex per row: p1=-p3=e_x, p2=-p4=e_y, p5=-p6=e_z;
# read-only, the one copy every module reads
VERTICES = np.array(
    [[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0]]
)
VERTICES.flags.writeable = False
ANTIPODE = (2, 3, 0, 1, 5, 4)  # the index of each vertex's antipode


def _compose(a, b):
    """Function composition a after b."""
    return tuple(a[b[i]] for i in range(len(b)))


def _cycles_to_perm(cycles, n):
    out = list(range(n))
    for c in cycles:
        for i in range(len(c)):
            out[c[i] - 1] = c[(i + 1) % len(c)] - 1
    return tuple(out)


def cycle_decomposition(p):
    """The cycles of a permutation of 0..n-1, fixed points included, each
    from its least point, in the order of those points."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if not seen[i]:
            cyc, j = [], i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = p[j]
            out.append(tuple(cyc))
    return out


def _build_group():
    # vertex images of the two generating rotations
    a4 = _cycles_to_perm([(1, 2, 3, 4)], 4)
    b4 = _cycles_to_perm([(1, 3, 2)], 4)
    img_a = (3, 0, 1, 2, 4, 5)  # vertex 4-cycle (1432)
    img_b = (3, 4, 1, 5, 2, 0)  # vertex perm (146)(253)

    hom = {tuple(range(4)): tuple(range(6))}
    frontier = [tuple(range(4))]
    gens = {a4: img_a, b4: img_b}
    while frontier:
        nxt = []
        for s in frontier:
            for g, img in gens.items():
                t = _compose(g, s)
                v = _compose(img, hom[s])
                if t not in hom:
                    hom[t] = v
                    nxt.append(t)
                elif hom[t] != v:
                    raise ConsistencyError("generator images are not a homomorphism")
        frontier = nxt
    if len(hom) != 24:
        raise ConsistencyError("rotation subgroup has wrong order")

    elems = []
    for s in sorted(hom):
        for eps in (1, -1):
            img = hom[s] if eps == 1 else _compose(ANTIPODE, hom[s])
            elems.append((img, s, eps))
    elems.sort()
    return elems


_ELEMS = _build_group()
PERM = tuple(e[0] for e in _ELEMS)
ABSTRACT = tuple((e[1], e[2]) for e in _ELEMS)
_ABSTRACT_INDEX = {a: i for i, a in enumerate(ABSTRACT)}
IDENTITY = PERM.index(tuple(range(6)))


def _tables():
    """MUL[i][j], the index of PERM[i] after PERM[j], and each element's
    inverse, by index arithmetic: a permutation's base-6 digits are its key,
    and PERM is sorted, so its keys are too."""
    perm = np.array(PERM)
    keys = perm @ 6 ** np.arange(5, -1, -1)
    mul = np.searchsorted(keys, perm[:, perm] @ 6 ** np.arange(5, -1, -1))
    inv = np.argmax(mul == IDENTITY, axis=1)
    return mul, inv


_MUL, _INV = _tables()
MUL = tuple(map(tuple, _MUL.tolist()))

# conjugacy classes of elements, in character-table column order
_CLASS_KEYS = (
    ((1, 1, 1, 1), 1), ((1, 1, 1, 1), -1), ((2, 1, 1), 1), ((2, 1, 1), -1),
    ((2, 2), 1), ((2, 2), -1), ((3, 1), 1), ((3, 1), -1), ((4,), 1), ((4,), -1),
)
# an element's class key: the cycle type of sigma, longest cycle first, and eps
ELEMENT_CLASS = tuple(
    _CLASS_KEYS.index((tuple(sorted(map(len, cycle_decomposition(s)), reverse=True)), eps))
    for s, eps in ABSTRACT
)
CLASS_REPS = tuple(ELEMENT_CLASS.index(c) for c in range(10))

# character table: rows are the ten irreducibles, columns the classes above
CHARACTER_TABLE = (
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, -1, 1, -1, 1, -1, 1, -1, 1, -1),
    (1, 1, -1, -1, 1, 1, 1, 1, -1, -1),
    (1, -1, -1, 1, 1, -1, 1, -1, -1, 1),
    (2, 2, 0, 0, 2, 2, -1, -1, 0, 0),
    (2, -2, 0, 0, 2, -2, -1, 1, 0, 0),
    (3, 3, -1, -1, -1, -1, 0, 0, 1, 1),
    (3, -3, -1, 1, -1, 1, 0, 0, 1, -1),
    (3, 3, 1, 1, -1, -1, 0, 0, -1, -1),
    (3, -3, 1, -1, -1, 1, 0, 0, -1, 1),
)
IRREP_NAMES = ("0", "1", "2", "3", "4", "5", "6", "7", "8", "9")


def element_from_word(word):
    """Element index for a generator word like "(234)", "(24)(56)", "(56)", "e"."""
    word = word.replace(" ", "")
    if word in ("e", "()", "(1)"):
        return IDENTITY
    cycles = []
    eps = 1
    for part in word.strip(")").split(")"):
        part = part.lstrip("(")
        if not part:
            continue
        cyc = tuple(int(ch) for ch in part)
        if cyc == (5, 6):
            eps = -eps
        else:
            if any(v > 4 for v in cyc):
                raise ConsistencyError(f"bad generator word {word!r}")
            cycles.append(cyc)
    sigma = _cycles_to_perm(cycles, 4)
    if (sigma, eps) not in _ABSTRACT_INDEX:
        raise ConsistencyError(f"word {word!r} not in group")
    return _ABSTRACT_INDEX[sigma, eps]


def octahedral_matrix(i):
    """3x3 signed-permutation matrix M with M p_j = p_{perm(j)}."""
    pi = PERM[i]
    M = np.zeros((3, 3), dtype=int)
    M[:, 0] = VERTICES[pi[0]]
    M[:, 1] = VERTICES[pi[1]]
    M[:, 2] = VERTICES[pi[4]]
    return M


def action_matrix_18(i):
    """Orthogonal 18x18 matrix of the permute-then-rotate action.

    Component j of the image is M v_{perm^{-1}(j)}, which makes the map a
    group homomorphism and fixes every radial octahedral configuration.
    """
    pi = PERM[i]
    M = octahedral_matrix(i)
    G = np.zeros((18, 18))
    for k in range(6):
        G[3 * pi[k] : 3 * pi[k] + 3, 3 * k : 3 * k + 3] = M
    return G


@functools.cache
def actions_18():
    """The 18-dim action of every element, (48, 18, 18), built on first use;
    read-only: the one copy every module indexes."""
    table = np.stack([action_matrix_18(g) for g in range(N)])
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# subgroup catalog
# ---------------------------------------------------------------------------

# generator words of the 33 conjugacy-class representatives
CATALOG_WORDS = {
    "Z_1": (), "Z_2": ("(12)(34)",), "Z_3": ("(234)",),
    "V_4": ("(14)(23)", "(12)(34)"),
    "A_4": ("(14)(23)", "(12)(34)", "(234)"),
    "D_4": ("(1234)", "(24)"), "Z_4": ("(1234)",),
    "D_3": ("(234)", "(24)"), "D_2": ("(13)(24)", "(24)"), "D_1": ("(24)",),
    "S_4": ("(14)(23)", "(13)(24)", "(234)", "(24)"),
    "Z_1^p": ("(56)",), "D_1^p": ("(24)", "(56)"), "D_1^z": ("(24)(56)",),
    "Z_2^p": ("(12)(34)", "(56)"), "Z_2^-": ("(12)(34)(56)",),
    "D_2^p": ("(13)(24)", "(24)", "(56)"), "D_2^z": ("(13)(24)", "(24)(56)"),
    "D_2^d": ("(13)(24)(56)", "(24)"), "Z_4^d": ("(1234)(56)", "(13)(24)"),
    "V_4^-": ("(14)(23)(56)", "(12)(34)"),
    "V_4^p": ("(14)(23)", "(12)(34)", "(56)"),
    "D_4^z": ("(1234)", "(24)(56)"),
    "D_4^d": ("(13)(24)", "(24)", "(12)(34)(56)"),
    "D_4^dt": ("(14)(23)", "(12)(34)", "(24)(56)"),
    "D_4^p": ("(1234)", "(24)", "(56)"),
    "Z_3^p": ("(234)", "(56)"), "D_3^z": ("(234)", "(24)(56)"),
    "D_3^p": ("(234)", "(24)", "(56)"),
    "A_4^p": ("(14)(23)", "(12)(34)", "(234)", "(56)"),
    "S_4^-": ("(14)(23)", "(12)(34)", "(234)", "(24)(56)"),
    "S_4^p": ("(14)(23)", "(12)(34)", "(234)", "(24)", "(56)"),
    "Z_4^p": ("(1234)", "(56)"),
}


def closure_mask(gen_ids):
    """Bitmask of the subgroup generated by the given element ids.

    Breadth-first over right multiplication by the generators: in a finite
    group the inverses are powers, so the words reach the whole subgroup.
    """
    gens = tuple(set(gen_ids))
    mask = 1 << IDENTITY
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for x in frontier:
            row = MUL[x]
            for g in gens:
                z = row[g]
                if not mask >> z & 1:
                    mask |= 1 << z
                    nxt.append(z)
        frontier = nxt
    return mask


def mask_elements(mask):
    return [i for i in range(N) if mask >> i & 1]


# the conjugation table: CONJ[g, x] is the element g^-1 x g
CONJ = _MUL[_MUL[_INV], np.arange(N)[:, None]]
_BITS = 1 << np.arange(N, dtype=np.int64)


def conjugate_masks(mask):
    """The conjugates g^-1 H g of a subgroup mask, g = 0..47, as 48 masks."""
    return np.bitwise_or.reduce(_BITS[CONJ[:, mask_elements(mask)]], axis=1).tolist()


class SubgroupClass(NamedTuple):
    """One conjugacy class of subgroups: its label, representative and Weyl data."""

    label: str
    mask: int
    order: int
    normalizer_order: int
    weyl_order: int
    generators: tuple
    conjugates: tuple  # all subgroups in the class, as masks

    @property
    def elements(self):
        return mask_elements(self.mask)


class Catalog:
    """The 33 conjugacy classes of subgroups, with labels and Weyl data."""

    def __init__(self):
        # each reference word closes to one class: its conjugation orbit;
        # the classes are ordered by their least member
        orbits, owner = [], {}
        for label, words in CATALOG_WORDS.items():
            mask = closure_mask([element_from_word(w) for w in words])
            if mask in owner:
                raise ConsistencyError(
                    f"duplicate catalog class: {label} vs {owner[mask]}"
                )
            orbit = sorted(set(conjugate_masks(mask)))
            owner.update(dict.fromkeys(orbit, label))
            orbits.append((orbit, label))
        orbits.sort()

        self.classes = []
        for orbit, label in orbits:
            rep = orbit[0]
            order = bin(rep).count("1")
            nn = N // len(orbit)  # orbit-stabilizer: |N(H)| = |G| / |orbit|
            self.classes.append(
                SubgroupClass(
                    label=label,
                    mask=rep,
                    order=order,
                    normalizer_order=nn,
                    weyl_order=nn // order,
                    generators=CATALOG_WORDS[label],
                    conjugates=tuple(orbit),
                )
            )

    def __len__(self):
        return len(self.classes)

    def export(self):
        """JSON-ready catalog description."""
        return [
            {
                "label": c.label,
                "order": c.order,
                "generators": list(c.generators),
                "normalizer_order": c.normalizer_order,
                "weyl_order": c.weyl_order,
            }
            for c in self.classes
        ]


@functools.cache
def catalog():
    """The shared immutable catalog, built on first use, once per process."""
    return Catalog()
