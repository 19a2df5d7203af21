"""Build the mode-1 orbit-type table ``src/octavib/o2_mode1.json``.

    PYTHONPATH=src python tests/regenerate_o2_table.py          # rewrite it
    PYTHONPATH=src python tests/regenerate_o2_table.py --check  # exit 1 if stale

``build_mode1_table()`` computes every datum the orbit-type ring reads about
the mode-1 classes by the element arithmetic of ``octavib.orbit_o2`` and of
``oracles.py`` (subgroup generation, conjugation of a spatial mask): the
character-graph enumeration that meets the classes, their fixed-coset
counts, exact fixed dimensions, images under z -> z^b, symbol keys and
labels.  The package only reads the table.  The same text comes out on
every run, so ``--check`` compares bytes; the tier-1 test
``tests/test_o2_table.py::test_committed_table_is_current`` runs it, and
the tests use the builder's functions as oracles for the ring.
"""

import functools
import math
import pathlib
import sys
from collections import Counter, defaultdict
from fractions import Fraction

from octavib import group_core as gc
from octavib import orbit_o2 as o2
from octavib._serialize import dumps
from octavib.errors import ConsistencyError
from oracles import (
    INV,
    amalgam_symbol,
    class_of_mask,
    conj_mask,
    family_label,
    generated,
)

TABLE = pathlib.Path(o2.TABLE)
GRID, N = o2.GRID, o2.N


def build_mode1_table():
    """The text of ``o2_mode1.json``: every datum the ring reads about the
    mode-1 classes, computed from the subgroups ``_graph_representatives()``
    meets, in class order.

    Per class: its elements, order, Weyl order |W(K)| = |(G/K)^K|, symbol
    key, label, fixed dimensions at irreps 0-9 (one string of
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
        ci = o2._class_among(reps, A)
        if ci is None:
            raise ConsistencyError("an image phi_b(K) of a mode-1 class is a new class")
        return ci

    marks = [{H: n for H, B in enumerate(reps) if (n := fixed_cosets(B, A))} for A in reps]
    images = [[find(mode_image(A, b)) for b in range(period)] for A in reps]
    dims = [
        [[exact_fixed_dim(A, j, m) for m in range(1, period + 1)]
         for j in range(len(gc.CHARACTER_TABLE))]
        for A in reps
    ]
    if any(d > 9 for rows in dims for row in rows for d in row):
        raise ConsistencyError("a fixed dimension of more than one digit")
    maximal = {}
    for j in o2.REFERENCE_EXPANSIONS:
        fixing = {ci for ci, rows in enumerate(dims) if rows[j][0] >= 1}
        maximal[j] = [
            L for L in sorted(fixing) if not any(t != L and t in fixing for t in marks[L])
        ]
    labels = mode1_labels(keys)
    doc = {
        "elements": [sorted(A.elements) for A in reps],
        "fixed_dim": [["".join(map(str, row)) for row in rows] for rows in dims],
        "halves": [[M, images[M][2]] for M, key in enumerate(keys) if key[3] == 2],
        "image": images,
        "label": labels,
        "marks": [sorted(row.items()) for row in marks],
        "maximal": maximal,
        "mode_period": period,
        "order": [len(A) for A in reps],
        "symbol_key": keys,
        "weyl": [marks[ci][ci] for ci in range(len(reps))],
    }
    return dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# graph-subgroup enumeration: the complete mode-1 orbit-type family
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
        step = GRID // o2._element_order(o2.encode(0, 0, g))
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
        normalizer = [n for n in range(N) if conj_mask(K, n) == K]
        # each coset g K of the normalizer, named by its least element
        coset = {g: min(gc.MUL[g][x] for x in els) for g in normalizer}
        # spatial element g has code g, so these are spatial generators
        spatial_gens = o2.ConcreteSubgroup(els).generators
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
                    chi[gc.MUL[gc.MUL[t][x]][INV[t]]] != (-chi[x]) % GRID
                    for x in els
                ):
                    continue
                for n in normalizer:
                    turned = tuple(chi[o2._CONJ[n][y]] for y in els)
                    met.add((turned, coset[gc.MUL[gc.MUL[n][t]][INV[n]]]))
                if chi[gc.MUL[t][t]]:
                    gens = [o2.encode(0, chi[x], x) for x in spatial_gens]
                    A = generated(gens + [o2.encode(1, 0, t)])
                    if any(A.is_conjugate(B) for B in half_turn):
                        continue
                    half_turn.append(A)
                else:
                    A = o2.ConcreteSubgroup(
                        [o2.encode(0, chi[x], x) for x in els]
                        + [o2.encode(1, -chi[x], gc.MUL[t][x]) for x in els]
                    )
                yield A


# ---------------------------------------------------------------------------
# marks: fixed-coset counts by the conjugator search
# ---------------------------------------------------------------------------


@functools.cache
def _search_aids(H):
    """What a conjugator search into the subgroup H reads: its reflection
    angles by spatial part, its element count per profile key, one spatial
    part per left coset g pi(H) of its spatial projection pi(H), and
    |H| / |pi(H)|."""
    projection = spatial_projection(H)
    reps, covered = [], set()
    for g in range(N):
        if g not in covered:
            reps.append(g)
            covered.update(gc.MUL[g][p] for p in projection)
    return (
        o2._refl_by_spatial(H.elements),
        dict(H.profile[1]),
        tuple(reps),
        len(H) // len(projection),
    )


def profile_fits(H, A):
    """Whether every profile key counts no more elements in the subgroup
    A than in the subgroup H.

    A necessary condition for A to be subconjugate to H, since conjugation
    keeps the reflection bit, the order and the spatial class of an element.
    """
    have = _search_aids(H)[1]
    return all(have.get(k, 0) >= n for k, n in A.profile[1])


def fixed_cosets(H, A):
    """|(G/H)^A| for a subgroup H and a reflection-containing subgroup A:
    |{c : c^-1 A c in H}| / |H|.

    The conjugators form whole left cosets cH, and right multiplication
    by h in H moves a conjugator's spatial part g_c to g_c pi(h) while
    keeping the count per spatial part.  So one g_c per left coset
    g pi(H) is searched, and the count over those is divided (checked)
    by |H| / |pi(H)| instead of |H|.
    """
    if len(H) % len(A) or not profile_fits(H, A):
        return 0
    refl_index, _, spatial, kernel = _search_aids(H)
    gens = [o2.decode(x) for x in A.generators]
    n = sum(1 for _ in o2._conjugators(gens, H.elements, refl_index, spatial))
    val, r = divmod(n, kernel)
    if r:
        raise ConsistencyError(
            f"conjugator count {n} over one spatial part per coset of pi(H)"
            f" not divisible by |H|/|pi(H)| = {kernel}"
        )
    return val


def mode_image(subgroup, b):
    """Image of a subgroup under the b-fold temporal map z -> z^b: every
    temporal angle times b."""
    return o2.ConcreteSubgroup(
        o2.encode(e, b * k, g) for e, k, g in map(o2.decode, subgroup.elements)
    )


# ---------------------------------------------------------------------------
# fixed dimensions
# ---------------------------------------------------------------------------


@functools.cache
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
        for e, k, g in map(o2.decode, A.elements)
        if not e
    )
    dim = sum(_rotation_weight(q) * n * chi[c] for (q, c), n in turns.items()) / len(A)
    if dim.denominator != 1:
        raise ConsistencyError(f"non-integral fixed dimension {dim}")
    return int(dim)


# ---------------------------------------------------------------------------
# symbol keys and labels
# ---------------------------------------------------------------------------


def spatial_projection(A):
    return sorted({o2.decode(x)[2] for x in A.elements})


def spatial_kernel(A):
    return sorted({o2.decode(x)[2] for x in A.elements if o2.decode(x)[:2] == (0, 0)})


def temporal_projection(A):
    rots = {o2.decode(x)[1] for x in A.elements if o2.decode(x)[0] == 0}
    return ("D" if A.has_reflection() else "Z", len(rots))


def temporal_kernel(A):
    over_id = [x for x in A.elements if o2.decode(x)[2] == gc.IDENTITY]
    rots = {o2.decode(x)[1] for x in over_id if o2.decode(x)[0] == 0}
    refl = any(o2.decode(x)[0] == 1 for x in over_id)
    return ("D" if refl else "Z", len(rots))


def _spatial_label(ids):
    cat = gc.catalog()
    mask = 0
    for g in ids:
        mask |= 1 << g
    return cat.classes[class_of_mask(cat)[mask]].label


def symbol_key(A):
    """What an amalgam symbol names: (temporal kind, temporal order, kernel
    kind, kernel order, spatial label, spatial-kernel label)."""
    return (
        *temporal_projection(A),
        *temporal_kernel(A),
        _spatial_label(spatial_projection(A)),
        _spatial_label(spatial_kernel(A)),
    )


def mode1_labels(keys):
    """The label of each mode-1 class, from the symbol keys in class order.

    A class's label is its reference spelling if it has one (each red
    reference family's key must be held by exactly one class), else its
    amalgam symbol, plus `` #k`` where the symbol is shared and k, its
    ordinal, counts the classes sharing it in class order.
    """
    symbols = [amalgam_symbol(key) for key in keys]
    same = defaultdict(list)
    for ci, symbol in enumerate(symbols):
        same[symbol].append(ci)
    labels = list(symbols)
    for group in same.values():
        if len(group) > 1:
            for k, ci in enumerate(group, 1):
                labels[ci] = f"{symbols[ci]} #{k}"
    families = o2._reference_hits(
        o2._red_families(*o2.REFERENCE_EXPANSIONS), list(enumerate(keys))
    )
    for ci, fam in families.items():
        labels[ci] = family_label(fam)
    return labels


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    text = build_mode1_table().encode()
    if "--check" in argv:
        if not TABLE.exists() or TABLE.read_bytes() != text:
            print(f"{TABLE} is stale; run {__file__} to regenerate it", file=sys.stderr)
            return 1
        return 0
    TABLE.write_bytes(text)
    print(f"wrote {TABLE} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
