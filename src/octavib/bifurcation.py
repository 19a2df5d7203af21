"""The per-σ request, critical numbers, nonresonance, bifurcation invariants,
and the census.

A ``Request`` carries what depends on σ: the equilibrium, the two spectra,
the checked frequencies and the invariant engine.

The invariant at the first critical number of isotypic block j is

    omega(j) = [ prod over (j',l') crossing earlier of deg_{j',l'} ]
               * ( deg_{j,1} - unit ),

a signed combination of orbit types; its maximal types with nonzero
coefficient name the symmetries of the bifurcating branches.  The global
sign follows the reference invariant listings (the difference of degrees
taken above-minus-below).

omega is read from its marks, products of (-1)^dim V_{j,l}^K: one recurrence
over the mode-1 classes (a class at a mode d >= 2 has mark 0) and, compared
with it, each maximal type's coefficient in closed form, its mark over its
Weyl order.  The pairwise product of basic degrees (``invariant_full``) is
the tests' oracle only.
"""

import math
from collections import defaultdict
from functools import cached_property, partial
from typing import NamedTuple

from . import force_field, spectral
from . import orbit_o2 as o2
from .burnside import cached
from .errors import ConfigError, ConsistencyError, ResonanceError

# each isotypic block's irreducible: 7* is the upper copy of irreducible 7
# and shares its expansion (the two components are equivalent)
IRREP = {"0": 0, "4": 4, "7": 7, "7*": 7, "8": 8, "9": 9}
ISOTYPIC = tuple(IRREP)
MAXIMAL_IRREPS = tuple(dict.fromkeys(IRREP.values()))  # the irreps with maximal types
RESONANCE_RTOL = 1e-6  # alpha^2 this close, relative to max |alpha^2|, resonate
MAX_CRITICAL = 2**18  # the most critical numbers one request lists (~60 MB)
TIE_RTOL = 1e-9  # critical numbers this close, relative to the lower, tie


class CriticalNumber(NamedTuple):
    """A critical number l / alpha_j of block j at Fourier mode l."""

    j: str
    l: int
    value: float


def _check_frequencies(alphas):
    """Refuse a frequency that is not positive and finite, naming its block.

    Critical numbers l / alpha are counted up in l: for alpha = inf that
    never stops, for nan it skips the block, and alpha = 0 divides by zero.
    """
    for j, a in alphas.items():
        if not (math.isfinite(a) and a > 0):
            raise ResonanceError(
                f"alpha must be positive and finite, got {a!r} for block {j}"
            )


def critical_count(alphas, lambda_max):
    """How many critical numbers lie up to lambda_max: the sum over blocks
    of floor(lambda_max alpha_j), a float once a product passes 2^53, where
    every float is integral."""
    count = 0
    for a in alphas.values():
        x = lambda_max * a
        if x >= 1:
            count += x if x >= 2**53 else math.floor(x)
    return count


def check_lambda_max(lambda_max):
    """Refuse a bound on the critical numbers that is not finite, whatever σ."""
    if not math.isfinite(lambda_max):
        raise ConfigError(f"lambda_max must be finite, got {lambda_max}")


def critical_set(alphas, lambda_max):
    """All critical numbers up to lambda_max, ascending; ties left adjacent.

    `alphas` maps isotypic labels to positive frequencies alpha_j.  More
    than ``MAX_CRITICAL`` of them is refused before any is listed, as a
    ``ConfigError`` naming the count: the bound is on what the caller asks
    for, whatever σ gives the frequencies.
    """
    check_lambda_max(lambda_max)
    _check_frequencies(alphas)
    count = critical_count(alphas, lambda_max)
    if count > MAX_CRITICAL:
        raise ConfigError(
            f"lambda_max={lambda_max} gives {count} critical numbers, "
            f"more than the bound of {MAX_CRITICAL}"
        )
    out = []
    for j, a in alphas.items():
        l = 1
        while l / a <= lambda_max:
            out.append(CriticalNumber(j, l, l / a))
            l += 1
    out.sort(key=lambda c: (c.value, c.j, c.l))
    return out


def ordering_ties(criticals):
    """Groups of consecutive critical numbers equal within ``TIE_RTOL``."""
    ties = []
    k = 0
    while k < len(criticals):
        m = k + 1
        while (
            m < len(criticals)
            and criticals[m].value - criticals[k].value
            <= TIE_RTOL * criticals[k].value
        ):
            m += 1
        if m - k > 1:
            ties.append(tuple(criticals[k:m]))
        k = m
    return ties


def resonant_groups(report):
    """Blocks whose alpha^2, block 6's included, chain through neighbours that
    close, lowest first; label order makes residues of either sign alike."""
    lines = sorted(report.lines, key=lambda ln: ln.alpha_sq)
    tol = RESONANCE_RTOL * max(abs(ln.alpha_sq) for ln in lines)
    groups = [[lines[0].label]]
    for a, b in zip(lines, lines[1:]):
        if b.alpha_sq - a.alpha_sq > tol:
            groups.append([])
        groups[-1].append(b.label)
    return [tuple(sorted(g)) for g in groups if len(g) > 1]


def _resonance_error(group):
    names = ", ".join(group[:-1]) + " and " + group[-1]
    return ResonanceError(f"resonance between isotypic blocks {names}")


def factors_before(j_o, alphas):
    """(j, l) pairs with critical number strictly below lambda_{j_o,1},
    ascending, as ``critical_set`` lists them; one that ties with it is
    refused as a coincidence."""
    lam_o = 1.0 / alphas[j_o]
    out = []
    for c in critical_set(alphas, lam_o * (1 + TIE_RTOL)):
        if (c.j, c.l) != (j_o, 1) and abs(c.value - lam_o) <= TIE_RTOL * lam_o:
            raise ResonanceError(
                f"critical numbers lambda_({c.j},{c.l}) and lambda_({j_o},1) coincide"
            )
        if c.value < lam_o:
            out.append((c.j, c.l))
    return out


class BifurcationReport(NamedTuple):
    """The invariant at one critical number and its maximal types' coefficients."""

    j: str
    invariant: object  # BurnsideElement over the mode-1 classes (full report)
    maximal_types: tuple  # ((label, coefficient, weyl_order), ...)
    fast_coefficients: dict  # label -> coefficient in closed form

    def agreement(self):
        full = {lb: c for lb, c, _ in self.maximal_types}
        return full == self.fast_coefficients


class InvariantEngine:
    """Invariants at the critical ordering set by the frequencies.

    Only the frequencies belong to the engine, and what it reads of them is
    each block's odd groups of factors; orbit types, maximal types, marks,
    Weyl orders and basic degrees are ring data, read from the mode-1 table
    or computed once per process, none of them keyed by σ.
    """

    def __init__(self, alphas):
        self.alphas = dict(alphas)
        missing = set(ISOTYPIC) - set(self.alphas)
        if missing:
            raise ConsistencyError(f"missing frequencies for {sorted(missing)}")
        _check_frequencies(self.alphas)
        self.ring = o2.ring()
        self.memo = defaultdict(dict)  # method name -> {arguments: value}

    # --- ring data -------------------------------------------------------
    def degree(self, j, l=1):
        return o2.basic_degree(IRREP[j], l)

    def maximal_classes(self, j, l=1):
        return o2.maximal_orbit_types(IRREP[j], l)

    # --- the pairwise product: the tests' oracle ------------------------
    def invariant_full(self, j_o):
        """omega as the product of basic degrees across Fourier modes."""
        unit = self.ring.unit()
        prod = unit
        for j, l in factors_before(j_o, self.alphas):
            prod = prod * self.degree(j, l)
        return prod * (self.degree(j_o, 1) - unit)

    def maximal_terms(self, element):
        R = self.ring
        return tuple(
            (R.label_of(ci), element.coeffs[ci], R.weyl(ci))
            for ci in R.sorted_support(R.maximal(element.coeffs))
        )

    # --- the marks recurrence -------------------------------------------
    @cached
    def _odd_groups(self, j_o):
        """The (degree index, (l - 1) mod period + 1) groups of j_o's factors
        that hold an odd number of them, once per engine and block.

        Only a group's parity enters omega's marks, so the marks cost the
        same for any number of factors, and this set is all of σ a fast
        coefficient reads.
        """
        period = self.ring.mode_period()
        odd = set()
        for j, l in factors_before(j_o, self.alphas):
            odd ^= {(IRREP[j], (l - 1) % period + 1)}
        return frozenset(odd)

    def _mark(self, j_o):
        """omega's mark at a mode-1 class K, as a function of K."""
        return partial(self.ring.invariant_mark, IRREP[j_o], self._odd_groups(j_o))

    def fast_coefficient(self, j_o, h_ci):
        """Exact coefficient of a maximal type (H) in the invariant, in closed
        form: omega's mark at H over |W(H)|, the division checked.

        This is the recurrence formula's leading term for a maximal orbit
        type (Balanov, Krawcewicz and Steinlein, *Applied Equivariant
        Degree*, 2006).  dim V_{j_o,1}^K is even at every class K above H,
        so omega's marks there are 0, and so are their coefficients.
        """
        R = self.ring
        mark = R.invariant_mark(IRREP[j_o], self._odd_groups(j_o), h_ci)
        q, r = divmod(mark, R.weyl(h_ci))
        if r:
            raise ConsistencyError(
                f"mark {mark} at {R.label_of(h_ci)} is not a multiple of |W| = {R.weyl(h_ci)}"
            )
        return q

    # --- reports ----------------------------------------------------------
    def report(self, j_o, full=True):
        R = self.ring
        maximal = self.maximal_classes(j_o, 1)
        fast = {R.label_of(ci): self.fast_coefficient(j_o, ci) for ci in maximal}
        if full:
            # every mode-1 class is finite-Weyl; the unit coefficient is 1 * (1 - 1)
            invariant = R.element(0, R.recurrence(R.graph_classes(1), self._mark(j_o)))
            maximal_terms = self.maximal_terms(invariant)
        else:
            invariant = None
            maximal_terms = tuple(
                (R.label_of(ci), fast[R.label_of(ci)], R.weyl(ci)) for ci in maximal
            )
        return BifurcationReport(
            j=j_o,
            invariant=invariant,
            maximal_types=maximal_terms,
            fast_coefficients=fast,
        )

    def census(self):
        """The deduplicated maximal symmetry types over all isotypic blocks.

        Each type is reported once, in the order the blocks of ``ISOTYPIC``
        first list it, with the blocks it belongs to and, one per block,
        that block's coefficient in closed form (``fast_coefficient``): a
        type shared by blocks 7, 7* and 9 may carry a different sign in
        each.
        """
        R = self.ring
        rows = {}
        for b in ISOTYPIC:
            for ci in self.maximal_classes(b, 1):
                rows.setdefault(ci, []).append((b, self.fast_coefficient(b, ci)))
        return [
            {
                "label": R.label_of(ci),
                "order": R.order_of(ci),
                "weyl_order": R.weyl(ci),
                "blocks": [b for b, _ in entries],
                "coefficients": [c for _, c in entries],
            }
            for ci, entries in rows.items()
        ]


def checked_frequencies(report):
    """Frequencies of a spectrum, refused for a resonance, then for alpha^2 <= 0."""
    groups = resonant_groups(report)
    if groups:
        raise _resonance_error(groups[0])
    return report.alphas()


def checked_frequency(report, j):
    """Block j's frequency, refused like ``checked_frequencies`` for j alone."""
    for group in resonant_groups(report):
        if j in group:
            raise _resonance_error(group)
    return report.alpha(j)


def engine_from_spectrum(report):
    """Build the invariant engine from a labeled spectrum report."""
    return InvariantEngine(checked_frequencies(report))


class Request:
    """Everything that depends on σ, each piece computed on first use and once.

    The equilibrium's stiffness constants give the reported spectrum, whose
    checked frequencies order the critical numbers and build the invariant
    engine; the same constants substituted (``force_field.cartesian_constants``)
    give the Cartesian spectrum the modes are built from.
    """

    def __init__(self, params):
        self.params = params

    @property
    def sigma(self):
        """σ as a refusal names it."""
        return ", ".join(
            f"{name}={float(getattr(self.params, name))!r}"
            for name in ("sigma1", "sigma2", "sigma3")
        )

    @cached_property
    def equilibrium(self):
        return force_field.find_equilibrium(self.params)

    @cached_property
    def spectrum(self):
        return spectral.spectrum_at_equilibrium(self.equilibrium)

    @cached_property
    def cartesian_spectrum(self):
        eq = self.equilibrium
        constants = force_field.equilibrium_stiffness(eq.params, eq.radius)
        return spectral.stiffness_spectrum(
            *force_field.cartesian_constants(*constants, eq.radius)
        )

    @cached_property
    def frequencies(self):
        return checked_frequencies(self.spectrum)

    @cached_property
    def engine(self):
        return InvariantEngine(self.frequencies)
