"""Critical numbers, nonresonance, bifurcation invariants, and the census.

The invariant at the first critical number of isotypic block j is

    omega(j) = [ prod over (j',l') crossing earlier of deg_{j',l'} ]
               * ( deg_{j,1} - unit ),

a signed combination of orbit types; its maximal types with nonzero
coefficient name the symmetries of the bifurcating branches.  The global
sign follows the reference invariant listings (the difference of degrees
taken above-minus-below).

Two evaluation paths are provided and compared: the full product in the
orbit-type ring, and the marks path, one recurrence per maximal type over
the mode-1 classes above it, led by omega's marks (exact for that
coefficient, and much cheaper; it builds no higher-mode class).
"""

import math
from dataclasses import dataclass, field

from . import orbit_o2 as o2
from .errors import CatalogError, ConfigError, ConsistencyError, ResonanceError

ISOTYPIC = ("0", "4", "7", "7*", "8", "9")


@dataclass(frozen=True)
class CriticalNumber:
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


def critical_set(alphas, lambda_max):
    """All critical numbers up to lambda_max, ascending; ties left adjacent.

    `alphas` maps isotypic labels to positive frequencies alpha_j.
    """
    if not math.isfinite(lambda_max):
        raise ConfigError(f"lambda_max must be finite, got {lambda_max}")
    _check_frequencies(alphas)
    out = []
    for j, a in alphas.items():
        l = 1
        while l / a <= lambda_max:
            out.append(CriticalNumber(j, l, l / a))
            l += 1
    out.sort(key=lambda c: (c.value, c.j, c.l))
    return out


def ordering_ties(criticals, rel_tol=1e-9):
    """Groups of consecutive critical numbers equal within tolerance."""
    ties = []
    k = 0
    while k < len(criticals):
        m = k + 1
        while (
            m < len(criticals)
            and criticals[m].value - criticals[k].value
            <= rel_tol * criticals[k].value
        ):
            m += 1
        if m - k > 1:
            ties.append(tuple(criticals[k:m]))
        k = m
    return ties


def check_isotypic_nonresonance(report, tol=1e-9):
    """True when the six nonzero eigenvalues are distinct and uniquely labeled."""
    lines = [ln for ln in report.lines if ln.label != "6" and ln.alpha_sq > tol]
    labels = [ln.label for ln in lines]
    if len(set(labels)) != len(labels):
        dup = next(lb for lb in labels if labels.count(lb) > 1)
        return False, (dup, dup)
    scale = max(ln.alpha_sq for ln in lines)
    for i, a in enumerate(lines):
        for b in lines[i + 1 :]:
            if abs(a.alpha_sq - b.alpha_sq) <= tol * scale:
                return False, (a.label, b.label)
    return True, None


def factors_before(j_o, alphas):
    """(j, l) pairs with critical number strictly below lambda_{j_o,1}."""
    lam_o = 1.0 / alphas[j_o]
    out = []
    for j, a in alphas.items():
        l = 1
        while l / a < lam_o * (1 + 1e-9):
            v = l / a
            if (j, l) != (j_o, 1) and abs(v - lam_o) <= 1e-9 * lam_o:
                raise ResonanceError(
                    f"critical numbers lambda_({j},{l}) and lambda_({j_o},1) coincide"
                )
            if v < lam_o:
                out.append((j, l, v))
            l += 1
    out.sort(key=lambda t: t[2])
    return [(j, l) for j, l, _ in out]


def _degree_index(j):
    """7* shares the block-7 expansion (the two components are equivalent)."""
    return 7 if j == "7*" else int(j)


@dataclass
class BifurcationReport:
    j: str
    target: CriticalNumber
    factors: tuple
    invariant: object  # BurnsideElement over the orbit-type ring (full path)
    maximal_types: tuple  # ((label, coefficient, weyl_order), ...)
    fast_coefficients: dict  # label -> coefficient from the marks path
    reference_labels: tuple = field(default=())

    def agreement(self):
        full = {lb: c for lb, c, _ in self.maximal_types}
        return full == self.fast_coefficients


class InvariantEngine:
    """Invariants at the critical ordering set by the frequencies.

    Only the frequencies belong to the engine; orbit types, maximal types,
    basic degrees and upper sets are ring data, computed once per process.
    """

    def __init__(self, alphas):
        self.alphas = dict(alphas)
        missing = set(ISOTYPIC) - set(self.alphas)
        if missing:
            raise ConsistencyError(f"missing frequencies for {sorted(missing)}")
        _check_frequencies(self.alphas)
        self.ring = o2.ring()

    # --- ring data -------------------------------------------------------
    def degree(self, j, l=1):
        return o2.basic_degree(_degree_index(j), l)

    def maximal_classes(self, j, l=1):
        return o2.maximal_orbit_types(_degree_index(j), l)

    # --- full product path ----------------------------------------------
    def invariant_full(self, j_o):
        factors = factors_before(j_o, self.alphas)
        for j, l in factors:
            if o2.GRID % l:
                raise CatalogError(
                    f"block {j_o}: factor ({j}, {l}) needs Fourier mode {l}, "
                    f"off the 1/{o2.GRID} grid",
                    missing=(j, l),
                )
        unit = self.ring.unit()
        prod = unit
        for j, l in factors:
            prod = prod * self.degree(j, l)
        omega = prod * (self.degree(j_o, 1) - unit)
        return omega

    def maximal_terms(self, element):
        R = self.ring
        return tuple(
            (R.label_of(ci), element.coeffs[ci], R.weyl(ci))
            for ci in R.sorted_support(R.maximal(element.coeffs))
        )

    # --- fast path: one recurrence over the marks -----------------------
    def fast_coefficient(self, j_o, h_ci):
        """Exact coefficient of (H) in the invariant, from its marks above H.

        The mark of deg_{j,l} at K is (-1)^dim V_{j,l}^K and marks are
        multiplicative, so one recurrence over the classes above H, led by
        the marks of omega, gives the coefficient of H.  Only the mode-1
        classes enter: every class at a mode d >= 2 contains a temporal
        rotation that fixes no vector of V_{j_o,1}, so omega's mark there is
        0, and these classes, closed upward, all get coefficient 0.
        """
        R = self.ring
        factors = [(_degree_index(j), l) for j, l in factors_before(j_o, self.alphas)]
        idx = _degree_index(j_o)

        def mark(K):
            sign = (-1) ** sum(R.fixed_dim(j, l, K) for j, l in factors)
            return sign * ((-1) ** R.fixed_dim(idx, 1, K) - 1)

        return R.recurrence(R.upper_set(h_ci), mark).get(h_ci, 0)

    # --- reports ----------------------------------------------------------
    def report(self, j_o, full=True):
        target = CriticalNumber(j_o, 1, 1.0 / self.alphas[j_o])
        factors = tuple(factors_before(j_o, self.alphas))
        R = self.ring
        maximal = self.maximal_classes(j_o, 1)
        fast = {R.label_of(ci): self.fast_coefficient(j_o, ci) for ci in maximal}
        invariant = R.pi0_truncate(self.invariant_full(j_o)) if full else None
        if full:
            maximal_terms = self.maximal_terms(invariant)
        else:
            maximal_terms = tuple(
                (R.label_of(ci), fast[R.label_of(ci)], R.weyl(ci)) for ci in maximal
            )
        return BifurcationReport(
            j=j_o,
            target=target,
            factors=factors,
            invariant=invariant,
            maximal_types=maximal_terms,
            fast_coefficients=fast,
            reference_labels=o2.reference_red_labels(_degree_index(j_o), 1),
        )

    def census(self):
        """The deduplicated maximal symmetry types over all isotypic blocks.

        j=7 and j=7* share one block; every type is reported with the list
        of blocks it belongs to and its (fast-path) coefficient per block.
        """
        R = self.ring
        seen = {}
        order = []
        for j in ("0", "4", "7", "8", "9"):
            for ci in self.maximal_classes(j, 1):
                coeff = self.fast_coefficient(j, ci)
                if coeff == 0:
                    raise ConsistencyError(
                        f"census type {R.label_of(ci)} has zero coefficient"
                    )
                if ci not in seen:
                    seen[ci] = []
                    order.append(ci)
                blocks = ["7", "7*"] if j == "7" else [j]
                for b in blocks:
                    seen[ci].append((b, coeff))
        return [
            {
                "label": R.label_of(ci),
                "order": R.order_of(ci),
                "weyl_order": R.weyl(ci),
                "blocks": [b for b, _ in seen[ci]],
                "coefficient": seen[ci][0][1],
            }
            for ci in order
        ]


def engine_from_spectrum(report):
    """Build the invariant engine from a labeled spectrum report."""
    alphas = report.alphas()
    flag, witness = check_isotypic_nonresonance(report)
    if not flag:
        raise ResonanceError(f"isotypic resonance between blocks {witness}")
    return InvariantEngine(alphas)


def reference_alphas():
    """Frequencies at the reference force-field parameters."""
    from . import force_field, spectral

    eq = force_field.find_equilibrium(force_field.REFERENCE_PARAMS)
    rep = spectral.spectrum_at_equilibrium(eq)
    return rep.alphas()
