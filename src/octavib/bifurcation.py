"""Critical numbers, nonresonance, bifurcation invariants, and the census.

The invariant at the first critical number of isotypic block j is

    omega(j) = [ prod over (j',l') crossing earlier of deg_{j',l'} ]
               * ( deg_{j,1} - unit ),

a signed combination of orbit types; its maximal types with nonzero
coefficient name the symmetries of the bifurcating branches.  The global
sign follows the reference invariant listings (the difference of degrees
taken above-minus-below).

Two evaluation paths are provided and compared: the full product in the
orbit-type ring, and a truncation of every factor to the upper set of one
maximal type at a time (exact for that coefficient, and much cheaper).
"""

import contextlib
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


def critical_set(alphas, lambda_max):
    """All critical numbers up to lambda_max, ascending; ties left adjacent.

    `alphas` maps isotypic labels to positive frequencies alpha_j.
    """
    if not math.isfinite(lambda_max):
        raise ConfigError(f"lambda_max must be finite, got {lambda_max}")
    out = []
    for j, a in alphas.items():
        if a <= 0:
            raise ResonanceError(f"alpha must be positive, got {a} for {j}")
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
    fast_coefficients: dict  # label -> coefficient from the truncated path
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
        self.ring = o2.ring()

    # --- ring data -------------------------------------------------------
    def degree(self, j, l=1):
        return o2.basic_degree(_degree_index(j), l)

    def maximal_classes(self, j, l=1):
        return o2.maximal_orbit_types(_degree_index(j), l)

    # --- full product path ----------------------------------------------
    def invariant_full(self, j_o):
        unit = self.ring.unit()
        prod = unit
        for j, l in factors_before(j_o, self.alphas):
            prod = prod * self.degree(j, l)
        omega = prod * (self.degree(j_o, 1) - unit)
        return omega

    def maximal_terms(self, element):
        R = self.ring
        return tuple(
            (R.label_of(ci), element.coeffs[ci], R.weyl(ci))
            for ci in R.sorted_support(R.maximal(element.coeffs))
        )

    # --- fast path: upper-set truncation ---------------------------------
    def _truncated_factor(self, j, l, upper):
        """Coefficients of deg_{j,l} on the classes of `upper` (exact)."""
        R = self.ring
        idx = _degree_index(j)
        return (1, R.recurrence(upper, lambda K: (-1) ** R.fixed_dim(idx, l, K) - 1))

    def _truncated_mult(self, x, y, upper, cache):
        ux, dx = x
        uy, dy = y
        out = {}
        for k, v in dx.items():
            out[k] = out.get(k, 0) + uy * v
        for k, v in dy.items():
            out[k] = out.get(k, 0) + ux * v
        R = self.ring
        for hk, hv in dx.items():
            for kk, kv in dy.items():
                key = (hk, kk) if hk <= kk else (kk, hk)
                if key not in cache:
                    cache[key] = R.recurrence(
                        [
                            L
                            for L in upper
                            if R.fixed_cosets(L, hk) > 0 and R.fixed_cosets(L, kk) > 0
                        ],
                        lambda L: R.fixed_cosets(L, hk) * R.fixed_cosets(L, kk),
                    )
                for L, q in cache[key].items():
                    out[L] = out.get(L, 0) + hv * kv * q
        return (ux * uy, {k: v for k, v in out.items() if v})

    def fast_coefficient(self, j_o, h_ci):
        """Exact coefficient of (H) in the invariant via upper-set truncation."""
        factors = factors_before(j_o, self.alphas)
        upper = self.ring.upper_set(frozenset(l for _, l in factors) | {1}, h_ci)
        cache = {}
        prod = (1, {})
        for j, l in factors:
            prod = self._truncated_mult(
                prod, self._truncated_factor(j, l, upper), upper, cache
            )
        dj = self._truncated_factor(j_o, 1, upper)
        omega = self._truncated_mult(prod, (dj[0] - 1, dj[1]), upper, cache)
        return omega[1].get(h_ci, 0)

    # --- reports ----------------------------------------------------------
    def report(self, j_o, full=True):
        ok = all(self.alphas[j] > 0 for j in ISOTYPIC)
        if not ok:
            raise ResonanceError("invalid frequencies")
        target = CriticalNumber(j_o, 1, 1.0 / self.alphas[j_o])
        factors = tuple(factors_before(j_o, self.alphas))
        R = self.ring
        with _naming_off_grid(j_o, factors):
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
            with _naming_off_grid(j, factors_before(j, self.alphas)):
                coeffs = [
                    (ci, self.fast_coefficient(j, ci))
                    for ci in self.maximal_classes(j, 1)
                ]
            for ci, coeff in coeffs:
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


@contextlib.contextmanager
def _naming_off_grid(j_o, factors):
    """Restate mode_cover's off-grid refusal to name the block and the factor.

    mode_cover knows only the Fourier mode; the first factor (j, l) of
    block j_o whose l it divides is the one that needs it.
    """
    try:
        yield
    except CatalogError as exc:
        mode = exc.missing
        culprit = [f for f in factors if isinstance(mode, int) and f[1] % mode == 0]
        if not culprit:
            raise
        j, l = culprit[0]
        raise CatalogError(
            f"block {j_o}: factor ({j}, {l}) needs Fourier mode {mode}, "
            f"off the 1/{o2.GRID} grid",
            missing=(j, l),
        ) from exc


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
