"""Burnside ring arithmetic over a catalog of orbit types.

The product of two generators is computed with the standard recurrence

    n_L = [ fix_L(G/H) * fix_L(G/K) - sum_{(Lt) > (L)} fix_L(G/Lt) * n_Lt ]
          / |W(L)|,

processed in decreasing subgroup order; every division must be exact, a
fractional quotient aborts with a consistency error.  ``fix_L(G/H)`` is the
number of cosets fixed pointwise by L, equal to n(L,H) |W(H)|.  Products,
basic degrees and coefficients read back from marks all run this one
recurrence (``BurnsideRing.recurrence``), each with its own pool and
leading term.

A subclass provides the catalog: ``weyl``, ``order_of``, ``fixed_cosets``,
``candidate_subtypes``, ``label_of``, ``finite_weyl`` and ``unit_label``;
the orbit-type ring of ``orbit_o2`` is the package's one.  Whatever a ring
keeps goes through one mechanism, ``cached``: a per-instance table keyed by
method name and arguments.
"""

import functools
from collections import defaultdict

from ._serialize import dumps
from .errors import ConsistencyError


def cached(method):
    """Make a method a lookup in ``self.memo[method name]``, by arguments.

    ``self`` is any object with a ``memo`` (a ring, an invariant engine), and a
    module function whose first argument is such an object is kept the same
    way.  Each value is computed once per key per object, and a new object
    starts with no tables.  Arguments are positional, so one key names one
    value; a call that raises stores nothing.
    """
    name = method.__name__

    @functools.wraps(method)
    def lookup(self, *args):
        table = self.memo[name]
        try:
            return table[args]
        except KeyError:
            pass  # compute outside the handler: its errors must not chain to a KeyError
        value = table[args] = method(self, *args)
        return value

    return lookup


class BurnsideElement:
    """Finitely supported integer combination of orbit types, plus a unit part."""

    __slots__ = ("ring", "unit", "coeffs")

    def __init__(self, ring, unit=0, coeffs=None):
        self.ring = ring
        self.unit = int(unit)
        self.coeffs = {k: int(v) for k, v in (coeffs or {}).items() if v}

    def __eq__(self, other):
        return (
            isinstance(other, BurnsideElement)
            and self.ring is other.ring
            and self.unit == other.unit
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.ring), self.unit, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return BurnsideElement(self.ring, self.unit + other.unit, out)

    def __neg__(self):
        return BurnsideElement(self.ring, -self.unit, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for k, v in self.coeffs.items():
            out[k] = out.get(k, 0) + v * other.unit
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v * self.unit
        for h, ch in self.coeffs.items():
            for k, ck in other.coeffs.items():
                for l, q in self.ring.multiply_generators(h, k).items():
                    out[l] = out.get(l, 0) + ch * ck * q
        return BurnsideElement(self.ring, self.unit * other.unit, out)

    def _check(self, other):
        if not isinstance(other, BurnsideElement) or other.ring is not self.ring:
            raise ConsistencyError("elements belong to different ambient rings")

    def to_json(self):
        doc = {f"({self.ring.label_of(k)})": v for k, v in self.coeffs.items()}
        if self.unit:
            doc[f"({self.ring.unit_label})"] = self.unit
        return dumps(doc)

    def __repr__(self):
        terms = []
        if self.unit:
            terms.append(f"{self.unit:+d}({self.ring.unit_label})")
        for k in self.ring.sorted_support(self.coeffs):
            terms.append(f"{self.coeffs[k]:+d}({self.ring.label_of(k)})")
        return " ".join(terms) if terms else "0"


class BurnsideRing:
    """Shared recurrence machinery over the catalog a subclass provides."""

    def __init__(self):
        self.memo = defaultdict(dict)  # method name -> {arguments: value}

    def element(self, unit=0, coeffs=None):
        return BurnsideElement(self, unit, coeffs)

    def unit(self):
        return BurnsideElement(self, 1, {})

    def sorted_support(self, coeffs):
        return sorted(coeffs, key=lambda k: (-self.order_of(k), self.label_of(k)))

    def recurrence(self, pool, lead):
        """Coefficients n_L over the classes of `pool`, largest first:

            n_L = (lead(L) - sum_{Lt found earlier} fix_L(G/Lt) n_Lt) / |W(L)|.

        Every division is checked exact; zero coefficients are dropped.
        """
        out = {}
        for L in sorted(pool, key=lambda L: -self.order_of(L)):
            s = lead(L) - sum(self.fixed_cosets(L, Lt) * n for Lt, n in out.items())
            q, r = divmod(s, self.weyl(L))
            if r:
                raise ConsistencyError(
                    f"recurrence non-integral at {self.label_of(L)}: {s}/{self.weyl(L)}"
                )
            if q:
                out[L] = q
        return out

    def maximal(self, keys):
        """The keys no other key of `keys` lies above, in input order.

        Largest first, a key is kept when no key kept so far lies above it.
        That suffices: two distinct classes of one order are never
        comparable, and whatever lies above a key lies below a maximal key of
        larger order, which subconjugacy's transitivity carries down to it.
        """
        kept = []
        for L in sorted(keys, key=lambda L: -self.order_of(L)):
            if not any(self.fixed_cosets(L, M) > 0 for M in kept):
                kept.append(L)
        return [L for L in keys if L in kept]

    def multiply_generators(self, H, K):
        """(H) * (K); the product commutes, so both orders share one entry."""
        return self._product(min(H, K), max(H, K))

    @cached
    def _product(self, H, K):
        return self.recurrence(
            [L for L in self.candidate_subtypes(H) if self.fixed_cosets(L, K) > 0],
            lambda L: self.fixed_cosets(L, H) * self.fixed_cosets(L, K),
        )

    def pi0_truncate(self, element):
        """Drop every orbit type with positive-dimensional Weyl group."""
        keep = {k: v for k, v in element.coeffs.items() if self.finite_weyl(k)}
        return BurnsideElement(self, element.unit, keep)
