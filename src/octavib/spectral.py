"""Equilibrium Hessian spectrum and its isotypic decomposition.

``closed_form_spectrum`` evaluates the reference alpha^2 table from the five
stiffness constants; ``numeric_spectrum`` diagonalizes an assembled matrix
and groups eigenvalue clusters; ``assign_eigenspaces`` labels each cluster
with its irreducible component by matching restricted characters against the
character table, and refuses a cluster that holds several blocks.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import force_field, group_core
from ._serialize import dumps
from .errors import (
    InvalidCharacterError,
    LabelingError,
    NumericalError,
    ResonanceError,
    ShapeError,
)

MULTIPLICITIES = {"0": 1, "4": 2, "6": 3, "7": 3, "7*": 3, "8": 3, "9": 3}


class NonPositiveFrequencyError(NumericalError):
    """A reported alpha^2 other than the zero line "6" is not positive."""


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


@dataclass(frozen=True)
class SpectrumLine:
    label: str  # irrep index "0".."9", or "?" before labeling
    alpha_sq: float
    multiplicity: int


@dataclass(frozen=True)
class SpectrumReport:
    lines: tuple
    basis: np.ndarray | None = field(default=None, repr=False)

    @property
    def alpha_sq(self):
        return {ln.label: ln.alpha_sq for ln in self.lines}

    def alphas(self):
        """Positive frequencies alpha_j = sqrt(alpha^2_j) of the lines but "6".

        Critical numbers and invariants read their frequencies here, so a
        line with alpha^2 <= 0 is refused rather than dropped.
        """
        return {ln.label: _frequency(ln) for ln in self.lines if ln.label != "6"}

    def alpha(self, label):
        """The positive frequency of one block, refused like ``alphas``."""
        for ln in self.lines:
            if ln.label == label:
                return _frequency(ln)
        raise KeyError(label)

    def basis_for(self, label):
        if self.basis is None:
            raise ShapeError("spectrum report carries no eigenbasis")
        k = 0
        for ln in self.lines:
            if ln.label == label:
                return self.basis[:, k : k + ln.multiplicity]
            k += ln.multiplicity
        raise KeyError(label)

    def to_json(self):
        doc = {
            "eigenvalues": [
                {"j": ln.label, "alpha_sq": ln.alpha_sq, "multiplicity": ln.multiplicity}
                for ln in self.lines
            ]
        }
        if self.basis is not None:
            doc["basis"] = self.basis.T
        return dumps(doc)


def _frequency(line):
    if line.alpha_sq <= 0:
        raise NonPositiveFrequencyError(
            f"block {line.label} has alpha^2 = {line.alpha_sq!r} <= 0"
        )
    return float(np.sqrt(line.alpha_sq))


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


def numeric_spectrum(hessian, gap=1e-6):
    """Eigen-decomposition with relative-gap clustering of multiplicities."""
    H = np.asarray(hessian, dtype=float)
    if H.shape != (18, 18):
        raise ShapeError(f"expected an 18x18 matrix, got {H.shape}")
    if np.max(np.abs(H - H.T)) > 1e-9:
        raise ShapeError("matrix is not symmetric")
    w, V = np.linalg.eigh(0.5 * (H + H.T))
    scale = max(np.max(np.abs(w)), 1.0)
    lines = []
    cols = []
    k = 0
    while k < 18:
        m = k + 1
        while m < 18 and w[m] - w[m - 1] <= gap * scale:
            m += 1
        val = float(np.mean(w[k:m]))
        if abs(val) <= gap * scale:
            val = 0.0
        lines.append(SpectrumLine("?", val, m - k))
        cols.append(V[:, k:m])
        k = m
    return SpectrumReport(lines=tuple(lines), basis=np.hstack(cols))


def isotypic_multiplicities(character):
    """Decompose a class function over the ten irreducibles."""
    chi = tuple(character)
    if len(chi) != 10:
        raise InvalidCharacterError("need values on the ten conjugacy classes")
    sizes = group_core.CLASS_SIZES
    order = sum(sizes)
    out = []
    for row in group_core.CHARACTER_TABLE:
        s = sum(sz * cv * rv for sz, cv, rv in zip(sizes, chi, row))
        m = s / order
        if abs(m - round(m)) > 1e-9 or round(m) < 0:
            raise InvalidCharacterError(f"inner product {m} is not a natural number")
        out.append(int(round(m)))
    return tuple(out)


# the 18-dim action of the ten class representatives, and the character
# table, as arrays: v^T G v is the character share of a unit column v
_CLASS_ACTIONS = np.stack([group_core.action_matrix_18(g) for g in group_core.CLASS_REPS])
_CHARACTERS = np.array(group_core.CHARACTER_TABLE, dtype=float)


def assign_eigenspaces(report):
    """Label every eigenvalue cluster with its irreducible component.

    A cluster's restricted character on the ten classes is the sum of its
    orthonormal columns' shares v^T G v; it must equal one row of the
    character table to within 1e-6.
    """
    if report.basis is None:
        raise ShapeError("need an eigenbasis to assign labels")
    V = report.basis
    shares = ((_CLASS_ACTIONS @ V) * V).sum(axis=1)  # (class, column)
    starts = np.cumsum([0] + [ln.multiplicity for ln in report.lines[:-1]])
    chars = np.add.reduceat(shares, starts, axis=1).T  # (cluster, class)
    matches = (np.abs(chars[:, None, :] - _CHARACTERS) < 1e-6).all(axis=2)
    labeled = []
    seen_7 = 0
    for ln, chi, match in zip(report.lines, chars.tolist(), matches):
        if not match.any():
            try:
                counts = isotypic_multiplicities(chi)
            except InvalidCharacterError:
                raise LabelingError(
                    f"eigenspace at {ln.alpha_sq:.6g} matches no irreducible character: {chi}"
                ) from None
            # a sum of irreducibles: several blocks share one alpha^2
            names = group_core.IRREP_NAMES
            merged = ", ".join(
                names[j] if m == 1 else f"{m} x {names[j]}" for j, m in enumerate(counts) if m
            )
            raise ResonanceError(
                f"blocks {merged} share one eigenspace at alpha^2 = {ln.alpha_sq:.6g}"
            )
        label = group_core.IRREP_NAMES[int(np.argmax(match))]
        if label == "7":
            # the two equivalent 3-dim components: lower eigenvalue keeps "7"
            label = "7" if seen_7 == 0 else "7*"
            seen_7 += 1
        labeled.append(replace(ln, label=label))
    return SpectrumReport(lines=tuple(labeled), basis=report.basis)


def spectrum_at_equilibrium(eq, convention="reported"):
    """Labeled numeric spectrum of the block Hessian at an equilibrium."""
    H = force_field.hessian_blocks(eq.params, eq.radius, convention=convention)
    return assign_eigenspaces(numeric_spectrum(H))
