"""Equilibrium Hessian spectrum and its isotypic decomposition.

The isotypic components of R^18 do not depend on σ.  ``Q``, built once from
the projectors P_j = (dim chi_j / |G|) sum_g chi_j(g) g, is a basis of them,
and ``numeric_spectrum`` reads each labeled line from its block of Q^T H Q.
``closed_form_spectrum`` (alpha^2 from the five stiffness constants) and
``assign_eigenspaces`` (labels from restricted characters) are oracles.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import force_field, group_core
from ._serialize import dumps
from .errors import InvalidCharacterError, LabelingError, NumericalError, ShapeError

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
    label: str  # irrep index "0".."9"; "7*" is the upper copy of irrep 7
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
        """Frequencies sqrt(alpha^2) of the lines but "6"; alpha^2 <= 0 is refused."""
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


# the 18-dim action and the character table; v^T G v is the share of a column v
_CLASS_ACTIONS = group_core.ACTIONS_18[list(group_core.CLASS_REPS)]
_CHARACTERS = np.array(group_core.CHARACTER_TABLE, dtype=float)


def _component(j, copies):
    """(label, copies, columns) of one component: the range of its projector."""
    chi = _CHARACTERS[j, list(group_core.ELEMENT_CLASS)]
    P = chi[0] / group_core.N * np.tensordot(chi, group_core.ACTIONS_18, axes=1)
    V = np.linalg.eigh(P)[1]  # eigenvalues 0, then 1 on the range
    return group_core.IRREP_NAMES[j], copies, V[:, 18 - copies * int(chi[0]) :]


_COPIES = isotypic_multiplicities(group_core.action_character())
COMPONENTS = tuple(_component(j, m) for j, m in enumerate(_COPIES) if m)
Q = np.hstack([B for _, _, B in COMPONENTS])
# the entries of Q^T H Q an equivariant H may hold: those whose row and
# column lie in one component, the whole 6x6 of the two copies of 7 included
_OWNER = np.repeat(np.arange(len(COMPONENTS)), [B.shape[1] for _, _, B in COMPONENTS])
_IN_BLOCK = _OWNER[:, None] == _OWNER[None, :]
EQUIVARIANCE_RTOL = 1e-9


def numeric_spectrum(hessian):
    """The seven labeled lines of an equivariant 18x18 matrix, by alpha^2.

    H is alpha^2 times the identity on a component with one copy of its
    irreducible (Schur), read as the mean of its block of Q^T H Q; a 6x6
    ``eigh`` splits the two copies of 7 into "7" below and "7*" above.  A
    matrix that is not symmetric, or whose Q^T H Q has an entry outside
    those blocks, beyond ``EQUIVARIANCE_RTOL`` * max|H| is a ``ShapeError``.
    """
    H = np.asarray(hessian, dtype=float)
    if H.shape != (18, 18):
        raise ShapeError(f"expected an 18x18 matrix, got {H.shape}")
    tol = EQUIVARIANCE_RTOL * np.max(np.abs(H), initial=0.0)
    if np.max(np.abs(H - H.T)) > tol:
        raise ShapeError("matrix is not symmetric")
    if np.max(np.abs(Q.T @ H @ Q)[~_IN_BLOCK]) > tol:
        raise ShapeError("matrix does not commute with the octahedral action")
    out = []
    for label, copies, B in COMPONENTS:
        R = B.T @ H @ B
        if copies == 1:
            out.append((SpectrumLine(label, float(np.trace(R)) / len(R), len(R)), B))
            continue
        w, V = np.linalg.eigh(R)
        for name, k in ((label, slice(0, 3)), (label + "*", slice(3, 6))):
            out.append((SpectrumLine(name, float(np.mean(w[k])), 3), B @ V[:, k]))
    out.sort(key=lambda pair: pair[0].alpha_sq)
    return SpectrumReport(tuple(ln for ln, _ in out), np.hstack([c for _, c in out]))


def assign_eigenspaces(report):
    """Label every line of a report with its irreducible component.

    A line's restricted character on the ten classes is the sum of its
    orthonormal columns' shares v^T G v; it must equal one row of the
    character table to within 1e-6.
    """
    if report.basis is None:
        raise ShapeError("need an eigenbasis to assign labels")
    V = report.basis
    shares = ((_CLASS_ACTIONS @ V) * V).sum(axis=1)  # (class, column)
    starts = np.cumsum([0] + [ln.multiplicity for ln in report.lines[:-1]])
    chars = np.add.reduceat(shares, starts, axis=1).T  # (line, class)
    matches = (np.abs(chars[:, None, :] - _CHARACTERS) < 1e-6).all(axis=2)
    labeled, seen_7 = [], False
    for ln, chi, match in zip(report.lines, chars.tolist(), matches):
        if not match.any():
            raise LabelingError(
                f"eigenspace at {ln.alpha_sq:.6g} matches no irreducible character: {chi}"
            )
        label = group_core.IRREP_NAMES[int(np.argmax(match))]
        if label == "7":  # two equivalent components: the lower keeps "7"
            label, seen_7 = ("7*" if seen_7 else "7"), True
        labeled.append(replace(ln, label=label))
    return SpectrumReport(lines=tuple(labeled), basis=report.basis)


def spectrum_at_equilibrium(eq, convention="reported"):
    """Labeled numeric spectrum of the block Hessian at an equilibrium."""
    H = force_field.hessian_blocks(eq.params, eq.radius, convention=convention)
    return numeric_spectrum(H)
