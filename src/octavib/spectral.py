"""Equilibrium Hessian spectrum and its isotypic decomposition.

The isotypic components of R^18 do not depend on σ.  ``Q`` is one exact
basis of them, the symmetry coordinates of an octahedral AX6, in which
Q^T H Q of an equivariant H is its Schur form: ``schur_spectrum`` reads the
seven labeled lines from its eight numbers, with no eigensolver.  At an
equilibrium they are in closed form from the five stiffness constants: the
reported spectrum of its constants (``spectrum_at_equilibrium``), and the
Cartesian one of the constants that ``force_field.cartesian_constants``
substitutes (``cartesian_spectrum_at_equilibrium``), each taking the lower
line of 7 from the bond term where the difference of the pair's roots
cancels.
``numeric_spectrum`` projects any equivariant matrix, and is, with
``assign_eigenspaces`` (labels from restricted characters), an oracle.
"""

import math
from typing import NamedTuple

import numpy as np

from . import force_field, group_core
from ._serialize import dumps
from .accel import u2_prime
from .errors import ConfigError, LabelingError, NumericalError, ShapeError


class NonPositiveFrequencyError(NumericalError):
    """A reported alpha^2 other than the zero line "6" is not positive."""


class SpectrumLine(NamedTuple):
    """One eigenvalue alpha^2 of the Hessian, its block label and multiplicity."""

    label: str  # irrep index "0".."9"; "7*" is the upper copy of irrep 7
    alpha_sq: float
    multiplicity: int


class SpectrumReport(NamedTuple):
    """The labeled lines by alpha^2, with their orthonormal columns."""

    lines: tuple
    basis: np.ndarray

    @property
    def alpha_sq(self):
        return {ln.label: ln.alpha_sq for ln in self.lines}

    def alphas(self):
        """Frequencies sqrt(alpha^2) of the lines but "6"; alpha^2 <= 0 is refused."""
        return {ln.label: _frequency(ln) for ln in self.lines if ln.label != "6"}

    def alpha(self, label):
        """The positive frequency of one block, refused like ``alphas``; a
        label that is not one of the lines' is refused too."""
        for ln in self.lines:
            if ln.label == label:
                return _frequency(ln)
        raise ConfigError(self._missing(label))

    def basis_for(self, label):
        """The orthonormal columns of one line; a label that is not one of
        the lines' is refused."""
        k = 0
        for ln in self.lines:
            if ln.label == label:
                return self.basis[:, k : k + ln.multiplicity]
            k += ln.multiplicity
        raise ConfigError(self._missing(label))

    def _missing(self, label):
        """The refusal's text for a label that is none of the lines'."""
        labels = ", ".join(sorted(ln.label for ln in self.lines))
        return f"the spectrum has no line {label!r}; its lines are {labels}"

    def to_json(self):
        return dumps({
            "eigenvalues": [
                {"j": ln.label, "alpha_sq": ln.alpha_sq, "multiplicity": ln.multiplicity}
                for ln in self.lines
            ],
            "basis": self.basis.T,
        })


def _frequency(line):
    if line.alpha_sq <= 0:
        raise NonPositiveFrequencyError(
            f"block {line.label} has alpha^2 = {line.alpha_sq!r} <= 0"
        )
    return math.sqrt(line.alpha_sq)


# the character table; v^T G v is a column v's share of a class's character
_CHARACTERS = np.array(group_core.CHARACTER_TABLE, dtype=float)


def _coordinates(*fields):
    """Unit columns, one per field: the ligand at unit vertex p moves by f(p)."""
    U = np.array(fields, dtype=float).reshape(len(fields), 18).T + 0.0  # no -0.0
    return U / np.sqrt((U * U).sum(axis=0))


# the symmetry coordinates of an octahedral AX6 (Wilson, Decius & Cross,
# Molecular Vibrations, 1955): BASES holds each irreducible's first copy, that
# of 7 its radial part, whose tangential part carries the same 3x3 matrices
_p, _e = group_core.VERTICES, np.eye(3)  # a unit vertex per row
_pa = _p.T[:, :, None]  # _pa[a] is the column of the vertices' p_a
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
BASES = {
    "0": _coordinates(_p),
    "4": _coordinates((3 * _pa[0] ** 2 - 1) * _p, (_pa[1] ** 2 - _pa[2] ** 2) * _p),
    "6": _coordinates(*(np.cross(_e[a], _p) for a in range(3))),
    "7": _coordinates(*(_pa[a] * _p for a in range(3))),
    "8": _coordinates(*(_pa[c] * _e[b] + _pa[b] * _e[c] for a, b, c in _CYCLIC)),
    "9": _coordinates(*((_pa[b] ** 2 - _pa[c] ** 2) * _e[a] for a, b, c in _CYCLIC)),
}
_TANGENTIAL_7 = _coordinates(*(_e[a] - _pa[a] * _p for a in range(3)))
Q = np.hstack([BASES[j] for j in "0467"] + [_TANGENTIAL_7, BASES["8"], BASES["9"]])

# Q^T H Q of an equivariant H is eight numbers times these patterns (rows of
# 18 * 18): alpha^2 times the identity on each one-copy block, and
# [[p, q], [q, r]] (x) I_3 on the radial (p) and tangential (r) copies of 7
_BLOCK = np.repeat(list("046pr89"), [1, 2, 3, 3, 3, 3, 3])  # each column's block
_cross = np.diag(_BLOCK[:15] == "p", 3)
_PATTERNS = np.array([*(np.diag(_BLOCK == b) for b in "04689p"), _cross + _cross.T,
                      np.diag(_BLOCK == "r")], dtype=float).reshape(8, 18 * 18)
_DUAL = _PATTERNS / _PATTERNS.sum(axis=1, keepdims=True)  # reads the eight
EQUIVARIANCE_RTOL = 1e-9


def numeric_spectrum(hessian):
    """The seven labeled lines of an equivariant 18x18 matrix, by alpha^2.

    One product reads the eight numbers of Q^T H Q's Schur form, which
    ``schur_spectrum`` splits.  A matrix that is not symmetric, or whose
    Q^T H Q differs from its Schur form, beyond ``EQUIVARIANCE_RTOL`` *
    max|H| is a ``ShapeError``.
    """
    H = np.asarray(hessian, dtype=float)
    if H.shape != (18, 18):
        raise ShapeError(f"expected an 18x18 matrix, got {H.shape}")
    tol = EQUIVARIANCE_RTOL * np.max(np.abs(H), initial=0.0)
    if np.max(np.abs(H - H.T)) > tol:
        raise ShapeError("matrix is not symmetric")
    M = (Q.T @ H @ Q).ravel()
    schur = _DUAL @ M
    if np.max(np.abs(M - schur @ _PATTERNS)) > tol:
        raise ShapeError("matrix does not commute with the octahedral action")
    return schur_spectrum(*schur.tolist())


def schur_spectrum(a0, a4, a6, a8, a9, p, q, r):
    """The seven labeled lines of the Schur form with these eight numbers:
    the alpha^2 of blocks 0, 4, 6, 8 and 9, and [[p, q], [q, r]] on the
    radial and tangential copies of 7.

    "7" and "7*" are (p + r)/2 -+ hypot((p - r)/2, q), their columns the
    radial and tangential copies turned by t = atan2(2q, p - r)/2.
    """
    return _schur_spectrum(a0, a4, a6, a8, a9, p, q, r, None)


def _schur_spectrum(a0, a4, a6, a8, a9, p, q, r, det):
    """``schur_spectrum``, given det = pr - q^2 computed without
    cancellation or None.  Where mid - half cancels, below mid/4, and
    mid + half is positive, the lower line of 7 is det / (mid + half), the
    standard choice of a quadratic's smaller root (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, §1.8)."""
    mid, half = (p + r) / 2, math.hypot((p - r) / 2, q)
    lower, upper = mid - half, mid + half
    if det is not None and lower < mid / 4 and upper > 0:
        lower = det / upper
    t = math.atan2(2 * q, p - r) / 2
    c, s, rad, tan = math.cos(t), math.sin(t), BASES["7"], _TANGENTIAL_7
    out = [("0", a0, BASES["0"]), ("4", a4, BASES["4"]), ("6", a6, BASES["6"]),
           ("7", lower, c * tan - s * rad), ("7*", upper, c * rad + s * tan),
           ("8", a8, BASES["8"]), ("9", a9, BASES["9"])]
    out.sort(key=lambda line: line[1])  # stable: a tie keeps the order 0 4 6 7 7* 8 9
    lines = tuple(SpectrumLine(j, a, B.shape[1]) for j, a, B in out)
    return SpectrumReport(lines, np.hstack([B for _, _, B in out]))


def assign_eigenspaces(report):
    """Label every line of a report with its irreducible component.

    A line's restricted character on the ten classes is the sum of its
    orthonormal columns' shares v^T G v; it must equal one row of the
    character table to within 1e-6.
    """
    V = report.basis
    G = group_core.actions_18()[list(group_core.CLASS_REPS)]
    shares = ((G @ V) * V).sum(axis=1)  # (class, column)
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
        labeled.append(ln._replace(label=label))
    return SpectrumReport(lines=tuple(labeled), basis=report.basis)


_SQRT8 = math.sqrt(8)


def _stiffness_spectrum(constants, s):
    """Labeled spectrum of the block matrix of the stiffness constants, given
    s = 4 ia + 2 ib computed without cancellation.

    The block matrix is linear in its coefficients (qa, qb, qc, ia, ib), so
    its eight Schur numbers are a constant map of them, read here with no
    matrix; ``numeric_spectrum`` of ``force_field.blocks_from_stiffness`` is
    the oracle.  pr - q^2 of the pair of 7 is expanded as
    2 qc (qa + ia) - s (6 qa + 6 ia + qc) + s^2 for its lower line.
    """
    qa, qb, qc, ia, ib = force_field.block_coefficients(*constants)
    det = 2 * qc * (qa + ia) - s * (6 * qa + 6 * ia + qc) + s * s
    return _schur_spectrum(
        8 * qa + 8 * qb + qc, 2 * qa + 8 * qb + qc, 0.0, 4 * qa, 2 * qa + 2 * ia - 2 * ib,
        4 * qa + qc - 2 * ib, -_SQRT8 * (qa + ia), 2 * qa - 2 * ia - 2 * ib, det,
    )


# At an equilibrium 4 ia + 2 ib, the pair terms of the criticality condition,
# is minus its bond term: a rigid translation of the ligands changes no pair
# distance.  So s is -u2'(r0^2) in the reported map and -2 u2'(r0^2) in the
# Cartesian one, with no cancellation.  A radius off the criticality
# condition is the ``ShapeError`` of ``force_field.equilibrium_stiffness``.

def spectrum_at_equilibrium(eq):
    """The reported spectrum at an equilibrium, ``numeric_spectrum`` of
    ``hessian_blocks`` in closed form."""
    constants = force_field.equilibrium_stiffness(eq.params, eq.radius)
    return _stiffness_spectrum(constants, -u2_prime(eq.radius * eq.radius))


def cartesian_spectrum_at_equilibrium(eq):
    """The Cartesian spectrum at an equilibrium: the reported spectrum of the
    constants ``force_field.cartesian_constants`` substitutes."""
    constants = force_field.equilibrium_stiffness(eq.params, eq.radius)
    return _stiffness_spectrum(
        force_field.cartesian_constants(*constants, eq.radius),
        -2 * u2_prime(eq.radius * eq.radius),
    )
