"""Force field for the six-ligand octahedral molecule.

The pair interaction u1 and the bond term u2 (``accel``) are functions of
*squared* distance: u1 is a 12-6 Lennard-Jones plus Coulomb repulsion in
plain distance and u2 a harmonic bond stretch against the central atom at
the origin.  The ligands sit on ``group_core.VERTICES`` scaled by a radius.

Two Hessian conventions coexist (see ``hessian_blocks``):

* ``"cartesian"``  - the true second derivative of the potential; it matches
  finite differences and drives the mode dynamics.
* ``"reported"``   - the closed-form block matrix whose eigenvalues are the
  reference alpha^2 table; its quadratic terms are built on the unit
  octahedron template.  The two spectra coincide under the coefficient
  substitution (a,b,c) -> 2 r0^2 (a,b,c), (d,e) -> 2 (d,e).
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from . import accel, group_core
from .accel import u1, u1_prime, u1_second, u2, u2_prime, u2_second
from .errors import CollisionError, ConfigError, SearchFailureError, ShapeError

OCTAHEDRON = group_core.VERTICES  # the unit template
OPPOSITE = group_core.ANTIPODE
ADJACENT = tuple(
    tuple(k for k in range(6) if k != j and k != OPPOSITE[j]) for j in range(6)
)

_COLLISION_TOL = 1e-12
# the 21 collision tests of one configuration in checking order: (j,) for
# ligand j at the origin, (j, k) for a pair; _CHECK_COLUMNS places each among
# the 6 origin distances followed by the 15 pair distances in accel's order
_CHECKS = tuple(
    check for j in range(6) for check in [(j,)] + [(j, k) for k in range(j + 1, 6)]
)
_PAIRS = list(zip(accel.PAIR_J.tolist(), accel.PAIR_K.tolist()))
_CHECK_COLUMNS = np.array([c[0] if len(c) == 1 else 6 + _PAIRS.index(c) for c in _CHECKS])


class _Sigmas(NamedTuple):
    sigma1: float
    sigma2: float
    sigma3: float


class PotentialParams(_Sigmas):
    """Dimensionless force-field constants."""

    __slots__ = ()

    def __new__(cls, sigma1, sigma2, sigma3):
        for name, value in zip(cls._fields, (sigma1, sigma2, sigma3)):
            if value < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if sigma1 == 0 and sigma2 != 0:
            raise ConfigError(
                "sigma1=0 with sigma2>0 removes the short-range barrier; "
                "set sigma1>0 or sigma1=sigma2=0"
            )
        return super().__new__(cls, sigma1, sigma2, sigma3)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds its copy here: refuse it as a construction
        return cls(*iterable)


REFERENCE_PARAMS = PotentialParams(0.0618, 0.0618, 1.0)


def load_params(path):
    """Read a ``key=value`` parameter file (sigma1=, sigma2=, sigma3=)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read {path}: not UTF-8 text") from None
    values = {}
    first_line = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in ("sigma1", "sigma2", "sigma3"):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"{path}:{lineno}: repeated key {key!r}, first set on line {first_line[key]}"
            )
        first_line[key] = lineno
        try:
            values[key] = float(val)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad number {val.strip()!r}") from None
        if not math.isfinite(values[key]):
            raise ConfigError(
                f"{path}:{lineno}: {key} must be finite, got {val.strip()!r}"
            )
    missing = {"sigma1", "sigma2", "sigma3"} - set(values)
    if missing:
        raise ConfigError(f"{path}: missing {', '.join(sorted(missing))}")
    return PotentialParams(values["sigma1"], values["sigma2"], values["sigma3"])


def as_configuration(positions):
    """Validate and return a (6,3) float array of ligand positions."""
    return check_configurations(_one(positions))[0][0]


def _one(positions):
    """One configuration, (6,3) or (18,), as a (1,6,3) stack."""
    pos = np.asarray(positions, dtype=float)
    if pos.shape not in ((6, 3), (18,)):
        raise ShapeError(f"configuration must be (6,3) or (18,), got {pos.shape}")
    return pos.reshape(1, 6, 3)


def check_configurations(stack):
    """Validate an (n,6,3) or (n,18) stack of configurations; return it as
    an (n,6,3) float array with its ``accel.pairs``.

    Raises the ``CollisionError`` that checking the samples one by one would
    raise first: samples in order, ligands j ascending, the origin test of j
    before its pairs (j, k > j).  The ordered table of the tests is built
    only when some squared distance is below the tolerance.
    """
    pos = np.asarray(stack, dtype=float)
    if pos.ndim == 2 and pos.shape[1] == 18:
        pos = pos.reshape(len(pos), 6, 3)
    if pos.ndim != 3 or pos.shape[1:] != (6, 3):
        raise ShapeError(f"configurations must be (n,6,3) or (n,18), got {pos.shape}")
    origin = np.einsum("njc,njc->nj", pos, pos)
    pair = accel.pairs(pos)
    # NaN compares false below, so these minima skip it too
    least = (np.fmin.reduce(x, axis=None, initial=np.inf) for x in (origin, pair[1]))
    if min(least) < _COLLISION_TOL:
        close = np.concatenate([origin, pair[1]], axis=1)[:, _CHECK_COLUMNS] < _COLLISION_TOL
        if close.any():
            first = int(np.argmax(close.ravel())) % len(_CHECKS)
            raise CollisionError(*_CHECKS[first])
    return pos, pair


def potential(params, config):
    pos = as_configuration(config)
    return float(accel.potential(pos, params.sigma1, params.sigma2, params.sigma3))


def gradients(params, samples):
    """Gradient of the potential at each configuration of a stack, as (n,18)."""
    pos, pair = check_configurations(samples)
    g = accel.gradient(pos, params.sigma1, params.sigma2, params.sigma3, pair)
    return g.reshape(len(pos), 18)


def gradient(params, config):
    """Gradient of the potential as an 18-vector."""
    return gradients(params, _one(config))[0]


# radial restriction phi(r) = U(r * template) -------------------------------

def phi(params, r):
    s1, s2, s3 = params.sigma1, params.sigma2, params.sigma3
    return 12 * u1(2 * r * r, s1, s2, s3) + 3 * u1(4 * r * r, s1, s2, s3) + 6 * u2(r * r)


def phi_prime(params, r):
    return 12 * r * ct_residual(params, r)


def phi_second(params, r):
    s1, s2, s3 = params.sigma1, params.sigma2, params.sigma3
    return 12 * ct_residual(params, r) + 24 * r * r * (
        8 * u1_second(2 * r * r, s1, s2, s3)
        + 8 * u1_second(4 * r * r, s1, s2, s3)
        + u2_second(r * r)
    )


def _ct_terms(params, r):
    """The three summands of the radial criticality condition at radius r."""
    s1, s2, s3 = params.sigma1, params.sigma2, params.sigma3
    return (
        4 * u1_prime(2 * r * r, s1, s2, s3),
        2 * u1_prime(4 * r * r, s1, s2, s3),
        u2_prime(r * r),
    )


def ct_residual(params, r):
    """Residual of the radial criticality condition at radius r."""
    adjacent, opposite, bond = _ct_terms(params, r)
    return adjacent + opposite + bond


class Equilibrium(NamedTuple):
    """A radial equilibrium: the regular octahedron of this radius under params."""

    radius: float
    params: PotentialParams

    @property
    def configuration(self):
        return self.radius * OCTAHEDRON


# the radii the equilibrium search brackets phi' on, 200 points spaced evenly
# in log r
SEARCH_LO, SEARCH_HI = 1e-3, 1e3


@functools.cache
def search_grid():
    """The 200 radii of the equilibrium search, built on first use; read-only."""
    grid = np.geomspace(SEARCH_LO, SEARCH_HI, 200)
    grid.flags.writeable = False
    return grid


def find_equilibrium(params):
    """Locate the radial minimizer of phi by bisection plus one Newton polish.

    phi' is evaluated as one array on the grid; the bisection and the polish
    run on Python floats, whose ``**`` calls the same libm ``pow`` as a
    float64 scalar's, so the radius has the bits of the all-numpy search.
    """
    if params.sigma1 == params.sigma2 == params.sigma3 == 0:
        return Equilibrium(1.0, params)  # pure bond stretching

    # the first grid step where phi' turns from negative to nonnegative
    # (phi' overflows at the grid's ends for extreme σ; inf and nan compare
    # as the scalar values would, so only the warnings are dropped)
    grid = search_grid()
    with np.errstate(all="ignore"):
        vals = phi_prime(params, grid)
    steps = np.flatnonzero((vals[:-1] < 0) & (vals[1:] >= 0))
    if not steps.size:
        raise SearchFailureError(
            f"no sign change of phi' in ({SEARCH_LO:g}, {SEARCH_HI:g})"
        )
    # every power of r within the grid is a normal float, so no ``**`` or
    # division on Python floats below raises
    a, b = grid[steps[0] : steps[0] + 2].tolist()
    for _ in range(100):
        mid = 0.5 * (a + b)
        if phi_prime(params, mid) < 0:
            a = mid
        else:
            b = mid
        if b - a < 1e-12 * mid:
            break
    r0 = 0.5 * (a + b)
    # one Newton step on phi' sharpens the root to machine precision
    fp = phi_prime(params, r0)
    fpp = phi_second(params, r0)
    if fpp > 0:
        r0 -= fp / fpp
    return Equilibrium(float(r0), params)


# stiffness coefficients and block Hessians ---------------------------------

def stiffness(params, r0):
    """The five radial stiffness constants (a, b, c, d, e) at radius r0."""
    s1, s2, s3 = params.sigma1, params.sigma2, params.sigma3
    return (
        u1_second(2 * r0 * r0, s1, s2, s3),
        u1_second(4 * r0 * r0, s1, s2, s3),
        u2_second(r0 * r0),
        u1_prime(4 * r0 * r0, s1, s2, s3),
        u1_prime(2 * r0 * r0, s1, s2, s3),
    )


# the unit-template outer products the block matrix is built from: m_jk is
# (p_j - p_k)(p_j - p_k)^T, taken over ADJACENT[j] in order and then over the
# opposite vertex
_EYE = np.eye(3)
_VERTEX = np.arange(6)
_OPP = np.array(OPPOSITE)
_ADJ_J = np.repeat(_VERTEX, 4).reshape(6, 4)
_ADJ_K = np.array(ADJACENT)
_DIFF_ADJ = OCTAHEDRON[_ADJ_J] - OCTAHEDRON[_ADJ_K]
_M_ADJ = _DIFF_ADJ[..., :, None] * _DIFF_ADJ[..., None, :]  # (6, 4, 3, 3)
_DIFF_OPP = OCTAHEDRON - OCTAHEDRON[_OPP]
_M_OPP = _DIFF_OPP[:, :, None] * _DIFF_OPP[:, None, :]  # (6, 3, 3)
_M_SELF = OCTAHEDRON[:, :, None] * OCTAHEDRON[:, None, :]  # p_j p_j^T


def block_coefficients(a, b, c, d, e, convention="reported", r0=None):
    """The five coefficients (qa, qb, qc, ia, ib) of the block matrix of the
    stiffness constants (a, b, c, d, e) in a convention (see
    ``blocks_from_stiffness``)."""
    if convention == "reported":
        return 2 * a, 2 * b, 2 * c, e, d
    if convention == "cartesian":
        if r0 is None:
            raise ConfigError("cartesian convention needs the equilibrium radius")
        s = 2 * r0 * r0
        return 2 * s * a, 2 * s * b, 2 * s * c, 2 * e, 2 * d
    raise ConfigError(f"unknown convention {convention!r}")


def blocks_from_stiffness(a, b, c, d, e, convention="reported", r0=None):
    """Assemble an 18x18 block matrix from the five stiffness constants.

    Adjacent blocks are -qa*m - ia*I, opposite blocks -qb*m - ib*I with m
    the unit-template outer products, and the diagonal balances them: it
    starts at qc*p_j p_j^T - ib*I and adds qa*m over ADJACENT[j] in order,
    then qb*m of the opposite vertex.
    """
    qa, qb, qc, ia, ib = block_coefficients(a, b, c, d, e, convention, r0)
    diag = qc * _M_SELF - ib * _EYE
    for n in range(4):
        diag += qa * _M_ADJ[:, n]
    diag += qb * _M_OPP
    H = np.zeros((6, 6, 3, 3))
    H[_ADJ_J, _ADJ_K] = -qa * _M_ADJ - ia * _EYE
    H[_VERTEX, _OPP] = -qb * _M_OPP - ib * _EYE
    H[_VERTEX, _VERTEX] = diag
    return H.transpose(0, 2, 1, 3).reshape(18, 18)


def equilibrium_stiffness(params, r0):
    """The stiffness constants at r0, which must satisfy the criticality
    condition to within what rounding its three summands, or r0 itself, can
    leave (r0 * dct/dr is phi''/12 less the residual); else a ``ShapeError``.
    """
    adjacent, opposite, bond = _ct_terms(params, r0)
    scale = abs(adjacent) + abs(opposite) + abs(bond) + abs(phi_second(params, r0)) / 12
    if abs(adjacent + opposite + bond) > 1e-9 * scale:
        raise ShapeError(
            "block Hessian is only valid at the octahedral equilibrium radius"
        )
    return stiffness(params, r0)


def hessian_blocks(params, r0, convention="reported"):
    """Assemble the equilibrium Hessian from its 3x3 closed-form blocks.

    ``convention="reported"`` reproduces the reference block matrix (the
    alpha^2 spectrum); ``"cartesian"`` produces the true second derivative
    at r0 * template.  r0 is checked by ``equilibrium_stiffness``.
    """
    a, b, c, d, e = equilibrium_stiffness(params, r0)
    return blocks_from_stiffness(a, b, c, d, e, convention=convention, r0=r0)
