"""Force field for the six-ligand octahedral molecule.

The pair interaction and the bond term are functions of *squared* distance,

    u1(r) = s1/r^6 - s2/r^3 + s3/sqrt(r),      u2(r) = (sqrt(r) - 1)^2,

so u1 is a 12-6 Lennard-Jones plus Coulomb repulsion in plain distance and
u2 a harmonic bond stretch against the central atom at the origin.

Two Hessian conventions coexist (see ``hessian_blocks``):

* ``"cartesian"``  - the true second derivative of the potential; it matches
  finite differences and drives the mode dynamics.
* ``"reported"``   - the closed-form block matrix whose eigenvalues are the
  reference alpha^2 table; its quadratic terms are built on the unit
  octahedron template.  The two spectra coincide under the coefficient
  substitution (a,b,c) -> 2 r0^2 (a,b,c), (d,e) -> 2 (d,e).
"""

from dataclasses import dataclass

import numpy as np

from . import accel
from .errors import CollisionError, ConfigError, SearchFailureError, ShapeError

# unit octahedron template: p1=-p3=e_x, p2=-p4=e_y, p5=-p6=e_z
OCTAHEDRON = np.array(
    [[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0]]
)
OPPOSITE = (2, 3, 0, 1, 5, 4)  # index of the antipodal vertex
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


@dataclass(frozen=True)
class PotentialParams:
    """Dimensionless force-field constants."""

    sigma1: float
    sigma2: float
    sigma3: float

    def __post_init__(self):
        for name in ("sigma1", "sigma2", "sigma3"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.sigma1 == 0 and self.sigma2 != 0:
            raise ConfigError(
                "sigma1=0 with sigma2>0 removes the short-range barrier; "
                "set sigma1>0 or sigma1=sigma2=0"
            )


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
        if not np.isfinite(values[key]):
            raise ConfigError(
                f"{path}:{lineno}: {key} must be finite, got {val.strip()!r}"
            )
    missing = {"sigma1", "sigma2", "sigma3"} - set(values)
    if missing:
        raise ConfigError(f"{path}: missing {', '.join(sorted(missing))}")
    return PotentialParams(values["sigma1"], values["sigma2"], values["sigma3"])


def as_configuration(positions):
    """Validate and return a (6,3) float array of ligand positions."""
    return check_configurations(_one(positions))[0]


def _one(positions):
    """One configuration, (6,3) or (18,), as a (1,6,3) stack."""
    pos = np.asarray(positions, dtype=float)
    if pos.shape not in ((6, 3), (18,)):
        raise ShapeError(f"configuration must be (6,3) or (18,), got {pos.shape}")
    return pos.reshape(1, 6, 3)


def check_configurations(stack):
    """Validate and return an (n,6,3) float array of configurations.

    Accepts (n,6,3) or (n,18).  Raises the ``CollisionError`` that checking
    the samples one by one would raise first: samples in order, ligands j
    ascending, the origin test of j before its pairs (j, k > j).
    """
    return _checked(stack)[0]


def _checked(stack):
    """``check_configurations``' stack and its ``accel.pairs``; the ordered
    table of the tests is built only when some squared distance is below
    the tolerance."""
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


# scalar derivatives of the two interaction terms ---------------------------

def u1(r, p):
    return p.sigma1 / r ** 6 - p.sigma2 / r ** 3 + p.sigma3 / np.sqrt(r)


def u1_prime(r, p):
    return -6 * p.sigma1 / r ** 7 + 3 * p.sigma2 / r ** 4 - 0.5 * p.sigma3 * r ** -1.5


def u1_second(r, p):
    return 42 * p.sigma1 / r ** 8 - 12 * p.sigma2 / r ** 5 + 0.75 * p.sigma3 * r ** -2.5


def u2(r):
    return (np.sqrt(r) - 1.0) ** 2


def u2_prime(r):
    return 1.0 - r ** -0.5


def u2_second(r):
    return 0.5 * r ** -1.5


def potential(params, config):
    pos = as_configuration(config)
    return float(accel.potential(pos, params.sigma1, params.sigma2, params.sigma3))


def gradients(params, samples):
    """Gradient of the potential at each configuration of a stack, as (n,18)."""
    pos, pair = _checked(samples)
    g = accel.gradient(pos, params.sigma1, params.sigma2, params.sigma3, pair)
    return g.reshape(len(pos), 18)


def gradient(params, config):
    """Gradient of the potential as an 18-vector."""
    return gradients(params, _one(config))[0]


def hessian(params, config):
    """Analytic Cartesian Hessian (18x18); matches finite differences."""
    pos = as_configuration(config)
    return accel.hessian(pos, params.sigma1, params.sigma2, params.sigma3)


# radial restriction phi(r) = U(r * template) -------------------------------

def phi(params, r):
    return 12 * u1(2 * r * r, params) + 3 * u1(4 * r * r, params) + 6 * u2(r * r)


def phi_prime(params, r):
    return 12 * r * (
        4 * u1_prime(2 * r * r, params)
        + 2 * u1_prime(4 * r * r, params)
        + u2_prime(r * r)
    )


def phi_second(params, r):
    return 12 * ct_residual(params, r) + 24 * r * r * (
        8 * u1_second(2 * r * r, params)
        + 8 * u1_second(4 * r * r, params)
        + u2_second(r * r)
    )


def _ct_terms(params, r):
    """The three summands of the radial criticality condition at radius r."""
    return (
        4 * u1_prime(2 * r * r, params),
        2 * u1_prime(4 * r * r, params),
        u2_prime(r * r),
    )


def ct_residual(params, r):
    """Residual of the radial criticality condition at radius r."""
    adjacent, opposite, bond = _ct_terms(params, r)
    return adjacent + opposite + bond


@dataclass(frozen=True)
class Equilibrium:
    """A radial equilibrium: the regular octahedron of this radius under params."""

    radius: float
    params: PotentialParams

    @property
    def configuration(self):
        return self.radius * OCTAHEDRON


def find_equilibrium(params, lo=1e-3, hi=1e3):
    """Locate the radial minimizer of phi by bisection plus one Newton polish."""
    if params.sigma1 == params.sigma2 == params.sigma3 == 0:
        return Equilibrium(1.0, params)  # pure bond stretching

    # the first grid step where phi' turns from negative to nonnegative
    # (phi' overflows at the grid's ends for extreme σ; inf and nan compare
    # as the scalar values would, so only the warnings are dropped)
    grid = np.geomspace(lo, hi, 200)
    with np.errstate(all="ignore"):
        vals = phi_prime(params, grid)
    steps = np.flatnonzero((vals[:-1] < 0) & (vals[1:] >= 0))
    if not steps.size:
        raise SearchFailureError(
            f"no sign change of phi' in ({lo:g}, {hi:g}) for {params}"
        )
    a, b = grid[steps[0]], grid[steps[0] + 1]
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
    return (
        u1_second(2 * r0 * r0, params),
        u1_second(4 * r0 * r0, params),
        u2_second(r0 * r0),
        u1_prime(4 * r0 * r0, params),
        u1_prime(2 * r0 * r0, params),
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


def blocks_from_stiffness(a, b, c, d, e, convention="reported", r0=None):
    """Assemble an 18x18 block matrix from the five stiffness constants.

    Adjacent blocks are -qa*m - ia*I, opposite blocks -qb*m - ib*I with m
    the unit-template outer products, and the diagonal balances them: it
    starts at qc*p_j p_j^T - ib*I and adds qa*m over ADJACENT[j] in order,
    then qb*m of the opposite vertex.
    """
    if convention == "reported":
        qa, qb, qc, ia, ib = 2 * a, 2 * b, 2 * c, e, d
    elif convention == "cartesian":
        if r0 is None:
            raise ConfigError("cartesian convention needs the equilibrium radius")
        s = 2 * r0 * r0
        qa, qb, qc, ia, ib = 2 * s * a, 2 * s * b, 2 * s * c, 2 * e, 2 * d
    else:
        raise ConfigError(f"unknown convention {convention!r}")

    diag = qc * _M_SELF - ib * _EYE
    for n in range(4):
        diag += qa * _M_ADJ[:, n]
    diag += qb * _M_OPP
    H = np.zeros((6, 6, 3, 3))
    H[_ADJ_J, _ADJ_K] = -qa * _M_ADJ - ia * _EYE
    H[_VERTEX, _OPP] = -qb * _M_OPP - ib * _EYE
    H[_VERTEX, _VERTEX] = diag
    return H.transpose(0, 2, 1, 3).reshape(18, 18)


def hessian_blocks(params, r0, convention="reported"):
    """Assemble the equilibrium Hessian from its 3x3 closed-form blocks.

    ``convention="reported"`` reproduces the reference block matrix (the
    alpha^2 spectrum); ``"cartesian"`` produces the true second derivative
    at r0 * template.  Requires r0 to satisfy the criticality condition to
    within what rounding its three summands, or r0 itself, can leave
    (r0 * dct/dr is phi''/12 less the residual).
    """
    adjacent, opposite, bond = _ct_terms(params, r0)
    scale = abs(adjacent) + abs(opposite) + abs(bond) + abs(phi_second(params, r0)) / 12
    if abs(adjacent + opposite + bond) > 1e-9 * scale:
        raise ShapeError(
            "block Hessian is only valid at the octahedral equilibrium radius"
        )
    a, b, c, d, e = stiffness(params, r0)
    return blocks_from_stiffness(a, b, c, d, e, convention=convention, r0=r0)
