"""Linearized vibrational modes and trajectory export.

A mode for a maximal symmetry type is built inside the first Fourier block
of one eigenspace of the Cartesian equilibrium Hessian: the pair (a, b) in

    u(t) = v0 + eps (cos t * a + sin t * b)

is taken from the fixed space of the type's spatio-temporal action, so the
trajectory satisfies the linearized dynamics exactly and its own symmetry
relations to machine precision, while the nonlinear residual scales
quadratically with the amplitude.

What depends on the type alone is kept in the orbit-type ring's tables: its
elements as arrays, their sample shifts per sample count, and its fixed pairs
in the first copy of each irreducible, solved once in ``spectral.BASES``.
Every block's columns carry the matrices of that copy, so a workshop maps the
pairs through them and solves nothing per σ.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import accel, bifurcation, force_field, group_core, orbit_o2, spectral
from ._serialize import RowWidthError, dumps, format_rows
from .burnside import cached
from .errors import (
    AmplitudeError,
    CollisionError,
    ConfigError,
    ConsistencyError,
    SamplingError,
)

DEFAULT_SAMPLES = 120  # divisible by 2,3,4,5,6,8: every phase shift in use
# the most samples per period a mode is built with: at the bound `modes`
# peaks at 136 MB, its arrays and CSV text about 1.5 kB per sample
MAX_SAMPLES = 2**16
# numpy sums a row of 18 terms pairwise: terms i and i + 8 into eight partial
# sums, combined as ((0+1)+(2+3))+((4+5)+(6+7)), then term 16, then term 17.
# In this coordinate order each of those steps adds the second half of a
# block onto its first, in place
_PAIRWISE_ORDER = np.array([0, 4, 2, 6, 1, 5, 3, 7, 8, 12, 10, 14, 9, 13, 11, 15, 16, 17])
# group_core.ACTION_ROWS with its rows and the stacked (x, -x) both in that
# order, which is its own inverse
_PAIRWISE_ROWS = np.concatenate([_PAIRWISE_ORDER, _PAIRWISE_ORDER + 18])[
    group_core.ACTION_ROWS[:, _PAIRWISE_ORDER]
]


@dataclass(frozen=True)
class ModeTrajectory:
    """One sampled period of a linearized mode of block j's k-th type."""

    j: str
    k: int
    type_class: int
    symmetry: str
    epsilon: float
    alpha: float                # physical angular frequency
    times: np.ndarray = field(repr=False)
    samples: np.ndarray = field(repr=False)   # (n, 18), absolute positions
    center: np.ndarray = field(repr=False)    # equilibrium 18-vector
    cos_dir: np.ndarray = field(repr=False)
    sin_dir: np.ndarray = field(repr=False)

    @property
    def n_samples(self):
        return len(self.times)


class ModeWorkshop:
    """Mode construction bound to one equilibrium.

    Built from a ``bifurcation.Request``, or from the parameters of a new
    one (the reference parameters by default); the equilibrium and the
    Cartesian spectrum are the request's.
    """

    def __init__(self, params=None):
        request = (
            params if isinstance(params, bifurcation.Request)
            else bifurcation.Request(params or force_field.REFERENCE_PARAMS)
        )
        self.params = request.params
        self.center = request.equilibrium.configuration.reshape(18)
        self.spectrum = request.cartesian_spectrum
        self.ring = orbit_o2.ring()

    def types_for(self, j):
        """Maximal symmetry classes of isotypic block j, in label order."""
        if j not in bifurcation.ISOTYPIC:
            raise ConfigError(f"unknown isotypic label {j!r}")
        classes = orbit_o2.maximal_orbit_types(bifurcation._degree_index(j), 1)
        return sorted(classes, key=self.ring.label_of)

    # -- fixed-space construction ---------------------------------------
    def fixed_pairs(self, type_class, j):
        """Orthonormal basis of the type's fixed space inside block j.

        Block j's columns carry the matrices of its irreducible's first copy
        (``spectral.BASES``), so its pairs are the ring's reduced pairs
        mapped through them: no solve depends on σ.
        """
        B = self.spectrum.basis_for(j)
        pairs = _reduced_pairs(self.ring, type_class, j.rstrip("*"))
        return tuple((B @ x, B @ y) for x, y in pairs)

    def build_mode(self, j, k=1, epsilon=0.05, n_samples=DEFAULT_SAMPLES):
        """Trajectory for the k-th maximal type of block j (1-based)."""
        if not (math.isfinite(epsilon) and epsilon >= 0):
            raise ConfigError(f"epsilon must be finite and nonnegative, got {epsilon}")
        if n_samples < 8:
            raise ConfigError("need at least 8 samples per period")
        if n_samples > MAX_SAMPLES:
            raise ConfigError(
                f"{n_samples} samples per period exceed the bound of {MAX_SAMPLES}"
            )
        types = self.types_for(j)
        if not 1 <= k <= len(types):
            raise ConfigError(
                f"block {j} has {len(types)} maximal types; k={k} is out of range"
            )
        return self.build_mode_for_type(types[k - 1], j, k, epsilon, n_samples)

    def build_mode_for_type(self, type_class, j, k=1, epsilon=0.05,
                            n_samples=DEFAULT_SAMPLES):
        if epsilon > self.safe_amplitude():
            raise AmplitudeError(
                f"amplitude {epsilon} exceeds the collision-safe bound "
                f"{self.safe_amplitude():.3g}"
            )
        # a sample count the type's turns do not divide is refused before
        # any sample is built
        _shift_groups(self.ring, type_class, n_samples)
        pairs = self.fixed_pairs(type_class, j)
        if not pairs:
            raise ConsistencyError(
                f"type {self.ring.label_of(type_class)} has no fixed mode in block {j}"
            )
        a, b = pairs[0]
        # normalize the peak displacement to epsilon: the larger eigenvalue
        # of the Gram matrix [[aa, ab], [ab, bb]], in closed form
        aa, ab, bb = float(a @ a), float(a @ b), float(b @ b)
        top = (aa + bb) / 2 + math.hypot((aa - bb) / 2, ab)
        peak = math.sqrt(max(top, 1e-300))
        a, b = a / peak, b / peak
        times = 2 * math.pi * np.arange(n_samples) / n_samples
        samples = (
            self.center[None, :]
            + epsilon * np.cos(times)[:, None] * a[None, :]
            + epsilon * np.sin(times)[:, None] * b[None, :]
        )
        try:
            force_field.check_configurations(samples)
        except CollisionError as exc:
            raise AmplitudeError(
                f"amplitude {epsilon} produces a colliding sample ({exc}); "
                f"stay below {self.safe_amplitude():.3g}"
            ) from None
        return ModeTrajectory(
            j=j,
            k=k,
            type_class=type_class,
            symmetry=self.ring.label_of(type_class),
            epsilon=float(epsilon),
            alpha=bifurcation.checked_frequency(self.spectrum, j),
            times=times,
            samples=samples,
            center=self.center.copy(),
            cos_dir=a,
            sin_dir=b,
        )

    def safe_amplitude(self):
        """Amplitude below which no sample can collide (unit directions)."""
        return self._safe_amplitude

    @cached_property
    def _safe_amplitude(self):
        pos = self.center.reshape(6, 3)
        _, pair = accel.pairs(pos)
        origin = np.einsum("jc,jc->j", pos, pos)
        return 0.45 * math.sqrt(min(pair.min(), origin.min()))

    # -- verification -----------------------------------------------------
    def verify_symmetry(self, traj, type_class=None):
        """Max sample residual of every symmetry relation of the type.

        Returns (passed, report) where report maps an element's description
        to its residual; the mode passes when the largest residual is at
        most 1e-9 * epsilon, so a mode of amplitude 0, whose every residual
        is 0, passes.  The displacement is held as an (18, n) array, its
        coordinates in ``_PAIRWISE_ORDER``.  The elements that shift the
        samples alike share one gather of the shifted samples and their
        negation, from which each element's action is a row gather
        (``group_core.ACTION_ROWS``); its squared residuals are summed over
        the coordinates in numpy's pairwise order, so every residual has the
        bits of the norm of disp - G disp with G the action matrix.
        """
        ci = traj.type_class if type_class is None else type_class
        els = _type_elements(self.ring, ci)
        n = traj.n_samples
        groups = _shift_groups(self.ring, ci, n)
        disp = np.empty((18, n))
        np.subtract(
            traj.samples.T[_PAIRWISE_ORDER], traj.center[_PAIRWISE_ORDER, None], out=disp
        )
        rows = _PAIRWISE_ROWS[els.g]
        res = np.empty(len(els.names))
        moved = np.empty((36, n))  # one shift group's samples, then their negation
        d = np.empty((18, n))  # one element's residuals
        for refl, s, members in groups:
            idx = np.arange(n) - s if refl == 0 else s - np.arange(n)
            np.take(disp, idx, axis=1, out=moved[:18], mode="wrap")  # indices mod n
            np.negative(moved[:18], out=moved[18:])
            for p in members.tolist():
                # the rows are in range; mode="raise" would copy `out` first
                np.take(moved, rows[p], axis=0, out=d, mode="clip")
                np.subtract(disp, d, out=d)
                np.multiply(d, d, out=d)
                np.add(d[:8], d[8:16], out=d[:8])
                np.add(d[:4], d[4:8], out=d[:4])
                np.add(d[:2], d[2:4], out=d[:2])
                np.add(d[0], d[1], out=d[0])
                d[0] += d[16]
                d[0] += d[17]
                res[p] = d[0].max()
        np.sqrt(res, out=res)
        worst = float(res.max())
        return worst <= 1e-9 * traj.epsilon, dict(zip(els.names, res.tolist()))

    def nonlinear_residual(self, traj):
        """Peak norm of udotdot + grad U(u) along the trajectory."""
        acc = -traj.alpha ** 2 * (traj.samples - traj.center)
        g = force_field.gradients(self.params, traj.samples)
        return float(np.linalg.norm(acc + g, axis=1).max(initial=0.0))


# -- the ring's mode data: σ-independent, each table kept in ring.memo --------


@dataclass(frozen=True)
class TypeElements:
    """A mode-1 class's elements in sorted order, as arrays."""

    refl: np.ndarray        # reflection bit
    turn: tuple             # O(2) turn, an exact fraction (numerator, denominator)
    g: np.ndarray           # spatial index
    cos: np.ndarray         # cos and sin of the turn's angle
    sin: np.ndarray
    names: tuple            # ``_describe`` strings, a verify report's keys


@cached
def _type_elements(ring, ci):
    els = sorted(ring.representative(ci).elements)
    refl, turn, g = zip(*map(orbit_o2.parts, els))
    tau = [2 * math.pi * num / den for num, den in turn]
    return TypeElements(
        refl=np.array(refl),
        turn=turn,
        g=np.array(g),
        cos=np.array([math.cos(t) for t in tau]),
        sin=np.array([math.sin(t) for t in tau]),
        names=tuple(map(_describe, els)),
    )


@cached
def _shift_groups(ring, ci, n):
    """The elements of class ci grouped by the sample shift they act by at n
    samples per period: (reflection bit, shift s, positions in sorted order).

    An element with reflection bit 0 relates sample i to sample i - s, one
    with bit 1 to sample s - i.  A turn that is no multiple of 1/n is a
    ``SamplingError``.
    """
    els = _type_elements(ring, ci)
    groups = {}
    for pos, (refl, (num, den)) in enumerate(zip(els.refl.tolist(), els.turn)):
        s, r = divmod(num * n, den)
        if r:
            raise SamplingError(
                f"phase {num}/{den} of a turn needs the sample count "
                f"to be a multiple of {den}"
            )
        groups.setdefault((refl, s), []).append(pos)
    return tuple((refl, s, np.array(p)) for (refl, s), p in groups.items())


@cached
def _reduced_pairs(ring, ci, irrep):
    """The fixed space of class ci in the first copy B of an irreducible, as
    read-only coefficient pairs (x, y) on B's columns: the null space of the
    stacked P^T T P - I, with P = diag(B, B) and T each element's pair
    operator.  Each null vector's first entry beyond 1e-9 is positive."""
    B = spectral.BASES[irrep]
    m = B.shape[1]
    P = np.zeros((36, 2 * m))
    P[:18, :m] = B
    P[18:, m:] = B
    els = _type_elements(ring, ci)
    M = (P.T @ _pair_operators(els) @ P - np.eye(2 * m)).reshape(-1, 2 * m)
    _, sv, Vt = np.linalg.svd(M, full_matrices=False)
    null = Vt[sv.size - np.sum(sv < 1e-10) :]
    lead = np.argmax(np.abs(null) > 1e-9, axis=1)  # each row's first entry beyond 1e-9
    null *= np.sign(null[np.arange(len(null)), lead])[:, None]
    null.flags.writeable = False
    return tuple((row[:m], row[m:]) for row in null)


def _pair_operators(els):
    """The (elements, 36, 36) actions on (a, b) coefficient pairs: a rotation
    by tau maps (a, b) to G (c a - s b, s a + c b), a reflection to
    G (c a + s b, s a - c b)."""
    G = group_core.ACTIONS_18[els.g]
    c = els.cos[:, None, None]
    s = els.sin[:, None, None]
    flip = els.refl[:, None, None] == 1
    T = np.zeros((len(G), 36, 36))
    np.multiply(c, G, out=T[:, :18, :18])
    np.multiply(np.where(flip, s, -s), G, out=T[:, :18, 18:])
    np.multiply(s, G, out=T[:, 18:, :18])
    np.multiply(np.where(flip, -c, c), G, out=T[:, 18:, 18:])
    return T


def _describe(element):
    refl, (num, den), g = orbit_o2.parts(element)
    kind = "refl" if refl else "rot"
    cyc = _cycle_string(group_core.PERM[g])
    return f"({kind}{f' {num}/{den}' if num else ''}, {cyc})"


def _cycle_string(perm):
    seen = [False] * len(perm)
    parts = []
    for i in range(len(perm)):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        parts.append("(" + "".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts) or "e"


# -- export -----------------------------------------------------------------

CSV_HEADER = "t," + ",".join(f"{c}{i}" for i in range(1, 7) for c in ("x", "y", "z"))


def export_trajectory(traj, path):
    """Write the sampled trajectory as CSV, every cell as ``format_float``
    prints it (``format_rows``).  Non-finite samples raise ``ValueError``
    before the file is opened; the whole text is formatted first and
    written at once.
    """
    data = np.column_stack((traj.times, traj.samples))
    if not np.isfinite(data).all():
        raise ValueError(f"non-finite sample; {path} not written")
    text = "\n".join([CSV_HEADER, *format_rows(data)]) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return path


def read_trajectory(path):
    """Read back a CSV trajectory that ``export_trajectory`` wrote.

    After ``CSV_HEADER`` every row holds 19 cells of ``format_float``'s
    grammar: an optional "-", digits with at most one "." and a digit either
    side of it, and an optional exponent "e+dd", "e-dd", "e+ddd" or
    "e-ddd", 24 bytes at most.  ``_kernels.parse_values`` reads each
    cell as the double ``float()`` reads from it, bit for bit.  Lines may
    end in CRLF, blank and whitespace-only lines are skipped and the final
    newline may be missing.  Anything else in a row is a non-numeric
    sample: whitespace, a leading "+", "1e5", ".5", "1.", "nan", "inf",
    digit-group underscores ("1_0") or a longer cell.
    """
    from ._kernels import parse_values

    width = CSV_HEADER.count(",") + 1
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # universal newlines
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    head = data.index(b"\n")
    if data[:head].strip() != CSV_HEADER.encode():
        raise ConfigError(f"unexpected CSV header in {path}")
    try:
        try:
            values = parse_values(data, width, start=head + 1)
        except ValueError:
            # the kernel refuses blank and whitespace-only lines: drop them
            # and read again, if there are any
            rows = data[head + 1 : -1].split(b"\n")
            kept = [row for row in rows if row.strip()]
            if len(kept) == len(rows):
                raise
            values = parse_values(b"".join(row + b"\n" for row in kept), width)
    except RowWidthError:
        raise ConfigError(f"rows of {path} do not all have {width} columns") from None
    except ValueError:
        raise ConfigError(f"non-numeric sample in {path}") from None
    if not len(values):
        raise ConfigError(f"no samples in {path}")
    return values[:, 0], values[:, 1:]


def mode_manifest(traj, verified, generator_report):
    doc = {
        "j": traj.j,
        "k": traj.k,
        "alpha": traj.alpha,
        "epsilon": traj.epsilon,
        "symmetry": traj.symmetry,
        "verified": verified,
        "verified_generators": sorted(generator_report),
    }
    return dumps(doc)
