"""Linearized vibrational modes and trajectory export.

A mode for a maximal symmetry type is built inside the first Fourier block
of one eigenspace of the Cartesian equilibrium Hessian: the pair (a, b) in

    u(t) = v0 + eps (cos t * a + sin t * b)

is taken from the fixed space of the type's spatio-temporal action, so the
trajectory satisfies the linearized dynamics exactly and its own symmetry
relations to machine precision, while the nonlinear residual scales
quadratically with the amplitude.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bifurcation, force_field, group_core, orbit_o2, spectral
from ._serialize import dumps, format_rows
from .errors import (
    AmplitudeError,
    CollisionError,
    ConfigError,
    ConsistencyError,
    SamplingError,
)

DEFAULT_SAMPLES = 120  # divisible by 2,3,4,5,6,8: every phase shift in use


@dataclass(frozen=True)
class ModeTrajectory:
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
    """Mode construction bound to one equilibrium."""

    def __init__(self, params=None):
        self.params = params or force_field.REFERENCE_PARAMS
        self.equilibrium = force_field.find_equilibrium(self.params)
        self.center = self.equilibrium.configuration.reshape(18)
        self.spectrum = spectral.spectrum_at_equilibrium(
            self.equilibrium, convention="cartesian"
        )
        self.ring = orbit_o2.ring()

    def types_for(self, j):
        """Maximal symmetry classes of isotypic block j, in label order."""
        if j not in bifurcation.ISOTYPIC:
            raise ConfigError(f"unknown isotypic label {j!r}")
        classes = orbit_o2.maximal_orbit_types(bifurcation._degree_index(j), 1)
        return sorted(classes, key=self.ring.label_of)

    def alpha_of(self, j):
        for ln in self.spectrum.lines:
            if ln.label == j:
                return math.sqrt(ln.alpha_sq)
        raise ConfigError(f"unknown isotypic label {j!r}")

    # -- fixed-space construction ---------------------------------------
    def _pair_operator(self, element):
        """Action of a group element on (a, b) coefficient pairs."""
        refl, turn, g = orbit_o2.parts(element)
        tau = 2 * math.pi * turn.numerator / turn.denominator
        G = group_core.action_matrix_18(g)
        c, s = math.cos(tau), math.sin(tau)
        T = np.zeros((36, 36))
        if refl == 0:
            T[:18, :18] = c * G
            T[:18, 18:] = -s * G
            T[18:, :18] = s * G
            T[18:, 18:] = c * G
        else:
            T[:18, :18] = c * G
            T[:18, 18:] = s * G
            T[18:, :18] = s * G
            T[18:, 18:] = -c * G
        return T

    def fixed_pairs(self, type_class, j):
        """Orthonormal basis of the type's fixed space inside block j."""
        B = self.spectrum.basis_for(j)  # 18 x m
        m = B.shape[1]
        P = np.zeros((36, 2 * m))
        P[:18, :m] = B
        P[18:, m:] = B
        A = self.ring.representative(type_class)
        rows = []
        for x in sorted(A.elements):
            T = self._pair_operator(x)
            rows.append(P.T @ T @ P - np.eye(2 * m))
        M = np.vstack(rows)
        _, sv, Vt = np.linalg.svd(M, full_matrices=False)
        null = Vt[sv.size - np.sum(sv < 1e-10) :] if np.sum(sv < 1e-10) else Vt[:0]
        # rows of `null` span the fixed space in reduced coordinates
        out = []
        for row in null:
            a = B @ row[:m]
            b = B @ row[m:]
            out.append((a, b))
        return out

    def build_mode(self, j, k=1, epsilon=0.05, n_samples=DEFAULT_SAMPLES):
        """Trajectory for the k-th maximal type of block j (1-based)."""
        if not (math.isfinite(epsilon) and epsilon >= 0):
            raise ConfigError(f"epsilon must be finite and nonnegative, got {epsilon}")
        if n_samples < 8:
            raise ConfigError("need at least 8 samples per period")
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
        pairs = self.fixed_pairs(type_class, j)
        if not pairs:
            raise ConsistencyError(
                f"type {self.ring.label_of(type_class)} has no fixed mode in block {j}"
            )
        a, b = pairs[0]
        # normalize the peak displacement to epsilon
        gram = np.array([[a @ a, a @ b], [a @ b, b @ b]])
        peak = math.sqrt(max(np.linalg.eigvalsh(gram).max(), 1e-300))
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
            alpha=self.alpha_of(j),
            times=times,
            samples=samples,
            center=self.center.copy(),
            cos_dir=a,
            sin_dir=b,
        )

    def safe_amplitude(self):
        """Amplitude below which no sample can collide (unit directions)."""
        pos = self.center.reshape(6, 3)
        dmin = min(
            np.linalg.norm(pos[i] - pos[j]) for i in range(6) for j in range(i + 1, 6)
        )
        dmin = min(dmin, min(np.linalg.norm(pos[i]) for i in range(6)))
        return 0.45 * dmin

    # -- verification -----------------------------------------------------
    def verify_symmetry(self, traj, type_class=None):
        """Max sample residual of every symmetry relation of the type.

        Returns (passed, report) where report maps a generator description
        to its residual; pass threshold is 1e-9 * epsilon.
        """
        ci = traj.type_class if type_class is None else type_class
        A = self.ring.representative(ci)
        n = traj.n_samples
        disp = traj.samples - traj.center[None, :]
        report = {}
        worst = 0.0
        for x in sorted(A.elements):
            refl, turn, g = orbit_o2.parts(x)
            s, r = divmod(turn.numerator * n, turn.denominator)
            if r:
                raise SamplingError(
                    f"phase {turn} of a turn needs the sample count "
                    f"to be a multiple of {turn.denominator}"
                )
            G = group_core.action_matrix_18(g)
            idx = (np.arange(n) - s) % n if refl == 0 else (s - np.arange(n)) % n
            res = float(np.max(np.linalg.norm(disp - disp[idx] @ G.T, axis=1)))
            report[_describe(x)] = res
            worst = max(worst, res)
        return worst < 1e-9 * traj.epsilon, report

    def nonlinear_residual(self, traj):
        """Peak norm of udotdot + grad U(u) along the trajectory."""
        acc = -traj.alpha ** 2 * (traj.samples - traj.center)
        g = force_field.gradients(self.params, traj.samples)
        return float(np.linalg.norm(acc + g, axis=1).max(initial=0.0))

    def brake_velocity(self, traj):
        """Central-difference speed at the two turning phases t = 0 and pi."""
        n = traj.n_samples
        if n % 2:
            raise SamplingError("brake check needs an even sample count")
        dt = 2 * math.pi / n
        out = []
        for i in (0, n // 2):
            v = (traj.samples[(i + 1) % n] - traj.samples[i - 1]) / (2 * dt)
            out.append(float(np.linalg.norm(v)))
        return out

    def is_brake_type(self, type_class):
        """True when the type contains the bare time reversal."""
        A = self.ring.representative(type_class)
        return orbit_o2.encode(1, 0, group_core.IDENTITY) in A.elements


def _describe(element):
    refl, turn, g = orbit_o2.parts(element)
    kind = "refl" if refl else "rot"
    cyc = _cycle_string(group_core.PERM[g])
    return f"({kind}{f' {turn}' if turn else ''}, {cyc})"


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
    before the file is opened.
    """
    data = np.column_stack((traj.times, traj.samples))
    if not np.isfinite(data).all():
        raise ValueError(f"non-finite sample; {path} not written")
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in format_rows(data):
            fh.write(row + "\n")
    return path


def read_trajectory(path):
    """Round-trip reader for exported CSV trajectories.

    Cells are parsed by ``np.loadtxt``, which reads every exported value
    back exactly but, unlike ``float()``, refuses digit-group underscores
    ("1_0") and non-ASCII digits.  Blank and whitespace-only lines are
    skipped.
    """
    width = CSV_HEADER.count(",") + 1
    with open(path) as fh:
        if fh.readline().strip() != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header in {path}")
        lines = (line for line in fh if not line.isspace())
        first = next(lines, None)
        if first is None:
            raise ConfigError(f"no samples in {path}")
        try:
            data = np.loadtxt(
                itertools.chain((first,), lines),
                delimiter=",", comments=None, ndmin=2,
            )
        except ValueError as exc:
            # numpy's two refusals: "the number of columns changed from ..."
            # and "could not convert string ... to float64"
            if "number of columns" in str(exc):
                raise ConfigError(
                    f"rows of {path} do not all have {width} columns"
                ) from None
            raise ConfigError(f"non-numeric sample in {path}") from None
    if data.shape[1] != width:
        raise ConfigError(f"rows of {path} do not all have {width} columns")
    return data[:, 0], data[:, 1:]


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
