import functools
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import hypothesis.configuration
import numpy as np
import pytest

from octavib import bifurcation, force_field, group_core, modes, orbit_o2, spectral
from octavib.errors import NumericalError, SamplingError

from oracles import StiffnessCoefficients

# Hypothesis's pytest plugin caches the constants of the loaded source under
# its home directory, .hypothesis in the working directory by default; keep
# that cache in a temporary directory, removed when the process exits
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="octavib-hypothesis-")
hypothesis.configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

# the reported block-9 alpha^2 is negative here (about -1.3e-4), while the
# Cartesian one is positive (about +0.243)
UNSTABLE_REPORTED_9 = (0.04358, 0.07072, 1.4449)

# the 24 types `modes` exports, as (block, k)
MODES = [
    (j, k)
    for j, n in (("0", 1), ("4", 3), ("7", 5), ("7*", 5), ("8", 5), ("9", 5))
    for k in range(1, n + 1)
]


def package_env(**extra):
    """The environment with the package on PYTHONPATH, for a child process."""
    src = pathlib.Path(group_core.__file__).parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(src), os.environ.get("PYTHONPATH")
    ])), **extra)


def python(code):
    """What a fresh interpreter running code prints, the package on its path."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=package_env(),
        check=True,
    )
    return proc.stdout


def sweep_box(n=48):
    """The first n σ draws of the benchmark's sweep box (seed 1)."""
    rng = np.random.default_rng(1)
    reference = force_field.REFERENCE_PARAMS
    return [
        tuple(
            s * math.exp(rng.uniform(-0.5, 0.5))
            for s in (reference.sigma1, reference.sigma2, reference.sigma3)
        )
        for _ in range(n)
    ]


def wide_grid(n=200):
    """σ over twelve decades: each σ_i = 10^u, u ~ U(-6, 6) (seed 12345), and
    σ2 = 0 on every tenth draw; ``load_params`` accepts every draw."""
    rng = np.random.default_rng(12345)
    draws = []
    for i, u in enumerate(rng.uniform(-6, 6, size=(n, 3))):
        sigmas = [float(10.0 ** x) for x in u]
        if i % 10 == 0:
            sigmas[1] = 0.0
        draws.append(tuple(sigmas))
    return draws


@functools.cache
def checked_wide_grid():
    """The 240 draws of the 400-draw wide grid whose modes' frequencies are
    all checked (``checked_frequencies`` of the Cartesian spectrum), so that
    every block builds its modes."""
    draws = []
    for sigmas in wide_grid(400):
        try:
            request = bifurcation.Request(force_field.PotentialParams(*sigmas))
            bifurcation.checked_frequencies(request.cartesian_spectrum)
        except NumericalError:
            continue
        draws.append(sigmas)
    assert len(draws) == 240
    return tuple(draws)


def all_pairs_maximal(ring, keys):
    """The keys no other key lies above, testing every ordered pair (oracle
    for ``BurnsideRing.maximal``)."""
    return [
        L for L in keys if not any(t != L and ring.fixed_cosets(L, t) > 0 for t in keys)
    ]


def engine_at(sigmas):
    eq = force_field.find_equilibrium(force_field.PotentialParams(*sigmas))
    return bifurcation.engine_from_spectrum(spectral.spectrum_at_equilibrium(eq))


@pytest.fixture(scope="session")
def params():
    return force_field.REFERENCE_PARAMS


@pytest.fixture(scope="session")
def equilibrium(params):
    return force_field.find_equilibrium(params)


@pytest.fixture(scope="session")
def coefficients(equilibrium):
    return StiffnessCoefficients.from_equilibrium(equilibrium)


@pytest.fixture(scope="session")
def labeled_spectrum(equilibrium):
    return spectral.spectrum_at_equilibrium(equilibrium)


@pytest.fixture(scope="session")
def engine(labeled_spectrum):
    return bifurcation.engine_from_spectrum(labeled_spectrum)


@pytest.fixture
def fresh_ring(monkeypatch):
    """An empty orbit-type ring for one test; the process's ring comes back after."""
    ring = orbit_o2.TemporalOctahedralRing()
    monkeypatch.setattr(orbit_o2, "ring", lambda: ring)
    return ring


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def random_configuration(rng, spread=0.25):
    """Admissible random configuration near the unit octahedron."""
    base = force_field.OCTAHEDRON * (1.0 + 0.3 * rng.random())
    return base + spread * rng.normal(size=(6, 3))


def gradient_loop(pos, s1, s2, s3):
    """Scalar oracle for ``accel.gradient``: a (6,3) gradient, pair by pair.

    Sums over every ordered pair (j, k), j != k, one coordinate at a time;
    the package kernel works over the 15 unordered pairs of a whole stack.
    """
    g = np.zeros((6, 3))
    for j in range(6):
        for k in range(6):
            if k == j:
                continue
            r = 0.0
            for c in range(3):
                d = pos[j, c] - pos[k, c]
                r += d * d
            u1p = -6.0 * s1 / r ** 7 + 3.0 * s2 / r ** 4 - 0.5 * s3 * r ** -1.5
            for c in range(3):
                g[j, c] += 2.0 * u1p * (pos[j, c] - pos[k, c])
        r = pos[j, 0] ** 2 + pos[j, 1] ** 2 + pos[j, 2] ** 2
        u2p = 1.0 - r ** -0.5
        for c in range(3):
            g[j, c] += 2.0 * u2p * pos[j, c]
    return g


def pair_operator(element):
    """Action of one group element on (a, b) coefficient pairs, a 36x36
    matrix (oracle for the table builder's stacked ``pair_operators``)."""
    refl, (num, den), g = orbit_o2.parts(element)
    tau = 2 * math.pi * num / den
    G = group_core.actions_18()[g]
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


def pinned_null_rows(Vt, sv):
    """The rows of Vt whose singular values are below 1e-10, each negated
    where its first entry beyond 1e-9 is negative."""
    null = Vt[sv.size - np.sum(sv < 1e-10) :].copy()
    for row in null:
        lead = next(x for x in row if abs(x) > 1e-9)
        if lead < 0:
            row *= -1
    return null


def loop_fixed_pairs(shop, type_class, j):
    """``ModeWorkshop.fixed_pairs`` assembled one element at a time in the
    first copy of block j's irreducible and mapped through the request's
    basis: the oracle of the table builder's stacked solve and of the pairs
    the ring reads from the table."""
    B0 = spectral.BASES[j.rstrip("*")]
    m = B0.shape[1]
    P = np.zeros((36, 2 * m))
    P[:18, :m] = B0
    P[18:, m:] = B0
    A = shop.ring.representative(type_class)
    rows = []
    for x in sorted(A.elements):
        T = pair_operator(x)
        rows.append(P.T @ T @ P - np.eye(2 * m))
    M = np.vstack(rows)
    _, sv, Vt = np.linalg.svd(M, full_matrices=False)
    B = shop.spectrum.basis_for(j)
    return [(B @ row[:m], B @ row[m:]) for row in pinned_null_rows(Vt, sv)]


def loop_verify_symmetry(shop, traj):
    """``ModeWorkshop.verify_symmetry`` one element at a time, each with its
    own shifted copy of the samples and its own 18x18 product (oracle)."""
    A = shop.ring.representative(traj.type_class)
    n = traj.n_samples
    disp = traj.samples - traj.center[None, :]
    report = {}
    worst = 0.0
    for x in sorted(A.elements):
        refl, (num, den), g = orbit_o2.parts(x)
        s, r = divmod(num * n, den)
        if r:
            raise SamplingError(
                f"phase {num}/{den} of a turn needs the sample count "
                f"to be a multiple of {den}"
            )
        G = group_core.actions_18()[g]
        idx = (np.arange(n) - s) % n if refl == 0 else (s - np.arange(n)) % n
        res = float(np.max(np.linalg.norm(disp - disp[idx] @ G.T, axis=1)))
        report[modes._describe(x)] = res
        worst = max(worst, res)
    return worst <= 1e-9 * traj.epsilon, report
