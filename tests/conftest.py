import math

import numpy as np
import pytest

from octavib import bifurcation, force_field, orbit_o2, spectral

# the reported block-9 alpha^2 is negative here (about -1.3e-4), while the
# Cartesian one is positive (about +0.243)
UNSTABLE_REPORTED_9 = (0.04358, 0.07072, 1.4449)


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
    return spectral.StiffnessCoefficients.from_equilibrium(equilibrium)


@pytest.fixture(scope="session")
def labeled_spectrum(equilibrium):
    return spectral.spectrum_at_equilibrium(equilibrium)


@pytest.fixture(scope="session")
def engine(labeled_spectrum):
    return bifurcation.engine_from_spectrum(labeled_spectrum)


@pytest.fixture
def fresh_ring(monkeypatch):
    """An empty orbit-type ring for one test; the process's ring comes back after."""
    monkeypatch.setattr(orbit_o2, "_RING", orbit_o2.TemporalOctahedralRing())
    return orbit_o2.ring()


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
