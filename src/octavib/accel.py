"""The force field's pair and bond terms and its numpy kernels, batched over
configurations.

The pair term u1 and the bond term u2 are functions of a squared distance r,

    u1(r) = s1/r^6 - s2/r^3 + s3/sqrt(r),      u2(r) = (sqrt(r) - 1)^2,

each written here once with its first and second derivative in r.  The
kernels take ligand positions as a ``(..., 6, 3)`` array and work over the
15 ligand pairs j < k; pair forces go back to the ligands through the fixed
6x15 incidence matrix.
"""

import numpy as np

# perfbench/worker.py's env line reads these two names
HAVE_NUMBA = USE_NUMBA = False

PAIR_J, PAIR_K = np.triu_indices(6, 1)
# +1 at (j, pair) and -1 at (k, pair) for the pair (j, k)
INCIDENCE = np.zeros((6, PAIR_J.size))
INCIDENCE[PAIR_J, np.arange(PAIR_J.size)] = 1.0
INCIDENCE[PAIR_K, np.arange(PAIR_K.size)] = -1.0


def u1(r, s1, s2, s3):
    return s1 / r ** 6 - s2 / r ** 3 + s3 / np.sqrt(r)


def u1_prime(r, s1, s2, s3):
    return -6.0 * s1 / r ** 7 + 3.0 * s2 / r ** 4 - 0.5 * s3 * r ** -1.5


def u1_second(r, s1, s2, s3):
    return 42.0 * s1 / r ** 8 - 12.0 * s2 / r ** 5 + 0.75 * s3 * r ** -2.5


def u2(r):
    return (np.sqrt(r) - 1.0) ** 2


def u2_prime(r):
    return 1.0 - r ** -0.5


def u2_second(r):
    return 0.5 * r ** -1.5


def pairs(pos):
    """Pair differences p_j - p_k (..., 15, 3) and their squares (..., 15)."""
    d = np.take(pos, PAIR_J, axis=-2) - np.take(pos, PAIR_K, axis=-2)
    return d, np.einsum("...pc,...pc->...p", d, d)


def potential(pos, s1, s2, s3):
    _, r = pairs(pos)
    rr = np.einsum("...jc,...jc->...j", pos, pos)
    return np.sum(u1(r, s1, s2, s3), axis=-1) + np.sum(u2(rr), axis=-1)


def gradient(pos, s1, s2, s3, pair=None):
    """Gradient of the potential at each configuration, shaped like ``pos``;
    ``pair`` is ``pairs(pos)`` when the caller has it already."""
    d, r = pairs(pos) if pair is None else pair
    g = INCIDENCE @ (2.0 * u1_prime(r, s1, s2, s3)[..., None] * d)
    rr = np.einsum("...jc,...jc->...j", pos, pos)
    g += 2.0 * u2_prime(rr)[..., None] * pos
    return g
