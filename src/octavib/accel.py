"""Numpy force-field kernels, batched over configurations.

The force-field kernels take ligand positions as a ``(..., 6, 3)`` array and
work over the 15 ligand pairs j < k; pair forces go back to the ligands
through the fixed 6x15 incidence matrix.
"""

import numpy as np

# perfbench/worker.py's env line reads these two names
HAVE_NUMBA = USE_NUMBA = False

PAIR_J, PAIR_K = np.triu_indices(6, 1)
# +1 at (j, pair) and -1 at (k, pair) for the pair (j, k)
INCIDENCE = np.zeros((6, PAIR_J.size))
INCIDENCE[PAIR_J, np.arange(PAIR_J.size)] = 1.0
INCIDENCE[PAIR_K, np.arange(PAIR_K.size)] = -1.0


def pairs(pos):
    """Pair differences p_j - p_k (..., 15, 3) and their squares (..., 15)."""
    d = np.take(pos, PAIR_J, axis=-2) - np.take(pos, PAIR_K, axis=-2)
    return d, np.einsum("...pc,...pc->...p", d, d)


def potential(pos, s1, s2, s3):
    _, r = pairs(pos)
    rr = np.einsum("...jc,...jc->...j", pos, pos)
    pair = np.sum(s1 / r ** 6 - s2 / r ** 3 + s3 / np.sqrt(r), axis=-1)
    return pair + np.sum((np.sqrt(rr) - 1.0) ** 2, axis=-1)


def gradient(pos, s1, s2, s3):
    """Gradient of the potential at each configuration, shaped like ``pos``."""
    d, r = pairs(pos)
    u1p = -6.0 * s1 / r ** 7 + 3.0 * s2 / r ** 4 - 0.5 * s3 * r ** -1.5
    g = INCIDENCE @ (2.0 * u1p[..., None] * d)
    rr = np.einsum("...jc,...jc->...j", pos, pos)
    g += 2.0 * (1.0 - rr ** -0.5)[..., None] * pos
    return g


def hessian(pos, s1, s2, s3):
    """Cartesian Hessian (18, 18) of one (6, 3) configuration."""
    d, r = pairs(pos)
    u1p = -6.0 * s1 / r ** 7 + 3.0 * s2 / r ** 4 - 0.5 * s3 * r ** -1.5
    u1pp = 42.0 * s1 / r ** 8 - 12.0 * s2 / r ** 5 + 0.75 * s3 * r ** -2.5
    # the 3x3 block of each pair: off-diagonal at (j, k) and (k, j), and
    # subtracted from both diagonal blocks, as the incidence Laplacian does
    blk = -4.0 * u1pp[:, None, None] * np.einsum("pa,pb->pab", d, d)
    blk -= 2.0 * u1p[:, None, None] * np.eye(3)
    H = -np.einsum("jp,kp,pab->jakb", INCIDENCE, INCIDENCE, blk)
    rr = np.einsum("jc,jc->j", pos, pos)
    for j in range(6):
        H[j, :, j, :] += 2.0 * rr[j] ** -1.5 * np.outer(pos[j], pos[j])
        H[j, :, j, :] += 2.0 * (1.0 - rr[j] ** -0.5) * np.eye(3)
    return H.reshape(18, 18)

