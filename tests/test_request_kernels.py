"""The per-σ request path against the scalar loops it replaced.

Each kernel a request runs once per σ (the equilibrium bracket, the block
Hessian, the eigenspace characters, the spectrum JSON and the fixed-space
SVD) is checked bit for bit against its loop oracle below, over the seed-1
sweep box, the reference σ and σ = (0, 0, 0).
"""

import contextlib
import io
from dataclasses import replace

import numpy as np
import pytest

from octavib import cli, group_core, modes, spectral
from octavib import force_field as ff
from octavib._serialize import dumps
from octavib.errors import (
    InvalidCharacterError,
    LabelingError,
    NumericalError,
    ResonanceError,
    SearchFailureError,
)

from conftest import sweep_box

REFERENCE = ff.REFERENCE_PARAMS
SIGMAS = [
    *sweep_box(),
    (REFERENCE.sigma1, REFERENCE.sigma2, REFERENCE.sigma3),
    (0.0, 0.0, 0.0),
]
IDS = [f"draw{i}" for i in range(48)] + ["reference", "zero"]
CONVENTIONS = ("reported", "cartesian")

pytestmark = pytest.mark.filterwarnings("error")


# -- oracles: the loops of the request path, one value at a time ------------

def scalar_grid_equilibrium(params, lo=1e-3, hi=1e3):
    """``find_equilibrium`` with phi' evaluated point by point on the grid."""
    if params.sigma1 == params.sigma2 == params.sigma3 == 0:
        return 1.0
    grid = np.geomspace(lo, hi, 200)
    vals = [ff.phi_prime(params, r) for r in grid]
    bracket = None
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa < 0 <= fb:
            bracket = (a, b)
            break
    if bracket is None:
        raise SearchFailureError("no sign change of phi'")
    a, b = bracket
    for _ in range(100):
        mid = 0.5 * (a + b)
        if ff.phi_prime(params, mid) < 0:
            a = mid
        else:
            b = mid
        if b - a < 1e-12 * mid:
            break
    r0 = 0.5 * (a + b)
    fp = ff.phi_prime(params, r0)
    fpp = (ff.phi_prime(params, r0 + 1e-7) - ff.phi_prime(params, r0 - 1e-7)) / 2e-7
    if fpp > 0:
        r0 -= fp / fpp
    return float(r0)


def loop_blocks(a, b, c, d, e, convention="reported", r0=None):
    """``blocks_from_stiffness`` one 3x3 block at a time."""
    if convention == "reported":
        qa, qb, qc, ia, ib = 2 * a, 2 * b, 2 * c, e, d
    else:
        s = 2 * r0 * r0
        qa, qb, qc, ia, ib = 2 * s * a, 2 * s * b, 2 * s * c, 2 * e, 2 * d
    p = ff.OCTAHEDRON
    H = np.zeros((18, 18))
    for j in range(6):
        diag = qc * np.outer(p[j], p[j]) - ib * np.eye(3)
        for k in ff.ADJACENT[j]:
            m = np.outer(p[j] - p[k], p[j] - p[k])
            H[3 * j : 3 * j + 3, 3 * k : 3 * k + 3] = -qa * m - ia * np.eye(3)
            diag += qa * m
        k = ff.OPPOSITE[j]
        m = np.outer(p[j] - p[k], p[j] - p[k])
        H[3 * j : 3 * j + 3, 3 * k : 3 * k + 3] = -qb * m - ib * np.eye(3)
        diag += qb * m
        H[3 * j : 3 * j + 3, 3 * j : 3 * j + 3] = diag
    return H


def restricted_character(basis):
    """Character of the 18-dim action restricted to the span of `basis`."""
    return [
        float(np.einsum("ij,ik,kj->", basis, group_core.action_matrix_18(g), basis))
        for g in group_core.CLASS_REPS
    ]


def per_cluster_labels(report):
    """``assign_eigenspaces`` with one character per cluster: the labels, or
    the refusal as (class, counts) when a cluster matches no irreducible."""
    labels, seen_7, k = [], 0, 0
    for ln in report.lines:
        chi = restricted_character(report.basis[:, k : k + ln.multiplicity])
        k += ln.multiplicity
        hit = next(
            (
                j for j, row in enumerate(group_core.CHARACTER_TABLE)
                if all(abs(c - r) < 1e-6 for c, r in zip(chi, row))
            ),
            None,
        )
        if hit is None:
            try:
                return ResonanceError, spectral.isotypic_multiplicities(chi)
            except InvalidCharacterError:
                return LabelingError, None
        label = group_core.IRREP_NAMES[hit]
        if label == "7":
            label = "7" if seen_7 == 0 else "7*"
            seen_7 += 1
        labels.append(label)
    return labels


def full_svd_pairs(shop, type_class, j):
    """``fixed_pairs`` through the full SVD, U included."""
    B = shop.spectrum.basis_for(j)
    m = B.shape[1]
    P = np.zeros((36, 2 * m))
    P[:18, :m] = B
    P[18:, m:] = B
    A = shop.ring.representative(type_class)
    M = np.vstack(
        [P.T @ shop._pair_operator(x) @ P - np.eye(2 * m) for x in sorted(A.elements)]
    )
    _, sv, Vt = np.linalg.svd(M)
    null = Vt[sv.size - np.sum(sv < 1e-10) :] if np.sum(sv < 1e-10) else Vt[:0]
    return [(B @ row[:m], B @ row[m:]) for row in null]


# -- the request path against the oracles ------------------------------------

def radius(sigmas):
    return ff.find_equilibrium(ff.PotentialParams(*sigmas)).radius


def stiffness_at(sigmas):
    params = ff.PotentialParams(*sigmas)
    r0 = radius(sigmas)
    return r0, ff.stiffness(params, r0)


@pytest.mark.parametrize("sigmas", SIGMAS, ids=IDS)
def test_radius_equals_the_scalar_grid_bracket(sigmas):
    assert radius(sigmas) == scalar_grid_equilibrium(ff.PotentialParams(*sigmas))


@pytest.mark.parametrize("sigmas", SIGMAS, ids=IDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_blocks_equal_the_loop_assembly(sigmas, convention):
    r0, coeffs = stiffness_at(sigmas)
    H = ff.blocks_from_stiffness(*coeffs, convention=convention, r0=r0)
    assert np.array_equal(H, loop_blocks(*coeffs, convention=convention, r0=r0))


def test_blocks_equal_the_loop_assembly_on_signed_constants():
    rng = np.random.default_rng(15)
    for coeffs in rng.normal(size=(20, 5)) * 10.0 ** rng.integers(-3, 4, size=(20, 5)):
        for convention in CONVENTIONS:
            got = ff.blocks_from_stiffness(*coeffs, convention=convention, r0=1.3)
            want = loop_blocks(*coeffs, convention=convention, r0=1.3)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("sigmas", SIGMAS, ids=IDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_labels_equal_the_per_cluster_characters(sigmas, convention):
    r0, coeffs = stiffness_at(sigmas)
    H = ff.blocks_from_stiffness(*coeffs, convention=convention, r0=r0)
    unlabeled = spectral.numeric_spectrum(H)
    want = per_cluster_labels(unlabeled)
    if isinstance(want, list):
        report = spectral.assign_eigenspaces(unlabeled)
        assert [ln.label for ln in report.lines] == want
        return
    refusal, counts = want
    with pytest.raises(refusal) as exc:
        spectral.assign_eigenspaces(unlabeled)
    if counts is not None:
        names = group_core.IRREP_NAMES
        blocks = ", ".join(
            names[j] if m == 1 else f"{m} x {names[j]}" for j, m in enumerate(counts) if m
        )
        assert str(exc.value).startswith(f"blocks {blocks} share one eigenspace")


@pytest.mark.parametrize("sigmas", SIGMAS, ids=IDS)
def test_spectrum_json_equals_the_nested_lists(sigmas):
    r0, coeffs = stiffness_at(sigmas)
    report = spectral.numeric_spectrum(ff.blocks_from_stiffness(*coeffs))
    try:
        report = spectral.assign_eigenspaces(report)
    except NumericalError:
        pass  # σ = 0: the unlabeled report still has its JSON
    doc = {
        "eigenvalues": [
            {"j": ln.label, "alpha_sq": ln.alpha_sq, "multiplicity": ln.multiplicity}
            for ln in report.lines
        ],
        "basis": [list(col) for col in report.basis.T],
    }
    assert report.to_json() == dumps(doc)
    unlabeled = replace(report, basis=None)
    assert unlabeled.to_json() == dumps({"eigenvalues": doc["eigenvalues"]})


@pytest.mark.parametrize("sigmas", [SIGMAS[48], *(SIGMAS[i] for i in (0, 10, 16))],
                         ids=["reference", "draw0", "draw10", "draw16"])
def test_fixed_pairs_equal_the_full_svd(sigmas):
    shop = modes.ModeWorkshop(ff.PotentialParams(*sigmas))
    for j in ("0", "4", "7", "7*", "8", "9"):
        for type_class in shop.types_for(j):
            got = shop.fixed_pairs(type_class, j)
            want = full_svd_pairs(shop, type_class, j)
            assert len(got) == len(want) > 0
            for (a, b), (a0, b0) in zip(got, want):
                assert np.array_equal(a, a0) and np.array_equal(b, b0)


# -- no warnings on the request path: every test here runs with warnings as
# errors, the CLI's extremes included -------------------------------------

# σ the CLI accepts at and beyond the ends of the float range: phi' on the
# bracket grid overflows for the large ones
EXTREMES = [
    ("1e300", "0", "0"), ("1e300", "1e300", "1e300"), ("1", "0", "1e300"),
    ("0", "0", "1e300"), ("1e308", "1e308", "0"), ("1e-300", "0", "0"),
    ("0", "0", "1e-300"), ("5e-324", "0", "0"), ("0.1", "1e5", "1"),
]


@pytest.mark.parametrize("sigmas", EXTREMES, ids=["_".join(s) for s in EXTREMES])
@pytest.mark.parametrize("command", ["equilibrium", "spectrum", "critical"])
def test_extreme_sigma_prints_only_the_result_or_the_refusal(tmp_path, sigmas, command):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("".join(f"sigma{i}={s}\n" for i, s in enumerate(sigmas, 1)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--config", str(cfg), command])
    # stderr holds the refusal line and nothing else; (0.1, 1e5, 1) is refused
    # with exit 2, as the block Hessian's criticality check fails there
    refusal = {0: "", 1: "numerical failure: ", 2: "configuration error: "}[code]
    assert err.getvalue().startswith(refusal)
    assert err.getvalue().count("\n") == (code != 0)
