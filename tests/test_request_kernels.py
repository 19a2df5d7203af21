"""The per-σ request path against the scalar loops it replaced.

Each kernel a request runs once per σ (the equilibrium bracket, the block
Hessian, the spectrum JSON and the fixed pairs) is checked bit for bit
against its loop oracle below, and the spectrum's labels and alpha^2
against the per-line characters and a dense eigensolver, over the seed-1
sweep box, the reference σ and σ = (0, 0, 0); the closed-form split of 7
and 7* also over the wide grid.  The radius of the Python-float search, the
closed-form spectrum and its JSON are checked against the float64 search,
the projection of the block Hessian and ``dumps`` over the box and the
400-draw wide grid, and every alpha^2 against its value at 50 digits.
"""

import contextlib
import io
import math
import re

import mpmath
import numpy as np
import pytest

from octavib import bifurcation, cli, group_core, modes, spectral
from octavib import force_field as ff
from octavib._serialize import dumps
from octavib.errors import OctavibError, SearchFailureError, ShapeError

from conftest import pair_operator, pinned_null_rows, sweep_box, wide_grid
from oracles import MULTIPLICITIES, numpy_scalar_equilibrium

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
    """``find_equilibrium`` with phi' evaluated point by point on the grid.

    The Newton polish divides by a central difference of phi', where the
    package takes the analytic phi''; the radius must not move by a bit.
    """
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
    """``assign_eigenspaces`` with one character per line: the labels, or
    None when a line matches no irreducible."""
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
            return None
        label = group_core.IRREP_NAMES[hit]
        if label == "7":
            label = "7" if seen_7 == 0 else "7*"
            seen_7 += 1
        labels.append(label)
    return labels


def full_svd_pairs(shop, type_class, j):
    """``fixed_pairs`` through the full SVD, U included, in the first copy of
    block j's irreducible, mapped through the request's basis."""
    B0 = spectral.BASES[j.rstrip("*")]
    m = B0.shape[1]
    P = np.zeros((36, 2 * m))
    P[:18, :m] = B0
    P[18:, m:] = B0
    A = shop.ring.representative(type_class)
    M = np.vstack(
        [P.T @ pair_operator(x) @ P - np.eye(2 * m) for x in sorted(A.elements)]
    )
    _, sv, Vt = np.linalg.svd(M)
    B = shop.spectrum.basis_for(j)
    return [(B @ row[:m], B @ row[m:]) for row in pinned_null_rows(Vt, sv)]


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


def outcome(search, sigmas):
    """A search's radius, or the class and message of its refusal."""
    try:
        return search(ff.PotentialParams(*sigmas)).radius.hex()
    except OctavibError as exc:
        return type(exc), str(exc)


BOX_AND_WIDE = (*SIGMAS, *wide_grid(400))


def test_radius_has_the_bits_of_the_float64_search():
    # the extremes below include σ with no equilibrium on the grid
    extremes = [tuple(map(float, s)) for s in EXTREMES]
    outcomes = [
        (outcome(ff.find_equilibrium, s), outcome(numpy_scalar_equilibrium, s))
        for s in (*BOX_AND_WIDE, *extremes)
    ]
    assert all(got == want for got, want in outcomes)
    refused = [got for got, _ in outcomes if not isinstance(got, str)]
    assert 0 < len(refused) < len(outcomes)  # both ends are compared


def test_search_grid_is_read_only_geomspace():
    grid = ff.search_grid()
    assert grid is ff.search_grid()
    assert not grid.flags.writeable
    want = np.geomspace(ff.SEARCH_LO, ff.SEARCH_HI, 200)
    assert grid.tobytes() == want.tobytes()


def request_spectra():
    """(equilibrium, convention, closed-form report or its ShapeError, the
    projection's report or its ShapeError) over the box and the wide grid,
    where the equilibrium exists."""
    for sigmas in BOX_AND_WIDE:
        try:
            eq = ff.find_equilibrium(ff.PotentialParams(*sigmas))
        except SearchFailureError:
            continue
        for convention in CONVENTIONS:
            reports = []
            for build in (
                lambda: spectral.spectrum_at_equilibrium(eq, convention),
                lambda: spectral.numeric_spectrum(
                    ff.hessian_blocks(eq.params, eq.radius, convention)
                ),
            ):
                try:
                    reports.append(build())
                except ShapeError as exc:
                    reports.append(exc)
            yield eq, convention, *reports


def test_closed_form_lines_and_order_equal_the_projection():
    # two lines may trade places only when their alpha^2 lie within the
    # rounding of the largest: 6 (exactly 0 in closed form) and a 7 that
    # cancels to 0 +- 2e5 next to alpha^2 of 1e21, in 10 of the 900 spectra
    count, swapped = 0, 0
    for eq, convention, closed, numeric in request_spectra():
        if isinstance(numeric, ShapeError):
            assert str(closed) == str(numeric)
            continue
        scale = max(abs(ln.alpha_sq) for ln in numeric.lines)
        got, want = closed.alpha_sq, numeric.alpha_sq
        assert got.keys() == want.keys()
        assert all(abs(got[j] - want[j]) <= 1e-13 * scale for j in got)
        rank = {ln.label: n for n, ln in enumerate(numeric.lines)}
        order = [ln.label for ln in closed.lines]
        for n, lower in enumerate(order):
            for upper in order[n + 1 :]:
                if rank[lower] > rank[upper]:
                    assert got[upper] - got[lower] <= 1e-16 * scale
        swapped += order != list(rank)
        assert [B.shape for B in map(closed.basis_for, order)] == [
            (18, MULTIPLICITIES[j]) for j in order
        ]
        for j in order:
            # the columns of 0, 4, 6, 8 and 9 are those of ``BASES``; the
            # turned copies of 7 agree as the Schur numbers do
            assert np.abs(closed.basis_for(j) - numeric.basis_for(j)).max() <= 1e-8
        count += 1
    assert count > 2 * len(SIGMAS)
    assert swapped <= 10


def exact_lines(eq, convention):
    """Each line's alpha^2 at 50 digits from the float stiffness constants
    (and radius), with the same sums over the absolute values of their terms
    as the scale the float value is rounded against."""
    with mpmath.workdps(50):
        a, b, c, d, e = map(mpmath.mpf, ff.stiffness(eq.params, eq.radius))
        if convention == "reported":
            coeffs = (2 * a, 2 * b, 2 * c, e, d)
        else:
            s = 2 * mpmath.mpf(eq.radius) ** 2
            coeffs = (2 * s * a, 2 * s * b, 2 * s * c, 2 * e, 2 * d)

        def lines(qa, qb, qc, ia, ib, sign):
            # sign -1 gives the values, +1 with absolute coefficients the scales
            p, r = 4 * qa + qc + sign * 2 * ib, 2 * qa + sign * 2 * (ia + ib)
            q = mpmath.sqrt(8) * (qa + ia)
            mid, half = (p + r) / 2, mpmath.sqrt(((p + sign * r) / 2) ** 2 + q * q)
            return {
                "0": 8 * qa + 8 * qb + qc, "4": 2 * qa + 8 * qb + qc, "8": 4 * qa,
                "9": 2 * qa + 2 * ia + sign * 2 * ib,
                "7": mid + sign * half, "7*": mid + half,
            }

        values = lines(*coeffs, -1)
        scales = lines(*map(abs, coeffs), 1)
        return {j: (values[j], float(scales[j])) for j in values}


def test_alpha_sq_within_three_ulp_of_the_50_digit_value():
    # an ulp of the sum of the absolute values of the line's terms: the
    # projection of the block Hessian reached 5.1 ulp on the box and 1,319
    # on the wide grid
    worst = 0.0
    for eq, convention, closed, _ in request_spectra():
        if isinstance(closed, ShapeError):
            continue
        exact = exact_lines(eq, convention)
        for ln in closed.lines:
            if ln.label == "6":
                assert ln.alpha_sq == 0.0
                continue
            value, scale = exact[ln.label]
            err = abs(mpmath.mpf(ln.alpha_sq) - value) / math.ulp(scale)
            worst = max(worst, float(err))
    assert 1.0 < worst <= 3.0  # 1.46 on the box, 2.46 on the wide grid


def test_request_reads_its_spectra_without_a_matrix(monkeypatch):
    def matrix(*args, **kwargs):
        raise AssertionError("the request assembled or projected a block Hessian")

    monkeypatch.setattr(spectral, "numeric_spectrum", matrix)
    monkeypatch.setattr(ff, "blocks_from_stiffness", matrix)
    monkeypatch.setattr(ff, "hessian_blocks", matrix)
    for sigmas in SIGMAS:
        request = bifurcation.Request(ff.PotentialParams(*sigmas))
        assert len(request.spectrum.lines) == len(request.cartesian_spectrum.lines) == 7


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


def spectrum_of(sigmas, convention):
    r0, coeffs = stiffness_at(sigmas)
    H = ff.blocks_from_stiffness(*coeffs, convention=convention, r0=r0)
    return H, spectral.numeric_spectrum(H)


@pytest.mark.parametrize("sigmas", SIGMAS, ids=IDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_labels_equal_the_per_cluster_characters(sigmas, convention):
    _, report = spectrum_of(sigmas, convention)
    labels = [ln.label for ln in report.lines]
    assert per_cluster_labels(report) == labels
    assert [ln.label for ln in spectral.assign_eigenspaces(report).lines] == labels


@pytest.mark.parametrize("sigmas", SIGMAS, ids=IDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_single_copy_components_are_eigenspaces(sigmas, convention):
    H, report = spectrum_of(sigmas, convention)
    scale = max(abs(ln.alpha_sq) for ln in report.lines)
    for label in ("0", "4", "6", "8", "9"):
        B = spectral.BASES[label]
        residual = H @ B - report.alpha_sq[label] * B
        assert np.abs(residual).max() <= 1e-12 * scale


def schur_residual(H):
    """max|Q^T H Q - its Schur form|, the form rebuilt from the projection."""
    M = (spectral.Q.T @ H @ spectral.Q).ravel()
    return np.abs(M - spectral._DUAL @ M @ spectral._PATTERNS).max()


@pytest.mark.parametrize("sigmas", SIGMAS, ids=IDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_block_hessians_commute_far_inside_the_tolerance(sigmas, convention):
    # the equivariance refusal leaves every block Hessian of the box accepted
    H, _ = spectrum_of(sigmas, convention)
    assert schur_residual(H) <= 1e-5 * spectral.EQUIVARIANCE_RTOL * np.abs(H).max()


def accepted_spectra():
    """(H, report) of both conventions at the seed-1 box, the reference σ,
    σ = 0 and the 400 draws of the wide grid, where the equilibrium exists."""
    for sigmas in (*SIGMAS, *wide_grid(400)):
        try:
            r0, coeffs = stiffness_at(sigmas)
        except SearchFailureError:
            continue
        for convention in CONVENTIONS:
            H = ff.blocks_from_stiffness(*coeffs, convention=convention, r0=r0)
            yield H, spectral.numeric_spectrum(H)


def test_closed_form_seven_equals_the_6x6_eigensolver():
    # the 2x2 in closed form against ``eigh`` of the block of the two copies
    # of 7: the means of its lower and upper three eigenvalues, and the
    # columns of each line are eigenvectors of H
    count = 0
    for H, report in accepted_spectra():
        scale = np.abs(H).max()
        w = np.linalg.eigvalsh((spectral.Q.T @ H @ spectral.Q)[6:12, 6:12])
        for label, part in (("7", w[:3]), ("7*", w[3:])):
            assert abs(report.alpha_sq[label] - part.mean()) <= 1e-14 * scale
            B = report.basis_for(label)
            assert np.abs(H @ B - report.alpha_sq[label] * B).max() <= 1e-14 * scale
        count += 1
    assert count > 2 * len(SIGMAS)


@pytest.mark.parametrize("sigmas", SIGMAS, ids=IDS)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_alpha_sq_equal_the_sorted_eigenvalues(sigmas, convention):
    H, report = spectrum_of(sigmas, convention)
    lines = np.repeat([ln.alpha_sq for ln in report.lines],
                      [ln.multiplicity for ln in report.lines])
    dense = np.linalg.eigvalsh(H)
    assert np.abs(lines - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("sigmas", SIGMAS, ids=IDS)
def test_spectrum_json_equals_the_nested_lists(sigmas):
    _, report = spectrum_of(sigmas, "reported")
    doc = {
        "eigenvalues": [
            {"j": ln.label, "alpha_sq": ln.alpha_sq, "multiplicity": ln.multiplicity}
            for ln in report.lines
        ],
        "basis": [list(col) for col in report.basis.T],
    }
    assert report.to_json() == dumps(doc)
    unlabeled = report._replace(basis=None)
    assert unlabeled.to_json() == dumps({"eigenvalues": doc["eigenvalues"]})


def test_spectrum_json_equals_dumps_of_the_whole_document():
    # the rows of 0, 4, 6, 8 and 9 come from a table formatted once; a basis
    # whose columns are not in it (negated) is formatted row by row
    count = 0
    for _, _, closed, numeric in request_spectra():
        for report in (closed, numeric, closed._replace(basis=-closed.basis)):
            doc = {
                "eigenvalues": [
                    {"j": ln.label, "alpha_sq": ln.alpha_sq, "multiplicity": ln.multiplicity}
                    for ln in report.lines
                ],
                "basis": report.basis.T,
            }
            assert report.to_json() == dumps(doc)
        count += 1
    assert count > 2 * len(SIGMAS)


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


@pytest.mark.parametrize("sigmas", [SIGMAS[48], *(SIGMAS[i] for i in (0, 10, 16))],
                         ids=["reference", "draw0", "draw10", "draw16"])
def test_seven_pairs_are_fixed_and_span_the_direct_null_space(sigmas):
    # independent of the first copy's table: the pairs of blocks 7 and 7*
    # are fixed by every element, and span the null space of a full SVD
    # taken on the block's own columns
    shop = modes.ModeWorkshop(ff.PotentialParams(*sigmas))
    for j in ("7", "7*"):
        B = shop.spectrum.basis_for(j)
        P = np.zeros((36, 6))
        P[:18, :3] = B
        P[18:, 3:] = B
        for type_class in shop.types_for(j):
            els = sorted(shop.ring.representative(type_class).elements)
            pairs = shop.fixed_pairs(type_class, j)
            got = np.array([np.concatenate(pair) for pair in pairs])
            for x in els:
                assert np.abs(got @ pair_operator(x).T - got).max() <= 1e-12
            M = np.vstack([P.T @ pair_operator(x) @ P - np.eye(6) for x in els])
            _, sv, Vt = np.linalg.svd(M)
            null = P @ Vt[sv.size - np.sum(sv < 1e-10) :].T
            assert got.shape[0] == null.shape[1] > 0
            assert np.abs(got.T @ got - null @ null.T).max() <= 1e-12


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
    # stderr holds the refusal line naming σ and nothing else; (0.1, 1e5, 1)
    # passes the block Hessian's criticality check, whose residual is rounding
    # next to its summands, and `critical` refuses it as a resonance between
    # blocks 6 and 7: alpha^2_7 = 660 is below the rounding of alpha^2 = 4.9e16
    _assert_result_or_numerical_refusal(code, err.getvalue(), sigmas)


def _assert_result_or_numerical_refusal(code, err, sigmas):
    assert code in (0, 1), err
    if code == 0:
        assert err == ""
        return
    named = ", ".join(f"sigma{i}={float(s)!r}" for i, s in enumerate(sigmas, 1))
    assert err.startswith("numerical failure: ")
    assert err.endswith(f" ({named})\n")
    assert err.count("\n") == 1


WIDE_COMMANDS = (
    ["equilibrium"], ["spectrum"], ["critical"], ["census"],
    ["invariant", "--j", "8"], ["modes", "--j", "8", "--k", "1"],
)

# what a wide-grid command may refuse: a non-positive alpha^2, a resonance
# between isotypic blocks, an amplitude beyond the collision-safe bound, or
# an equilibrium search that finds no bracket
WIDE_REFUSAL = re.compile(
    r"numerical failure: (block \S+ has alpha\^2 = \S+ <= 0"
    r"|resonance between isotypic blocks \S.*"
    r"|amplitude \S+ exceeds the collision-safe bound .*"
    r"|no sign change of phi' .*) \(sigma1="
)


@pytest.mark.parametrize("sigmas", wide_grid(), ids=[f"wide{i}" for i in range(200)])
def test_wide_grid_ends_in_a_result_or_a_numerical_refusal(tmp_path, sigmas):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("".join(f"sigma{i}={s!r}\n" for i, s in enumerate(sigmas, 1)))
    for argv in WIDE_COMMANDS:
        if argv[0] == "modes":
            argv = [*argv, "--out", str(tmp_path / "modes")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(cfg), *argv])
        err = err.getvalue()
        _assert_result_or_numerical_refusal(code, err, sigmas)
        if argv[0] == "spectrum":
            assert code == 0, err  # every draw has its seven labeled lines
        if code:
            assert WIDE_REFUSAL.match(err), err
            assert "share one eigenspace" not in err
