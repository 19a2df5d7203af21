import numpy as np
import pytest

from octavib import bifurcation
from octavib import force_field as ff
from octavib import group_core as gc
from octavib import spectral
from octavib._serialize import format_float
from octavib.errors import LabelingError, NumericalError, ShapeError

from conftest import UNSTABLE_REPORTED_9, sweep_box
from oracles import (
    MULTIPLICITIES,
    InvalidCharacterError,
    StiffnessCoefficients,
    action_character,
    closed_form_spectrum,
    isotypic_multiplicities,
)

REFERENCE_ALPHA_SQ = {
    "0": 0.7867,
    "4": 0.5123,
    "7": 0.2532,
    "7*": 0.5882,
    "8": 0.1829,
    "9": 0.01173,
}


class TestClosedForm:
    def test_reference_values(self, coefficients):
        report = closed_form_spectrum(coefficients)
        values = report.alpha_sq
        for j, ref in REFERENCE_ALPHA_SQ.items():
            assert values[j] == pytest.approx(ref, abs=1e-3)
        assert values["6"] == 0.0

    def test_multiplicities_sum(self, coefficients):
        report = closed_form_spectrum(coefficients)
        assert sum(ln.multiplicity for ln in report.lines) == 18
        assert {ln.label: ln.multiplicity for ln in report.lines} == {
            "0": 1, "4": 2, "6": 3, "7": 3, "7*": 3, "8": 3, "9": 3,
        }

    def test_zero_coefficients(self):
        z = StiffnessCoefficients(0, 0, 0, 0, 0)
        report = closed_form_spectrum(z)
        assert all(ln.alpha_sq == 0 for ln in report.lines)

    def test_random_coefficients_match_dense_eigensolver(self, rng):
        for _ in range(10):
            a, b, c = rng.uniform(0.05, 1.0, size=3)
            d, e = rng.uniform(-0.5, 0.0, size=2)
            co = StiffnessCoefficients(a, b, c, d, e)
            H = ff.blocks_from_stiffness(a, b, c, d, e)
            closed = sorted(
                ln.alpha_sq
                for ln in closed_form_spectrum(co).lines
                for _ in range(ln.multiplicity)
            )
            dense = np.linalg.eigvalsh(H)
            assert np.allclose(closed, dense, atol=1e-10)


class TestNumericSpectrum:
    def test_multiplicity_pattern_at_equilibrium(self, params, equilibrium):
        H = ff.hessian_blocks(params, equilibrium.radius)
        report = spectral.numeric_spectrum(H)
        pattern = sorted(ln.multiplicity for ln in report.lines)
        assert pattern == [1, 2, 3, 3, 3, 3, 3]
        # the rotation-tangent line is zero up to the rounding of H
        scale = max(abs(v) for v in report.alpha_sq.values())
        assert abs(report.alpha_sq["6"]) < 1e-15 * scale
        assert {ln.label: ln.multiplicity for ln in report.lines}["6"] == 3

    def test_identity_matrix(self):
        # every component is a line of its own, whatever the alpha^2
        report = spectral.numeric_spectrum(np.eye(18))
        assert {ln.label: ln.multiplicity for ln in report.lines} == MULTIPLICITIES
        assert all(ln.alpha_sq == pytest.approx(1.0) for ln in report.lines)
        assert np.allclose(report.basis.T @ report.basis, np.eye(18), atol=1e-12)

    def test_asymmetric_rejected(self):
        M = np.eye(18)
        M[0, 1] = 1e-3
        with pytest.raises(ShapeError):
            spectral.numeric_spectrum(M)

    def test_symmetry_is_relative_to_the_matrix(self):
        # asymmetry at the rounding of a large matrix passes; the same
        # relative asymmetry on a small one is refused
        big = 1e12 * np.eye(18)
        big[0, 1] += 1e-2
        assert spectral.numeric_spectrum(big).alpha_sq["0"] == pytest.approx(1e12)
        small = 1e-12 * np.eye(18)
        small[0, 1] += 1e-15
        with pytest.raises(ShapeError, match="not symmetric"):
            spectral.numeric_spectrum(small)

    def test_non_equivariant_matrix_refused(self):
        A = np.random.default_rng(0).normal(size=(18, 18))
        with pytest.raises(ShapeError, match="does not commute"):
            spectral.numeric_spectrum(A + A.T)

    def test_off_block_entry_refused_beyond_the_tolerance(self):
        Q = spectral.Q
        R = schur_form(np.arange(1.0, 9.0))
        R[0, 17] = R[17, 0] = 1e-3 * spectral.EQUIVARIANCE_RTOL
        spectral.numeric_spectrum(Q @ R @ Q.T)
        R[0, 17] = R[17, 0] = 1e3 * spectral.EQUIVARIANCE_RTOL
        with pytest.raises(ShapeError, match="does not commute"):
            spectral.numeric_spectrum(Q @ R @ Q.T)

    def test_matrix_not_constant_on_a_block_refused(self):
        # every entry of Q^T H Q lies in a component block, but the blocks are
        # not alpha^2 times the identity: H does not commute with the action
        Q = spectral.Q
        H = Q @ np.diag(np.arange(1.0, 19.0)) @ Q.T
        assert max(np.abs(G @ H - H @ G).max() for G in gc.actions_18()) > 1
        with pytest.raises(ShapeError, match="does not commute"):
            spectral.numeric_spectrum(H)
        # a 6x6 block of the two copies of 7 that is no 2x2 times I_3
        A = np.random.default_rng(1).normal(size=(6, 6))
        R = schur_form(np.arange(1.0, 9.0))
        R[6:12, 6:12] += A + A.T
        with pytest.raises(ShapeError, match="does not commute"):
            spectral.numeric_spectrum(Q @ R @ Q.T)

    def test_both_copies_of_7_may_mix(self):
        # any 2x2 [[p, q], [q, r]] on the radial and tangential copies
        rng = np.random.default_rng(1)
        for p, q, r in rng.normal(size=(20, 3)):
            values = np.array([10.0, 11.0, 12.0, 13.0, 14.0, p, q, r])
            report = spectral.numeric_spectrum(equivariant_matrix(values))
            assert {ln.label for ln in report.lines} == set(MULTIPLICITIES)
            w = np.linalg.eigvalsh([[p, q], [q, r]])
            assert report.alpha_sq["7"] == pytest.approx(w[0], abs=1e-14)
            assert report.alpha_sq["7*"] == pytest.approx(w[1], abs=1e-14)

    @pytest.mark.parametrize("p, r", [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5)],
                             ids=["p<r", "p>r", "p=r"])
    def test_uncoupled_copies_of_7(self, p, r):
        # q = 0: the copies do not mix, and the lower (or the first of two
        # equal) alpha^2 is labeled "7"
        values = np.array([10.0, 11.0, 12.0, 13.0, 14.0, p, 0.0, r])
        report = spectral.numeric_spectrum(equivariant_matrix(values))
        labels = [ln.label for ln in report.lines]
        assert labels[:2] == ["7", "7*"]
        assert np.isfinite([ln.alpha_sq for ln in report.lines]).all()
        assert report.alpha_sq["7"] == pytest.approx(min(p, r), abs=1e-14)
        assert report.alpha_sq["7*"] == pytest.approx(max(p, r), abs=1e-14)
        if p != r:  # the lower copy is the line "7"
            lower = spectral.BASES["7"] if p < r else spectral._TANGENTIAL_7
            B = report.basis_for("7")
            assert np.abs(B @ B.T - lower @ lower.T).max() <= 1e-15

    def test_zero_space_is_rotation_tangent(self, params, equilibrium):
        H = ff.hessian_blocks(params, equilibrium.radius)
        labeled = spectral.assign_eigenspaces(spectral.numeric_spectrum(H))
        Z = labeled.basis_for("6")
        J = [
            np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], float),
            np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], float),
            np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], float),
        ]
        pos = equilibrium.configuration
        T = np.array([np.concatenate([Ji @ pos[k] for k in range(6)]) for Ji in J]).T
        proj = Z @ Z.T
        assert np.linalg.norm(proj @ T - T) < 1e-8

    def test_closed_vs_numeric_relative(self, params, equilibrium, coefficients):
        H = ff.hessian_blocks(params, equilibrium.radius)
        labeled = spectral.assign_eigenspaces(spectral.numeric_spectrum(H))
        closed = closed_form_spectrum(coefficients).alpha_sq
        scale = max(abs(v) for v in closed.values())
        for ln in labeled.lines:
            assert abs(ln.alpha_sq - closed[ln.label]) < 1e-8 * scale

    def test_trace_identity(self, params, equilibrium, coefficients):
        H = ff.hessian_blocks(params, equilibrium.radius)
        v = closed_form_spectrum(coefficients).alpha_sq
        expected = v["0"] + 2 * v["4"] + 3 * (v["7"] + v["7*"] + v["8"] + v["9"])
        assert np.trace(H) == pytest.approx(expected, abs=1e-8)


class TestIsotypic:
    def test_action_character_decomposition(self):
        chi = action_character()
        assert chi == (18, 0, 0, 2, -2, 4, 0, 0, 2, 0)
        assert isotypic_multiplicities(chi) == (1, 0, 0, 0, 1, 0, 1, 2, 1, 1)

    def test_trivial_character(self):
        assert isotypic_multiplicities((1,) * 10) == (
            1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        )

    def test_regular_character(self):
        mult = isotypic_multiplicities((48, 0, 0, 0, 0, 0, 0, 0, 0, 0))
        assert mult == tuple(row[0] for row in gc.CHARACTER_TABLE)

    def test_invalid_character(self):
        with pytest.raises(InvalidCharacterError):
            isotypic_multiplicities((17, 0, 0, 2, -2, 4, 0, 0, 2, 0))


def projector(j):
    """P_j = (dim chi_j / |G|) sum_g chi_j(g) g over the 48 elements."""
    chi = [gc.CHARACTER_TABLE[j][gc.ELEMENT_CLASS[g]] for g in range(gc.N)]
    return chi[0] / gc.N * sum(c * gc.action_matrix_18(g) for g, c in enumerate(chi))


def eigh_component(label, copies):
    """An orthonormal basis of the range of P_j from ``eigh``: the columns of
    the eigenvalue 1 (oracle for the spans of the exact basis)."""
    j = gc.IRREP_NAMES.index(label)
    V = np.linalg.eigh(projector(j))[1]  # eigenvalues 0, then 1 on the range
    return V[:, 18 - copies * gc.CHARACTER_TABLE[j][0] :]


def schur_form(values):
    """The 18x18 Schur form of the eight numbers, in the coordinates of Q."""
    return (values @ spectral._PATTERNS).reshape(18, 18)


def equivariant_matrix(values):
    """The equivariant matrix whose Schur form holds the eight numbers."""
    return spectral.Q @ schur_form(values) @ spectral.Q.T


class TestIsotypicBasis:
    def test_orthonormal(self):
        assert np.abs(spectral.Q.T @ spectral.Q - np.eye(18)).max() <= 2.3e-16

    def test_entries_are_exact(self):
        # within 1 ulp of 0 or of +-1/sqrt(k) for k in 1, 2, 3, 4, 6, 12
        exact = np.array([0.0] + [1 / np.sqrt(k) for k in (1, 2, 3, 4, 6, 12)])
        entries = np.abs(spectral.Q).ravel()
        nearest = exact[np.argmin(np.abs(entries[:, None] - exact), axis=1)]
        assert (np.abs(entries - nearest) <= np.spacing(nearest)).all()

    def test_components_span_the_projector_ranges(self):
        counts = isotypic_multiplicities(action_character())
        copies = {gc.IRREP_NAMES[j]: m for j, m in enumerate(counts) if m}
        assert copies == {"0": 1, "4": 1, "6": 1, "7": 2, "8": 1, "9": 1}
        assert list(spectral.BASES) == list(copies)
        for label, m in copies.items():
            B = spectral.BASES[label]
            if label == "7":
                B = np.hstack([B, spectral._TANGENTIAL_7])
            V = eigh_component(label, m)
            assert B.shape == V.shape
            assert np.abs(B @ B.T - V @ V.T).max() <= 1e-14
            P = projector(gc.IRREP_NAMES.index(label))
            assert np.abs(B @ B.T - P).max() <= 1e-14

    def test_copies_of_7_carry_the_same_matrices(self):
        rad, tan = spectral.BASES["7"], spectral._TANGENTIAL_7
        assert np.abs(rad.T @ tan).max() == 0
        # equal up to the rounding of 2 (1/sqrt(2))^2
        for G in gc.actions_18():
            assert np.abs(rad.T @ G @ rad - tan.T @ G @ tan).max() <= 2 * np.spacing(1.0)

    def test_columns_are_the_basis_of_the_lines(self, labeled_spectrum):
        for label, B in spectral.BASES.items():
            if label != "7":
                assert np.array_equal(labeled_spectrum.basis_for(label), B)
        seven = np.hstack([labeled_spectrum.basis_for(j) for j in ("7", "7*")])
        B = np.hstack([spectral.BASES["7"], spectral._TANGENTIAL_7])
        assert np.allclose(seven @ seven.T, B @ B.T, atol=1e-14)


class TestAssign:
    def test_labels(self, labeled_spectrum, coefficients):
        closed = closed_form_spectrum(coefficients).alpha_sq
        for ln in labeled_spectrum.lines:
            assert ln.alpha_sq == pytest.approx(closed[ln.label], abs=1e-9)

    def test_seven_pair_equivalent(self, labeled_spectrum):
        labels = [ln.label for ln in labeled_spectrum.lines]
        assert "7" in labels and "7*" in labels
        a7 = labeled_spectrum.alpha_sq["7"]
        a7s = labeled_spectrum.alpha_sq["7*"]
        assert a7 < a7s

    def test_projector_commutes_with_action(self, labeled_spectrum):
        for label in ("0", "4", "8"):
            B = labeled_spectrum.basis_for(label)
            P = B @ B.T
            for g in gc.CLASS_REPS:
                G = gc.action_matrix_18(g)
                assert np.linalg.norm(P @ G - G @ P) < 1e-8

    def test_slice_multiplicities(self, labeled_spectrum):
        # nonzero part of the spectrum = action decomposition minus the
        # three-dimensional rotation-tangent component
        scale = max(abs(v) for v in labeled_spectrum.alpha_sq.values())
        counts = {}
        for ln in labeled_spectrum.lines:
            if ln.alpha_sq > 1e-12 * scale:
                counts[ln.label] = counts.get(ln.label, 0) + 1
        assert counts == {"0": 1, "4": 1, "7": 1, "7*": 1, "8": 1, "9": 1}

    def test_nonpositive_reported_line_refused(self):
        eq = ff.find_equilibrium(ff.PotentialParams(*UNSTABLE_REPORTED_9))
        report = spectral.spectrum_at_equilibrium(eq)
        assert report.alpha_sq["9"] < 0
        with pytest.raises(spectral.NonPositiveFrequencyError, match="block 9 ") as exc:
            report.alphas()
        assert isinstance(exc.value, NumericalError)
        assert repr(report.alpha_sq["9"]) in str(exc.value)
        cartesian = spectral.spectrum_at_equilibrium(eq, convention="cartesian")
        assert cartesian.alpha_sq["9"] > 0

    def test_one_block_frequency(self, labeled_spectrum):
        alphas = labeled_spectrum.alphas()
        assert {j: labeled_spectrum.alpha(j) for j in alphas} == alphas
        with pytest.raises(KeyError):
            labeled_spectrum.alpha("3")
        # the other blocks of a spectrum with a negative line still answer
        eq = ff.find_equilibrium(ff.PotentialParams(*UNSTABLE_REPORTED_9))
        report = spectral.spectrum_at_equilibrium(eq)
        assert report.alpha("0") == np.sqrt(report.alpha_sq["0"])
        with pytest.raises(spectral.NonPositiveFrequencyError, match="block 9 "):
            report.alpha("9")

    def test_eigenspace_that_does_not_decompose_is_a_labelling_bug(self):
        # one coordinate axis spans no invariant subspace
        line = spectral.SpectrumLine("?", 1.0, 1)
        report = spectral.SpectrumReport(lines=(line,), basis=np.eye(18)[:, :1])
        with pytest.raises(LabelingError, match="matches no irreducible character"):
            spectral.assign_eigenspaces(report)

    def test_blocks_sharing_one_alpha_sq_are_a_labelling_bug(self, labeled_spectrum):
        # blocks 7 and 7* as one line: twice the character of irrep 7
        pair = [ln for ln in labeled_spectrum.lines if ln.label in ("7", "7*")]
        basis = np.hstack([labeled_spectrum.basis_for(ln.label) for ln in pair])
        report = spectral.SpectrumReport(
            lines=(spectral.SpectrumLine("?", 2.5, 6),), basis=basis
        )
        with pytest.raises(LabelingError, match="at 2.5 matches no irreducible"):
            spectral.assign_eigenspaces(report)

    def test_json_roundtrip(self, labeled_spectrum):
        import json

        doc = json.loads(labeled_spectrum.to_json())
        assert len(doc["eigenvalues"]) == 7
        assert len(doc["basis"]) == 18
        labels = {row["j"] for row in doc["eigenvalues"]}
        assert labels == {"0", "4", "6", "7", "7*", "8", "9"}

    def test_json_matches_value_by_value_oracle(self, labeled_spectrum):
        # the eigenbasis is one more 2-D float array for ``dumps``: at the
        # reference and at every accepted draw of the seed-1 sweep box, each
        # basis column is the JSON list of its values, each by format_float
        reports = [labeled_spectrum]
        for sigmas in sweep_box():
            eq = ff.find_equilibrium(ff.PotentialParams(*sigmas))
            report = spectral.spectrum_at_equilibrium(eq)
            try:
                bifurcation.checked_frequencies(report)
            except NumericalError:
                continue
            reports.append(report)
        assert len(reports) == 1 + 43
        for report in reports:
            lines = ",".join(
                f'{{"alpha_sq":{format_float(ln.alpha_sq)},"j":"{ln.label}",'
                f'"multiplicity":{ln.multiplicity}}}'
                for ln in report.lines
            )
            columns = ",".join(
                "[" + ",".join(map(format_float, column)) + "]"
                for column in report.basis.T.tolist()
            )
            want = f'{{"basis":[{columns}],"eigenvalues":[{lines}]}}'
            assert report.to_json() == want
