import math
import re
from collections import Counter

import numpy as np
import pytest

from octavib import bifurcation as bf
from octavib import force_field as ff
from octavib import orbit_o2 as o2
from octavib import spectral
from octavib import cli
from octavib.errors import CatalogError, ResonanceError

from test_acceptance import EXPECTED_CENSUS

REFERENCE_PREFIX = [
    ("0", 1), ("7*", 1), ("4", 1), ("7", 1), ("0", 2), ("8", 1), ("7*", 2), ("4", 2),
]


def sweep_box(n=48):
    """The first n σ draws of the benchmark's sweep box (seed 1)."""
    rng = np.random.default_rng(1)
    reference = ff.REFERENCE_PARAMS
    return [
        tuple(
            s * math.exp(rng.uniform(-0.5, 0.5))
            for s in (reference.sigma1, reference.sigma2, reference.sigma3)
        )
        for _ in range(n)
    ]


def engine_at(sigmas):
    eq = ff.find_equilibrium(ff.PotentialParams(*sigmas))
    return bf.engine_from_spectrum(spectral.spectrum_at_equilibrium(eq))


class TestCriticalSet:
    def test_reference_prefix(self, labeled_spectrum):
        crit = bf.critical_set(labeled_spectrum.alphas(), 3.0)
        assert [(c.j, c.l) for c in crit[:8]] == REFERENCE_PREFIX

    def test_single_frequency(self):
        crit = bf.critical_set({"0": 1.0}, 5.5)
        assert [(c.l, c.value) for c in crit] == [
            (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), (5, 5.0),
        ]

    def test_values_match_direct_ratio(self, labeled_spectrum):
        alphas = labeled_spectrum.alphas()
        crit = bf.critical_set(alphas, 12.0)
        assert len(crit) >= 30
        for c in crit[:30]:
            assert c.value == pytest.approx(c.l / alphas[c.j], rel=1e-12)
        values = [c.value for c in crit]
        assert values == sorted(values)

    def test_ties_reported(self):
        crit = bf.critical_set({"a": 1.0, "b": 0.5}, 4.0)
        ties = bf.ordering_ties(crit)
        assert len(ties) == 2  # lambda=2 and lambda=4 coincide across blocks
        assert {(c.j, c.l) for c in ties[0]} == {("a", 2), ("b", 1)}

    def test_position_of_slowest_block(self, labeled_spectrum):
        alphas = labeled_spectrum.alphas()
        lam91 = 1 / alphas["9"]
        crit = bf.critical_set(alphas, lam91 + 1e-9)
        assert (crit[-1].j, crit[-1].l) == ("9", 1)
        assert len(crit) == 29  # the slowest block enters 29th


class TestNonresonance:
    def test_reference_is_nonresonant(self, labeled_spectrum):
        ok, witness = bf.check_isotypic_nonresonance(labeled_spectrum)
        assert ok and witness is None

    def test_forced_coincidence(self, labeled_spectrum):
        lines = []
        for ln in labeled_spectrum.lines:
            if ln.label == "4":
                lines.append(spectral.SpectrumLine("4", labeled_spectrum.alpha_sq["8"], 2))
            else:
                lines.append(ln)
        broken = spectral.SpectrumReport(lines=tuple(lines))
        ok, witness = bf.check_isotypic_nonresonance(broken)
        assert not ok
        assert set(witness) == {"4", "8"}

    def test_random_sweep_matches_direct_comparison(self, rng):
        for _ in range(50):
            vals = rng.uniform(0.05, 1.0, size=6)
            if rng.random() < 0.4:
                vals[3] = vals[1]  # inject a resonance
            labels = ("0", "4", "7", "7*", "8", "9")
            lines = tuple(
                spectral.SpectrumLine(lb, float(v), 3)
                for lb, v in zip(labels, vals)
            )
            report = spectral.SpectrumReport(lines=lines)
            ok, _ = bf.check_isotypic_nonresonance(report)
            direct = all(
                abs(vals[i] - vals[k]) > 1e-9 * vals.max()
                for i in range(6)
                for k in range(i + 1, 6)
            )
            assert ok == direct


class TestFactors:
    def test_factor_lists(self, labeled_spectrum):
        alphas = labeled_spectrum.alphas()
        assert bf.factors_before("0", alphas) == []
        assert bf.factors_before("7*", alphas) == [("0", 1)]
        assert bf.factors_before("4", alphas) == [("0", 1), ("7*", 1)]
        assert bf.factors_before("7", alphas) == [("0", 1), ("7*", 1), ("4", 1)]
        assert len(bf.factors_before("9", alphas)) == 28

    def test_resonant_crossing_refused(self):
        alphas = {"0": 1.0, "4": 0.5, "7": 0.3, "7*": 0.8, "8": 0.25, "9": 0.1}
        with pytest.raises(ResonanceError):
            bf.factors_before("4", alphas)  # lambda(0,2) == lambda(4,1)


@pytest.fixture(scope="module")
def reports(engine):
    return {j: engine.report(j) for j in ("0", "7*", "4")}


class TestInvariants:
    def test_block0_exact(self, reports):
        rep = reports["0"]
        assert rep.invariant.unit == 0
        assert len(rep.invariant.coeffs) == 1
        assert rep.maximal_types == (("D_1 x S_4^p", -1, 2),)

    def test_block7s_display_terms(self, reports):
        got = {label: coeff for label, coeff, _ in reports["7*"].maximal_types}
        assert got == {
            "D_6^{Z_1} x_{D_3^p} D_3^p": -1,
            "D_4^{Z_1} x^{Z_2^-} D_4^p": -1,
            "D_2^{D_1} x^{D_2^d} D_2^p": -1,
            "D_2^{D_1} x^{D_3^z} D_3^p": -1,
            "D_2^{D_1} x^{D_4^z} D_4^p": -1,
        }

    def test_block4_display_terms(self, reports):
        got = {label: coeff for label, coeff, _ in reports["4"].maximal_types}
        assert got == {
            "D_2^{D_1} x^{V_4^p} D_4^p": -1,
            "D_1 x D_4^p": 1,
            "D_3^{Z_1} x_{D_3}^{V_4^p} S_4^p": -1,
        }

    def test_coefficients_in_law_range(self, reports):
        for rep in reports.values():
            for _, coeff, weyl in rep.maximal_types:
                assert coeff != 0
                assert abs(coeff) in (1, 2)
                assert abs(coeff) == 2 // weyl

    def test_fast_path_agreement(self, reports):
        for rep in reports.values():
            assert rep.agreement(), rep.j

    def test_reference_label_sets(self, reports):
        for j, rep in reports.items():
            assert {lb for lb, _, _ in rep.maximal_types} == set(rep.reference_labels)

    def test_full_product_agreement_on_later_blocks(self, engine):
        # beyond the required trio, the five-factor block-8 product (which
        # crosses a second Fourier mode) must also agree with the fast path
        for j in ("7", "8"):
            rep = engine.report(j, full=True)
            assert rep.agreement(), j
            got = {lb for lb, _, _ in rep.maximal_types}
            assert got == set(rep.reference_labels)
            for _, coeff, weyl in rep.maximal_types:
                assert abs(coeff) == 2 // weyl


class TestSweepBox:
    """Every parameter set of the benchmark's sweep box ends in a result or a refusal."""

    def test_fast_reports_or_documented_refusals(self):
        outcomes = Counter()
        for sigmas in sweep_box():
            try:
                engine = engine_at(sigmas)
            except spectral.NonPositiveFrequencyError as exc:
                outcomes[type(exc).__name__] += 1
                continue
            for j in bf.ISOTYPIC:
                rep = engine.report(j, full=False)
                got = {lb: c for lb, c, _ in rep.maximal_types}
                assert set(got) == EXPECTED_CENSUS["7" if j == "7*" else j], sigmas
                for _, c, weyl in rep.maximal_types:
                    assert abs(c) == 2 // weyl, (sigmas, got)
            outcomes["ok"] += 1
        assert outcomes["ok"] >= 24, outcomes


def divisor_upper_set(R, modes, h):
    """Classes >= (h) among the orbit types at every divisor of `modes`."""
    pool = set()
    for d in sorted({d for l in modes for d in range(1, l + 1) if l % d == 0}):
        pool.update(o2.graph_classes(d))
    return frozenset({h} | {t for t in pool if t != h and R.fixed_cosets(h, t) > 0})


def pairwise_coefficient(engine, j_o, h):
    """Coefficient of (h) in the invariant by truncated pairwise products.

    Every factor is truncated to the upper set of h over the divisors of all
    its Fourier modes, and the truncations are multiplied pair by pair with
    the product recurrence: the reference for ``fast_coefficient``.
    """
    R = engine.ring
    factors = bf.factors_before(j_o, engine.alphas)
    upper = divisor_upper_set(R, frozenset(l for _, l in factors) | {1}, h)
    cache = {}

    def factor(j, l):
        idx = bf._degree_index(j)
        return 1, R.recurrence(upper, lambda K: (-1) ** R.fixed_dim(idx, l, K) - 1)

    def mult(x, y):
        ux, dx = x
        uy, dy = y
        out = {}
        for k, v in dx.items():
            out[k] = out.get(k, 0) + uy * v
        for k, v in dy.items():
            out[k] = out.get(k, 0) + ux * v
        for hk, hv in dx.items():
            for kk, kv in dy.items():
                key = (hk, kk) if hk <= kk else (kk, hk)
                if key not in cache:
                    cache[key] = R.recurrence(
                        [
                            L
                            for L in upper
                            if R.fixed_cosets(L, hk) > 0 and R.fixed_cosets(L, kk) > 0
                        ],
                        lambda L: R.fixed_cosets(L, hk) * R.fixed_cosets(L, kk),
                    )
                for L, q in cache[key].items():
                    out[L] = out.get(L, 0) + hv * kv * q
        return ux * uy, {k: v for k, v in out.items() if v}

    prod = (1, {})
    for j, l in factors:
        prod = mult(prod, factor(j, l))
    dj = factor(j_o, 1)
    return mult(prod, (dj[0] - 1, dj[1]))[1].get(h, 0)


# the reference σ and sweep-box draws whose factors all stay on the angle
# grid, reaching Fourier modes 6 (draw 0) to 10 (draw 26) in block 9
ON_GRID_DRAWS = {"reference": None, **{f"draw{i}": i for i in (0, 1, 2, 10, 24, 26)}}


@pytest.fixture(scope="module", params=sorted(ON_GRID_DRAWS))
def on_grid_engine(request, engine):
    i = ON_GRID_DRAWS[request.param]
    return engine if i is None else engine_at(sweep_box(i + 1)[i])


class TestMarksPath:
    """The marks recurrence against the pairwise truncation it replaced."""

    def test_fast_coefficient_matches_pairwise_truncation(self, on_grid_engine):
        eng = on_grid_engine
        for j in bf.ISOTYPIC:
            assert all(o2.GRID % l == 0 for _, l in bf.factors_before(j, eng.alphas))
            for h in eng.maximal_classes(j):
                assert eng.fast_coefficient(j, h) == pairwise_coefficient(eng, j, h), (
                    j,
                    eng.ring.label_of(h),
                )

    def test_higher_mode_classes_have_no_fixed_vector(self, on_grid_engine):
        # why the marks path may leave out every class at a mode d >= 2:
        # omega's mark there carries the factor (-1)^0 - 1 = 0
        eng = on_grid_engine
        R = eng.ring
        mode_1 = set(o2.graph_classes(1))
        seen = 0
        for j in bf.ISOTYPIC:
            modes = frozenset(l for _, l in bf.factors_before(j, eng.alphas)) | {1}
            idx = bf._degree_index(j)
            for h in eng.maximal_classes(j):
                for K in divisor_upper_set(R, modes, h) - mode_1:
                    assert R.fixed_dim(idx, 1, K) == 0, (j, R.label_of(K))
                    seen += 1
        assert seen > 0


# draw 16 of the seed-1 sweep box above: block 9's factors run up to (0, 11)
OFF_GRID_DRAW = (0.04345932313403799, 0.08507473313681423, 1.2011589783705856)


class TestOffGridRefusal:
    """A full product past the angle grid is refused naming the block and the factor.

    The fast path needs no class above Fourier mode 1, so it answers there.
    """

    MESSAGE = "block 9: factor (0, 11) needs Fourier mode 11, off the 1/10080 grid"

    def test_draw_is_from_the_sweep_box(self):
        assert sweep_box(17)[16] == OFF_GRID_DRAW

    def test_report_names_block_and_factor(self):
        engine = engine_at(OFF_GRID_DRAW)
        with pytest.raises(CatalogError) as info:
            engine.report("9", full=True)
        assert type(info.value) is CatalogError
        assert str(info.value) == self.MESSAGE
        assert info.value.missing == ("0", 11)

    @staticmethod
    def run_cli(capsys, tmp_path, argv):
        cfg = tmp_path / "off_grid.cfg"
        cfg.write_text(
            "".join(f"sigma{i}={s!r}\n" for i, s in enumerate(OFF_GRID_DRAW, 1))
        )
        code = cli.main(["--config", str(cfg), *argv])
        return code, capsys.readouterr()

    @pytest.mark.parametrize(
        "argv", [("invariant", "--j", "9", "--full")], ids=["invariant"]
    )
    def test_cli_exit_1(self, capsys, tmp_path, argv):
        code, out = self.run_cli(capsys, tmp_path, argv)
        assert code == 1
        assert out.err == f"numerical failure: {self.MESSAGE}\n"

    def test_fast_invariant_answers(self, capsys, tmp_path):
        code, out = self.run_cli(capsys, tmp_path, ("invariant", "--j", "9"))
        assert (code, out.err) == (0, "")
        terms = re.findall(r"^  ([+-]\d+) \((.+)\)   \|W\|=(\d+)$", out.out, re.M)
        assert {label for _, label, _ in terms} == EXPECTED_CENSUS["9"]
        assert all(abs(int(c)) == 2 // int(w) for c, _, w in terms), terms

    def test_census_answers(self, capsys, tmp_path):
        code, out = self.run_cli(capsys, tmp_path, ("census",))
        assert (code, out.err) == (0, "")
        assert out.out.startswith("count=16\n")
        rows = re.findall(
            r"^  \((.+)\)  order=\d+ \|W\|=(\d+) blocks=(\S+) coeff=([+-]\d+)$",
            out.out,
            re.M,
        )
        assert len(rows) == 16
        assert {label for label, _, blocks, _ in rows if "9" in blocks.split(",")} == (
            EXPECTED_CENSUS["9"]
        )
        assert all(abs(int(c)) == 2 // int(w) for _, w, _, c in rows), rows
