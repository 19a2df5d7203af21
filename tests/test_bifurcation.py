import functools
import itertools
import json
import math
import re
from collections import Counter

import pytest

from octavib import bifurcation as bf
from octavib import force_field as ff
from octavib import orbit_o2 as o2
from octavib import spectral
from octavib import cli
from octavib.burnside import cached
from octavib.errors import ConfigError, NumericalError, ResonanceError

import oracles
from conftest import engine_at, sweep_box, wide_grid
from oracles import reference_red_labels
from test_acceptance import EXPECTED_CENSUS

REFERENCE_PREFIX = [
    ("0", 1), ("7*", 1), ("4", 1), ("7", 1), ("0", 2), ("8", 1), ("7*", 2), ("4", 2),
]


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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_frequency_refused(self, bad):
        with pytest.raises(ResonanceError, match=f"got {bad!r} for block b"):
            bf.critical_set({"a": 1.0, "b": bad}, 4.0)

    def test_position_of_slowest_block(self, labeled_spectrum):
        alphas = labeled_spectrum.alphas()
        lam91 = 1 / alphas["9"]
        crit = bf.critical_set(alphas, lam91 + 1e-9)
        assert (crit[-1].j, crit[-1].l) == ("9", 1)
        assert len(crit) == 29  # the slowest block enters 29th


class TestCriticalBound:
    def test_count_is_the_length_of_the_list(self, labeled_spectrum):
        alphas = labeled_spectrum.alphas()
        for lam in (0.5, 3.0, 12.0, 100.0):
            assert bf.critical_count(alphas, lam) == len(bf.critical_set(alphas, lam))
        assert bf.critical_count({"a": 1.0}, 1e300) == 1e300
        assert bf.critical_count({"a": 1.0}, -5.0) == 0

    def test_refused_above_the_bound_only(self, monkeypatch):
        monkeypatch.setattr(bf, "MAX_CRITICAL", 10)
        alphas = {"a": 1.0, "b": 0.5}
        assert len(bf.critical_set(alphas, 7.9)) == 10  # 7 + 3
        with pytest.raises(ConfigError, match="lambda_max=8.0 gives 12 critical numbers, more than the bound of 10"):
            bf.critical_set(alphas, 8.0)
        with pytest.raises(ConfigError, match="gives inf critical numbers"):
            bf.critical_set(alphas, 1e308 * 1.5)


class TestEngineFrequencies:
    @pytest.mark.parametrize("bad", [0.0, -0.5, math.inf, -math.inf, math.nan])
    def test_constructor_refuses_bad_frequency(self, bad):
        alphas = {j: 1.0 + 0.1 * i for i, j in enumerate(bf.ISOTYPIC)}
        alphas["8"] = bad
        with pytest.raises(ResonanceError, match=f"got {bad!r} for block 8"):
            bf.InvariantEngine(alphas)


class TestNonresonance:
    def test_reference_is_nonresonant(self, labeled_spectrum):
        assert bf.resonant_groups(labeled_spectrum) == []

    def test_forced_coincidence(self, labeled_spectrum):
        lines = []
        for ln in labeled_spectrum.lines:
            if ln.label == "4":
                lines.append(spectral.SpectrumLine("4", labeled_spectrum.alpha_sq["8"], 2))
            else:
                lines.append(ln)
        broken = oracles.lines_report(tuple(lines))
        groups = bf.resonant_groups(broken)
        assert groups
        assert set(groups[0]) == {"4", "8"}

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
            report = oracles.lines_report(lines)
            ok = not bf.resonant_groups(report)
            direct = all(
                abs(vals[i] - vals[k]) > bf.RESONANCE_RTOL * vals.max()
                for i in range(6)
                for k in range(i + 1, 6)
            )
            assert ok == direct


    @pytest.mark.parametrize("signs", itertools.product((1, -1), repeat=4))
    def test_group_named_alike_for_either_residue_sign(self, signs):
        # blocks 6, 7, 8 and 9 at alpha^2 = 0 up to rounding, as at σ = 0
        residues = dict(zip(("6", "7", "8", "9"), (3e-33, 2e-17, 1e-16, 4e-33)))
        values = {"0": 0.9999999999999999, "4": 1.0000000000000002, "7*": 1.0}
        values.update({j: s * r for s, (j, r) in zip(signs, residues.items())})
        report = oracles.lines_report(
            tuple(spectral.SpectrumLine(j, v, 3) for j, v in values.items())
        )
        assert bf.resonant_groups(report) == [("6", "7", "8", "9"), ("0", "4", "7*")]
        with pytest.raises(ResonanceError) as exc:
            bf.checked_frequencies(report)
        assert str(exc.value) == "resonance between isotypic blocks 6, 7, 8 and 9"
        with pytest.raises(ResonanceError, match="blocks 0, 4 and 7\\*$"):
            bf.checked_frequency(report, "0")

    def test_rule_is_relative_to_the_largest_alpha_sq(self):
        # 9 sits 3e-6 above 6: apart beside alpha^2 = 2, resonant beside 4
        def report(top):
            values = (("6", 0.0), ("9", 3e-6), ("8", 1.0), ("7", top))
            return oracles.lines_report(
                tuple(spectral.SpectrumLine(j, v, 3) for j, v in values)
            )

        assert bf.resonant_groups(report(2.0)) == []
        assert bf.resonant_groups(report(4.0)) == [("6", "9")]


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
            reference = reference_red_labels(bf.IRREP[j])
            assert {lb for lb, _, _ in rep.maximal_types} == set(reference)

    def test_full_product_agreement_on_later_blocks(self, engine):
        # beyond the required trio, the five-factor block-8 product (which
        # crosses a second Fourier mode) must also agree with the fast path
        for j in ("7", "8"):
            rep = engine.report(j, full=True)
            assert rep.agreement(), j
            got = {lb for lb, _, _ in rep.maximal_types}
            assert got == set(reference_red_labels(bf.IRREP[j]))
            for _, coeff, weyl in rep.maximal_types:
                assert abs(coeff) == 2 // weyl


class TestSweepBox:
    """Every parameter set of the benchmark's sweep box ends in a result or a refusal."""

    def test_fast_reports_or_documented_refusals(self):
        # full reports carry the fast coefficients too, and must agree with them
        outcomes = Counter()
        for sigmas in sweep_box():
            try:
                engine = engine_at(sigmas)
            except spectral.NonPositiveFrequencyError as exc:
                outcomes[type(exc).__name__] += 1
                continue
            for j in bf.ISOTYPIC:
                rep = engine.report(j, full=True)
                assert rep.agreement(), (sigmas, j)
                got = {lb: c for lb, c, _ in rep.maximal_types}
                assert set(got) == EXPECTED_CENSUS["7" if j == "7*" else j], sigmas
                for _, c, weyl in rep.maximal_types:
                    assert abs(c) == 2 // weyl, (sigmas, got)
            outcomes["ok"] += 1
        assert outcomes == {"ok": 43, "NonPositiveFrequencyError": 5}


class TestCensusCoefficients:
    def test_each_block_lists_its_own_coefficient(self, engine):
        # at the reference σ and every accepted box draw, a census row gives
        # each block it lists that block's own coefficient: the one
        # `invariant --j <block>` prints for the type
        engines = [engine]
        for sigmas in sweep_box():
            try:
                engines.append(engine_at(sigmas))
            except spectral.NonPositiveFrequencyError:
                continue
        assert len(engines) == 1 + 43
        for eng in engines:
            got = {}
            for row in eng.census():
                assert len(row["coefficients"]) == len(row["blocks"]), row
                for b, c in zip(row["blocks"], row["coefficients"]):
                    got[b, row["label"]] = c
            want = {
                (j, eng.ring.label_of(h)): eng.fast_coefficient(j, h)
                for j in bf.ISOTYPIC
                for h in eng.maximal_classes(j)
            }
            assert len(want) == 24
            assert got == want, eng.alphas
            printed = {
                (j, label): c
                for j in bf.ISOTYPIC
                for label, c, _ in eng.report(j, full=False).maximal_types
            }
            assert got == printed, eng.alphas


class TestFullReport:
    """The whole invariant from the marks recurrence over the mode-1 classes."""

    @pytest.mark.parametrize(
        "draw", [None, 0, 10, 16], ids=["reference", "draw0", "draw10", "draw16"]
    )
    def test_matches_pairwise_product(self, engine, draw):
        eng = engine if draw is None else engine_at(sweep_box(draw + 1)[draw])
        eng.ring.graph_classes(1)
        registered = len(eng.ring._reps)
        for j in bf.ISOTYPIC:
            want = eng.ring.pi0_truncate(eng.invariant_full(j))
            assert eng.report(j, full=True).invariant == want, j
        # block 9's factors reach Fourier mode 11 at draw 16: the product
        # reads every class above mode 1 as a pair and registers no element set
        assert len(eng.ring._reps) == registered

    def test_printed_terms_are_the_support(self, engine):
        for j in bf.ISOTYPIC:
            invariant = engine.report(j, full=True).invariant
            assert len(json.loads(invariant.to_json())) == len(invariant.coeffs), j

    def test_no_command_builds_a_higher_mode(self, fresh_ring, capsys, tmp_path):
        commands = [("invariant", "--j", j, "--full") for j in bf.ISOTYPIC]
        commands += [("census",), ("catalog", "--catalog-dump")]
        commands += [("modes", "--j", "9", "--out", str(tmp_path))]
        for argv in commands:
            assert cli.main(list(argv)) == 0, argv
        capsys.readouterr()
        assert list(fresh_ring.memo["graph_classes"]) == [(1,)]
        assert not fresh_ring.memo.get("_product")
        assert not fresh_ring.memo.get("basic_degree")
        assert len(fresh_ring._reps) == len(fresh_ring.graph_classes(1))


class TestGroupedMark:
    def test_matches_ungrouped_sum_and_bounds_the_table(
        self, fresh_ring, labeled_spectrum
    ):
        alphas = labeled_spectrum.alphas()
        alphas["9"] = alphas["0"] / 1000.5  # block 0's factors reach l = 1000
        eng = bf.InvariantEngine(alphas)
        factors = bf.factors_before("9", alphas)
        assert max(l for _, l in factors) == 1000 and len(factors) > 3000
        assert eng.report("9", full=True).agreement()
        R = fresh_ring
        period = R.mode_period()
        assert period == 12
        # fixed dimensions are read from the mode-1 table, never kept
        assert "fixed_dim" not in R.memo
        # the ungrouped sum on one class per temporal order and block 9's types
        by_order = {
            R.symbol_key(K)[1]: K for K in R.graph_classes(1)
        }
        assert sorted(by_order) == [1, 2, 3, 4, 6]
        mark = eng._mark("9")
        factors = [(bf.IRREP[j], l) for j, l in factors]
        for K in {*by_order.values(), *eng.maximal_classes("9")}:
            sign = (-1) ** sum(R.fixed_dim(j, l, K) for j, l in factors)
            assert mark(K) == sign * ((-1) ** R.fixed_dim(9, 1, K) - 1), R.label_of(K)


def count_computations(monkeypatch, names):
    """Count each computation of the named ``cached`` ring methods, per key."""
    counts = {}
    for name in names:
        inner = vars(o2.TemporalOctahedralRing)[name].__wrapped__
        calls = counts[name] = Counter()

        @functools.wraps(inner)
        def counted(self, *args, inner=inner, calls=calls):
            calls[args] += 1
            return inner(self, *args)

        monkeypatch.setattr(o2.TemporalOctahedralRing, name, cached(counted))
    return counts


class TestRingTables:
    def test_census_computes_each_key_once(
        self, fresh_ring, monkeypatch, labeled_spectrum
    ):
        # the census reads mode-1 data from the table; what it keeps in the
        # ring's tables is each block's maximal types, and nothing keyed by σ
        names = ("maximal_orbit_types",)
        counts = count_computations(monkeypatch, names)
        engine = bf.InvariantEngine(labeled_spectrum.alphas())
        engine.census()
        seen = {name: dict(counts[name]) for name in names}
        # the engine keeps the odd groups of each block the census reads,
        # and nothing else
        assert set(engine.memo) == {"_odd_groups"}
        assert set(engine.memo["_odd_groups"]) == {(b,) for b in bf.ISOTYPIC}
        # the same σ again, and a draw whose block-9 factors reach Fourier
        # mode 11 with other odd groups, compute nothing more
        bf.InvariantEngine(labeled_spectrum.alphas()).census()
        other = engine_at(OFF_GRID_DRAW)
        assert other._odd_groups("9") != engine._odd_groups("9")
        other.census()
        assert {name: dict(counts[name]) for name in names} == seen
        assert set(fresh_ring.memo) == set(names)
        for name in names:
            calls = counts[name]
            assert calls and set(calls.values()) == {1}, name
            assert set(calls) == set(fresh_ring.memo[name]), name


def served_engines():
    """{(block, odd groups): an engine whose block leaves those groups}, over
    the accepted seed-1 box draws and tier-1 wide-grid draws."""
    out = {}
    for sigmas in (*sweep_box(), *wide_grid(200)):
        try:
            engine = engine_at(sigmas)
            for j in bf.ISOTYPIC:
                out.setdefault((j, engine._odd_groups(j)), engine)
        except NumericalError:
            continue
    return out


class TestClosedForm:
    """Each maximal coefficient is its mark over its Weyl order, for every σ:
    the three facts of the mode-1 table that make it so, and the closed form
    against the recurrence over the marks above the type at every odd groups
    of factors a box or wide-grid draw leaves."""

    def test_table_facts_for_every_maximal_pair(self):
        R = o2.ring()
        pairs = [(j, h) for j in bf.MAXIMAL_IRREPS for h in R.maximal_orbit_types(j, 1)]
        assert len(pairs) == 19
        sizes = Counter()
        for j, h in pairs:
            label = (j, R.label_of(h))
            # the type's own fixed space is odd: its mark is -2 or +2 ...
            assert R.fixed_dim(j, 1, h) % 2 == 1, label
            # ... and every class above it has an even one, mark 0 for any σ
            upper = oracles.upper_set(h)
            assert h in upper, label
            for K in upper - {h}:
                assert R.fixed_dim(j, 1, K) % 2 == 0, (label, R.label_of(K))
                assert R.invariant_mark(j, frozenset(), K) == 0, label
            assert R.weyl(h) in (1, 2), label
            sizes[len(upper)] += 1
        assert sizes == {1: 11, 2: 8}

    def test_closed_form_equals_the_marks_recurrence(self):
        R = o2.ring()
        served = served_engines()
        assert len(served) > 100
        for (j, odd), engine in served.items():
            for h in engine.maximal_classes(j):
                got = engine.fast_coefficient(j, h)
                where = (j, odd, R.label_of(h))
                assert got == oracles.marks_coefficient(R, bf.IRREP[j], odd, h), where
                assert got * R.weyl(h) == R.invariant_mark(bf.IRREP[j], odd, h), where
                assert abs(got) == 2 // R.weyl(h), where


def ordering(alphas):
    """(blocks by ascending frequency, each block's factor count, the fast
    coefficient of each (block, maximal type) of the census's blocks)."""
    engine = bf.InvariantEngine(alphas)
    return (
        sorted(bf.ISOTYPIC, key=alphas.get),
        {j: len(bf.factors_before(j, alphas)) for j in bf.ISOTYPIC},
        {(j, h): engine.fast_coefficient(j, h) for j in ("0", "4", "7", "8", "9")
         for h in engine.maximal_classes(j)},
    )


def both_orderings(params):
    """``ordering`` of the reported and of the Cartesian spectrum at σ."""
    request = bf.Request(params)
    cartesian = bf.checked_frequencies(request.cartesian_spectrum)
    return ordering(request.frequencies), ordering(cartesian)


class TestReportedAgainstCartesian:
    """Where the printed invariants, which follow the reported spectrum,
    part from the Cartesian spectrum the modes integrate: the two are
    related by (a,b,c) -> 2 r0^2 (a,b,c), (d,e) -> 2 (d,e), not a uniform
    scale unless r0 = 1, so they order the critical numbers differently."""

    def test_reference_orderings(self):
        reported, cartesian = both_orderings(ff.REFERENCE_PARAMS)
        assert reported[0] == ["9", "8", "7", "4", "7*", "0"]
        assert cartesian[0] == ["9", "7", "8", "4", "7*", "0"]
        blocks = ("0", "4", "7", "7*", "8", "9")
        assert [reported[1][j] for j in blocks] == [0, 2, 3, 1, 5, 28]
        assert [cartesian[1][j] for j in blocks] == [0, 2, 5, 1, 4, 11]
        flipped = Counter(j for (j, h), c in reported[2].items() if c != cartesian[2][j, h])
        assert len(reported[2]) == 19 and flipped == {"7": 3, "9": 2}
        # only the signs differ: the types and magnitudes are the table's
        assert all(abs(c) == abs(cartesian[2][key]) for key, c in reported[2].items())

    def test_every_box_draw_orders_differently(self):
        accepted = 0
        for sigmas in sweep_box():
            try:
                reported, cartesian = both_orderings(ff.PotentialParams(*sigmas))
            except spectral.NonPositiveFrequencyError:
                continue
            accepted += 1
            assert reported[0] != cartesian[0], sigmas
            assert reported[2].keys() == cartesian[2].keys()
            assert reported[2] != cartesian[2], sigmas
        assert accepted == 43


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
        idx = bf.IRREP[j]
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


# the reference σ and sweep-box draws whose factors reach Fourier modes 6
# (draw 0) to 11 (draw 16) in block 9
MARKS_DRAWS = {"reference": None, **{f"draw{i}": i for i in (0, 1, 2, 10, 16, 24, 26)}}


@pytest.fixture(scope="module", params=sorted(MARKS_DRAWS))
def marks_engine(request, engine):
    i = MARKS_DRAWS[request.param]
    return engine if i is None else engine_at(sweep_box(i + 1)[i])


class TestMarksPath:
    """The closed-form coefficient against the pairwise truncation it replaced."""

    def test_fast_coefficient_matches_pairwise_truncation(self, marks_engine):
        eng = marks_engine
        R = eng.ring
        mode_1 = set(o2.graph_classes(1))
        for j in bf.ISOTYPIC:
            modes = frozenset(l for _, l in bf.factors_before(j, eng.alphas)) | {1}
            for h in eng.maximal_classes(j):
                assert eng.fast_coefficient(j, h) == pairwise_coefficient(eng, j, h), (
                    j,
                    eng.ring.label_of(h),
                )
                # what once kept these draws on the angle grid: the truncation
                # reads every class above mode 1 as a pair, with no element set
                above = divisor_upper_set(R, modes, h) - mode_1
                assert not above & set(R._reps), (j, R.label_of(h))

    def test_higher_mode_classes_have_no_fixed_vector(self, marks_engine):
        # why the marks path may leave out every class at a mode d >= 2:
        # omega's mark there carries the factor (-1)^0 - 1 = 0
        eng = marks_engine
        R = eng.ring
        mode_1 = set(o2.graph_classes(1))
        seen = 0
        for j in bf.ISOTYPIC:
            modes = frozenset(l for _, l in bf.factors_before(j, eng.alphas)) | {1}
            idx = bf.IRREP[j]
            for h in eng.maximal_classes(j):
                for K in divisor_upper_set(R, modes, h) - mode_1:
                    assert R.fixed_dim(idx, 1, K) == 0, (j, R.label_of(K))
                    seen += 1
        assert seen > 0


# block 9's factors run up to (0, 11) at draw 16 and to (0, 9) and (7*, 8) at
# draw 10: Fourier modes off the angle grid, or whose covers the grid cuts short
OFF_GRID_DRAW = sweep_box(17)[16]


class TestOffGridRefusal:
    """Draws whose factors leave the angle grid answer every command.

    The full product once refused draw 16 (``CatalogError``) and failed its
    checks at draw 10 (exit 3); the invariant now comes from the mode-1
    marks, so no command needs a class above Fourier mode 1.
    """

    def test_full_report_agrees(self):
        engine = engine_at(OFF_GRID_DRAW)
        rep = engine.report("9", full=True)
        assert ("0", 11) in bf.factors_before("9", engine.alphas)
        assert rep.agreement()
        assert {lb for lb, _, _ in rep.maximal_types} == EXPECTED_CENSUS["9"]

    @staticmethod
    def run_cli(capsys, tmp_path, argv, sigmas=OFF_GRID_DRAW):
        cfg = tmp_path / "off_grid.cfg"
        cfg.write_text("".join(f"sigma{i}={s!r}\n" for i, s in enumerate(sigmas, 1)))
        code = cli.main(["--config", str(cfg), *argv])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("draw", [16, 10], ids=["draw16", "draw10"])
    def test_cli_full_invariant_answers(self, capsys, tmp_path, draw):
        argv = ("invariant", "--j", "9", "--full")
        code, out = self.run_cli(capsys, tmp_path, argv, sweep_box(draw + 1)[draw])
        assert (code, out.err) == (0, "")
        assert out.out.endswith("fast_path_agreement=true\n")
        terms = re.findall(r"^  ([+-]\d+) \((.+)\)   \|W\|=(\d+)$", out.out, re.M)
        assert {label for _, label, _ in terms} == EXPECTED_CENSUS["9"]
        assert all(abs(int(c)) == 2 // int(w) for c, _, w in terms), terms

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
            r"^  \((.+)\)  order=\d+ \|W\|=(\d+) blocks=(\S+) "
            r"coeff=([+-]\d+(?:,[+-]\d+)*)$",
            out.out,
            re.M,
        )
        assert len(rows) == 16
        assert {label for label, _, blocks, _ in rows if "9" in blocks.split(",")} == (
            EXPECTED_CENSUS["9"]
        )
        for _, w, blocks, coeffs in rows:
            assert len(coeffs.split(",")) == len(blocks.split(",")), rows
            assert all(abs(int(c)) == 2 // int(w) for c in coeffs.split(",")), rows
