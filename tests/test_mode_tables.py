"""The ring's σ-independent mode and fast-path tables against the loops they
replaced.

A type's sorted elements, their sample shifts, its fixed pairs in the first
copy of each irreducible and the fast coefficient per odd groups of factors
are ring tables (``burnside.cached``).  Every mode the request path
builds and verifies is checked bit for bit against the per-element oracles
in ``conftest``, on a new ring and on one that has served other σ.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from octavib import bifurcation as bf
from octavib import force_field as ff
from octavib import cli, group_core, modes, orbit_o2, spectral
from octavib.errors import CatalogError, ConfigError, NumericalError, SamplingError

from conftest import (
    engine_at,
    loop_fixed_pairs,
    loop_verify_symmetry,
    pair_operator,
    sweep_box,
)

MODES = [
    (j, k)
    for j, n in (("0", 1), ("4", 3), ("7", 5), ("7*", 5), ("8", 5), ("9", 5))
    for k in range(1, n + 1)
]
SAMPLES = (modes.DEFAULT_SAMPLES, 1200)
EPSILON = 0.05
REFERENCE = ff.REFERENCE_PARAMS
SIGMAS = [(REFERENCE.sigma1, REFERENCE.sigma2, REFERENCE.sigma3), *sweep_box()]
IDS = ["reference"] + [f"draw{i}" for i in range(48)]


def new_ring(monkeypatch, ring=None):
    ring = ring or orbit_o2.TemporalOctahedralRing()
    monkeypatch.setattr(orbit_o2, "_RING", ring)
    return ring


def mode_outputs(params, oracle=False):
    """(j, k, samples) -> the mode's samples, a, b and verify report as bytes
    and float hex, or the refusal; the oracle builds from the per-element
    fixed pairs and verifies element by element."""
    try:
        shop = modes.ModeWorkshop(params)
    except NumericalError as exc:
        return repr(exc)
    if oracle:
        shop.fixed_pairs = lambda ci, j: loop_fixed_pairs(shop, ci, j)
    out = {}
    for j, k in MODES:
        for n in SAMPLES:
            try:
                traj = shop.build_mode(j, k, EPSILON, n)
            except (NumericalError, ConfigError) as exc:
                out[j, k, n] = repr(exc)
                continue
            if oracle:
                passed, report = loop_verify_symmetry(shop, traj)
            else:
                passed, report = shop.verify_symmetry(traj)
            out[j, k, n] = (
                traj.samples.tobytes(),
                traj.cos_dir.tobytes(),
                traj.sin_dir.tobytes(),
                passed,
                [(name, res.hex()) for name, res in report.items()],
            )
    return out


@pytest.fixture(scope="module")
def warm_ring():
    """A ring that has served every mode at two other σ."""
    ring = orbit_o2.TemporalOctahedralRing()
    with pytest.MonkeyPatch.context() as mp:
        new_ring(mp, ring)
        for sigmas in ((0.9 * REFERENCE.sigma1, REFERENCE.sigma2, REFERENCE.sigma3),
                       (REFERENCE.sigma1, 1.1 * REFERENCE.sigma2, REFERENCE.sigma3)):
            mode_outputs(ff.PotentialParams(*sigmas))
    assert ring.memo["_reduced_pairs"]
    return ring


class TestModesBitForBit:
    @pytest.mark.parametrize("sigmas", SIGMAS, ids=IDS)
    def test_equal_the_per_element_oracles(self, sigmas, warm_ring, monkeypatch):
        params = ff.PotentialParams(*sigmas)
        want = mode_outputs(params, oracle=True)
        # every mode builds at every one of these σ: no check is vacuous
        assert all(isinstance(v, tuple) for v in want.values())
        new_ring(monkeypatch)
        assert mode_outputs(params) == want
        new_ring(monkeypatch, warm_ring)
        assert mode_outputs(params) == want


class TestModeTables:
    def test_stacked_pair_operators_equal_each_elements(self, fresh_ring):
        shop = modes.ModeWorkshop()
        for j in ("0", "4", "7", "8", "9"):
            for ci in shop.types_for(j):
                els = sorted(fresh_ring.representative(ci).elements)
                want = np.stack([pair_operator(x) for x in els])
                got = modes._pair_operators(modes._type_elements(fresh_ring, ci))
                assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    def test_one_copy_blocks_are_kept_and_read_only(self, fresh_ring):
        # one read-only table per (type, irreducible): blocks 7 and 7* read
        # the first copy's, and a block's pairs are its columns times them
        shop = modes.ModeWorkshop()
        for j in bf.ISOTYPIC:
            B = shop.spectrum.basis_for(j)
            for ci in shop.types_for(j):
                reduced = modes._reduced_pairs(fresh_ring, ci, j.rstrip("*"))
                want = [(B @ x, B @ y) for x, y in reduced]
                got = shop.fixed_pairs(ci, j)
                assert [(a.tobytes(), b.tobytes()) for a, b in got] == [
                    (a.tobytes(), b.tobytes()) for a, b in want
                ]
        kept = fresh_ring.memo["_reduced_pairs"]
        assert {irrep for _, irrep in kept} == {"0", "4", "7", "8", "9"}
        assert all(not x.flags.writeable and not y.flags.writeable
                   for pairs in kept.values() for x, y in pairs)
        # another σ reads them: no new entry, the same objects
        before = dict(kept)
        other = modes.ModeWorkshop(ff.PotentialParams(*SIGMAS[1]))
        for j in bf.ISOTYPIC:
            for ci in other.types_for(j):
                other.fixed_pairs(ci, j)
                irrep = j.rstrip("*")
                assert modes._reduced_pairs(fresh_ring, ci, irrep) is before[ci, irrep]
        assert kept == before

    def test_incommensurate_sampling_stores_nothing(self, fresh_ring):
        shop = modes.ModeWorkshop()
        third = [shop.ring.label_of(c) for c in shop.types_for("8")].index(
            "D_3^{Z_1} x_{D_3} D_3^p"
        )
        ci = shop.types_for("8")[third]
        with pytest.raises(SamplingError, match="multiple of 3"):
            shop.build_mode("8", third + 1, 0.02, n_samples=50)
        assert (ci, 50) not in fresh_ring.memo["_shift_groups"]
        # a type whose turns all divide 50 samples verifies; its mode checked
        # against the third-turn type is refused, and stores nothing either
        traj = shop.build_mode("8", 1, 0.02, n_samples=50)
        passed, _ = shop.verify_symmetry(traj)
        assert passed
        with pytest.raises(SamplingError, match="multiple of 3"):
            shop.verify_symmetry(traj, type_class=ci)
        assert (ci, 50) not in fresh_ring.memo["_shift_groups"]

    def test_shift_groups_partition_the_elements(self, fresh_ring):
        shop = modes.ModeWorkshop()
        sizes = []
        for ci in {c for j in bf.ISOTYPIC for c in shop.types_for(j)}:
            groups = modes._shift_groups(fresh_ring, ci, 1200)
            members = np.sort(np.concatenate([p for _, _, p in groups]))
            assert np.array_equal(members, np.arange(len(fresh_ring.representative(ci))))
            sizes.append(len(groups))
        assert 2 <= min(sizes) and max(sizes) <= 12


def export_all_modes(out_dir):
    """Run ``octavib modes`` for every maximal type of every block at the
    reference parameters; file name -> bytes of what it wrote."""
    for j, k in MODES:
        argv = ["modes", "--j", j, "--k", str(k), "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("mode_*"))}


def forbidden(name):
    def raise_(*args, **kwargs):
        raise AssertionError(f"{name} ran on the request path")

    return raise_


class TestNoSolvePerSigma:
    def test_pair_signs_do_not_rest_on_the_svd(self, tmp_path, monkeypatch):
        # an SVD that returns every null vector negated leaves all 24
        # exported modes byte for byte
        new_ring(monkeypatch)
        (tmp_path / "plain").mkdir()
        want = export_all_modes(tmp_path / "plain")
        assert len(want) == 2 * len(MODES) == 48
        svd = np.linalg.svd

        def negated(a, *args, **kwargs):
            U, S, Vt = svd(a, *args, **kwargs)
            return U, S, -Vt

        monkeypatch.setattr(np.linalg, "svd", negated)
        new_ring(monkeypatch)
        (tmp_path / "negated").mkdir()
        assert export_all_modes(tmp_path / "negated") == want

    def test_a_warm_ring_solves_nothing_per_sigma(self, tmp_path, monkeypatch):
        new_ring(monkeypatch)
        export_all_modes(tmp_path)  # the ring's tables, at the reference σ
        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, forbidden(f"np.linalg.{name}"))
        sigmas = SIGMAS[1]
        cfg = tmp_path / "p.cfg"
        cfg.write_text("".join(f"sigma{i}={s!r}\n" for i, s in enumerate(sigmas, 1)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--config", str(cfg), "spectrum"]) == 0
        shop = modes.ModeWorkshop(ff.PotentialParams(*sigmas))
        for j in ("7", "7*"):
            for k in range(1, len(shop.types_for(j)) + 1):
                argv = ["--config", str(cfg), "modes", "--j", j, "--k", str(k),
                        "--out", str(tmp_path)]
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0, argv


class TestOneVerifyPath:
    def test_no_matmul_in_verify(self, monkeypatch):
        # every action is a row gather: with np.matmul refused, every mode
        # at the reference σ still verifies, at both sample counts
        shop = modes.ModeWorkshop()
        trajs = [shop.build_mode(j, k, EPSILON, n) for j, k in MODES for n in SAMPLES]
        monkeypatch.setattr(np, "matmul", forbidden("np.matmul"))
        for traj in trajs:
            passed, report = shop.verify_symmetry(traj)
            assert passed and len(report) == len(shop.ring.representative(traj.type_class))


def loop_safe_amplitude(shop):
    """``ModeWorkshop.safe_amplitude`` as 21 norms in a loop (oracle)."""
    pos = shop.center.reshape(6, 3)
    dmin = min(np.linalg.norm(pos[i] - pos[j]) for i in range(6) for j in range(i + 1, 6))
    return 0.45 * min(dmin, min(np.linalg.norm(pos[i]) for i in range(6)))


def test_safe_amplitude_equals_the_norm_loop():
    for sigmas in SIGMAS:
        try:
            shop = modes.ModeWorkshop(ff.PotentialParams(*sigmas))
        except NumericalError:
            continue
        assert shop.safe_amplitude() == loop_safe_amplitude(shop), sigmas


def test_peak_is_the_gram_eigensolver_to_an_ulp():
    # the closed-form larger eigenvalue of [[aa, ab], [ab, bb]] that
    # normalizes a mode's peak, against np.linalg.eigvalsh, on every type's
    # first pair at the reference σ and at each σ of the seed-1 box
    for sigmas in SIGMAS:
        shop = modes.ModeWorkshop(ff.PotentialParams(*sigmas))
        for j, k in MODES:
            a, b = shop.fixed_pairs(shop.types_for(j)[k - 1], j)[0]
            aa, ab, bb = a @ a, a @ b, b @ b
            want = np.linalg.eigvalsh([[aa, ab], [ab, bb]]).max()
            top = (aa + bb) / 2 + np.hypot((aa - bb) / 2, ab)
            assert abs(top - want) <= 2 * np.spacing(want), (sigmas, j, k)


def box_frequencies():
    out = []
    for sigmas in sweep_box():
        try:
            out.append(engine_at(sigmas).alphas)
        except spectral.NonPositiveFrequencyError:
            continue
    return out


def coefficients_served(alphas):
    """(j, maximal type) -> fast coefficient, on the ring in use now."""
    eng = bf.InvariantEngine(alphas)
    return {(j, h): eng.fast_coefficient(j, h) for j in bf.ISOTYPIC
            for h in eng.maximal_classes(j)}


class TestFastCoefficientTable:
    def test_memoized_equal_a_fresh_rings_either_order(self, monkeypatch):
        draws = box_frequencies()
        assert len(draws) == 43
        fresh = []
        for alphas in draws:
            new_ring(monkeypatch)
            fresh.append(coefficients_served(alphas))
        for order in (range(len(draws)), reversed(range(len(draws)))):
            ring = new_ring(monkeypatch)
            served = {i: coefficients_served(draws[i]) for i in order}
            assert [served[i] for i in range(len(draws))] == fresh
            # the draws share their odd groups: far fewer keys than requests
            keys = {(j, odd) for j, odd, _ in ring.memo["marks_coefficient"]}
            assert len(keys) < len(draws)

    def test_a_key_that_raises_stores_nothing(self, fresh_ring, monkeypatch):
        # block 9's factors at this draw hold (0, 11) once: a fixed-dimension
        # lookup that misses mode 11 refuses the fast coefficient
        eng = engine_at(sweep_box(17)[16])
        assert (0, 11) in eng._odd_groups("9")
        h = eng.maximal_classes("9")[0]
        read = fresh_ring.fixed_dim

        def missing_mode_11(j, m, ci):
            if m == 11:
                raise CatalogError("mode 11 off the table")
            return read(j, m, ci)

        monkeypatch.setattr(fresh_ring, "fixed_dim", missing_mode_11)
        with pytest.raises(CatalogError):
            eng.fast_coefficient("9", h)
        key = (9, eng._odd_groups("9"), h)
        assert key not in fresh_ring.memo["marks_coefficient"]
        monkeypatch.setattr(fresh_ring, "fixed_dim", read)
        value = eng.fast_coefficient("9", h)
        assert fresh_ring.memo["marks_coefficient"][key] == value != 0
        assert value == fresh_ring.recurrence(
            fresh_ring.upper_set(h), eng._mark("9")
        ).get(h, 0)


class TestVerifyMemory:
    def test_actions_are_signed_permutations(self):
        A = group_core.ACTIONS_18
        assert A.shape == (group_core.N, 18, 18)
        assert set(np.unique(A).tolist()) == {-1.0, 0.0, 1.0}
        nonzero = A != 0
        assert (nonzero.sum(axis=1) == 1).all() and (nonzero.sum(axis=2) == 1).all()

    def test_peak_at_most_twice_the_oracle_loops(self, fresh_ring):
        shop = modes.ModeWorkshop()
        ci = max(
            (c for j in bf.ISOTYPIC for c in shop.types_for(j)),
            key=lambda c: len(fresh_ring.representative(c)),
        )
        assert len(fresh_ring.representative(ci)) == 96
        traj = shop.build_mode_for_type(ci, "0", 1, EPSILON, 1200)
        shop.verify_symmetry(traj)  # fill the ring's tables first

        def peak(verify):
            tracemalloc.start()
            try:
                result = verify(shop, traj)
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        oracle_peak, want = peak(loop_verify_symmetry)
        got_peak, got = peak(modes.ModeWorkshop.verify_symmetry)
        assert got == want
        assert got_peak <= 2 * oracle_peak, (got_peak, oracle_peak)
