import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from octavib import force_field as ff
from octavib import _serialize, accel, bifurcation, modes, orbit_o2, spectral
from octavib._kernels import format_values
from octavib._serialize import format_float, format_rows
from octavib.errors import AmplitudeError, ConfigError, NumericalError, SamplingError

from conftest import gradient_loop, pair_operator
from oracles import brake_velocity, is_brake_type
from test_request_kernels import wide_grid

# reference eigenvectors of the reported block Hessian, printed to 3-4
# digits; used as an identification oracle only
REFERENCE_MODES = {
    ("0", 1): [0.408, 0, 0, 0, 0.408, 0, -0.408, 0, 0, 0, -0.408, 0, 0, 0, 0.408, 0, 0, -0.408],
    ("4", 1): [0.2887, 0, 0, 0, 0.2887, 0, -0.2887, 0, 0, 0, -0.2887, 0, 0, 0, -0.577, 0, 0, 0.577],
    ("4", 2): [0.5, 0, 0, 0, -0.5, 0, -0.5, 0, 0, 0, 0.5, 0, 0, 0, 0, 0, 0, 0],
    ("7", 1): [0.0182, -0.0376, -0.485, -0.0919, 0.0074, -0.485, 0.0182, -0.0376, -0.485,
               -0.0919, 0.0074, -0.485, -0.0919, -0.0376, 0.0959, -0.0919, -0.0376, 0.0959],
    ("7", 2): [0.006791, -0.492, 0.0446, -0.0343, 0.0973, 0.0446, 0.006791, -0.492, 0.0446,
               -0.0343, 0.0973, 0.0446, -0.0343, -0.492, -0.0088, -0.0343, -0.492, -0.0088],
    ("7", 3): [0.096, 0.0419, 0.0888, -0.485, -0.0083, 0.0888, 0.096, 0.0419, 0.0888,
               -0.485, -0.0083, 0.0888, -0.485, 0.0419, -0.0176, -0.485, 0.0419, -0.0176],
    ("7*", 1): [0.00739, 0.00042, 0.0693, 0.000731, 0.00427, 0.0693, 0.00739, 0.00042, 0.0693,
                0.000731, 0.00427, 0.0693, 0.000731, 0.00042, 0.7002, 0.000731, 0.00042, 0.7002],
    ("7*", 2): [-0.599, -0.0358, 0.00084, -0.0593, -0.362, 0.00084, -0.599, -0.0358, 0.00084,
                -0.0593, -0.362, 0.00084, -0.0593, -0.0358, 0.0085, -0.0593, -0.0358, 0.00854],
    ("7*", 3): [0.362, -0.0593, -0.000016, 0.0358, -0.599, -0.000016, 0.362, -0.0593, -0.000016,
                0.0358, -0.599, -0.000016, 0.0358, -0.0593, -0.000167, 0.0358, -0.0593, -0.000167],
    ("8", 1): [0, 0.4068, 0.166, 0.4068, 0, -0.239, 0, -0.4068, -0.166,
               -0.4068, 0, 0.239, 0.166, -0.239, 0, -0.166, 0.239, 0],
    ("8", 2): [0, 0.291, -0.222, 0.291, 0, 0.341, 0, -0.291, 0.222,
               -0.291, 0, -0.341, -0.222, 0.341, 0, 0.222, -0.341, 0],
    ("8", 3): [0, -0.00699, 0.416, -0.00699, 0, 0.2772, 0, 0.00699, -0.416,
               0.00699, 0, -0.2772, 0.416, 0.2772, 0, -0.416, -0.2772, 0],
    ("9", 1): [0, -0.1726, 0.266, -0.3865, 0, -0.266, 0, -0.1726, 0.266,
               -0.3865, 0, -0.266, 0.3865, 0.1726, 0, 0.3865, 0.1726, 0],
    ("9", 2): [0, 0.06195, 0.4212, 0.2622, 0, -0.4212, 0, 0.06195, 0.4212,
               0.2622, 0, -0.4212, -0.2622, -0.06195, 0, -0.2622, -0.06195, 0],
    ("9", 3): [0, -0.465, -0.0426, 0.1784, 0, 0.0426, 0, -0.465, -0.0426,
               0.1784, 0, 0.0426, -0.1784, 0.465, 0, -0.1784, 0.465, 0],
}


@pytest.fixture(scope="module")
def shop():
    return modes.ModeWorkshop()


@pytest.fixture(scope="module")
def reported_spectrum(params, equilibrium):
    H = ff.hessian_blocks(params, equilibrium.radius)
    return spectral.numeric_spectrum(H)


class TestBuild:
    def test_breathing_mode(self, shop):
        traj = shop.build_mode("0", 1, 0.05)
        assert traj.symmetry == "D_1 x S_4^p"
        disp = traj.samples - traj.center[None, :]
        norms = np.linalg.norm(disp.reshape(-1, 6, 3), axis=2)
        assert np.max(np.ptp(norms, axis=1)) < 1e-12
        # amplitude normalizes the full 18-vector displacement peak
        assert np.max(np.linalg.norm(disp, axis=1)) == pytest.approx(0.05, rel=1e-9)

    def test_zero_amplitude_constant(self, shop):
        traj = shop.build_mode("0", 1, 0.0)
        assert np.allclose(traj.samples, traj.center[None, :])

    def test_negative_amplitude_rejected(self, shop):
        with pytest.raises(ConfigError):
            shop.build_mode("0", 1, -0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_rejected(self, shop, eps):
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            shop.build_mode("0", 1, eps)

    def test_unknown_index(self, shop):
        with pytest.raises(ConfigError):
            shop.build_mode("0", 2)
        with pytest.raises(ConfigError):
            shop.build_mode("5", 1)

    def test_excessive_amplitude(self, shop):
        with pytest.raises(AmplitudeError):
            shop.build_mode("0", 1, 5.0)

    def test_colliding_sample_is_amplitude_error(self, shop, monkeypatch):
        # past the safe bound the breathing mode, scaled so that its deepest
        # sample reaches the center, puts every ligand on the central atom
        monkeypatch.setattr(shop, "safe_amplitude", lambda: math.inf)
        ci = shop.types_for("0")[0]
        unit = shop.build_mode_for_type(ci, "0", 1, epsilon=1.0, n_samples=8)
        radial = (unit.samples - unit.center) @ unit.center / (unit.center @ unit.center)
        with pytest.raises(
            AmplitudeError,
            match=r"colliding sample \(ligand 1 coincides with the central atom\)",
        ):
            shop.build_mode_for_type(ci, "0", 1, epsilon=-1 / radial.min(), n_samples=8)

    def test_linearized_equation_exact(self, shop):
        traj = shop.build_mode("8", 1, 0.01)
        acc = -traj.alpha ** 2 * (traj.samples - traj.center[None, :])
        recon = np.empty_like(acc)
        for i, t in enumerate(traj.times):
            recon[i] = -traj.alpha ** 2 * (
                math.cos(t) * traj.cos_dir + math.sin(t) * traj.sin_dir
            ) * traj.epsilon
        assert np.allclose(acc, recon, atol=1e-15)


class TestVerify:
    def test_breathing_self_verifies(self, shop):
        traj = shop.build_mode("0", 1, 0.05)
        passed, report = shop.verify_symmetry(traj)
        assert passed
        assert max(report.values()) < 1e-9 * traj.epsilon

    def test_identity_relation_exact(self, shop):
        traj = shop.build_mode("4", 1, 0.02)
        _, report = shop.verify_symmetry(traj)
        ident = next(k for k in report if k == "(rot, e)")
        assert report[ident] == 0.0

    def test_block8_mode_fails_full_symmetry(self, shop):
        traj = shop.build_mode("8", 1, 0.02)
        full = shop.types_for("0")[0]
        passed, report = shop.verify_symmetry(traj, type_class=full)
        assert not passed
        assert max(report.values()) > 1e-3 * traj.epsilon

    def test_incommensurate_sampling(self, shop):
        # the third-turn type needs the sample count divisible by 3: its mode
        # is refused, and so is verifying another 50-sample mode against it
        types = shop.types_for("8")
        k_third = 1 + [shop.ring.label_of(c) for c in types].index(
            "D_3^{Z_1} x_{D_3} D_3^p"
        )
        with pytest.raises(SamplingError):
            shop.build_mode("8", k_third, 0.02, n_samples=50)
        traj = shop.build_mode("8", 1, 0.02, n_samples=50)
        with pytest.raises(SamplingError):
            shop.verify_symmetry(traj, type_class=types[k_third - 1])

    def test_pair_action_is_representation(self, shop, rng):
        A = shop.ring.representative(shop.types_for("9")[0])
        els = sorted(A.elements)
        for _ in range(20):
            x, y = rng.choice(els, size=2)
            Tx = pair_operator(int(x))
            Ty = pair_operator(int(y))
            Txy = pair_operator(orbit_o2.multiply(int(x), int(y)))
            assert np.allclose(Tx @ Ty, Txy, atol=1e-12)


class TestResidual:
    def test_quadratic_scaling_block8(self, shop):
        res = {
            eps: shop.nonlinear_residual(shop.build_mode("8", 1, eps))
            for eps in (1e-2, 1e-3)
        }
        ratio = res[1e-2] / res[1e-3]
        assert 80 <= ratio <= 120

    def test_matches_per_sample_loop(self, shop, params):
        sig = (params.sigma1, params.sigma2, params.sigma3)
        for j, k, n in (("0", 1, 120), ("8", 2, 1200), ("7*", 4, 240)):
            traj = shop.build_mode(j, k, 0.05, n)
            ref = max(
                np.linalg.norm(
                    -traj.alpha ** 2 * (row - traj.center)
                    + gradient_loop(row.reshape(6, 3), *sig).reshape(18)
                )
                for row in traj.samples
            )
            assert shop.nonlinear_residual(traj) == pytest.approx(ref, rel=1e-12)

    def test_brake_velocities(self, shop):
        traj = shop.build_mode("0", 1, 0.05)
        assert is_brake_type(shop.ring, traj.type_class)
        assert max(brake_velocity(traj)) < 1e-9 * traj.epsilon


class TestPairDynamics:
    def test_axial_pair_shares_dynamics(self, shop):
        # the block-7* rotating-wave type on the four-fold axis keeps the
        # two polar atoms in lockstep: u5(t) = M u6(t) with M the swap
        label = "D_4^{Z_1} x^{Z_2^-} D_4^p"
        classes = shop.types_for("7*")
        ci = next(c for c in classes if shop.ring.label_of(c) == label)
        traj = shop.build_mode_for_type(ci, "7*", epsilon=0.03)
        disp = (traj.samples - traj.center[None, :]).reshape(-1, 6, 3)
        n5 = np.linalg.norm(disp[:, 4, :], axis=1)
        n6 = np.linalg.norm(disp[:, 5, :], axis=1)
        assert np.allclose(n5, n6, atol=1e-12)


class TestReferenceVectors:
    def test_identification_and_residual(self, reported_spectrum):
        H = None
        basis_of = {}
        for (j, k), vec in REFERENCE_MODES.items():
            v = np.asarray(vec, dtype=float)
            v /= np.linalg.norm(v)
            B = reported_spectrum.basis_for(j)
            overlap = np.linalg.norm(B.T @ v)
            assert overlap > 0.99, (j, k, overlap)
            basis_of.setdefault(j, []).append(B @ (B.T @ v))
        # projected vectors, re-orthonormalized, diagonalize the block matrix
        eq = ff.find_equilibrium(ff.REFERENCE_PARAMS)
        H = ff.hessian_blocks(eq.params, eq.radius)
        for j, cols in basis_of.items():
            M = np.array(cols).T
            Q, _ = np.linalg.qr(M)
            lam = reported_spectrum.alpha_sq[j]
            assert np.linalg.norm(H @ Q - lam * Q) < 1e-6

    def test_overlap_signs_are_reported_not_asserted(self, reported_spectrum):
        # sign/phase of the printed vectors is a free convention; record it
        v = np.asarray(REFERENCE_MODES[("0", 1)], dtype=float)
        v /= np.linalg.norm(v)
        B = reported_spectrum.basis_for("0")
        sign = float(np.sign((B.T @ v)[0]))
        assert sign in (-1.0, 1.0)


def per_value_export(traj, path):
    """``format_float`` on every cell, one at a time (oracle for
    ``modes.export_trajectory``)."""
    lines = [modes.CSV_HEADER]
    for t, row in zip(traj.times, traj.samples):
        lines.append(",".join(format_float(v) for v in (t, *row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def per_value_read(path):
    """``float()`` on every cell, one at a time (oracle for
    ``modes.read_trajectory``)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != modes.CSV_HEADER:
            raise ConfigError(f"unexpected CSV header in {path}")
        try:
            rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
        except ValueError:
            raise ConfigError(f"non-numeric sample in {path}") from None
    width = modes.CSV_HEADER.count(",") + 1
    if not rows:
        raise ConfigError(f"no samples in {path}")
    if any(len(row) != width for row in rows):
        raise ConfigError(f"rows of {path} do not all have {width} columns")
    data = np.array(rows)
    return data[:, 0], data[:, 1:]


# the edges of format_float's two branches: signed zero, integral values on
# both sides of 1e16, the largest double below it, 2**53, the least
# subnormal and a non-integral value
EDGE_VALUES = [
    0.0, -0.0, 1.0, -3.0, 1e15, 9999999999999998.0, 1e16, 1.5e16, 1e17,
    float(2 ** 53), 5e-324, 0.1,
]


def edge_trajectory():
    """12 rows whose cells run over EDGE_VALUES and their negatives, each
    row shifted by one, so that the rows have many distinct masks."""
    values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES])
    rows = np.array([np.resize(np.roll(values, -i), 19) for i in range(len(EDGE_VALUES))])
    return SimpleNamespace(times=rows[:, 0], samples=rows[:, 1:])


def every_mode(shop, n_samples):
    for j in bifurcation.ISOTYPIC:
        for k in range(1, len(shop.types_for(j)) + 1):
            yield shop.build_mode(j, k, 0.05, n_samples)


@pytest.fixture(scope="module")
def long_modes(shop):
    trajs = list(every_mode(shop, 1200))
    assert len(trajs) == 24
    return trajs


@pytest.fixture(scope="module")
def wide_modes():
    """Mode (7, 3) at 1,200 samples for every draw of the 400-draw wide grid
    that builds it: nonzero magnitudes from 7.8e-38 to 92, rounding noise
    included."""
    trajs = []
    for sigmas in wide_grid(400):
        try:
            shop = modes.ModeWorkshop(ff.PotentialParams(*sigmas))
            trajs.append(shop.build_mode("7", 3, 0.05, 1200))
        except NumericalError:
            continue
    assert len(trajs) == 240
    return trajs


def distinct_values(traj):
    data = np.column_stack((traj.times, traj.samples))
    return np.unique(data.view(np.uint64)).view(float)


class TestKernelOnModes:
    """The array kernel called directly, whatever size selection picks."""

    def assert_kernel_matches_format_float(self, traj):
        values = distinct_values(traj)
        got = [text.decode() for text in format_values(values).tolist()]
        assert got == list(map(format_float, values.tolist())), (traj.j, traj.k)

    def test_every_mode(self, shop, long_modes):
        for traj in [*every_mode(shop, modes.DEFAULT_SAMPLES), *long_modes]:
            self.assert_kernel_matches_format_float(traj)

    def test_every_wide_grid_mode(self, wide_modes):
        # 3.2 million values in all
        for traj in wide_modes:
            self.assert_kernel_matches_format_float(traj)

    def test_sizes_on_either_side_of_the_crossover(self, shop, long_modes):
        # the 18x18 spectrum basis stays value by value, a 1,200-sample mode
        # takes the kernel
        basis = shop.spectrum.basis
        assert len(np.unique(basis)) < _serialize.KERNEL_MIN_VALUES
        assert min(len(distinct_values(t)) for t in long_modes) >= _serialize.KERNEL_MIN_VALUES

    def test_memory_peak_of_the_largest_mode(self, long_modes, monkeypatch):
        traj = max(long_modes, key=lambda t: len(distinct_values(t)))
        data = np.column_stack((traj.times, traj.samples))

        def peak():
            tracemalloc.start()
            try:
                for _ in format_rows(data):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        format_values(np.array([0.5]))  # the tables are built once per process
        kernel = peak()
        monkeypatch.setattr(_serialize, "KERNEL_MIN_VALUES", sys.maxsize)
        per_value = peak()
        assert kernel <= 1.5 * per_value, (kernel, per_value)


class TestReadBack:
    """``read_trajectory`` against ``float()`` on every cell, bit for bit."""

    def test_every_mode_reads_as_float_does(self, shop, long_modes, tmp_path):
        for traj in [*every_mode(shop, modes.DEFAULT_SAMPLES), *long_modes]:
            path = modes.export_trajectory(traj, tmp_path / "mode.csv")
            for got, want in zip(modes.read_trajectory(path), per_value_read(path)):
                assert got.tobytes() == want.tobytes(), (traj.j, traj.k, traj.n_samples)

    def test_every_wide_grid_mode_reads_as_float_does(self, wide_modes, tmp_path):
        # 17 digits read back to the value written, so float() of every cell
        # is the trajectory's value; one in twenty is read by float() too
        for i, traj in enumerate(wide_modes):
            path = modes.export_trajectory(traj, tmp_path / "mode.csv")
            times, samples = modes.read_trajectory(path)
            assert times.tobytes() == traj.times.tobytes()
            assert samples.tobytes() == traj.samples.tobytes()
            if i % 20 == 0:
                assert samples.tobytes() == per_value_read(path)[1].tobytes()

    def test_edge_values_read_as_float_does(self, tmp_path):
        traj = edge_trajectory()
        path = modes.export_trajectory(traj, tmp_path / "mode.csv")
        times, samples = modes.read_trajectory(path)
        want_times, want_samples = per_value_read(path)
        assert times.tobytes() == want_times.tobytes()
        assert samples.tobytes() == want_samples.tobytes()
        assert np.signbit(samples[0, 0]) and samples[0, 0] == 0.0  # -0.0 keeps its sign

    def test_memory_peak_of_the_largest_mode(self, long_modes, tmp_path):
        # 4,096 cells at a time: the peak stays within a few times the file
        traj = max(long_modes, key=lambda t: len(distinct_values(t)))
        path = modes.export_trajectory(traj, tmp_path / "mode.csv")
        modes.read_trajectory(path)  # the tables are built once per process
        tracemalloc.start()
        try:
            modes.read_trajectory(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * path.stat().st_size, (peak, path.stat().st_size)


class TestSampleBound:
    def test_refused_above_the_bound_before_any_work(self, shop, monkeypatch):
        monkeypatch.setattr(modes, "MAX_SAMPLES", 24)
        assert shop.build_mode("0", 1, 0.05, 24).n_samples == 24
        monkeypatch.setattr(shop, "types_for", None)  # nothing past the check runs
        with pytest.raises(ConfigError, match="^25 samples per period exceed the bound of 24$"):
            shop.build_mode("0", 1, 0.05, 25)


class TestPairDifferences:
    def test_take_equals_fancy_indexing_on_every_mode(self, long_modes):
        for traj in long_modes:
            pos = traj.samples.reshape(-1, 6, 3)
            want = pos[..., accel.PAIR_J, :] - pos[..., accel.PAIR_K, :]
            d, r = accel.pairs(pos)
            assert d.tobytes() == want.tobytes(), (traj.j, traj.k)
            assert r.tobytes() == np.einsum("...pc,...pc->...p", want, want).tobytes()


class TestExport:
    def test_csv_contract(self, shop, tmp_path):
        traj = shop.build_mode("0", 1, 0.05, n_samples=24)
        path = tmp_path / "mode.csv"
        modes.export_trajectory(traj, path)
        text = path.read_text().splitlines()
        assert text[0] == "t," + ",".join(
            f"{c}{i}" for i in range(1, 7) for c in ("x", "y", "z")
        )
        assert len(text) == 1 + 24

    def test_roundtrip_bit_identical(self, shop, tmp_path):
        traj = shop.build_mode("9", 1, 0.02, n_samples=40)
        path = tmp_path / "mode.csv"
        modes.export_trajectory(traj, path)
        times, samples = modes.read_trajectory(path)
        assert np.array_equal(times, traj.times)
        assert np.array_equal(samples, traj.samples)

    def test_every_mode_matches_the_per_value_codec(self, shop, tmp_path):
        trajs = list(every_mode(shop, modes.DEFAULT_SAMPLES))
        assert len(trajs) == 24
        for traj in trajs:
            new = modes.export_trajectory(traj, tmp_path / "new.csv")
            old = per_value_export(traj, tmp_path / "old.csv")
            assert new.read_bytes() == old.read_bytes(), (traj.j, traj.k)
            for got, want in zip(modes.read_trajectory(new), per_value_read(old)):
                assert got.tobytes() == want.tobytes(), (traj.j, traj.k)

    def test_every_long_mode_matches_the_per_value_codec(self, long_modes, tmp_path):
        # the benchmark's sample count: repeats lie up to half a period apart
        for traj in long_modes:
            new = modes.export_trajectory(traj, tmp_path / "new.csv")
            old = per_value_export(traj, tmp_path / "old.csv")
            assert new.read_bytes() == old.read_bytes(), (traj.j, traj.k)

    def test_every_wide_grid_mode_matches_the_per_value_codec(self, wide_modes, tmp_path):
        # one in twenty of the 240 exports, cell by cell (all of them value
        # by value in TestKernelOnModes)
        for traj in wide_modes[::20]:
            new = modes.export_trajectory(traj, tmp_path / "new.csv")
            old = per_value_export(traj, tmp_path / "old.csv")
            assert new.read_bytes() == old.read_bytes()

    def test_edge_values_match_the_per_value_codec(self, tmp_path):
        traj = edge_trajectory()
        new = modes.export_trajectory(traj, tmp_path / "new.csv")
        old = per_value_export(traj, tmp_path / "old.csv")
        assert new.read_bytes() == old.read_bytes()
        times, samples = modes.read_trajectory(new)
        # bytes, not values: -0.0 must come back with its sign
        assert times.tobytes() == traj.times.tobytes()
        assert samples.tobytes() == traj.samples.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_refused_before_the_file(self, shop, tmp_path, bad):
        traj = shop.build_mode("0", 1, 0.05, n_samples=24)
        traj.samples[5, 7] = bad
        path = tmp_path / "mode.csv"
        with pytest.raises(ValueError, match="non-finite"):
            modes.export_trajectory(traj, path)
        assert not path.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "body, message",
        [
            ("", "no samples"),
            ("\n\n", "no samples"),
            ("  \n\t\n \r\n", "no samples"),
            ("0.0" + ",1.0" * 18 + "\n0.5,1.0\n", "do not all have 19 columns"),
            ("0.0" + ",1.0" * 17 + "\n0.5" + ",1.0" * 17 + "\n", "do not all have 19 columns"),
            ("0.0" + ",x" * 18 + "\n", "non-numeric sample"),
            ("0.0,1,,2" + ",1.0" * 15 + "\n", "non-numeric sample"),
        ],
        ids=["empty", "blank_only", "whitespace_only", "ragged", "narrow", "non_numeric",
             "empty_cell"],
    )
    def test_read_refuses_bad_body(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(modes.CSV_HEADER + "\n" + body)
        with pytest.raises(ConfigError, match=f"{message} .*bad.csv|bad.csv .*{message}"):
            modes.read_trajectory(path)

    def test_read_refuses_digit_group_underscores(self, tmp_path):
        # float("1_0") is 10.0, but no exporter writes it: the reader is
        # numpy's, which refuses it
        path = tmp_path / "bad.csv"
        path.write_text(modes.CSV_HEADER + "\n" + "0.0,1_0" + ",1.0" * 17 + "\n")
        assert per_value_read(path)[1][0, 0] == 10.0
        with pytest.raises(ConfigError, match="non-numeric sample in .*bad.csv"):
            modes.read_trajectory(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "newline, gap, end",
        [("\r\n", "", "\r\n"), ("\n", "\n\n", "\n"), ("\n", "  \n", ""),
         ("\n", "", "")],
        ids=["crlf", "blank_lines", "whitespace_line_no_final_newline", "no_final_newline"],
    )
    def test_read_accepts_loose_layout(self, shop, tmp_path, newline, gap, end):
        traj = shop.build_mode("8", 2, 0.05, n_samples=24)
        rows = per_value_export(traj, tmp_path / "mode.csv").read_text().splitlines()
        path = tmp_path / "loose.csv"
        path.write_bytes((rows[0] + newline + (newline + gap).join(rows[1:]) + end).encode())
        times, samples = modes.read_trajectory(path)
        assert np.array_equal(times, traj.times)
        assert np.array_equal(samples, traj.samples)

    @pytest.mark.parametrize(
        "cell",
        ["+1.0", " 1.0", "1.0 ", "1e5", "1e+5", ".5", "1.", "--1", "nan", "inf",
         "0x1p-3", "1_0", "-1.23456789012345678e-300"],
        ids=["plus", "leading_space", "trailing_space", "bare_exponent",
             "one_digit_exponent", "no_integer_digit", "no_fraction_digit", "two_minus",
             "nan", "inf", "hex", "underscore", "25_bytes"],
    )
    def test_read_refuses_off_grammar_cells(self, tmp_path, cell):
        # the writer prints none of these, so the reader takes none of them,
        # though float() and numpy's loadtxt read most of them
        path = tmp_path / "bad.csv"
        path.write_text(modes.CSV_HEADER + "\n" + "0.0," + cell + ",1.0" * 17 + "\n")
        with pytest.raises(ConfigError, match="non-numeric sample in .*bad.csv"):
            modes.read_trajectory(path)

    def test_manifest(self, shop):
        import json

        traj = shop.build_mode("0", 1, 0.05)
        passed, report = shop.verify_symmetry(traj)
        doc = json.loads(modes.mode_manifest(traj, passed, report))
        assert doc["j"] == "0"
        assert doc["symmetry"] == "D_1 x S_4^p"
        assert doc["verified"] is True
        assert len(doc["verified_generators"]) == 96
