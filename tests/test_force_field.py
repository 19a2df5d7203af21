import dataclasses
import math

import numpy as np
import pytest

from octavib import accel, modes
from octavib import force_field as ff
from octavib import group_core as gc
from octavib.errors import CollisionError, ConfigError, SearchFailureError, ShapeError

from conftest import gradient_loop, random_configuration


def pairwise_reference(params, pos):
    """Independent oracle: direct sum over all 15 pairs plus 6 bond terms."""
    total = 0.0
    for j in range(6):
        for k in range(j + 1, 6):
            r = float(np.sum((pos[j] - pos[k]) ** 2))
            total += (
                params.sigma1 / r ** 6
                - params.sigma2 / r ** 3
                + params.sigma3 / math.sqrt(r)
            )
        r = float(pos[j] @ pos[j])
        total += (math.sqrt(r) - 1.0) ** 2
    return total


def as_configuration_rows(stack):
    """Oracle for ``check_configurations``: the per-row collision loop."""
    for pos in np.asarray(stack, dtype=float).reshape(-1, 6, 3):
        for j in range(6):
            if pos[j] @ pos[j] < ff._COLLISION_TOL:
                raise CollisionError(j)
            for k in range(j + 1, 6):
                d = pos[j] - pos[k]
                if d @ d < ff._COLLISION_TOL:
                    raise CollisionError(j, k)


def perturbed_stack(n, seed):
    rng = np.random.default_rng(seed)
    return np.array([random_configuration(rng) for _ in range(n)])


# (sample, ligand) -> the point it is set to (the origin, or infinity) or the
# ligand it is set onto, and the collision the row loop reports first
COLLISIONS = pytest.mark.parametrize(
    "plant, expected",
    [
        ({(0, 2): 0.0}, (2, None)),
        ({(0, 4): 1}, (1, 4)),
        ({(0, 3): 0.0, (0, 1): 2}, (1, 2)),  # lower ligand's pair first
        ({(0, 2): 0.0, (0, 4): 0.0}, (2, None)),  # origin before (2, 4)
        ({(7, 0): 3, (9, 0): 0.0}, (0, 3)),  # later rows, first one wins
        # two ligands at infinity: a NaN pair distance, which collides with nothing
        ({(0, 0): math.inf, (0, 1): 0, (5, 4): 3}, (3, 4)),
    ],
    ids=["origin", "pair", "pair_before_origin", "origin_before_pair", "later_row",
         "nan_distance_first"],
)
# the ligands at infinity are inf - inf apart
INF_MINUS_INF = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")


def planted_stack(plant):
    stack = perturbed_stack(12, seed=13)
    for (row, j), target in plant.items():
        stack[row, j] = target if isinstance(target, float) else stack[row, target]
    return stack


class TestPotential:
    def test_unit_octahedron_harmonic_only_is_zero(self):
        params = ff.PotentialParams(0, 0, 0)
        assert ff.potential(params, ff.OCTAHEDRON) == pytest.approx(0.0, abs=1e-15)

    def test_radial_formula_and_pairwise_oracle(self, params):
        r = 1.4128
        config = r * ff.OCTAHEDRON
        expected = (
            12 * ff.u1(2 * r * r, params)
            + 3 * ff.u1(4 * r * r, params)
            + 6 * ff.u2(r * r)
        )
        value = ff.potential(params, config)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(pairwise_reference(params, config), rel=1e-12)

    def test_collision_raises_with_pair(self, params):
        config = ff.OCTAHEDRON.copy()
        config[1] = config[0]
        with pytest.raises(CollisionError) as err:
            ff.potential(params, config)
        assert err.value.pair == (0, 1)

    def test_origin_collision(self, params):
        config = ff.OCTAHEDRON.copy()
        config[2] = 0.0
        with pytest.raises(CollisionError):
            ff.potential(params, config)

    def test_invariance_under_group(self, params, rng):
        gens = [
            gc.element_from_word(w)
            for w in ("(24)", "(12)(34)", "(56)", "(132)", "(1234)")
        ]
        for _ in range(100):
            pos = random_configuration(rng)
            u0 = ff.potential(params, pos)
            for g in gens:
                moved = (gc.action_matrix_18(g) @ pos.reshape(18)).reshape(6, 3)
                assert ff.potential(params, moved) == pytest.approx(u0, abs=1e-12)

    def test_shape_error(self, params):
        with pytest.raises(ShapeError):
            ff.potential(params, np.zeros((5, 3)))


class TestGradient:
    def test_equilibrium_residual(self, params):
        g = ff.gradient(params, 1.4128 * ff.OCTAHEDRON)
        assert np.max(np.abs(g)) < 1e-3

    def test_zero_on_unit_sphere_without_pair_terms(self, rng):
        # with all sigmas zero only the bond term is left, whose gradient
        # vanishes exactly on the unit sphere
        params = ff.PotentialParams(0, 0, 0)
        pos = rng.normal(size=(6, 3))
        pos /= np.linalg.norm(pos, axis=1)[:, None]
        assert np.max(np.abs(ff.gradient(params, pos))) < 1e-12

    def test_finite_difference_oracle(self, params, rng):
        step = 1e-5
        for _ in range(5):
            pos = random_configuration(rng).reshape(18)
            g = ff.gradient(params, pos)
            for i in range(18):
                up, dn = pos.copy(), pos.copy()
                up[i] += step
                dn[i] -= step
                fd = (ff.potential(params, up) - ff.potential(params, dn)) / (2 * step)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_equivariance(self, params, rng):
        for _ in range(20):
            pos = random_configuration(rng).reshape(18)
            g = ff.gradient(params, pos)
            for w in ("(1234)", "(132)", "(56)"):
                G = gc.action_matrix_18(gc.element_from_word(w))
                assert np.allclose(ff.gradient(params, G @ pos), G @ g, atol=1e-10)


class TestBatchedKernels:
    def test_gradient_matches_loop_oracle(self, params):
        stack = perturbed_stack(240, seed=11)
        sig = (params.sigma1, params.sigma2, params.sigma3)
        batched = accel.gradient(stack, *sig)
        assert batched.shape == stack.shape
        for pos, g in zip(stack, batched):
            ref = gradient_loop(pos, *sig)
            assert np.all(np.abs(g - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    def test_single_call_is_row_of_batched_call(self, params):
        stack = perturbed_stack(50, seed=12)
        batched = ff.gradients(params, stack.reshape(50, 18))
        assert batched.shape == (50, 18)
        for pos, row in zip(stack, batched):
            assert np.array_equal(ff.gradient(params, pos), row)
            assert np.array_equal(ff.gradient(params, pos.reshape(18)), row)

    @COLLISIONS
    @INF_MINUS_INF
    def test_collision_matches_row_loop(self, plant, expected):
        stack = planted_stack(plant)
        with pytest.raises(CollisionError) as ref:
            as_configuration_rows(stack)
        with pytest.raises(CollisionError) as err:
            ff.check_configurations(stack)
        assert err.value.pair == ref.value.pair == expected
        assert str(err.value) == str(ref.value)
        with pytest.raises(CollisionError) as err18:
            ff.check_configurations(stack.reshape(12, 18))
        assert err18.value.pair == expected

    @COLLISIONS
    @INF_MINUS_INF
    def test_gradients_refuse_as_the_check(self, params, plant, expected):
        # gradients and the nonlinear residual share the check's pair
        # distances and raise what it raises, on either stack shape
        stack = planted_stack(plant)
        with pytest.raises(CollisionError) as ref:
            ff.check_configurations(stack)
        shop = modes.ModeWorkshop(params)
        traj = dataclasses.replace(shop.build_mode("0"), samples=stack.reshape(12, 18))
        calls = [
            lambda: ff.gradients(params, stack),
            lambda: ff.gradients(params, stack.reshape(12, 18)),
            lambda: shop.nonlinear_residual(traj),
        ]
        for call in calls:
            with pytest.raises(CollisionError) as err:
                call()
            assert err.value.args == ref.value.args
            assert err.value.pair == ref.value.pair == expected

    def test_clean_stack_passes(self):
        stack = perturbed_stack(12, seed=14)
        out = ff.check_configurations(stack.reshape(12, 18))
        assert out.shape == (12, 6, 3)
        assert np.array_equal(out, stack)
        assert ff.check_configurations(np.zeros((0, 18))).shape == (0, 6, 3)

    @pytest.mark.parametrize(
        "shape", [(6, 3), (4, 5, 3), (3, 17), (2, 6, 3, 1)],
        ids=["6x3", "4x5x3", "3x17", "2x6x3x1"],
    )
    def test_stack_shape_error(self, params, shape):
        with pytest.raises(ShapeError):
            ff.check_configurations(np.ones(shape))
        with pytest.raises(ShapeError):
            ff.gradients(params, np.ones(shape))


class TestEquilibrium:
    def test_reference_radius(self, params, equilibrium):
        assert equilibrium.radius == pytest.approx(1.4128, abs=1e-3)
        assert abs(ff.phi_prime(params, equilibrium.radius)) < 1e-10
        assert ff.phi_second(params, equilibrium.radius) > 0
        assert abs(ff.ct_residual(params, equilibrium.radius)) < 1e-9

    @pytest.mark.parametrize(
        "sigmas", [(0.0618, 0.0618, 1.0), (0.1, 0.1, 0.5), (0.1, 1e5, 1.0), (1e-3, 0, 10)]
    )
    def test_phi_second_is_the_slope_of_phi_prime(self, sigmas):
        params = ff.PotentialParams(*sigmas)
        r0 = ff.find_equilibrium(params).radius
        for r in (r0, 0.9 * r0, 1.2 * r0):
            exact = ff.phi_second(params, r)
            for h in (1e-5 * r, 1e-6 * r):
                slope = (ff.phi_prime(params, r + h) - ff.phi_prime(params, r - h)) / (2 * h)
                assert slope == pytest.approx(exact, rel=1e-8)

    def test_harmonic_only(self):
        eq = ff.find_equilibrium(ff.PotentialParams(0, 0, 0))
        assert eq.radius == 1.0

    def test_grid_scan_oracle(self):
        params = ff.PotentialParams(0.1, 0.1, 0.5)
        eq = ff.find_equilibrium(params)
        grid = np.linspace(0.5, 3.0, 1_000_000)
        values = ff.phi(params, grid)
        best = grid[np.argmin(values)]
        assert abs(best - eq.radius) < 2 * (grid[1] - grid[0])

    def test_coercivity_smoke(self, params, equilibrium):
        floor = ff.phi(params, equilibrium.radius)
        assert ff.phi(params, 1e-3) > floor + 1e3
        assert ff.phi(params, 1e3) > floor + 1e3

    def test_search_failure(self):
        with pytest.raises(SearchFailureError):
            ff.find_equilibrium(ff.PotentialParams(0, 0, 1e12), hi=10.0)


class TestHessian:
    def test_finite_difference_oracle(self, params, rng):
        step = 1e-5
        for _ in range(3):
            pos = random_configuration(rng).reshape(18)
            H = ff.hessian(params, pos)
            assert np.max(np.abs(H - H.T)) < 1e-12
            for i in range(0, 18, 5):
                up, dn = pos.copy(), pos.copy()
                up[i] += step
                dn[i] -= step
                fd = (ff.gradient(params, up) - ff.gradient(params, dn)) / (2 * step)
                scale = max(1.0, np.max(np.abs(H[:, i])))
                assert np.max(np.abs(H[:, i] - fd)) / scale < 1e-5

    def test_block_path_matches_cartesian_hessian(self, params, equilibrium):
        analytic = ff.hessian(params, equilibrium.configuration)
        blocks = ff.hessian_blocks(params, equilibrium.radius, convention="cartesian")
        assert np.max(np.abs(analytic - blocks)) < 1e-10

    def test_reported_p13_block(self, params, equilibrium):
        a, b, c, d, e = ff.stiffness(params, equilibrium.radius)
        H = ff.hessian_blocks(params, equilibrium.radius)
        p13 = H[0:3, 6:9]
        assert np.allclose(p13, np.diag([-8 * b - d, -d, -d]), atol=1e-14)

    def test_pair_terms_vanish_without_sigmas(self, rng):
        # the bond term carries no parameter, so only pair blocks vanish
        params = ff.PotentialParams(0, 0, 0)
        pos = random_configuration(rng)
        H = ff.hessian(params, pos)
        for j in range(6):
            for k in range(6):
                if j != k:
                    assert np.max(np.abs(H[3 * j : 3 * j + 3, 3 * k : 3 * k + 3])) == 0

    def test_equivariance_conjugation(self, params, rng):
        pos = random_configuration(rng).reshape(18)
        H = ff.hessian(params, pos)
        for w in ("(1234)", "(56)", "(24)"):
            G = gc.action_matrix_18(gc.element_from_word(w))
            assert np.allclose(ff.hessian(params, G @ pos), G @ H @ G.T, atol=1e-9)

    def test_block_path_requires_equilibrium(self, params):
        with pytest.raises(ShapeError):
            ff.hessian_blocks(params, 2.0)

    @pytest.mark.parametrize("sigmas", [(0.1, 1e5, 1.0), (1e-300, 0, 0)])
    def test_criticality_is_checked_against_its_rounding(self, sigmas):
        # at (0.1, 1e5, 1) the residual is -0.0071 beside summands of 1.3e12;
        # at (1e-300, 0, 0) r0 = 1 leaves 1e-301 that no rounding of r0 removes
        params = ff.PotentialParams(*sigmas)
        r0 = ff.find_equilibrium(params).radius
        assert ff.hessian_blocks(params, r0).shape == (18, 18)
        with pytest.raises(ShapeError):
            ff.hessian_blocks(params, r0 * (1 + 1e-6))


class TestParamsFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("sigma1=0.0618\nsigma2=0.0618\nsigma3=1\n")
        p = ff.load_params(path)
        assert p == ff.REFERENCE_PARAMS

    def test_line_number_in_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sigma1=0.1\nnot a line\n")
        with pytest.raises(ConfigError, match=":2:"):
            ff.load_params(path)

    @pytest.mark.parametrize(
        "body, line, first",
        [
            ("sigma1=0.1\nsigma1=0.2\nsigma2=0.1\nsigma3=1\n", 2, 1),
            ("sigma3=1\nsigma1=0.1\n\n# again\nsigma2=0\n sigma3 = 1\n", 6, 1),
            ("sigma1=0.1\nsigma2=0.1\nsigma3=1\nsigma2=0.1\n", 4, 2),
        ],
        ids=["last_would_win", "same_value_after_a_comment", "after_a_complete_set"],
    )
    def test_repeated_key_refused(self, tmp_path, body, line, first):
        path = tmp_path / "twice.cfg"
        path.write_text(body)
        message = rf"twice\.cfg:{line}: repeated key 'sigma\d', first set on line {first}$"
        with pytest.raises(ConfigError, match=message):
            ff.load_params(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, value):
        path = tmp_path / "nonfinite.cfg"
        path.write_text(f"sigma1=0.1\nsigma2={value}\nsigma3=1\n")
        with pytest.raises(ConfigError, match=r"nonfinite\.cfg:2: sigma2"):
            ff.load_params(path)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            ff.PotentialParams(-1, 0, 0)
        with pytest.raises(ConfigError):
            ff.PotentialParams(0, 0.5, 1)
