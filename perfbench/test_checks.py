"""Tests of the benchmark's own request streams and output checks.

    python3 -m pytest perfbench -q

A check that never fires would let a wrong answer count as a fast success,
so every check is shown to fail an op once its expected value is corrupted.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import ops  # noqa: E402
import worker  # noqa: E402
from octavib import force_field, modes  # noqa: E402
from octavib.errors import ConfigError, ConsistencyError, SearchFailureError  # noqa: E402

REFERENCE = worker.astuple(force_field.REFERENCE_PARAMS)
REFERENCE_REQUEST = ops.SweepRequest(REFERENCE, ("7", 2))
R = ops.REFUSALS


def corrupt(**fields):
    return dataclasses.replace(ops.EXPECTED, **fields)


@pytest.fixture(scope="module")
def warm():
    """The set-up every timed op runs after."""
    worker.setup()


# -- request streams -----------------------------------------------------------

def test_fixed_seed_reproduces_the_sweep_stream():
    a = ops.sweep_pass(5, ops.TIMED, REFERENCE, 2)
    assert a == ops.sweep_pass(5, ops.TIMED, REFERENCE, 2)
    assert a != ops.sweep_pass(6, ops.TIMED, REFERENCE, 2)
    assert a != ops.sweep_pass(5, ops.WARMUP, REFERENCE, 2)


def test_sweep_pass_is_balanced_and_within_the_spread():
    requests = ops.sweep_pass(1, ops.TIMED, REFERENCE, 3)
    modes_ = [r.mode for r in requests]
    assert sorted(modes_) == sorted(ops.MODE_REQUESTS * 3)
    factors = np.log(np.array([r.sigmas for r in requests]) / REFERENCE)
    assert np.all(np.abs(factors) <= ops.SWEEP_SPREAD)
    # one draw per stratum of every sigma
    strata = np.floor((factors / ops.SWEEP_SPREAD + 1) / 2 * len(requests))
    for column in strata.T:
        assert sorted(column) == list(range(len(requests)))


def test_fixed_seed_reproduces_trajectory_cycles_and_invariant_params():
    a, b = ops.trajectory_cycles(3, ops.TIMED), ops.trajectory_cycles(3, ops.TIMED)
    for _ in range(2):
        cycle = next(a)
        assert cycle == next(b)
        assert sorted(cycle) == sorted(ops.MODE_REQUESTS)
    assert ops.invariant_params(3, 1, REFERENCE) == ops.invariant_params(3, 1, REFERENCE)
    assert ops.invariant_params(3, 1, REFERENCE) != ops.invariant_params(3, 2, REFERENCE)


# -- outcome accounting ----------------------------------------------------------

def test_attempt_separates_refusals_from_failures():
    def raises(exc):
        raise exc

    r = ops.REFUSALS
    assert ops.attempt(r, lambda: None) == ("ok", None)
    assert ops.attempt(r, raises, SearchFailureError("x")) == ("refused", "SearchFailureError")
    assert ops.attempt(r, raises, ConsistencyError("x")) == ("failed", "ConsistencyError")
    assert ops.attempt(r, raises, KeyError("x")) == ("failed", "KeyError")
    assert ops.attempt(r, raises, ops.CheckFailed("x")) == ("failed", "CheckFailed")


def test_refusal_fails_where_every_request_should_succeed():
    def raises(exc):
        raise exc

    assert ops.attempt((), raises, SearchFailureError("x")) == ("failed", "SearchFailureError")
    assert ops.attempt((), raises, ConfigError("x")) == ("failed", "ConfigError")


def test_unexpected_cli_output_fails_the_check():
    with pytest.raises(ops.CheckFailed):
        ops.parse_invariant_output("maximal_types:\n  +1 (D_1 x S_4^p)\n")


# -- corrupted expected values fail the op -------------------------------------

def test_sweep_op_passes_with_true_expectations(warm, tmp_path):
    outcome = ops.attempt(R, ops.sweep_op, REFERENCE_REQUEST, ops.EXPECTED, str(tmp_path))
    assert outcome == ("ok", None)


@pytest.mark.parametrize("expected", [
    corrupt(multiplicities=dict(ops.EXPECTED.multiplicities, **{"9": 2})),
    corrupt(census=dict(ops.EXPECTED.census, **{"4": frozenset({"D_1 x D_4^p"})})),
    corrupt(coefficient_magnitudes=frozenset({2})),
    corrupt(symmetry_tolerance=0.0),
    corrupt(residual_tolerance=0.0),
], ids=["multiplicities", "census", "coefficients", "symmetry", "residual"])
def test_sweep_op_fails_on_corrupted_expectation(warm, tmp_path, expected):
    outcome = ops.attempt(R, ops.sweep_op, REFERENCE_REQUEST, expected, str(tmp_path))
    assert outcome == ("failed", "CheckFailed")


def test_inexact_csv_read_back_fails_the_op(warm, tmp_path, monkeypatch):
    read = modes.read_trajectory

    def lossy(path):
        times, samples = read(path)
        return times, samples + 1e-15

    monkeypatch.setattr(modes, "read_trajectory", lossy)
    shop = modes.ModeWorkshop()
    outcome = ops.attempt(R, ops.trajectory_op, shop, ("0", 1), ops.EXPECTED, str(tmp_path))
    assert outcome == ("failed", "CheckFailed")


def test_rejected_csv_read_back_fails_the_op(warm, tmp_path, monkeypatch):
    def rejects(path):
        raise ConfigError(f"{path}: unexpected CSV header")

    monkeypatch.setattr(modes, "read_trajectory", rejects)
    outcome = ops.attempt(R, ops.sweep_op, REFERENCE_REQUEST, ops.EXPECTED, str(tmp_path))
    assert outcome == ("failed", "CheckFailed")


def test_trajectory_op_fails_on_corrupted_symmetry_tolerance(warm, tmp_path):
    shop = modes.ModeWorkshop()
    args = (shop, ("9", 4))
    assert ops.attempt((), ops.trajectory_op, *args, ops.EXPECTED, str(tmp_path)) == ("ok", None)
    bad = corrupt(symmetry_tolerance=0.0)
    assert ops.attempt((), ops.trajectory_op, *args, bad, str(tmp_path)) == ("failed", "CheckFailed")


def flip_sign(j, label):
    coefficients = dict(ops.EXPECTED.invariant_coefficients)
    coefficients[j] = dict(coefficients[j], **{label: -coefficients[j][label]})
    return corrupt(invariant_coefficients=coefficients)


@pytest.mark.parametrize("expected", [
    ops.EXPECTED,
    corrupt(census=dict(ops.EXPECTED.census, **{"0": frozenset({"D_1 x D_4^p"})})),
    flip_sign("7", "D_4^{Z_1} x^{Z_2^-} D_4^p"),
], ids=["true", "census", "coefficient-sign"])
def test_invariants_op_checks_census_and_exact_coefficients(warm, tmp_path, expected):
    outcome = ops.attempt((), ops.invariants_op, REFERENCE, expected, str(tmp_path))
    assert outcome == (("ok", None) if expected is ops.EXPECTED else ("failed", "CheckFailed"))
