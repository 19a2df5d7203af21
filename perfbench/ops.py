"""Seeded request streams, the benchmark's ops, and the checks on their outputs.

Every op calls the public API of ``octavib`` (the invariants op goes through
the command-line entry point) and checks what comes back against the
expected values below.  An op that returns a wrong result raises
``CheckFailed`` and counts as failed, however fast it was.
"""

import contextlib
import io
import json
import math
import os
import re
import traceback
from dataclasses import dataclass

import numpy as np

from octavib import bifurcation, cli, force_field, modes, spectral
from octavib.errors import ConfigError, NumericalError

FAST_BLOCKS = ("0", "4", "7", "7*", "8")  # fast-path reports of a sweep op
FULL_BLOCKS = ("0", "7*", "4", "7")  # blocks `octavib invariant` runs in full
MODE_REQUESTS = tuple(
    (j, k)
    for j, n in (("0", 1), ("4", 3), ("7", 5), ("7*", 5), ("8", 5), ("9", 5))
    for k in range(1, n + 1)
)
EPSILON = 0.05  # mode amplitude, the CLI default
SWEEP_SAMPLES = modes.DEFAULT_SAMPLES
TRAJECTORY_SAMPLES = 1200
LAMBDA_MAX = 3.0

# log-uniform spread of each sigma around the reference, as a factor e^(+-x).
# The sweep spans the design space, unstable draws included.  The invariants
# band keeps the reference critical ordering, so every op does the same
# orbit-type work and one op per run is a steady sample.
SWEEP_SPREAD = 0.5
INVARIANT_SPREAD = 0.1

# seed streams: the same --seed gives the same requests in every stream
TIMED, WARMUP, INVARIANTS = 0, 1, 2


class CheckFailed(Exception):
    """An op returned output that differs from the expected value."""


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Expected:
    """Reference values every op output is checked against."""

    # maximal symmetry types per block, as listed in tests/test_acceptance.py
    census: dict
    # labeled spectrum multiplicities, pattern {1, 2, 3, 3, 3, 3, 3}
    multiplicities: dict
    # exact coefficients of `octavib invariant` at the reference critical
    # ordering, which every invariants op keeps
    invariant_coefficients: dict
    coefficient_magnitudes: frozenset = frozenset({1, 2})
    symmetry_tolerance: float = 1e-9  # relative to the amplitude
    residual_tolerance: float = 2.0  # nonlinear residual / amplitude^2


_CENSUS_7 = frozenset({
    "D_6^{Z_1} x_{D_3^p} D_3^p", "D_4^{Z_1} x^{Z_2^-} D_4^p",
    "D_2^{D_1} x^{D_2^d} D_2^p", "D_2^{D_1} x^{D_3^z} D_3^p",
    "D_2^{D_1} x^{D_4^z} D_4^p",
})

EXPECTED = Expected(
    census={
        "0": frozenset({"D_1 x S_4^p"}),
        "4": frozenset({
            "D_2^{D_1} x^{V_4^p} D_4^p", "D_1 x D_4^p",
            "D_3^{Z_1} x_{D_3}^{V_4^p} S_4^p",
        }),
        "7": _CENSUS_7,
        "7*": _CENSUS_7,
        "8": frozenset({
            "D_3^{Z_1} x_{D_3} D_3^p", "D_4^{Z_1} x_{D_4} D_4^p",
            "D_2^{D_1} x^{D_1^p} D_2^p", "D_2^{D_1} x^{D_2^p} D_4^p", "D_1 x D_3^p",
        }),
        "9": frozenset({
            "D_6^{Z_1} x_{D_3^p} D_3^p", "D_4^{Z_1} x^{Z_2^-} D_4^p",
            "D_2^{D_1} x^{D_2^d} D_2^p", "D_2^{D_1} x^{D_3} D_3^p",
            "D_2^{D_1} x^{D_4^d} D_4^p",
        }),
    },
    multiplicities={"0": 1, "4": 2, "6": 3, "7": 3, "7*": 3, "8": 3, "9": 3},
    # blocks 0, 7* and 4: the signs tests/test_acceptance.py lists, at the
    # magnitude 2/|W| = 1 it asserts for these |W|=2 types; blocks 7 and 8:
    # as printed at the reference parameters
    invariant_coefficients={
        "0": {"D_1 x S_4^p": -1},
        "7*": dict.fromkeys(_CENSUS_7, -1),
        "4": {
            "D_2^{D_1} x^{V_4^p} D_4^p": -1, "D_1 x D_4^p": 1,
            "D_3^{Z_1} x_{D_3}^{V_4^p} S_4^p": -1,
        },
        "7": dict.fromkeys(_CENSUS_7, 1),
        "8": {
            "D_3^{Z_1} x_{D_3} D_3^p": 1, "D_4^{Z_1} x_{D_4} D_4^p": -1,
            "D_2^{D_1} x^{D_1^p} D_2^p": 1, "D_2^{D_1} x^{D_2^p} D_4^p": 1,
            "D_1 x D_3^p": -1,
        },
    },
)


# -- request streams --------------------------------------------------------

@dataclass(frozen=True)
class SweepRequest:
    sigmas: tuple
    mode: tuple  # (j, k)


def _sigmas(rng, reference, spread):
    return tuple(float(s * math.exp(rng.uniform(-spread, spread))) for s in reference)


def sweep_pass(seed, stream, reference, repeats):
    """One pass of sweep requests: each of the 24 modes ``repeats`` times.

    The parameter sets are a Latin hypercube in log-sigma: every sigma is
    still log-uniform within e^(+-SWEEP_SPREAD) of the reference, and no
    draw is dropped, but each pass covers the box evenly, so passes drawn
    from different seeds carry the same mix of critical orderings (and of
    unstable block-9 draws) and their medians agree.
    """
    rng = np.random.default_rng([seed, stream])
    n = repeats * len(MODE_REQUESTS)
    strata = [(rng.permutation(n) + rng.random(n)) / n for _ in reference]
    modes_ = np.repeat(np.arange(len(MODE_REQUESTS)), repeats)[rng.permutation(n)]
    return [
        SweepRequest(
            tuple(float(s * math.exp(SWEEP_SPREAD * (2 * u[i] - 1)))
                  for s, u in zip(reference, strata)),
            MODE_REQUESTS[modes_[i]],
        )
        for i in range(n)
    ]


def trajectory_cycles(seed, stream):
    """Endless cycles, each a fresh seeded order of all 24 mode requests."""
    rng = np.random.default_rng([seed, stream])
    while True:
        yield [MODE_REQUESTS[i] for i in rng.permutation(len(MODE_REQUESTS))]


def invariant_params(seed, index, reference):
    """Parameter set of the index-th invariants op."""
    rng = np.random.default_rng([seed, INVARIANTS, index])
    return _sigmas(rng, reference, INVARIANT_SPREAD)


# -- outcome accounting -------------------------------------------------------

# the package's documented refusals
REFUSALS = (NumericalError, ConfigError)


def attempt(refusals, op, *args):
    """Run one op; return ("ok" | "refused" | "failed", exception class name).

    An exception in ``refusals`` is a refusal: pass ``REFUSALS`` where the
    request may fairly be refused, and ``()`` where every request is known
    to succeed.  Anything else raised, ConsistencyError included, and every
    failed check is a failure.
    """
    try:
        op(*args)
    except CheckFailed:
        traceback.print_exc()
        return "failed", "CheckFailed"
    except refusals as exc:
        return "refused", type(exc).__name__
    except Exception as exc:  # the op boundary: record it and keep serving
        traceback.print_exc(limit=3)
        return "failed", type(exc).__name__
    return "ok", None


# -- checks -----------------------------------------------------------------

def check_spectrum(report, doc, expected):
    parsed = json.loads(doc)["eigenvalues"]
    mult = {e["j"]: e["multiplicity"] for e in parsed}
    check(mult == expected.multiplicities, f"spectrum multiplicities {mult}")
    alpha_sq = {e["j"]: e["alpha_sq"] for e in parsed}
    check(alpha_sq == report.alpha_sq, "spectrum JSON does not read back exactly")


def check_critical(crit, alphas, lambda_max):
    values = [c.value for c in crit]
    check(values == sorted(values), "critical numbers out of order")
    check(all(c.value == c.l / alphas[c.j] for c in crit), "wrong critical number")
    expect = sum(math.floor(lambda_max * a) for a in alphas.values())
    check(len(crit) == expect, f"{len(crit)} critical numbers, expected {expect}")


def check_types(j, coefficients, expected):
    """coefficients: label -> coefficient of the block's maximal types."""
    labels = set(coefficients)
    check(labels == expected.census[j], f"block {j} maximal types {sorted(labels)}")
    for label, c in coefficients.items():
        check(
            c != 0 and abs(c) in expected.coefficient_magnitudes,
            f"block {j} coefficient {c} of ({label})",
        )


def check_mode(shop, traj, expected):
    passed, report = shop.verify_symmetry(traj)
    worst = max(report.values())
    check(
        passed and worst < expected.symmetry_tolerance * traj.epsilon,
        f"mode ({traj.j},{traj.k}) symmetry residual {worst:.3g}",
    )
    residual = shop.nonlinear_residual(traj)
    check(
        residual < expected.residual_tolerance * traj.epsilon ** 2,
        f"mode ({traj.j},{traj.k}) nonlinear residual {residual:.3g}",
    )
    return passed, report


def export_and_read_back(traj, workdir):
    path = os.path.join(workdir, "mode.csv")
    modes.export_trajectory(traj, path)
    try:
        times, samples = modes.read_trajectory(path)
    except ConfigError as exc:  # the reader rejects the file just written
        raise CheckFailed(f"CSV trajectory does not read back: {exc}") from exc
    check(
        np.array_equal(times, traj.times) and np.array_equal(samples, traj.samples),
        "CSV trajectory does not read back exactly",
    )


# -- ops --------------------------------------------------------------------

def sweep_op(request, expected, workdir):
    """Equilibrium, spectrum JSON, critical numbers, fast-path invariants, one mode."""
    params = force_field.PotentialParams(*request.sigmas)
    eq = force_field.find_equilibrium(params)
    report = spectral.spectrum_at_equilibrium(eq)
    check_spectrum(report, report.to_json(), expected)
    alphas = report.alphas()
    check_critical(bifurcation.critical_set(alphas, LAMBDA_MAX), alphas, LAMBDA_MAX)
    engine = bifurcation.engine_from_spectrum(report)
    for j in FAST_BLOCKS:
        rep = engine.report(j, full=False)
        check_types(j, {lb: c for lb, c, _ in rep.maximal_types}, expected)
    shop = modes.ModeWorkshop(params)
    j, k = request.mode
    traj = shop.build_mode(j, k, EPSILON, SWEEP_SAMPLES)
    check_mode(shop, traj, expected)
    export_and_read_back(traj, workdir)


def trajectory_op(shop, mode, expected, workdir):
    """One long mode: build, verify, residual, CSV + manifest, exact read-back."""
    j, k = mode
    traj = shop.build_mode(j, k, EPSILON, TRAJECTORY_SAMPLES)
    passed, report = check_mode(shop, traj, expected)
    export_and_read_back(traj, workdir)
    path = os.path.join(workdir, "mode.json")
    with open(path, "w") as fh:
        fh.write(modes.mode_manifest(traj, passed, report) + "\n")
    with open(path) as fh:
        doc = json.load(fh)
    check(
        doc["verified"] is True
        and doc["symmetry"] == traj.symmetry
        and doc["verified_generators"] == sorted(report)
        and (doc["j"], doc["k"]) == (j, k),
        "manifest does not read back",
    )


_TYPE_LINE = re.compile(r"^  ([+-]\d+) \((.*)\)   \|W\|=(\d+)$")


def parse_invariant_output(text):
    """Split `octavib invariant` output into (invariant doc, types, agreement)."""
    invariant, types, agreement = None, {}, None
    for line in text.splitlines():
        if line.startswith("invariant="):
            invariant = json.loads(line[len("invariant="):])
        elif line.startswith("fast_path_agreement="):
            agreement = line.split("=", 1)[1]
        elif line != "maximal_types:":
            m = _TYPE_LINE.match(line)
            check(m is not None, f"unexpected output line {line!r}")
            types[m.group(2)] = int(m.group(1))
    return invariant, types, agreement


def invariants_op(sigmas, expected, workdir):
    """What `octavib invariant --j J` prints for J in 0, 7*, 4, 7 (full) and 8."""
    config = os.path.join(workdir, "params.txt")
    with open(config, "w") as fh:
        fh.write("".join(f"sigma{i}={s!r}\n" for i, s in enumerate(sigmas, start=1)))
    for j in FULL_BLOCKS + ("8",):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--config", config, "invariant", "--j", j])
        check(code == 0, f"octavib invariant --j {j} exited with {code}")
        invariant, types, agreement = parse_invariant_output(out.getvalue())
        check_types(j, types, expected)
        check(
            types == expected.invariant_coefficients[j],
            f"block {j} coefficients {types}",
        )
        if j in FULL_BLOCKS:
            check(agreement == "true", f"block {j}: fast path disagrees with full")
            check(
                invariant is not None
                and all(invariant.get(f"({lb})") == c for lb, c in types.items()),
                f"block {j}: maximal types differ from the printed invariant",
            )
        else:
            check(invariant is None and agreement is None, "block 8 ran in full")
