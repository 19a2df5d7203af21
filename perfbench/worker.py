"""One benchmark process: the warm workloads, or one cold invariants op.

Started by ``run.py`` as a fresh interpreter; writes its raw measurements
as JSON to the ``--result`` file.  Times that cross the process boundary
use the system-wide monotonic clock; op latencies use ``perf_counter``.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import octavib  # noqa: E402
from octavib import accel, force_field, group_core, modes, orbit_o2  # noqa: E402

import ops  # noqa: E402
from tracing import Tracer  # noqa: E402

# sweep passes, as repeats of each of the 24 modes: the warm-up pass is drawn
# from its own seed stream; a run serves whole timed passes, so its failure
# share is fixed by the seed
WARMUP_REPEATS = 2
TIMED_REPEATS = 10
TRACED_PAIRS = {"sweep": 40, "trajectories": 2}  # untraced/traced blocks
# exceptions counted as refusals: the sweep spans the design space, where the
# package may refuse a request; trajectories run at the reference parameters
# and invariants keep the reference critical ordering, where every request
# is known to succeed, so a refusal there is a failure
REFUSALS = {"sweep": ops.REFUSALS, "trajectories": (), "invariants": ()}


def stamp():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment():
    return {
        "kernel_path": "numba" if accel.USE_NUMBA else "numpy fallback",
        "numba_installed": accel.HAVE_NUMBA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "octavib": octavib.__version__,
        # unset: OpenBLAS starts one thread per CPU
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def setup():
    """Catalog, mode-1 orbit-type registry, and every block's maximal types."""
    group_core.catalog()
    orbit_o2.graph_classes(1)
    for j in (0, 4, 7, 8, 9):
        orbit_o2.pin_reference_labels(j, orbit_o2.maximal_orbit_types(j, 1))


class Recorder:
    """Op latencies and outcomes; traced ops are kept apart."""

    def __init__(self, tracer, refusals):
        self.tracer = tracer
        self.refusals = refusals
        self.ops = []  # [latency_s, outcome, exception class, traced]

    def run(self, traced, op, *args):
        if self.tracer is not None:
            if traced:
                self.tracer.op = len(self.ops) + 1
                self.tracer.install()
            else:
                self.tracer.uninstall()
        t0 = time.perf_counter()
        outcome, cls = ops.attempt(self.refusals, op, *args)
        self.ops.append([time.perf_counter() - t0, outcome, cls, traced])


def run_sweep(args, rec, workdir):
    reference = astuple(force_field.REFERENCE_PARAMS)
    for request in ops.sweep_pass(args.seed, ops.WARMUP, reference, WARMUP_REPEATS):
        ops.attempt(rec.refusals, ops.sweep_op, request, ops.EXPECTED, workdir)
    ready = stamp()
    requests = ops.sweep_pass(args.seed, ops.TIMED, reference, TIMED_REPEATS)
    t0 = time.perf_counter()
    if args.trace:
        for i, request in enumerate(requests[:2 * TRACED_PAIRS["sweep"]]):
            rec.run(i % 2 == 1, ops.sweep_op, request, ops.EXPECTED, workdir)
    else:
        while time.perf_counter() - t0 < args.seconds:
            for request in requests:
                rec.run(False, ops.sweep_op, request, ops.EXPECTED, workdir)
    return ready, time.perf_counter() - t0


def run_trajectories(args, rec, workdir):
    shop = modes.ModeWorkshop()
    # the first cycle of builds is about a tenth slower than later ones; a
    # long-lived process has built every mode, so one cycle belongs to set-up
    for mode in next(ops.trajectory_cycles(args.seed, ops.WARMUP)):
        ops.attempt(rec.refusals, ops.trajectory_op, shop, mode, ops.EXPECTED, workdir)
    ready = stamp()
    cycles = ops.trajectory_cycles(args.seed, ops.TIMED)
    t0 = time.perf_counter()
    n = 0
    while True:
        # whole cycles only, so every run measures the same mix of the 24 modes
        traced = bool(args.trace) and n % 2 == 1
        for mode in next(cycles):
            rec.run(traced, ops.trajectory_op, shop, mode, ops.EXPECTED, workdir)
        n += 1
        if args.trace:
            if n == 2 * TRACED_PAIRS["trajectories"]:
                break
        elif time.perf_counter() - t0 >= args.seconds:
            break
    return ready, time.perf_counter() - t0


def run_invariants_op(args, rec, workdir):
    # set-up is part of the op: a one-shot user pays it on every call
    sigmas = ops.invariant_params(
        args.seed, args.index, astuple(force_field.REFERENCE_PARAMS)
    )
    t0 = time.perf_counter()
    if rec.tracer is not None:
        rec.tracer.op = 1
    setup()
    setup_ready = stamp()
    outcome, cls = ops.attempt(rec.refusals, ops.invariants_op, sigmas, ops.EXPECTED, workdir)
    rec.ops.append([time.perf_counter() - t0, outcome, cls, bool(args.trace)])
    return setup_ready, time.perf_counter() - t0


def astuple(params):
    return (params.sigma1, params.sigma2, params.sigma3)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=("sweep", "trajectories", "invariants"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--index", type=int, default=0, help="invariants op index")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", help="CSV file for the spans of a traced run")
    args = p.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    rec = Recorder(tracer, REFUSALS[args.workload])
    if args.workload == "invariants":
        ready, window = run_invariants_op(args, rec, args.workdir)
    else:
        setup()
        run = run_sweep if args.workload == "sweep" else run_trajectories
        ready, window = run(args, rec, args.workdir)
    if tracer is not None:
        tracer.uninstall()
    doc = {
        "ready": ready,
        "window_s": window,
        "ops": rec.ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(),
        "trace": tracer.summary() if tracer is not None else None,
    }
    with open(args.result, "w") as fh:
        json.dump(doc, fh)
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
