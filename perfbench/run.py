"""End-to-end benchmark of octavib.

    python3 perfbench/run.py --workload {sweep,invariants,trajectories} \
        --seed N --seconds S --trace {0,1}

Workloads (closed loop, one client, one process at a time):

* ``sweep``: a warm process serving new force-field parameter sets.  One op:
  equilibrium, labeled spectrum as JSON, critical numbers up to 3, fast-path
  invariants of blocks 0, 4, 7, 7*, 8, and one mode at 120 samples (build,
  verify, residual, CSV round trip).  Set-up includes a warm-up pass drawn
  from its own seed stream; the run serves whole timed passes.
* ``invariants``: each op is a fresh interpreter computing what
  ``octavib invariant --j J`` prints for J in 0, 7*, 4, 7 (full product and
  fast-path agreement) and 8 (fast path), as a one-shot user pays it.
* ``trajectories``: a warm process at the reference parameters exporting
  the 24 maximal-type modes at 1200 samples per period, whole cycles in
  seeded order (build, verify, residual, CSV and manifest round trip).
  Set-up includes one warm-up cycle.

Every op's output is checked (see ``ops.py``); a wrong result is a failed
op.  ``setup_s`` runs from process start to the first timed op, ``op_p50_s``
and ``op_p90_s`` are over the ops that succeeded, ``ops_per_s`` is those ops
over the measured window and ``peak_rss_mb`` the largest resident set of a
worker process.  ``--trace 1`` runs a fixed number of ops, alternately
untraced and traced, and reports per-layer counts and self times.  The
per-function metrics, ``orbit_o2.classes``, the bytes, the agreement ratio
and ``layer.*.op_self_s`` cover the traced timed ops only; ``setup.*.self_s``
is the self time per layer before the first timed op (set-up, and the
warm-up ops of ``sweep`` and ``trajectories``).  An ``invariants`` op pays
its own set-up, so there everything is in the op and ``setup.*`` is 0.

Nothing is built: the package is imported from ``src/`` of the checkout the
benchmark sits in, and the run exits with an error without it.  The
``sweep`` worker runs BLAS on one thread; the others inherit the caller's
environment, as the CLI does (see ``WORKER_ENV``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
environment (kernel path, BLAS thread setting, versions, CPUs, seed: never
compare runs whose kernel paths differ), the op counts, the refusals and
failures by exception class and, when traced, whether the layers the
workload was chosen for took most of the op time.  The same record is written to ``perfbench/out/``, with the
spans of a traced run.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170.0  # a run must end within 180 s
# sweep stands for a server running one single-threaded worker per core, so
# its worker pins BLAS to one thread: at the default thread count its p90
# latency spread by a quarter between runs on a shared 2-core machine, and
# by a twentieth pinned.  invariants and trajectories run as the CLI does,
# at BLAS's default thread count, so what BLAS threads cost ModeWorkshop
# shows there.
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKER_ENV = {"sweep": dict(os.environ, **PINNED_BLAS)}

WORKLOADS = ("sweep", "invariants", "trajectories")

# per-layer metrics: (function span, statistics) for the functions named in
# the benchmark's design; "_serialize" is spelled "serialize" in metric names
FUNCTION_METRICS = (
    ("orbit_o2.fixed_cosets", ("calls", "self_s", "miss_ratio")),
    ("orbit_o2.weyl_order", ("calls", "self_s")),
    ("orbit_o2.graph_classes", ("calls", "self_s")),
    ("orbit_o2.maximal_orbit_types", ("self_s",)),
    ("burnside.multiply_generators", ("calls", "self_s", "miss_ratio")),
    ("group_core.catalog", ("self_s",)),
    ("bifurcation.fast_coefficient", ("calls", "self_s")),
    ("bifurcation.invariant_full", ("calls", "self_s")),
    ("bifurcation.critical_set", ("self_s",)),
    ("force_field.find_equilibrium", ("calls", "self_s")),
    ("force_field.hessian_blocks", ("calls", "self_s")),
    ("spectral.numeric_spectrum", ("calls", "self_s")),
    ("spectral.assign_eigenspaces", ("calls", "self_s")),
    ("modes.workshop_init", ("calls", "self_s")),
    ("modes.fixed_pairs", ("calls", "self_s")),
    ("modes.build_mode", ("calls", "self_s")),
    ("modes.verify_symmetry", ("calls", "self_s")),
    ("modes.nonlinear_residual", ("self_s",)),
    ("accel.gradient", ("calls", "self_s")),
    ("modes.export_trajectory", ("calls", "self_s")),
    ("modes.read_trajectory", ("calls", "self_s")),
    ("_serialize.dumps", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)

# layers each workload was chosen to stress: predicted to take most of the
# self time of a traced op; a traced run reports whether they do
PREDICTED_LAYERS = {
    "sweep": ("force_field", "spectral", "bifurcation", "modes", "accel", "_serialize"),
    "invariants": ("orbit_o2", "burnside", "group_core"),
    "trajectories": ("modes", "accel", "_serialize"),
}
UNITS = {"calls": "count", "self_s": "s", "miss_ratio": "ratio"}


def metric_name(name):
    return name[1:] if name.startswith("_") else name


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    out = {}
    for fn, stats in FUNCTION_METRICS:
        for stat in stats:
            out[f"{metric_name(fn)}.{stat}"] = UNITS[stat]
    out["orbit_o2.classes"] = "count"
    out["bifurcation.agreement_ratio"] = "ratio"
    out["accel.gradient.bytes_computed"] = "B"
    out["modes.bytes_written"] = "B"
    for layer in LAYERS:
        out[f"layer.{metric_name(layer)}.op_self_s"] = "s"
    for layer in LAYERS:
        out[f"setup.{metric_name(layer)}.self_s"] = "s"
    out["trace.op_s"] = "s"
    out["trace.overhead_ratio"] = "ratio"
    return out


END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spawn_worker(args, workdir, result, deadline, index=0, trace=None, spans=None):
    """Run one worker process to completion; return (spawn stamp, exit stamp, doc)."""
    trace = args.trace if trace is None else trace
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--index", str(index),
        "--workdir", workdir, "--result", result,
    ]
    if spans:
        cmd += ["--spans", spans]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for another op")
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd, timeout=remaining, stdout=sys.stderr, env=WORKER_ENV.get(args.workload)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within the {DEADLINE_S:.0f} s budget") from None
    end = time.clock_gettime(time.CLOCK_MONOTONIC)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    with open(result) as fh:
        return start, end, json.load(fh)


def run_warm(args, workdir, deadline, spans):
    """sweep / trajectories: one long-lived worker process."""
    result = os.path.join(workdir, "result.json")
    start, _, doc = spawn_worker(args, workdir, result, deadline, spans=spans)
    return {
        "setup": [doc["ready"] - start],
        "ops": doc["ops"],
        "window_s": doc["window_s"],
        "maxrss_kb": doc["maxrss_kb"],
        "env": doc["env"],
        "trace": doc["trace"],
    }


def run_invariants(args, workdir, deadline, spans):
    """invariants: one fresh interpreter per op, one at a time.

    Untraced: ops until --seconds have passed (at least one).  Traced: one
    untraced op, then one traced op, for the overhead ratio.
    """
    result = os.path.join(workdir, "result.json")
    setups, op_list, rss, env, trace = [], [], [], None, None
    t0 = time.monotonic()
    index = 0
    while True:
        traced = bool(args.trace) and index == 1
        start, end, doc = spawn_worker(
            args, workdir, result, deadline, index=index, trace=int(traced),
            spans=spans if traced else None,
        )
        setups.append(doc["ready"] - start)
        (_, outcome, cls, _), = doc["ops"]
        op_list.append([end - start, outcome, cls, traced])
        rss.append(doc["maxrss_kb"])
        env = doc["env"]
        if traced:
            trace = doc["trace"]
        index += 1
        if args.trace:
            if index == 2:
                break
        elif time.monotonic() - t0 >= args.seconds:
            break
    return {
        "setup": setups,
        "ops": op_list,
        "window_s": time.monotonic() - t0,
        "maxrss_kb": max(rss),
        "env": env,
        "trace": trace,
    }


def end_to_end(run):
    ok = [op[0] for op in run["ops"] if op[1] == "ok" and not op[3]]
    if not ok:
        raise BenchError("no op completed")
    values = {
        "setup_s": statistics.median(run["setup"]),
        "op_p50_s": statistics.median(ok),
        "op_p90_s": percentile(ok, 0.9),
        "ops_per_s": len(ok) / run["window_s"],
        "peak_rss_mb": run["maxrss_kb"] / 1024.0,
    }
    return values


def per_layer(run):
    t = run["trace"]
    fns = t["functions"]
    values = {}
    for fn, stats in FUNCTION_METRICS:
        calls, self_s = fns[fn]["calls"], fns[fn]["self_s"]
        for stat in stats:
            if stat == "calls":
                v = calls
            elif stat == "self_s":
                v = self_s
            else:
                v = t["misses"][fn] / calls if calls else 0.0
            values[f"{metric_name(fn)}.{stat}"] = v
    values["orbit_o2.classes"] = len(t["classes"])
    full = t["full_reports"]
    values["bifurcation.agreement_ratio"] = t["agreements"] / full if full else 0.0
    values["accel.gradient.bytes_computed"] = t["bytes_computed"]
    values["modes.bytes_written"] = t["bytes_written"]
    for layer in LAYERS:
        values[f"layer.{metric_name(layer)}.op_self_s"] = t["op_self_s"][layer]
        values[f"setup.{metric_name(layer)}.self_s"] = t["setup_self_s"][layer]
    traced = [op[0] for op in run["ops"] if op[3]]
    plain = [op[0] for op in run["ops"] if not op[3]]
    values["trace.op_s"] = sum(traced)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return values


def prediction(workload, run, values):
    """Share of traced op time spent in the layers the workload should stress."""
    layers = PREDICTED_LAYERS[workload]
    op_self = run["trace"]["op_self_s"]
    share = sum(op_self[layer] for layer in layers) / values["trace.op_s"]
    return {"layers": "+".join(layers), "share": share, "met": share > 0.5}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "octavib", "__init__.py")):
        print(f"error: no octavib sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = os.path.join(OUT, f"spans-{tag}.csv") if args.trace else None
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        runner = run_invariants if args.workload == "invariants" else run_warm
        run = runner(args, workdir, deadline, spans)
        values = per_layer(run) if args.trace else end_to_end(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run["ops"])
    failed_by = {}
    refused_by = {}
    for _, outcome, cls, _ in run["ops"]:
        if outcome == "failed":
            failed_by[cls] = failed_by.get(cls, 0) + 1
        elif outcome == "refused":
            refused_by[cls] = refused_by.get(cls, 0) + 1
    failed = sum(failed_by.values())
    env = dict(run["env"], workload=args.workload, seed=args.seed, trace=args.trace)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    ok_count = sum(1 for op in run["ops"] if op[1] == "ok" and not op[3])
    counts = {
        "attempted": attempted,
        "ok": sum(1 for op in run["ops"] if op[1] == "ok"),
        "timed_ok": ok_count,
        "above_p90": sum(1 for op in run["ops"] if op[1] == "ok" and not op[3]
                         and op[0] > values.get("op_p90_s", math.inf)),
        "refused": refused_by,
        "failed": failed_by,
        "error_rate": failed / attempted,
    }
    record = {"env": env, "counts": counts, "metrics": metrics}
    if args.trace:
        record["prediction"] = prediction(args.workload, run, values)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("env " + json.dumps(env, sort_keys=True))
    print("counts " + json.dumps(counts, sort_keys=True))
    if args.trace:
        print("prediction " + json.dumps(record["prediction"], sort_keys=True))
    print(f"{args.workload}.error_rate = {counts['error_rate']:.6g} ratio")
    for name, m in metrics.items():
        print(f"{args.workload}.{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": "CheckFailed" not in failed_by,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
