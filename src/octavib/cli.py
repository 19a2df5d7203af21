"""Command-line driver.

Subcommands: equilibrium, spectrum, critical, invariant, census, modes,
catalog.
Exit codes: 0 ok, 1 numerical failure (its message names the σ it
happened at), 2 bad configuration, 3 internal consistency failure, 141
standard output closed before all output was written (128 + SIGPIPE, as a
shell reports a process that SIGPIPE ended; nothing is printed on stderr).
All output is deterministic: sorted JSON keys and floats printed with 17
significant digits.  Every file is written by ``_serialize.write_over``,
over its old bytes, into the --out directory, made if it is missing.
"""

import argparse
import contextlib
import functools
import os
import sys

from . import bifurcation, force_field, group_core, orbit_o2
from ._serialize import dumps, format_float, write_over
from .errors import ConfigError, ConsistencyError, OctavibError, ResonanceError

EXIT_BROKEN_PIPE = 141


@contextlib.contextmanager
def _writing(directory):
    """Make the output directory if it is missing, and refuse an output path
    that cannot be written as a ConfigError naming it."""
    try:
        os.makedirs(directory, exist_ok=True)
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename}: {exc.strerror}") from None


def _request(args):
    """The command line's per-σ request, from --config or the reference σ.

    ``main`` names the σ of a numerical failure from it.
    """
    params = (
        force_field.load_params(args.config) if args.config
        else force_field.REFERENCE_PARAMS
    )
    args.request = bifurcation.Request(params)
    return args.request


def _output_directory(path):
    """Refuse a directory path that is, or lies under, something else."""
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ConfigError(f"cannot write {path}: not a directory")


def _file_path(directory, name):
    """directory/name, the path of every file a command writes, refused
    before any work on σ if the directory is, or lies under, something else,
    or the name is a directory.  ``_writing`` makes a missing directory, and refuses
    a file that may not be written (read-only): an earlier open would make
    either for a request that is then refused."""
    _output_directory(directory)
    path = os.path.join(directory, name)
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: Is a directory")
    return path


def _emit(path, text):
    """Print text, or write it as a line to path and print where."""
    if path is None:
        print(text)
        return
    with _writing(os.path.dirname(path)):
        write_over(path, (text + "\n").encode())
    print(f"wrote {path}")


def cmd_equilibrium(args):
    request = _request(args)
    params, r0 = request.params, request.equilibrium.radius
    print(f"r0={format_float(r0)}")
    print(f"criticality_residual={format_float(force_field.ct_residual(params, r0))}")
    print(f"phi_second={format_float(force_field.phi_second(params, r0))}")
    return 0


def cmd_spectrum(args):
    path = _file_path(args.out, "spectrum.json") if args.out else None
    _emit(path, _request(args).spectrum.to_json())
    return 0


def cmd_critical(args):
    bifurcation.check_lambda_max(args.max)
    try:
        alphas = _request(args).frequencies
    except ResonanceError as exc:
        print(exc)  # critical also prints an isotypic resonance on stdout
        raise
    crit = bifurcation.critical_set(alphas, args.max)
    for c in crit:
        print(f"lambda[{c.j},{c.l}]={format_float(c.value)}")
    ties = bifurcation.ordering_ties(crit)
    for group in ties:
        labels = ",".join(f"({c.j},{c.l})" for c in group)
        print(f"tie: {labels}")
    return 0


def cmd_invariant(args):
    j = args.j
    bifurcation.check_block(j)
    full = args.full or j in ("0", "7*", "4", "7")
    rep = _request(args).engine.report(j, full=full)
    if rep.invariant is not None:
        print(f"invariant={rep.invariant.to_json()}")
    print("maximal_types:")
    for label, coeff, weyl in rep.maximal_types:
        print(f"  {coeff:+d} ({label})   |W|={weyl}")
    if rep.invariant is not None:
        agree = rep.agreement()
        print(f"fast_path_agreement={'true' if agree else 'false'}")
        if not agree:
            raise ConsistencyError(
                "the marks recurrence's whole invariant disagrees with the fast path"
            )
    return 0


def cmd_census(args):
    rows = _request(args).engine.census()
    print(f"count={len(rows)}")
    for row in rows:
        blocks = ",".join(row["blocks"])
        coeffs = ",".join(f"{c:+d}" for c in row["coefficients"])
        print(
            f"  ({row['label']})  order={row['order']} |W|={row['weyl_order']} "
            f"blocks={blocks} coeff={coeffs}"
        )
    return 0


def cmd_modes(args):
    from . import modes  # the one command that builds arrays of samples

    outdir = args.out or "."
    stem = f"mode_j{args.j.replace('*', 's')}_k{args.k}"
    csv_path, man_path = (_file_path(outdir, stem + ext) for ext in (".csv", ".json"))
    eps = modes.DEFAULT_EPSILON if args.eps is None else args.eps
    samples = modes.DEFAULT_SAMPLES if args.samples is None else args.samples
    shop = modes.ModeWorkshop(_request(args))
    traj = shop.build_mode(args.j, args.k, eps, samples)
    passed, report = shop.verify_symmetry(traj)
    with _writing(outdir):
        modes.export_trajectory(traj, csv_path)
        write_over(man_path, (modes.mode_manifest(traj, passed, report) + "\n").encode())
    print(f"wrote {csv_path}")
    print(f"wrote {man_path}")
    print(f"symmetry=({traj.symmetry}) verified={'true' if passed else 'false'}")
    return 0 if passed else 1


def cmd_catalog(args):
    path = _file_path(args.out, "catalog.json") if args.out else None
    _request(args)  # the catalog reads no σ, but a malformed --config is refused
    cat = group_core.catalog()
    doc = {"subgroup_classes": cat.export()}
    if args.with_o2:
        ring = orbit_o2.ring()
        maximal = []
        for j in bifurcation.MAXIMAL_IRREPS:
            for ci in orbit_o2.maximal_orbit_types(j, 1):
                maximal.append(
                    {
                        "block": str(j),
                        "label": ring.label_of(ci),
                        "order": ring.order_of(ci),
                        "weyl_order": ring.weyl(ci),
                    }
                )
        doc["maximal_orbit_types"] = maximal
        doc["orbit_type_classes"] = [
            {
                "label": ring.label_of(ci),
                "order": ring.order_of(ci),
                "weyl_order": ring.weyl(ci),
            }
            for ci in orbit_o2.graph_classes(1)
        ]
    _emit(path, dumps(doc))
    return 0


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing keeps no
    state in it, so every call of ``main`` reads its arguments afresh."""
    p = argparse.ArgumentParser(
        prog="octavib",
        description="Octahedral-molecule vibrational analysis pipeline",
    )
    p.add_argument("--config", help="key=value parameter file (sigma1/2/3)")
    p.set_defaults(request=None)  # set by the commands that read σ
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("equilibrium", help="radial equilibrium and residuals")

    sp = sub.add_parser("spectrum", help="labeled Hessian spectrum (JSON)")
    sp.add_argument("--out", help="directory for spectrum.json, made if missing")

    sc = sub.add_parser("critical", help="ordered critical numbers")
    sc.add_argument("--max", type=float, default=3.0, help="upper bound on lambda")

    si = sub.add_parser("invariant", help="bifurcation invariant for one block")
    si.add_argument("--j", required=True, help="isotypic block: 0, 4, 7, 7*, 8 or 9")
    si.add_argument(
        "--full", action="store_true",
        help="print the whole invariant and the fast path's agreement with it",
    )

    sub.add_parser("census", help="the 16 maximal symmetry types")

    sm = sub.add_parser("modes", help="build, verify and export one mode")
    sm.add_argument("--j", required=True, help="isotypic block: 0, 4, 7, 7*, 8 or 9")
    sm.add_argument("--k", type=int, default=1, help="K-th type `invariant --j J` lists")
    sm.add_argument("--eps", type=float, help="amplitude")  # None: modes.DEFAULT_EPSILON
    sm.add_argument("--samples", type=int)  # None: modes.DEFAULT_SAMPLES
    sm.add_argument("--out", help="output directory, made if missing")

    scat = sub.add_parser("catalog", help="subgroup catalog dump")
    scat.add_argument("--out", help="directory for catalog.json, made if missing")
    scat.add_argument(
        "--catalog-dump",
        dest="with_o2",
        action="store_true",
        help="include the temporal orbit-type table",
    )
    return p


_DISPATCH = {
    "equilibrium": cmd_equilibrium,
    "spectrum": cmd_spectrum,
    "critical": cmd_critical,
    "invariant": cmd_invariant,
    "census": cmd_census,
    "modes": cmd_modes,
    "catalog": cmd_catalog,
}


def _discard_stdout():
    """Point standard output at os.devnull, so the flush at exit does not
    meet the closed pipe again; signal handlers are left as they are."""
    with contextlib.suppress(AttributeError, OSError, ValueError):
        stdout = sys.stdout.fileno()  # a stream with no descriptor is left alone
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout)
        os.close(devnull)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = _DISPATCH[args.command](args)
        if sys.stdout is not None:  # None in a process started without one
            sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OctavibError as exc:
        sigma = f" ({args.request.sigma})" if args.request else ""
        print(f"numerical failure: {exc}{sigma}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
