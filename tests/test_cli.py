import collections
import contextlib
import errno
import io
import json
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octavib import bifurcation, cli, force_field, modes, orbit_o2, spectral
from octavib.errors import ConfigError, OctavibError

from conftest import UNSTABLE_REPORTED_9, package_env, python, sweep_box
from oracles import MULTIPLICITIES


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEquilibrium:
    def test_default_params(self, capsys):
        code, out, _ = run(capsys, "equilibrium")
        assert code == 0
        r0 = float(out.splitlines()[0].split("=")[1])
        assert abs(r0 - 1.4128) < 1e-3

    def test_harmonic_config(self, capsys, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("sigma1=0\nsigma2=0\nsigma3=0\n")
        code, out, _ = run(capsys, "--config", str(cfg), "equilibrium")
        assert code == 0
        assert out.splitlines()[0] == "r0=1.0"

    def test_no_equilibrium_names_sigma_once(self, capsys, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("sigma1=1e300\nsigma2=0\nsigma3=0\n")
        code, out, err = run(capsys, "--config", str(cfg), "equilibrium")
        assert (code, out) == (1, "")
        assert err == (
            "numerical failure: no sign change of phi' in (0.001, 1000)"
            " (sigma1=1e+300, sigma2=0.0, sigma3=0.0)\n"
        )
        assert err.count("sigma1=") == 1

    def test_malformed_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma1=0.1\noops\n")
        code, _, err = run(capsys, "--config", str(cfg), "equilibrium")
        assert code == 2
        assert ":2:" in err

    def test_repeated_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("sigma1=0.1\nsigma1=0.2\nsigma2=0.1\nsigma3=1\n")
        code, out, err = run(capsys, "--config", str(cfg), "equilibrium")
        assert code == 2
        assert out == ""
        assert err == (
            f"configuration error: {cfg}:2: repeated key 'sigma1', first set on line 1\n"
        )

    def test_non_finite_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("sigma1=0.1\nsigma2=0.1\nsigma3=nan\n")
        code, _, err = run(capsys, "--config", str(cfg), "equilibrium")
        assert code == 2
        assert "nan.cfg:3: sigma3" in err



class TestUnusablePaths:
    @pytest.mark.parametrize(
        "make", [lambda d: d / "missing.cfg", lambda d: d, lambda d: d / "latin1.cfg"],
        ids=["missing", "directory", "not-utf8"],
    )
    def test_unreadable_config_exit_2(self, capsys, tmp_path, make):
        (tmp_path / "latin1.cfg").write_bytes(b"sigma1=0.1 # \xe9\xff\n")
        path = make(tmp_path)
        code, out, err = run(capsys, "--config", str(path), "equilibrium")
        assert code == 2
        assert err.startswith(f"configuration error: cannot read {path}: ")
        assert out == ""

    def test_spectrum_into_missing_directory_creates_it(self, capsys, tmp_path):
        target = tmp_path / "missing" / "sub" / "spectrum.json"
        code, out, err = run(capsys, "spectrum", "--out", str(target.parent))
        assert (code, out, err) == (0, f"wrote {target}\n", "")
        _, printed, _ = run(capsys, "spectrum")
        assert target.read_text() == printed

    def test_modes_into_a_file_exit_2(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(
            capsys, "modes", "--j", "0", "--samples", "8", "--out", str(blocker)
        )
        assert code == 2
        assert err.startswith(f"configuration error: cannot write {blocker}: ")
        assert out == ""

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-a-file"])
    def test_modes_into_a_file_refused_before_the_mode(
        self, capsys, monkeypatch, tmp_path, below
    ):
        def no_mode(*args):
            raise AssertionError("the mode was built before the path was checked")

        monkeypatch.setattr(modes.ModeWorkshop, "build_mode", no_mode)
        (tmp_path / "file").write_text("")
        target = tmp_path.joinpath("file", below)
        code, out, err = run(capsys, "modes", "--j", "0", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"configuration error: cannot write {target}: not a directory\n"

    def test_catalog_into_missing_directory_creates_it(self, capsys, tmp_path):
        target = tmp_path / "missing" / "catalog.json"
        code, out, err = run(capsys, "catalog", "--out", str(target.parent))
        assert (code, out, err) == (0, f"wrote {target}\n", "")
        _, printed, _ = run(capsys, "catalog")
        assert target.read_text() == printed

    @pytest.mark.parametrize(
        "command, params, code",
        [("spectrum", "sigma1=1e300\nsigma2=0\nsigma3=0\n", 1), ("catalog", "sigma1=x\n", 2)],
        ids=["spectrum-no-equilibrium", "catalog-malformed-params"],
    )
    def test_refused_request_makes_no_directory(self, capsys, tmp_path, command, params, code):
        # the path is accepted, the request is refused later (σ1 = 1e300 has
        # no equilibrium; the catalog reads no σ but refuses a malformed
        # params file), and the missing --out directory is never made
        cfg = tmp_path / "p.cfg"
        cfg.write_text(params)
        target = tmp_path / "new"
        assert run(capsys, "--config", str(cfg), command, "--out", str(target))[:2] == (code, "")
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv, name",
        [(["spectrum"], "spectrum.json"), (["catalog"], "catalog.json"),
         (["modes", "--j", "0", "--samples", "8"], "mode_j0_k1.json")],
        ids=["spectrum", "catalog", "modes"],
    )
    @pytest.mark.parametrize("kind", ["read-only", "directory"])
    def test_unwritable_existing_file_exit_2(
        self, capsys, monkeypatch, tmp_path, argv, name, kind
    ):
        target = tmp_path / name
        if kind == "directory":
            target.mkdir()
            reason = "Is a directory"
        else:
            target.write_bytes(b"old bytes")
            target.chmod(0o444)
            reason = "Permission denied"
            if os.access(target, os.W_OK):
                # this process may write read-only files (root): refuse the
                # way the kernel refuses every other user
                real_open = os.open

                def refusing(path, flags, *rest):
                    if os.fspath(path) == str(target) and flags & (os.O_WRONLY | os.O_RDWR):
                        raise PermissionError(errno.EACCES, reason, path)
                    return real_open(path, flags, *rest)

                monkeypatch.setattr(os, "open", refusing)
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"configuration error: cannot write {target}: {reason}\n"
        if kind == "read-only":
            assert target.read_bytes() == b"old bytes"

    @pytest.mark.parametrize("command", ["spectrum", "catalog"])
    @pytest.mark.parametrize(
        "out", ["file", "file/sub", "taken"],
        ids=["file", "under-a-file", "file-name-is-a-directory"],
    )
    def test_out_refused_before_any_work_on_sigma(self, capsys, tmp_path, command, out):
        # σ1 = 1e300 has no equilibrium, yet the path is refused first
        cfg = tmp_path / "p.cfg"
        cfg.write_text("sigma1=1e300\nsigma2=0\nsigma3=0\n")
        (tmp_path / "file").write_text("")
        (tmp_path / "taken" / f"{command}.json").mkdir(parents=True)
        target = tmp_path / out
        code, stdout, err = run(capsys, "--config", str(cfg), command, "--out", str(target))
        assert (code, stdout) == (2, "")
        if out == "taken":
            target, reason = target / f"{command}.json", "Is a directory"
        else:
            reason = "not a directory"
        assert err == f"configuration error: cannot write {target}: {reason}\n"

    @pytest.mark.parametrize("sigmas", ["1e300 0 0", "0 0 0"], ids=["no-equilibrium", "zero"])
    @pytest.mark.parametrize("name", ["mode_j0_k1.csv", "mode_j0_k1.json"])
    def test_modes_file_name_that_is_a_directory_refused_before_any_work_on_sigma(
        self, capsys, tmp_path, sigmas, name
    ):
        # σ1 = 1e300 has no equilibrium and σ = 0 resonates, yet the name is
        # refused first, so the exit code does not depend on σ
        cfg = tmp_path / "p.cfg"
        cfg.write_text("".join(f"sigma{i}={s}\n" for i, s in enumerate(sigmas.split(), 1)))
        (tmp_path / name).mkdir()
        code, out, err = run(capsys, "--config", str(cfg), "modes", "--j", "0",
                             "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"configuration error: cannot write {tmp_path / name}: Is a directory\n"
        assert not (tmp_path / "mode_j0_k1.csv").is_file()


class TestCritical:
    def test_prefix(self, capsys):
        code, out, _ = run(capsys, "critical", "--max", "3")
        assert code == 0
        heads = [line.split("=")[0] for line in out.splitlines() if line.startswith("lambda")]
        assert heads[:8] == [
            "lambda[0,1]", "lambda[7*,1]", "lambda[4,1]", "lambda[7,1]",
            "lambda[0,2]", "lambda[8,1]", "lambda[7*,2]", "lambda[4,2]",
        ]


    @pytest.mark.parametrize("bound", ["nan", "inf"])
    def test_non_finite_max_exit_2(self, capsys, monkeypatch, bound):
        def no_critical_numbers(*args):
            raise AssertionError("critical_set started listing critical numbers")

        # refused before the loop: an infinite bound would list them forever
        monkeypatch.setattr(bifurcation, "CriticalNumber", no_critical_numbers)
        code, out, err = run(capsys, "critical", "--max", bound)
        assert code == 2
        assert out == ""
        assert f"lambda_max must be finite, got {bound}" in err

    def test_oversized_max_exit_2(self, capsys, monkeypatch):
        def no_critical_numbers(*args):
            raise AssertionError("critical_set started listing critical numbers")

        # counted, not listed: 3.4e9 entries would exhaust the memory
        monkeypatch.setattr(bifurcation, "CriticalNumber", no_critical_numbers)
        alphas = bifurcation.Request(force_field.REFERENCE_PARAMS).frequencies
        count = bifurcation.critical_count(alphas, 1e9)
        assert count == 3408988790
        code, out, err = run(capsys, "critical", "--max", "1e9")
        assert code == 2
        assert out == ""
        assert err == (
            f"configuration error: lambda_max=1000000000.0 gives {count} critical "
            f"numbers, more than the bound of {bifurcation.MAX_CRITICAL}\n"
        )


class TestInvariant:
    def test_block0(self, capsys):
        code, out, _ = run(capsys, "invariant", "--j", "0")
        assert code == 0
        assert 'invariant={"(D_1 x S_4^p)":-1}' in out
        assert "fast_path_agreement=true" in out

    def test_unknown_block(self, capsys):
        code, _, err = run(capsys, "invariant", "--j", "3")
        assert code == 2

    def test_disagreement_exit_3(self, capsys, monkeypatch):
        # no input reaches it: a fast path off by one forces it
        fast = bifurcation.InvariantEngine.fast_coefficient
        monkeypatch.setattr(
            bifurcation.InvariantEngine, "fast_coefficient",
            lambda self, j_o, h_ci: fast(self, j_o, h_ci) + 1,
        )
        code, out, err = run(capsys, "invariant", "--j", "8", "--full")
        assert code == 3
        assert "fast_path_agreement=false" in out
        assert err == (
            "consistency failure: the marks recurrence's whole invariant "
            "disagrees with the fast path\n"
        )


INVARIANT_TYPE = re.compile(r"  [+-]\d+ \((.*)\)   \|W\|=\d+")
CENSUS_ROW = re.compile(r"  \((.*)\)  order=\d+ \|W\|=\d+ blocks=(\S+) coeff=\S+")


def listed(pattern, out):
    """The match groups of the lines of out that pattern matches whole."""
    return [m.groups() for m in map(pattern.fullmatch, out.splitlines()) if m]


@pytest.fixture(scope="module")
def accepted_configs(tmp_path_factory):
    """Params files of the reference σ and of the seed-1 box draws whose
    census is not refused, as --config reads them."""
    tmp = tmp_path_factory.mktemp("box")
    reference = force_field.REFERENCE_PARAMS
    configs = []
    for n, sigmas in enumerate(
        [(reference.sigma1, reference.sigma2, reference.sigma3), *sweep_box()]
    ):
        cfg = tmp / f"p{n}.cfg"
        cfg.write_text("".join(f"sigma{i}={s!r}\n" for i, s in enumerate(sigmas, 1)))
        if outcome(["--config", str(cfg), "census"])[0] == 0:
            configs.append(str(cfg))
    assert len(configs) == 1 + 43
    return configs


class TestOneOrderOfMaximalTypes:
    """Every command lists a block's maximal types in the order of
    ``types_for``: largest group first, then label.  ``modes --k K`` builds
    the K-th type that ``invariant --j J`` lists."""

    @pytest.mark.parametrize("j", bifurcation.ISOTYPIC)
    def test_every_command_lists_the_types_of_types_for(self, accepted_configs, j):
        ring = orbit_o2.ring()
        types = modes.ModeWorkshop().types_for(j)
        order = {ring.label_of(ci): ring.order_of(ci) for ci in types}
        want = list(order)
        assert want == sorted(want, key=lambda label: (-order[label], label))
        code, out, _ = outcome(["catalog", "--catalog-dump"])
        assert code == 0
        block = str(bifurcation.IRREP[j])
        dumped = json.loads(out)["maximal_orbit_types"]
        assert [row["label"] for row in dumped if row["block"] == block] == want
        for cfg in accepted_configs:
            for full in ([], ["--full"]):
                code, out, _ = outcome(["--config", cfg, "invariant", "--j", j, *full])
                assert code == 0
                assert [label for label, in listed(INVARIANT_TYPE, out)] == want, (cfg, full)
            code, out, _ = outcome(["--config", cfg, "census"])
            rows = listed(CENSUS_ROW, out)
            assert len(rows) == 16
            assert [label for label, blocks in rows if j in blocks.split(",")] == want, cfg

    @pytest.mark.parametrize("j", bifurcation.ISOTYPIC)
    def test_modes_k_is_the_kth_type_invariant_lists(self, capsys, tmp_path, j):
        _, out, _ = run(capsys, "invariant", "--j", j)
        for k, (label,) in enumerate(listed(INVARIANT_TYPE, out), start=1):
            code, out, _ = run(capsys, "modes", "--j", j, "--k", str(k), "--out", str(tmp_path))
            assert code == 0
            assert out.endswith(f"symmetry=({label}) verified=true\n"), (j, k)

    def test_one_refusal_of_an_unknown_block(self, capsys, tmp_path):
        invariant = run(capsys, "invariant", "--j", "5")
        mode = run(capsys, "modes", "--j", "5", "--out", str(tmp_path))
        assert invariant == mode == (
            2, "", "configuration error: block '5' is not one of '0', '4', '7', '7*', '8', '9'\n"
        )


class TestReportedSpectrumRefusal:
    """A negative reported alpha^2 is one refusal, the same in every command."""

    @pytest.fixture
    def config(self, tmp_path):
        cfg = tmp_path / "unstable.cfg"
        cfg.write_text(
            "".join(f"sigma{i}={s}\n" for i, s in enumerate(UNSTABLE_REPORTED_9, 1))
        )
        return str(cfg)

    @pytest.mark.parametrize(
        "argv", [("critical",), ("invariant", "--j", "9"), ("census",)],
        ids=["critical", "invariant", "census"],
    )
    def test_exit_1_naming_block_and_alpha_sq(self, capsys, config, argv):
        code, out, err = run(capsys, "--config", config, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("numerical failure: block 9 has alpha^2 = -0.00013")
        assert err.endswith(
            "<= 0 (sigma1=0.04358, sigma2=0.07072, sigma3=1.4449)\n"
        )

    def test_modes_use_the_cartesian_spectrum(self, capsys, config, tmp_path):
        code, out, _ = run(
            capsys, "--config", config, "modes", "--j", "9", "--out", str(tmp_path)
        )
        assert code == 0
        assert out.endswith("verified=true\n")


class TestMergedEigenspaceRefusal:
    """At σ = 0 and at σ1 = 1e-300 the alpha^2 of blocks 6, 7, 8 and 9 are
    rounding residues of either sign: `spectrum` prints the seven lines, and
    every command that reads a frequency of the group refuses the whole group
    as one resonance, before any positivity check reads a residue's sign."""

    MESSAGE = "resonance between isotypic blocks 6, 7, 8 and 9"

    @staticmethod
    def config(tmp_path, sigma1):
        cfg = tmp_path / "stretch.cfg"
        cfg.write_text(f"sigma1={sigma1}\nsigma2=0\nsigma3=0\n")
        return str(cfg)

    @pytest.mark.parametrize("sigma1", ["0", "1e-300"])
    def test_spectrum_prints_every_line(self, capsys, tmp_path, sigma1):
        code, out, err = run(capsys, "--config", self.config(tmp_path, sigma1), "spectrum")
        assert code == 0 and err == ""
        lines = json.loads(out)["eigenvalues"]
        assert {row["j"]: row["multiplicity"] for row in lines} == MULTIPLICITIES

    @pytest.mark.parametrize("sigma1", ["0", "1e-300"])
    @pytest.mark.parametrize(
        "argv",
        [("critical",), ("invariant", "--j", "9"), ("census",), ("modes", "--j", "9")],
        ids=["critical", "invariant", "census", "modes"],
    )
    def test_exit_1_naming_the_blocks(self, capsys, tmp_path, sigma1, argv):
        argv += ("--out", str(tmp_path / "out")) if argv[0] == "modes" else ()
        code, out, err = run(capsys, "--config", self.config(tmp_path, sigma1), *argv)
        assert code == 1
        assert out == (self.MESSAGE + "\n" if argv[0] == "critical" else "")
        assert err == (
            f"numerical failure: {self.MESSAGE}"
            f" (sigma1={float(sigma1)!r}, sigma2=0.0, sigma3=0.0)\n"
        )


class TestCriticalResonanceRefusal:
    def test_exit_1_naming_sigma_and_keeping_stdout(self, capsys, monkeypatch):
        monkeypatch.setattr(
            bifurcation, "resonant_groups", lambda report: [("4", "7")]
        )
        code, out, err = run(capsys, "critical")
        assert code == 1
        assert out == "resonance between isotypic blocks 4 and 7\n"
        assert err == (
            "numerical failure: resonance between isotypic blocks 4 and 7"
            " (sigma1=0.0618, sigma2=0.0618, sigma3=1.0)\n"
        )


    @pytest.mark.parametrize("command", ["census", "invariant"])
    def test_one_message_in_every_command(self, capsys, monkeypatch, command):
        monkeypatch.setattr(
            bifurcation, "resonant_groups", lambda report: [("4", "7")]
        )
        argv = [command] + (["--j", "0"] if command == "invariant" else [])
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == (
            "numerical failure: resonance between isotypic blocks 4 and 7"
            " (sigma1=0.0618, sigma2=0.0618, sigma3=1.0)\n"
        )


class TestNonPositiveCartesianRefusal:
    """A mode of a block whose Cartesian alpha^2 is negative is refused; the
    other blocks at the same σ still build."""

    SIGMA = (0.002469790349329038, 0.0024097035400066614, 1.0582188795427901e-05)

    @pytest.fixture
    def config(self, tmp_path):
        cfg = tmp_path / "soft.cfg"
        cfg.write_text("".join(f"sigma{i}={s!r}\n" for i, s in enumerate(self.SIGMA, 1)))
        return str(cfg)

    def test_modes_exit_1_naming_block_and_sigma(self, capsys, config, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "--config", config, "modes", "--j", "8", "--out", str(out_dir)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("numerical failure: block 8 has alpha^2 = -0.00798")
        assert err.endswith(
            "<= 0 (sigma1=0.002469790349329038, sigma2=0.0024097035400066614,"
            " sigma3=1.0582188795427901e-05)\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("j", ["0", "4", "7*"])
    def test_other_blocks_build(self, capsys, config, tmp_path, j):
        code, out, _ = run(capsys, "--config", config, "modes", "--j", j, "--out", str(tmp_path))
        assert code == 0
        assert out.endswith("verified=true\n")


class TestOneRequestPerCommand:
    """Each command finds the equilibrium, each spectrum and the checked
    frequencies at most once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts by what builds each piece: the reported spectrum by
        ``spectrum_at_equilibrium``, the Cartesian one by its substitution."""
        counts = collections.Counter()
        find = force_field.find_equilibrium
        spectrum = spectral.spectrum_at_equilibrium
        substitute = force_field.cartesian_constants
        checked = bifurcation.checked_frequencies

        def counted_find(params):
            counts["equilibrium"] += 1
            return find(params)

        def counted_spectrum(eq):
            counts["reported"] += 1
            return spectrum(eq)

        def counted_substitute(*constants):
            counts["cartesian"] += 1
            return substitute(*constants)

        def counted_checked(report):
            counts["frequencies"] += 1
            return checked(report)

        monkeypatch.setattr(force_field, "find_equilibrium", counted_find)
        monkeypatch.setattr(spectral, "spectrum_at_equilibrium", counted_spectrum)
        monkeypatch.setattr(force_field, "cartesian_constants", counted_substitute)
        monkeypatch.setattr(bifurcation, "checked_frequencies", counted_checked)
        return counts

    @pytest.mark.parametrize(
        "argv, pieces",
        [
            (["equilibrium"], ["equilibrium"]),
            (["spectrum"], ["equilibrium", "reported"]),
            (["critical"], ["equilibrium", "reported", "frequencies"]),
            (["census"], ["equilibrium", "reported", "frequencies"]),
            (["invariant", "--j", "7", "--full"], ["equilibrium", "reported", "frequencies"]),
            (["modes", "--j", "0"], ["equilibrium", "cartesian"]),
        ],
        ids=["equilibrium", "spectrum", "critical", "census", "invariant", "modes"],
    )
    def test_command(self, capsys, calls, tmp_path, argv, pieces):
        argv += ["--out", str(tmp_path)] if argv[0] == "modes" else []
        assert run(capsys, *argv)[0] == 0
        assert calls == dict.fromkeys(pieces, 1)

    def test_engine_reads_the_checked_frequencies(self, calls):
        request = bifurcation.Request(force_field.REFERENCE_PARAMS)
        assert request.engine.alphas == request.frequencies
        assert calls == {"equilibrium": 1, "reported": 1, "frequencies": 1}

    @pytest.mark.parametrize("args", [(), (force_field.REFERENCE_PARAMS,)],
                             ids=["default", "params"])
    def test_workshop(self, calls, args):
        modes.ModeWorkshop(*args).build_mode("9", 1)
        assert calls == {"equilibrium": 1, "cartesian": 1}


class TestModes:
    def test_export(self, capsys, tmp_path):
        # no --eps is modes.DEFAULT_EPSILON: the same bytes as --eps 0.05
        written = []
        for name, eps in (("default", ()), ("explicit", ("--eps", "0.05"))):
            code, out, _ = run(
                capsys, "modes", "--j", "0", "--k", "1", *eps,
                "--out", str(tmp_path / name),
            )
            assert code == 0
            csv = tmp_path / name / "mode_j0_k1.csv"
            man = tmp_path / name / "mode_j0_k1.json"
            assert csv.exists() and man.exists()
            doc = json.loads(man.read_text())
            assert doc["symmetry"] == "D_1 x S_4^p"
            assert doc["verified"] is True
            header = csv.read_text().splitlines()[0]
            assert header.startswith("t,x1,y1,z1") and header.endswith("x6,y6,z6")
            written.append((csv.read_bytes(), man.read_bytes()))
        assert written[0] == written[1]

    def test_zero_amplitude_verifies(self, capsys, tmp_path):
        # every residual of the resting mode is 0.0, at most 1e-9 * 0
        code, out, _ = run(
            capsys, "modes", "--j", "0", "--k", "1", "--eps", "0",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert out.endswith("verified=true\n")
        doc = json.loads((tmp_path / "mode_j0_k1.json").read_text())
        assert doc["epsilon"] == 0.0 and doc["verified"] is True

    def test_samples_beyond_the_bound_exit_2(self, capsys, monkeypatch, tmp_path):
        def no_mode(*args):
            raise AssertionError("the mode was built past the sample bound")

        monkeypatch.setattr(modes.ModeWorkshop, "build_mode_for_type", no_mode)
        n = modes.MAX_SAMPLES + 1
        code, out, err = run(capsys, "modes", "--j", "0", "--samples", str(n), "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == (
            f"configuration error: {n} samples per period exceed the bound of "
            f"{modes.MAX_SAMPLES}\n"
        )
        assert not list(tmp_path.iterdir())

    def test_incommensurate_samples_exit_2_before_the_mode(
        self, capsys, monkeypatch, tmp_path
    ):
        # 2^16 samples are no multiple of the sixth turn of block 7's fifth
        # type: refused before a sample is built
        def no_samples(*args):
            raise AssertionError("samples were built for a refused sample count")

        monkeypatch.setattr(modes.ModeWorkshop, "_mapped_pairs", no_samples)
        code, out, err = run(
            capsys, "modes", "--j", "7", "--k", "5", "--samples", str(2**16),
            "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert err == (
            "configuration error: phase 1/6 of a turn needs the sample count "
            "to be a multiple of 6\n"
        )
        assert not list(tmp_path.iterdir())

    def test_nan_amplitude_exit_2(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "modes", "--j", "0", "--eps", "nan", "--out", str(out_dir)
        )
        assert code == 2
        assert "epsilon must be finite and nonnegative, got nan" in err
        assert out == ""
        assert not out_dir.exists()


# σ's edges: 0, two subnormals, the least normal float and 1e300
SIGMA_EDGES = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300)


@st.composite
def sigma_triples(draw):
    """Half the σ lie in the benchmark's sweep box around the reference; the
    rest take each σ_i from its edges, twelve decades around 1 as in the wide
    grid, or any float up to 1e300, so σ1 = 0 with σ2 > 0, which
    ``load_params`` refuses, comes up too."""
    if draw(st.booleans()):
        reference = force_field.REFERENCE_PARAMS
        return tuple(
            s * math.exp(draw(st.floats(-0.5, 0.5)))
            for s in (reference.sigma1, reference.sigma2, reference.sigma3)
        )
    return tuple(draw(st.one_of(
        st.sampled_from(SIGMA_EDGES),
        st.floats(-6.0, 6.0).map(lambda u: 10.0 ** u),
        st.floats(0.0, 1e300),
    )) for _ in range(3))


@st.composite
def modes_requests(draw):
    """(σ, `modes` arguments), σ from ``sigma_triples``.  --eps runs from 0
    to twice the σ's collision-safe bound, or is nan or inf; --k runs one
    beyond each end of the largest block."""
    sigmas = draw(sigma_triples())
    try:
        bound = 0.45 * force_field.find_equilibrium(force_field.PotentialParams(*sigmas)).radius
    except OctavibError:
        bound = 1.0
    special = draw(st.integers(0, 7))
    eps = (math.nan, math.inf)[special] if special < 2 else draw(st.floats(0.0, 2.0)) * bound
    argv = [
        "--j", draw(st.sampled_from(bifurcation.ISOTYPIC)),
        "--k", str(draw(st.integers(0, 6))),
        "--eps", repr(eps),
        "--samples", str(draw(st.integers(8, 4096))),
    ]
    return sigmas, argv


def modes_outcome(cfg, out_dir, argv):
    """`octavib modes` as its exit code, stdout, stderr and the files in
    out_dir."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--config", str(cfg), "modes", *argv, "--out", str(out_dir)])
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return code, out.getvalue(), err.getvalue(), files


class TestModesExitCodes:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(modes_requests())
    def test_exit_0_1_or_2_and_the_same_bytes_again(self, request):
        # whatever σ and arguments, `modes` ends in a result or a refusal,
        # never a consistency failure, and a second call repeats the first
        sigmas, argv = request
        with tempfile.TemporaryDirectory() as tmp:
            cfg = pathlib.Path(tmp) / "p.cfg"
            cfg.write_text("".join(f"sigma{i}={s!r}\n" for i, s in enumerate(sigmas, 1)))
            out_dir = pathlib.Path(tmp) / "out"
            out_dir.mkdir()
            first = modes_outcome(cfg, out_dir, argv)
            assert first[0] in (0, 1, 2), (sigmas, argv, first[2])
            assert modes_outcome(cfg, out_dir, argv) == first


# options each command refuses before any work on σ, with their messages
MALFORMED = {
    ("invariant", "--j", "5"): "block '5' is not one of '0', '4', '7', '7*', '8', '9'",
    ("critical", "--max", "nan"): "lambda_max must be finite, got nan",
    ("critical", "--max", "inf"): "lambda_max must be finite, got inf",
    ("modes", "--j", "5"): "block '5' is not one of '0', '4', '7', '7*', '8', '9'",
    ("modes", "--j", "0", "--k", "9"): "block 0 has 1 maximal types; k=9 is out of range",
    ("modes", "--j", "0", "--k", "0"): "block 0 has 1 maximal types; k=0 is out of range",
    ("modes", "--j", "0", "--samples", "0"): "need at least 8 samples per period",
    ("modes", "--j", "0", "--samples", "3"): "need at least 8 samples per period",
    ("modes", "--j", "0", "--samples", "70000"):
        "70000 samples per period exceed the bound of 65536",
    ("modes", "--j", "9", "--samples", "121"):
        "phase 1/2 of a turn needs the sample count to be a multiple of 2",
    ("modes", "--j", "0", "--eps", "nan"): "epsilon must be finite and nonnegative, got nan",
    ("modes", "--j", "0", "--eps", "-1"): "epsilon must be finite and nonnegative, got -1.0",
}


class TestMalformedOptions:
    """A malformed option exits 2 whatever σ: at σ1 = 1e300 no equilibrium
    exists, and at σ = 0 blocks 6 to 9 resonate, yet neither is reached."""

    @pytest.mark.parametrize(
        "params", ["sigma1=1e300\nsigma2=0\nsigma3=0\n", "sigma1=0\nsigma2=0\nsigma3=0\n"],
        ids=["no-equilibrium", "resonant"],
    )
    @pytest.mark.parametrize("argv", list(MALFORMED), ids=" ".join)
    def test_exit_2_before_any_work_on_sigma(self, capsys, tmp_path, params, argv):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(params)
        out_dir = tmp_path / "out"
        message = f"configuration error: {MALFORMED[argv]}\n"
        argv += ("--out", str(out_dir)) if argv[0] == "modes" else ()
        assert run(capsys, "--config", str(cfg), *argv) == (2, "", message)
        assert not out_dir.exists()


@st.composite
def params_files(draw, sigmas):
    """A params file for σ in ``load_params``' grammar, as bytes: the three
    keys in any order, spaces around "=" or not, between comments and blank
    lines, with LF or CRLF line ends.  One file in three has a fault: a
    repeated, unknown or missing key, a value that is no number, not finite
    or negative, a line without "=", or a comment that is not UTF-8."""
    lines = [
        f"sigma{i}{draw(st.sampled_from(('=', ' = ', '= ')))}{s!r}"
        for i, s in enumerate(sigmas, 1)
    ]
    lines = draw(st.permutations(lines))
    fault = draw(st.sampled_from(
        (None,) * 12 + ("repeated", "unknown", "missing", "value", "no-equals", "latin-1")
    ))
    if fault == "repeated":
        lines.append(draw(st.sampled_from(lines)))
    elif fault == "unknown":
        lines.append(draw(st.sampled_from(("sigma4=1", "Sigma1=1", "epsilon=0.05"))))
    elif fault == "missing":
        del lines[draw(st.integers(0, 2))]
    elif fault == "value":
        value = draw(st.sampled_from(("", "abc", "0x1p3", "nan", "-inf", "1e999", "-1")))
        lines[draw(st.integers(0, 2))] = f"sigma{draw(st.integers(1, 3))}={value}"
    elif fault == "no-equals":
        lines.insert(draw(st.integers(0, 3)), "sigma1 0.1")
    text = [line.encode() for line in lines]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from((b"", b"   ", b"# a comment", b"#sigma1=5", b"  # x=y")))
        text.insert(draw(st.integers(0, len(text))), extra)
    if fault == "latin-1":
        text.insert(draw(st.integers(0, len(text))), b"# caf\xe9 \xff")
    end = draw(st.sampled_from((b"\n", b"\r\n")))
    return b"".join(line + end for line in text)


ONE_SHOT = ("equilibrium", "spectrum", "critical", "invariant", "census", "catalog")
# the commands with an --out directory, and the file each writes there
OUT_FILE = {"spectrum": "spectrum.json", "catalog": "catalog.json"}
# --out as a path under a scratch directory that holds the directory "dir",
# the file "file" and the directory "taken", in which each command's file
# name is a directory: "dir" can be written to, and "missing", made when
# the file is written
WRITABLE = ("dir", "missing")
OUT_PATHS = ("dir", "missing", "file", "file/sub", "taken")


@st.composite
def one_shot_requests(draw, command):
    """(σ, params-file bytes, arguments) for a command other than `modes`:
    --max is nan, inf, negative or up to 1e6, --j one of the blocks or
    no block at all, and --out none or one of ``OUT_PATHS``."""
    sigmas = draw(sigma_triples())
    argv = [command]
    if command == "critical":
        bound = draw(st.one_of(
            st.sampled_from((math.nan, math.inf, -math.inf)),
            st.floats(-1e6, 0.0),
            st.floats(0.0, 10.0),
            st.floats(0.0, 1e6),
        ))
        argv.append(f"--max={bound!r}")  # "--max -inf" would read as an option
    elif command == "invariant":
        argv += ["--j", draw(st.sampled_from(bifurcation.ISOTYPIC + ("5", "6", "7**", "")))]
        argv += ["--full"] if draw(st.booleans()) else []
    elif command == "catalog":
        argv += ["--catalog-dump"] if draw(st.booleans()) else []
    if command in OUT_FILE:
        out = draw(st.sampled_from((None,) + OUT_PATHS))
        argv += ["--out", out] if out else []
    return sigmas, draw(params_files(sigmas)), argv


def malformed(argv):
    """Whether an option is refused whatever σ: a --j that names no block, a
    --max that is not finite."""
    if argv[0] == "invariant":
        return argv[2] not in bifurcation.ISOTYPIC
    if argv[0] == "critical":
        return not math.isfinite(float(argv[1].removeprefix("--max=")))
    return False


def outcome(argv):
    """`octavib` as its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", ONE_SHOT)
@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_one_shot_exit_0_1_or_2_and_the_same_bytes_again(command, data):
    # every command but `modes` ends in a result or a refusal; a numerical
    # refusal names σ once, a malformed option, params file or --out is
    # refused whatever σ, and a second call repeats the first, files included
    sigmas, text, argv = data.draw(one_shot_requests(command))
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        cfg = tmp / "p.cfg"
        cfg.write_bytes(text)
        (tmp / "dir").mkdir()
        (tmp / "file").write_text("")
        for name in OUT_FILE.values():
            (tmp / "taken" / name).mkdir(parents=True)
        if out:
            argv[-1] = str(tmp / out)

        def call():
            result = outcome(["--config", str(cfg), *argv])
            return result, sorted(
                (str(p.relative_to(tmp)), p.read_bytes() if p.is_file() else None)
                for p in (*(tmp / "dir").iterdir(), *tmp.glob("missing"), *tmp.glob("missing/*"))
            )

        first = call()
        assert call() == first
        try:
            force_field.load_params(cfg)
            refused_params = False
        except ConfigError:
            refused_params = True
    (code, _, err), files = first
    assert code in (0, 1, 2), (sigmas, text, argv, err)
    if code == 1:
        named = ", ".join(f"sigma{i}={s!r}" for i, s in enumerate(sigmas, 1))
        assert err.startswith("numerical failure: "), err
        assert err.endswith(f" ({named})\n") and err.count("sigma1=") == 1, err
    if malformed(argv) or refused_params:
        assert code == 2 and err.startswith("configuration error: "), (argv, err)
    if out in ("file", "file/sub", "taken"):
        assert code == 2 and err.startswith("configuration error: cannot write "), (argv, err)
    written = []
    if out in WRITABLE and code == 0:
        written = ["missing"] if out == "missing" else []
        written.append(f"{out}/{OUT_FILE[command]}")
    assert [name for name, _ in files] == written, (argv, err)


class TestCatalog:
    def test_subgroup_dump(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["subgroup_classes"]) == 33


class TestDeterminism:
    def test_output_independent_of_history(
        self, capsys, monkeypatch, fresh_ring, tmp_path
    ):
        code, fresh, _ = run(capsys, "invariant", "--j", "4", "--full")
        assert code == 0
        # a second empty ring, filled by other commands first
        ring = orbit_o2.TemporalOctahedralRing()
        monkeypatch.setattr(orbit_o2, "ring", lambda: ring)
        assert run(capsys, "modes", "--j", "9", "--out", str(tmp_path))[0] == 0
        assert run(capsys, "census")[0] == 0
        code, after, _ = run(capsys, "invariant", "--j", "4", "--full")
        assert code == 0
        assert after == fresh

    def test_byte_identical_reruns(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "invariant", "--j", "0")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_spectrum_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "spectrum")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestClosedStdout:
    """Standard output closed before the output is written: exit 141 with
    nothing on stderr, and the signal handlers left as they are."""

    @pytest.mark.parametrize(
        "argv", [["catalog"], ["catalog", "--catalog-dump"], ["equilibrium"]], ids=" ".join
    )
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_exit_141_without_a_traceback(self, argv, unbuffered):
        # buffered, the output fits the buffer and the pipe breaks at main's
        # flush; unbuffered, at the first print
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "octavib.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=package_env(PYTHONUNBUFFERED=unbuffered),
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"")
        assert cli.EXIT_BROKEN_PIPE == 128 + signal.SIGPIPE

    def test_started_without_stdout(self):
        # with descriptor 1 closed at start, sys.stdout is None and print
        # writes nothing: exit 0, as before
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "octavib.cli",
             "equilibrium"],
            stderr=subprocess.PIPE, env=package_env(),
        )
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_in_process(self):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        before = signal.getsignal(signal.SIGPIPE)
        with contextlib.redirect_stdout(Closed()):
            assert cli.main(["equilibrium"]) == cli.EXIT_BROKEN_PIPE
        assert signal.getsignal(signal.SIGPIPE) == before


@pytest.mark.parametrize(
    "argv",
    [["equilibrium"], ["spectrum"], ["critical"], ["invariant", "--j", "8"], ["census"],
     ["catalog"], ["modes", "--j", "0"]],
    ids=lambda argv: argv[0],
)
def test_repeated_key_exit_2_in_every_command(capsys, tmp_path, argv):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("sigma1=0.1\nsigma1=0.2\nsigma2=0.1\nsigma3=1\n")
    argv = argv + (["--out", str(tmp_path / "out")] if argv[0] == "modes" else [])
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"configuration error: {cfg}:2: repeated key 'sigma1', first set on line 1\n"
    )


class TestOneParserPerProcess:
    """``main`` parses with one parser per process; no call leaks into the next."""

    def test_two_commands_print_what_two_processes_print(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("sigma1=0.05\nsigma2=0.07\nsigma3=1.2\n")
        first = ["--config", str(cfg), "critical", "--max", "2"]
        second = ["equilibrium"]  # the reference σ: the first --config must not stick
        call = "from octavib import cli; cli.main({!r})"
        apart = python(call.format(first)) + python(call.format(second))
        together = python(call.format(first) + "; " + call.format(second))
        assert together == apart
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "argv", [["invariant"], ["modes", "--k", "x"], ["frobnicate"], []]
    )
    def test_argparse_errors_still_exit_2(self, capsys, argv):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
        assert "usage: octavib" in capsys.readouterr().err
        assert run(capsys, "invariant", "--j", "0")[0] == 0


class TestColdImports:
    """What a fresh process loads: the package root alone loads neither numpy
    nor a submodule, and only `modes` loads ``octavib.modes``."""

    def test_package_root_loads_nothing(self):
        code = (
            "import sys, octavib; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('octavib')))"
        )
        assert python(code) == "['octavib']\n"

    def test_spectrum_prints_the_same_bytes_cold_and_warm(self):
        # no first-use state shapes the eigenbasis: a process's first
        # spectrum prints what a later one prints
        code = "\n".join((
            "import contextlib, io",
            "from octavib import cli",
            "outs = []",
            "for argv in (['spectrum'], ['invariant', '--j', '8'], ['spectrum']):",
            "    with contextlib.redirect_stdout(io.StringIO()) as out:",
            "        assert cli.main(argv) == 0",
            "    outs.append(out.getvalue())",
            "print(outs[0] == outs[2], outs[0].startswith('{\"basis\":[['))",
        ))
        assert python(code) == "True True\n"

    def test_no_module_loads_dataclasses(self):
        # the records are NamedTuples: no class generates methods at import
        code = "import sys, octavib.cli, octavib.modes; print('dataclasses' in sys.modules)"
        assert python(code) == "False\n"

    def test_only_modes_loads_modes(self, tmp_path):
        one_shot = [
            ["equilibrium"], ["spectrum"], ["critical"], ["invariant", "--j", "8"],
            ["census"], ["catalog"],
        ]
        code = "\n".join((
            "import contextlib, io, sys",
            "from octavib import cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    assert all(cli.main(argv) == 0 for argv in {one_shot!r})",
            "    before = [m in sys.modules for m in ('octavib.modes', 'octavib._kernels')]",
            f"    assert cli.main(['modes', '--j', '0', '--out', {str(tmp_path)!r}]) == 0",
            "print(*before, 'octavib.modes' in sys.modules)",
        ))
        assert python(code) == "False False True\n"
