import collections
import json
import os
import pathlib
import subprocess
import sys

import pytest

from octavib import bifurcation, cli, force_field, modes, orbit_o2, spectral

from conftest import UNSTABLE_REPORTED_9


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

    def test_spectrum_into_missing_directory_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "spectrum.json"
        code, out, err = run(capsys, "spectrum", "--out", str(target.parent))
        assert code == 2
        assert err.startswith(f"configuration error: cannot write {target}: ")
        assert out == ""

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

    def test_catalog_into_missing_directory_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "catalog.json"
        code, _, err = run(capsys, "catalog", "--out", str(target.parent))
        assert code == 2
        assert f"cannot write {target}" in err


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
        assert {row["j"]: row["multiplicity"] for row in lines} == spectral.MULTIPLICITIES

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
            bifurcation, "check_isotypic_nonresonance", lambda report: (False, ("4", "7"))
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
            bifurcation, "check_isotypic_nonresonance", lambda report: (False, ("4", "7"))
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
        counts = collections.Counter()
        find = force_field.find_equilibrium
        spectrum = spectral.spectrum_at_equilibrium
        checked = bifurcation.checked_frequencies

        def counted_find(params):
            counts["equilibrium"] += 1
            return find(params)

        def counted_spectrum(eq, convention="reported"):
            counts[convention] += 1
            return spectrum(eq, convention)

        def counted_checked(report):
            counts["frequencies"] += 1
            return checked(report)

        monkeypatch.setattr(force_field, "find_equilibrium", counted_find)
        monkeypatch.setattr(spectral, "spectrum_at_equilibrium", counted_spectrum)
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
        code, out, _ = run(
            capsys, "modes", "--j", "0", "--k", "1", "--eps", "0.05",
            "--out", str(tmp_path),
        )
        assert code == 0
        csv = tmp_path / "mode_j0_k1.csv"
        man = tmp_path / "mode_j0_k1.json"
        assert csv.exists() and man.exists()
        doc = json.loads(man.read_text())
        assert doc["symmetry"] == "D_1 x S_4^p"
        assert doc["verified"] is True
        header = csv.read_text().splitlines()[0]
        assert header.startswith("t,x1,y1,z1") and header.endswith("x6,y6,z6")

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

        monkeypatch.setattr(modes.ModeWorkshop, "fixed_pairs", no_samples)
        monkeypatch.setattr(force_field, "check_configurations", no_samples)
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
        monkeypatch.setattr(orbit_o2, "_RING", orbit_o2.TemporalOctahedralRing())
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


class TestOneParserPerProcess:
    """``main`` parses with one parser per process; no call leaks into the next."""

    @staticmethod
    def python(code):
        src = pathlib.Path(cli.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(src), os.environ.get("PYTHONPATH")
        ])))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            check=True,
        )
        return proc.stdout

    def test_two_commands_print_what_two_processes_print(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("sigma1=0.05\nsigma2=0.07\nsigma3=1.2\n")
        first = ["--config", str(cfg), "critical", "--max", "2"]
        second = ["equilibrium"]  # the reference σ: the first --config must not stick
        call = "from octavib import cli; cli.main({!r})"
        apart = self.python(call.format(first)) + self.python(call.format(second))
        together = self.python(call.format(first) + "; " + call.format(second))
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
