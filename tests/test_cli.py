"""End-to-end tests for the command-line pipeline and its exit codes."""

import hashlib

import pytest

from branchdim.cli import EXAMPLE_CONFIGS, main, parse_config
from branchdim.errors import FormatError


def write_config(tmp_path, text, name="job.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(tmp_path, text, *extra):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    return main(["--config", cfg, "--out", str(out), *extra]), out


Q_CHECK = """
command=check
family=q
alpha=1
a1=1/2
a2=2/3
kappa=1/4
inequalities=S,W
grid=128
"""


class TestParseConfig:
    def test_basic_parsing(self):
        cfg = parse_config("command=check\n# comment\n\nfamily=phi\n")
        assert cfg == {"command": "check", "family": "phi"}

    def test_last_value_wins(self):
        cfg = parse_config("depth=8\ndepth=12\n")
        assert cfg["depth"] == "12"

    def test_rejects_unknown_key(self):
        with pytest.raises(FormatError):
            parse_config("depht=8\n")

    def test_rejects_malformed_line(self):
        with pytest.raises(FormatError):
            parse_config("just some words\n")


class TestCheckCommand:
    def test_q_family_passes_s_and_w(self, tmp_path):
        code, out = run(tmp_path, Q_CHECK)
        assert code == 0
        lines = (out / "check.csv").read_text().strip().split("\n")
        assert lines[0] == "check,passed,worst,witness"
        assert lines[1].startswith("S,true,")
        assert lines[2].startswith("W,true,")

    def test_q_family_fails_monotonicity(self, tmp_path):
        code, _ = run(tmp_path, Q_CHECK.replace("inequalities=S,W",
                                                "inequalities=M"))
        assert code == 1

    def test_example_spectrum_all_checks_golden(self, tmp_path):
        # Bytes written by the Fraction grid loop at the default grid 512.
        text = EXAMPLE_CONFIGS["check-q.cfg"].replace(
            "inequalities=S,W", "inequalities=S,W,M,L,AQ")
        code, out = run(tmp_path, text)
        assert code == 1
        assert (out / "check.csv").read_bytes() == (
            b"check,passed,worst,witness\n"
            b"S,true,0.0,(0.001953125;1.0)\n"
            b"W,true,0.0,(0.001953125;0.001953125)\n"
            b"M,false,0.09375,(0.3333333333333333;0.5)\n"
            b"L,false,0.9375,(0.0;0.3333333333333333)\n"
            b"AQ,false,0.3125,(0.001953125;0.3333333333333333)\n"
        )

    def test_unknown_inequality(self, tmp_path):
        code, _ = run(tmp_path, Q_CHECK.replace("inequalities=S,W",
                                                "inequalities=XX"))
        assert code == 2


class TestParseFailures:
    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 2

    def test_malformed_config(self, tmp_path):
        assert run(tmp_path, "not a key value line\n")[0] == 2

    def test_no_command(self, tmp_path):
        assert run(tmp_path, "family=zero\n")[0] == 2

    def test_bad_family_parameters(self, tmp_path):
        code, _ = run(tmp_path, "command=check\nfamily=phi\nalpha=1\n"
                                "lambda=2\nt=1/4\n")
        assert code == 2

    def test_bad_theta_grid(self, tmp_path):
        code, _ = run(tmp_path, "command=measure\nkind=moran\ndepth=6\n"
                                "theta-grid=0.5,oops\n")
        assert code == 2

    @pytest.mark.parametrize("key", ["d=2", "child-rule=spread"])
    def test_removed_keys_are_unknown(self, tmp_path, key):
        code, out = run(tmp_path, "command=make-set\nkind=moran\n"
                                  f"depth=6\n{key}\n")
        assert code == 2
        assert not (out / "set.csv").exists()

    @pytest.mark.parametrize("value", ["ub", "lbb", ""])
    def test_unknown_tables_value(self, tmp_path, value):
        code, out = run(tmp_path, "command=measure\nkind=moran\ndepth=6\n"
                                  f"tables={value}\n")
        assert code == 2
        assert not (out / "lb.csv").exists()

    def test_spectrum_file_missing(self, tmp_path):
        code, _ = run(tmp_path, "command=check\nspectrum-file=missing.txt\n")
        assert code == 2


class TestMakeSet:
    def test_moran_set_csv(self, tmp_path):
        code, out = run(tmp_path, "command=make-set\nkind=moran\n"
                                  "slope=1/2\ndepth=8\n")
        assert code == 0
        text = (out / "set.csv").read_text()
        assert text.startswith("# d=1\n# depth=8\n")
        assert "level,left_numerator,width" in text

    def test_moran_depth_zero_is_one_run(self, tmp_path):
        code, out = run(tmp_path, "command=make-set\nkind=moran\ndepth=0\n")
        assert code == 0
        assert (out / "set.csv").read_text() == (
            "# d=1\n# depth=0\n# scheme=lex\nlevel,left_numerator,width\n0,0,1\n")

    @pytest.mark.parametrize("command", ["make-set", "measure"])
    def test_moran_negative_depth(self, tmp_path, capsys, command):
        code, out = run(tmp_path, f"command={command}\nkind=moran\ndepth=-1\n")
        assert code == 2
        assert capsys.readouterr().err == "error: depth must be non-negative\n"
        assert not out.exists()

    def test_moran_measure_depth_zero_has_no_window(self, tmp_path, capsys):
        code, out = run(tmp_path, "command=measure\nkind=moran\ndepth=0\n")
        assert code == 2
        assert capsys.readouterr().err == "error: window (1, 0) not within (0, 0]\n"
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("eta, message", [
        ("abc", "bad value for 'eta': 'abc'"), ("-1", "eta must be non-negative")])
    def test_measure_bad_eta_writes_nothing(self, tmp_path, capsys, eta, message):
        code, out = run(tmp_path, "command=measure\nkind=moran\ndepth=6\n"
                                  f"tables=both\neta={eta}\n")
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(out.glob("*")) == []

    def test_assembly_csv(self, tmp_path):
        code, out = run(tmp_path, "command=make-set\nkind=assembly\n"
                                  "family=zero\ndepth=10\nkmax=4\n")
        assert code == 0
        text = (out / "set.csv").read_text()
        assert "# certified=true" in text
        assert text.strip().endswith("0,0,1,0,0,0")

    def test_unknown_kind(self, tmp_path):
        code, _ = run(tmp_path, "command=make-set\nkind=cantor\n")
        assert code == 2

    @pytest.mark.parametrize("config, digest", [
        ("kind=moran\nslope=1/2\ndepth=12\n",
         "6cad7b2d79b7a13ff314a470f87fb61b1143c891995f89ec42bf94eb3a7313ae"),
        ("kind=assembly\nfamily=phi\nalpha=1\nlambda=1/2\nt=1/4\n"
         "depth=12\nkmax=6\n",
         "172cf3763bc85e538ed9b76db295ca266e967cbcbb83dfb25889fd83344ec284"),
    ], ids=["moran", "assembly"])
    def test_set_csv_bytes_golden(self, tmp_path, config, digest):
        # SHA-256 of the bytes written before the sets became 1-D only.
        # Assemblies have since dropped the constant `# separation_m=3`
        # line; put back, it must give those bytes again.
        code, out = run(tmp_path, "command=make-set\n" + config)
        assert code == 0
        data = (out / "set.csv").read_bytes()
        if config.startswith("kind=assembly"):
            data = data.replace(b"# certified=", b"# separation_m=3\n# certified=", 1)
        assert hashlib.sha256(data).hexdigest() == digest


class TestMeasure:
    def test_lb_only_artifacts(self, tmp_path):
        code, out = run(tmp_path, "command=measure\nkind=moran\nslope=1/2\n"
                                  "depth=10\n")
        assert code == 0
        assert (out / "lb.csv").exists()
        assert (out / "lower.csv").exists()
        assert (out / "monotone.csv").exists()
        assert not (out / "ub.csv").exists()

    def test_full_artifacts_with_uniformity(self, tmp_path):
        code, out = run(tmp_path, "command=measure\nkind=moran\nslope=1/2\n"
                                  "depth=10\ntables=both\neta=4\n")
        assert code == 0
        for name in ("lb.csv", "ub.csv", "lower.csv", "monotone.csv",
                     "assouad.csv", "uniformity.csv"):
            assert (out / name).exists()
        assert "uniformity,true" in (out / "uniformity.csv").read_text()

    def test_deterministic_output(self, tmp_path):
        text = ("command=measure\nkind=moran\nslope=1/3\ndepth=9\n"
                "tables=both\ntheta-grid=0.25,0.5,0.75\n")
        cfg = write_config(tmp_path, text)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", cfg, "--out", str(out_a)]) == 0
        assert main(["--config", cfg, "--out", str(out_b)]) == 0
        for name in ("lb.csv", "ub.csv", "lower.csv", "assouad.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestVerify:
    def test_zero_spectrum_roundtrip(self, tmp_path):
        code, out = run(tmp_path, "command=verify\nfamily=zero\ndepth=12\n"
                                  "kmax=6\ntolerance=0.05\ngrid=128\n")
        assert code == 0
        lines = (out / "verify.csv").read_text().strip().split("\n")
        assert lines[0] == "theta,target,measured,abs_error"
        assert all(line.endswith(",0.0,0.0,0.0") for line in lines[1:])

    def test_uncertified_spectrum_gate(self, tmp_path):
        # A flat-then-falling profile fails superadditivity: exit 3.
        spec_file = tmp_path / "plateau.txt"
        spec_file.write_text("alpha=1\n0 1/2\n1/2 1/2\n1 0\n")
        code, _ = run(tmp_path, f"command=verify\nspectrum-file={spec_file}\n"
                                "depth=10\nkmax=5\ngrid=128\n")
        assert code == 3

    def test_tight_tolerance_fails(self, tmp_path):
        code, _ = run(tmp_path, "command=verify\nfamily=phi\nalpha=1\n"
                                "lambda=1/2\nt=1/4\ndepth=12\nkmax=6\n"
                                "tolerance=0.01\ngrid=128\n")
        assert code == 1

    def test_tolerance_flag_override(self, tmp_path):
        cfg = write_config(tmp_path, "command=verify\nfamily=zero\ndepth=10\n"
                                     "kmax=5\ntolerance=0.5\ngrid=128\n")
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out),
                     "--tolerance", "0"]) == 0

    def test_command_flag_override(self, tmp_path):
        cfg = write_config(tmp_path, "command=check\nfamily=zero\ndepth=10\n"
                                     "kmax=5\ntolerance=0.1\ngrid=128\n")
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out),
                     "--command", "verify"]) == 0
        assert (out / "verify.csv").exists()


class TestExamples:
    def test_examples_run_clean(self, tmp_path):
        ex_dir = tmp_path / "examples"
        assert main(["--command", "examples", "--out", str(ex_dir)]) == 0
        configs = sorted(ex_dir.iterdir())
        assert len(configs) == 3
        for cfg in configs:
            out = tmp_path / ("out-" + cfg.stem)
            assert main(["--config", str(cfg), "--out", str(out)]) == 0

    def test_example_csv_bytes_golden(self, tmp_path):
        # SHA-256 of the bytes the measure and verify examples wrote before
        # the tables and the one-ball counts shared their kernels.
        golden = {
            "moran-half": {
                "assouad.csv": "507f8acd0100bffec2e034c829e03d50f71aede5426d79a2378b06ae258e1c14",
                "lb.csv": "94cceaa12a3fc39b89e526b90ba4ce882adc91bbef78e478dc343fb123cf6dda",
                "lower.csv": "a1ef633bf48526858c836af973e50a6f9bb17bdbbd2e98a83098749bdda12c03",
                "monotone.csv": "a7295f4779c7dedb5df3a8bbdbdd1123233ca1083665876bd244bc2e92959111",
                "ub.csv": "69167eab27f7577b96b76a673b3be3e2bc7a6f79589232ec0e37250d5e9a27e9",
                "uniformity.csv": "53f457138a77d3d0022755e11029d52e5dd8150188aad7ebb821f86bdde071a4",
            },
            "verify-zero": {
                "verify.csv": "20209bf84a97d0faaf27543446b4f28952e065c462f9f9dd990c3db53ee49729",
            },
        }
        ex_dir = tmp_path / "examples"
        assert main(["--command", "examples", "--out", str(ex_dir)]) == 0
        for stem, digests in golden.items():
            out = tmp_path / stem
            assert main(["--config", str(ex_dir / f"{stem}.cfg"),
                         "--out", str(out)]) == 0
            assert sorted(p.name for p in out.iterdir()) == sorted(digests)
            for name, digest in digests.items():
                got = hashlib.sha256((out / name).read_bytes()).hexdigest()
                assert got == digest, (stem, name)
