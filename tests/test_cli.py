import numpy as np
import pytest

from nearproj.cli import main, parse_study_config, run_table
from nearproj.errors import ConfigError

TABLE2_CONFIG = """
# reproduces the embedded 1-D elliptic H1 table, affine column
dimension = 1
degree = 1
form = stiffness
perturbation = single-node
point = 0.25
fraction = 0.25
u = sin_pi
n0 = 8
levels = 6
norms = 1:2
"""


def write(tmp_path, text, name="study.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCmdTable:
    def test_table1_passes(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "3.2150e-03" in out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_unknown_table_is_usage_error(self, capsys):
        assert main(["table", "99"]) == 2

    def test_quiet_suppresses_table(self, capsys):
        main(["table", "1", "--quiet"])
        assert capsys.readouterr().out == ""

    def test_csv_roundtrip_bit_exact(self, tmp_path, capsys):
        csv = tmp_path / "t1.csv"
        main(["table", "1", "--quiet", "--csv", str(csv)])
        report = run_table(1)
        lines = csv.read_text().splitlines()
        assert lines[0] == "level,h_ratio,affine,affine_order,quadratic,quadratic_order"
        for row, line in zip(report.rows, lines[1:]):
            cells = line.split(",")
            assert float(cells[2]) == row["affine"]
            assert float(cells[4]) == row["quadratic"]
            if row["affine:order"] is not None:
                assert float(cells[3]) == row["affine:order"]


class TestCmdStudy:
    def test_matches_embedded_table(self, tmp_path, capsys):
        cfg = parse_study_config(write(tmp_path, TABLE2_CONFIG))
        from nearproj import run_projection_study
        result = run_projection_study(cfg)
        report = run_table(2)
        for row, ref in zip(result.rows, report.rows):
            assert row.norm_values[cfg.norms[0]] == ref["affine"]

    def test_cli_study_runs(self, tmp_path, capsys):
        path = write(tmp_path, TABLE2_CONFIG)
        assert main(["study", path]) == 0
        out = capsys.readouterr().out
        assert "1.4455e-01" in out

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = write(tmp_path, "dimension = 1\nwibble = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_study_config(path)
        assert err.value.key == "wibble"
        assert err.value.line == 2

    def test_bad_value_names_key_and_line(self, tmp_path):
        path = write(tmp_path, TABLE2_CONFIG.replace("levels = 6", "levels = six"))
        with pytest.raises(ConfigError) as err:
            parse_study_config(path)
        assert err.value.key == "levels"

    def test_too_few_levels_rejected(self, tmp_path):
        path = write(tmp_path, TABLE2_CONFIG.replace("levels = 6", "levels = 1"))
        with pytest.raises(ConfigError):
            parse_study_config(path)

    def test_cli_exit_code_on_parse_error(self, tmp_path, capsys):
        path = write(tmp_path, "dimension ~ 1\n")
        assert main(["study", path]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [
        ("point = 0.25", "point = a,b"),
        ("form = stiffness", "form = adr\nvelocity = x"),
        ("form = stiffness", "form = adr\nvelocity = 0.5,0.25"),
        ("u = sin_pi", "u = power_pxyz"),
        ("dimension = 1", "dimension = 3"),
        ("dimension = 1", "dimension = 2"),   # a single coordinate for a 2-D node
        ("u = sin_pi", "u = power_pnan"),
        ("fraction = 0.25", "fraction = nan"),
        ("form = stiffness", "form = adr\nkappa = nan"),
        ("form = stiffness", "form = adr\nkappa = inf"),
        ("form = stiffness", "form = adr\nvelocity = nan"),
        ("levels = 6", "levels = 6\ngamma = nan"),
        ("u = sin_pi", "u = sin_pi_2d"),
    ], ids=["point", "velocity", "velocity-length", "u", "dimension", "point-length",
            "u-nan", "fraction-nan", "kappa-nan", "kappa-inf", "velocity-nan",
            "gamma-nan", "u-dimension"])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, old, new):
        path = write(tmp_path, TABLE2_CONFIG.replace(old, new))
        assert main(["study", path]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_eta4_sigma_printed(self, tmp_path, capsys):
        text = TABLE2_CONFIG + "gamma = 1\neta = 4\n"
        path = write(tmp_path, text, "eta4.cfg")
        assert main(["study", path]) == 0
        out = capsys.readouterr().out
        assert "sigma = 0.25" in out

    def test_missing_file(self, capsys):
        assert main(["study", "/nonexistent/nowhere.cfg"]) == 2


class TestCmdPredict:
    def test_elliptic_gamma1(self, capsys):
        code = main(["predict", "--gamma", "1", "--eta", "inf", "--delta", "inf",
                     "-s", "1", "-r", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sigma  = 0.5" in out
        assert "1.5" in out and "2.5" in out

    def test_gamma2_orders(self, capsys):
        main(["predict", "--gamma", "2", "--eta", "inf", "--delta", "inf",
              "-s", "1", "-r", "2"])
        out = capsys.readouterr().out
        assert "(r - s + sigma) = 2" in out
        assert "(r + sigma') = 3" in out

    def test_eta2_no_gain(self, capsys):
        main(["predict", "--gamma", "7", "--eta", "2", "--delta", "inf",
              "-s", "0", "-r", "2"])
        assert "sigma  = 0" in capsys.readouterr().out

    def test_invalid_inputs_usage_error(self, capsys):
        assert main(["predict", "--gamma", "-1", "--eta", "inf", "--delta", "inf",
                     "-s", "0", "-r", "2"]) == 2
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["gamma", "eta", "delta"])
    def test_nan_input_usage_error(self, capsys, name):
        argv = {"--gamma": "1", "--eta": "inf", "--delta": "inf"}
        argv[f"--{name}"] = "nan"
        assert main(["predict", *sum(argv.items(), ()), "-s", "0", "-r", "2"]) == 2
        captured = capsys.readouterr()
        assert f"error: {name}" in captured.err
        assert captured.out == ""

    def test_q_restriction_violation(self, capsys):
        assert main(["predict", "--gamma", "1", "--eta", "inf", "--delta", "1",
                     "-s", "1", "-r", "2", "--q", "7", "-d", "3", "--nu", "1"]) == 2
        assert "restriction" in capsys.readouterr().err


class TestCmdRegularity:
    def test_p4(self, capsys):
        assert main(["regularity", "--p", "4", "--levels", "4"]) == 0
        out = capsys.readouterr().out
        assert "2.2500" in out and "1.2500" in out

    def test_p3_nine_levels(self, capsys):
        # n = 2048 (2047 free DOFs) is the largest 1-D system of the suite;
        # the final orders approach 5/2 - 1/p, 3/2 - 1/p
        assert main(["regularity", "--p", "3", "--levels", "9"]) == 0
        last = capsys.readouterr().out.splitlines()[10].split()
        assert last[0] == "256"
        assert float(last[2]) == pytest.approx(2.1627, abs=5e-4)
        assert float(last[4]) == pytest.approx(1.1667, abs=5e-4)

    def test_p2_usage_error(self, capsys):
        assert main(["regularity", "--p", "2"]) == 2
        assert main(["regularity", "--p", "nan"]) == 2
