from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nearproj import cli
from nearproj.cli import _format_table, _report, main, parse_study_config, run_table
from nearproj.errors import ConfigError, InvalidArgumentError
from nearproj.study import run_regularity_study

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
        assert "table id must be one of [1, 2, 3, 4, 5, 6]" in capsys.readouterr().err

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
        ("form = stiffness", "form = stiffness\nkappa = nan\nvelocity = nan"),
        ("single-node", "shifted-second-node"),
        ("single-node\npoint = 0.25", "boundary-band"),
        ("dimension = 1\ndegree = 1\nform = stiffness\nperturbation = single-node\n"
         "point = 0.25", "dimension = 2\ndegree = 1\nform = stiffness\n"
         "perturbation = shifted-second-node"),
    ], ids=["point", "velocity", "velocity-length", "u", "dimension", "point-length",
            "u-nan", "fraction-nan", "kappa-nan", "kappa-inf", "velocity-nan",
            "gamma-nan", "u-dimension", "adr-keys-without-adr",
            "point-without-single-node", "band-in-1d", "shifted-node-in-2d"])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, old, new):
        path = write(tmp_path, TABLE2_CONFIG.replace(old, new))
        assert main(["study", path]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_levels_past_free_dof_budget_is_usage_error(self, tmp_path, capsys):
        config = TABLE2_CONFIG.replace("dimension = 1", "dimension = 2").replace(
            "point = 0.25", "point = 0.25,0.25").replace("u = sin_pi", "u = sin_pi_2d")
        path = write(tmp_path, config.replace("levels = 6", "levels = 12"))
        assert main(["study", path]) == 2
        captured = capsys.readouterr()
        assert ("n0 = 8 and levels = 12 ask for 268402689 free DOFs at the finest "
                "level, above the budget of 262144") in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("key", ["kappa", "velocity"])
    def test_adr_key_needs_adr_form(self, tmp_path, key):
        path = write(tmp_path, TABLE2_CONFIG + f"{key} = 1\n")
        with pytest.raises(ConfigError) as err:
            parse_study_config(path)
        assert (err.value.key, err.value.line) == (key, 13)
        assert str(err.value) == f"{path}:13: {key!r} applies only to form = adr"

    def test_point_needs_single_node(self, tmp_path):
        path = write(tmp_path, TABLE2_CONFIG.replace("single-node", "shifted-second-node"))
        with pytest.raises(ConfigError) as err:
            parse_study_config(path)
        assert (err.value.key, err.value.line) == ("point", 7)
        assert str(err.value) == f"{path}:7: 'point' applies only to perturbation = single-node"

    @pytest.mark.parametrize("dimension,kind", [(1, "boundary-band"),
                                                (2, "shifted-second-node")])
    def test_perturbation_needs_its_dimension(self, tmp_path, capsys, dimension, kind):
        text = TABLE2_CONFIG.replace("dimension = 1", f"dimension = {dimension}")
        path = write(tmp_path, text.replace("single-node\npoint = 0.25", kind))
        with pytest.raises(ConfigError) as err:
            parse_study_config(path)
        assert (err.value.key, err.value.line) == ("perturbation", 6)
        assert str(err.value) == (f"{path}:6: perturbation {kind!r} is defined only in "
                                  f"dimension {3 - dimension}")
        assert main(["study", path]) == 2
        assert f"study.cfg:6: perturbation {kind!r}" in capsys.readouterr().err

    def test_bad_rate_input_names_file_line_and_key(self, tmp_path, capsys):
        # gamma, eta, mu and nu follow from the perturbation, u and the form
        for key in ("gamma", "eta", "mu", "nu"):
            path = write(tmp_path, TABLE2_CONFIG + f"delta = 1\n{key} = 1\n")
            assert main(["study", path]) == 2
            captured = capsys.readouterr()
            assert f"study.cfg:14: {key!r} is derived from the config" in captured.err
            assert "Traceback" not in captured.out + captured.err

    def test_eta4_sigma_printed(self, tmp_path, capsys):
        path = write(tmp_path, TABLE2_CONFIG + "eta = 4\n", "eta4.cfg")
        assert main(["study", path]) == 2
        assert "eta4.cfg:13: 'eta' is derived" in capsys.readouterr().err
        # eta = 4 comes from u = x^(2-1/4) - x: sigma = gamma (1/2 - 1/eta)
        text = TABLE2_CONFIG.replace("u = sin_pi", "u = power_p4")
        assert main(["study", write(tmp_path, text, "eta4.cfg")]) == 0
        assert "sigma = 0.25" in capsys.readouterr().out

    def test_rate_keys_that_only_changed_the_prediction_are_rejected(self, tmp_path,
                                                                     capsys):
        text = TABLE2_CONFIG.replace("levels = 6", "levels = 5")
        path = write(tmp_path, text + "delta = 0\nmu = 1\nnu = 1\n")
        assert main(["study", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "study.cfg:14: 'mu' is derived from the config" in captured.err
        assert "Traceback" not in captured.err

    def test_delta_runs_the_perturbed_form(self, tmp_path, capsys):
        # identical meshes: a_h on mesh a, a_h + h mass on mesh b
        text = TABLE2_CONFIG.replace("fraction = 0.25", "fraction = 0")
        assert main(["study", write(tmp_path, text + "delta = 1\n")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "predicted orders: norm_1_2: 2.5000" in lines
        assert float(lines[7].split()[2]) >= 2.4

    def test_identical_meshes_and_forms_predict_nothing(self, tmp_path, capsys):
        text = TABLE2_CONFIG.replace("fraction = 0.25", "fraction = 0")
        assert main(["study", write(tmp_path, text.replace("levels = 6", "levels = 2"))]) == 0
        out = capsys.readouterr().out
        assert "predicted orders: norm_1_2: n/a" in out
        assert "predicted sigma = n/a" in out and "predicted sigma' = n/a" in out

    def test_missing_file(self, capsys):
        assert main(["study", "/nonexistent/nowhere.cfg"]) == 2


@pytest.mark.parametrize("command", ["table", "study"])
def test_unwritable_csv_is_usage_error(tmp_path, capsys, monkeypatch, command):
    def never_run(cfg):
        raise AssertionError("the path is opened before the run; no level may run")

    monkeypatch.setattr(cli, "run_projection_study", never_run)
    config = write(tmp_path, TABLE2_CONFIG.replace("levels = 6", "levels = 2"))
    argv = ["table", "1"] if command == "table" else ["study", config]
    csv = str(tmp_path / "missing" / "t.csv")
    assert main([*argv, "--quiet", "--csv", csv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and csv in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", ["table", "study"])
def test_failed_run_keeps_existing_csv(tmp_path, capsys, monkeypatch, command):
    def fail(cfg):
        raise InvalidArgumentError("the run failed")

    monkeypatch.setattr(cli, "run_projection_study", fail)
    config = write(tmp_path, TABLE2_CONFIG.replace("levels = 6", "levels = 2"))
    argv = ["table", "1"] if command == "table" else ["study", config]
    csv = tmp_path / "t.csv"
    csv.write_text("level,h_ratio\n0,1\n")
    assert main([*argv, "--quiet", "--csv", str(csv)]) == 2
    assert csv.read_text() == "level,h_ratio\n0,1\n"


@pytest.mark.parametrize("command", ["table", "study", "table 99"])
def test_failed_run_removes_the_csv_it_created(tmp_path, capsys, monkeypatch, command):
    def fail(cfg):
        raise InvalidArgumentError("the run failed")

    monkeypatch.setattr(cli, "run_projection_study", fail)
    config = write(tmp_path, TABLE2_CONFIG.replace("levels = 6", "levels = 2"))
    argv = {"table": ["table", "1"], "study": ["study", config],
            "table 99": ["table", "99"]}[command]
    csv = tmp_path / "t.csv"
    assert main([*argv, "--quiet", "--csv", str(csv)]) == 2
    assert not csv.exists()


def test_unknown_table_keeps_existing_csv_byte_for_byte(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_bytes(b"level,h_ratio\r\n0,1\n")
    assert main(["table", "99", "--quiet", "--csv", str(csv)]) == 2
    assert csv.read_bytes() == b"level,h_ratio\r\n0,1\n"


def test_csv_replaces_an_existing_file(tmp_path, capsys):
    config = write(tmp_path, TABLE2_CONFIG.replace("levels = 6", "levels = 2"))
    fresh, stale = tmp_path / "fresh.csv", tmp_path / "stale.csv"
    stale.write_text("stale\n" * 100)
    for csv in (fresh, stale):
        assert main(["study", config, "--quiet", "--csv", str(csv)]) == 0
    assert stale.read_text() == fresh.read_text()


def test_result_flags_print_as_notes():
    result = run_regularity_study(3, 2)
    spec = result.config.norms[0]
    flagged = replace(result, flags=((spec, "non-monotone norm values"),))
    columns = [("L2", flagged, spec)]
    lines = _format_table(_report("t", columns, notes=["own note"])).splitlines()
    assert lines[-2:] == ["note: non-monotone norm values for L2", "own note"]


ZERO_FRACTION_CONFIG = (TABLE2_CONFIG.replace("fraction = 0.25", "fraction = 0\ndelta = inf")
                        .replace("levels = 6", "levels = 3")
                        .replace("norms = 1:2", "norms = 1:2,0:2"))


def test_non_monotone_note_names_the_column(tmp_path, capsys):
    # identical meshes give values of exactly 0, which do not fall
    assert main(["study", write(tmp_path, ZERO_FRACTION_CONFIG)]) == 0
    notes = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("note:")]
    assert notes == ["note: non-monotone norm values for norm_1_2",
                     "note: non-monotone norm values for norm_0_2"]


def test_identical_meshes_print_zero_and_no_order(tmp_path, capsys):
    # both projections are bitwise equal, so every cross norm is exactly 0
    # and no order is computed from it
    assert main(["study", write(tmp_path, ZERO_FRACTION_CONFIG)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:5]]
    assert [row[0] for row in rows] == ["1", "2", "4"]
    for row in rows:
        assert row[1:] == ["0.0000e+00", "-", "0.0000e+00", "-"]


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

    @pytest.mark.parametrize("flags,message", [
        (["--q", "7", "-d", "3"], "restriction"),
        (["--q", "7"], "-d is missing"),
        (["-d", "3"], "--q is missing"),
    ], ids=["restriction", "q-without-d", "d-without-q"])
    def test_q_restriction_violation(self, capsys, flags, message):
        assert main(["predict", "--gamma", "1", "--eta", "inf", "--delta", "1",
                     "-s", "1", "-r", "2", *flags, "--nu", "1"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_identical_meshes_and_forms(self, capsys):
        assert main(["predict", "--gamma", "inf", "--eta", "inf", "--delta", "inf",
                     "-s", "1", "-r", "2"]) == 0
        assert capsys.readouterr().out == (
            "sigma  = n/a\npredicted H^s order (r - s + sigma) = n/a\n"
            "sigma' = n/a\npredicted L2 order (r + sigma') = n/a\n")


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

    def test_p_just_above_2(self, capsys):
        assert main(["regularity", "--p", "2.0000001", "--levels", "2"]) == 0

    def test_p_not_rounded(self, capsys):
        result = run_regularity_study(2.5000004, 2)
        assert result.config.u == "power_p2.5000004"
        assert main(["regularity", "--p", "2.5000004", "--levels", "2"]) == 0
        assert "x^(2-1/p) - x, p = 2.5000004\n" in capsys.readouterr().out


# valid and malformed values for each config key; n0 and levels stay small
CONFIG_VALUES = {
    "dimension": ["1", "2", "3", "0", "one"],
    "degree": ["1", "2", "0", "3", "1.5"],
    "form": ["mass", "stiffness", "adr", "elastic", ""],
    "kappa": ["0", "1", "nan", "inf", "-1", "1e400"],
    "velocity": ["0.5", "0.5,0.25", "nan,0", "", "a,b"],
    "perturbation": ["single-node", "boundary-band", "shifted-second-node", "none"],
    "point": ["0.25", "0.25,0.25", "0.5,0.5,0.5", "nan", "2", "-1,0", ","],
    "fraction": ["0.25", "0", "0.5", "1", "-0.25", "nan", "inf"],
    "u": ["sin_pi", "sin_pi_2d", "bump_quadratic", "zero", "power_p3",
          "power_p2", "power_pnan", "power_pinf", "cos"],
    "n0": ["2", "3", "4", "0", "-2", "four"],
    "levels": ["2", "3", "1", "0", "-1", "x"],
    "norms": ["0:2", "1:2", "0:2,1:2", "2:2", "0:3", ""],
    "gamma": ["1", "2", "0", "-1", "nan", "inf"],
    "eta": ["2", "4", "inf", "1", "nan", "-inf"],
    "delta": ["0", "1", "inf", "-1", "nan"],
    "mu": ["0", "1", "2", "-1", "x"],
    "nu": ["0", "1", "2", "0.5"],
}
# None deletes the key
MUTATIONS = [(key, value) for key, values in CONFIG_VALUES.items()
             for value in values + [None]]
JUNK_LINES = ["# comment", "", "= 3", "levels", "wibble = 1", "u = = sin_pi"]


@st.composite
def config_texts(draw):
    """A consistent config with up to two keys changed or deleted and up to
    two junk lines."""
    pick = lambda values: draw(st.sampled_from(values))
    dim = pick(["1", "2"])
    kind = pick(["single-node", "shifted-second-node" if dim == "1" else "boundary-band"])
    cfg = {"dimension": dim, "degree": pick(["1", "2"]),
           "form": pick(["mass", "stiffness", "adr"]),
           "perturbation": kind,
           "point": ("0.25" if dim == "1" else "0.25,0.25") if kind == "single-node"
           else None,
           "fraction": pick(["0.25", "0.5"]),
           "u": pick(["sin_pi", "bump_quadratic", "power_p3", "zero"] if dim == "1"
                     else ["sin_pi_2d", "zero"]),
           "n0": pick(["2", "3", "4"]), "levels": pick(["2", "3"]),
           "norms": pick(["0:2", "1:2", "0:2,1:2"])}
    if cfg["form"] == "adr":
        cfg.update(kappa="1", velocity="0.5" if dim == "1" else "0.5,0.25")
    if draw(st.booleans()):
        cfg.update(delta=pick(["0", "1", "inf"]))
    for key, value in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        cfg[key] = value
    lines = [f"{key} = {value}" for key, value in cfg.items() if value is not None]
    lines += draw(st.lists(st.sampled_from(JUNK_LINES), max_size=2))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=config_texts())
def test_random_config_exits_0_or_2(tmp_path, capsys, text):
    code = main(["study", write(tmp_path, text)])
    captured = capsys.readouterr()
    assert code in (0, 2), text
    keys = {line.split("=", 1)[0].strip() for line in text.splitlines()}
    assert code == 2 or not keys & {"gamma", "eta", "mu", "nu"}, text
    assert "Traceback" not in captured.out + captured.err, text
