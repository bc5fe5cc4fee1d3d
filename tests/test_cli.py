import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sievelab import cli, lattice_points
from sievelab.lattice_points import enumerate_orbits


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstants:
    def test_unconditional_passes(self, capsys):
        code, out, _ = run(capsys, "constants", "--mode", "unconditional")
        assert code == 0
        assert "overall: pass" in out
        assert "| 6 " in out and "| 16 " in out

    def test_selberg_json(self, capsys):
        code, out, _ = run(capsys, "constants", "--mode", "selberg",
                           "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        by_name = {r["name"]: r["computed"] for r in payload["rows"]}
        assert by_name["r (one coordinate)"] == "5"
        assert by_name["r (coordinate product)"] == "14"

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "constants", "--output", "csv")
        assert code == 0
        assert out.splitlines()[0] == "name,computed,expected,pass"

    def test_failing_row_gives_exit_one(self, capsys, monkeypatch):
        from sievelab import thresholds
        expected = dict(thresholds._EXPECTED)
        bad = dict(expected["unconditional"])
        bad["threshold"] = (99.0, 100.0)
        expected = {**expected, "unconditional": bad}
        monkeypatch.setattr(thresholds, "_EXPECTED", expected)
        code, out, _ = run(capsys, "constants", "--mode", "unconditional")
        assert code == 1
        assert "overall: FAIL" in out

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "constants", "--output", "json")
        _, out2, _ = run(capsys, "constants", "--output", "json")
        assert out1 == out2


class TestLocal:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "local", "--form", "1,1,-3,0,0,0",
                           "--t", "1", "--pmax", "97")
        assert code == 0
        assert "bad primes <= 97: none" in out
        assert "NO" not in out

    def test_csv_has_agreement_column(self, capsys):
        code, out, _ = run(capsys, "local", "--form", "1,1,-3,0,0,0",
                           "--t", "1", "--pmax", "30", "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,count_V,count_V0,omega_num,omega_den,is_bad,cassels_agree"
        assert lines[1] == "2,4,2,0,1,0,"
        assert lines[3].endswith(",1")  # p=5 agrees with the closed form

    def test_triple_variant_bad_set(self, capsys):
        code, out, _ = run(capsys, "local", "--form", "1,1,-3,0,0,0", "--t", "1",
                           "--pmax", "50", "--projection", "x1x2x3",
                           "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["bad_primes"]) <= {2, 3, 5, 7}

    def test_pmax_guard_is_config_error(self, capsys):
        code, _, err = run(capsys, "local", "--form", "1,1,-3,0,0,0",
                           "--t", "1", "--pmax", "100000")
        assert code == 2
        assert "error" in err

    def test_missing_form(self, capsys):
        code, _, err = run(capsys, "local", "--t", "1")
        assert code == 2
        assert "requires" in err


class TestEquidist:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "equidist", "--form", "1,1,-3,0,0,0",
                           "--t", "1", "--T", "50", "--dmax", "15")
        assert code == 0
        lines = out.splitlines()
        d1 = next(line for line in lines if line.startswith("1 |"))
        assert "| 0 |" in d1  # R_1 = 0
        assert any(line.startswith("level statistic") for line in lines)

    def test_byte_identical_reruns(self, capsys):
        args = ("equidist", "--form", "1,1,-3,0,0,0", "--t", "1",
                "--T", "50", "--dmax", "12", "--output", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_trend_flag(self, capsys):
        code, out, _ = run(capsys, "equidist", "--form", "1,1,-3,0,0,0",
                           "--t", "1", "--T", "50", "--dmax", "12", "--trend")
        assert code == 0
        assert "trend:" in out

    def test_trend_builds_2T_only_for_views_that_show_it(self, capsys, monkeypatch):
        # enumeration radii: c0*T for CSV; the 2T ball once, and nothing
        # else, when the view shows the trend
        radii = []

        def counted(f, t, R):
            radii.append(R)
            return enumerate_orbits(f, t, R)

        monkeypatch.setattr(lattice_points, "enumerate_orbits", counted)
        args = ("equidist", "--form", "1,1,-3,0,0,0", "--t", "1", "--T", "50",
                "--dmax", "12")
        _, plain, _ = run(capsys, *args, "--output", "csv")
        _, trend, _ = run(capsys, *args, "--output", "csv", "--trend")
        assert trend == plain
        assert radii == [100.0, 100.0]
        run(capsys, *args, "--output", "json", "--trend")
        assert radii[2:] == [200.0]

    def test_one_residual_pass_per_sequence(self, capsys, monkeypatch):
        # rows, level statistic and trend share the R_d rows of each sequence
        calls = []

        def counted(seq, omega, dmax):
            calls.append((seq.T, dmax))
            return lattice_points.residual_Rd(seq, omega, dmax)

        monkeypatch.setattr(cli, "residual_Rd", counted)
        code, _, _ = run(capsys, "equidist", "--form", "1,1,-3,0,0,0", "--t", "1",
                         "--T", "50", "--dmax", "30", "--trend")
        assert code == 0
        assert calls == [(50.0, 30), (100.0, 30)]


class TestCensus:
    def test_report_fields(self, capsys):
        code, out, _ = run(capsys, "census", "--form", "1,1,-3,0,0,0",
                           "--t", "1", "--T", "60", "--r", "6",
                           "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["published_r"] == 6
        assert payload["weighted"] > 0
        assert 0 <= payload["ratio"] <= 1 + 1e-12

    def test_published_r_by_projection_and_mode(self, capsys):
        code, out, _ = run(capsys, "census", "--form", "1,1,-3,0,0,0",
                           "--t", "1", "--T", "60", "--r", "16",
                           "--projection", "x1x2", "--mode", "selberg",
                           "--output", "json")
        assert code == 0
        assert json.loads(out)["published_r"] == 14

    def test_radius_past_the_former_cell_limit_runs(self, capsys):
        code, out, _ = run(capsys, "census", "--form=1,1,-3,0,0,0", "--t=1",
                           "--T", "8000")
        assert code == 0
        assert out

    def test_radius_beyond_the_slice_limit_is_refused(self, capsys):
        code, out, err = run(capsys, "census", "--form=1,1,-3,0,0,0", "--t=1",
                             "--T", "80000")
        assert code == 2
        assert out == ""
        assert err == ("error: radius 160000 needs about 1.6e+05 slices, "
                       "more than the limit of 150000\n")


class TestEnumerate:
    def test_csv_points(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--form", "1,1,-3,0,0,0",
                           "--t", "1", "--R", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x1,x2,x3,weight"
        assert len(lines) == 13
        assert lines[1].startswith("-2,0,-1")

    @pytest.mark.parametrize("radius,count", [("1e9", "1e+09"), ("1e200", "1e+200")])
    def test_radius_beyond_the_slice_limit_is_refused(self, capsys, radius, count):
        code, out, err = run(capsys, "enumerate", "--form", "1,1,-3,0,0,0",
                             "--t", "1", "--R", radius)
        assert code == 2
        assert out == ""
        assert err == (f"error: radius {count} needs about {count} slices, "
                       "more than the limit of 150000\n")

    def test_radius_from_T(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--form", "1,1,-3,0,0,0",
                           "--t", "1", "--T", "10", "--c0", "2.0")
        assert code == 0
        assert len(out.strip().splitlines()) > 1


class TestAutomorphs:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "automorphs", "--form", "1,1,-3,0,0,0",
                           "--H", "1", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 8

    def test_text(self, capsys):
        code, out, _ = run(capsys, "automorphs", "--form", "1,1,-3,0,0,0",
                           "--H", "0")
        assert code == 0
        assert "count=1" in out

    def test_height_beyond_the_box_limit_is_refused(self, capsys, monkeypatch):
        # H = 63 needs a box of 127^3 vectors, H = 62 one of 125^3 = 1,953,125
        calls = []
        monkeypatch.setattr(lattice_points, "eval_form", lambda *args: calls.append(args))
        code, out, err = run(capsys, "automorphs", "--form", "1,1,-3,0,0,0", "--H", "63")
        assert code == 2 and out == "" and calls == []
        assert err == ("error: height 63 needs a box of 2048383 vectors, more than the "
                       "limit of 2000000\n")
        assert 125 ** 3 <= lattice_points._MAX_BOX

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "automorphs", "--form", "1,1,-3,0,0,0",
                           "--H", "0", "--output", "csv")
        assert code == 0
        assert out.strip().splitlines() == [
            "m11,m12,m13,m21,m22,m23,m31,m32,m33",
            "1,0,0,0,1,0,0,0,1"]


class TestConfigAndErrors:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("form=1,1,-3,0,0,0\nt=1\npmax=20\n")
        code, out, _ = run(capsys, "--config", str(cfg), "local")
        assert code == 0
        assert "form 1,1,-3,0,0,0" in out

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("form=1,1,-3,0,0,0\nt=1\npmax=20\n")
        code, out, _ = run(capsys, "--config", str(cfg), "local", "--pmax", "11")
        assert code == 0
        assert "11 |" in out and "13 |" not in out

    def test_config_serves_every_subcommand(self, capsys, tmp_path):
        # a key for another subcommand's flag is skipped; a key no
        # subcommand takes is still an error
        cfg = tmp_path / "run.cfg"
        cfg.write_text("form=1,1,-3,0,0,0\nt=1\ndmax=30\npmax=20\n")
        code, out, _ = run(capsys, "--config", str(cfg), "local")
        assert code == 0
        assert "form 1,1,-3,0,0,0" in out
        code, out, err = run(capsys, "--config", str(cfg), "census", "--T", "50")
        assert (code, err) == (0, "")
        cfg.write_text("dmax=30\nnosuchkey=1\n")
        with pytest.raises(SystemExit) as exc:
            run(capsys, "--config", str(cfg), "constants")
        assert exc.value.code == 2
        assert "--nosuchkey" in capsys.readouterr().err

    def test_config_switch_takes_a_boolean(self, capsys, tmp_path):
        # an on/off key sets or leaves its flag; it never passes its value on
        args = ("equidist", "--form", "1,1,-3,0,0,0", "--t", "1", "--T", "50",
                "--dmax", "12")
        cfg = tmp_path / "run.cfg"
        for value, shown in (("1", True), ("true", True), ("0", False), ("off", False)):
            cfg.write_text(f"trend={value}\n")
            code, out, _ = run(capsys, "--config", str(cfg), *args)
            assert code == 0
            assert ("trend:" in out) is shown, value
        cfg.write_text("trend=maybe\n")
        code, _, err = run(capsys, "--config", str(cfg), *args)
        assert code == 2
        assert "boolean" in err

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a pair\n")
        code, _, err = run(capsys, "--config", str(cfg), "constants")
        assert code == 2
        assert "key=value" in err

    def test_zero_t_is_config_error(self, capsys):
        code, _, err = run(capsys, "local", "--form", "1,1,-3,0,0,0", "--t", "0")
        assert code == 2
        assert "nonzero" in err

    def test_degenerate_form_is_config_error(self, capsys):
        code, _, err = run(capsys, "local", "--form", "1,1,0,0,0,0", "--t", "1")
        assert code == 2
        assert "degenerate" in err

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--R", "inf"], ["enumerate", "--R", "nan"],
        ["enumerate", "--T", "nan"], ["census", "--T", "nan"],
        ["census", "--T", "inf"], ["census", "--T", "100", "--c0", "nan"],
        ["equidist", "--T", "100", "--c0", "inf"],
        ["census", "--T", "1e308"],  # finite, but c0*T overflows
    ])
    def test_non_finite_input_is_config_error(self, capsys, argv):
        code, out, err = run(capsys, argv[0], "--form", "1,1,-3,0,0,0", "--t", "1",
                             *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv,message", [
        (["equidist", "--dmax", "1"], "--dmax must be >= 2, got 1"),
        (["equidist", "--dmax", "-5"], "--dmax must be >= 2, got -5"),
        (["census", "--r", "-1"], "--r must be >= 0, got -1"),
        (["equidist", "--dmax", "10001"], "--dmax must be <= 10^4, got 10001"),
    ])
    def test_bad_flag_is_refused_before_any_work(self, capsys, monkeypatch, argv, message):
        def refused(*args):
            raise AssertionError("build_sequence ran")

        monkeypatch.setattr(cli, "build_sequence", refused)
        code, out, err = run(capsys, argv[0], "--form", "1,1,-3,0,0,0", "--t", "1",
                             "--T", "4000", *argv[1:])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("output", ["text", "csv"])
    def test_equidist_without_points_is_config_error(self, capsys, output):
        # x^2 + y^2 - 3z^2 = 3 has no integer point, so X = 0
        code, out, err = run(capsys, "equidist", "--form", "1,1,-3,0,0,0", "--t", "3",
                             "--T", "50", "--dmax", "10", "--output", output)
        assert code == 2
        assert out == ""
        assert err == ("error: no point with a nonzero projection lies within "
                       "c0*T = 100, so X = 0\n")

    def test_census_without_points_is_config_error(self, capsys):
        # the same input as above: census refuses it as equidist does
        code, out, err = run(capsys, "census", "--form", "1,1,-3,0,0,0", "--t", "3",
                             "--T", "50")
        assert code == 2
        assert out == ""
        assert err == ("error: no point with a nonzero projection lies within "
                       "c0*T = 100, so X = 0\n")

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["constants", "--frobnicate"])
        assert exc.value.code == 2

    def test_parser_is_built_once_and_survives_errors(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.argparse, "ArgumentParser",
                            lambda *a, **k: pytest.fail("parser built per call"))
        with pytest.raises(SystemExit):
            cli.main(["local", "--pmax", "ten"])
        code, out, _ = run(capsys, "constants", "--output", "csv")
        assert code == 0 and out.startswith("name,computed,expected,pass")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "constants", "--output", "json",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["all_pass"] is True


def test_import_loads_no_code_generation_modules():
    # what the benchmark's set-up probe imports; dataclasses alone pulls in
    # inspect, ast, dis and tokenize at start-up
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys\n"
            "import sievelab.cli\n"
            "from sievelab import arith, lattice_points, localdata, numerics, quadforms\n"
            "print(*sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
