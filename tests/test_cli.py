import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tailkit
from tailkit import explorer
from tailkit.cli import build_parser, main
from tailkit.export import skeleton_from_json
from tailkit.hydro import HydroParams
from tailkit.profile import reference_profile_path


@pytest.fixture()
def skel4(tmp_path):
    path = tmp_path / "skel4.json"
    assert main(["skeleton", "--preset", "type4", "--out", str(path)]) == 0
    return path


def run_ok(argv):
    assert main(argv) == 0


class TestSkeletonCommand:
    def test_preset_writes_valid_graph(self, skel4):
        graph = skeleton_from_json(skel4.read_text())
        assert len(graph.ribs) == 6

    def test_explicit_parameters(self, tmp_path):
        out = tmp_path / "custom.json"
        run_ok([
            "skeleton", "--h1h2", "1:2", "--thickness-ratio", "2.0",
            "--ribs", "5", "--out", str(out),
        ])
        graph = skeleton_from_json(out.read_text())
        assert len(graph.ribs) == 5

    def test_unknown_preset_exits_1(self, tmp_path, capsys):
        code = main(["skeleton", "--preset", "type7", "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_non_finite_parameter_exits_1(self, tmp_path, capsys):
        out = tmp_path / "skel.json"
        code = main(["skeleton", "--h1h2", "1:2", "--thickness-ratio", "nan", "--out", str(out)])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_ok(["skeleton", "--preset", "type2", "--out", str(a)])
        run_ok(["skeleton", "--preset", "type2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestFitCommand:
    def test_fit_bundled_profile(self, tmp_path):
        out = tmp_path / "fit.json"
        from tailkit.profile import reference_profile_path

        run_ok(["fit", "--profile", str(reference_profile_path()), "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["upper"]["degree"] == 17
        assert len(doc["upper"]["coefficients"]) == 18
        assert doc["report"]["mse_upper_m2"] <= 5e-6

    def test_degree_zero_exits_1(self, tmp_path, capsys):
        from tailkit.profile import reference_profile_path

        code = main([
            "fit", "--profile", str(reference_profile_path()),
            "--degree", "0", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert "degree" in capsys.readouterr().err

    def test_failed_run_leaves_no_partial_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x_m,y_upper_m,y_lower_m\n0.0,oops,0.0\n")
        out = tmp_path / "fit.json"
        assert main(["fit", "--profile", str(bad), "--out", str(out)]) == 1
        assert not out.exists()

    def test_missing_profile_exits_1(self, tmp_path, capsys):
        code = main(["fit", "--profile", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_byte_identical_runs(self, tmp_path):
        from tailkit.profile import reference_profile_path

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_ok(["fit", "--profile", str(reference_profile_path()), "--out", str(a)])
        run_ok(["fit", "--profile", str(reference_profile_path()), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("token, message", [("nan", "non-finite"), ("inf", "non-finite"),
                                                ("1_0", "non-numeric")])
    def test_bad_profile_value_names_its_line(self, tmp_path, capsys, token, message):
        lines = reference_profile_path().read_text().splitlines()
        fields = lines[50].split(",")
        fields[1] = token
        lines[50] = ",".join(fields)
        profile = tmp_path / "profile.csv"
        profile.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        code = main(["fit", "--profile", str(profile), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"line 51: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

class TestBendCommand:
    def test_pose_json_shape(self, skel4, tmp_path):
        out = tmp_path / "pose.json"
        run_ok([
            "bend", "--skeleton", str(skel4), "--delta-top", "0.006",
            "--delta-bottom", "-0.006", "--out", str(out),
        ])
        doc = json.loads(out.read_text())
        assert set(doc) == {"segment_angles_rad", "midline"}
        assert len(doc["segment_angles_rad"]) == 5
        assert len(doc["midline"]) == 6
        assert all(angle > 0 for angle in doc["segment_angles_rad"])

    def test_non_finite_delta_exits_1(self, skel4, tmp_path, capsys):
        out = tmp_path / "pose.json"
        code = main([
            "bend", "--skeleton", str(skel4), "--delta-top", "nan",
            "--delta-bottom", "0.0", "--out", str(out),
        ])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_excessive_delta_exits_1(self, skel4, tmp_path, capsys):
        # 0.045 m exceeds 20% of the ~0.213 m slack
        code = main([
            "bend", "--skeleton", str(skel4), "--delta-top", "0.045",
            "--delta-bottom", "0.0", "--out", str(tmp_path / "pose.json"),
        ])
        assert code == 1
        assert "travel limit" in capsys.readouterr().err

    def test_two_cable_minimum_exits_0(self, skel4, tmp_path, capsys):
        # both cables pull (multipliers ~ -10.8 and -5.4 N) and the reduced
        # Hessian's smallest eigenvalue is ~ +0.04: a constrained minimum
        out = tmp_path / "pose.json"
        run_ok(["bend", "--skeleton", str(skel4), "--delta-top", "0.003",
                "--delta-bottom", "0.001", "--out", str(out)])
        assert len(json.loads(out.read_text())["segment_angles_rad"]) == 5
        assert capsys.readouterr().err == ""

    def test_two_cable_saddle_exits_2(self, tmp_path, capsys):
        # a stationary pose with both cables pulling whose reduced Hessian has
        # an eigenvalue of ~ -0.114: a saddle point, refused
        skel, out = tmp_path / "skel.json", tmp_path / "pose.json"
        run_ok(["skeleton", "--h1h2", "2:1", "--thickness-ratio", "1", "--ribs", "12",
                "--out", str(skel)])
        code = main(["bend", "--skeleton", str(skel), "--delta-top", "0.0030945658038681626",
                     "--delta-bottom", "0.0033219901234844956", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "computation error: two-cable bend is a saddle point, not a minimum "
            "(reduced Hessian eigenvalue -0.114)\n")
        assert not out.exists()

    @pytest.mark.parametrize("shift, code", [(0.0, 0), (2e-6, 1)])
    def test_guides_match_within_tolerance(self, skel4, tmp_path, capsys, shift, code):
        # a rib endpoint rounded by hand still finds its node within 1e-6 m,
        # and the pose keeps the node's coordinates
        doc = json.loads(skel4.read_text())
        rib = doc["ribs"][3]
        rib["y_top"] = round(rib["y_top"], 6) + shift
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        pose, edited_pose = tmp_path / "pose.json", tmp_path / "edited_pose.json"
        argv = ["bend", "--delta-top", "0.006", "--delta-bottom", "-0.006", "--skeleton"]
        run_ok([*argv, str(skel4), "--out", str(pose)])
        assert main([*argv, str(edited), "--out", str(edited_pose)]) == code
        if code == 0:
            assert edited_pose.read_bytes() == pose.read_bytes()
        else:
            err = capsys.readouterr().err
            assert f"rib at x={rib['x']:.4f} has no guide/spine nodes within 1e-06 m" in err
            assert not edited_pose.exists()


class TestSwimCommand:
    def test_calibrated_speed_matches_reference(self, skel4, capsys):
        run_ok(["swim", "--skeleton", str(skel4), "--calibrate-speed", "0.163181"])
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["speed_mm_s"] - 163.18) / 163.18 <= 0.01
        assert doc["power_w"] == pytest.approx(9.33)
        assert doc["mass_kg"] == pytest.approx(0.6022)

    @pytest.mark.parametrize("flags", [
        ["--freq", "0"],
        ["--freq", "nan"],
        ["--freq", "-1.5"],
        ["--amplitude", "nan"],
        ["--amplitude", "-0.001"],
        ["--calibrate-speed", "nan"],
        ["--calibrate-speed", "inf"],
    ])
    def test_bad_actuation_exits_1(self, skel4, capsys, flags):
        code = main(["swim", "--skeleton", str(skel4), *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags, named", [
        (["--freq", "-1"], "frequency"),
        (["--samples", "3"], "samples"),
    ])
    def test_zero_amplitude_still_checks_inputs(self, skel4, capsys, flags, named):
        code = main(["swim", "--skeleton", str(skel4), "--amplitude", "0", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert named in captured.err
        assert captured.out == ""

    def test_plain_swim_has_all_fields(self, skel4, capsys):
        run_ok(["swim", "--skeleton", str(skel4)])
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {
            "speed_mm_s", "speed_bl_s", "power_w", "mass_kg", "cot", "body_length_m",
        }
        assert doc["body_length_m"] == pytest.approx(0.3251, rel=1e-9)

    def test_large_stroke_on_uneven_stiffness_solves(self, tmp_path, capsys):
        # joint stiffnesses 125x apart: the single-taut phases need the load
        # continuation of the Newton solve
        skel = tmp_path / "uneven.json"
        run_ok(["skeleton", "--h1h2", "1:1", "--thickness-ratio", "0.2", "--ribs", "12",
                "--out", str(skel)])
        run_ok(["swim", "--skeleton", str(skel), "--amplitude", "0.04"])
        assert json.loads(capsys.readouterr().out)["speed_mm_s"] > 0


class TestSweepAndPareto:
    def test_reference_sweep_then_pareto(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        front = tmp_path / "front.csv"
        run_ok(["sweep", "--reference", "--out", str(report)])
        run_ok(["pareto", "--records", str(report), "--out", str(front)])
        lines = front.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("type4,")
        assert ",true," in lines[1]

    def test_grid_sweep(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "h1_h2_values": [[1, 2]],
            "thickness_ratios": [1, 3],
            "n_ribs_values": [4],
        }))
        report = tmp_path / "report.csv"
        plot = tmp_path / "plot.csv"
        run_ok(["sweep", "--grid", str(grid), "--out", str(report),
                "--jobs", "1", "--plot-out", str(plot)])
        lines = report.read_text().strip().split("\n")
        assert len(lines) == 3
        assert plot.read_text().startswith("speed_mm_s,cot")

    def test_default_jobs_starts_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a default sweep must not start a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "h1_h2_values": [[1, 2]], "thickness_ratios": [1, 2], "n_ribs_values": [4],
        }))
        assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "r.csv")]) == 0

    @pytest.mark.parametrize("doc", [
        "[1, 2]",
        '{"thickness_ratios": ["x"]}',
        '{"h1_h2_values": [[1, 2, 3]]}',
        '{"actuation": 5}',
        '{"actuation": {"amplitude_m": 0.008}}',
        '{"thickness_ratios": [1, "nan"]}',
        '{"thickness_ratios": [1, NaN]}',
        '{"actuation": {"amplitude_m": "nan", "frequency_hz": 1.5}}',
    ])
    def test_bad_grid_exits_1(self, tmp_path, capsys, doc):
        grid = tmp_path / "grid.json"
        grid.write_text(doc)
        out = tmp_path / "report.csv"
        code = main(["sweep", "--grid", str(grid), "--out", str(out), "--jobs", "1"])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_rib_count_exits_1(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text('{"n_ribs_values": [6.7], "thickness_ratios": [1], '
                        '"h1_h2_values": [[1, 2]]}')
        out = tmp_path / "report.csv"
        assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: grid JSON: $.n_ribs_values[0] must be a whole number, got 6.7\n" == err
        assert "Traceback" not in err
        assert not out.exists()

    def test_grid_values_sharing_a_label_exit_1(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text('{"h1_h2_values": [[1, 1.0000001], [1, 1.0000002]]}')
        out = tmp_path / "report.csv"
        assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "(1.0, 1.0000001) and (1.0, 1.0000002)" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_grid_and_reference_mutually_exclusive(self, tmp_path, capsys):
        assert main(["sweep", "--reference", "--grid", "g.json",
                     "--out", str(tmp_path / "r.csv")]) == 1

    def test_pareto_rejects_foreign_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["pareto", "--records", str(bad), "--out", str(tmp_path / "f.csv")]) == 1

    @pytest.mark.parametrize("row", ["good,1.0,2.0,1.0,6,163.18,0.502,9.33,0.6022,95.0,false",
                                     "good,1.0,2.0,1.0,6,163.18,0.502,9.33,0.6022,95.0,false,x,y"])
    def test_pareto_rejects_ragged_rows(self, tmp_path, capsys, row):
        report = tmp_path / "report.csv"
        report.write_text(",".join(explorer.REPORT_COLUMNS) + "\n" + row + "\n")
        front = tmp_path / "front.csv"
        assert main(["pareto", "--records", str(report), "--out", str(front)]) == 1
        assert "cells" in capsys.readouterr().err
        assert not front.exists()

    def test_pareto_skips_error_rows(self, tmp_path):
        report = tmp_path / "report.csv"
        header = "label,h1,h2,thickness_ratio,n_ribs,speed_mm_s,speed_bl_s,power_w,mass_kg,cot,pareto,source"
        report.write_text(
            header + "\n"
            "broken,1.0,1.0,1.0,6,,,,,,false,simulated\n"
            "good,1.0,2.0,1.0,6,163.18,0.502,9.33,0.6022,95.0,false,simulated\n"
        )
        front = tmp_path / "front.csv"
        run_ok(["pareto", "--records", str(report), "--out", str(front)])
        lines = front.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("good,")


class TestStrictJsonInput:
    """Well-formed JSON with a wrong key, type or range exits 1, naming the
    document and the JSON path, and writes nothing."""

    @pytest.mark.parametrize("doc, message", [
        ('{"thickness_ratios": ["2"]}',
         "grid JSON: $.thickness_ratios[0] must be a number, got '2'"),
        ('{"thickness_ratios": [true]}',
         "grid JSON: $.thickness_ratios[0] must be a number, got True"),
        ('{"actuation": {"amplitude_m": "0.01", "frequency_hz": "1.5"}}',
         "grid JSON: $.actuation.amplitude_m must be a number, got '0.01'"),
        ('{"thickness_ratio": [2]}',
         "grid JSON: $.thickness_ratio is not a known key; the keys are h1_h2_values, "
         "thickness_ratios, n_ribs_values, base_spec, actuation, hydro, power"),
        ('{"actuation": {"amplitude_m": 0.008, "frequency_hz": -1}}',
         "grid JSON: $.actuation: frequency must be finite and positive"),
        ('{"actuation": {"amplitude_m": -0.008, "frequency_hz": 1.5}}',
         "grid JSON: $.actuation: amplitude must be finite and nonnegative"),
    ])
    def test_grid(self, tmp_path, capsys, doc, message):
        grid = tmp_path / "grid.json"
        grid.write_text(doc)
        out = tmp_path / "report.csv"
        assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_hydro(self, skel4, tmp_path, capsys):
        hydro = tmp_path / "hydro.json"
        hydro.write_text(json.dumps({**HydroParams().to_dict(), "drag_coeff": True}))
        assert main(["swim", "--skeleton", str(skel4), "--hydro", str(hydro)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: hydro JSON: $.drag_coeff must be a number, got True\n"
        assert captured.out == ""

    @pytest.mark.parametrize("curve, key, value, message", [
        ("upper", "degree", 17.5, "$.upper.degree must be an integer, got 17.5"),
        ("lower", "domain", [0.0, 1.0, 2.0],
         "$.lower.domain must be an array of 2 entries, got [0.0, 1.0, 2.0]"),
    ])
    def test_curves(self, tmp_path, capsys, curve, key, value, message):
        fit = tmp_path / "fit.json"
        run_ok(["fit", "--profile", str(reference_profile_path()), "--out", str(fit)])
        doc = json.loads(fit.read_text())
        doc[curve][key] = value
        fit.write_text(json.dumps(doc))
        out = tmp_path / "skel.json"
        assert main(["skeleton", "--preset", "type4", "--curves", str(fit),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: curves file: {message}\n"
        assert not out.exists()


class TestExportCommand:
    def test_svg_written(self, skel4, tmp_path):
        svg = tmp_path / "out.svg"
        run_ok(["export", "--skeleton", str(skel4), "--svg", str(svg)])
        text = svg.read_text()
        assert text.startswith("<?xml")
        assert 'class="rib"' in text

    def test_non_standard_json_exits_1(self, skel4, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(skel4.read_text().replace('"thickness_mm": 3.0', '"thickness_mm": NaN', 1))
        svg = tmp_path / "out.svg"
        assert main(["export", "--skeleton", str(bad), "--svg", str(svg)]) == 1
        assert "not valid JSON" in capsys.readouterr().err
        assert not svg.exists()

    def test_byte_identical_runs(self, skel4, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_ok(["export", "--skeleton", str(skel4), "--svg", str(a)])
        run_ok(["export", "--skeleton", str(skel4), "--svg", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestAnalyzeCommand:
    def test_measured_logs(self, tmp_path, capsys):
        power = tmp_path / "power.csv"
        power.write_text("t_s,voltage_v,current_a\n0.0,3.7,2.5217\n10.0,3.7,2.5217\n")
        track = tmp_path / "track.csv"
        track.write_text("t_s,x_m\n0.0,0.0\n10.0,1.631813\n")
        run_ok(["analyze", "--power-log", str(power), "--track", str(track),
                "--mass", "0.6022"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["speed_m_s"] == pytest.approx(0.1631813)
        assert doc["power_w"] == pytest.approx(3.7 * 2.5217)
        assert doc["cot"] == pytest.approx(
            doc["power_w"] / (0.6022 * 0.1631813), rel=1e-9
        )


    @pytest.mark.parametrize("row, lineno", [("2.0,3.7,nan", 4), ("nan,3.7,2.0", 4),
                                             ("2.0,3.7,1_0", 4)])
    def test_bad_log_value_names_its_line(self, tmp_path, capsys, row, lineno):
        power = tmp_path / "power.csv"
        power.write_text(f"t_s,voltage_v,current_a\n0.0,3.7,2.0\n1.0,3.7,2.0\n{row}\n")
        track = tmp_path / "track.csv"
        track.write_text("t_s,x_m\n0.0,0.0\n10.0,1.631813\n")
        code = main(["analyze", "--power-log", str(power), "--track", str(track)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"line {lineno}: " in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("x_end", [1.0, -1.0])  # forward and backward track
    @pytest.mark.parametrize("mass", ["-1", "0"])
    def test_non_positive_mass_exits_1(self, tmp_path, capsys, x_end, mass):
        power = tmp_path / "power.csv"
        power.write_text("t_s,voltage_v,current_a\n0.0,3.7,2.0\n1.0,3.7,2.0\n")
        track = tmp_path / "track.csv"
        track.write_text(f"t_s,x_m\n0.0,0.0\n1.0,{x_end}\n")
        code = main(["analyze", "--power-log", str(power), "--track", str(track),
                     "--mass", mass])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: mass must be positive\n"
        assert captured.out == ""


class TestCliBehavior:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["skeleton", "--bogus", "x", "--out", "y.json"]) == 1

    def test_output_path_that_is_a_directory_exits_1(self, tmp_path, capsys):
        assert main(["skeleton", "--preset", "type4", "--out", str(tmp_path)]) == 1
        assert "output path is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_input_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        skel = tmp_path / "skel.json"
        skel.write_bytes(b"\xff\xfe{}")
        assert main(["export", "--skeleton", str(skel), "--svg", str(tmp_path / "s.svg")]) == 1
        assert "not UTF-8 text" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["skel.json"]

    @pytest.mark.parametrize("argv, code, named", [
        (["skeleton", "--h1h2", "1e-20:1"], 1, "h1:h2 1e-20:1"),
        (["skeleton", "--h1h2", "1:1", "--thickness-ratio", "1e-308"], 1, "last rib thickness"),
        (["swim", "--skeleton", "{thick}"], 1, "segment stiffness overflows"),
        (["bend", "--skeleton", "{thick}", "--delta-top", "0.003", "--delta-bottom", "0"], 1,
         "segment stiffness overflows"),
        (["swim", "--skeleton", "{type4}", "--freq", "1e300"], 2, "thrust estimate overflows"),
        (["swim", "--skeleton", "{type4}", "--freq", "1e160", "--calibrate-speed", "0.163"], 2,
         "thrust estimate overflows"),
    ], ids=["spine-share-1", "last-rib-inf", "swim-stiffness-overflow", "bend-stiffness-overflow",
            "swim-thrust-overflow", "calibrate-thrust-overflow"])
    def test_degenerate_input_gives_one_error_line(self, skel4, tmp_path, capsys, argv, code,
                                                   named):
        # a skeleton whose ribs thicken 1e120-fold: its stiffnesses overflow a double
        thick, out = tmp_path / "thick.json", tmp_path / "out.json"
        run_ok(["skeleton", "--h1h2", "1:1", "--thickness-ratio", "1e-120", "--out", str(thick)])
        argv = [arg.format(thick=thick, type4=skel4) for arg in argv]
        if argv[0] != "swim":
            argv += ["--out", str(out)]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and named in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "command",
        ["fit", "skeleton", "bend", "swim", "sweep", "pareto", "export", "analyze"],
    )
    def test_help_available(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--help" in out or "usage" in out

    def test_config_overrides_default(self, skel4, tmp_path, capsys):
        config = tmp_path / "tailkit.cfg"
        config.write_text("# defaults for bench runs\namplitude_m = 0.002\n")
        run_ok(["swim", "--skeleton", str(skel4), "--config", str(config)])
        low_amp = json.loads(capsys.readouterr().out)
        run_ok(["swim", "--skeleton", str(skel4)])
        default = json.loads(capsys.readouterr().out)
        assert low_amp["speed_mm_s"] < default["speed_mm_s"]
        assert low_amp["power_w"] < default["power_w"]

    def test_explicit_flag_beats_config(self, skel4, tmp_path, capsys):
        config = tmp_path / "tailkit.cfg"
        config.write_text("amplitude_m = 0.002\n")
        run_ok(["swim", "--skeleton", str(skel4), "--config", str(config),
                "--amplitude", "0.008"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["power_w"] == pytest.approx(9.33)

    def test_bad_config_line_exits_1(self, skel4, tmp_path, capsys):
        config = tmp_path / "tailkit.cfg"
        config.write_text("amplitude_m: 0.002\n")
        assert main(["swim", "--skeleton", str(skel4), "--config", str(config)]) == 1

    @pytest.mark.parametrize("command, flags, name", [
        ("swim", ["--k-ref", "nan"], "k_ref"),
        ("swim", ["--k-ref", "inf"], "k_ref"),
        ("swim", ["--mass", "nan"], "mass"),
        ("swim", ["--mass", "inf"], "mass"),
        ("swim", ["--body-length", "nan"], "body_length"),
        ("bend", ["--k-ref", "nan"], "k_ref"),
        ("analyze", ["--mass", "nan"], "mass"),
    ])
    def test_non_finite_flag_names_its_quantity(self, skel4, tmp_path, capsys, command, flags,
                                               name):
        out = tmp_path / "out.json"
        power = tmp_path / "power.csv"
        power.write_text("t_s,voltage_v,current_a\n0.0,3.7,2.0\n1.0,3.7,2.0\n")
        track = tmp_path / "track.csv"
        track.write_text("t_s,x_m\n0.0,0.0\n10.0,1.631813\n")
        argv = {
            "swim": ["swim", "--skeleton", str(skel4)],
            "bend": ["bend", "--skeleton", str(skel4), "--delta-top", "0.004",
                     "--delta-bottom", "0", "--out", str(out)],
            "analyze": ["analyze", "--power-log", str(power), "--track", str(track)],
        }[command]
        code = main(argv + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {name} must be finite\n"
        assert captured.out == ""
        assert not out.exists()

    def test_body_length_zero_is_not_inferred(self, skel4, capsys):
        assert main(["swim", "--skeleton", str(skel4), "--body-length", "0"]) == 1
        assert "body_length must be positive" in capsys.readouterr().err

    def test_cached_parser_matches_a_fresh_one(self, skel4, tmp_path, capsys):
        """One parser serves successive commands, failing ones included,
        exactly as a parser built for each call would."""
        outs = tmp_path / "outs"
        outs.mkdir()
        argvs = [
            ["skeleton", "--preset", "type2", "--out", str(outs / "s.json")],
            ["swim", "--skeleton", str(skel4), "--freq", "nan"],
            ["swim", "--skeleton", str(skel4)],
            ["bend", "--skeleton", str(skel4), "--bogus"],
            ["sweep", "--reference", "--out", str(outs / "r.csv")],
            ["export"],
            ["bend", "--skeleton", str(skel4), "--delta-top", "0.002",
             "--delta-bottom", "0", "--out", str(outs / "b.json")],
        ]

        def run_all(fresh):
            results = []
            for argv in argvs:
                if fresh:
                    build_parser.cache_clear()
                code = main(argv)
                captured = capsys.readouterr()
                written = {p.name: p.read_bytes() for p in sorted(outs.iterdir())}
                results.append((code, captured.out, captured.err, written))
                for p in outs.iterdir():
                    p.unlink()
            return results

        build_parser.cache_clear()
        cached = run_all(fresh=False)
        assert [r[0] for r in cached] == [0, 1, 0, 1, 0, 1, 0]
        assert build_parser.cache_info().misses == 1
        assert cached == run_all(fresh=True)


class TestImportFootprint:
    def test_scipy_loads_only_for_a_two_cable_bend(self, tmp_path):
        """Every command but a bend that shortens both cables runs without
        scipy, in a fresh interpreter; so does a single-cable bend whose
        joint stiffnesses are 125x apart."""
        (tmp_path / "grid.json").write_text("{}")
        (tmp_path / "power.csv").write_text("t_s,voltage_v,current_a\n0.0,3.7,2.5\n1.0,3.7,2.5\n")
        (tmp_path / "track.csv").write_text("t_s,x_m\n0.0,0.0\n1.0,0.16\n")
        script = textwrap.dedent(f"""
            import contextlib, io, json, os, sys
            import tailkit
            from tailkit.cli import main

            os.chdir({str(tmp_path)!r})
            runs = [
                ["fit", "--profile", {str(reference_profile_path())!r}, "--out", "fit.json"],
                ["skeleton", "--preset", "type4", "--out", "skel.json"],
                ["sweep", "--grid", "grid.json", "--out", "report.csv"],
                ["swim", "--skeleton", "skel.json", "--calibrate-speed", "0.163181"],
                ["analyze", "--power-log", "power.csv", "--track", "track.csv"],
                ["bend", "--skeleton", "skel.json", "--delta-top", "0.006",
                 "--delta-bottom", "-0.006", "--out", "one.json"],
                ["skeleton", "--h1h2", "1:1", "--thickness-ratio", "0.2", "--ribs", "12",
                 "--out", "uneven.json"],
                ["bend", "--skeleton", "uneven.json", "--delta-top", "0.04",
                 "--delta-bottom", "0", "--out", "uneven_pose.json"],
                ["bend", "--skeleton", "skel.json", "--delta-top", "0.003",
                 "--delta-bottom", "0.001", "--out", "two.json"],
            ]
            codes, loaded = [], []
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(main(argv))
                loaded.append(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
            print(json.dumps({{"codes": codes, "loaded": loaded}}))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(tailkit.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == [0] * 9
        assert result["loaded"][:8] == [[]] * 8
        assert "scipy.optimize" in result["loaded"][8]
        pose = json.loads((tmp_path / "two.json").read_text())
        assert len(pose["segment_angles_rad"]) == 5

    def test_process_pool_loads_only_for_jobs_above_one(self, tmp_path):
        """``import tailkit.cli`` and a ``--jobs 1`` sweep load neither
        multiprocessing nor the process pool, in a fresh interpreter."""
        (tmp_path / "grid.json").write_text('{"n_ribs_values": [4]}')
        script = textwrap.dedent(f"""
            import json, os, sys
            import tailkit.cli

            def pool_modules():
                return sorted(m for m in sys.modules if m.partition(".")[0] == "multiprocessing"
                              or m == "concurrent.futures.process")

            os.chdir({str(tmp_path)!r})
            loaded = [pool_modules()]
            code = tailkit.cli.main(["sweep", "--grid", "grid.json", "--jobs", "1",
                                     "--out", "report.csv"])
            print(json.dumps({{"code": code, "loaded": loaded + [pool_modules()]}}))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(tailkit.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "loaded": [[], []]}


_NUMBERS = ["0", "-1", "1", "0.5", "0.003", "-0.003", "0.04", "1e-300", "1e300", "nan", "inf",
            "-inf", "x", "", "1_0"]
_DELTAS = ["0", "0.003", "-0.003", "0.001", "0.006", "-0.006", "0.04", "1", "nan", "inf", "x"]
_COUNTS = ["-1", "0", "1", "2", "4", "16", "17", "1.5", "nan", "x", ""]
_PAIRS = ["1:2", "1:1", "0:1", "-1:2", "nan:1", "1e-20:1", "1", "a:b", "1:2:3", "", "0.2:0.1",
          "0.1:0.2", "none"]
# Text documents per input kind: a valid one first, then broken ones; every
# input flag may also get an empty file, a non-UTF-8 file, a directory or a
# missing path. None stands for a file that tailkit itself wrote.
_DOCUMENTS = {
    "profile": [reference_profile_path().read_text(), "x_m,y_upper_m,y_lower_m\n0,1,2\n",
                "a,b\n1,2\n"],
    "skeleton": [None, "{}", '{"nodes": []}'],
    "grid": ['{"n_ribs_values": [4], "h1_h2_values": [[1, 2]], "thickness_ratios": [1]}',
             '{"n_ribs_values": [2, 3], "thickness_ratios": [1e300]}', "[1, 2]",
             '{"thickness_ratios": [NaN]}'],
    "curves": [None, '{"upper": 1}', "{}"],
    "hydro": ['{"rho_kg_m3": 1000.0}', '{"rho_kg_m3": -1}', '{"rho": 1}'],
    "records": [None, "label,h1\nx,1\n", ""],
    "power": ["t_s,voltage_v,current_a\n0,3.7,2.5\n1,3.7,2.5\n", "t_s,voltage_v,current_a\n0,3.7\n",
              "t_s,voltage_v,current_a\n1,3.7,2.5\n0,3.7,2.5\n"],
    "track": ["t_s,x_m\n0,0\n1,0.16\n", "t_s,x_m\n0,0\n", "t_s,x_m\n0,0\n1,-0.1\n"],
    "config": ["n_ribs = 4\nk_ref = 0.05\njobs = 1\n", "degree = 5\nexcise = none\n",
               "mass_kg = 2\namplitude_m = 0.003\n", "just words\n", "n_ribs = x\n",
               "n_samples = 8\n", "frequency_hz = nan\n", "jobs = 0\n"],
}
# Each subcommand's flags: (the pool its values come from, a value that works
# or None for an input kind's valid document or a fresh output path, whether
# it is required). A flag is given or left out at random, a required one
# more often, and half its values are the working one.
_COMMANDS = {
    "fit": {"--profile": ("profile", None, True), "--degree": (_COUNTS, "8", False),
            "--excise": (_PAIRS, "none", False), "--fill": (_COUNTS, "20", False),
            "--out": ("out", None, True), "--config": ("config", None, False)},
    "skeleton": {"--preset": (["type1", "type7", "", "TYPE1"], "type4", False),
                 "--h1h2": (_PAIRS, "1:2", False), "--thickness-ratio": (_NUMBERS, "2", False),
                 "--ribs": (_COUNTS, "5", False), "--body-length": (_NUMBERS, "0.3", False),
                 "--head-fraction": (_NUMBERS, "0.33", False),
                 "--thickness-first": (_NUMBERS, "3", False), "--curves": ("curves", None, False),
                 "--out": ("out", None, True), "--config": ("config", None, False)},
    "bend": {"--skeleton": ("skeleton", None, True), "--delta-top": (_DELTAS, "0.003", True),
             "--delta-bottom": (_DELTAS, "-0.003", True), "--k-ref": (_NUMBERS, "0.05", False),
             "--out": ("out", None, True), "--config": ("config", None, False)},
    "swim": {"--skeleton": ("skeleton", None, True), "--amplitude": (_DELTAS, "0.008", False),
             "--freq": (_NUMBERS, "1.5", False), "--calibrate-speed": (_NUMBERS, "0.15", False),
             "--mass": (_NUMBERS, "2", False), "--body-length": (_NUMBERS, "0.33", False),
             "--hydro": ("hydro", None, False), "--k-ref": (_NUMBERS, "0.05", False),
             "--samples": (_COUNTS, "32", False), "--config": ("config", None, False)},
    "sweep": {"--grid": ("grid", None, False), "--reference": (None, None, False),
              "--out": ("out", None, True), "--jobs": (["-1", "0", "x"], "1", False),
              "--plot-out": ("out", None, False), "--json-out": ("out", None, False),
              "--config": ("config", None, False)},
    "pareto": {"--records": ("records", None, True), "--out": ("out", None, True),
               "--config": ("config", None, False)},
    "export": {"--skeleton": ("skeleton", None, True), "--svg": ("out", None, True),
               "--config": ("config", None, False)},
    "analyze": {"--power-log": ("power", None, True), "--track": ("track", None, True),
                "--mass": (_NUMBERS, "2", False), "--config": ("config", None, False)},
}


class TestArgvFuzz:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """Paths of every input document, by kind; the valid one first."""
        base = tmp_path_factory.mktemp("fuzz_inputs")
        made = {}
        for name, argv in (("skeleton", ["skeleton", "--preset", "type4"]),
                           ("curves", ["fit", "--profile", str(reference_profile_path())])):
            made[name] = base / f"made_{name}.json"
            assert main(argv + ["--out", str(made[name])]) == 0
        made["records"] = base / "made_records.csv"
        assert main(["sweep", "--reference", "--out", str(made["records"])]) == 0
        (base / "garbage.bin").write_bytes(b"\xff\xfe\x00broken")
        (base / "empty").write_text("")
        paths = {}
        for kind, docs in _DOCUMENTS.items():
            paths[kind] = []
            for j, doc in enumerate(docs):
                paths[kind].append(str(made[kind]) if doc is None else str(base / f"{kind}_{j}"))
                if doc is not None:
                    Path(paths[kind][-1]).write_text(doc)
            paths[kind] += [str(base / "garbage.bin"), str(base / "empty"), str(base),
                            str(base / "missing.txt")]
        return paths

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_no_traceback_no_partial_file(self, inputs, tmp_path, command, data):
        """Any argv: exit code 0, 1 or 2, no traceback, and a failed run
        leaves no file behind."""
        out_dir = Path(tempfile.mkdtemp(dir=tmp_path))
        argv = [command]
        for flag, (pool, good, required) in _COMMANDS[command].items():
            given = [True] * 4 + [False] if required else [True, False, False]
            if not data.draw(st.sampled_from(given), label=flag):
                continue
            if pool is None:
                argv.append(flag)
                continue
            if pool == "out":
                pool = [str(out_dir), str(out_dir / "no_dir" / "x"), ""]
                good = str(out_dir / flag.strip("-"))
            elif isinstance(pool, str):
                pool, good = inputs[pool], inputs[pool][0]
            value = data.draw(st.one_of(st.just(good), st.sampled_from(pool)), label=flag)
            argv += [flag, value] if not value.startswith("-") else [f"{flag}={value}"]
        argv += data.draw(st.sampled_from([[]] * 6 + [["--bogus"], ["stray"]]))
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        except (Exception, SystemExit) as e:  # a traceback, or argparse's exit
            pytest.fail(f"{argv} raised {type(e).__name__}: {e}")
        assert code in (0, 1, 2), argv
        assert "Traceback" not in stderr.getvalue()
        left = sorted(p.name for p in out_dir.iterdir())
        if code != 0:
            assert left == [], (argv, left)  # nothing written, not even a temp file
        else:
            assert not [name for name in left if name.endswith(".tmp")], argv


# sha256 prefixes of the pinned outputs; a declared byte change edits this table
_PINNED_OUTPUTS = {
    "fit.json": "2db89a1ef66b",
    "type4.json": "1a0644d7267d",
    "sweep.csv": "91d9842ab257",
    "sweep.json": "609fbd775765",
    "swim.json": "b9b01cd25431",
    "bend.json": "08a6f16a4c12",
    "grid80.csv": "d5e02e00d5ff",
    "grid80.json": "6bfabfb9a20d",
}
# 80 designs at 3 cm strokes, some of which fail in the bend solve
_GRID_80 = {"h1_h2_values": [[1, 1], [1, 2], [1, 8], [2, 1]],
            "thickness_ratios": [0.2, 1, 2, 3], "n_ribs_values": [4, 6, 8, 10, 12],
            "actuation": {"amplitude_m": 0.03, "frequency_hz": 1.5}}


def test_pinned_outputs_are_byte_identical(tmp_path, capsys):
    def path(name):
        return str(tmp_path / name)

    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "grid80_in.json").write_text(json.dumps(_GRID_80))
    run_ok(["fit", "--profile", str(reference_profile_path()), "--out", path("fit.json")])
    run_ok(["skeleton", "--preset", "type4", "--out", path("type4.json")])
    for grid, name in (("empty.json", "sweep"), ("grid80_in.json", "grid80")):
        run_ok(["sweep", "--grid", path(grid), "--out", path(f"{name}.csv"),
                "--json-out", path(f"{name}.json")])
    run_ok(["bend", "--skeleton", path("type4.json"), "--delta-top", "0.003",
            "--delta-bottom", "0.001", "--out", path("bend.json")])
    capsys.readouterr()
    run_ok(["swim", "--skeleton", path("type4.json"), "--calibrate-speed", "0.163181"])
    (tmp_path / "swim.json").write_text(capsys.readouterr().out)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:12]
           for name in _PINNED_OUTPUTS}
    assert got == _PINNED_OUTPUTS
