"""Command-line surface: envelopes, exit codes, pinned examples."""

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magnitude
from magnitude import cli
from magnitude.pixels import PixelSet
from test_pixels import staircase_witness

SRC = str(Path(magnitude.__file__).resolve().parent.parent)
ENVELOPE_KEYS = {"command", "inputs_digest", "results", "timing_seconds", "version"}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_loads(text):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    report = strict_loads(out)
    assert set(report) == ENVELOPE_KEYS
    return code, report, err


# ---------------------------------------------------------------------------
# pinned examples


def test_mag_three_points(capsys):
    code, rep, _ = run_json(capsys, "mag", "--points-1d", "0,1,3", "--t", "1")
    assert code == 0
    assert rep["results"]["magnitude"] == pytest.approx(2.223711313215775, abs=1e-12)
    assert rep["results"]["status"] == "UniquePD"
    assert rep["results"]["n_points"] == 3


def test_pixel_intrinsic_l_tromino(capsys):
    code, rep, _ = run_json(capsys, "pixel", "--ascii", r"##\n#.")
    assert code == 0
    assert rep["results"] == {"V": ["1", "4", "3"], "magnitude": "15/4"}


def test_ball_oracle_exact_rational(capsys):
    code, rep, _ = run_json(capsys, "oracle", "--ball", "3,1")
    assert code == 0
    assert rep["results"]["magnitude_exact"] == "25/6"
    code, rep, _ = run_json(capsys, "oracle", "--ball", "5,1")
    assert rep["results"]["magnitude_exact"] == "3199/480"
    assert rep["results"]["magnitude"] == pytest.approx(3199 / 480, rel=1e-15)


def test_conjecture_gap_in_dimension_five(capsys):
    code, rep, _ = run_json(capsys, "oracle", "--conjecture", "5,1")
    assert code == 0
    assert abs(rep["results"]["difference"]) > 1e-3
    code, rep, _ = run_json(capsys, "oracle", "--conjecture", "3,2.5")
    assert abs(rep["results"]["difference"]) <= 1e-12


def test_oracle_cantor_and_interval(capsys):
    code, rep, _ = run_json(capsys, "oracle", "--interval", "0,2", "--t", "1")
    assert code == 0
    assert rep["results"]["magnitude"] == pytest.approx(2.0, abs=1e-15)
    code, rep, _ = run_json(capsys, "oracle", "--cantor", "--t", "1")
    assert rep["results"]["magnitude"] == pytest.approx(1.4983504315884848, abs=1e-12)


# ---------------------------------------------------------------------------
# the k32 pathology surface


def test_mag_k32_negative_window(capsys):
    # defined but negative: reported with exit 0, status shows the form
    # is invertible without being positive definite
    code, rep, _ = run_json(capsys, "mag", "--graph", "k32", "--t", "0.34")
    assert code == 0
    assert rep["results"]["magnitude"] < 0
    assert rep["results"]["status"] == "UniqueInvertible"


def test_mag_k1_is_one_point(capsys):
    code, rep, _ = run_json(capsys, "mag", "--graph", "k1", "--t", "2")
    assert code == 0
    assert rep["results"]["magnitude"] == 1.0
    assert rep["results"]["n_points"] == 1
    assert rep["inputs_digest"] == cli._digest(
        {"space": {"kind": "graph", "name": "k1"}, "t": 2.0})
    code, out, err = run(capsys, "mag", "--graph", "k0")
    assert code == 2
    assert json.loads(err)["error"] == "BadSpec"


def test_mag_k32_pole_exits_three(capsys):
    code, out, err = run(capsys, "mag", "--graph", "k32",
                         "--t", repr(0.5 * math.log(2)))
    assert code == 3
    rep = json.loads(out)
    assert rep["results"]["status"] == "Undefined"
    assert rep["results"]["magnitude"] is None


@pytest.mark.parametrize("argv, exit_code", [
    (("mag", "--graph", "k32", "--t", repr(0.5 * math.log(2))), 3),
    (("mag", "--graph", "k32", "--t", repr(math.nextafter(0.5 * math.log(2), 1.0))), 3),
    (("mag", "--points-1d", "0,1e-300"), 3),
    (("weights", "--points-1d", "0,1e-300"), 0),
])
def test_undefined_solve_is_quiet(argv, exit_code):
    # near the K_{3,2} pole and on an exactly singular Z: Undefined, with
    # nothing on stderr and no numpy warning
    code, out, err, caught = _call(list(argv))
    assert code == exit_code
    assert strict_loads(out)["results"]["status"] == "Undefined"
    assert err == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("t", [0.34657359740429104,
                               0.5 * math.log(2) * (1 + 1e-9)])
def test_near_pole_solve_passes_the_relative_residual_gate(t):
    # weights near 1e7 to 1e8 leave a residual above 1e-9 that is still
    # at the rounding floor eps ||Z|| ||w||: a certified value, exit 0
    code, out, err, caught = _call(["mag", "--graph", "k3,2", "--t", repr(t)])
    assert code == 0
    res = strict_loads(out)["results"]
    assert res["status"] == "UniquePD"
    assert res["residual"] > 1e-9
    assert err == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_magfn_never_exits_three(capsys):
    code, rep, _ = run_json(capsys, "magfn", "--graph", "k32",
                            "--tmin", "0.337", "--tmax", "0.346", "--steps", "7")
    assert code == 0
    samples = rep["results"]["samples"]
    assert len(samples) == 7
    assert all("status" in s for s in samples)
    mags = [s["magnitude"] for s in samples if s["magnitude"] is not None]
    assert any(m < 0 for m in mags)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_two_on_bad_input(capsys):
    code, out, err = run(capsys, "mag", "--points-1d", "0,zebra")
    assert code == 2
    assert json.loads(err)["error"] == "BadSpec"

    code, _, err = run(capsys, "mag", "--t", "1")  # no source
    assert code == 2

    code, _, err = run(capsys, "mag", "--points-1d", "0,1", "--graph", "c5")
    assert code == 2

    code, _, err = run(capsys, "oracle", "--ball", "2,1")
    assert code == 2
    assert json.loads(err)["error"] == "UnsupportedDimension"

    code, _, err = run(capsys, "pixel", "--ascii", "#?#")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("mag", "--points-1d", "0,1", "--t", "inf"),
    ("mag", "--points-1d", "0,1", "--tol", "nan"),
    ("mag", "--points-1d", "0,1", "--t", "1e999"),
    ("diversity", "--points-1d", "0,1,2", "--t", "inf"),
    ("magfn", "--points-1d", "0,1", "--tmin", "1", "--tmax", "inf"),
    ("dim", "--grid", "11", "--tmin", "-inf", "--tmax", "2"),
    ("approx", "--grid-sizes", "11,21", "--length", "nan"),
    ("oracle", "--interval", "0,2", "--t", "-inf"),
])
def test_non_finite_flag_exits_two(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("oracle", "--ball", "3,nan"),
    ("oracle", "--interval", "0,inf"),
    ("mag", "--points-1d", "0,nan"),
])
def test_non_finite_number_list_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "BadSpec"


@pytest.mark.parametrize("argv", [
    ("mag", "--points-1d", "0,1e308,-1e308"),
    ("mag", "--grid", "3", "--spacing", "1e308"),
    ("mag", "--ball", "2,1e200,5", "--seed", "1"),
    ("diversity", "--spec",
     '{"kind": "points_1d", "params": {"coordinates": [0, Infinity]}}'),
])
def test_non_finite_generated_distance_exits_two(argv):
    code, out, err, caught = _call(list(argv))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "BadSpec"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [
    ("mag", "--ball", "12,1,10", "--p", "1", "--seed", "1"),
    ("mag", "--ball", "20,1,5", "--p", "2", "--seed", "1"),
])
def test_ball_out_of_reach_of_rejection_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "BadSpec"
    assert "cube draws" in report["detail"]


@pytest.mark.parametrize("argv", [
    ("oracle", "--ball", "3,1e200"),
    ("oracle", "--sphere", "4,1e200"),
    ("oracle", "--interval", "0,4", "--t", "1e308"),
    ("pixel", "--ascii", "##", "--t", "1e308"),
    ("pixel", "--body-box", "1,1", "--t", "1e308"),
])
def test_overflowing_result_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ResultOverflow"


@pytest.mark.parametrize("n, want", [
    # 1 / (n! omega_n) by a 50-digit mpmath solve; subnormal at n = 236
    (200, 2.2810129203640751e-267),
    (236, 8.0825128165433876e-324),
])
def test_leading_coefficient_near_the_double_range(capsys, n, want):
    code, rep, err = run_json(capsys, "oracle", "--leading", f"{n},2")
    assert code == 0 and err == ""
    assert rep["results"]["coefficient"] == pytest.approx(want, rel=1e-13,
                                                          abs=math.ulp(0.0))


@pytest.mark.parametrize("n", [237, 400])
def test_leading_coefficient_below_the_double_range_exits_two(capsys, n):
    code, out, err = run(capsys, "oracle", "--leading", f"{n},2")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "CoefficientUnderflow"


@pytest.mark.parametrize("argv", [
    ("diversity", "--points-1d", "0,1,3"),
    ("dim", "--grid", "11", "--tmin", "1", "--tmax", "4"),
])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_nonpositive_max_iters_exits_two(capsys, argv, count):
    code, out, err = run(capsys, *argv, f"--max-iters={count}")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "BadSpec"


def test_cantor_oracle_at_huge_scale_is_representable(capsys):
    code, rep, err = run_json(capsys, "oracle", "--cantor", "--t", "1e200")
    assert code == 0 and err == ""
    assert rep["results"]["magnitude"] == pytest.approx(1.8496296876131087e126,
                                                        rel=1e-13)


def test_residual_that_underflows_is_zero(capsys):
    code, rep, _ = run_json(capsys, "oracle", "--residual", "4,1e150")
    assert code == 0
    assert rep["results"]["residual"] == 0.0


@pytest.mark.parametrize("argv, error", [
    (("mag", "--grid", "3xa"), "BadSpec"),
    (("mag", "--graph", "k3,x"), "BadSpec"),
    (("mag", "--spec", '{"kind": "lp_grid", "params": {"shape": "ab"}}'), "BadSpec"),
    (("pixel", "--body-box", "1,x"), "PixelError"),
    (("pixel", "--body-simplex", "0,0;1,0;0,1/0"), "PixelError"),
])
def test_malformed_values_are_typed_input_errors(capsys, argv, error):
    # bare ValueError no longer maps to exit 2, so each parser raises its
    # own type
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("flag", ["--matrix", "--spec"])
def test_undecodable_file_is_bad_input(capsys, tmp_path, flag):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, "mag", flag, str(path))
    assert code == 2
    assert json.loads(err)["error"] == "BadSpec"


@pytest.mark.parametrize("argv", [
    ("mag", "--matrix"), ("mag", "--spec"), ("pixel", "--pixel-file"),
])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_path_is_bad_input(capsys, tmp_path, argv, where):
    path = tmp_path / "absent" if where == "missing" else tmp_path
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    rep = json.loads(err)
    assert rep["error"] == "BadSpec"
    assert str(path) in rep["detail"]


def test_closed_stdout_ends_quietly_with_exit_one():
    # the reader is gone before the command writes, so its output meets
    # EPIPE; that is neither bad input nor worth a second error at exit
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "magnitude", "pixel", "--ascii", "##"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_internal_value_error_is_not_bad_input(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr("magnitude.engine.solve_weighting", broken)
    code, _, err = run(capsys, "mag", "--points-1d", "0,1")
    assert code == 4
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("argv, method", [
    (("diversity", "--graph", "k32", "--t", "0.1"), "frank_wolfe"),
    (("diversity", "--ball", "3,1,300", "--seed", "3", "--t", "4"), "active_set"),
    (("diversity", "--graph", "k32", "--t", "1", "--exact"), "support_enumeration"),
])
def test_diversity_reports_its_method(capsys, argv, method):
    _, rep1, _ = run_json(capsys, *argv)
    _, rep2, _ = run_json(capsys, *argv)
    assert rep1["results"]["method"] == method
    assert _strip_timing(rep1) == _strip_timing(rep2)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_magfn_needs_a_step(capsys, fmt):
    code, out, err = run(capsys, "magfn", "--points-1d", "0,1", "--tmin", "1",
                         "--tmax", "2", "--steps", "0", "--format", fmt)
    assert code == 2
    assert json.loads(err)["error"] == "BadSpec"


def test_singular_condition_estimate_is_null(capsys):
    for cmd, want in [("mag", 3), ("weights", 0)]:
        code, rep, err = run_json(capsys, cmd, "--points-1d", "0,1e-300",
                                  "--t", "1")
        assert code == want
        assert rep["results"]["status"] == "Undefined"
        assert rep["results"]["condition_estimate"] is None
        assert err == ""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# envelope properties


def _strip_timing(report):
    return {k: v for k, v in report.items() if k != "timing_seconds"}


def test_reports_deterministic_modulo_timing(capsys):
    _, rep1, _ = run_json(capsys, "mag", "--graph", "k32", "--t", "2")
    _, rep2, _ = run_json(capsys, "mag", "--graph", "k32", "--t", "2")
    assert _strip_timing(rep1) == _strip_timing(rep2)


def test_seeded_sample_deterministic(capsys):
    args = ("mag", "--ball", "2,1.0,30", "--seed", "9", "--t", "1.5")
    _, rep1, _ = run_json(capsys, *args)
    _, rep2, _ = run_json(capsys, *args)
    assert _strip_timing(rep1) == _strip_timing(rep2)
    assert rep1["results"]["status"] == "UniquePD"


def test_csv_sweep_format(capsys):
    code, out, _ = run(capsys, "magfn", "--points-1d", "0,1,2", "--tmin", "0.5",
                       "--tmax", "2", "--steps", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,magnitude,positive_definite,status"
    assert len(lines) == 5


def test_csv_scalar_format(capsys):
    code, out, _ = run(capsys, "mag", "--points-1d", "0,1", "--t", "1",
                       "--format", "csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert float(rows["magnitude"]) == pytest.approx(1.4621171572600098, abs=1e-12)


def test_stdin_matrix(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0,1\n1,0\n"))
    code, rep, _ = run_json(capsys, "mag", "--stdin-matrix", "--t", "1")
    assert code == 0
    assert rep["results"]["magnitude"] == pytest.approx(1.4621171572600098, abs=1e-12)


def test_weights_command(capsys):
    code, rep, _ = run_json(capsys, "weights", "--points-1d", "0,1", "--t", "2")
    assert code == 0
    w = rep["results"]["weighting"]
    assert w == rep["results"]["coweighting"]
    assert sum(w) == pytest.approx(rep["results"]["magnitude"], abs=1e-12)


def test_check_command_verdicts(capsys):
    code, rep, _ = run_json(capsys, "check", "--graph", "k32", "--t", "0.1")
    assert code == 0
    r = rep["results"]
    assert r["valid"] is True
    assert r["is_positive_definite"] is False
    assert r["negative_type_verdict"] == "CertifiedNot"

    code, rep, _ = run_json(capsys, "check", "--points-1d", "0,0.5,1.7", "--t", "1")
    r = rep["results"]
    assert r["is_positive_definite"] is True
    assert r["negative_type_verdict"] == "CertifiedNegativeType"


def test_check_invalid_matrix_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,5\n5,0\n")  # fine
    code, _, _ = run(capsys, "check", "--matrix", str(bad), "--t", "1")
    assert code == 0
    bad.write_text("0,5,1\n5,0,1\n1,1,0\n")  # 5 > 1 + 1 breaks the triangle
    code, out, _ = run(capsys, "check", "--matrix", str(bad), "--t", "1")
    assert code == 2
    rep = json.loads(out)
    assert rep["results"]["valid"] is False
    assert rep["results"]["error"] == "TriangleViolation"


def test_dim_overresolution_warning(capsys):
    code, rep, err = run_json(capsys, "dim", "--grid", "11", "--tmin", "0.5",
                              "--tmax", "2", "--samples", "6")
    assert code == 0
    assert "window_warning" in rep["results"]
    assert "warning:" in err
    assert rep["results"]["method"] == "diversity_growth"


def test_dim_narrow_window_exits_two(capsys):
    code, _, err = run(capsys, "dim", "--grid", "11", "--tmin", "0.5",
                       "--tmax", "2", "--samples", "4")
    assert code == 2
    assert json.loads(err)["error"] == "WindowTooNarrow"


# ---------------------------------------------------------------------------
# refinement sweeps


def test_approx_grid_family(capsys):
    code, rep, _ = run_json(capsys, "approx", "--grid-sizes", "11,101,1001",
                            "--length", "2.0")
    assert code == 0
    r = rep["results"]
    assert r["nested"] is True
    rows = r["samples"]
    assert [row["level"] for row in rows] == [11, 101, 1001]
    assert rows[1]["magnitude"] == pytest.approx(1 + 100 * math.tanh(0.01),
                                                 abs=1e-9)
    assert rows[0]["delta"] is None
    assert rows[1]["delta"] > 0 and rows[2]["delta"] > 0
    mags = [row["magnitude"] for row in rows]
    assert mags == sorted(mags) and mags[-1] < 2.0


def test_approx_non_divisible_grids_not_nested(capsys):
    code, rep, _ = run_json(capsys, "approx", "--grid-sizes", "11,101,30")
    assert code == 0
    assert rep["results"]["nested"] is False


def test_approx_cantor_family_csv(capsys):
    code, out, _ = run(capsys, "approx", "--cantor-depths", "1,2,3,4",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,n_points,magnitude,status,delta"
    assert len(lines) == 5
    mags = [float(line.split(",")[2]) for line in lines[1:]]
    assert mags == sorted(mags)
    assert mags[-1] < 1.4983504315884848  # below the series oracle


def test_approx_ball_family_bounded_by_closed_form(capsys):
    code, rep, _ = run_json(capsys, "approx", "--ball-counts", "40,80",
                            "--ball", "3,1", "--seed", "11")
    assert code == 0
    rows = rep["results"]["samples"]
    assert all(row["magnitude"] <= 25 / 6 + 1e-9 for row in rows)
    assert rows[1]["magnitude"] >= rows[0]["magnitude"] - 1e-9


def test_approx_input_errors(capsys):
    code, _, err = run(capsys, "approx")
    assert code == 2
    code, _, err = run(capsys, "approx", "--ball-counts", "10,20", "--ball", "3,1")
    assert code == 2
    assert "seed" in json.loads(err)["detail"]
    code, _, _ = run(capsys, "approx", "--grid-sizes", "1,5")
    assert code == 2


def test_oracle_conjecture_reports_triple(capsys):
    code, rep, _ = run_json(capsys, "oracle", "--conjecture", "3,1")
    assert code == 0
    r = rep["results"]
    assert r["exact"] == pytest.approx(25 / 6, abs=1e-12)
    assert r["conjectured"] == pytest.approx(25 / 6, abs=1e-9)
    assert abs(r["difference"]) <= 1e-12


# ---------------------------------------------------------------------------
# pixel modes


def test_pixel_convexity_modes(capsys):
    code, rep, _ = run_json(capsys, "pixel", "--ascii", r"##\n#.",
                            "--convexity")
    assert code == 0
    assert rep["results"] == {"l1_convex": True, "witness": None}

    code, rep, _ = run_json(capsys, "pixel", "--ascii", "#.#", "--convexity")
    assert code == 0
    assert rep["results"]["l1_convex"] is False
    assert rep["results"]["witness"] == [[0, 0], [2, 0]]


def test_pixel_convexity_witness_in_three_dimensions(capsys, tmp_path):
    cube = set(itertools.product(range(3), repeat=3))
    cells = sorted(cube - {(1, 1, 1)})
    path = tmp_path / "holed.pix"
    path.write_text("dim 3 scale 1/1\n" + "".join(
        " ".join(map(str, c)) + "\n" for c in cells))
    code, rep, _ = run_json(capsys, "pixel", "--pixel-file", str(path),
                            "--convexity")
    assert code == 0
    pair = staircase_witness(PixelSet(3, 1, cells))
    assert rep["results"] == {"l1_convex": False,
                              "witness": [list(c) for c in pair]}


def test_pixel_weights_mode(capsys):
    code, rep, _ = run_json(capsys, "pixel", "--ascii", r"##\n#.", "--weights")
    assert code == 0
    assert rep["results"]["total_mass"] == "15/4"
    assert rep["results"]["l1_convex"] is True


def test_pixel_weights_of_a_cube_file(capsys, tmp_path):
    path = tmp_path / "cube.pix"
    path.write_text("dim 3 scale 1/1\n" + "".join(
        " ".join(map(str, c)) + "\n" for c in itertools.product(range(4), repeat=3)))
    code, rep, _ = run_json(capsys, "pixel", "--pixel-file", str(path),
                            "--weights")
    assert code == 0
    # the product of three 4-interval measures: per axis the two end atoms
    # or one of the 4 cells carry mass, so (4 + 2)^3 faces and total
    # (1 + 4/2)^3 = 27, with mass C(3, d) 2^d in dimension d
    assert rep["results"] == {
        "faces": 6**3, "l1_convex": True,
        "mass_by_dimension": {"0": "1", "1": "6", "2": "12", "3": "8"},
        "total_mass": "27"}


@pytest.mark.parametrize("flag", ["--body-simplex=;", "--body-vertices=;"])
def test_pixel_body_without_vertices_exits_two(capsys, flag):
    code, out, err = run(capsys, "pixel", flag, "--bounds")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "BadSpec"


@pytest.mark.parametrize("argv", [
    ("pixel", "--ascii", "#"),
    ("pixel", "--body-box", "1,1", "--bounds"),
    ("pixel", "--ascii", "#", "--weights"),
    ("pixel", "--ascii", "#", "--convexity"),
])
@pytest.mark.parametrize("t", ["0", "-1"])
def test_pixel_nonpositive_t_exits_two(capsys, argv, t):
    code, out, err = run(capsys, *argv, f"--t={t}")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "NonpositiveScale"


BOX_2X3X4 = "dim 3 scale 1/1\n" + "".join(
    f"{x} {y} {z}\n" for x in range(2) for y in range(3) for z in range(4))

# (argv, inputs_digest, results) of the exact pixel paths on the shapes the
# diversity-pixel benchmark draws, as written before the per-body
# elimination, the linear-time convexity test and the grouped dilation
# masks; "BOX" stands for a pixel file holding BOX_2X3X4
PIXEL_GOLDEN = [
    (["--ascii", "\\n".join(["#" * 19] * 21), "--intrinsic"],
     "03e38f50f43d422a174a195a0b36b1e29ab20333afac119addc36ee66abb48d8",
     {"V": ["1", "40", "399"], "magnitude": "483/4"}),
    (["--ascii", r"##...\n##...\n###..\n####.\n####.\n#####\n#####\n#####",
      "--intrinsic"],
     "6fd7925942898dbc17e7195c59ffc07165fddc84e61a1f5a965fbe764e9bccfe",
     {"V": ["1", "13", "30"], "magnitude": "15"}),
    (["--ascii", r"....#\n#####\n#####\n#####", "--intrinsic"],
     "6e238f5e8dfac83c582b125248734bfba865b3d93d5a0549e63e7982b4ca4b6c",
     {"V": ["1", "9", "16"], "magnitude": "19/2"}),
    (["--ascii", r"##########\n....######\n.....#####\n.......###\n........##",
      "--weights"],
     "6b9ef0e853aabcd315734882682769219f125894867d2135654724fd7b2adaf8",
     {"faces": 68, "l1_convex": True, "total_mass": "15",
      "mass_by_dimension": {"0": "1", "1": "15/2", "2": "13/2"}}),
    (["--ascii", r"######\n#....#\n#....#", "--convexity"],
     "100083484c31928727e2d24f49892e8d62c006d5cfc6c63f6164fc08beb13cae",
     {"l1_convex": False, "witness": [[0, 0], [5, 0]]}),
    (["--pixel-file", "BOX", "--intrinsic"],
     "e4b928fb132160bf74dbf81c955ba388315ff87978e5764f78cbba33d0bb36d1",
     {"V": ["1", "9", "26", "24"], "magnitude": "15"}),
    (["--body-box", "1,1,2", "--scale", "1/4", "--bounds"],
     "c120bf5692331b6286048a1570e14be25f1593f9e51d583d8af10bc6be5f3c1f",
     {"V": ["1", "4", "5", "2"], "alpha": "1", "lower": 4.5,
      "pixelation_cells": 128, "t": 1.0, "upper": 4.5}),
    (["--body-box", "2,1,1", "--scale", "1/4", "--bounds"],
     "20541966bc1cfe95f74f6eb7fa1d2ba174023294a12b4427d9224c1f2e511870",
     {"V": ["1", "4", "5", "2"], "alpha": "1", "lower": 4.5,
      "pixelation_cells": 128, "t": 1.0, "upper": 4.5}),
    (["--body-simplex=-1,0;0,0;-1,1", "--scale", "1/40", "--bounds"],
     "4e086fc1c3077c92612d8771a6787c06d4aa7a926324dc06a555be8723317fb5",
     {"V": ["1", "2", "41/80"], "alpha": "40/43", "lower": 2.041103299080584,
      "pixelation_cells": 820, "t": 1.0, "upper": 2.128125}),
    (["--body-simplex=0,0;0,1;1,0", "--scale", "1/40", "--bounds"],
     "d6edda49c01edbd91af4b6ac6da23d807f2fd5dd9e2eb405894482d799196a6f",
     {"V": ["1", "2", "41/80"], "alpha": "40/43", "lower": 2.041103299080584,
      "pixelation_cells": 820, "t": 1.0, "upper": 2.128125}),
    (["--body-simplex=0,0,2;-1,1,2;-1,0,2;-1,0,3", "--scale", "1/8", "--bounds"],
     "3c941aea40256d7d44f152aedeaabdd36f24a34f89db92b17d708854d01e09d9",
     {"V": ["1", "3", "27/16", "15/64"], "alpha": "1/2",
      "lower": 1.859130859375, "pixelation_cells": 120, "t": 1.0,
      "upper": 2.951171875}),
    (["--body-simplex=0,0,-1;0,0,0;1,0,-1;0,1,-1", "--scale", "1/8", "--bounds"],
     "73b4a6ab3346922e92b7a664e9a34c0576a18595ebaea3fc2b6ba51261d480f0",
     {"V": ["1", "3", "27/16", "15/64"], "alpha": "1/2",
      "lower": 1.859130859375, "pixelation_cells": 120, "t": 1.0,
      "upper": 2.951171875}),
]


@pytest.mark.parametrize("argv, digest, results", PIXEL_GOLDEN)
def test_pixel_outputs_on_benchmark_shapes_are_pinned(capsys, tmp_path, argv,
                                                      digest, results):
    box = tmp_path / "box.pix"
    box.write_text(BOX_2X3X4)
    argv = [str(box) if a == "BOX" else a for a in argv]
    code, rep, _ = run_json(capsys, "pixel", *argv)
    assert code == 0
    assert rep["inputs_digest"] == digest
    assert rep["results"] == results


def test_pixel_mode_conflicts(capsys):
    code, _, err = run(capsys, "pixel", "--ascii", "##", "--weights",
                       "--convexity")
    assert code == 2
    code, _, _ = run(capsys, "pixel", "--bounds")
    assert code == 2


# ---------------------------------------------------------------------------
# flag values, finite or not, never yield invalid JSON or stray warnings


FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "NaN", "inf", "-Infinity", "1e999", "-1e999",
                     "5e-324", "1e-300", "1e300", "1e308", "1.5e308",
                     "0", "-0.0"]),
)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the flag
                code = exc.code
    return code, out.getvalue(), err.getvalue(), caught


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from([
        ["mag", "--points-1d", "0,1,3"],
        ["weights", "--graph", "k32"],
        ["diversity", "--points-1d", "0,1,3", "--max-iters", "300"],
        ["oracle", "--interval", "0,4"],
        ["oracle", "--points", "0,1,3"],
        ["oracle", "--compact", "0,1;2,3"],
    ]),
    t=FLOAT_TEXT,
    tol=FLOAT_TEXT,
)
def test_scale_and_tolerance_flags_property(command, t, tol):
    argv = command + ["--t", t] + ([] if command[0] == "oracle" else ["--tol", tol])
    code, out, err, caught = _call(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if out:
        strict_loads(out)
    if code != 2:
        assert out, argv
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert "Warning" not in err, argv


@settings(max_examples=150, deadline=None)
@given(tmin=FLOAT_TEXT, tmax=FLOAT_TEXT,
       steps=st.one_of(st.integers(-3, 40).map(str),
                       st.sampled_from(["0", "-0", "1.5", "nan"])),
       log=st.booleans())
def test_sweep_flags_property(tmin, tmax, steps, log):
    argv = ["magfn", "--points-1d", "0,1,3", "--tmin", tmin, "--tmax", tmax,
            "--steps", steps] + (["--log"] if log else [])
    code, out, err, caught = _call(argv)
    assert code in (0, 2), (argv, code, err)
    if code == 0:
        samples = strict_loads(out)["results"]["samples"]
        assert len(samples) == int(steps) >= 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert "Warning" not in err, argv
