"""Command-line surface: envelopes, exit codes, pinned examples."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import magnitude
from magnitude import cli
from magnitude.pixels import PixelSet
from magnitude.specs import SpaceSpec
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


def assert_bad_spec(code, out, err):
    """Exit 2, nothing on stdout, one BadSpec JSON line on stderr."""
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert json.loads(lines[0])["error"] == "BadSpec"


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


@pytest.mark.parametrize("n, exact", [(7, "5823701/609840"),
                                      (9, "193155802111/15023594880")])
def test_ball_oracle_past_five_dimensions(capsys, n, exact):
    code, rep, _ = run_json(capsys, "oracle", "--ball", f"{n},1")
    assert code == 0
    assert rep["results"]["magnitude_exact"] == exact
    assert rep["results"]["magnitude"] == float(Fraction(exact))


@pytest.mark.parametrize("n", ["2", "8", "17", "-1"])
def test_ball_oracle_refuses_even_and_large_dimensions(capsys, n):
    code, out, err = run(capsys, "oracle", f"--ball={n},1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UnsupportedDimension"


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
    assert rep["results"]["length"] == 1.0
    code, rep, _ = run_json(capsys, "oracle", "--cantor", "--t", "1",
                            "--length", "3")
    assert code == 0 and rep["results"]["length"] == 3.0


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
        {"space": {"kind": "graph_shortest_path",
                   "params": {"name": "k1", "edges": None, "n_vertices": None}},
         "t": 2.0})
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


# two points 1e-300 apart, as a matrix: its Z is all ones in floats,
# exactly singular (the line rung solves them as points_1d)
SINGULAR = ('{"kind": "explicit_matrix", "params": {"matrix": '
            '[[0, 1e-300], [1e-300, 0]]}}')


@pytest.mark.parametrize("argv, exit_code", [
    (("mag", "--graph", "k32", "--t", repr(0.5 * math.log(2))), 3),
    (("mag", "--graph", "k32", "--t", repr(math.nextafter(0.5 * math.log(2), 1.0))), 3),
    (("mag", "--spec", SINGULAR), 3),
    (("weights", "--spec", SINGULAR), 0),
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

    code, _, err = run(capsys, "oracle", "--ball", "2,1")
    assert code == 2
    assert json.loads(err)["error"] == "UnsupportedDimension"

    code, _, err = run(capsys, "pixel", "--ascii", "#?#")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("mag", "--points-1d", "0,1", "--t", "inf"),
    ("diversity", "--points-1d", "0,1", "--tol", "nan"),
    ("mag", "--points-1d", "0,1", "--t", "1e999"),
    ("diversity", "--points-1d", "0,1,2", "--t", "inf"),
    ("magfn", "--points-1d", "0,1", "--tmin", "1", "--tmax", "inf"),
    ("dim", "--grid", "11", "--tmin", "-inf", "--tmax", "2"),
    ("approx", "--grid-sizes", "11,21", "--length", "nan"),
    ("oracle", "--interval", "0,2", "--t", "-inf"),
])
def test_non_finite_flag_exits_two(capsys, argv):
    assert_bad_spec(*run(capsys, *argv))


@pytest.mark.parametrize("argv", [
    ("frob", "--points-1d", "0,1"),  # unknown command
    (),  # no command
    ("mag", "--points-1d"),  # missing value
    ("mag", "--points-1d", "0,1", "--frob", "1"),  # unknown flag
    ("mag", "--points-1d", "0,1", "--format", "xml"),
    ("mag", "--points-1d", "0,1", "--t", "nan"),
    ("magfn", "--points-1d", "0,1", "--tmin", "1", "--tmax", "2",
     "--steps", "0"),
    ("magfn", "--points-1d", "0,1", "--tmin", "1", "--tmax", "2",
     "--steps", "1.5"),
    ("mag", "--t", "1"),  # no source
    ("mag", "--points-1d", "0,1", "--graph", "c5"),  # two sources
    ("oracle", "--t", "1"),
    ("oracle", "--ball", "3,1", "--cantor"),
    ("approx", "--grid-sizes", "3,5", "--cantor-depths", "1,2"),
    ("pixel", "--ascii", "##", "--pixel-file", "x.pix"),
    ("pixel", "--body-box", "1,1", "--body-simplex=0,0;1,0;0,1"),
    # art and a body: the art was once ignored for the body's bounds
    ("pixel", "--ascii", "##", "--body-box", "1,1"),
    # --tol where nothing reads it: the dense solve refines to its own
    # rounding floor
    ("mag", "--points-1d", "0,1", "--tol", "1e-9"),
    ("magfn", "--points-1d", "0,1", "--tmin", "1", "--tmax", "2",
     "--tol", "1e-9"),
    ("weights", "--points-1d", "0,1", "--tol", "1e-9"),
    ("approx", "--grid-sizes", "3,5", "--tol", "1e-9"),
    ("check", "--points-1d", "0,1", "--tol", "1e-9"),
    ("pixel", "--ascii", "##", "--tol", "1e-9"),
    ("oracle", "--interval", "0,2", "--tol", "1e-9"),
    # a gap target <= 0 can never be met
    ("diversity", "--points-1d", "0,1,3", "--tol", "-1"),
    ("diversity", "--points-1d", "0,1,3", "--tol", "0"),
    ("dim", "--grid", "50", "--tmin", "1", "--tmax", "10", "--tol", "-1"),
    # --exact runs no active set, which alone reads --tol; --max-iters is
    # no flag at all
    ("diversity", "--graph", "k32", "--exact", "--tol", "1e-3", "--t", "0.5"),
    ("diversity", "--graph", "k32", "--exact", "--max-iters", "5", "--t",
     "0.5"),
    # --length is the Cantor set's alone
    ("oracle", "--points", "0,1", "--length", "5"),
    ("oracle", "--ball", "3,1", "--length", "5"),
    # a sweep takes at most cli.SCALE_LIMIT scales; 10^9 once asked
    # linspace for 7.45 GiB
    ("magfn", "--graph", "k32", "--tmin", "1", "--tmax", "2",
     "--steps", "1000000000"),
    ("dim", "--grid", "3", "--tmin", "1", "--tmax", "2", "--samples", "1025"),
])
def test_parse_failures_are_typed_input_errors(capsys, argv):
    assert_bad_spec(*run(capsys, *argv))


@pytest.mark.parametrize("argv", [
    ("mag", "--ball", "3.5,1,5", "--seed", "1"),
    ("mag", "--ball", "3,1,2.5", "--seed", "1"),
    ("oracle", "--leading", "2.5,2"),
    ("oracle", "--ball", "3.5,1"),
    ("approx", "--ball", "2.5,1", "--ball-counts", "3,5", "--seed", "1"),
    # the generators refuse one in a spec before building anything
    ("mag", "--spec", '{"kind": "lp_grid", "params": {"shape": [2.5, 2]}}'),
    ("mag", "--spec", '{"kind": "graph_shortest_path", '
                      '"params": {"edges": [[0, 1.5], [1, 2]]}}'),
    ("mag", "--spec", '{"kind": "graph_shortest_path", '
                      '"params": {"edges": [[0, 1]], "n_vertices": 2.5}}'),
    ("mag", "--spec", '{"kind": "cantor_endpoints", "params": {"depth": 1.5}}'),
    ("mag", "--spec", '{"kind": "ball_sample", "seed": 1, '
                      '"params": {"n": 2, "radius": 1.0, "count": 3.5}}'),
    ("mag", "--spec", '{"kind": "ball_sample", "seed": 1, '
                      '"params": {"n": 2.5, "radius": 1.0, "count": 3}}'),
    ("mag", "--spec", '{"kind": "ball_sample", "seed": 1.5, '
                      '"params": {"n": 2, "radius": 1.0, "count": 3}}'),
    # a JSON boolean is no count, though bool subclasses int
    ("mag", "--spec", '{"kind": "ball_sample", "params": {"n": 2, '
                      '"radius": 1, "count": true}, "seed": true}'),
    ("mag", "--spec", '{"kind": "lp_grid", "params": {"shape": [true, 3]}}'),
])
def test_non_integer_counts_exit_two(capsys, argv):
    # a count-like entry is refused, not truncated to an integer
    assert_bad_spec(*run(capsys, *argv))


@pytest.mark.parametrize("argv", [
    ("mag", "--grid", "3x2", "--seed", "4"),
    ("mag", "--points-1d", "0,1", "--p", "1"),
    ("mag", "--ball", "3,1,5", "--seed", "1", "--spacing", "7"),
    ("mag", "--graph", "k3", "--p", "1"),
    ("mag", "--cantor-depth", "2", "--spacing", "2"),
    ("mag", "--grid", "3", "--length", "2"),
    ("mag", "--spec", '{"kind": "lp_grid", "params": {"shape": [3]}}',
     "--p", "1", "--spacing", "2"),
    ("mag", "--spec", '{"kind": "lp_grid", "params": {"shape": [3]}}',
     "--seed", "1"),
    ("mag", "--spec", '{"kind": "cantor_endpoints", "params": {"depth": 2}}',
     "--length", "2"),
    ("mag", "--stdin-matrix", "--p", "1"),
    ("approx", "--grid-sizes", "3,5", "--seed", "3", "--p", "1"),
    ("approx", "--grid-sizes", "3,5", "--ball", "3,1"),
    ("approx", "--cantor-depths", "1,2", "--seed", "3"),
    ("approx", "--ball", "3,1", "--ball-counts", "5", "--seed", "1",
     "--length", "2"),
])
def test_unread_space_flags_exit_two(capsys, argv):
    # each flag was once ignored with exit 0
    assert_bad_spec(*run(capsys, *argv))


@pytest.mark.parametrize("spec", [
    '{"kind": "lp_grid", "params": {"shape": [3], "spacng": 5}}',
    '{"kind": "lp_grid", "params": {"shape": [3], "p": true}}',
    '{"kind": "points_1d", "params": {"coordinates": [0, true]}}',
    '{"kind": "lp_grid", "params": {"shape": [3]}, "colour": "red"}',
    '{"kind": "lp_grid", "params": {"shape": [3]}, "seed": 4}',
    '{"kind": "graph_shortest_path", "params": {"name": "k3", "edges": [[0, 1]]}}',
    '{"kind": "graph_shortest_path", '
    '"params": {"edges": [[0, 1]], "n": 2, "n_vertices": 3}}',
    '{"kind": "ball_sample", "params": {"n": 2, "radius": 1, "count": 3}}',
])
def test_spec_parameters_meet_the_kinds_table(capsys, spec):
    # each once ran with the key ignored, a default, or the boolean as 1
    assert_bad_spec(*run(capsys, "mag", "--spec", spec))


@pytest.mark.parametrize("spellings", [
    (("--grid", "3x2"),
     ("--spec", '{"kind": "lp_grid", "params": {"shape": [3, 2]}}'),
     ("--spec", '{"kind": "lp_grid", "params": {"shape": [3, 2], "p": 2}}'),
     ("--grid", "3x2", "--p", "2", "--spacing", "1")),
    (("--graph", "k1"),
     ("--spec", '{"kind": "graph_shortest_path", "params": {"name": "k1"}}')),
    (("--ball", "3,1,5", "--seed", "2"),
     ("--spec", '{"kind": "ball_sample", "seed": 2.0, '
                '"params": {"n": 3, "radius": 1, "count": 5, "p": 2}}')),
    (("--cantor-depth", "2"), ("--cantor-depth", "2", "--length", "1.0"),
     ("--spec", '{"kind": "cantor_endpoints", "params": {"depth": 2}}')),
])
def test_one_space_one_digest(capsys, spellings):
    digests = set()
    for source in spellings:
        code, rep, _ = run_json(capsys, "mag", *source)
        assert code == 0
        digests.add(rep["inputs_digest"])
    assert len(digests) == 1


def test_approx_digest_is_the_effective_family(capsys):
    _, a, _ = run_json(capsys, "approx", "--cantor-depths", "1,2")
    _, b, _ = run_json(capsys, "approx", "--cantor-depths", "1,2",
                       "--length", "1")
    assert a["inputs_digest"] == b["inputs_digest"]


def test_error_inside_a_builder_is_internal(capsys, monkeypatch):
    # the parameters passed the KINDS table, so a TypeError past it is a
    # bug, not bad input
    def broken(*args):
        raise TypeError("internal")

    monkeypatch.setattr("magnitude.spaces._lp_rows", broken)
    code, out, err = run(capsys, "mag", "--grid", "3x2")
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"] == "TypeError"


def test_integral_spec_seed_is_the_flag_seed(capsys):
    # "seed": 2.0 names seed 2, as "seed": 2 and --seed 2 do
    spec = ('{"kind": "ball_sample", "seed": %s, '
            '"params": {"n": 3, "radius": 1.0, "count": 5}}')
    _, rep, _ = run_json(capsys, "weights", "--ball", "3,1,5", "--seed", "2")
    want = rep["results"]["weighting"]
    for seed in ("2", "2.0"):
        code, rep, _ = run_json(capsys, "weights", "--spec", spec % seed)
        assert code == 0
        assert rep["results"]["weighting"] == want


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_empty_refinement_family_exits_two(capsys, fmt):
    assert_bad_spec(*run(capsys, "approx", "--grid-sizes", ",", "--format", fmt))


@pytest.mark.parametrize("argv", [
    ("mag", "--grid", "100000"),
    ("mag", "--grid", "100x100"),
    ("mag", "--cantor-depth", "18"),
    ("mag", "--cantor-depth", "1000000000000"),
    ("approx", "--cantor-depths", "40"),
    ("approx", "--grid-sizes", "100000"),
    ("mag", "--ball", "2,1,100000", "--seed", "1"),
    ("approx", "--ball", "2,1", "--ball-counts", "100000", "--seed", "1"),
    ("mag", "--graph", "k100000"),
    ("mag", "--graph", "k5000,5000"),
    ("mag", "--graph", "c100000"),
    ("mag", "--graph", "p100000"),
    ("mag", "--points-1d", ",".join(str(i) for i in range(9000))),
    ("mag", "--spec", '{"kind": "graph_shortest_path", "params": '
                      '{"edges": [[0, 1]], "n_vertices": 100000}}'),
])
def test_oversized_spaces_exit_two(capsys, argv):
    # refused before anything of the size is built
    code, out, err = run(capsys, *argv)
    assert_bad_spec(code, out, err)
    assert "over the limit" in json.loads(err)["detail"]


@pytest.mark.parametrize("argv", [
    (), ("mag",), ("magfn",), ("weights",), ("check",), ("diversity",),
    ("dim",), ("pixel",), ("oracle",), ("approx",),
])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: magnitude")
    assert err == ""


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
    # --max-iters is no flag: any count is bad input
    code, out, err = run(capsys, *argv, f"--max-iters={count}")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "BadSpec"


@pytest.mark.parametrize("argv", [
    ("diversity", "--graph", "k6,6", "--t", "0.5"),
    ("dim", "--graph", "c6", "--tmin", "1", "--tmax", "4"),
])
def test_max_iters_is_no_flag(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-iters", "300")
    assert code == 2
    assert out == ""
    assert "--max-iters" in json.loads(err)["detail"]


def test_cantor_oracle_at_huge_scale_is_representable(capsys):
    code, rep, err = run_json(capsys, "oracle", "--cantor", "--t", "1e200")
    assert code == 0 and err == ""
    assert rep["results"]["magnitude"] == pytest.approx(1.8496296876131087e126,
                                                        rel=1e-13)


def test_residual_that_underflows_is_zero(capsys):
    # e^(-pi R) underflows: --sphere prints the residual formed in logs,
    # beside a magnitude that must stay finite (at R = 1e150 it overflows)
    code, rep, _ = run_json(capsys, "oracle", "--sphere", "4,1e50")
    assert code == 0
    assert rep["results"]["residual"] == 0.0
    code, _, err = run(capsys, "oracle", "--sphere", "4,1e150")
    assert code == 2 and json.loads(err)["error"] == "ResultOverflow"


@pytest.mark.parametrize("argv, error", [
    (("mag", "--grid", "3xa"), "BadSpec"),
    (("mag", "--graph", "k3,x"), "BadSpec"),
    (("mag", "--spec", '{"kind": "lp_grid", "params": {"shape": "ab"}}'), "BadSpec"),
    (("pixel", "--body-box", "1,x"), "PixelError"),
    (("pixel", "--body-simplex", "0,0;1,0;0,1/0"), "PixelError"),
    (("oracle", "--interval", "1"), "BadSpec"),
    (("oracle", "--interval", "0,1,2"), "BadSpec"),
    (("mag", "--spec", '{"kind": "graph_shortest_path", "params": {"name": 5}}'),
     "BadSpec"),
    (("mag", "--graph", "k\u00b2"), "BadSpec"),
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


# ---------------------------------------------------------------------------
# every exit path of the process entry (cli.run ends with os._exit)


def _process(*argv, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "magnitude", *argv],
                          capture_output=True, env=env, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("argv", [
    ("pixel", "--body-box", "9e15"),
    ("pixel", "--body-box", "3,3", "--scale", "1/2000"),
    ("pixel", "--body-box", "0.5", "--scale", "1e-320"),
])
def test_pixelation_over_the_cell_limit_exits_two_in_time(argv):
    # refused before a cell is built; with no limit these calls ran past
    # 15 s, or out of memory under a 3 GB cap (exit 4, and exit 120 with
    # a traceback on stderr), so a separate process meets the deadline
    proc = _process(*argv, timeout=2)
    assert proc.returncode == 2
    assert proc.stdout == ""
    report = strict_loads(proc.stderr)
    assert report["error"] == "BadSpec"
    assert "262,144 cells" in report["detail"]


def test_process_output_beyond_a_pipe_buffer_arrives_whole():
    proc = _process("weights", "--grid", "3000", "--spacing", "0.001",
                    "--t", "1")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert len(proc.stdout) > 64 * 1024
    assert len(strict_loads(proc.stdout)["results"]["weighting"]) == 3000


def test_process_exits_three_at_the_pole_after_the_full_report():
    proc = _process("mag", "--graph", "k3,2", "--t", "0.3465735902799727")
    assert proc.returncode == 3
    assert proc.stderr == ""
    rep = strict_loads(proc.stdout)
    assert set(rep) == ENVELOPE_KEYS
    assert rep["results"]["status"] == "Undefined"


def test_process_exits_two_on_bad_input():
    proc = _process("oracle", "--ball", "3.5,1")
    assert_bad_spec(proc.returncode, proc.stdout, proc.stderr)


def test_process_version_exits_zero():
    proc = _process("--version")
    assert proc.returncode == 0
    assert proc.stdout == magnitude.__version__ + "\n"
    assert proc.stderr == ""


def test_internal_value_error_is_not_bad_input(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr("magnitude.engine.solve_weighting", broken)
    code, _, err = run(capsys, "mag", "--graph", "k3")
    assert code == 4
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("argv, method", [
    (("diversity", "--graph", "k6,6", "--t", "0.5"), "active_set"),
    (("diversity", "--ball", "3,1,300", "--seed", "3", "--t", "4"), "active_set"),
    (("diversity", "--graph", "k32", "--t", "1", "--exact"), "support_enumeration"),
    (("diversity", "--graph", "k32", "--t", "0.1"), "support_enumeration"),
])
def test_diversity_reports_its_method(capsys, argv, method):
    _, rep1, _ = run_json(capsys, *argv)
    _, rep2, _ = run_json(capsys, *argv)
    assert rep1["results"]["method"] == method
    # only the answer on a Z that Cholesky rejects (K_{6,6} at 0.5) is no
    # more than stationary
    assert rep1["results"]["certificate"] == (
        "stationary" if "k6,6" in argv else "global")
    assert _strip_timing(rep1) == _strip_timing(rep2)


EDGE_LIST = json.dumps({"kind": "graph_shortest_path",
                        "params": {"edges": [[0, 1], [1, 2], [2, 3], [3, 0],
                                             [0, 2]], "n_vertices": 4}})


@pytest.mark.parametrize("argv", [
    ("--graph", "k32"),
    ("--graph", "k32", "--t", "0.34657359027997264"),
    ("--graph", "c5", "--t", "1.7"),
    ("--graph", "k3,3", "--t", "0.5"),
    ("--graph", "k3,3", "--t", "0.3", "--exact"),
    ("--graph", "k5,5", "--t", "0.5"),
    ("--graph", "k7,8", "--t", "0.3", "--exact"),
    ("--graph", "k4,4", "--t", "1", "--format", "csv"),
    ("--graph", "k4,4", "--exact", "--format", "csv"),
    ("--spec", EDGE_LIST, "--t", "0.2"),
    ("--spec", '{"kind": "graph_shortest_path", "params": {"edges": '
               '[[0, 1], [2, 3]]}}'),
    ("--spec", '{"kind": "graph_shortest_path", "params": {"edges": '
               '[[0, 1]], "n_vertices": 3}}'),
    ("--spec", '{"kind": "graph_shortest_path", "params": {"edges": '
               '[[1, 1]]}}'),
    ("--graph", "k0,2"), ("--graph", "q3"), ("--graph", "c2"),
    ("--graph", "k32", "--t", "0"),
])
def test_small_graph_diversity_is_the_numpy_routes(capsys, monkeypatch, argv):
    # a graph within the limits is solved from specs.graph_rows without
    # numpy; the built space, held d, gives the same report, error or csv
    # rows
    code, out, err = run(capsys, "diversity", *argv)
    read = cli._space_inputs

    def built(args):
        space, inputs = read(args)
        return space.metric().structure, inputs

    monkeypatch.setattr(cli, "_space_inputs", built)
    want = run(capsys, "diversity", *argv)
    if code == 0 and "csv" not in argv:
        assert _strip_timing(json.loads(out)) == _strip_timing(
            json.loads(want[1]))
        assert json.loads(out)["results"]["certificate"] == "global"
    else:
        assert (code, out, err) == want


@pytest.mark.parametrize("name, t, value", [
    ("k3,3", 0.5, 1.7283506542974874),
    ("k3,3", 0.3, 1.4301900821641191),
    ("k4,4", 1.0, 2.8449383769103753),
    ("k5,5", 0.5, 2.023048375958448),
])
def test_bipartite_diversity_is_certified_global(capsys, name, t, value):
    # these Z are not positive semidefinite, and the uniform distribution
    # is a saddle of each (1.6876 for K_{3,3} at t = 0.5); the search finds
    # the maximum. The values are --exact's at the parent of the search,
    # to rounding
    code, rep, _ = run_json(capsys, "diversity", "--graph", name, "--t", str(t))
    assert code == 0
    r = rep["results"]
    assert (r["method"], r["certificate"]) == ("support_enumeration", "global")
    assert r["value"] == pytest.approx(value, rel=2e-15)


@pytest.mark.parametrize("a, t", [(6, 0.5), (10, 0.5), (20, 1.0)])
def test_bipartite_closed_form_is_the_active_set(capsys, a, t):
    # above the search limit, where Cholesky rejects Z, the uniform
    # distribution is a saddle (1.8523, 1.9275 and 3.6600 here); the
    # active set finds one part, a / (1 + (a - 1) q^2) with q = e^-t
    code, rep, _ = run_json(capsys, "diversity", "--graph", f"k{a},{a}",
                            "--t", str(t))
    assert code == 0
    r = rep["results"]
    assert (r["method"], r["certificate"]) == ("active_set", "stationary")
    q = math.exp(-t)
    assert r["value"] == pytest.approx(a / (1 + (a - 1) * q * q), rel=1e-14)
    assert len(r["support"]) == a and r["kkt_gap"] <= 1e-9


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_magfn_needs_a_step(capsys, fmt):
    code, out, err = run(capsys, "magfn", "--points-1d", "0,1", "--tmin", "1",
                         "--tmax", "2", "--steps", "0", "--format", fmt)
    assert code == 2
    assert json.loads(err)["error"] == "BadSpec"


def test_singular_condition_estimate_is_null(capsys):
    for cmd, want in [("mag", 3), ("weights", 0)]:
        code, rep, err = run_json(capsys, cmd, "--spec", SINGULAR, "--t", "1")
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


@pytest.mark.parametrize("argv, key", [
    (("mag", "--points-1d", "0,1e-310,1"), "condition_estimate"),
    (("dim", "--grid", "11", "--tmin", "0.5", "--tmax", "2", "--samples", "6",
      "--method", "covering_growth"), "certificate"),
], ids=["condition", "certificate"])
def test_csv_null_scalar_is_an_empty_field(capsys, argv, key):
    # JSON writes these as null; a CSV row leaves the field empty, as a
    # sweep row does
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert f"{key},\n" in out
    assert "None" not in out


@pytest.mark.parametrize("argv, keys", [
    (("mag", "--points-1d", "0,1,3"),
     "t magnitude status condition_estimate residual n_points"),
    (("weights", "--points-1d", "0,1,3"),
     "t status magnitude condition_estimate residual weighting coweighting"),
    (("check", "--points-1d", "0,1,3"),
     "valid n_points t is_positive_definite negative_type_verdict "
     "cnd_max_eigenvalue negative_type_proof scattered_bound_holds"),
    (("diversity", "--points-1d", "0,1,3"),
     "t method value support kkt_gap iterations certificate"),
    (("diversity", "--points-1d", "0,1,3", "--exact"),
     "t method value support kkt_gap supports_checked certificate"),
    (("dim", "--grid", "11", "--tmin", "0.5", "--tmax", "2", "--samples", "6"),
     "slope window fit_residual method certificate samples window_warning"),
    (("approx", "--grid-sizes", "3,5"),
     "level n_points magnitude status delta"),
    (("pixel", "--ascii", r"###\n#.#\n###", "--intrinsic", "--t", "2"),
     "V magnitude l1_convex note magnitude_at_t"),
    (("pixel", "--ascii", "##", "--weights"),
     "total_mass mass_by_dimension.0 mass_by_dimension.1 "
     "mass_by_dimension.2 faces l1_convex"),
    (("pixel", "--body-box", "1,2", "--bounds"),
     "lower upper alpha pixelation_cells V t"),
], ids=["mag", "weights", "check", "diversity", "diversity-exact", "dim",
        "approx", "pixel-intrinsic", "pixel-weights", "pixel-bounds"])
def test_csv_key_column(capsys, argv, keys):
    # the rows of --format csv keep the order the results are built in; a
    # sweep prints its keys as a header row
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    got = (lines[0].split(",") if argv[0] == "approx"
           else [line.split(",", 1)[0] for line in lines])
    assert got == keys.split()


def test_stdin_matrix(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0,1\n1,0\n"))
    code, rep, _ = run_json(capsys, "mag", "--stdin-matrix", "--t", "1")
    assert code == 0
    assert rep["results"]["magnitude"] == pytest.approx(1.4621171572600098, abs=1e-12)


@pytest.mark.parametrize("command", ["mag", "check"])
def test_stdin_that_is_not_utf8_is_bad_input(command, tmp_path):
    # the process's stdin decodes bad bytes to surrogates, which the
    # digest cannot encode: bad input, exit 2, as a --matrix file that is
    # not UTF-8 is, in any locale, and the error names the byte's place in
    # the whole text, as the file's does (it once named its place in its
    # line, position 4 of the first input)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                 else [])))
    path = tmp_path / "m.csv"
    for text, at in ((b"0,1,2\n1,0,1\n2,1,\xff\n", 16),
                     (b"0,1\n" * 5000 + b"1,\xe2\x82\n", 20002)):
        path.write_bytes(text)
        proc = subprocess.run(
            [sys.executable, "-m", "magnitude", command, "--matrix", str(path),
             "--t", "1"], capture_output=True, env=env, timeout=120)
        detail = json.loads(proc.stderr)["detail"]
        assert f" position {at}" in detail
        for locale in ({}, {"LC_ALL": "C.UTF-8"}):
            proc = subprocess.run(
                [sys.executable, "-m", "magnitude", command, "--stdin-matrix",
                 "--t", "1"], input=text, capture_output=True,
                env={**env, **locale}, timeout=120)
            assert (proc.returncode, proc.stdout) == (2, b""), proc.stderr
            assert json.loads(proc.stderr) == {
                "error": "BadSpec",
                "detail": detail.replace(str(path), "stdin", 1)}


def test_matrix_file_that_is_not_utf8_names_the_byte(capsys, tmp_path):
    # the file is streamed in chunks, but the error names the bad byte's
    # place in the file; a bad token in a chunk read before it comes first
    path = tmp_path / "m.csv"
    for head, error, detail in (
            (b"", "BadSpec", f"{path} is not UTF-8 text: 'utf-8' codec can't "
                             "decode byte 0xff in position 20002: invalid "
                             "start byte"),
            (b"0,x\n", "MatrixParseError",
             "line 1: could not convert string to float: 'x'")):
        path.write_bytes(head + b"0,1\n" * 5000 + b"1,\xff\n")
        code, out, err = run(capsys, "mag", "--matrix", str(path))
        assert (code, out, json.loads(err)) == (
            2, "", {"error": error, "detail": detail})


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(xs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6, unique=True),
       newline=st.sampled_from(["\n", "\r\n"]),
       blanks=st.lists(st.sampled_from(["", " ", "\t"]), max_size=3),
       final=st.booleans(),
       fault=st.sampled_from([None, "ragged", "token", "square"]),
       at=st.integers(0, 5))
def test_streamed_matrix_is_the_whole_text(csv_dir, xs, newline, blanks,
                                           final, fault, at):
    # --matrix and --stdin-matrix read, digest and parse one line at a
    # time: the array and digest of the whole text, read as each reads it
    # (the file with universal newlines, stdin as it comes), and the same
    # message for every fault
    from magnitude.errors import MatrixParseError
    from magnitude.spaces import load_distance_csv

    rows = [[repr(abs(x - y)) for y in xs] for x in xs]
    at %= len(rows)
    if fault == "ragged":
        rows[at] = rows[at][:-1] or ["0", "0"]
    elif fault == "token":
        rows[at][-1] = "x"
    elif fault == "square":
        del rows[at]
    lines = [",".join(r) for r in rows]
    for k, blank in enumerate(blanks):
        lines.insert((at + k) % (len(lines) + 1), blank)
    raw = newline.join(lines) + (newline if final else "")
    path = csv_dir / "m.csv"
    path.write_bytes(raw.encode())
    saved = sys.stdin
    for argv, text in ((["--matrix", str(path)], raw.replace("\r\n", "\n")),
                       (["--stdin-matrix"], raw)):
        args = cli.build_parser().parse_args(["mag", *argv])
        try:
            want = load_distance_csv(text)
        except MatrixParseError as exc:
            want = exc
        sys.stdin = io.TextIOWrapper(io.BytesIO(raw.encode()), encoding="utf-8",
                                     errors="surrogateescape", newline="\n")
        try:
            space, inputs = cli._space_inputs(args)
        except MatrixParseError as exc:
            assert isinstance(want, MatrixParseError) and str(exc) == str(want)
            continue
        finally:
            sys.stdin = saved
        assert space.metric().distances.tobytes() == want.tobytes()
        assert inputs == {"kind": "explicit_matrix",
                          "sha256": hashlib.sha256(text.encode()).hexdigest()}


def test_digests_are_sha256(capsys, monkeypatch):
    # the CLI hashes with CPython's builtin SHA-256, not hashlib's, which
    # maps OpenSSL into the process; hashlib's is the reference here
    def sha256(text):
        return hashlib.sha256(text.encode()).hexdigest()

    text = "0,1.5\n1.5,0\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, rep, _ = run_json(capsys, "mag", "--stdin-matrix", "--t", "1")
    assert code == 0
    inputs = {"space": {"kind": "explicit_matrix", "sha256": sha256(text)},
              "t": 1.0}
    assert rep["inputs_digest"] == sha256(
        json.dumps(inputs, sort_keys=True, separators=(",", ":")))
    assert cli._digest(inputs) == rep["inputs_digest"]


@pytest.mark.parametrize("argv, stdin, proof, norm", [
    (["check", "--points-1d", "0,1e308"], None, "cholesky", 1e308),
    (["check", "--stdin-matrix"], "0,1e308\n1e308,0\n", "cholesky", 1e308),
    (["check", "--points-1d", "0,8e307,1.6e308", "--t", "1e-300"], None,
     "cholesky", 1.6e308),
    # scaled by 2^-4, 1e-308 leaves the normal range: the band decides
    (["check", "--points-1d", "0,1e-308,1e308"], None, "eigenvalue_band",
     1e308),
])
def test_check_near_the_double_maximum_gives_a_verdict(monkeypatch, argv,
                                                       stdin, proof, norm):
    # a row sum or the proof's exact sums overflow at these distances, so
    # the proof reads d scaled by a power of two; nothing reaches stderr.
    # Points take the theorem, and their d, held, the proof
    if stdin is None:
        code, out, err, caught = _call(argv)
        assert (code, err, caught) == (0, "", [])
        rep = strict_loads(out)["results"]
        assert (rep["negative_type_proof"], rep["cnd_max_eigenvalue"]) == (
            "theorem", 0.0)
        xs = [float(x) for x in argv[2].split(",")]
        stdin = "".join(",".join(repr(abs(x - y)) for y in xs) + "\n"
                        for x in xs)
        argv = ["check", "--stdin-matrix", *argv[3:]]
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err, caught = _call(argv)
    assert code == 0
    assert err == "" and not caught
    rep = strict_loads(out)["results"]
    assert rep["negative_type_verdict"] == "CertifiedNegativeType"
    assert rep["negative_type_proof"] == proof
    # norm is at most the Perron root of d, so 1e-10 norm at most the band
    assert abs(rep["cnd_max_eigenvalue"]) <= 1e-10 * norm


def test_ball_sample_underflow_names_its_cause(capsys):
    code, out, err = run(capsys, "check", "--ball", "3,1e-300,5", "--seed",
                         "1")
    assert_bad_spec(code, out, err)
    assert json.loads(err)["detail"] == (
        "distinct points' distances fall below 2^-511: their squared "
        "coordinate differences underflow at this radius or spacing")
    # distances lose bits before they reach 0: a sum of squares reads
    # 1e-160 as 9.99994e-161, a magnitude of 1.924229936812735 for the
    # line's 1.9242343145200196
    code, out, err = run(capsys, "mag", "--grid", "3x2", "--spacing", "1e-160",
                         "--t", "1e160")
    assert_bad_spec(code, out, err)
    # a grid with one entry above 1 lies on the line, where every p is
    # |x - y|: it takes the line's distances and magnitude
    _, rep, _ = run_json(capsys, "mag", "--grid", "3x1", "--spacing", "1e-160",
                         "--t", "1e160")
    assert rep["results"]["magnitude"] == 1.9242343145200196


@pytest.mark.parametrize("radius, status", [("1e-300", 0), ("1e200", 0)])
def test_one_dimensional_ball_is_built_on_the_line(capsys, radius, status):
    # the squares of these radii underflow (1e-300) or overflow (1e200),
    # but on the line every p's distance is the l1 one, which is exact; at
    # 1e-300 Z is all ones in floats at t = 1, and the line rung still
    # gives the magnitude, 1.0
    ball = ("mag", "--ball", f"1,{radius},5", "--seed", "1")
    code, out, err = run(capsys, *ball)
    code1, out1, _ = run(capsys, *ball, "--p", "1")
    assert err == "" and code == code1 == status
    assert json.loads(out)["results"] == json.loads(out1)["results"]


def test_weights_command(capsys):
    code, rep, _ = run_json(capsys, "weights", "--points-1d", "0,1", "--t", "2")
    assert code == 0
    w = rep["results"]["weighting"]
    assert w == rep["results"]["coweighting"]
    assert sum(w) == pytest.approx(rep["results"]["magnitude"], abs=1e-12)


def test_check_command_verdicts(capsys, monkeypatch):
    code, rep, _ = run_json(capsys, "check", "--graph", "k32", "--t", "0.1")
    assert code == 0
    r = rep["results"]
    assert r["valid"] is True
    assert r["is_positive_definite"] is False
    assert r["negative_type_verdict"] == "CertifiedNot"
    assert r["negative_type_proof"] == "eigenvalue_band"

    # the points take the theorem, and their d, held, the proof
    code, rep, _ = run_json(capsys, "check", "--points-1d", "0,0.5,1.7", "--t", "1")
    theorem = rep["results"]
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "0,0.5,1.7\n0.5,0,1.2\n1.7,1.2,0\n"))
    code, rep, _ = run_json(capsys, "check", "--stdin-matrix", "--t", "1")
    held = rep["results"]
    for r, proof in ((theorem, "theorem"), (held, "cholesky")):
        assert r["is_positive_definite"] is True
        assert r["negative_type_verdict"] == "CertifiedNegativeType"
        assert r["negative_type_proof"] == proof
    assert theorem["cnd_max_eigenvalue"] == 0.0
    assert 0.0 < held["cnd_max_eigenvalue"] <= 1e-10 * 3 * 1.7


@pytest.mark.parametrize("grid, p", [("3x1", "1"), ("1x3", "2"),
                                     ("1x3x1", "2")])
def test_grid_with_one_axis_above_one_is_the_line(capsys, grid, p):
    # its points are i * spacing, in order, and every p's distance is
    # |x - y|: the line rung solves it as --grid 3, where the dense solve
    # met Z of all ones in floats (Undefined) and p = 2 refused the
    # underflowing squares
    line = run_json(capsys, "mag", "--grid", "3", "--spacing", "1e-300",
                    "--p", "1", "--t", "1")[1]["results"]
    code, rep, _ = run_json(capsys, "mag", "--grid", grid, "--spacing",
                            "1e-300", "--p", p, "--t", "1")
    assert code == 0
    assert rep["results"] == line
    assert (line["magnitude"], line["status"]) == (1.0, "UniquePD")


def test_check_on_points_takes_the_theorem(capsys):
    # four points of a square in l1^2, 1e-300 apart: Z is all ones in
    # floats, so no Cholesky finishes, but it is positive definite at every
    # t; magfn says so beside the Undefined it cannot solve
    grid = ("--grid", "2x2", "--spacing", "1e-300", "--p", "1")
    _, rep, _ = run_json(capsys, "check", *grid)
    r = rep["results"]
    assert (r["is_positive_definite"], r["negative_type_verdict"],
            r["negative_type_proof"], r["cnd_max_eigenvalue"]) == (
        True, "CertifiedNegativeType", "theorem", 0.0)
    _, rep, _ = run_json(capsys, "magfn", *grid, "--tmin", "0.5", "--tmax",
                         "1", "--steps", "2")
    assert [(s["positive_definite"], s["status"])
            for s in rep["results"]["samples"]] == [(True, "Undefined")] * 2
    # a graph holds d: its key is still whether Cholesky finished
    _, rep, _ = run_json(capsys, "magfn", "--graph", "k32", "--tmin", "0.3",
                         "--tmax", "0.4", "--steps", "2")
    assert [s["positive_definite"] for s in rep["results"]["samples"]] == [
        False, True]


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
    # a spec matrix with a NaN entry is refused by validate_metric too
    spec = '{"kind": "explicit_matrix", "params": {"matrix": [[0, NaN], [NaN, 0]]}}'
    code, out, _ = run(capsys, "check", "--spec", spec, "--t", "1")
    assert code == 2
    assert json.loads(out)["results"]["error"] == "NonFiniteEntry"


def test_dim_overresolution_warning(capsys):
    code, rep, err = run_json(capsys, "dim", "--grid", "11", "--tmin", "0.5",
                              "--tmax", "2", "--samples", "6")
    assert code == 0
    assert rep["results"]["window_warning"].startswith(
        "window may overresolve the space")
    assert err == ""  # the warning is the field alone
    assert rep["results"]["method"] == "diversity_growth"


@pytest.mark.parametrize("argv, certificate", [
    # the active set answers K_{6,6}, 12 vertices, whose Z is not
    # positive definite below t = log 5, and is only stationary; the
    # search certifies every sample of C_5
    (("--graph", "k6,6", "--tmin", "0.1", "--tmax", "2", "--samples", "6"),
     "stationary"),
    (("--graph", "c5", "--tmin", "0.1", "--tmax", "2", "--samples", "6"),
     "global"),
    # the line rung's every sample is the maximum
    (("--grid", "11", "--tmin", "0.5", "--tmax", "2", "--samples", "6"),
     "global"),
    (("--grid", "11", "--tmin", "0.5", "--tmax", "2", "--samples", "6",
      "--method", "covering_growth"), None),
])
def test_dim_prints_the_weakest_certificate_of_its_samples(capsys, argv,
                                                           certificate):
    code, rep, _ = run_json(capsys, "dim", *argv)
    assert code == 0
    assert rep["results"]["certificate"] == certificate


def test_dim_narrow_window_exits_two(capsys):
    code, _, err = run(capsys, "dim", "--grid", "11", "--tmin", "0.5",
                       "--tmax", "2", "--samples", "4")
    assert code == 2
    assert json.loads(err)["error"] == "WindowTooNarrow"


@pytest.mark.parametrize("tmax", ["1.0000000000000002", "1.000000000000001"])
def test_dim_collapsed_window_exits_two(capsys, tmax):
    # geomspace rounds these windows onto 2 and 6 distinct scales; a slope
    # (1.3357 and 0.4774) was printed with exit 0
    code, out, err = run(capsys, "dim", "--grid", "5", "--tmin", "1",
                         "--tmax", tmax)
    assert code == 2 and out == ""
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


@pytest.mark.parametrize("argv, error, detail", [
    (("approx", "--grid-sizes", "1,5"), "BadSpec",
     "grid size must be an integer >= 2, got 1"),
    (("approx", "--grid-sizes", "3,0", "--format", "csv"), "BadSpec",
     "grid size must be an integer >= 2, got 0"),
    (("oracle", "--leading", "0,2"), "UnsupportedDimension",
     "n must be an integer >= 1, got 0"),
])
def test_scalar_rules_name_their_bound(capsys, argv, error, detail):
    # the rules of errors.integral, with its message, and the caller's type
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": error, "detail": detail}


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


# at t = 1 the ring's value 6 lies below the magnitude 6.2389 of a lattice
# sample inside it, and the U's 21/4 above the magnitude 5 of its bounding
# box: for a set that is not l1-convex the value is no bound either way
@pytest.mark.parametrize("art, results", [
    (r"###\n#.#\n###", {"V": ["0", "8", "8"], "magnitude": "6"}),
    (r"#.#\n###", {"V": ["1", "6", "5"], "magnitude": "21/4"}),
])
def test_pixel_nonconvex_value_is_no_bound(capsys, art, results):
    code, rep, _ = run_json(capsys, "pixel", "--ascii", art)
    assert code == 0
    assert rep["results"] == {
        **results, "l1_convex": False,
        "note": "set is not l1-convex; magnitude is exact only for "
                "l1-convex sets and is no bound here"}


@pytest.mark.parametrize("source, flags", [
    (("--pixel-file", "L"), ("--scale", "1/2")),
    (("--pixel-file", "L"), ("--dim", "2")),
    (("--pixel-file", "L", "--weights"), ("--scale", "1")),
    (("--body-box", "1,1"), ("--dim", "2")),
    (("--body-simplex=0,0;1,0;0,1", "--scale", "1/4"), ("--dim", "2")),
])
def test_pixel_flags_a_source_ignores_exit_two(capsys, tmp_path, source, flags):
    # a pixel file's header sets dim and scale; a body's vertices set dim
    path = tmp_path / "l.pix"
    path.write_text("dim 2 scale 1/1\n##\n#.\n")
    source = [str(path) if a == "L" else a for a in source]
    assert_bad_spec(*run(capsys, "pixel", *source, *flags))
    code, _, _ = run_json(capsys, "pixel", *source)
    assert code == 0


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
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from([
        ["mag", "--points-1d", "0,1,3"],
        ["weights", "--graph", "k32"],
        ["diversity", "--points-1d", "0,1,3"],
        ["oracle", "--interval", "0,4"],
        ["oracle", "--points", "0,1,3"],
        ["oracle", "--compact", "0,1;2,3"],
    ]),
    t=FLOAT_TEXT,
    tol=FLOAT_TEXT,
)
def test_scale_and_tolerance_flags_property(command, t, tol):
    # --tol only where the command takes it, or mag and weights would
    # always exit 2 and check nothing
    argv = command + ["--t", t] + (["--tol", tol] if command[0] == "diversity" else [])
    code, out, err, caught = _call(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if out:
        strict_loads(out)
    if code != 2:
        assert out, argv
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert "Warning" not in err, argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(xs=st.lists(st.one_of(st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300),
                             st.sampled_from([1e-310, 5e-324, 1.0, 7.5])),
                   min_size=1, max_size=12, unique=True),
       t=st.sampled_from(["0.001", "1", "3", "1e3"]))
@example(xs=[0.0, 1e-310, 1.0, 7.5, 7.50000001], t="3")
@example(xs=[7.50000001, 1.0, 0.0, 7.5, 1e-310], t="3")
def test_oracle_points_prints_the_line_rungs_weights(xs, t):
    # one producer: the closed form of a finite line set prints the bits
    # weights --points-1d prints, the weighting in sorted order
    text = ",".join(map(repr, xs))
    code, out, err, _ = _call(["oracle", f"--points={text}", "--t", t])
    assert code == 0, err
    oracle = strict_loads(out)["results"]
    code, out, err, _ = _call(["weights", f"--points-1d={text}", "--t", t])
    assert code == 0, err
    weights = strict_loads(out)["results"]
    assert oracle["points"] == sorted(xs)
    assert oracle["magnitude"] == weights["magnitude"]
    assert oracle["weighting"] == [
        w for _, w in sorted(zip(xs, weights["weighting"]))]


LINE_SETS = st.lists(st.one_of(st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300),
                               st.sampled_from([1e-310, 5e-324, 1.0, 7.5])),
                     min_size=1, max_size=12, unique=True)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(xs=LINE_SETS, near=st.booleans(),
       t=st.sampled_from(["0.001", "1", "3", "1e3"]))
@example(xs=[7.50000001, 1.0, 0.0, 7.5, 1e-310], near=False, t="3")
def test_library_answers_a_line_set_as_the_cli_does(xs, near, t):
    # one producer for a space on the line: solve_weighting and
    # max_diversity on points_on_line(xs) give the bits that weights and
    # diversity --points-1d print, in the order given; near adds a point
    # one ulp past the largest
    from magnitude import tridiagonal
    from magnitude.diversity import max_diversity
    from magnitude.engine import solve_weighting
    from magnitude.spaces import points_on_line

    if near:
        xs = xs + [math.nextafter(max(xs), math.inf)]
    text = ",".join(map(repr, xs))
    space = points_on_line(xs)
    res = solve_weighting(space, float(t))
    code, out, err, _ = _call(["weights", f"--points-1d={text}", "--t", t])
    assert code == 0, err
    printed = strict_loads(out)["results"]
    assert not res.weighting.flags.writeable
    assert res.weighting.tolist() == printed["weighting"]
    assert (res.magnitude, res.status, res.residual) == (
        printed["magnitude"], printed["status"], printed["residual"])
    assert cli._finite_or_none(res.condition_estimate) == \
        printed["condition_estimate"]
    div = max_diversity(space, float(t))
    code, out, err, _ = _call(["diversity", f"--points-1d={text}", "--t", t])
    assert code == 0, err
    printed = strict_loads(out)["results"]
    assert not div.weights.flags.writeable
    rung = tridiagonal.max_diversity(xs, float(t))
    assert div.weights.tolist() == list(rung.weights)
    assert [div.value, list(div.support), div.kkt_gap, div.iterations,
            div.method, div.certificate] == [
        printed[k] for k in ("value", "support", "kkt_gap", "iterations",
                             "method", "certificate")]


def _graph_spec(edges, n):
    return {"kind": "graph_shortest_path",
            "params": {"edges": edges, "n_vertices": n}}


# a --spec of every kind, or a --matrix file's distances: lines, grids on
# and off the line in l1 and l2, balls on and off it, named and edge-list
# graphs on both sides of supports.SEARCH_LIMIT (10) and EXACT_LIMIT (15)
SPACE_SOURCES = st.one_of(
    st.lists(st.floats(-10, 10), min_size=1, max_size=12, unique=True).map(
        lambda xs: {"kind": "points_1d", "params": {"coordinates": xs}}),
    st.builds(lambda shape, p, h: {"kind": "lp_grid", "params": {
        "shape": shape, "p": p, "spacing": h}},
        st.sampled_from([[5], [4, 1], [1, 3], [2, 3], [3, 3], [2, 2, 2]]),
        st.sampled_from([1, 2]), st.sampled_from([0.5, 1.0, 1.7])),
    st.builds(lambda depth, length: {"kind": "cantor_endpoints", "params": {
        "depth": depth, "length": length}},
        st.integers(0, 3), st.sampled_from([1.0, 3.5])),
    st.builds(lambda n, count, seed, p: {
        "kind": "ball_sample", "seed": seed, "params": {
            "n": n, "radius": 1.0, "count": count, "p": p}},
        st.sampled_from([1, 3]), st.integers(1, 13), st.integers(0, 1000),
        st.sampled_from([1, 2])),
    st.sampled_from(["k1", "k32", "c5", "k4", "p4", "p11", "c11", "k3,9",
                     "p16"]).map(
        lambda name: {"kind": "graph_shortest_path", "params": {"name": name}}),
    # an edge list on n vertices, with or without the path through them
    st.integers(2, 12).flatmap(lambda n: st.builds(
        lambda edges, path: _graph_spec(
            edges + [[i, i + 1] for i in range(n - 1)] * path, n),
        st.lists(st.integers(1, n - 1).flatmap(
            lambda j: st.tuples(st.integers(0, j - 1), st.just(j)).map(list)),
            max_size=n),
        st.booleans())),
    st.tuples(st.integers(1, 12), st.integers(0, 1000)).map(
        lambda c: {"matrix": c}),
)


def _library_results(command, space, t):
    """The results that command prints for space at scale t, from the
    library's entries."""
    from magnitude.diversity import max_diversity, max_diversity_exact
    from magnitude.engine import definiteness_report, solve_weighting
    from magnitude.sweeps import scales

    n = space.n_points
    if command in ("mag", "weights"):
        res = solve_weighting(space, t)
        results = {"t": t, "magnitude": res.magnitude, "status": res.status,
                   "condition_estimate": cli._finite_or_none(
                       res.condition_estimate), "residual": res.residual}
        if command == "mag":
            return {**results, "n_points": n}
        w = None if res.weighting is None else res.weighting.tolist()
        return {**results, "weighting": w, "coweighting": w}
    if command == "magfn":
        return {"n_points": n, "samples": [
            {"t": s, "magnitude": res.magnitude, "status": res.status,
             "positive_definite": definiteness_report(
                 space, s).is_positive_definite}
            for s, res in ((s, solve_weighting(space, s))
                           for s in scales(0.5, 2.0, 3))]}
    if command == "check":
        rep = definiteness_report(space, t)
        return {"valid": True, "n_points": n, "t": t, **rep._asdict(),
                "cnd_max_eigenvalue": cli._finite_or_none(
                    rep.cnd_max_eigenvalue)}
    exact = command == "exact"
    res = (max_diversity_exact(space, t) if exact else max_diversity(space, t))
    return {"t": t, "method": res.method, "value": res.value,
            "support": list(res.support), "kkt_gap": res.kkt_gap,
            "certificate": res.certificate,
            **({"supports_checked": res.iterations} if exact else
               {"iterations": res.iterations})}


@settings(max_examples=500, deadline=None, derandomize=True)
@given(source=SPACE_SOURCES,
       command=st.sampled_from(["mag", "weights", "magfn", "check",
                                "diversity", "exact"]),
       t=st.sampled_from([0.3, 1.0, 2.5]))
def test_library_answers_every_spec_kind_as_the_cli_does(csv_dir, source,
                                                         command, t):
    # one dispatch from what a space is to its rung (specs.Structure): the
    # library's entries on the built space print the command's bits, and
    # raise the error it reports
    from magnitude.errors import TooLarge
    from magnitude.spaces import (ball_sample, generate_space,
                                  load_distance_csv, validate_metric)

    if "matrix" in source:
        count, seed = source["matrix"]
        text = "".join(",".join(map(repr, row)) + "\n" for row in
                       ball_sample(2, 1.0, count, seed=seed).distances.tolist())
        path = csv_dir / "property.csv"
        path.write_text(text)
        argv = ["--matrix", str(path)]
        build = lambda: validate_metric(load_distance_csv(text))
    else:
        argv = ["--spec", json.dumps(source)]
        build = lambda: generate_space(SpaceSpec.from_json(json.dumps(source)))
    argv = ["diversity", *argv, "--exact"] if command == "exact" else [
        command, *argv]
    if command == "magfn":
        argv += ["--tmin", "0.5", "--tmax", "2", "--steps", "3"]
    else:
        argv += ["--t", repr(t)]
    code, out, err, _ = _call(argv)
    try:
        want = _library_results(command, build(), t)
    except (ValueError, TooLarge) as exc:  # BadSpec, DisconnectedGraph
        assert (code, out, json.loads(err)) == (2, "", {
            "error": type(exc).__name__, "detail": str(exc)})
        return
    assert code in (0, 3), err
    assert strict_loads(out)["results"] == want


@pytest.mark.parametrize("space, argv, t, value", [
    ("points", ["--points-1d", "0,0.5,1.7,2.0,3.1,4.0,4.2,5.5"], 1.0,
     3.524610440175379),
    ("ball", ["--ball", "1,1,6", "--seed", "3"], 2.0, None),
])
def test_library_exact_diversity_on_the_line_is_the_cli_s(space, argv, t,
                                                          value):
    # max_diversity_exact on a space on the line takes the line rung, as
    # diversity --exact does: it once searched 255 supports of the eight
    # points (3.5246104401753784) and 63 of the ball sample
    from magnitude.diversity import max_diversity_exact
    from magnitude.spaces import ball_sample, points_on_line

    space = (points_on_line([0, 0.5, 1.7, 2.0, 3.1, 4.0, 4.2, 5.5])
             if space == "points" else ball_sample(1, 1.0, 6, seed=3))
    res = max_diversity_exact(space, t)
    code, out, err, _ = _call(["diversity", *argv, "--t", repr(t), "--exact"])
    assert code == 0, err
    printed = strict_loads(out)["results"]
    assert (res.method, res.iterations) == ("line", 1)
    assert [res.value, list(res.support), res.kkt_gap, res.iterations,
            res.method, res.certificate] == [
        printed[k] for k in ("value", "support", "kkt_gap",
                             "supports_checked", "method", "certificate")]
    assert value is None or res.value == value


@settings(max_examples=60, deadline=None, derandomize=True)
@given(radius=st.one_of(st.sampled_from(["1e-300", "2", "1e200"]),
                        st.floats(1e-6, 1e6).map(repr)),
       count=st.integers(1, 40), seed=st.integers(0, 10_000),
       t=st.sampled_from(["0.01", "1", "3"]))
@example(radius="1e-300", count=5, seed=1, t="1")
@example(radius="2", count=40, seed=1, t="3")
def test_one_dimensional_ball_prints_what_its_points_print(radius, count,
                                                           seed, t):
    # a 1-D --ball sample reaches the line rung through the library, so
    # mag prints what --points-1d prints for the same points
    from magnitude.spaces import ball_sample

    pts = ball_sample(1, float(radius), count, seed=seed).points[:, 0]
    text = ",".join(map(repr, pts.tolist()))
    code, out, err, _ = _call(["mag", "--ball", f"1,{radius},{count}",
                               "--seed", str(seed), "--t", t])
    code1, out1, _, _ = _call(["mag", f"--points-1d={text}", "--t", t])
    assert code == code1 == 0, err
    assert strict_loads(out)["results"] == strict_loads(out1)["results"]


@pytest.mark.parametrize("log", [False, True])
def test_sweep_to_the_double_maximum_is_quiet(log):
    # the last scale i * step of the sweep overflows before --tmax replaces it
    argv = ["magfn", "--points-1d", "0,1,3", "--tmin", "1.0",
            "--tmax", repr(sys.float_info.max), "--steps", "25"]
    code, out, err, caught = _call(argv + (["--log"] if log else []))
    assert code == 0
    assert strict_loads(out)["results"]["samples"][-1]["t"] == sys.float_info.max
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err == ""


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


# JSON values of every type, sized so that a valid space stays small:
# lists of at most 3 entries and integers up to 8, so at most an
# 8-dimensional ball, 8 vertices, or 512 grid or Cantor points
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 1e-300, 5e-324, 1e308,
                     -1e308, math.inf, -math.inf, math.nan]),
    st.text(max_size=2), st.sampled_from(["k3", "c5", "k3,2", "p4"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=8)
# one graph name per branch of spaces._parse_graph_name: the two-digit
# shorthand, "k a,b" with spaces and capitals, a zero part, sizes zero,
# too small or over POINT_LIMIT, a superscript or Arabic-Indic digit, an
# unknown letter, and each family built
GRAPH_NAME_BRANCHES = ("k32", " K 2 , 1 ", "k0,2", "k5000,5000", "k\u00b2",
                       "p\u0663", "q3", "k0", "c2", "k9999", "k3", "c5", "p4")
# generated names keep at most three ASCII digits, so at most 222 vertices
GRAPH_NAMES = st.sampled_from(GRAPH_NAME_BRANCHES) | st.tuples(
    st.sampled_from("kcpKq"), st.text("012, \u00b2\u0663", max_size=5),
).map("".join).filter(
    lambda s: sum(c.isascii() and c.isdigit() for c in s) <= 3)
# values each parameter takes, so that many specs build a space
SMALL = st.sampled_from([0.5, 1, 2.0, 1e-300, 1e150])
VALID = {
    "coordinates": st.lists(st.integers(-4, 4), min_size=1, max_size=3,
                            unique=True),
    "name": GRAPH_NAMES,
    "edges": st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2),
                      max_size=3),
    "n_vertices": st.integers(1, 4),
    "shape": st.lists(st.integers(1, 8), min_size=1, max_size=3),
    "p": st.sampled_from([1, 2, 2.0]),
    "spacing": SMALL,
    "depth": st.integers(0, 8),
    "length": SMALL,
    "n": st.integers(1, 8),
    "radius": SMALL,
    "count": st.integers(1, 8),
    "seed": st.integers(0, 2**64),
    "matrix": st.sampled_from([[[0]], [[0, 1], [1, 0]], [[0, 3], [3, 1]],
                               [[0, 1, 2], [1, 0, 1], [2, 1, 0]]]),
}
RARELY = st.sampled_from([False] * 5 + [True])


@st.composite
def space_specs(draw):
    """A --spec of each kind whose parameters are left out, valid, or
    random JSON, sometimes with an unknown key in or beside params, or
    with its seed in the wrong place."""
    from magnitude.specs import KINDS

    kind = draw(st.sampled_from(sorted(KINDS)))
    names = set(KINDS[kind])
    if kind == "graph_shortest_path" and not draw(RARELY):
        # a graph is named or listed; both at once is refused
        names -= draw(st.sampled_from([{"name"}, {"edges", "n_vertices"}]))
    params = {}
    for name in sorted(names):
        if not draw(RARELY):
            params[name] = draw(JSON_VALUES if draw(RARELY) else VALID[name])
    spec = {"kind": kind, "params": params}
    if "seed" in params and not draw(RARELY):
        spec["seed"] = params.pop("seed")
    if draw(RARELY):
        spec["seed"] = draw(st.one_of(VALID["seed"], JSON_VALUES))
    for where in (params, spec):
        if draw(RARELY):
            where[draw(st.text(max_size=3))] = draw(JSON_VALUES)
    return json.dumps(spec)


def _graph_name_examples(test):
    """The test run first on a spec per entry of GRAPH_NAME_BRANCHES: the
    graph kind draws about 20 names in 400 examples, too few to reach
    every branch by chance."""
    for name in GRAPH_NAME_BRANCHES:
        test = example(spec=json.dumps(
            {"kind": "graph_shortest_path", "params": {"name": name}}))(test)
    return test


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spec=space_specs())
@_graph_name_examples
def test_any_spec_is_a_space_or_bad_input(spec):
    # weights exits 0 also where the solve is undefined; an exit 4 here
    # would be a bug that a spec's parameters reach past the table
    code, out, err, caught = _call(["weights", "--spec", spec])
    assert code in (0, 2), (spec, code, err)
    if code == 0:
        strict_loads(out)
    else:
        assert out == "" or strict_loads(out)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], spec


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.tuples(st.sampled_from("kcpq"),
                      st.text("012, -\u00b2\u0663", max_size=3)).map("".join))
def test_any_graph_name_is_a_graph_or_bad_input(name):
    # sizes up to 222 vertices; a superscript or an Arabic-Indic digit
    # is bad input, never an int() failure past the table
    code, out, err, _ = _call(["weights", "--graph", name])
    assert code in (0, 2), (name, code, err)


def _spec_reference_rows():
    """The README's --spec reference rows, rebuilt from specs.KINDS and
    the CLI's source flags."""
    from magnitude.specs import KINDS, REQUIRED

    flags = {kind: f"`--{src.replace('_', '-')}`"
             for src, (kind, _) in cli._SOURCES.items()}
    rows = []
    for kind, rules in KINDS.items():
        cells = []
        for name, (values, _, default) in rules.items():
            default = ("required" if default is REQUIRED
                       else f"default `{json.dumps(default)}`")
            cells.append(f"`{name}`: {values}, {default}")
        rows.append(f"| `{kind}` | {flags.get(kind, 'none')} | "
                    f"{'; '.join(cells)} |")
    return rows


def test_readme_spec_reference_is_the_kinds_table():
    lines = (Path(SRC).parent / "README.md").read_text().splitlines()
    start = lines.index("| Kind | Flag | Parameters |") + 2
    end = lines.index("", start)
    assert lines[start:end] == _spec_reference_rows()


# ---------------------------------------------------------------------------
# the line rung: every space of a line kind, from a flag or a --spec

LINE_SPECS = [
    (("--points-1d", "3,0,1.5"), "points_1d", {"coordinates": [3, 0, 1.5]}),
    (("--grid", "5", "--spacing", "0.25", "--p", "1"), "lp_grid",
     {"shape": [5], "spacing": 0.25, "p": 1}),
    (("--grid", "4"), "lp_grid", {"shape": [4]}),
    (("--cantor-depth", "2", "--length", "3"), "cantor_endpoints",
     {"depth": 2, "length": 3}),
]


@pytest.mark.parametrize("flags, kind, params", LINE_SPECS)
@pytest.mark.parametrize("command", [("mag",), ("weights",), ("diversity",),
                                     ("diversity", "--exact")])
def test_line_inputs_are_the_effective_spec(capsys, flags, kind, params,
                                            command):
    # the digest of the kind and its effective parameters, as before the
    # line rung, whether the space is named by its flag or by a --spec
    effective = SpaceSpec(kind, params).effective()
    extra = {"exact": command[-1] == "--exact"} if command[0] == "diversity" else {}
    want = cli._digest({"space": {"kind": kind, "params": effective},
                        "t": 0.5, **extra})
    spec = json.dumps({"kind": kind, "params": params})
    for source in (flags, ("--spec", spec)):
        code, rep, _ = run_json(capsys, *command, *source, "--t", "0.5")
        assert code == 0
        assert rep["inputs_digest"] == want, source


def test_line_magfn_dim_and_approx_digests_are_the_effective_spec(capsys):
    space = {"kind": "lp_grid", "params": SpaceSpec("lp_grid", {"shape": [9]}).effective()}
    _, rep, _ = run_json(capsys, "magfn", "--grid", "9", "--tmin", "1",
                         "--tmax", "3", "--steps", "4", "--log")
    assert rep["inputs_digest"] == cli._digest(
        {"space": space, "tmin": 1.0, "tmax": 3.0, "steps": 4, "log": True})
    _, rep, _ = run_json(capsys, "dim", "--grid", "9", "--tmin", "1",
                         "--tmax", "3")
    assert rep["inputs_digest"] == cli._digest(
        {"space": space, "tmin": 1.0, "tmax": 3.0,
         "method": "diversity_growth", "samples": 12})
    _, rep, _ = run_json(capsys, "approx", "--cantor-depths", "1,2")
    assert rep["inputs_digest"] == cli._digest(
        {"kind": "cantor_endpoints", "t": 1.0, "spaces": [
            SpaceSpec("cantor_endpoints", {"depth": d}).effective()
            for d in (1, 2)]})


def test_near_coincident_reals_have_a_magnitude(capsys):
    # two rows of Z are equal in floats, which stopped the dense solve;
    # distinct reals have a positive definite Z at every t
    code, rep, _ = run_json(capsys, "mag", "--points-1d", "0,1e-310,1",
                            "--t", "1")
    assert code == 0
    r = rep["results"]
    assert (r["status"], r["magnitude"]) == ("UniquePD", 1.4621171572600098)
    assert r["condition_estimate"] is None  # 1 / (1 - a^2) is past the range
    code, rep, _ = run_json(capsys, "check", "--points-1d", "0,1e-310,1")
    assert code == 0
    assert rep["results"]["is_positive_definite"] is True
    assert rep["results"]["negative_type_verdict"] == "CertifiedNegativeType"


def test_line_results_come_in_input_order(capsys):
    from magnitude import lines

    pts = [2.5, -1.0, 0.25, 7.0, 3.0]
    _, w = lines.line_weighting(pts, 0.8)
    want = [w[sorted(pts).index(x)] for x in pts]
    _, rep, _ = run_json(capsys, "weights", "--points-1d",
                         ",".join(map(repr, pts)), "--t", "0.8")
    assert rep["results"]["weighting"] == pytest.approx(want, rel=1e-15)
    assert rep["results"]["coweighting"] == rep["results"]["weighting"]
    for exact in ((), ("--exact",)):
        _, rep, _ = run_json(capsys, "diversity", "--points-1d",
                             ",".join(map(repr, pts)), "--t", "0.8", *exact)
        r = rep["results"]
        assert r["method"] == "line" and r["support"] == [0, 1, 2, 3, 4]
        assert r["value"] == pytest.approx(lines.line_magnitude(pts, 0.8),
                                           rel=1e-15)
        assert abs(r["kkt_gap"]) <= 1e-15


def test_one_dimensional_ball_takes_the_line_rung_also_exact(capsys):
    # a 1-D ball sample and the same points given as coordinates: one
    # producer, the line rung, with and without --exact
    from magnitude.spaces import ball_sample

    xs = ball_sample(1, 1.0, 8, seed=1).points[:, 0].tolist()
    for exact in ((), ("--exact",)):
        _, ball, _ = run_json(capsys, "diversity", "--ball", "1,1,8",
                              "--seed", "1", *exact)
        _, line, _ = run_json(capsys, "diversity",
                              f"--points-1d={','.join(map(repr, xs))}", *exact)
        assert ball["results"] == line["results"]
        assert ball["results"]["method"] == "line"
    assert ball["results"]["supports_checked"] == 1
    assert ball["results"]["value"] == 1.708243317649662


def test_line_diversity_takes_any_count_also_exact(capsys):
    # the exact flag's 15-point limit is support enumeration's; on the line
    # every weight is positive and the full support is the answer
    code, rep, _ = run_json(capsys, "diversity", "--grid", "40", "--exact")
    assert code == 0
    assert rep["results"]["support"] == list(range(40))
    assert rep["results"]["supports_checked"] == 1


@pytest.mark.parametrize("argv, detail", [
    (("--points-1d", "0,1,0"), "points_1d coordinates must be distinct"),
    (("--points-1d", "0,-0.0"), "points_1d coordinates must be distinct"),
    (("--points-1d", ",".join(str(i) for i in range(8193))),
     "points_1d has 8193 points, over the limit of 8,192"),
    (("--points-1d=-1e308,1e308",),
     "coordinates give distances outside the double range"),
    (("--grid", "3", "--spacing", "1e308"),
     "coordinates give distances outside the double range"),
    # the last point, 2 x 9e307, is past the double maximum
    (("--grid", "3", "--spacing", "9e307"),
     "coordinates give distances outside the double range"),
    (("--grid", "3", "--spacing", "1e-170", "--t", "1"), None),
    (("--grid", "8193"), "lp_grid has 8193 points, over the limit of 8,192"),
    (("--cantor-depth", "13"),
     "cantor_endpoints at depth 13 has 2^14 points, over the limit of 8,192"),
    (("--cantor-depth", "1", "--length", "1e308", "--t", "1"), None),
    (("--spec", '{"kind": "points_1d", "params": {"coordinates": '
                '[1e308, -1e308, 0]}}'),
     "coordinates give distances outside the double range"),
])
@pytest.mark.parametrize("command", ["mag", "diversity", "check"])
def test_line_bad_spec_messages_are_the_builders(capsys, command, argv,
                                                 detail):
    # the line rung (mag, diversity) and the built space (check) refuse a
    # line space with one message, the one the builders always gave
    code, out, err = run(capsys, command, *argv)
    if detail is None:
        assert code == 0, err
    else:
        assert_bad_spec(code, out, err)
        assert json.loads(err)["detail"] == detail


@pytest.mark.parametrize("argv", [
    ("--grid", "3", "--spacing", "1e200"),
    ("--grid", "3", "--spacing", "1e-170", "--t", "1"),
    ("--grid", "3", "--spacing", "1e160", "--t", "1e-160"),
    ("--grid", "3", "--spacing", "1e-160"),
])
@pytest.mark.parametrize("command", ["mag", "diversity", "check"])
def test_line_distance_is_the_gap_for_every_p(capsys, command, argv):
    # on the line the lp distance is |x - y| for every p: where the
    # squares of the gaps overflow (1e200), underflow to 0 (1e-170) or to
    # a subnormal (1e-160), p = 2 gives the values of p = 1
    results = []
    for p in ("1", "2"):
        code, rep, err = run_json(capsys, command, *argv, "--p", p)
        assert code == 0, err
        results.append(rep["results"])
    assert results[0] == results[1]
