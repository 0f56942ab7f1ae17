"""The line rung and the scales every route samples.

The rung's weights are checked against the tanh closed forms
(lines.line_weighting), its magnitude against the dense solve, and all of
its report against 50-digit mpmath solves; the scales against numpy's
linspace and geomspace, which magfn and dim used before."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnitude import engine, lines, tridiagonal
from magnitude.errors import LineError, NonpositiveScale
from magnitude.lines import DuplicatePoints
from magnitude.spaces import points_on_line, validate_metric
from magnitude.sweeps import scales

EPS = 2.0 ** -52


@st.composite
def line_sets(draw, max_n=60, lo=-300.0, hi=300.0):
    """(distinct reals in a drawn order, t): consecutive gaps 10^u for u
    in [lo, hi], nudged to the next float where a gap is below the
    spacing of its point, and t from 1e-3 to 1e3."""
    n = draw(st.integers(1, max_n))
    xs = [draw(st.floats(-1e3, 1e3))]
    for _ in range(n - 1):
        nxt = xs[-1] + 10.0 ** draw(st.floats(lo, hi))
        xs.append(nxt if nxt > xs[-1] else math.nextafter(xs[-1], math.inf))
    return draw(st.permutations(xs)), 10.0 ** draw(st.floats(-3.0, 3.0))


def _sorted_weights(xs, weights):
    return [w for _, w in sorted(zip(xs, weights))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(line_sets())
def test_rung_matches_the_closed_form_and_the_dense_solve(case):
    xs, t = case
    res = tridiagonal.solve(xs, t)
    assert res.status == engine.STATUS_PD
    assert all(w > 0 for w in res.weighting)
    # the tanh forms, a few ulps of the largest weight apart
    _, w = lines.line_weighting(xs, t)
    got = _sorted_weights(xs, res.weighting)
    assert max(abs(a - b) for a, b in zip(got, w)) <= 4 * EPS * max(w)
    # the dense solve, on the set held as d, where it is defined, within
    # its residual gate: w_d - w = -Z^-1 r, so the magnitudes differ by at
    # most sum w ||r||
    dense = engine.solve_weighting(
        validate_metric(points_on_line(xs).distances), t)
    if dense.defined:
        gate = engine.RESIDUAL_GATE * max(
            1.0, len(xs) * float(np.abs(dense.weighting).max()))
        assert abs(dense.magnitude - res.magnitude) <= res.magnitude * gate


@settings(max_examples=150, deadline=None, derandomize=True)
@given(line_sets(max_n=8, lo=-8.0, hi=2.0))
def test_rung_matches_a_50_digit_solve(case):
    xs, t = case
    n = len(xs)
    with mpmath.workdps(50):
        x = [mpmath.mpf(v) for v in xs]
        z = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                z[i, j] = mpmath.exp(-t * abs(x[i] - x[j]))
        w = mpmath.lu_solve(z, mpmath.matrix([1] * n))
        kappa = mpmath.mnorm(z, 1) * mpmath.mnorm(mpmath.inverse(z), 1)
        want = [float(v) for v in w]
        magnitude = float(mpmath.fsum(w))
        kappa = float(kappa)
    res = tridiagonal.solve(xs, t)
    assert max(abs(a - b) for a, b in zip(res.weighting, want)) \
        <= 4 * EPS * max(want)
    assert res.magnitude == pytest.approx(magnitude, rel=4 * n * EPS)
    # the computed condition number, not a lower estimate; its terms
    # 1 / (1 - a^2) carry the relative error of the float gaps
    assert res.condition_estimate == pytest.approx(kappa, rel=64 * n * EPS)
    assert res.residual <= 4 * n * EPS * n * max(want)


def test_rung_reports_in_input_order_and_refuses_bad_scales():
    xs = [3.0, 0.0, 1.0]
    res = tridiagonal.solve(xs, 2.0)
    _, w = lines.line_weighting(xs, 2.0)
    assert res.weighting == pytest.approx([w[2], w[0], w[1]], rel=4 * EPS)
    div = tridiagonal.max_diversity(xs, 2.0)
    assert div.support == (0, 1, 2) and div.method == "line"
    assert div.value == res.magnitude
    assert div.weights == pytest.approx([v / res.magnitude for v in res.weighting])
    assert abs(div.kkt_gap) <= 4 * EPS
    assert tridiagonal.solve([5.0], 1.0) == (
        (1.0,), 1.0, engine.STATUS_PD, 1.0, 0.0)
    for t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(NonpositiveScale):
            tridiagonal.solve(xs, t)


@pytest.mark.parametrize("xs, error", [
    ([0.0, 0.0], DuplicatePoints),
    ([1.0, 0.0, 1.0], DuplicatePoints),
    ([0.0, -0.0], DuplicatePoints),
    ([0.0, math.nan], LineError),
    ([math.inf, 0.0], LineError),
    ([0.0, -math.inf, 1.0], LineError),
    ([], LineError),
])
def test_rung_refuses_what_sorted_points_refuses(xs, error):
    # as lines.sorted_points: the message names the first coordinate that
    # is not finite, or the repeated one
    with pytest.raises(error) as want:
        lines.sorted_points(xs)
    for rung in (tridiagonal.solve, tridiagonal.max_diversity):
        with pytest.raises(error) as got:
            rung(xs, 1.0)
        assert str(got.value) == str(want.value)


def test_library_refuses_a_repeated_point_on_the_line():
    # a space built directly, unchecked, reaches the rung, which refuses
    # it rather than weigh both copies
    from magnitude.diversity import max_diversity
    from magnitude.spaces import FiniteMetricSpace

    space = FiniteMetricSpace(points=np.array([0.0, 0.0, 1.0]), p=1)
    for solve in (engine.solve_weighting, max_diversity):
        with pytest.raises(DuplicatePoints):
            solve(space, 1.0)


def test_rung_is_exact_where_floats_merge_rows_of_z():
    # gaps that round a_k to 1.0, and t g below the double range: Z is
    # singular in floats, the weights are not
    res = tridiagonal.solve([0.0, 1e-310, 1.0], 1.0)
    assert res.magnitude == 1.4621171572600098
    assert res.condition_estimate == math.inf
    assert tridiagonal.solve([0.0, 1e-300], 1e-300).weighting == (0.5, 0.5)


# ---------------------------------------------------------------------------
# scales


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(-1e6, 1e6), st.floats(0.0, 1e6), st.integers(1, 1024),
       st.sampled_from([1.0, 1e-300, 1e300]))
def test_linear_scales_are_numpys_linspace(lo, width, count, unit):
    lo, hi = lo * unit, (lo + width) * unit
    assert scales(lo, hi, count) == np.linspace(lo, hi, count).tolist()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(-300.0, 300.0), st.floats(0.0, 600.0), st.integers(1, 1024))
def test_log_scales_follow_numpys_geomspace(log_lo, log_width, count):
    # the same route, 10^y over even y from log10 of the ends, with math's
    # log10 and pow: glibc's log10 is off by up to a few ulps of y where
    # numpy's rounds correctly, and each power may round to the other
    # neighbour, so a scale may differ in relative terms by
    # ln(10) * 5 ulp(max |y|) + 2 ulps of itself
    lo = 10.0 ** log_lo
    hi = 10.0 ** min(log_lo + log_width, 300.0)
    got, want = scales(lo, hi, count, log=True), np.geomspace(lo, hi, count)
    assert len(got) == count and got[0] == lo and got[-1] == (hi if count > 1 else lo)
    y = max(abs(math.log10(lo)), abs(math.log10(hi)))
    tol = math.log(10) * 5 * math.ulp(y) + 4 * EPS
    assert all(abs(a - b) <= tol * b for a, b in zip(got, want.tolist()))
