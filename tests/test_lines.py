"""Closed forms for subsets of the real line."""

import math

import numpy as np
import pytest

from magnitude.engine import solve_weighting
from magnitude.lines import (
    DuplicatePoints,
    LineError,
    OverlappingGaps,
    ReversedInterval,
    cantor_magnitude,
    compact_magnitude,
    interval_magnitude,
    interval_weight_measure,
    line_magnitude,
    line_weighting,
)
from magnitude.spaces import (
    NonpositiveScale,
    ResultOverflow,
    cantor_intervals,
    points_on_line,
)
from oracles import NegativeGap, cantor_magnitude_tail_bound, gap_union_magnitude


# ---------------------------------------------------------------------------
# finite point sets


def test_weighting_boundary_and_interior_terms():
    x, w = line_weighting([0.0, 1.0, 3.0], 2.0)
    assert np.array_equal(x, [0.0, 1.0, 3.0])
    assert w[0] == pytest.approx((1 + math.tanh(1.0)) / 2)
    assert w[1] == pytest.approx((math.tanh(1.0) + math.tanh(2.0)) / 2)
    assert w[2] == pytest.approx((1 + math.tanh(2.0)) / 2)
    assert w.sum() == pytest.approx(line_magnitude([0.0, 1.0, 3.0], 2.0), abs=1e-12)


def test_weighting_accepts_unsorted_input():
    x, w = line_weighting([3.0, 0.0, 1.0], 1.0)
    assert list(x) == [0.0, 1.0, 3.0]
    assert w.shape == (3,)


def test_weights_strictly_positive_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        pts = np.unique(rng.random(n) * 10.0)
        t = float(rng.uniform(0.05, 8.0))
        _, w = line_weighting(pts, t)
        assert (w > 0).all()


def test_closed_form_matches_dense_solver():
    rng = np.random.default_rng(32)
    for _ in range(25):
        pts = np.unique(rng.random(int(rng.integers(2, 30))) * 6.0)
        t = float(rng.uniform(0.1, 5.0))
        sp = points_on_line(pts)
        res = solve_weighting(sp, t)
        x, w = line_weighting(pts, t)
        assert res.magnitude == pytest.approx(line_magnitude(pts, t), abs=1e-10)
        assert np.abs(np.sort(w) - np.sort(res.weighting)).max() <= 1e-10


def test_single_point():
    x, w = line_weighting([2.0], 3.0)
    assert w.tolist() == [1.0]
    assert line_magnitude([2.0], 3.0) == 1.0


def test_line_input_errors():
    with pytest.raises(DuplicatePoints):
        line_weighting([0.0, 1.0, 1.0], 1.0)
    with pytest.raises(LineError):
        line_magnitude([], 1.0)
    with pytest.raises(NonpositiveScale):
        line_magnitude([0.0, 1.0], 0.0)
    for bad in ([0.0, math.nan], [0.0, math.inf], [-math.inf, 0.0]):
        with pytest.raises(LineError, match="finite"):
            line_magnitude(bad, 1.0)
    with pytest.raises(LineError, match="finite"):
        line_weighting([math.nan, 0.0, 1.0], 1.0)


# ---------------------------------------------------------------------------
# intervals and unions


def test_interval_closed_form():
    assert interval_magnitude(0.0, 2.0, 1.0) == 2.0
    assert interval_magnitude(1.0, 1.0, 5.0) == 1.0  # degenerate interval
    with pytest.raises(ReversedInterval):
        interval_magnitude(2.0, 0.0, 1.0)


def test_interval_weight_measure():
    m = interval_weight_measure(0.0, 3.0, 2.0)
    assert m["endpoint_mass"] == 0.5
    assert m["interior_density"] == 1.0
    assert m["interior_mass"] == 3.0
    assert m["total"] == 2 * m["endpoint_mass"] + m["interior_mass"]
    assert m["total"] == interval_magnitude(0.0, 3.0, 2.0)


def test_compact_union_single_component_is_interval():
    assert compact_magnitude([(0.0, 2.0)], 1.5) == interval_magnitude(0.0, 2.0, 1.5)


def test_compact_union_touching_components_merge():
    merged = compact_magnitude([(0.0, 1.0), (1.0, 2.0)], 1.0)
    assert merged == pytest.approx(interval_magnitude(0.0, 2.0, 1.0), abs=1e-15)


def test_compact_union_matches_pairwise_gap_rule():
    comps = [(0.0, 1.0), (1.5, 2.0), (3.0, 4.5)]
    t = 0.7
    # fold left to right with the two-piece rule
    acc = interval_magnitude(*comps[0], t)
    right = comps[0][1]
    for a, b in comps[1:]:
        acc = gap_union_magnitude(acc, interval_magnitude(a, b, t), a - right, t)
        right = b
    assert compact_magnitude(comps, t) == pytest.approx(acc, abs=1e-12)


def test_compact_union_input_errors():
    with pytest.raises(OverlappingGaps):
        compact_magnitude([(0.0, 2.0), (1.0, 3.0)], 1.0)
    with pytest.raises(ReversedInterval):
        compact_magnitude([(2.0, 0.0)], 1.0)
    with pytest.raises(LineError):
        compact_magnitude([], 1.0)
    with pytest.raises(NegativeGap):
        gap_union_magnitude(1.0, 1.0, -0.5, 1.0)


def test_compact_union_order_independent():
    comps = [(3.0, 4.5), (0.0, 1.0), (1.5, 2.0)]
    assert compact_magnitude(comps, 2.0) == compact_magnitude(sorted(comps), 2.0)


# ---------------------------------------------------------------------------
# middle-thirds set


def test_cantor_series_value():
    assert cantor_magnitude(1.0, 1.0) == pytest.approx(1.4983504315884848, abs=1e-13)


def test_cantor_series_agrees_with_interval_construction():
    # depth-k construction: 2^k intervals of length 3^-k; its magnitude
    # approaches the series value from above as the removed gaps shrink
    for depth in (8, 12):
        approx = compact_magnitude(cantor_intervals(depth), 1.0)
        assert approx == pytest.approx(cantor_magnitude(1.0, 1.0), abs=1e-10)
    assert len(cantor_intervals(12)) == 2**12


def test_cantor_series_scaling_consistency():
    # the set scaled by L at parameter t only sees the product t*L
    assert cantor_magnitude(2.0, 3.0) == pytest.approx(
        cantor_magnitude(6.0, 1.0), abs=1e-12
    )


def test_cantor_tail_bound_dominates_truncation():
    t, length = 1.0, 1.0
    full = cantor_magnitude(t, length)
    for k in (5, 10, 20):
        partial = 1.0 + sum(
            2.0 ** (i - 1) * math.tanh(t * length / (2 * 3.0**i))
            for i in range(1, k + 1)
        )
        err = full - partial
        assert 0 <= err <= cantor_magnitude_tail_bound(t, length, k)
    assert cantor_magnitude_tail_bound(t, length, 40) < 1e-6


def test_cantor_input_errors():
    with pytest.raises(LineError):
        cantor_magnitude(1.0, -1.0)
    with pytest.raises(LineError, match=r"^length must be > 0, got 0.0$"):
        cantor_magnitude(1.0, 0.0)
    with pytest.raises(NonpositiveScale):
        cantor_magnitude(0.0, 1.0)


def _cantor_reference(t, length=1.0):
    # 60-digit partial sum; 1500 terms leave a tail far below 1e-16 relative
    import mpmath

    with mpmath.workdps(60):
        h = mpmath.mpf(t) * mpmath.mpf(length) / 2
        return float(1 + mpmath.fsum(2 ** (i - 1) * mpmath.tanh(h / mpmath.mpf(3) ** i)
                                     for i in range(1, 1500)))


@pytest.mark.parametrize("t, length", [
    (1e49, 1.0), (3e50, 1.0), (1e200, 1.0), (1e308, 1.0), (1e300, 1e8),
])
def test_cantor_series_beyond_the_power_range(t, length):
    # 3^i and 2^(i-1) would overflow before the tail bound met tol; the
    # self-similarity keeps the value (~1e126 at t = 1e200) representable
    value = cantor_magnitude(t, length)
    assert math.isfinite(value)
    assert value == pytest.approx(_cantor_reference(t, length), rel=1e-13)


def test_overflowing_closed_forms_raise_result_overflow():
    with pytest.raises(ResultOverflow):
        cantor_magnitude(1e308, 1e308)  # the value itself is ~1e378
    with pytest.raises(ResultOverflow):
        interval_magnitude(0.0, 4.0, 1e308)
    with pytest.raises(ResultOverflow):
        interval_weight_measure(0.0, 4.0, 1e308)
    with pytest.raises(ResultOverflow):
        compact_magnitude([(0.0, 1e308), (1.5e308, 1.7e308)], 1e300)
    with pytest.raises(LineError):
        cantor_magnitude(1.0, math.inf)
    with pytest.raises(ResultOverflow):  # infinitely many points
        cantor_magnitude(math.inf, 1.0)


def test_gaps_beyond_the_double_range_are_exact():
    # the gap overflows to inf, where tanh(t g / 2) is exactly 1
    with np.errstate(all="raise"):
        assert line_magnitude([-1e308, 1e308], 1.0) == 2.0
        _, w = line_weighting([-1e308, 1e308], 1.0)
    assert list(w) == [1.0, 1.0]
