"""Weighting solver, magnitude properties, and definiteness certificates."""

import math

import numpy as np
import pytest

from magnitude.engine import (
    STATUS_INVERTIBLE,
    STATUS_PD,
    STATUS_UNDEFINED,
    VERDICT_NEGATIVE_TYPE,
    VERDICT_NOT,
    MonotonicityViolation,
    NotRowHomogeneous,
    UndefinedMagnitude,
    approximate_compact_magnitude,
    check_subset_monotone,
    definiteness_report,
    is_positive_definite,
    magnitude,
    magnitude_function,
    rayleigh_ratio,
    scattered_bound_holds,
    similarity_matrix,
    solve_weighting,
    speyer_magnitude,
)
from magnitude.spaces import (
    NonpositiveScale,
    SpaceSpec,
    ball_sample,
    generate_space,
    graph_metric,
    l1_product,
    lp_grid,
    named_graph_edges,
    points_on_line,
    scale_space,
    validate_metric,
)

K32 = graph_metric(named_graph_edges("k32"))
POLE = 0.5 * math.log(2.0)


def k32_closed_form(t: float) -> float:
    x = math.exp(-t)
    return (5 + 7 * x * x - 12 * x) / ((1 - x * x) * (1 - 2 * x * x))


# ---------------------------------------------------------------------------
# solver basics


def test_two_point_magnitude():
    sp = points_on_line([0.0, 1.0])
    assert magnitude(sp, 1.0) == pytest.approx(2.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


def test_similarity_matrix_refuses_bad_scales():
    sp = points_on_line([0.0, 1.0])
    for bad in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(NonpositiveScale):
            similarity_matrix(sp, bad)


def test_three_point_line_magnitude():
    sp = points_on_line([0.0, 1.0, 3.0])
    expect = 1.0 + math.tanh(0.5) + math.tanh(1.0)
    got = magnitude(sp, 1.0)
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(2.223711313215775, abs=1e-12)


def test_weighting_satisfies_linear_system():
    res = solve_weighting(K32, 2.0)
    z = similarity_matrix(K32, 2.0).entries
    assert res.defined
    assert res.status == STATUS_PD
    assert np.abs(z @ res.weighting - 1.0).max() <= 1e-9
    assert np.array_equal(res.weighting, res.coweighting)
    assert res.magnitude == pytest.approx(res.weighting.sum())


def test_k32_matches_closed_form_across_scales():
    for t in (0.05, 0.2, 0.8, 2.0, 5.0):
        assert magnitude(K32, t) == pytest.approx(k32_closed_form(t), rel=1e-9)
    assert magnitude(K32, 2.0) == pytest.approx(3.7052946119108525, abs=1e-12)


def test_undefined_at_the_k32_pole():
    res = solve_weighting(K32, POLE)
    assert res.status == STATUS_UNDEFINED
    assert not res.defined
    with pytest.raises(UndefinedMagnitude):
        magnitude(K32, POLE)


def test_invertible_but_not_pd_status():
    # below the pole the similarity matrix has a negative eigenvalue but is
    # far from singular
    res = solve_weighting(K32, 0.1)
    assert res.status == STATUS_INVERTIBLE
    assert res.defined
    assert res.magnitude == pytest.approx(k32_closed_form(0.1), rel=1e-9)


def test_magnitude_function_marks_failures_without_raising():
    ts = [0.1, POLE, 2.0]
    samples = magnitude_function(K32, ts)
    assert [s.status for s in samples] == [
        STATUS_INVERTIBLE,
        STATUS_UNDEFINED,
        STATUS_PD,
    ]
    assert samples[1].magnitude is None
    assert samples[2].positive_definite


def test_residual_reported_small():
    rng = np.random.default_rng(11)
    pts = np.sort(rng.random(40)) * 5.0
    res = solve_weighting(points_on_line(np.unique(pts)), 1.0)
    assert res.residual is not None and res.residual <= 1e-10


# ---------------------------------------------------------------------------
# supremum characterization (PD case)


def test_rayleigh_ratio_attains_magnitude_at_the_weighting():
    sp = ball_sample(3, 1.0, 60, seed=3)
    res = solve_weighting(sp, 1.5)
    z = similarity_matrix(sp, 1.5).entries
    assert res.status == STATUS_PD
    assert rayleigh_ratio(z, res.weighting) == pytest.approx(res.magnitude, abs=1e-9)


def test_rayleigh_ratio_never_exceeds_magnitude():
    sp = ball_sample(2, 1.0, 25, seed=9)
    z = similarity_matrix(sp, 1.0).entries
    mag = magnitude(sp, 1.0)
    rng = np.random.default_rng(10)
    for _ in range(1000):
        x = rng.standard_normal(sp.n_points)
        if abs(x.sum()) < 1e-9:
            continue
        assert rayleigh_ratio(z, x) <= mag + 1e-9


def test_rayleigh_rejects_nonpositive_quadratic_form():
    z = similarity_matrix(K32, 0.1).entries
    vals, vecs = np.linalg.eigh(z)
    assert vals[0] < 0
    with pytest.raises(ValueError):
        rayleigh_ratio(z, vecs[:, 0])


# ---------------------------------------------------------------------------
# structural properties


def test_product_rule():
    a = points_on_line([0.0, 0.7, 2.1])
    b = graph_metric(named_graph_edges("c4"))
    prod = l1_product(a, b)
    assert magnitude(prod, 1.3) == pytest.approx(
        magnitude(a, 1.3) * magnitude(b, 1.3), rel=1e-9
    )
    # the weighting of the product is the outer product of the weightings
    ra, rb, rp = (solve_weighting(s, 1.3) for s in (a, b, prod))
    outer = np.outer(ra.weighting, rb.weighting).ravel()
    assert np.abs(rp.weighting - outer).max() <= 1e-9


def test_large_scale_limit_is_point_count():
    sp = validate_metric(K32.distances)
    t = 40.0 / sp.min_distance
    assert magnitude(sp, t) == pytest.approx(sp.n_points, abs=1e-6)
    sp2 = points_on_line([0.0, 0.3, 1.1, 2.0])
    t2 = 40.0 / sp2.min_distance
    assert magnitude(sp2, t2) == pytest.approx(4.0, abs=1e-6)


def test_one_point_space():
    sp = validate_metric([[0.0]])
    assert magnitude(sp, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_speyer_shortcut_on_vertex_transitive_graphs():
    c5 = graph_metric(named_graph_edges("c5"))
    assert speyer_magnitude(c5, 1.0) == pytest.approx(2.4919889423225126, abs=1e-12)
    assert speyer_magnitude(c5, 1.0) == pytest.approx(magnitude(c5, 1.0), abs=1e-9)
    k4 = graph_metric(named_graph_edges("k4"))
    # N points pairwise distance 1: N / (1 + (N-1) e^{-t})
    expect = 4.0 / (1.0 + 3.0 * math.exp(-2.0))
    assert speyer_magnitude(k4, 2.0) == pytest.approx(expect, abs=1e-12)


def test_speyer_rejects_inhomogeneous_rows():
    with pytest.raises(NotRowHomogeneous):
        speyer_magnitude(points_on_line([0.0, 1.0, 3.0]), 1.0)


def test_scattered_bound_forces_positive_weights():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        pts = rng.random((n, 3)) * 2.0
        d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        np.fill_diagonal(d, 0.0)
        try:
            sp = validate_metric(d)
        except Exception:
            continue
        t = (math.log(n - 1) + 0.5) / sp.min_distance
        assert scattered_bound_holds(sp, t)
        res = solve_weighting(sp, t)
        assert res.defined
        assert (res.weighting > 0).all()


def test_scattered_bound_edge_cases():
    sp = points_on_line([0.0, 1.0])
    assert scattered_bound_holds(sp, 0.01)  # N <= 2 always holds
    assert not scattered_bound_holds(K32, 1.0)  # log(4) > 1
    assert scattered_bound_holds(K32, 1.5)


# ---------------------------------------------------------------------------
# positive definiteness closure and scaling


def test_pd_closed_under_subspaces():
    sp = ball_sample(3, 1.0, 40, seed=17)
    assert is_positive_definite(sp, 1.0)
    rng = np.random.default_rng(18)
    for _ in range(10):
        k = int(rng.integers(2, 20))
        idx = rng.choice(sp.n_points, size=k, replace=False)
        assert is_positive_definite(sp.subspace(idx), 1.0)


def test_pd_closed_under_l1_products():
    a = points_on_line([0.0, 0.5, 1.7])
    b = points_on_line([0.0, 1.1])
    assert is_positive_definite(a, 1.0) and is_positive_definite(b, 1.0)
    assert is_positive_definite(l1_product(a, b), 1.0)


def test_scale_sandwich_on_l1_grids():
    # l1 grids factor as products of paths, so for t >= 1 the magnitude sits
    # between its t=1 value and t^n times it
    for shape, n in (((4, 3), 2), ((3, 2, 2), 3)):
        grid = lp_grid(shape, p=1, spacing=0.8)
        base = magnitude(grid, 1.0)
        for t in (1.0, 1.7, 3.0, 8.0):
            val = magnitude(grid, t)
            assert base - 1e-9 <= val <= t**n * base + 1e-9


def test_scaled_space_equals_scaled_parameter():
    sp = points_on_line([0.0, 0.4, 1.9])
    assert magnitude(scale_space(sp, 2.5), 1.0) == pytest.approx(
        magnitude(sp, 2.5), abs=1e-12
    )


# ---------------------------------------------------------------------------
# subset monotonicity and definiteness certificates


def test_subset_monotone_on_pd_space():
    sp = ball_sample(2, 1.0, 30, seed=5)
    part = check_subset_monotone(sp, list(range(10)), 1.0)
    assert 1.0 <= part <= magnitude(sp, 1.0)


def test_subset_monotonicity_fails_below_the_pole():
    # a 4-vertex subset of K_{3,2} beats the whole space at small scales
    with pytest.raises(MonotonicityViolation):
        check_subset_monotone(K32, [0, 1, 2, 3], 0.01)


def test_definiteness_report_euclidean_sample():
    sp = ball_sample(3, 1.0, 30, seed=2)
    rep = definiteness_report(sp, 1.0)
    assert rep.is_positive_definite
    assert rep.negative_type_verdict == VERDICT_NEGATIVE_TYPE
    assert rep.cnd_max_eigenvalue <= 1e-10 * sp.diameter * sp.n_points


def test_definiteness_report_k32():
    rep = definiteness_report(K32, 0.1)
    assert rep.negative_type_verdict == VERDICT_NOT
    assert not rep.is_positive_definite
    assert not rep.scattered_bound_holds


@pytest.mark.parametrize("space", [
    K32, ball_sample(3, 1.0, 40, seed=4), ball_sample(2, 1.0, 25, seed=5, p=1),
    graph_metric(named_graph_edges("c7")),
])
def test_definiteness_report_centres_like_p_d_p(space):
    # the O(N^2) centring against the dense P d P with P = I - J/N
    d = space.distances
    n = space.n_points
    p = np.eye(n) - np.ones((n, n)) / n
    top = np.linalg.eigvalsh(p @ d @ p)[-1]
    got = definiteness_report(space, 1.0).cnd_max_eigenvalue
    assert got == pytest.approx(top, abs=1e-12 * np.abs(d).sum())


# ---------------------------------------------------------------------------
# refinement sweeps toward a compact limit


def _grid_spec(n: int, length: float) -> SpaceSpec:
    return SpaceSpec("lp_grid", {"shape": [n], "spacing": length / (n - 1)})


def test_refinement_grid_matches_closed_form():
    rows = approximate_compact_magnitude(
        [_grid_spec(n, 2.0) for n in (11, 101, 1001)],
        t=1.0, levels=[11, 101, 1001], nested=True)
    assert [r.level for r in rows] == [11, 101, 1001]
    assert [r.n_points for r in rows] == [11, 101, 1001]
    # N-point grid on [0, 2]: 1 + (N - 1) tanh(1 / (N - 1))
    for r in rows:
        want = 1 + (r.level - 1) * math.tanh(1.0 / (r.level - 1))
        assert r.magnitude == pytest.approx(want, abs=1e-9)
    mags = [r.magnitude for r in rows]
    assert mags == sorted(mags) and mags[-1] < 2.0
    assert rows[0].delta is None
    assert rows[1].delta == pytest.approx(mags[1] - mags[0], abs=1e-15)
    assert all(r.status == STATUS_PD for r in rows)


def test_refinement_accepts_spaces_and_default_levels():
    spaces = [points_on_line([0, 1]), points_on_line([0, 0.5, 1])]
    rows = approximate_compact_magnitude(spaces, t=1.0)
    assert [r.level for r in rows] == [1, 2]
    assert rows[1].magnitude >= rows[0].magnitude


def test_refinement_nested_flags_decrease():
    shrinking = [
        generate_space(_grid_spec(101, 2.0)),
        generate_space(_grid_spec(11, 2.0)),
    ]
    with pytest.raises(MonotonicityViolation):
        approximate_compact_magnitude(shrinking, t=1.0, nested=True)
    # without the nested declaration the drop is just data
    rows = approximate_compact_magnitude(shrinking, t=1.0)
    assert rows[1].delta < 0


def test_refinement_level_count_mismatch():
    with pytest.raises(ValueError):
        approximate_compact_magnitude([_grid_spec(5, 1.0)], levels=[1, 2])
