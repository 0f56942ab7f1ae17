"""Weighting solver, magnitude properties, and definiteness certificates."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magnitude import engine
from magnitude.engine import (
    CONDITION_RCOND_FACTOR,
    REFINE_MAX_PASSES,
    STATUS_INVERTIBLE,
    STATUS_PD,
    STATUS_UNDEFINED,
    VERDICT_INCONCLUSIVE,
    VERDICT_NEGATIVE_TYPE,
    VERDICT_NOT,
    MonotonicityViolation,
    NotRowHomogeneous,
    UndefinedMagnitude,
    approximate_compact_magnitude,
    check_subset_monotone,
    cholesky_solver,
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
    MetricError,
    NonpositiveScale,
    SpaceSpec,
    ball_sample,
    first_triangle_violation,
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


# ---------------------------------------------------------------------------
# the numpy ladder against scipy's LAPACK (a test-only oracle) and a
# 50-digit reference


def _scipy_ladder(z, tol=1e-9):
    """Status and condition estimate of the same ladder on scipy's LAPACK:
    cho_factor + dpocon, else lu_factor + dgecon, with the same screen,
    refinement and residual gate."""
    from scipy.linalg import (LinAlgError, LinAlgWarning, cho_factor,
                              cho_solve, lapack, lu_factor, lu_solve)

    n = z.shape[0]
    ones = np.ones(n)
    anorm = float(np.abs(z).sum(axis=0).max())
    try:
        c, low = cho_factor(z, check_finite=False)
        rcond, info = lapack.dpocon(c, anorm, uplo=b"L" if low else b"U")
        if info != 0:
            raise LinAlgError("dpocon failed")
        status = STATUS_PD
        solve = lambda rhs: cho_solve((c, low), rhs, check_finite=False)
    except LinAlgError:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinAlgWarning)
                lu, piv = lu_factor(z, check_finite=False)
            rcond, info = lapack.dgecon(lu, anorm, norm="1")
            if info != 0:
                raise LinAlgError("dgecon failed")
        except LinAlgError:
            return STATUS_UNDEFINED, math.inf
        status = STATUS_INVERTIBLE
        solve = lambda rhs: lu_solve((lu, piv), rhs, check_finite=False)
    cond = math.inf if rcond == 0.0 else 1.0 / float(rcond)
    if rcond < n * CONDITION_RCOND_FACTOR:
        return STATUS_UNDEFINED, cond
    w = solve(ones)
    resid = float(np.abs(z @ w - ones).max())
    for _ in range(REFINE_MAX_PASSES):
        if resid <= tol / 10.0:
            break
        w = w + solve(ones - z @ w)
        resid = float(np.abs(z @ w - ones).max())
    gate = 1e-9 * max(1.0, anorm * float(np.abs(w).max()))
    return (STATUS_UNDEFINED if resid > gate else status), cond


LADDER_SCALES = [0.05, 0.1, 0.3, POLE * (1 - 1e-9), POLE, POLE * (1 + 1e-9),
                 0.5, 1.0, 2.0, 5.0, 20.0]
LADDER_SPACES = {
    **{f"ball{n}": ball_sample(3, 1.0, n, seed=n + 7)
       for n in (1, 2, 5, 30, 64, 65, 130, 400)},
    "grid600": lp_grid((600,), p=1, spacing=0.015),
    "k32": K32,
    "k33": graph_metric(named_graph_edges("k33")),
    "c5": graph_metric(named_graph_edges("c5")),
    "1e-300": points_on_line([0.0, 1e-300]),
}


@pytest.mark.parametrize("name", LADDER_SPACES)
def test_ladder_agrees_with_scipy(name):
    space = LADDER_SPACES[name]
    for t in LADDER_SCALES:
        res = solve_weighting(space, t)
        status, cond = _scipy_ladder(similarity_matrix(space, t).entries)
        assert res.status == status, (name, t)
        if math.isinf(cond):
            assert math.isinf(res.condition_estimate), (name, t)
        else:
            assert res.condition_estimate == pytest.approx(cond, rel=1e-6), (
                name, t)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_block_substitution_matches_solve_triangular(n):
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    chol = np.linalg.cholesky(a @ a.T + n * np.eye(n))
    b = rng.standard_normal(n)
    want = solve_triangular(chol, solve_triangular(chol, b, lower=True),
                            lower=True, trans="T")
    got = cholesky_solver(chol)(b)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 24), dim=st.integers(1, 3),
       graph=st.sampled_from([None, None, "k32", "k33", "c5", "c7"]),
       t=st.floats(0.05, 5.0), seed=st.integers(0, 2**32 - 1))
def test_condition_estimate_is_a_lower_bound(n, dim, graph, t, seed):
    # Hager-Higham estimates ||Z^-1||_1 from below, on both rungs
    if graph is None:
        pts = np.random.default_rng(seed).random((n, dim)) * 3.0
        space = validate_metric(
            np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)))
    else:
        space = graph_metric(named_graph_edges(graph))
    z = similarity_matrix(space, t).entries
    kappa = np.abs(z).sum(axis=0).max() * np.abs(np.linalg.inv(z)).sum(axis=0).max()
    assume(kappa < 1e8)
    res = solve_weighting(space, t)
    assert res.condition_estimate <= kappa * (1 + 1e-7)


def _mp_magnitude(z):
    """Magnitude of the float matrix z, solved with 50 significant digits."""
    with mpmath.workdps(50):
        zm = mpmath.matrix(z.tolist())
        return mpmath.fsum(mpmath.lu_solve(zm, mpmath.matrix([1] * z.shape[0])))


def _mp_condition(z):
    """1-norm condition number of the float matrix z to 50 digits, or None
    when z is exactly singular."""
    n = z.shape[0]
    norm = lambda m: max(mpmath.fsum(abs(m[i, j]) for i in range(n))
                         for j in range(n))
    with mpmath.workdps(50):
        zm = mpmath.matrix(z.tolist())
        if mpmath.det(zm) == 0:
            return None
        return norm(zm) * norm(zm ** -1)


MP_SPACES = {
    **{f"ball{n}": ball_sample(3, 1.0, n, seed=n) for n in (1, 2, 5, 12, 30)},
    "l1ball": ball_sample(2, 1.0, 20, seed=3, p=1),
    "line": points_on_line([0.0, 0.1, 0.5, 2.0, 2.05, 7.0]),
    "k32": K32,
    "k33": graph_metric(named_graph_edges("k33")),
    "c5": graph_metric(named_graph_edges("c5")),
}
MP_SCALES = [0.05, 0.3, POLE * (1 - 1e-6), POLE * (1 + 1e-6), 0.5, 1.0, 2.0,
             5.0, 20.0]


@pytest.mark.parametrize("name", MP_SPACES)
def test_magnitude_matches_fifty_digit_solve(name):
    space = MP_SPACES[name]
    for t in MP_SCALES:
        res = solve_weighting(space, t)
        mag = _mp_magnitude(similarity_matrix(space, t).entries)
        assert res.defined, (name, t)
        assert res.magnitude == pytest.approx(float(mag), rel=1e-9), (name, t)


@pytest.mark.parametrize("space, t", [
    (K32, POLE),
    (K32, math.nextafter(POLE, 0.0)),
    (K32, math.nextafter(POLE, 1.0)),
    (points_on_line([0.0, 1e-300]), 1.0),
])
def test_undefined_where_fifty_digits_see_no_trustworthy_solve(space, t):
    # at the K_{3,2} pole the float Z is too ill-conditioned for the
    # screen; with points 1e-300 apart it is exactly singular
    res = solve_weighting(space, t)
    assert res.status == STATUS_UNDEFINED
    cond = _mp_condition(similarity_matrix(space, t).entries)
    n = space.n_points
    assert cond is None or cond > 1.0 / (n * CONDITION_RCOND_FACTOR)


POLE_OFFSETS = [1e-9, 2e-9, 5e-9, 1e-8, 2e-8, 5e-8, 1e-7, 2e-7, 5e-7, 1e-6]


@pytest.mark.parametrize("offset", [-o for o in POLE_OFFSETS] + POLE_OFFSETS)
def test_relative_residual_gate_keeps_only_accurate_solves(offset):
    # every solve the gate passes near the K_{3,2} pole agrees with the
    # 50-digit solve to within eps times its condition estimate, the
    # forward error bound of a backward-stable solve
    t = POLE * (1 + offset)
    res = solve_weighting(K32, t)
    if not res.defined:
        return
    mag = float(_mp_magnitude(similarity_matrix(K32, t).entries))
    bound = np.finfo(float).eps * res.condition_estimate
    assert abs(res.magnitude - mag) <= bound * abs(mag), (offset, bound)


def test_relative_residual_gate_passes_a_near_pole_solve():
    # 2.1e-8 above the pole: weights near 1.7e7 leave a residual of about
    # 1.9e-9, over the old absolute gate of 1e-9 but far inside the
    # relative one, and the magnitude agrees with 50 digits to 1e-7
    t = 0.34657359740429104
    res = solve_weighting(K32, t)
    assert res.status == STATUS_PD
    assert res.residual > 1e-9
    mag = float(_mp_magnitude(similarity_matrix(K32, t).entries))
    assert res.magnitude == pytest.approx(mag, rel=1e-7)


def _verdict_oracle(space):
    # the verdict bands of definiteness_report, on eigvalsh's norm of d
    d = space.distances
    top = definiteness_report(space, 1.0).cnd_max_eigenvalue
    dnorm = float(np.abs(np.linalg.eigvalsh(d)).max())
    if top <= 1e-10 * dnorm or dnorm == 0.0:
        return VERDICT_NEGATIVE_TYPE
    if top >= 1e-6 * dnorm:
        return VERDICT_NOT
    return VERDICT_INCONCLUSIVE


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), dim=st.integers(1, 4),
       p=st.sampled_from([1.0, 2.0, math.inf]), power=st.floats(0.2, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_perron_bracket_holds_the_eigvalsh_norm(n, dim, p, power, seed):
    # every step brackets the norm eigvalsh computes, inside the margin
    pts = np.random.default_rng(seed).random((n, dim))
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    d = (diff.max(axis=2) if p == math.inf
         else (diff ** p).sum(axis=2) ** (1 / p)) ** power
    dnorm = float(np.abs(np.linalg.eigvalsh(d)).max())
    for _, (lo, hi) in zip(range(30), engine._perron_bracket(d)):
        assert lo * (1 - engine.PERRON_MARGIN) <= dnorm
        assert dnorm <= hi * (1 + engine.PERRON_MARGIN)


def _bipartite_plus_euclidean(log_alpha):
    # the path metric of K_{3,9} is not of negative type; alpha times a
    # Euclidean sample added to it is, from log10(alpha) of about 1 on
    side = np.arange(12) >= 3
    d = np.where(side[:, None] == side[None, :], 2.0, 1.0)
    np.fill_diagonal(d, 0.0)
    return validate_metric(
        d + 10.0 ** log_alpha * ball_sample(3, 1.0, 12, seed=1).distances)


def _top_ratio(space):
    d = space.distances
    return (definiteness_report(space, 1.0).cnd_max_eigenvalue
            / float(np.abs(np.linalg.eigvalsh(d)).max()))


@pytest.mark.parametrize("target, verdict", [
    (1e-3, VERDICT_NOT), (1e-6, None), (1e-8, VERDICT_INCONCLUSIVE),
    (1e-10, None), (1e-12, VERDICT_NEGATIVE_TYPE),
])
def test_verdict_equals_eigvalsh_at_the_band_edges(target, verdict):
    # bisect alpha to where the top eigenvalue crosses target * norm; the
    # two ends sit on either side of the crossing, at 1e-6 and 1e-10 right
    # at a verdict edge, where the bracket may have to defer to eigvalsh
    lo, hi = 0.0, 1.5
    for _ in range(60):
        mid = (lo + hi) / 2
        if _top_ratio(_bipartite_plus_euclidean(mid)) >= target:
            lo = mid
        else:
            hi = mid
    for log_alpha in (lo, hi):
        space = _bipartite_plus_euclidean(log_alpha)
        want = _verdict_oracle(space)
        assert verdict in (None, want)
        for max_iters in (engine.PERRON_MAX_ITERS, 0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "PERRON_MAX_ITERS", max_iters)
                got = definiteness_report(space, 1.0).negative_type_verdict
            assert got == want, (target, log_alpha, max_iters)


# ---------------------------------------------------------------------------
# memory budgets of the dense stages, in units of one n x n float array


def _peak_units(fn, n):
    """Peak of the memory fn allocates, traced by tracemalloc (numpy
    reports its array buffers there), in units of n^2 * 8 bytes."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (n * n * 8)


BUDGET_SPACE = ball_sample(3, 1.0, 300, seed=7)


def test_similarity_matrix_holds_one_array():
    assert _peak_units(lambda: similarity_matrix(BUDGET_SPACE, 2.0),
                       300) <= 1.05


def test_definiteness_report_holds_two_arrays():
    # the centred matrix while eigvalsh runs, then Z and its Cholesky
    # factor; never three at once (LAPACK's working copies are untraced)
    assert _peak_units(lambda: definiteness_report(BUDGET_SPACE, 2.0),
                       300) <= 2.05


def test_solve_weighting_holds_z_and_its_factor():
    # plus the inverses of the factor's diagonal blocks, SUBSTITUTION_BLOCK
    # * n floats (0.21 at n = 300); no |Z| temporary
    assert _peak_units(lambda: solve_weighting(BUDGET_SPACE, 2.0),
                       300) <= 2.3


def test_min_distance_makes_no_square_copy():
    assert _peak_units(lambda: BUDGET_SPACE.min_distance, 300) <= 0.1


def test_triangle_scan_holds_no_square_array():
    # blocks of _SCAN_ROWS rows by _SCAN_KS values of k: about 0.45 n^2
    # at n = 600, where a per-k n x n slack buffer alone would be 1
    space = ball_sample(3, 1.0, 600, seed=7)
    peak = _peak_units(
        lambda: first_triangle_violation(space.distances, 0.0), 600)
    assert peak <= 0.6


@pytest.mark.parametrize("seed", range(4))
def test_similarity_matrix_is_exp_of_minus_t_d_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    pts = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-3, 3)
    space = validate_metric(
        np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)))
    # t d overflows to inf at the largest scales: Z is then exactly 0
    for t in (1e-3, 0.7, 2.0, 1e300, 1e308):
        with np.errstate(over="ignore"):
            want = np.exp(-t * space.distances)
        got = similarity_matrix(space, t).entries
        assert got.tobytes() == want.tobytes(), t
