"""Weighting solver, magnitude properties, and definiteness certificates."""

import io
import json
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magnitude import cli, engine
from magnitude.diversity import dimension_estimate, max_diversity
from magnitude.engine import (
    CONDITION_RCOND_FACTOR,
    EPS,
    PROOF_CHOLESKY,
    PROOF_EIGENVALUE_BAND,
    PROOF_THEOREM,
    REFINE_MAX_PASSES,
    STATUS_INVERTIBLE,
    STATUS_PD,
    STATUS_UNDEFINED,
    VERDICT_INCONCLUSIVE,
    VERDICT_NEGATIVE_TYPE,
    VERDICT_NOT,
    MonotonicityViolation,
    UndefinedMagnitude,
    approximate_compact_magnitude,
    cholesky_rows,
    cholesky_solver,
    definiteness_report,
    is_positive_definite,
    magnitude,
    magnitude_function,
    scattered_bound_holds,
    similarity_matrix,
    similarity_rows,
    solve_weighting,
    symmetric_product,
)
from magnitude.spaces import (
    ROW_BLOCK,
    FiniteMetricSpace,
    cantor_endpoints,
    MetricError,
    NonpositiveScale,
    SpaceSpec,
    ball_sample,
    first_triangle_violation,
    generate_space,
    graph_metric,
    lp_grid,
    points_on_line,
    validate_metric,
)
from oracles import (
    NotRowHomogeneous,
    ball_sample_points,
    l1_product,
    named_graph_edges,
    rayleigh_ratio,
    speyer_magnitude,
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
    z = similarity_matrix(K32, 2.0)
    assert res.defined
    assert res.status == STATUS_PD
    assert np.abs(z @ res.weighting - 1.0).max() <= 1e-9
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
    assert samples[2].status == STATUS_PD


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
    z = similarity_matrix(sp, 1.5)
    assert res.status == STATUS_PD
    assert rayleigh_ratio(z, res.weighting) == pytest.approx(res.magnitude, abs=1e-9)


def test_rayleigh_ratio_never_exceeds_magnitude():
    sp = ball_sample(2, 1.0, 25, seed=9)
    z = similarity_matrix(sp, 1.0)
    mag = magnitude(sp, 1.0)
    rng = np.random.default_rng(10)
    for _ in range(1000):
        x = rng.standard_normal(sp.n_points)
        if abs(x.sum()) < 1e-9:
            continue
        assert rayleigh_ratio(z, x) <= mag + 1e-9


def test_rayleigh_rejects_nonpositive_quadratic_form():
    z = similarity_matrix(K32, 0.1)
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
    # on d held, where Cholesky decides: a space of points takes the theorem
    sp = validate_metric(ball_sample(3, 1.0, 40, seed=17).distances)
    assert is_positive_definite(sp, 1.0)
    rng = np.random.default_rng(18)
    for _ in range(10):
        k = int(rng.integers(2, 20))
        idx = rng.choice(sp.n_points, size=k, replace=False)
        assert is_positive_definite(sp.subspace(idx), 1.0)


def test_pd_closed_under_l1_products():
    a = points_on_line([0.0, 0.5, 1.7])
    b = points_on_line([0.0, 1.1])
    assert all(is_positive_definite(validate_metric(sp.distances), 1.0)
               for sp in (a, b))
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
    scaled = FiniteMetricSpace(sp.distances * 2.5)
    assert magnitude(scaled, 1.0) == pytest.approx(
        magnitude(sp, 2.5), abs=1e-12
    )


# ---------------------------------------------------------------------------
# subset monotonicity and definiteness certificates


def test_subset_monotone_on_pd_space():
    sp = ball_sample(2, 1.0, 30, seed=5)
    part = magnitude(sp.subspace(list(range(10))), 1.0)
    assert 1.0 <= part <= magnitude(sp, 1.0)


def test_subset_monotonicity_fails_below_the_pole():
    # a 4-vertex subset of K_{3,2} beats the whole space at small scales
    part = magnitude(K32.subspace([0, 1, 2, 3]), 0.01)
    assert part > magnitude(K32, 0.01) + engine.MONOTONE_SLACK


def test_definiteness_report_euclidean_sample():
    sp = validate_metric(ball_sample(3, 1.0, 30, seed=2).distances)
    rep = definiteness_report(sp, 1.0)
    assert rep.negative_type_proof == PROOF_CHOLESKY
    assert rep.is_positive_definite
    assert rep.negative_type_verdict == VERDICT_NEGATIVE_TYPE
    assert rep.cnd_max_eigenvalue <= 1e-10 * sp.diameter * sp.n_points


def test_definiteness_report_k32():
    rep = definiteness_report(K32, 0.1)
    assert rep.negative_type_verdict == VERDICT_NOT
    assert not rep.is_positive_definite
    assert not rep.scattered_bound_holds


@pytest.mark.parametrize("space", [
    K32, validate_metric(ball_sample(3, 1.0, 40, seed=4).distances),
    validate_metric(ball_sample(2, 1.0, 25, seed=5, p=1).distances),
    graph_metric(named_graph_edges("c7")),
])
def test_definiteness_report_centres_like_p_d_p(space):
    # against the dense P d P with P = I - J/N: where eigvalsh decides
    # (K_{3,2}), the O(N^2) centring gives its top eigenvalue; where the
    # Cholesky proof decides, the reported bound lies between that
    # eigenvalue and the band's 1e-10 ||d||
    d = space.distances
    n = space.n_points
    p = np.eye(n) - np.ones((n, n)) / n
    top = np.linalg.eigvalsh(p @ d @ p)[-1]
    rep = definiteness_report(space, 1.0)
    got = rep.cnd_max_eigenvalue
    if space is K32:
        assert rep.negative_type_proof == PROOF_EIGENVALUE_BAND
        assert got == pytest.approx(top, abs=1e-12 * np.abs(d).sum())
    else:
        assert rep.negative_type_proof == PROOF_CHOLESKY
        assert top <= got <= 1e-10 * np.abs(np.linalg.eigvalsh(d)).max()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 60), dim=st.integers(1, 4), p=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_ball_samples_take_the_proof(n, dim, p, seed):
    # the samples' d, held: the points themselves take the theorem
    space = validate_metric(ball_sample(dim, 1.0, n, seed=seed, p=p).distances)
    d = space.distances
    rep = definiteness_report(space, 1.0)
    assert rep.negative_type_proof == PROOF_CHOLESKY
    assert rep.negative_type_verdict == VERDICT_NEGATIVE_TYPE
    centred = d - d.mean(axis=0) - d.mean(axis=1)[:, None] + d.mean()
    top = np.linalg.eigvalsh(centred)[-1]
    assert top <= rep.cnd_max_eigenvalue
    assert rep.cnd_max_eigenvalue <= 1e-10 * np.abs(np.linalg.eigvalsh(d)).max()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       count=st.one_of(st.none(), st.integers(2, 40)),
       p=st.sampled_from([1, 2]), t=st.floats(0.05, 5.0),
       seed=st.integers(0, 2**32 - 1))
def test_theorem_agrees_with_the_held_proof(shape, count, p, t, seed):
    # grids of shape, or count points of the ball of len(shape) dimensions:
    # the theorem's report of the points, and the Cholesky proof and PD
    # test on their d, held, wherever they finish
    dim = len(shape)
    space = (lp_grid(shape, p=p, spacing=0.7) if count is None
             else ball_sample(dim, 1.0, count, seed=seed, p=p))
    theorem = definiteness_report(space, t)
    assert theorem == (True, VERDICT_NEGATIVE_TYPE, 0.0, PROOF_THEOREM,
                       scattered_bound_holds(space, t))
    held = definiteness_report(validate_metric(space.distances), t)
    assert held.negative_type_verdict != VERDICT_NOT
    if held.negative_type_proof == PROOF_CHOLESKY:
        assert held.negative_type_verdict == VERDICT_NEGATIVE_TYPE
        # a proven bound on the top eigenvalue, which is the theorem's 0
        assert 0.0 <= held.cnd_max_eigenvalue
    assert held.is_positive_definite
    assert held.scattered_bound_holds == theorem.scattered_bound_holds


def _gamma(k):
    """gamma_k = k u / (1 - k u) for the unit roundoff u = 2^-53, exactly."""
    u = Fraction(1, 2**53)
    return k * u / (1 - k * u)


@pytest.mark.parametrize("space", [
    validate_metric(ball_sample(3, 1.0, 40, seed=4).distances),
    validate_metric(ball_sample(2, 1.0, 25, seed=5, p=1).distances),
    graph_metric(named_graph_edges("c6")),
    validate_metric(lp_grid((5, 4), p=1).distances),
])
def test_negative_type_bound_holds_every_rounding_term(space):
    # a lower bound on what a sound proof must report, in exact arithmetic
    # from the same row means r: tau / 2, plus gamma_2 ||F||_inf for
    # forming A = r 1' + 1 r' - d + (tau / 2) I (F = r 1' + 1 r' + d +
    # (tau / 2) I), plus gamma_{n+1} / (1 - gamma_{n+1}) tr A for the
    # factor, with tr A at least (1 - u) times its exact value. Dropping
    # either rounding term reports less than this
    d = space.distances
    n = space.n_points
    rep = definiteness_report(space, 1.0)
    assert rep.negative_type_proof == PROOF_CHOLESKY
    r = d.mean(axis=1)
    tau = 1e-10 * (1.0 - engine.PERRON_MARGIN) * (n * float(r.min()))
    half = Fraction(tau / 2)
    rs = [Fraction(x) for x in r]
    total = sum(rs)
    f_norm = max(n * ri + total + sum(Fraction(x) for x in row)
                 for ri, row in zip(rs, d)) + half
    trace = sum(2 * ri + half for ri in rs) * (1 - Fraction(1, 2**53))
    g = _gamma(n + 1)
    want = half + _gamma(2) * f_norm + g / (1 - g) * trace
    assert Fraction(rep.cnd_max_eigenvalue) >= want
    assert rep.cnd_max_eigenvalue <= tau


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


def _scipy_ladder(z):
    """Status and condition estimate of the same ladder on scipy's LAPACK:
    cho_factor + dpocon, else lu_factor + dgecon, with the same screen,
    refinement to the rounding floor and residual gate."""
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
        if resid <= n * np.finfo(float).eps * anorm * float(np.abs(w).max()):
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
    # the line sets hold d, so that the dense solve, not the line rung,
    # answers them
    "grid600": validate_metric(lp_grid((600,), p=1, spacing=0.015).distances),
    "k32": K32,
    "k33": graph_metric(named_graph_edges("k33")),
    "c5": graph_metric(named_graph_edges("c5")),
    "1e-300": validate_metric(points_on_line([0.0, 1e-300]).distances),
}


@pytest.mark.parametrize("name", LADDER_SPACES)
def test_ladder_agrees_with_scipy(name):
    space = LADDER_SPACES[name]
    for t in LADDER_SCALES:
        res = solve_weighting(space, t)
        status, cond = _scipy_ladder(similarity_matrix(space, t))
        assert res.status == status, (name, t)
        if math.isinf(cond):
            assert math.isinf(res.condition_estimate), (name, t)
        else:
            assert res.condition_estimate == pytest.approx(cond, rel=1e-6), (
                name, t)


def _upper(factor, n):
    """The n x n upper factor L' whose block rows cholesky_rows returns."""
    u = np.zeros((n, n))
    for block in factor:
        lo = n - block.shape[1]
        u[lo:lo + block.shape[0], lo:] = block
    return u


def _held_rows(a):
    """The row source of cholesky_rows for a held array: copies of
    a[lo:hi, lo:], so a itself is left as it was."""
    return lambda lo, hi: a[lo:hi, lo:].copy()


def _row_function(q, lam):
    """A row source computing rows of Q diag(lam) Q' as asked, each
    diagonal block made exactly symmetric, and the symmetric matrix it
    stands for (its upper triangle, mirrored)."""
    n = len(lam)

    def rows(lo, hi):
        block = (q[lo:hi] * lam) @ q[lo:].T
        diag = block[:, :hi - lo]
        diag[...] = (diag + diag.T) / 2
        return block

    a = np.zeros((n, n))
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        a[lo:hi, lo:] = rows(lo, hi)
    a = np.triu(a)
    return rows, a + np.triu(a, 1).T


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 63, 64, 65, 129, 300]),
       kind=st.sampled_from(["spd", "indefinite", "near_singular"]),
       source=st.sampled_from(["held", "function"]),
       seed=st.integers(0, 2**32 - 1))
def test_cholesky_rows_matches_numpy(n, kind, source, seed):
    # symmetric Q diag(lam) Q' with lam in [1e-3, 1]; "indefinite" moves
    # up to a fifth of lam to [-1, -1e-3], "near_singular" sets one to 0;
    # rows come from the held array or are computed as the kernel asks
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = 10.0 ** rng.uniform(-3.0, 0.0, n)
    picked = rng.permutation(n)[:max(1, n // 5)]
    if kind == "indefinite":
        lam[picked] *= -1.0
    elif kind == "near_singular":
        lam[picked[0]] = 0.0
    if source == "held":
        a = (q * lam) @ q.T
        a = (a + a.T) / 2
        rows = _held_rows(a)
    else:
        rows, a = _row_function(q, lam)
    held = a.copy()
    try:
        want = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        want = None
    try:
        got = _upper(cholesky_rows(rows, n), n).T
    except np.linalg.LinAlgError:
        got = None
    assert np.array_equal(a, held)  # the source is read, never written
    if kind != "near_singular":
        # |lambda_min| >= 1e-3, far beyond the n u tr(a) both factors
        # may shift it by: both finish or both raise
        assert (got is None) == (kind == "indefinite")
        assert (want is None) == (kind == "indefinite")
    if got is None:
        return
    assert not np.triu(got, 1).any() and (np.diag(got) > 0).all()
    # backward error gamma_{n+1} |L||L'|, plus gamma_n each for forming
    # L L' and |L||L'| in floating point
    lo = np.abs(got)
    gamma = float(_gamma(n + 1))
    assert (np.abs(got @ got.T - a) <= 3 * gamma * (lo @ lo.T)).all()
    if want is not None and kind == "spd":
        # both factors are exact for a + E with ||E||_F <= gamma_{n+1} n
        # ||a||_2; to first order (Sun, 1991) they then differ by at most
        # sqrt(2) kappa_2 gamma_{n+1} n ||L||_2 in the Frobenius norm, and
        # 2 in place of sqrt(2) leaves room for the second-order terms
        kappa = lam.max() / lam.min()
        bound = 2 * kappa * gamma * n * np.linalg.norm(want, 2)
        assert np.linalg.norm(got - want) <= bound


@pytest.mark.parametrize("n", [1, 64, 65, 200])
def test_factor_of_similarity_rows_is_the_factor_of_z(n):
    # the PD test forms Z's rows from d as it factors; the solve slices
    # the Z it holds: one factor, bit for bit
    space = ball_sample(3, 1.0, n, seed=n)
    for t in (0.3, 2.0, 40.0):
        z = similarity_matrix(space, t)
        want = cholesky_rows(_held_rows(z), n)
        rows = similarity_rows(space, t)
        got = cholesky_rows(lambda lo, hi: rows(lo, hi, lo), n)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), t


def _block_rows(upper):
    """Block rows of an upper factor, as cholesky_rows lays them out."""
    n = upper.shape[0]
    return [upper[lo:lo + ROW_BLOCK, lo:].copy()
            for lo in range(0, n, ROW_BLOCK)]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_block_substitution_matches_solve_triangular(n):
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    chol = np.linalg.cholesky(a @ a.T + n * np.eye(n))
    b = rng.standard_normal(n)
    want = solve_triangular(chol, solve_triangular(chol, b, lower=True),
                            lower=True, trans="T")
    got = cholesky_solver(_block_rows(chol.T))(b)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
def test_block_row_solver_matches_numpy_solve(n):
    space = ball_sample(3, 1.0, n, seed=n + 1)
    z = similarity_matrix(space, 5.0)
    solve = cholesky_solver(cholesky_rows(_held_rows(z), n))
    rng = np.random.default_rng(n)
    for b in (np.ones(n), rng.standard_normal(n)):
        want = np.linalg.solve(z, b)
        got = solve(b)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _edge_cases(n):
    """(space, t) of n points: a ball, a 1-D grid and an explicit matrix,
    all positive definite, and K_{3,n-3} below its pole, the LU rung."""
    pts = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 2))
    matrix = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    return [(ball_sample(3, 1.0, n, seed=n), 5.0),
            (lp_grid((n,), spacing=0.05), 2.0),
            (validate_metric(matrix), 3.0),
            (graph_metric(name=f"k3,{n - 3}"), 0.3)]


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_symmetric_product_and_solve_across_block_edges(n):
    u = EPS / 2
    rng = np.random.default_rng(n)
    for space, t in _edge_cases(n) + [(K32, 0.3)]:
        m = space.n_points
        z = similarity_matrix(space, t)
        rows = similarity_rows(space, t)
        znorm = float(z.sum(axis=0).max())
        for x in (np.ones(m), rng.standard_normal(m)):
            bound = m * u * znorm * float(np.abs(x).max())
            assert np.abs(symmetric_product(rows, x) - z @ x).max() <= bound
        assert abs(symmetric_product(rows, np.ones(m)).max() - znorm) \
            <= m * u * znorm
        # the dense reference: numpy's LU solve, and Cholesky for the status
        ref = np.linalg.solve(z, np.ones(m))
        try:
            np.linalg.cholesky(z)
            status = STATUS_PD
        except np.linalg.LinAlgError:
            status = STATUS_INVERTIBLE
        res = solve_weighting(space, t)
        assert res.status == status, (space, t)
        assert np.abs(res.weighting - ref).max() <= 1e-12 * np.abs(ref).max()
        assert res.magnitude == pytest.approx(ref.sum(), rel=1e-9)


# spaces of points across the block edges, and the same d held; the
# ball samples are numpy's Philox ones, whose diameters name the cases
POINTS_SPACES = [
    *(points_on_line(np.random.default_rng(n).uniform(-4.0, 4.0, n))
      for n in (63, 64, 65, 129)),
    *(lp_grid(shape, p=p, spacing=0.3) for p in (1, 2)
      for shape in ((63,), (8, 8), (5, 13), (3, 43))),
    cantor_endpoints(5), cantor_endpoints(6, 3.0),
    *(FiniteMetricSpace(points=ball_sample_points(3, 1.0, n, n, p), p=p)
      for p in (1, 2) for n in (63, 64, 65, 129)),
]


@pytest.mark.parametrize("space", POINTS_SPACES,
                         ids=[repr(s) for s in POINTS_SPACES])
def test_points_rows_are_the_held_rows(space):
    # every stage reads d by rows: from the points they carry the bits of
    # the whole d, so Z, its factor and the negative-type bound are those
    # of the held d, bit for bit
    n = space.n_points
    held = FiniteMetricSpace(space.distances.copy())
    d = held.distances
    for lo, hi, col0 in ((0, n, 0), (0, min(n, 64), 0), (63, min(n, 65), 17),
                         (n - 1, n, 0), (n // 2, n, n // 2), (n - 2, n, n - 1)):
        assert space.rows(lo, hi, col0).tobytes() == d[lo:hi, col0:].tobytes()
        out = np.empty((hi - lo, n - col0))
        assert space.rows(lo, hi, col0, out=out) is out
        assert out.tobytes() == d[lo:hi, col0:].tobytes()
    assert (space.min_distance, space.diameter) == (
        held.min_distance, held.diameter)
    for t in (0.5, 4.0):
        assert (similarity_matrix(space, t).tobytes()
                == similarity_matrix(held, t).tobytes())
        factors = [cholesky_rows(lambda lo, hi, rows=similarity_rows(sp, t):
                                 rows(lo, hi, lo), n)
                   for sp in (space, held)]
        for a, b in zip(*factors):
            assert a.tobytes() == b.tobytes()
    assert engine._negative_type_bound(space) == engine._negative_type_bound(held)


def test_points_subspace_keeps_points():
    space = ball_sample(2, 1.0, 70, seed=3)
    idx = [69, 3, 40, 0]
    sub = space.subspace(idx)
    assert sub.points.tolist() == space.points[idx].tolist()
    assert np.array_equal(sub.distances, space.distances[np.ix_(idx, idx)])


# _negative_type_bound on the ball samples (dim, n, seed, p) of numpy's
# Philox stream (oracles.ball_sample_points), as the kernel that factored
# the whole shifted matrix in place reported it: the rows now formed a
# block at a time carry the same bits, so every term of beta, and the
# bound, is the same
NEGATIVE_TYPE_PINS = [
    ((3, 200, 1, 2), '0x1.083af98b99712p-27'),
    ((2, 150, 2, 1), '0x1.4e1afceadc01dp-28'),
    ((4, 65, 3, 2), '0x1.76fb0fb05a5aep-29'),
    ((1, 130, 4, 1), '0x1.ab4dcbf542503p-29'),
    ((2, 300, 5, 2), '0x1.53cb5bcd68d5dp-27'),
    ((3, 64, 6, 1), '0x1.3e94065e55fe8p-29'),
]


@pytest.mark.parametrize("case, want", NEGATIVE_TYPE_PINS)
def test_negative_type_bound_is_pinned(case, want):
    dim, n, seed, p = case
    space = FiniteMetricSpace(points=ball_sample_points(dim, 1.0, n, seed, p),
                              p=p)
    assert engine._negative_type_bound(space) == (float.fromhex(want), 0)


def test_negative_type_bound_fails_on_k32():
    assert engine._negative_type_bound(K32) == (None, 0)


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
    z = similarity_matrix(space, t)
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
    # held as d, for the dense solve
    "line": validate_metric(
        points_on_line([0.0, 0.1, 0.5, 2.0, 2.05, 7.0]).distances),
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
        mag = _mp_magnitude(similarity_matrix(space, t))
        assert res.defined, (name, t)
        assert res.magnitude == pytest.approx(float(mag), rel=1e-9), (name, t)


@pytest.mark.parametrize("space, t", [
    (K32, POLE),
    (K32, math.nextafter(POLE, 0.0)),
    (K32, math.nextafter(POLE, 1.0)),
    (validate_metric(points_on_line([0.0, 1e-300]).distances), 1.0),
])
def test_undefined_where_fifty_digits_see_no_trustworthy_solve(space, t):
    # at the K_{3,2} pole the float Z is too ill-conditioned for the
    # screen; with points 1e-300 apart, held as d so that the dense solve
    # answers, it is exactly singular
    res = solve_weighting(space, t)
    assert res.status == STATUS_UNDEFINED
    cond = _mp_condition(similarity_matrix(space, t))
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
    mag = float(_mp_magnitude(similarity_matrix(K32, t)))
    bound = np.finfo(float).eps * res.condition_estimate
    assert abs(res.magnitude - mag) <= bound * abs(mag), (offset, bound)


def test_relative_residual_gate_passes_a_near_pole_solve():
    # 2.1e-8 above the pole: weights near 1.7e7 leave a residual of about
    # 7.5e-9, over the old absolute gate of 1e-9 but far inside the
    # relative one, and the magnitude agrees with 50 digits to 1e-7
    t = 0.34657359740429104
    res = solve_weighting(K32, t)
    assert res.status == STATUS_PD
    assert res.residual > 1e-9
    mag = float(_mp_magnitude(similarity_matrix(K32, t)))
    assert res.magnitude == pytest.approx(mag, rel=1e-7)


def _near_copy(vertex, gap):
    """K_{3,2} plus a copy of vertex at distance gap from it."""
    n = K32.n_points
    d = np.zeros((n + 1, n + 1))
    d[:n, :n] = K32.distances
    d[n, :n] = d[:n, n] = K32.distances[vertex]
    d[n, vertex] = d[vertex, n] = gap
    return validate_metric(d)


def test_refinement_reaches_the_rounding_floor():
    # the LU rung's explicit inverse leaves a residual near 1e-10 here,
    # 1e-10 off in the magnitude too; refining until the residual reaches
    # n eps ||Z|| ||w|| recovers the magnitude to the last bits
    space, t = _near_copy(0, 1e-5), 0.011110798059892322
    res = solve_weighting(space, t)
    assert res.status == STATUS_INVERTIBLE
    mag = float(_mp_magnitude(similarity_matrix(space, t)))
    assert abs(res.magnitude - mag) <= 1e-12 * abs(mag)


def _band_top(space):
    # eigvalsh's top eigenvalue of the centred matrix, as the band path
    # computes it, whichever path definiteness_report takes
    return engine._eigenvalue_band(space.distances)[0]


def _verdict_oracle(space):
    # the verdict bands of definiteness_report, on eigvalsh's norm of d
    d = space.distances
    top = _band_top(space)
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
    return _band_top(space) / float(np.abs(np.linalg.eigvalsh(d)).max())


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
    # on d held (the points take the theorem and hold nothing): on a
    # failed proof the centred matrix while eigvalsh runs, else half a
    # factor at a time (LAPACK's working copies are untraced)
    held = FiniteMetricSpace(BUDGET_SPACE.distances)
    assert _peak_units(lambda: definiteness_report(held, 2.0), 300) <= 2.05


def test_solve_weighting_holds_half_a_factor():
    # one buffer of Z's block rows on and right of the diagonal, which the
    # kernel factors in place (0.5 + 32 / n), held whole from the start,
    # so one update buffer of the kernel, ROW_BLOCK n floats (0.21 at n =
    # 300), adds to it; the inverses of the diagonal blocks and the
    # product's scratch rows, which re-form Z's rows, come after it. 1.07
    # measured; 1.44 while a copy of Z's rows was kept beside the factor,
    # 1.64 while two update buffers overlapped, 1.84 while Z was held whole
    assert _peak_units(lambda: solve_weighting(BUDGET_SPACE, 2.0),
                       300) <= 1.1


# half a factor at n = 1000 is 0.532 units; the update buffer of a block
# shrinks with it (0.55 measured for both tests). The points take the
# theorem, which forms no matrix, so the Cholesky stages are traced on
# their d, held
LARGE_BUDGET_SPACE = ball_sample(3, 1.0, 1000, seed=7)
LARGE_BUDGET_HELD = FiniteMetricSpace(LARGE_BUDGET_SPACE.distances)


def test_large_solve_holds_half_a_factor():
    # 0.67 measured, 1.13 while a copy of Z's rows was kept beside the
    # factor
    assert _peak_units(lambda: solve_weighting(LARGE_BUDGET_SPACE, 2.0),
                       1000) <= 0.7


def test_positive_definite_test_holds_half_a_factor():
    # Z's rows formed from d a block at a time: no n x n array
    assert _peak_units(
        lambda: is_positive_definite(LARGE_BUDGET_HELD, 2.0), 1000) <= 0.6


def test_definiteness_proof_holds_half_a_factor():
    # the shifted matrix's rows formed from d and its row means a block at
    # a time, its factor freed before the PD test factors Z's rows; the
    # first call also imports fractions
    definiteness_report(K32, 1.0)
    rep = []
    peak = _peak_units(
        lambda: rep.append(definiteness_report(LARGE_BUDGET_HELD, 2.0)), 1000)
    assert rep[0].negative_type_proof == PROOF_CHOLESKY
    assert peak <= 0.6


def test_check_command_holds_d_and_half_a_factor(capsys, monkeypatch):
    # the `check` call on a held d, from the space on: the proof, the PD
    # test and the output, half a factor at a time beyond d. 0.59
    # measured while the points took the proof; 1.58 while the space held
    # d, 2.09 while each factor was an n x n array. Reading d is traced
    # apart (test_explicit_matrix_is_validated_without_a_copy)
    argv = ["check", "--ball", "3,1,1000", "--seed", "7", "--t", "2"]
    args = cli.build_parser().parse_args(argv)
    inputs = cli._space_inputs(args)[1]
    monkeypatch.setattr(cli, "_space_inputs",
                        lambda args, line: (LARGE_BUDGET_HELD, inputs))
    cli.main(argv)  # imports, so that only the call itself is traced
    peak = _peak_units(lambda: cli.main(argv), 1000)
    assert json.loads(capsys.readouterr().out.splitlines()[-1])[
        "results"]["negative_type_proof"] == PROOF_CHOLESKY
    assert peak <= 0.65


LINE_CSV = "\n".join(",".join(str(abs(i - j)) for j in range(600))
                     for i in range(600))


def test_explicit_matrix_is_validated_without_a_copy(tmp_path):
    # --matrix: the reader's array, grown in place as the file's lines are
    # read and digested one at a time, which validate_metric then takes
    # over, and the triangle scan's blocks (0.43 units at n = 600); 1.49
    # measured, 1.95 while the text was read whole, 2.95 while the array
    # was copied
    n = 600
    path = tmp_path / "line.csv"
    path.write_text(LINE_CSV)
    args = cli.build_parser().parse_args(["mag", "--matrix", str(path)])
    spaces = []
    peak = _peak_units(lambda: spaces.append(cli._space_inputs(args)), n)
    assert spaces[0][0].distances[0, -1] == n - 1
    assert peak <= 1.5


def test_stdin_matrix_is_streamed_without_a_copy(monkeypatch):
    # --stdin-matrix, the same: 1.49 measured, 1.95 while stdin was read
    # whole
    n = 600
    monkeypatch.setattr("sys.stdin", io.StringIO(LINE_CSV))
    args = cli.build_parser().parse_args(["mag", "--stdin-matrix"])
    spaces = []
    peak = _peak_units(lambda: spaces.append(cli._space_inputs(args)), n)
    assert spaces[0][0].distances[0, -1] == n - 1
    assert peak <= 1.5


def test_min_distance_makes_no_square_copy():
    assert _peak_units(lambda: BUDGET_SPACE.min_distance, 300) <= 0.1


def test_triangle_scan_holds_no_square_array():
    # blocks of _SCAN_ROWS rows by _SCAN_KS values of k: about 0.45 n^2
    # at n = 600, where a per-k n x n slack buffer alone would be 1
    d = ball_sample(3, 1.0, 600, seed=7).distances
    peak = _peak_units(lambda: first_triangle_violation(d, 0.0), 600)
    assert peak <= 0.6


def test_active_set_holds_half_a_factor():
    # Cholesky accepts Z here, so the active set runs (4 passes) on the
    # factor it gives: half a factor, a block of Z's rows and the kernel's
    # update buffer, no n x n Z (0.83 measured; 2.23 while Z was held and
    # each support gathered from it)
    sp = ball_sample(3, 1.0, 300, seed=3)
    res = []
    peak = _peak_units(lambda: res.append(max_diversity(sp, 4.0)), 300)
    assert res[0].method == "active_set"
    assert peak <= 1.0


def test_dimension_estimate_holds_half_a_factor():
    # the active set at each of 12 scales on a 256-point 2-D ball sample,
    # and a line fit in closed form (0.98 measured)
    ball = ball_sample(2, 1.0, 256, seed=1)
    assert max_diversity(ball, 1.0).method == "active_set"
    peak = _peak_units(lambda: dimension_estimate(ball, 1.0, 100.0), 256)
    assert peak <= 1.2


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
        got = similarity_matrix(space, t)
        assert got.tobytes() == want.tobytes(), t
