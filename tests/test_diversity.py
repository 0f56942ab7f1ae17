"""Maximum diversity, covering numbers, and growth-rate dimension."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magnitude import backend_name
from magnitude.diversity import (
    EXACT_DIVERSITY_LIMIT,
    DiversityError,
    NonConvergence,
    TooLarge,
    WindowTooNarrow,
    _active_set,
    _solve_each,
    dimension_estimate,
    fw_away_qp,
    greedy_covering_number,
    kkt_gap,
    max_diversity,
    max_diversity_exact,
)
from magnitude.engine import (
    is_positive_definite,
    magnitude,
    similarity_matrix,
    similarity_rows,
)
from magnitude.spaces import (
    FiniteMetricSpace,
    ball_sample,
    cantor_endpoints,
    graph_metric,
    lp_grid,
    points_on_line,
    validate_metric,
)
from magnitude.sweeps import fit_line
from oracles import (
    EXACT_COVERING_LIMIT,
    active_set_held_z,
    covering_number,
    max_diversity_support_loop,
    named_graph_edges,
    packing_number,
)

C5 = graph_metric(named_graph_edges("c5"))
K32 = graph_metric(named_graph_edges("k32"))


# ---------------------------------------------------------------------------
# the Frank-Wolfe kernel


def _random_similarity(rng, n):
    pts = rng.uniform(0.0, 1.0, size=(n, 3))
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    return np.exp(-d)


def test_backend_name_is_numpy():
    assert backend_name() == "numpy"


def _fw(Z, tol, max_iters):
    """fw_away_qp on a held Z."""
    return fw_away_qp(lambda lo, hi, out=None: Z[lo:hi], len(Z), tol,
                      max_iters)


def test_fw_simplex_invariants():
    rng = np.random.default_rng(3)
    Z = _random_similarity(rng, 17)
    mu, f, gap, it = _fw(Z, 1e-10, 100000)
    assert gap <= 1e-10 and it < 100000
    assert np.all(mu >= 0.0)
    assert np.sum(mu) == pytest.approx(1.0, abs=1e-12)
    assert f == pytest.approx(float(mu @ Z @ mu), abs=1e-12)


def test_fw_flags_negative_curvature():
    # indefinite 2x2: the first toward step has d'Zd < 0, so it takes its
    # cap and lands on a vertex
    Z = np.array([[1.0, 2.0], [2.0, 1.5]])
    mu, f, gap, it = _fw(Z.copy(), 1e-12, 100)
    assert gap <= 1e-12
    assert mu[0] == pytest.approx(1.0, abs=1e-15)
    assert f == pytest.approx(1.0, abs=1e-15)


def test_fw_max_iters_status():
    rng = np.random.default_rng(5)
    Z = _random_similarity(rng, 20)
    mu, f, gap, it = _fw(Z, 1e-14, 3)
    assert it == 3
    assert gap > 1e-14
    # no pass, no measured gap: never read as converged
    assert _fw(Z, 1.0, 0)[2:] == (np.inf, 0)


def _row_reader_cases():
    """(space, t) over lines, grids, cycles, complete bipartite graphs and
    seeded balls, some past one 64-row block, some with Z not PSD."""
    lines = [points_on_line([0.0, 0.3, 1.1, 2.0]),
             points_on_line(np.linspace(0.0, 2.0, 150))]
    grids = [lp_grid([7, 5], spacing=0.2), lp_grid([201], spacing=0.005),
             lp_grid([9, 9], p=1, spacing=0.1)]
    graphs = [graph_metric(named_graph_edges(name))
              for name in ("c5", "c6", "k32", "k3,3", "k4,4")]
    balls = [ball_sample(dim, 1.0, count, seed=seed) for dim, count, seed
             in ((1, 9, 1), (2, 40, 2), (3, 130, 3), (3, 300, 4))]
    for sp in lines + grids + graphs + balls:
        for t in (0.05, 0.3, 1.0, 4.0, 40.0):
            yield sp, t


def test_fw_on_the_row_reader_is_fw_on_z():
    for sp, t in _row_reader_cases():
        for max_iters in (0, 1, sp.n_points, 500):
            rows = fw_away_qp(similarity_rows(sp, t), sp.n_points, 1e-12,
                              max_iters)
            dense = _fw(similarity_matrix(sp, t), 1e-12, max_iters)
            assert rows[0].tobytes() == dense[0].tobytes()
            assert rows[1:] == dense[1:]


def test_row_reader_rows_are_rows_of_z():
    sp = ball_sample(2, 1.0, 70, seed=9)
    z = similarity_matrix(sp, 1.5)
    rows = similarity_rows(sp, 1.5)
    for v in (0, 33, 69):
        row = rows(v, v + 1)[0]
        assert row.tobytes() == z[v].tobytes() == z[:, v].tobytes()
        assert row[v] == 1.0
    assert rows(64, 70).tobytes() == z[64:70].tobytes()
    assert rows(3, 9, 5).tobytes() == z[3:9, 5:].tobytes()
    out = np.empty((1, 70))
    assert rows(5, 6, out=out) is out and out.tobytes() == z[5:6].tobytes()


def test_fw_certified_diversity_holds_no_n_by_n_array():
    # the dim --grid 1001 shape at a scale whose short Frank-Wolfe run
    # certifies: one 64-row block of Z (0.064 units) at a time, formed
    # from the grid's points, and no d (0.066 measured)
    import tracemalloc

    grid = lp_grid([1001], spacing=1.0 / 1000)
    assert max_diversity(grid, 100.0, 1e-6, 300_000).method == "frank_wolfe"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        max_diversity(grid, 100.0, 1e-6, 300_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 0.08 * 1001 * 1001 * 8


def test_active_set_on_a_held_d_copies_each_support_once():
    # a support's block of d is gathered by one fancy index, which copies
    # it: 2.01 units traced at n = 600 (support 599) while it was copied
    # again, 1.66 since (the block, half a factor and a block of rows)
    import tracemalloc

    n = 600
    held = FiniteMetricSpace(ball_sample(3, 1.0, n, seed=1).distances)
    res = max_diversity(held, 8.0)
    assert res.method == "active_set" and len(res.support) == n - 1
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        max_diversity(held, 8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 1.8 * n * n * 8


def test_active_set_scans_no_subspace(monkeypatch):
    # each support's subspace takes the parent's diameter as its overflow
    # bound, so only the parent's d is ever scanned, as the sample was
    # built; each of 3 supports was scanned again before
    scanned = []
    scan = FiniteMetricSpace._scan

    def counting(self):
        if self._extremes is None:
            scanned.append(self.n_points)
        return scan(self)

    space = ball_sample(3, 1.0, 300, seed=3)
    monkeypatch.setattr(FiniteMetricSpace, "_scan", counting)
    res = max_diversity(space, 4.0)
    assert res.method == "active_set" and res.iterations > 1
    assert scanned == []


# ---------------------------------------------------------------------------
# maximum diversity


def test_uniform_distribution_optimal_on_homogeneous_spaces():
    res = max_diversity(C5, 1.0)
    assert res.weights == pytest.approx(np.full(5, 0.2), abs=1e-12)
    assert res.support == (0, 1, 2, 3, 4)
    assert res.kkt_gap <= 1e-9
    assert res.value == pytest.approx(magnitude(C5, 1.0), abs=1e-9)


def test_solver_matches_enumeration_oracle():
    spaces = [
        (C5, 1.0),
        (K32, 2.0),
        (K32, 0.1),
        (points_on_line([0.0, 0.3, 1.1, 2.0]), 0.7),
        (ball_sample(2, 1.0, 9, seed=8), 1.5),
    ]
    for sp, t in spaces:
        fw = max_diversity(sp, t)
        ex = max_diversity_exact(sp, t)
        assert fw.value == pytest.approx(ex.value, abs=1e-7)


def test_k32_diversity_exceeds_magnitude_below_the_pole():
    # 3-point support beats the full-support stationary point
    ex = max_diversity_exact(K32, 0.1)
    assert ex.support == (0, 1, 2)
    assert ex.value == pytest.approx(1.1374573592819663, abs=1e-12)
    assert ex.value > magnitude(K32, 0.1) + 0.03
    assert not is_positive_definite(K32, 0.1)


def test_diversity_equals_magnitude_on_line_subsets():
    rng = np.random.default_rng(23)
    for _ in range(10):
        pts = np.unique(rng.random(int(rng.integers(2, 12))) * 4.0)
        sp = points_on_line(pts)
        t = float(rng.uniform(0.2, 3.0))
        assert max_diversity(sp, t).value == pytest.approx(
            magnitude(sp, t), abs=1e-7
        )


def test_diversity_at_most_magnitude_when_positive_definite():
    rng = np.random.default_rng(24)
    for seed in range(6):
        sp = ball_sample(3, 1.0, int(rng.integers(5, 25)), seed=seed + 100)
        t = float(rng.uniform(0.3, 3.0))
        assert is_positive_definite(sp, t)
        assert max_diversity(sp, t).value <= magnitude(sp, t) + 1e-8


def test_diversity_nondecreasing_in_scale():
    rng = np.random.default_rng(25)
    for sp in (K32, C5, ball_sample(2, 1.0, 15, seed=77)):
        ts = np.sort(rng.uniform(0.05, 6.0, size=8))
        vals = [max_diversity(sp, float(t)).value for t in ts]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_diversity_between_one_and_n():
    rng = np.random.default_rng(26)
    for seed in range(5):
        sp = ball_sample(2, 1.0, 12, seed=seed + 300)
        t = float(rng.uniform(0.1, 5.0))
        val = max_diversity(sp, t).value
        assert 1.0 - 1e-12 <= val <= sp.n_points + 1e-9


def test_kkt_gap_zero_at_optimum_positive_elsewhere():
    z = similarity_matrix(C5, 1.0)
    assert kkt_gap(z, np.full(5, 0.2)) <= 1e-12
    lopsided = np.array([0.9, 0.1, 0.0, 0.0, 0.0])
    assert kkt_gap(z, lopsided) > 1e-3


def test_nonconvergence_carries_iterations_and_gap():
    # Z of K_{3,2} is not positive definite at t = 0.1, so only
    # Frank-Wolfe runs; a positive definite Z would go to the active set
    assert not is_positive_definite(K32, 0.1)
    with pytest.raises(NonConvergence) as err:
        max_diversity(K32, 0.1, tol=1e-15, max_iters=3)
    assert err.value.iterations == 3
    assert err.value.gap > 0


def test_non_positive_definite_k32_stays_on_frank_wolfe():
    for t in (0.05, 0.1, 0.2, 0.3):
        assert not is_positive_definite(K32, t)
        res = max_diversity(K32, t)
        assert res.method == "frank_wolfe"
        assert res.kkt_gap <= 1e-9


def test_active_set_certifies_positive_definite_ball():
    # 300 Frank-Wolfe iterations miss tol here; the active set does not
    sp = ball_sample(3, 1.0, 300, seed=3)
    assert is_positive_definite(sp, 4.0)
    res = max_diversity(sp, 4.0)
    assert res.method == "active_set"
    assert res.kkt_gap <= 1e-12
    assert 1 <= res.iterations <= 3 * sp.n_points
    w = res.weights
    assert w.min() >= 0 and w.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.support == tuple(np.flatnonzero(w > 0))
    assert res.value <= magnitude(sp, 4.0) + 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(20, 120), st.integers(0, 10_000),
       st.floats(1.0, 60.0), st.booleans())
def test_active_set_on_rows_is_the_held_z_active_set(dim, count, seed, t,
                                                     held):
    # the run that reads Z by rows, and refactors each support from the
    # subspace on it, makes every choice of the run on a held Z: the same
    # passes, support and weights. Its value mu (Z mu) may differ from
    # (mu Z) mu in the last bits (3 ulps seen)
    sp = ball_sample(dim, 1.0, count, seed=seed)
    if held:
        sp = validate_metric(sp.distances)  # a space that holds d
    rows = similarity_rows(sp, t)
    assume(fw_away_qp(rows, count, 1e-9, count)[2] > 1e-9)
    got = _active_set(sp, t, rows, 1e-9)
    want = active_set_held_z(similarity_matrix(sp, t), 1e-9)
    assert (got is None) == (want is None)
    if got is not None:
        assert (got.support, got.iterations, got.method) == (
            want.support, want.iterations, want.method)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.value == pytest.approx(want.value, rel=1e-15, abs=0)
        assert got.kkt_gap <= 1e-9


def test_result_names_its_method():
    assert max_diversity_exact(C5, 1.0).method == "support_enumeration"
    assert max_diversity(C5, 1.0).method == "frank_wolfe"  # uniform optimum


def _oracle_cases():
    """(name, space, t) with n <= 12: seeded ball samples and named graphs,
    K_{3,2} among them on both sides of its pole at t = log 2 / 2."""
    balls = st.builds(
        lambda dim, count, seed: ("ball", ball_sample(dim, 1.0, count, seed=seed)),
        st.integers(1, 3), st.integers(1, 12), st.integers(0, 10_000))
    graphs = st.sampled_from(["k32", "c5", "c6", "k4", "p4", "k3,3"]).map(
        lambda name: (name, graph_metric(named_graph_edges(name))))
    return st.tuples(balls | graphs, st.floats(0.05, 6.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_oracle_cases())
def test_solver_matches_enumeration_oracle_property(case):
    (name, sp), t = case
    value = max_diversity(sp, t).value
    exact = max_diversity_exact(sp, t).value
    assert value <= exact + 1e-7
    # on a Z that is not positive semidefinite the gap certifies only a
    # stationary point: Frank-Wolfe finds the optimum of K_{3,2}, not of
    # K_{3,3} below its pole
    if name == "k32" or is_positive_definite(sp, t):
        assert value == pytest.approx(exact, abs=1e-7)


@pytest.mark.parametrize("t", [0.05, 0.2, 0.3, 0.34])
def test_solver_matches_oracle_on_non_positive_definite_k32(t):
    assert not is_positive_definite(K32, t)
    assert max_diversity(K32, t).value == pytest.approx(
        max_diversity_exact(K32, t).value, abs=1e-7)


def _same_search(sp, t):
    fast = max_diversity_exact(sp, t)
    loop = max_diversity_support_loop(sp, t)
    assert fast.value == loop.value
    assert fast.support == loop.support
    assert fast.kkt_gap == loop.kkt_gap
    assert fast.iterations == loop.iterations == 2 ** sp.n_points - 1
    assert fast.weights.tobytes() == loop.weights.tobytes()


def _small_spaces():
    """Spaces of at most 10 points: seeded balls, points on a line, and
    named graphs with K_{3,3} and K_{4,4} among them."""
    balls = st.builds(lambda dim, count, seed: ball_sample(dim, 1.0, count, seed=seed),
                      st.integers(1, 3), st.integers(1, 10), st.integers(0, 10_000))
    lines = st.lists(st.integers(0, 4000), min_size=1, max_size=10,
                     unique=True).map(lambda xs: points_on_line([x / 1000 for x in xs]))
    graphs = st.sampled_from(["k32", "k3,3", "k4,4", "c5", "c6", "k4", "p4"]).map(
        lambda name: graph_metric(named_graph_edges(name)))
    return balls | lines | graphs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_spaces(), st.floats(0.05, 6.0) | st.just(np.log(2.0) / 2))
def test_batched_support_search_is_the_support_loop(sp, t):
    _same_search(sp, t)


def test_batched_support_search_at_the_k32_pole():
    # Z of K_{3,2} is singular at t = log 2 / 2 in exact arithmetic
    _same_search(K32, float(np.log(2.0) / 2))
    _same_search(graph_metric(named_graph_edges("k3,3")), 0.3)
    _same_search(graph_metric(named_graph_edges("k4,4")), 1.0)


def test_singular_batch_falls_back_to_one_solve_per_support():
    # at t = 1e-14 the points 1e-3 apart have similarity exactly 1, so
    # the 2-point batch holds one exactly singular system among nonsingular
    # ones: numpy refuses the batch, and each support is solved alone
    sp = points_on_line([0.0, 1e-3, 2e6, 5e6])
    z = similarity_matrix(sp, 1e-14)
    assert z[0, 1] == 1.0 and z[0, 2] < 1.0
    pairs = np.array([[0, 1], [0, 2], [1, 3]])
    stack = z[pairs[:, :, None], pairs[:, None, :]]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(stack, np.ones((3, 2, 1)))
    ys = _solve_each(stack)
    assert (ys[0] == 0.0).all()
    for y, a in zip(ys[1:], stack[1:]):
        assert y.tobytes() == np.linalg.solve(a, np.ones(2)).tobytes()
    _same_search(sp, 1e-14)


def test_exact_solver_size_limit():
    sp = ball_sample(2, 1.0, EXACT_DIVERSITY_LIMIT + 1, seed=4)
    with pytest.raises(TooLarge):
        max_diversity_exact(sp, 1.0)


# ---------------------------------------------------------------------------
# covering and packing


def test_grid_covering_numbers():
    grid = points_on_line(np.linspace(0.0, 1.0, 11))
    assert covering_number(grid, 0.25) == 3
    assert greedy_covering_number(grid, 0.25) >= 3
    assert packing_number(grid, 0.25) == 3


def test_whole_space_is_one_ball_beyond_diameter():
    assert covering_number(K32, 2.5) == 1
    assert covering_number(K32, 2.0) == 1  # closed balls


def test_cantor_covering_sixteen():
    c3 = cantor_endpoints(3)
    assert c3.n_points == 16
    assert covering_number(c3, 1.0 / 54.0) == 16
    assert packing_number(c3, 1.0 / 54.0) == 16
    # twice the radius merges endpoint pairs
    assert covering_number(c3, 1.0 / 27.0) == 8


def test_packing_never_exceeds_covering():
    rng = np.random.default_rng(31)
    for seed in range(8):
        sp = ball_sample(2, 1.0, int(rng.integers(4, 20)), seed=seed + 40)
        eps = float(rng.uniform(0.05, 1.2))
        assert packing_number(sp, eps) <= covering_number(sp, eps)
        assert covering_number(sp, eps) <= greedy_covering_number(sp, eps)


def test_covering_size_limit_and_bad_radius():
    sp = ball_sample(2, 1.0, EXACT_COVERING_LIMIT + 1, seed=6)
    with pytest.raises(TooLarge):
        covering_number(sp, 0.5)
    with pytest.raises(DiversityError, match=r"^radius must be >= 0, got -0.1$"):
        greedy_covering_number(K32, -0.1)
    # a NaN radius once never ended; an infinite one covers with one ball
    with pytest.raises(DiversityError,
                       match=r"^radius must be a finite number, got nan$"):
        greedy_covering_number(K32, math.nan)
    assert greedy_covering_number(K32, math.inf) == 1
    with pytest.raises(DiversityError):
        packing_number(K32, -0.1)


# ---------------------------------------------------------------------------
# dimension estimates


def test_line_grid_covering_growth_slope_near_one():
    line = points_on_line(np.linspace(0.0, 1.0, 101))
    est = dimension_estimate(line, 5.0, 50.0, method="covering_growth")
    assert 0.8 <= est.slope <= 1.1
    assert est.method == "covering_growth"
    assert est.window == (5.0, 50.0)


def test_diversity_growth_slope_on_small_line():
    line = points_on_line(np.linspace(0.0, 1.0, 65))
    est = dimension_estimate(line, 4.0, 40.0, samples=8)
    assert 0.75 <= est.slope <= 1.1
    assert est.fit_residual < 0.2


def test_criterion_12_rungs():
    # the scales of acceptance criterion 12, counted rung by rung: the
    # Cantor endpoints need the active set at every scale, the interval
    # grid certifies within its first n Frank-Wolfe iterations
    cant = cantor_endpoints(10)
    for t in np.geomspace(10.0, 1000.0, 12):
        res = max_diversity(cant, float(t), 1e-6, 300_000)
        assert (res.method, res.iterations) == ("active_set", 1)
        assert res.kkt_gap <= 1e-12
    grid = lp_grid([2001], spacing=1.0 / 2000)
    for t in np.geomspace(50.0, 1000.0, 12):
        res = max_diversity(grid, float(t), 1e-6, 300_000)
        assert res.method == "frank_wolfe"
        assert res.iterations <= grid.n_points and res.kkt_gap <= 1e-6


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(-3.0, 3.0), st.floats(0.3, 4.0), st.floats(0.1, 3.0),
       st.floats(-5.0, 5.0), st.floats(-4.0, 0.0), st.integers(0, 10_000))
def test_line_fit_is_the_least_squares_line(log_tmin, log_ratio, slope,
                                            intercept, log_noise, seed):
    # the closed form against numpy's least squares on the window's ten
    # fitted log-scales, at least a factor 2 apart end to end
    lt = np.log(np.geomspace(10.0 ** log_tmin,
                             10.0 ** (log_tmin + log_ratio), 12))[1:-1]
    noise = np.random.default_rng(seed).normal(0.0, 10.0 ** log_noise,
                                               lt.size)
    lq = slope * lt + intercept + noise
    got = fit_line(lt, lq)
    want_slope, want_intercept = np.polyfit(lt, lq, 1)
    want_resid = np.sqrt(np.mean((lq - (want_slope * lt + want_intercept))
                                 ** 2))
    scale = np.abs(lq).max()
    assert got[0] == pytest.approx(want_slope, rel=1e-12)
    assert got[1] == pytest.approx(want_intercept, abs=1e-12 * scale)
    assert got[2] == pytest.approx(want_resid, abs=1e-12 * scale)


def test_dimension_estimate_needs_no_least_squares_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    # and the name np.polyfit calls, bound where it is defined
    monkeypatch.setitem(inspect.unwrap(np.polyfit).__globals__, "lstsq",
                        refuse)
    with pytest.raises(AssertionError):
        np.polyfit([0.0, 1.0, 2.0], [1.0, 2.0, 4.0], 1)  # the patch bites
    line = points_on_line(np.linspace(0.0, 1.0, 65))
    est = dimension_estimate(line, 4.0, 40.0, samples=8)
    assert 0.75 <= est.slope <= 1.1


def test_collapsed_window_is_too_narrow():
    # distinct bounds whose geometric samples round onto fewer scales:
    # 2 distinct ones at 1 + 2^-52, 6 at 1 + 1e-15; refused before any
    # quantity is computed, as the fit would divide by no spread
    line = points_on_line(np.linspace(0.0, 1.0, 5))
    for t_max in (1.0000000000000002, 1.000000000000001):
        with pytest.raises(WindowTooNarrow, match="distinct fitted scales"):
            dimension_estimate(line, 1.0, t_max)
    est = dimension_estimate(line, 1.0, 1.0 + 1e-9)
    assert math.isfinite(est.slope)


def test_window_and_method_validation():
    line = points_on_line(np.linspace(0.0, 1.0, 9))
    with pytest.raises(WindowTooNarrow):
        dimension_estimate(line, 5.0, 1.0)
    with pytest.raises(WindowTooNarrow):
        dimension_estimate(line, 1.0, 5.0, samples=5)
    with pytest.raises(DiversityError):
        dimension_estimate(line, 1.0, 5.0, method="no_such_method")


def test_covering_certificate():
    grid = points_on_line(np.linspace(0.0, 1.0, 11))
    k, centers = covering_number(grid, 0.25, with_centers=True)
    assert k == 3 and len(centers) == 3
    d = grid.distances
    # certified centers really cover every point
    assert all(min(d[c, j] for c in centers) <= 0.25 for j in range(11))

    c3 = cantor_endpoints(3)
    k, centers = covering_number(c3, 1.0 / 54.0, with_centers=True)
    assert k == 16 and centers == tuple(range(16))

    k, centers = covering_number(grid, 5.0, with_centers=True)
    assert k == 1 and len(centers) == 1
