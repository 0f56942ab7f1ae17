"""Maximum diversity, covering numbers, and growth-rate dimension."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magnitude import backend_name, diversity
from magnitude.diversity import (
    EXACT_DIVERSITY_LIMIT,
    DiversityError,
    NonConvergence,
    TooLarge,
    WindowTooNarrow,
    _active_set,
    _ladder,
    _unit_solve,
    dimension_estimate,
    fw_away_qp,
    greedy_covering_number,
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
from magnitude.supports import SEARCH_LIMIT, search, similarity
from magnitude.sweeps import fit_line
from oracles import (
    EXACT_COVERING_LIMIT,
    active_set_held_z,
    ball_sample_points,
    covering_number,
    kkt_gap,
    max_diversity_support_loop,
    named_graph_edges,
    packing_number,
    smallest_eigenvalues,
)

C5 = graph_metric(named_graph_edges("c5"))
K32 = graph_metric(named_graph_edges("k32"))
K33 = graph_metric(named_graph_edges("k33"))


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
    # the dim --grid 1001 shape, and one four times larger: the line rung
    # answers from the coordinates in O(n) memory, no block of Z and no d
    # (473 and 482 bytes a point measured; one 64-row block of Z alone is
    # 512 n bytes)
    import tracemalloc

    for n in (1001, 4001):
        grid = lp_grid([n], spacing=1.0 / (n - 1))
        assert max_diversity(grid, 100.0, 1e-6, 300_000).method == "line"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            max_diversity(grid, 100.0, 1e-6, 300_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 600 * n


def test_active_set_on_a_held_d_copies_each_support_once():
    # a support's block of d is gathered by one fancy index, which copies
    # it: 2.01 units traced at n = 600 (support 599) while it was copied
    # again, 1.66 since (the block, half a factor and a block of rows)
    import tracemalloc

    n = 600
    # the support of n - 1 points is that of numpy's Philox sample at seed 1
    pts = ball_sample_points(3, 1.0, n, 1)
    held = FiniteMetricSpace(FiniteMetricSpace(points=pts, p=2).distances)
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
        fw = _ladder(sp, t, 1e-9, 100_000)
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
        _ladder(K32, 0.1, 1e-15, 3)
    assert err.value.iterations == 3
    assert err.value.gap > 0


def test_non_positive_definite_k32_stays_on_frank_wolfe():
    for t in (0.05, 0.1, 0.2, 0.3):
        assert not is_positive_definite(K32, t)
        res = _ladder(K32, t, 1e-9, 100_000)
        assert (res.method, res.certificate) == ("frank_wolfe", "stationary")
        assert res.kkt_gap <= 1e-9


def test_active_set_certifies_positive_definite_ball():
    # 300 Frank-Wolfe iterations miss tol here; the active set does not
    sp = ball_sample(3, 1.0, 300, seed=3)
    assert is_positive_definite(sp, 4.0)
    res = max_diversity(sp, 4.0)
    assert (res.method, res.certificate) == ("active_set", "global")
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
    got = _active_set(sp, t, rows, _unit_solve(rows, count), 1e-9)
    want = active_set_held_z(similarity_matrix(sp, t), 1e-9)
    assert (got is None) == (want is None)
    if got is not None:
        assert (got.support, got.iterations, got.method) == (
            want.support, want.iterations, want.method)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.value == pytest.approx(want.value, rel=1e-15, abs=0)
        assert got.kkt_gap <= 1e-9


def test_frank_wolfe_on_a_positive_definite_z_is_global(monkeypatch):
    # where the active set gives up on a Z that Cholesky accepts, the
    # problem is still convex, so Frank-Wolfe's gap certifies the maximum
    sp = ball_sample(3, 1.0, 30, seed=1)
    want = max_diversity(sp, 1.0)
    assert (want.method, want.certificate) == ("active_set", "global")
    monkeypatch.setattr(diversity, "_active_set", lambda *args: None)
    res = max_diversity(sp, 1.0)
    assert (res.method, res.certificate) == ("frank_wolfe", "global")
    assert res.kkt_gap <= 1e-9
    assert res.value == pytest.approx(want.value, rel=1e-9)


def test_result_names_its_method():
    for res in (max_diversity_exact(C5, 1.0), max_diversity(C5, 1.0)):
        assert (res.method, res.certificate) == ("support_enumeration",
                                                 "global")
        assert res.iterations == 2**5 - 1
    # Cholesky accepts C5's Z: the active set answers, global
    res = _ladder(C5, 1.0, 1e-9, 100_000)
    assert (res.method, res.certificate) == ("active_set", "global")
    # it rejects K_{3,3}'s at 0.5, where Frank-Wolfe stops at the saddle
    # of its uniform start, stationary as far as it can tell
    assert not is_positive_definite(K33, 0.5)
    res = _ladder(K33, 0.5, 1e-9, 100_000)
    assert (res.method, res.certificate) == ("frank_wolfe", "stationary")
    assert res.value == pytest.approx(1.687597155320145, rel=1e-12)


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
    value = _ladder(sp, t, 1e-9, 100_000).value
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
    assert _ladder(K32, t, 1e-9, 100_000).value == pytest.approx(
        max_diversity_exact(K32, t).value, abs=1e-7)


# a support whose Z_S has an eigenvalue within this of 0 may fall either
# way: the search's bordering pivots and numpy's eigenvalues round
# differently there (at a pole of K_{a,b}, say); seen within 1e-14
DEFINITE_MARGIN = 1e-10


def _same_search(sp, t):
    # the search against one np.linalg.solve per support (the Z of
    # math.exp against np.exp's, and two eliminations, which may differ in
    # the last bits): the value to rounding, the same support, and the
    # positive definite supports visited. The weights agree to
    # cond(Z_S) eps: 7e-11 apart for K_{3,3} a relative 1e-6 past its pole
    # at t = log 2
    got = max_diversity_exact(sp, t)
    loop = max_diversity_support_loop(sp, t)
    assert got.value == pytest.approx(loop.value, rel=1e-12, abs=0)
    assert got.support == loop.support
    lam = smallest_eigenvalues(similarity_matrix(sp, t))
    unsure = int((abs(lam) <= DEFINITE_MARGIN).sum())
    assert abs(got.iterations - loop.iterations) <= unsure
    assert got.weights == pytest.approx(loop.weights, abs=1e-9)
    assert got.kkt_gap == pytest.approx(loop.kkt_gap, abs=1e-9)


def _bipartite_poles(a, b):
    """The scales where Z of K_{a,b} is singular: x = exp(-2t) solves
    (1 + (a-1) x)(1 + (b-1) x) = a b x, from the block of Z on the part
    indicators (the other eigenvalues are 1 - x > 0)."""
    qa, qb, qc = (a - 1) * (b - 1), a + b - 2 - a * b, 1
    if qa == 0:
        roots = [-qc / qb]
    else:
        disc = qb * qb - 4 * qa * qc
        roots = [] if disc < 0 else [(-qb + sign * math.sqrt(disc)) / (2 * qa)
                                     for sign in (-1, 1)]
    return [-math.log(x) / 2 for x in roots if 0 < x < 1]


@st.composite
def _connected_graphs(draw):
    """A random connected graph of at most 10 vertices: a random tree,
    each vertex hung from an earlier one, and up to 2n more edges."""
    n = draw(st.integers(1, 10))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return graph_metric(sorted(edges), n_vertices=n)


@st.composite
def _bipartite_across_the_pole(draw):
    """K_{a,b}, a + b <= 10, at one of its poles, near one, or anywhere."""
    a = draw(st.integers(1, 5))
    b = draw(st.integers(a, 10 - a))
    poles = _bipartite_poles(a, b)
    t = draw(st.floats(0.01, 3.0) | (st.sampled_from(poles).flatmap(
        lambda p: st.sampled_from([p, p * (1 - 1e-9), p * (1 + 1e-6)]))
        if poles else st.nothing()))
    return graph_metric(named_graph_edges(f"k{a},{b}")), t


def test_bipartite_poles():
    # K_{3,2}'s one pole is log 2 / 2; at each pole Z has a zero eigenvalue
    assert _bipartite_poles(3, 2) == [pytest.approx(np.log(2.0) / 2, rel=1e-15)]
    for a, b in ((3, 3), (4, 5), (2, 7)):
        for pole in _bipartite_poles(a, b):
            z = similarity_matrix(graph_metric(named_graph_edges(f"k{a},{b}")),
                                  pole)
            assert np.abs(np.linalg.eigvalsh(z)).min() < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_connected_graphs() | st.integers(3, 10).map(
    lambda n: graph_metric(named_graph_edges(f"c{n}"))), st.floats(0.01, 6.0))
def test_support_search_is_the_support_loop(sp, t):
    _same_search(sp, t)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_bipartite_across_the_pole())
def test_support_search_across_the_bipartite_poles(case):
    _same_search(*case)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 15), st.integers(0, 10_000),
       st.floats(0.05, 6.0))
def test_support_search_on_ball_samples(dim, count, seed, t):
    _same_search(ball_sample(dim, 1.0, count, seed=seed), t)


def test_support_search_at_the_k32_pole():
    # Z of K_{3,2} is singular at t = log 2 / 2 in exact arithmetic; K_{3,3}
    # and K_{4,4} are not positive semidefinite at these scales
    _same_search(K32, float(np.log(2.0) / 2))
    _same_search(graph_metric(named_graph_edges("k3,3")), 0.3)
    _same_search(graph_metric(named_graph_edges("k4,4")), 1.0)


def test_a_singular_support_is_skipped_with_every_support_below_it():
    # at t = 1e-14 the points 1e-3 apart have similarity exactly 1, so the
    # pair's bordering pivot is 0: the search skips {0, 1} and the three
    # supports below it, {0, 1, 2}, {0, 1, 2, 3} and {0, 1, 3}, and visits
    # the other 11
    sp = points_on_line([0.0, 1e-3, 2e6, 5e6])
    z = similarity(sp.distances.tolist(), 1e-14)
    assert z[0][1] == 1.0 and z[0][2] < 1.0
    assert search(z).iterations == 11
    _same_search(sp, 1e-14)


def test_indefinite_supports_are_not_visited():
    # on this 6-vertex graph at t = 0.1 three supports have a Z_S that is
    # not positive definite; one of them, the whole space, is stationary
    # with a positive weighting below the maximum, and the search, which
    # visits the other 60, never tests it
    sp = graph_metric([(0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 5),
                       (2, 3), (2, 4), (3, 4), (4, 5)])
    res = max_diversity(sp, 0.1)
    assert res.certificate == "global"
    assert res.iterations == 60
    _same_search(sp, 0.1)


def test_a_small_positive_pivot_is_searched():
    # a relative 1e-9 past K_{3,3}'s pole t = log 2 the maximizer is the
    # whole space, with the uniform weighting, and the last pivot of its
    # factor is 2e-9: a floor above it would leave no stationary support.
    # Below the pole Z is not positive semidefinite and a part wins
    sp = graph_metric(named_graph_edges("k3,3"))
    for t, support, visited in ((math.log(2) * (1 + 1e-9), tuple(range(6)), 63),
                                (math.log(2) * (1 - 1e-9), (0, 1, 2), 62)):
        res = max_diversity_exact(sp, t)
        loop = max_diversity_support_loop(sp, t)
        x = math.exp(-t)
        assert res.support == loop.support == support
        assert res.iterations == loop.iterations == visited
        assert res.value == pytest.approx(loop.value, rel=1e-12, abs=0)
        if len(support) == 6:
            assert res.value == pytest.approx(6 / (1 + 2 * x * x + 3 * x),
                                              rel=1e-15)


def test_search_limit_routes_max_diversity():
    # at most SEARCH_LIMIT points the answer is the search's, certified
    # global, whatever tol and max_iters say; above it the ladder runs
    sp = ball_sample(2, 1.0, SEARCH_LIMIT, seed=5)
    for tol, iters in ((1e-9, 100_000), (1e-15, 1)):
        res = max_diversity(sp, 0.5, tol, iters)
        exact = max_diversity_exact(sp, 0.5)
        assert res._replace(weights=None) == exact._replace(weights=None)
        assert res.weights.tobytes() == exact.weights.tobytes()
        assert res.certificate == "global"
    big = ball_sample(2, 1.0, SEARCH_LIMIT + 1, seed=5)
    assert max_diversity(big, 0.5).method in ("frank_wolfe", "active_set")


def _spaces_up_to_15():
    """Seeded balls of up to 15 points, and complete bipartite graphs and
    cycles of up to 15 vertices, whose Z is not positive semidefinite at
    small scales."""
    balls = st.builds(lambda dim, count, seed: ball_sample(dim, 1.0, count, seed=seed),
                      st.integers(1, 3), st.integers(1, 15), st.integers(0, 10_000))
    graphs = st.sampled_from(["k32", "k3,3", "k4,4", "k5,5", "k6,6", "k7,8",
                              "k2,9", "c7", "c12", "c15", "p11"]).map(
        lambda name: graph_metric(named_graph_edges(name)))
    return balls | graphs


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_spaces_up_to_15(), st.floats(0.05, 6.0))
@example(graph_metric(named_graph_edges("k6,6")), 0.5)
@example(graph_metric(named_graph_edges("k7,8")), 0.5)
@example(graph_metric(named_graph_edges("k7,8")), 1.0)
@example(ball_sample(3, 1.0, 14, seed=3), 4.0)
def test_a_global_certificate_is_the_maximum(sp, t):
    # every rung: the search (at most SEARCH_LIMIT points), the active set
    # and Frank-Wolfe; a stationary value is a lower bound, and the
    # certificate of K_{6,6} at t = 0.5 is no more than that (1.852 at the
    # uniform saddle against 2.113)
    res = max_diversity(sp, t)
    want = max_diversity_support_loop(sp, t).value
    assert res.certificate in ("global", "stationary")
    assert (res.certificate == "stationary") == (res.method == "frank_wolfe")
    if res.certificate == "global":
        assert res.value == pytest.approx(want, rel=1e-8, abs=0)
    else:
        assert res.value <= want * (1 + 1e-12)


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
    # the scales of acceptance criterion 12: both spaces lie on the line,
    # so the line rung answers each scale in one solve, global
    for space, lo in ((cantor_endpoints(10), 10.0),
                      (lp_grid([2001], spacing=1.0 / 2000), 50.0)):
        for t in np.geomspace(lo, 1000.0, 12):
            res = max_diversity(space, float(t), 1e-6, 300_000)
            assert (res.method, res.iterations, res.certificate) == (
                "line", 1, "global")
            assert abs(res.kkt_gap) <= 1e-12


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
