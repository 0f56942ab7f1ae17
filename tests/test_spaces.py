"""Metric validation, the space container, generators, and matrix IO."""

import inspect
import io
import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magnitude import spaces
from magnitude.specs import REQUIRED
from magnitude.spaces import (
    BUILDERS,
    BadSpec,
    DisconnectedGraph,
    FiniteMetricSpace,
    KINDS,
    MatrixParseError,
    NegativeEntry,
    NonFiniteEntry,
    NotSquare,
    NotSymmetric,
    NonzeroDiagonal,
    TRIANGLE_TOL_FACTOR,
    SpaceSpec,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
    _SCAN_KS,
    _SCAN_ROWS,
    _distances,
    ball_sample,
    cantor_endpoints,
    cantor_intervals,
    first_triangle_violation,
    generate_space,
    graph_metric,
    load_distance_csv,
    lp_grid,
    points_on_line,
    validate_metric,
)
from oracles import ball_sample_loop, l1_product, named_graph_edges

K32 = [
    [0, 2, 2, 1, 1],
    [2, 0, 2, 1, 1],
    [2, 2, 0, 1, 1],
    [1, 1, 1, 0, 2],
    [1, 1, 1, 2, 0],
]


# ---------------------------------------------------------------------------
# validation


def test_accepts_valid_metric():
    sp = validate_metric(K32)
    assert sp.n_points == 5
    assert sp.diameter == 2.0
    assert sp.min_distance == 1.0


def test_rejects_nonsquare():
    with pytest.raises(NotSquare):
        validate_metric(np.zeros((2, 3)))
    with pytest.raises(NotSquare):
        validate_metric(np.zeros((0, 0)))


def test_rejects_nonfinite():
    d = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(NonFiniteEntry):
        validate_metric(d)
    d = np.array([[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(NonFiniteEntry):
        validate_metric(d)


def test_rejects_nonzero_diagonal():
    d = np.array([[0.0, 1.0], [1.0, 0.5]])
    with pytest.raises(NonzeroDiagonal) as err:
        validate_metric(d)
    assert "1" in str(err.value) and "0.5" in str(err.value)


def test_rejects_asymmetry_with_witness():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.5, 0.0]])
    with pytest.raises(NotSymmetric) as err:
        validate_metric(d)
    msg = str(err.value)
    assert "3" in msg and "3.5" in msg


def test_rejects_negative_entry():
    d = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(NegativeEntry):
        validate_metric(d)


def test_rejects_zero_distance_between_distinct_points():
    d = np.zeros((3, 3))
    d[0, 1] = d[1, 0] = 0.0
    d[0, 2] = d[2, 0] = d[1, 2] = d[2, 1] = 1.0
    with pytest.raises(ZeroDistanceDistinctPoints):
        validate_metric(d)


def _first_axiom_defect(d):
    # the whole-matrix masks validate_metric used to build, in its order
    n = len(d)
    checks = [(NonFiniteEntry, ~np.isfinite(d)), (NotSymmetric, d != d.T),
              (NegativeEntry, d < 0),
              (ZeroDistanceDistinctPoints, (d == 0) & ~np.eye(n, dtype=bool))]
    for kind, mask in checks:
        if mask.any():
            return kind, tuple(int(x) for x in np.argwhere(mask)[0])
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 150), seed=st.integers(0, 2**32 - 1),
       defects=st.lists(st.sampled_from(["inf", "nan", "asym", "neg", "zero"]),
                        max_size=4))
def test_axiom_witness_is_the_first_in_row_major_order(n, seed, defects):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    for kind in defects:
        i, j = (int(x) for x in rng.integers(0, n, 2))
        if i == j:
            continue
        value = {"inf": np.inf, "nan": np.nan, "neg": -1.0, "zero": 0.0,
                 "asym": d[i, j] + 1.0}[kind]
        d[i, j] = value
        if kind != "asym":
            d[j, i] = value
    want = _first_axiom_defect(d)
    if want is None:
        validate_metric(d)
        return
    with pytest.raises(want[0]) as err:
        validate_metric(d)
    if want[0] is NonFiniteEntry:
        assert str(err.value) == f"non-finite entry at {want[1]}"
    else:
        assert err.value.witness == want[1]


def test_axiom_checks_hold_no_square_mask():
    # past the copy of the input, one block of rows of a bool mask; three
    # n x n masks at once reached 0.375 of an n x n float array
    import tracemalloc

    n = 400
    pts = np.random.default_rng(3).random((n, 2))
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    d[n - 1, n - 2] = d[n - 2, n - 1] = 0.0  # rejected before the scan
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ZeroDistanceDistinctPoints):
            validate_metric(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / (n * n * 8) <= 1.1


def test_triangle_violation_carries_a_real_witness():
    d = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(TriangleViolation) as err:
        validate_metric(d)
    i, j, k = err.value.witness
    assert d[i, j] > d[i, k] + d[k, j]
    assert err.value.excess == pytest.approx(3.0)


def test_triangle_tolerance_scales_with_diameter():
    # collinear points hit the inequality with equality; float noise at the
    # last bit must not be reported as a violation
    sp = points_on_line([0.0, 1.0, 3.0, 7.0])
    d = sp.distances.copy()
    d[0, 3] = d[3, 0] = 7.0 + 7e-13 * 7.0
    validate_metric(d)  # inside TRIANGLE_TOL_FACTOR * diameter
    d[0, 3] = d[3, 0] = 7.0 + 1e-9
    with pytest.raises(TriangleViolation):
        validate_metric(d)


# ---------------------------------------------------------------------------
# triangle scan


def _random_metric(rng, n, p=1, dim=2):
    pts = rng.uniform(0.0, 1.0, size=(n, dim))
    return _broadcast_distances(pts, p)


def _brute_first_violation(d, tol):
    """The k-major triple loop: the oracle of the vectorized scan."""
    n = d.shape[0]
    for k in range(n):
        for i in range(n):
            if i == k:
                continue
            for j in range(n):
                if j in (k, i):
                    continue
                if d[i, j] - (d[i, k] + d[k, j]) > tol:
                    return i, j, k
    return -1, -1, -1


def test_triangle_scan_matches_brute_force():
    rng = np.random.default_rng(13)
    for n in (6, 20, 48):
        d = _random_metric(rng, n)
        for trial in range(4):
            bad = d.copy()
            i0, j0 = rng.integers(0, n, size=2)
            if i0 != j0:
                bump = float(bad[i0, j0] + bad.max() + 1.0)
                bad[i0, j0] = bad[j0, i0] = bump
            expect = _brute_first_violation(bad, 1e-9)
            assert first_triangle_violation(bad, 1e-9) == expect


def test_triangle_scan_clean_metric():
    rng = np.random.default_rng(17)
    d = _random_metric(rng, 40)
    assert first_triangle_violation(d, 1e-9) == (-1, -1, -1)


def test_triangle_scan_tol_gate():
    # violation of exactly 2*eps passes at tol 3*eps, trips at eps
    d = np.array(
        [
            [0.0, 1.0, 1.0],
            [1.0, 0.0, 2.0 + 2e-9],
            [1.0, 2.0 + 2e-9, 0.0],
        ]
    )
    assert first_triangle_violation(d, 3e-9) == (-1, -1, -1)
    assert first_triangle_violation(d, 1e-9) == (1, 2, 0)


def _planted(n, triples, seed=0, short=0.45):
    """Distances in [1, 1.1], symmetric, with d(a, k) = d(k, b) = short
    for each (a, b, k) in triples. Every other triangle holds, so with
    short < 0.5 (and disjoint triples) the violations are exactly
    (a, b, k) and (b, a, k)."""
    rng = np.random.default_rng(seed)
    d = 1.0 + 0.1 * rng.random((n, n))
    d = np.triu(d, 1)
    d += d.T
    for a, b, k in triples:
        d[a, k] = d[k, a] = d[k, b] = d[b, k] = short
    return d


BLOCK_EDGE_SIZES = sorted({m for b in (_SCAN_ROWS, _SCAN_KS)
                           for m in (1, 2, b - 1, b, b + 1, 2 * b + 3)})


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_triangle_scan_block_edges_match_brute_force(n):
    rng = np.random.default_rng(n)
    cases = [_planted(n, [])]
    if n >= 3:
        # the last k, the first k, and random triples
        cases.append(_planted(n, [(0, n - 2, n - 1)], seed=1))
        cases.append(_planted(n, [(n - 1, 1, 0)], seed=2))
        for seed in range(3, 6):
            a, b, k = (int(v) for v in rng.choice(n, 3, replace=False))
            cases.append(_planted(n, [(a, b, k)], seed=seed))
    for d in cases:
        assert first_triangle_violation(d, 1e-12) == \
            _brute_first_violation(d, 1e-12)


def test_triangle_scan_witness_inside_a_diagonal_block():
    # i and j in one block of rows: the half-matrix scan must still cover
    # the block on the diagonal, where j < i as well as j > i
    n = 2 * _SCAN_KS + 3
    i, j, k = _SCAN_ROWS + 3, _SCAN_ROWS + 1, _SCAN_KS + 5
    d = _planted(n, [(i, j, k)])
    expect = (min(i, j), max(i, j), k)
    assert _brute_first_violation(d, 0.0) == expect
    assert first_triangle_violation(d, 0.0) == expect


def test_triangle_scan_two_violations_in_one_block_of_k():
    # the later k has the earlier rows; k-major order picks the earlier k
    n = 2 * _SCAN_KS + 3
    k1, k2 = _SCAN_KS + 2, 2 * _SCAN_KS - 1
    d = _planted(n, [(n - 2, n - 1, k1), (0, 1, k2)])
    assert _brute_first_violation(d, 0.0) == (n - 2, n - 1, k1)
    assert first_triangle_violation(d, 0.0) == (n - 2, n - 1, k1)


def test_triangle_scan_tie_at_exactly_tol():
    # slack 1 - (0.25 + 0.25) = 0.5 exactly: not over tol = 0.5, over
    # the next double below it
    n = _SCAN_ROWS + 1
    d = _planted(n, [(2, n - 1, 7)], short=0.25)
    d[2, n - 1] = d[n - 1, 2] = 1.0
    assert first_triangle_violation(d, 0.5) == (-1, -1, -1)
    below = math.nextafter(0.5, 0.0)
    assert _brute_first_violation(d, below) == (2, n - 1, 7)
    assert first_triangle_violation(d, below) == (2, n - 1, 7)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 24), p=st.sampled_from([1, 2]),
       dim=st.integers(1, 3), bumps=st.integers(0, 3),
       tol_kind=st.sampled_from(["zero", "relative", "absolute"]),
       seed=st.integers(0, 2**32 - 1))
def test_validate_metric_triangle_witness_property(n, p, dim, bumps,
                                                   tol_kind, seed):
    # the scan's witness equals the triple loop's at any tol >= 0, and
    # validate_metric, at its relative tolerance, reports it with its excess
    rng = np.random.default_rng(seed)
    d = _random_metric(rng, n, p, dim)
    for _ in range(bumps if n > 1 else 0):
        i, j = rng.choice(n, size=2, replace=False)
        d[i, j] = d[j, i] = d[i, j] * rng.uniform(1.0, 3.0)
    diam = float(d.max())
    factor = {"zero": 0.0, "relative": TRIANGLE_TOL_FACTOR,
              "absolute": 1e-3 / diam if diam else 0.0}[tol_kind]
    tol = factor * diam if n > 1 else 0.0
    i, j, k = _brute_first_violation(d, tol)
    if tol_kind != "relative":
        assert first_triangle_violation(d, tol) == (i, j, k)
        if i >= 0:
            assert d[i, j] - (d[i, k] + d[k, j]) > tol
        return
    if i < 0:
        validate_metric(d)
        return
    with pytest.raises(TriangleViolation) as err:
        validate_metric(d)
    assert err.value.witness == (i, j, k)
    assert err.value.excess == d[i, j] - d[i, k] - d[k, j]


def test_check_order_diagonal_before_symmetry():
    d = np.array([[0.5, 1.0], [2.0, 0.0]])
    with pytest.raises(NonzeroDiagonal):
        validate_metric(d)


# ---------------------------------------------------------------------------
# container behavior


def test_distances_are_read_only():
    sp = validate_metric(K32)
    with pytest.raises(ValueError):
        sp.distances[0, 1] = 9.0


def test_subspace_picks_rows_and_points():
    sp = points_on_line([0.0, 1.0, 4.0])
    sub = sp.subspace([0, 2])
    assert sub.n_points == 2
    assert sub.distances[0, 1] == 4.0
    assert sub.points.tolist() == [[0.0], [4.0]]
    # a repeated index is two points at distance 0, whose Z no theorem
    # makes positive definite: refused, from points or a held d
    for space in (sp, validate_metric(sp.distances)):
        with pytest.raises(ZeroDistanceDistinctPoints) as info:
            space.subspace([2, 0, 1, 0])
        assert info.value.witness == (1, 3)


def test_min_distance_single_point():
    sp = FiniteMetricSpace(np.zeros((1, 1)))
    assert sp.min_distance == math.inf


# ---------------------------------------------------------------------------
# product


def test_l1_product_is_a_major():
    a = points_on_line([0.0, 1.0])
    b = points_on_line([0.0, 10.0, 20.0])
    prod = l1_product(a, b)
    assert prod.n_points == 6
    # order (a0,b0), (a0,b1), (a0,b2), (a1,b0), ...: d((a_i, b_u),
    # (a_j, b_v)) = dA(i,j) + dB(u,v)
    assert prod.distances[0, 4] == 1.0 + 10.0
    assert prod.distances[2, 3] == 1.0 + 20.0


def test_l1_product_distance_table_matches_bruteforce():
    rng = np.random.default_rng(5)
    a = points_on_line(np.cumsum(rng.random(4) + 0.1))
    b = points_on_line(np.cumsum(rng.random(3) + 0.1))
    prod = l1_product(a, b)
    na, nb = a.n_points, b.n_points
    for i in range(na):
        for u in range(nb):
            for j in range(na):
                for v in range(nb):
                    expect = a.distances[i, j] + b.distances[u, v]
                    assert prod.distances[i * nb + u, j * nb + v] == pytest.approx(
                        expect, abs=0
                    )


# ---------------------------------------------------------------------------
# generators


def test_points_on_line():
    sp = points_on_line([3.0, 0.0, 1.0])
    assert sp.distances[0, 1] == 3.0
    # a numpy integer array reads as the list of its values
    assert np.array_equal(points_on_line(np.array([3, 0, 1])).distances,
                          sp.distances)
    with pytest.raises(BadSpec):
        points_on_line([1.0, 1.0])
    with pytest.raises(BadSpec):
        generate_space(SpaceSpec("points_1d", {"coordinates": []}))


def test_graph_metric_cycle_and_path():
    c5 = graph_metric(named_graph_edges("c5"))
    assert c5.distances[0, 2] == 2.0
    assert c5.diameter == 2.0
    p4 = graph_metric(named_graph_edges("p4"))
    assert p4.distances[0, 3] == 3.0


def test_graph_metric_k32_matches_pinned_matrix():
    sp = graph_metric(named_graph_edges("k32"))
    assert np.array_equal(sp.distances, np.array(K32, dtype=float))
    # comma form is the same graph
    sp2 = graph_metric(named_graph_edges("k3,2"))
    assert np.array_equal(sp2.distances, sp.distances)


def test_graph_metric_disconnected():
    with pytest.raises(DisconnectedGraph):
        graph_metric([(0, 1), (2, 3)], 4)


def test_graph_metric_input_checks():
    with pytest.raises(BadSpec):
        graph_metric([(0, 0)])  # self-loop
    with pytest.raises(BadSpec):
        graph_metric([(0, 5)], 3)  # endpoint out of range
    with pytest.raises(BadSpec):
        graph_metric([])


def _shortest_path_reference(edges, n):
    """scipy's all-pairs shortest paths, the oracle of the breadth-first
    searches: the matrix, or the message of the first unreachable pair in
    row-major order."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    rows = [u for u, v in edges] + [v for u, v in edges]
    cols = [v for u, v in edges] + [u for u, v in edges]
    adj = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    d = shortest_path(adj.tocsr(), method="D", unweighted=True, directed=False)
    if np.isinf(d).any():
        i, j = map(int, np.argwhere(np.isinf(d))[0])
        return f"no path between vertices {i} and {j}"
    return d


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(1, 29))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    edges = [(u, v) for u, v in pairs if u != v]
    # an explicit count may add isolated vertices past the last endpoint
    explicit = draw(st.booleans()) or not edges
    return edges, n if explicit else None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_edge_lists())
def test_graph_metric_matches_scipy_shortest_path(case):
    edges, n_vertices = case
    n = n_vertices if n_vertices is not None else 1 + max(max(e) for e in edges)
    want = _shortest_path_reference(edges, n)
    if isinstance(want, str):
        with pytest.raises(DisconnectedGraph) as info:
            graph_metric(edges, n_vertices)
        assert str(info.value) == want
        return
    got = graph_metric(edges, n_vertices).distances
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_graph_metric_rejects_negative_endpoints():
    with pytest.raises(BadSpec, match=r"edges\[1\]\[1\] must be an integer >= 0"):
        generate_space(SpaceSpec("graph_shortest_path",
                                 {"edges": [[0, 1], [1, -2]]}))


def test_named_graph_k10_is_complete_not_bipartite():
    edges = named_graph_edges("k10")
    assert len(edges) == 45  # C(10, 2)
    with pytest.raises(BadSpec):
        named_graph_edges("q7")


def test_named_graph_k1_is_one_point():
    k1 = generate_space(SpaceSpec("graph_shortest_path", {"name": "k1"}))
    assert k1.n_points == 1
    assert k1.distances.tolist() == [[0.0]]
    # sizes are ASCII digits: a superscript or another script's digit
    # is bad input, not an int() failure inside the builder
    for name in ("k0", "k3,0", "k0,2", "k-1,2", "k\u00b2", "c\u00b9\u00b2",
                 "p\u0663", "k3,\u00b2"):
        with pytest.raises(BadSpec):
            generate_space(SpaceSpec("graph_shortest_path", {"name": name}))


def test_lp_grid():
    g = lp_grid((2, 2), p=1)
    assert g.n_points == 4
    assert g.diameter == 2.0
    g2 = lp_grid((2, 2), p=2)
    assert g2.diameter == pytest.approx(math.sqrt(2.0))
    g3 = lp_grid((3,), spacing=0.5)
    assert g3.diameter == 1.0
    for params in ({"shape": [0, 2]}, {"shape": [2, 2], "p": 3}):
        with pytest.raises(BadSpec):
            generate_space(SpaceSpec("lp_grid", params))


def test_cantor_construction():
    ivs = cantor_intervals(2)
    expect = [(0.0, 1 / 9), (2 / 9, 1 / 3), (2 / 3, 7 / 9), (8 / 9, 1.0)]
    assert len(ivs) == 4
    for got, want in zip(ivs, expect):
        assert got == pytest.approx(want, abs=1e-15)
    gaps = [(a[1], b[0]) for a, b in zip(ivs, ivs[1:])]
    assert len(gaps) == 3
    total = sum(b - a for a, b in ivs) + sum(b - a for a, b in gaps)
    assert total == pytest.approx(1.0)
    sp = cantor_endpoints(3)
    assert sp.n_points == 16
    assert sp.diameter == 1.0


def test_ball_sample_reproducible_and_inside():
    a = ball_sample(3, 1.0, 50, seed=42)
    b = ball_sample(3, 1.0, 50, seed=42)
    assert np.array_equal(a.distances, b.distances)
    c = ball_sample(3, 1.0, 50, seed=43)
    assert not np.array_equal(a.distances, c.distances)
    for pt in a.points:
        assert math.sqrt(sum(x * x for x in pt)) <= 1.0
    l1 = ball_sample(2, 2.0, 30, seed=1, p=1)
    for pt in l1.points:
        assert abs(pt[0]) + abs(pt[1]) <= 2.0


# seeds across the 32-bit word boundaries of the key that random.Random
# seeds its Mersenne Twister with: one word, two, three, and five
BOUNDARY_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 3)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.sampled_from(BOUNDARY_SEEDS) | st.integers(0, 2**200),
       dim=st.integers(1, 10), p=st.sampled_from([1, 2]),
       radius=st.sampled_from([0.3, 1.7, 7 / 3, 2.9e-3, 123.456]),
       count=st.integers(1, 30))
def test_ball_sample_is_the_reference_loop(seed, dim, p, radius, count):
    # the batched draws give the points of one random.Random draw at a
    # time; the l1 ball keeps 1 in dim! cube draws, so dims past 7 are slow
    assume(p == 2 or dim <= 7)
    got = ball_sample(dim, radius, count, seed=seed, p=p).points
    want = ball_sample_loop(dim, radius, count, seed, p)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.sampled_from(BOUNDARY_SEEDS) | st.integers(0, 2**64),
       dim=st.integers(1, 6), p=st.sampled_from([1, 2]),
       count=st.integers(1, 40), more=st.integers(1, 500))
def test_ball_sample_of_fewer_points_is_a_prefix(seed, dim, p, count, more):
    # approx --ball-counts is nested because a smaller count is the start
    # of a larger one's sample, whatever the batches drawn for each (at
    # dim 6 in l2, 1024 rows for one point and 4096 for 300)
    assume(p == 2 or dim <= 5)
    few = ball_sample(dim, 1.0, count, seed=seed, p=p).points
    many = ball_sample(dim, 1.0, count + more, seed=seed, p=p).points
    assert few.tobytes() == many[:count].tobytes()


def test_ball_sample_at_the_draw_limit_is_fast():
    # the largest 12-dimensional l2 sample under BALL_DRAW_LIMIT draws
    # ~2^25 uniforms: 2.4-2.7 s on a 2-core x86 machine, where numpy's C
    # loop took 2.06 s for the 2933 points that a limit of 10^7 cube
    # draws let through
    with pytest.raises(BadSpec, match="cube draws"):
        ball_sample(12, 1.0, 912, seed=7)
    t0 = time.perf_counter()
    assert ball_sample(12, 1.0, 911, seed=7).n_points == 911
    assert time.perf_counter() - t0 < 4.0


def _broadcast_distances(pts, p):
    """The whole-matrix broadcast formula, its planes |x_i - y_i| or
    (x_i - y_i)^2 summed left to right, the order _lp_rows documents; the
    generators' row-blocked distances must equal it bit for bit."""
    diff = pts[:, None, :] - pts[None, :, :]
    planes = np.abs(diff) if p == 1 else diff * diff
    total = planes[:, :, 0].copy()
    for k in range(1, planes.shape[2]):
        total += planes[:, :, k]
    return total if p == 1 else np.sqrt(total)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("dim", range(1, 8))
def test_left_to_right_sum_is_numpys_below_8_coordinates(dim, p):
    # below 8 coordinates numpy sums the last axis in the same order, so
    # every distance is the one the whole-matrix expression gave
    pts = np.random.default_rng(dim).uniform(-3.0, 3.0, size=(40, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    numpys = (np.abs(diff).sum(axis=2) if p == 1
              else np.sqrt((diff * diff).sum(axis=2)))
    assert np.array_equal(_broadcast_distances(pts, p), numpys)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("dim", range(1, 13))
def test_distances_are_within_dim_plus_2_roundings(dim, p):
    # against the exact distance of the float coordinates: Fraction sums
    # for p = 1, 50 digits for p = 2; each entry is within (dim + 2) u
    # relative, u = 2^-53, as dim roundings of the sum, one of each
    # difference, one of each square and half one of the root allow
    import mpmath
    from fractions import Fraction

    rng = np.random.default_rng(100 * dim + p)
    pts = rng.uniform(-1.0, 1.0, size=(12, dim)) * 10.0 ** rng.uniform(-5, 5)
    d = _distances(pts, p)
    u = Fraction(1, 2**53)
    exact = [[Fraction(float(v)) for v in row] for row in pts]
    with mpmath.workdps(50):
        for i in range(len(pts)):
            for j in range(len(pts)):
                parts = [abs(a - b) for a, b in zip(exact[i], exact[j])]
                if p == 1:
                    want = sum(parts)
                    err = abs(Fraction(float(d[i, j])) - want)
                    assert err <= (dim + 2) * u * want
                else:
                    total = sum(x * x for x in parts)
                    want = mpmath.sqrt(mpmath.mpf(total.numerator)
                                       / total.denominator)
                    err = abs(mpmath.mpf(float(d[i, j])) - want)
                    assert err <= (dim + 2) * mpmath.mpf(2) ** -53 * want


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("dim", [1, 2, 3, 10])
def test_ball_sample_matches_broadcast_formula(dim, p):
    # 150 points: two full row blocks and a partial one
    if (dim, p) == (10, 1):
        # rejection keeps 1 in 10! cube draws for the l1 ball, so check the
        # distance helper ball_sample calls on cube points instead
        pts = np.random.default_rng(10).uniform(-1.5, 1.5, size=(150, dim))
        d = _distances(pts, p)
    else:
        sp = ball_sample(dim, 1.5, 150, seed=10 * dim + p, p=p)
        pts, d = sp.points, sp.distances
    assert np.array_equal(d, _broadcast_distances(pts, p))


@pytest.mark.parametrize("p", [1, 2])
def test_lp_grid_and_line_match_broadcast_formula(p):
    g = lp_grid((13, 11), p=p, spacing=0.37)
    assert np.array_equal(g.distances,
                          _broadcast_distances(g.points, p))
    x = np.random.default_rng(p).uniform(-5.0, 5.0, size=130)
    line = points_on_line(x)
    assert np.array_equal(line.distances, _broadcast_distances(x[:, None], 1))


@pytest.mark.parametrize("build", [
    lambda: points_on_line([0.0, 1e308, -1e308]),
    lambda: points_on_line([0.0, math.nan]),
    lambda: points_on_line([0.0, math.inf]),
    lambda: lp_grid([3], spacing=1e308),
    lambda: lp_grid([2, 2], spacing=1e200),  # finite coordinates, squares overflow
    lambda: cantor_endpoints(2, math.inf),
    lambda: ball_sample(2, 1e308, 5, seed=1),
    lambda: ball_sample(2, 1e200, 5, seed=1),
    lambda: ball_sample(2, math.nan, 5, seed=1),
])
def test_generators_reject_non_finite_distances(build):
    # generated spaces skip validate_metric, so the generators check
    with np.errstate(all="raise"):
        with pytest.raises(BadSpec):
            build()


def _plant_draws(monkeypatch, u):
    """Make every uniform that ball_sample draws equal u."""
    class Planted(random.Random):
        def random(self):
            return u

    monkeypatch.setattr(spaces, "Random", Planted)


def test_ball_sample_refuses_coincident_points(monkeypatch):
    # continuous draws never repeat, so a repeat is planted in the draws:
    # every candidate is the same point, (0.25, 0.25)
    _plant_draws(monkeypatch, 0.625)
    with pytest.raises(BadSpec, match="coincident"):
        ball_sample(2, 1.0, 3, seed=1)
    assert ball_sample(2, 1.0, 1, seed=1).n_points == 1


def test_ball_sample_refuses_past_four_times_the_draw_limit(monkeypatch):
    # no candidate is in the ball, (1, 1, 1) is the cube's corner: the
    # expected draws pass the limit, the drawn ones reach 4 times it
    monkeypatch.setattr(spaces, "BALL_DRAW_LIMIT", 2**14)
    _plant_draws(monkeypatch, 1.0)
    with pytest.raises(BadSpec, match="not in the first 67,584 uniforms"):
        ball_sample(3, 1.0, 5, seed=1)


@pytest.mark.parametrize("build", [
    lambda: ball_sample(3, 1e-300, 5, seed=1),
    lambda: lp_grid([3, 2], spacing=1e-200),
    lambda: lp_grid([2, 2], p=2, spacing=1e-170),
    lambda: lp_grid([3, 2], spacing=1e-160),
    lambda: lp_grid([2, 2], spacing=2.0**-512),
    lambda: ball_sample(2, 1e-156, 5, seed=1),
])
def test_underflowing_distances_are_refused(build):
    # distinct points whose squared differences underflow: d would hold 0
    # off the diagonal, or below 2^-511 distances that lost bits (1e-160
    # read as 9.99994e-161), and no seed helps
    with pytest.raises(BadSpec, match=r"distances fall below 2\^-511: their "
                                      "squared coordinate differences underflow"):
        build()
    # from 2^-511 on the sum of squares is normal: the distance is exact
    assert lp_grid([2, 2], spacing=2.0**-511).min_distance == 2.0**-511
    # p = 1 sums the differences themselves, which never underflow to 0,
    # and on the line every p is |x - y|, so a grid with at most one entry
    # above 1 of p = 2 holds the distances of p = 1
    assert lp_grid([3], p=1, spacing=1e-300).min_distance == 1e-300
    for spacing in (1e-200, 1e-160, 1e160):
        for shape in ([3], [3, 1], [1, 3], [1, 3, 1]):
            line = lp_grid(shape, p=2, spacing=spacing)
            assert line.structure.kind == "line"
            assert line.distances.tobytes() == lp_grid(
                [3], p=1, spacing=spacing).distances.tobytes()
            assert line.min_distance == spacing


@pytest.mark.parametrize("radius", [1e-300, 1e200, 2.0])
def test_one_dimensional_ball_sample_is_on_the_line(radius):
    # on the line every p is |x - y|: p = 2 holds the l1 rows, and the
    # double range is checked on 2r, not on 4r^2
    line = ball_sample(1, radius, 5, seed=1)
    assert line.p == 1
    assert line.distances.tobytes() == ball_sample(
        1, radius, 5, seed=1, p=1).distances.tobytes()
    assert 0 < line.min_distance and line.diameter <= 2 * radius


def test_points_space_reads_its_points_by_rows():
    # one row each, in one coordinate too, where the points were numbers
    assert points_on_line([2.0, -1.0]).points.tolist() == [[2.0], [-1.0]]
    assert lp_grid((3,), spacing=0.5).points.tolist() == [[0.0], [0.5], [1.0]]
    assert lp_grid((2, 2)).points.tolist() == [
        [0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    # a grid with at most one entry above 1 lies on the line, in its order
    assert lp_grid((1, 2)).points.tolist() == [[0.0], [1.0]]


@pytest.mark.parametrize("p", [3, None, 0, 1.5, True])
def test_points_space_takes_p_one_or_two(p):
    # the rows are formed for l1 and l2 only: p = 3 once squared the
    # differences and took no root, so (0, 0), (3, 4) lay 25 apart
    with pytest.raises(BadSpec, match="p must be an integer"):
        FiniteMetricSpace(points=np.array([[0.0, 0.0], [3.0, 4.0]]), p=p)
    for q, want in ((1, 7.0), (2.0, 5.0)):
        space = FiniteMetricSpace(points=np.array([[0.0, 0.0], [3.0, 4.0]]),
                                  p=q)
        assert (space.p, space.distances[0, 1]) == (q, want)
        assert space.structure.kind == "points"


def test_points_space_holds_its_points_not_d():
    # a ball sample keeps 1000 points, 0.003 units of n^2 * 8 bytes (0.02
    # while it held tuples of their coordinates as labels); d alone would
    # be one unit
    import tracemalloc

    ball_sample(3, 1.0, 50, seed=7)  # the first call fills lazy caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        space = ball_sample(3, 1.0, 1000, seed=7)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert space.points.shape == (1000, 3)
    assert held <= 0.005 * 1000 * 1000 * 8


def _ball(seed=1, **params):
    return generate_space(SpaceSpec(
        "ball_sample", {"n": 2, "radius": 1.0, "count": 5, **params}, seed))


def test_ball_sample_input_checks():
    with pytest.raises(BadSpec):
        _ball(n=0)
    with pytest.raises(BadSpec):
        _ball(radius=-1.0)
    with pytest.raises(BadSpec):
        _ball(p=3)
    with pytest.raises(BadSpec, match="seed"):
        _ball(seed=None)
    # a fractional seed is refused, not truncated; an integral float is
    # that integer
    with pytest.raises(BadSpec):
        _ball(seed=1.5)
    assert np.array_equal(_ball(seed=2.0).distances, _ball(seed=2).distances)


@pytest.mark.parametrize("kind, params, seed", [
    ("ball_sample", {"n": 2, "radius": 1.0, "count": True}, 1),
    ("ball_sample", {"n": 2, "radius": 1.0, "count": 5}, False),
    ("lp_grid", {"shape": [True, 3]}, None),
    ("cantor_endpoints", {"depth": True}, None),
    ("graph_shortest_path", {"edges": [[0, True]]}, None),
], ids=["count", "seed", "shape", "depth", "edge"])
def test_boolean_counts_are_refused(kind, params, seed):
    # a JSON true is no count, though bool subclasses int
    with pytest.raises(BadSpec, match="must be an integer"):
        generate_space(SpaceSpec(kind, params, seed))


@pytest.mark.parametrize("dim, count, p", [(12, 10, 1), (20, 5, 2)])
def test_ball_sample_refuses_out_of_reach_rejection(dim, count, p):
    # the l1 ball keeps 1/12! of the cube's draws and the l2 ball in d = 20
    # about 2.5e-8, so these would draw for minutes; refused before drawing
    t0 = time.perf_counter()
    with pytest.raises(BadSpec, match="cube draws"):
        ball_sample(dim, 1.0, count, seed=1, p=p)
    assert time.perf_counter() - t0 < 0.5


def test_generators_refuse_spaces_over_the_point_limit(monkeypatch):
    monkeypatch.setattr("magnitude.specs.POINT_LIMIT", 8)
    at_limit = [cantor_endpoints(2), lp_grid([2, 4]), ball_sample(2, 1.0, 8, seed=1),
                graph_metric(name="c8"), graph_metric(name="k4,4"),
                points_on_line(range(8))]
    assert [sp.n_points for sp in at_limit] == [8] * 6
    for build in (
        lambda: cantor_endpoints(3),
        lambda: lp_grid([3, 3]),
        lambda: ball_sample(2, 1.0, 9, seed=1),
        lambda: graph_metric(name="k9"),
        lambda: graph_metric(name="k4,5"),
        lambda: graph_metric(name="c9"),
        lambda: graph_metric(name="p9"),
        lambda: graph_metric([(0, 1)], 9),
        lambda: points_on_line(range(9)),
    ):
        with pytest.raises(BadSpec, match="over the limit"):
            build()


# ---------------------------------------------------------------------------
# specs


def test_spec_round_trip():
    spec = SpaceSpec("ball_sample", {"n": 3, "radius": 1.0, "count": 10}, seed=7)
    again = SpaceSpec.from_json(json.dumps(
        {"kind": spec.kind, "params": spec.params, "seed": spec.seed}))
    assert again == spec
    sp1 = generate_space(spec)
    sp2 = generate_space(again)
    assert np.array_equal(sp1.distances, sp2.distances)


def test_generate_space_kinds():
    line = generate_space(SpaceSpec("points_1d", {"coordinates": [0, 1, 3]}))
    assert line.n_points == 3
    graph = generate_space(SpaceSpec("graph_shortest_path", {"name": "k32"}))
    assert graph.n_points == 5
    grid = generate_space(SpaceSpec("lp_grid", {"shape": [2, 3], "p": 1}))
    assert grid.n_points == 6
    cant = generate_space(SpaceSpec("cantor_endpoints", {"depth": 2}))
    assert cant.n_points == 8
    mat = generate_space(SpaceSpec("explicit_matrix", {"matrix": K32}))
    assert mat.diameter == 2.0


def test_generate_space_bad_inputs():
    with pytest.raises(BadSpec):
        generate_space(SpaceSpec("no_such_kind", {}))
    with pytest.raises(BadSpec):
        generate_space(SpaceSpec("points_1d", {}))  # missing parameter
    for kind, params in [("lp_grid", {"shape": "ab"}),
                         ("lp_grid", {"shape": [3], "spacing": "x"}),
                         ("cantor_endpoints", {"depth": "a"}),
                         ("graph_shortest_path", {"edges": [[0, "a"]]}),
                         ("graph_shortest_path", {"name": 5}),
                         ("lp_grid", [1])]:
        with pytest.raises(BadSpec):
            generate_space(SpaceSpec(kind, params))
    with pytest.raises(BadSpec):
        named_graph_edges("k3,x")
    with pytest.raises(BadSpec):
        SpaceSpec.from_json("not json at all {")
    with pytest.raises(BadSpec):
        SpaceSpec.from_json(json.dumps(["kind"]))


@pytest.mark.parametrize("kind, params, seed, match", [
    ("lp_grid", {"shape": [3], "spacng": 5}, None, "no parameter 'spacng'"),
    ("lp_grid", {"shape": [3], "p": True}, None, "must be an integer"),
    ("lp_grid", {"shape": [3], "spacing": -0.0}, None, "must be > 0"),
    ("points_1d", {"coordinates": [0, True]}, None, "finite number"),
    ("points_1d", {"coordinates": [0, 1e400]}, None, "finite number"),
    ("lp_grid", {"shape": [3]}, 4, "no parameter 'seed'"),
    ("ball_sample", {"n": 2, "radius": 1.0, "count": 3, "seed": 1}, None,
     "beside"),
    ("ball_sample", {"n": 2, "radius": 1.0, "count": 3}, -1, ">= 0"),
    ("ball_sample", {"n": 10**400, "radius": 1.0, "count": 3}, 1,
     "must be an integer"),
    ("lp_grid", {"p": 2}, None, "needs the parameter 'shape'"),
    ("graph_shortest_path", {"name": "k3", "edges": [[0, 1]]}, None, "not both"),
    ("graph_shortest_path", {"name": "k3", "n_vertices": 3}, None, "not both"),
    # "n" is no alias of n_vertices
    ("graph_shortest_path", {"edges": [[0, 1]], "n": 2, "n_vertices": 3},
     None, "no parameter 'n'"),
    ("graph_shortest_path", {"edges": [[0, 1, 2]]}, None, r"length in \[2, 2\]"),
    ("explicit_matrix", {"matrix": [[0, 1], [1]]}, None, "differ in length"),
    ("explicit_matrix", {"matrix": [[0, "1"], [1, 0]]}, None, "finite number"),
    ("explicit_matrix", {"matrix": [[0, True], [True, 0]]}, None, "finite number"),
    ("explicit_matrix", {"matrix": [[0, 10**400], [10**400, 0]]}, None,
     "finite number"),
    (["lp_grid"], {}, None, "unknown kind"),
    ("lp_grid", None, None, "must be an object"),
])
def test_the_kinds_table_refuses(kind, params, seed, match):
    with pytest.raises(BadSpec, match=match):
        generate_space(SpaceSpec(kind, params, seed))


@pytest.mark.parametrize("call, match", [
    # each would hang, or build another space, past an unchecked builder
    (lambda: ball_sample(2, -1.0, 5, seed=1), "must be > 0"),
    (lambda: ball_sample(2, 1.0, 5, seed=None), "needs the parameter 'seed'"),
    (lambda: ball_sample(2, 1.0, 5, 1, p=3), "from 1 to 2"),
    (lambda: lp_grid((2, 2), p=3), "from 1 to 2"),
    (lambda: graph_metric([(0, 1), (1, -2)]), ">= 0"),
    (lambda: points_on_line([0.0, True]), "finite number"),
    (lambda: cantor_endpoints(-1), ">= 0"),
])
def test_direct_builder_calls_meet_the_kinds_table(call, match):
    with pytest.raises(BadSpec, match=match):
        call()


def test_spec_json_refuses_unknown_top_level_keys():
    with pytest.raises(BadSpec, match="at most"):
        SpaceSpec.from_json('{"kind": "lp_grid", "params": {"shape": [3]}, '
                            '"colour": "red"}')
    # past Python's integer digit limit, json raises a bare ValueError
    with pytest.raises(BadSpec, match="invalid spec JSON"):
        SpaceSpec.from_json('{"kind": "lp_grid", "seed": ' + "1" * 5000 + "}")


def test_effective_parameters_fill_the_builders_defaults():
    for params in ({"shape": [3, 2]}, {"shape": [3.0, 2], "p": 2},
                   {"shape": (3, 2), "spacing": 1}):
        effective = SpaceSpec("lp_grid", params).effective()
        assert json.dumps(effective) == json.dumps(
            {"shape": [3, 2], "p": 2, "spacing": 1.0})
    assert SpaceSpec("ball_sample", {"n": 2, "radius": 1, "count": 3.0},
                     seed=2.0).effective() == {
        "n": 2, "radius": 1.0, "count": 3, "seed": 2, "p": 2}


def test_every_builder_parameter_has_one_rule():
    # in order; KINDS alone holds the defaults, so a builder's required
    # parameters are the REQUIRED ones and the rest default to None
    assert BUILDERS.keys() == KINDS.keys()
    for kind, rules in KINDS.items():
        params = inspect.signature(BUILDERS[kind]).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            (name, inspect.Parameter.empty if default is REQUIRED else None)
            for name, (_, _, default) in rules.items()], kind


# ---------------------------------------------------------------------------
# matrix IO


def test_csv_round_trip():
    sp = validate_metric(K32)
    text = "".join(",".join(repr(float(v)) for v in row) + "\n"
                   for row in sp.distances)
    back = load_distance_csv(text)
    assert np.array_equal(back, sp.distances)


def test_csv_parse_errors():
    with pytest.raises(MatrixParseError):
        load_distance_csv("0,1\n1")  # ragged
    with pytest.raises(MatrixParseError):
        load_distance_csv("0,x\nx,0")
    with pytest.raises(MatrixParseError):
        load_distance_csv("")


@pytest.mark.parametrize("text, message", [
    ("\n \n", "no data rows"),
    # every line parses before the shape is judged; blank lines count
    ("0,1\n1\n\n0,x", "line 4: could not convert string to float: 'x'"),
    ("0,1\n1,0,2\n3,4", "ragged rows"),
    ("0,1\n1,0\n2,2", "matrix is 3x2, expected square"),
    # a first row too wide for the text allocates no 10^6 x 10^6 array
    ("0," * 10**6 + "0", "matrix is 1x1000001, expected square"),
])
def test_csv_errors_name_the_line_or_the_shape(text, message):
    with pytest.raises(MatrixParseError) as err:
        load_distance_csv(text)
    assert str(err.value) == message


def test_csv_rows_are_lines_split_at_newline():
    for text in ("\n0,1\r\n\n1,0\r\n", b"0, 1\n1 ,0", io.StringIO("0,1\n1,0\n")):
        assert load_distance_csv(text).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_validate_metric_copies_unless_handed_the_array():
    # a caller's array stays its own and writable; the CSV reader's array
    # is handed over and becomes the space's read-only matrix
    a = load_distance_csv("0,1,2\n1,0,1\n2,1,0")
    kept = validate_metric(a)
    assert not np.shares_memory(kept.distances, a) and a.flags.writeable
    owned = validate_metric(a, copy=False)
    assert owned.distances is a and not a.flags.writeable
