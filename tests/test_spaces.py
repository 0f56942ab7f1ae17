"""Metric validation, the space container, generators, and matrix IO."""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnitude.spaces import (
    BadSpec,
    BadTolerance,
    DisconnectedGraph,
    FiniteMetricSpace,
    MatrixParseError,
    NegativeEntry,
    NonFiniteEntry,
    NonpositiveScale,
    NotSquare,
    NotSymmetric,
    NonzeroDiagonal,
    SpaceSpec,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
    _SCAN_KS,
    _SCAN_ROWS,
    _distances,
    ball_sample,
    cantor_endpoints,
    cantor_gaps,
    cantor_intervals,
    first_triangle_violation,
    generate_space,
    graph_metric,
    l1_product,
    load_distance_csv,
    lp_grid,
    named_graph_edges,
    points_on_line,
    save_distance_csv,
    scale_space,
    validate_metric,
)

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
    validate_metric(d)  # inside tol_factor * diameter
    d[0, 3] = d[3, 0] = 7.0 + 1e-9
    with pytest.raises(TriangleViolation):
        validate_metric(d)


@pytest.mark.parametrize("factor", [-1e-12, -math.inf, math.inf, math.nan])
def test_rejects_negative_or_non_finite_tolerance(factor):
    # the triangle scan is sound only for tol >= 0, and a NaN tol would
    # accept every matrix
    with pytest.raises(BadTolerance):
        validate_metric(K32, tol_factor=factor)
    validate_metric(K32, tol_factor=0.0)


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
    # validate_metric's witness and excess equal those of the triple loop
    rng = np.random.default_rng(seed)
    d = _random_metric(rng, n, p, dim)
    for _ in range(bumps if n > 1 else 0):
        i, j = rng.choice(n, size=2, replace=False)
        d[i, j] = d[j, i] = d[i, j] * rng.uniform(1.0, 3.0)
    diam = float(d.max())
    factor = {"zero": 0.0, "relative": 1e-12,
              "absolute": 1e-3 / diam if diam else 0.0}[tol_kind]
    i, j, k = _brute_first_violation(d, factor * diam if n > 1 else 0.0)
    if i < 0:
        validate_metric(d, tol_factor=factor)
        return
    with pytest.raises(TriangleViolation) as err:
        validate_metric(d, tol_factor=factor)
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


def test_subspace_picks_rows_and_labels():
    sp = points_on_line([0.0, 1.0, 4.0])
    sub = sp.subspace([0, 2])
    assert sub.n_points == 2
    assert sub.distances[0, 1] == 4.0
    assert sub.labels == (0.0, 4.0)


def test_label_length_checked():
    with pytest.raises(ValueError):
        FiniteMetricSpace(np.zeros((2, 2)) + np.eye(2) * 0, labels=("a",))


def test_scale_space():
    sp = validate_metric(K32)
    doubled = scale_space(sp, 2.0)
    assert doubled.diameter == 4.0
    for bad in (0.0, -1.0):
        with pytest.raises(NonpositiveScale):
            scale_space(sp, bad)


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
    # order (a0,b0), (a0,b1), (a0,b2), (a1,b0), ...
    assert prod.labels[1] == (0.0, 10.0)
    assert prod.labels[3] == (1.0, 0.0)
    # d((a_i, b_u), (a_j, b_v)) = dA(i,j) + dB(u,v)
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
    with pytest.raises(BadSpec):
        points_on_line([1.0, 1.0])
    with pytest.raises(BadSpec):
        points_on_line([])


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
    with pytest.raises(BadSpec):
        graph_metric([(0, 1), (1, -2)])


def test_named_graph_k10_is_complete_not_bipartite():
    edges = named_graph_edges("k10")
    assert len(edges) == 45  # C(10, 2)
    with pytest.raises(BadSpec):
        named_graph_edges("q7")


def test_named_graph_k1_is_one_point():
    k1 = generate_space(SpaceSpec("graph_shortest_path", {"name": "k1"}))
    assert k1.n_points == 1
    assert k1.distances.tolist() == [[0.0]]
    for name in ("k0", "k3,0", "k0,2", "k-1,2"):
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
    with pytest.raises(BadSpec):
        lp_grid((0, 2))
    with pytest.raises(BadSpec):
        lp_grid((2, 2), p=3)


def test_cantor_construction():
    ivs = cantor_intervals(2)
    expect = [(0.0, 1 / 9), (2 / 9, 1 / 3), (2 / 3, 7 / 9), (8 / 9, 1.0)]
    assert len(ivs) == 4
    for got, want in zip(ivs, expect):
        assert got == pytest.approx(want, abs=1e-15)
    gaps = cantor_gaps(2)
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
    for pt in a.labels:
        assert math.sqrt(sum(x * x for x in pt)) <= 1.0
    l1 = ball_sample(2, 2.0, 30, seed=1, p=1)
    for pt in l1.labels:
        assert abs(pt[0]) + abs(pt[1]) <= 2.0


def _broadcast_distances(pts, p):
    """The whole-matrix broadcast formula; the generators' row-blocked
    distances must equal it bit for bit."""
    diff = pts[:, None, :] - pts[None, :, :]
    if p == 1:
        return np.abs(diff).sum(axis=2)
    return np.sqrt((diff * diff).sum(axis=2))


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
        pts, d = np.array(sp.labels), sp.distances
    assert np.array_equal(d, _broadcast_distances(pts, p))


@pytest.mark.parametrize("p", [1, 2])
def test_lp_grid_and_line_match_broadcast_formula(p):
    g = lp_grid((13, 11), p=p, spacing=0.37)
    assert np.array_equal(g.distances,
                          _broadcast_distances(np.array(g.labels), p))
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


def test_ball_sample_input_checks():
    with pytest.raises(BadSpec):
        ball_sample(0, 1.0, 5, seed=1)
    with pytest.raises(BadSpec):
        ball_sample(2, -1.0, 5, seed=1)
    with pytest.raises(BadSpec):
        ball_sample(2, 1.0, 5, seed=1, p=3)
    with pytest.raises(BadSpec):
        ball_sample(2, 1.0, 5, seed=None)


@pytest.mark.parametrize("dim, count, p", [(12, 10, 1), (20, 5, 2)])
def test_ball_sample_refuses_out_of_reach_rejection(dim, count, p):
    # the l1 ball keeps 1/12! of the cube's draws and the l2 ball in d = 20
    # about 2.5e-8, so these would draw for minutes; refused before drawing
    t0 = time.perf_counter()
    with pytest.raises(BadSpec, match="cube draws"):
        ball_sample(dim, 1.0, count, seed=1, p=p)
    assert time.perf_counter() - t0 < 0.5


# ---------------------------------------------------------------------------
# specs


def test_spec_round_trip():
    spec = SpaceSpec("ball_sample", {"n": 3, "radius": 1.0, "count": 10}, seed=7)
    again = SpaceSpec.from_json(spec.to_json())
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
                         ("lp_grid", [1])]:
        with pytest.raises(BadSpec):
            generate_space(SpaceSpec(kind, params))
    with pytest.raises(BadSpec):
        named_graph_edges("k3,x")
    with pytest.raises(BadSpec):
        SpaceSpec.from_json("not json at all {")
    with pytest.raises(BadSpec):
        SpaceSpec.from_json(json.dumps(["kind"]))


# ---------------------------------------------------------------------------
# matrix IO


def test_csv_round_trip():
    sp = validate_metric(K32)
    text = save_distance_csv(sp)
    back = load_distance_csv(text)
    assert np.array_equal(back, sp.distances)


def test_csv_parse_errors():
    with pytest.raises(MatrixParseError):
        load_distance_csv("0,1\n1")  # ragged
    with pytest.raises(MatrixParseError):
        load_distance_csv("0,x\nx,0")
    with pytest.raises(MatrixParseError):
        load_distance_csv("")
