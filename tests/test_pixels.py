"""Pixel sets, face measures, expansion polynomials, and convex bodies."""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magnitude.engine import magnitude
from magnitude.pixels import (
    CELL_LIMIT,
    BadScale,
    ConvexBody,
    ConvexBodySpec,
    DegenerateBody,
    EmptySet,
    FaceMeasure,
    MixedDimensions,
    NonConvexVertices,
    PixelError,
    PixelSet,
    ProbeOutsideSet,
    body_magnitude_bounds,
    build_body,
    is_l1_convex,
    outer_pixelation,
    parse_ascii,
    parse_pixel_file,
    steiner_polynomial,
    weight_measure,
)
from magnitude.spaces import BadSpec, NonpositiveScale
from oracles import (
    TooManyCells,
    dilation_fit,
    grid_sample,
    per_cell_dilation_volume,
    probe_grid,
    verify_weight_measure,
    weight_measure_ie,
)

F = Fraction

L_TROMINO = parse_ascii("#.\n##")
UNIT = PixelSet(2, 1, frozenset({(0, 0)}))


def blob(rng, dim, max_cells=10, span=4):
    n = rng.randint(1, min(max_cells, span**dim))
    cells = set()
    while len(cells) < n:
        cells.add(tuple(rng.randint(0, span - 1) for _ in range(dim)))
    return PixelSet(dim, 1, frozenset(cells))


# ---------------------------------------------------------------------------
# container and parsing


def test_pixelset_input_checks():
    with pytest.raises(EmptySet):
        PixelSet(2, 1, frozenset())
    with pytest.raises(MixedDimensions):
        PixelSet(2, 1, frozenset({(0, 0), (0, 0, 0)}))
    with pytest.raises(BadScale):
        PixelSet(2, 0, frozenset({(0, 0)}))
    with pytest.raises(PixelError):
        PixelSet(4, 1, frozenset({(0, 0, 0, 0)}))


def test_parse_ascii_top_row_is_highest_y():
    p = parse_ascii("##\n#.")
    assert p.cells == frozenset({(0, 1), (1, 1), (0, 0)})


def test_parse_ascii_one_dimensional():
    p = parse_ascii("#.#", dim=1)
    assert p.dim == 1
    assert p.cells == frozenset({(0,), (2,)})


def test_parse_ascii_errors():
    with pytest.raises(EmptySet):
        parse_ascii("..\n..")
    with pytest.raises(PixelError):
        parse_ascii("#x")


def test_pixel_file_round_trip():
    for p in (L_TROMINO, PixelSet(3, F(1, 2), frozenset({(0, 0, 0), (1, 0, 0)}))):
        text = f"dim {p.dim} scale {p.scale}\n" + "".join(
            " ".join(map(str, c)) + "\n" for c in sorted(p.cells))
        back = parse_pixel_file(text)
        assert back.cells == p.cells
        assert back.scale == p.scale
        assert back.dim == p.dim


def test_pixel_file_comments_and_header():
    text = "// shape under test\ndim 2 scale 1/3\n##\n.#\n"
    p = parse_pixel_file(text)
    assert p.scale == F(1, 3)
    assert p.cells == frozenset({(0, 1), (1, 1), (1, 0)})
    with pytest.raises(PixelError):
        parse_pixel_file("dim 5 scale 1\n0 0 0 0 0")
    with pytest.raises(PixelError):
        parse_pixel_file("scale 1\n##")


# ---------------------------------------------------------------------------
# face measures


def test_unit_pixel_faces_all_quarter():
    wm = weight_measure(UNIT)
    assert len(wm.coefficients) == 9
    assert set(wm.coefficients.values()) == {F(1, 4)}
    assert wm.total_mass_exact() == F(9, 4)
    # (1 + t/2)^2 at t = 1
    assert wm.magnitude_at(1.0) == pytest.approx(2.25, abs=1e-15)


def test_interior_faces_cancel():
    two = parse_ascii("##")
    wm = weight_measure(two)
    # shared edge and its endpoints carry coefficient zero
    assert wm.coefficient((1, 0), (1,)) == 0
    assert wm.coefficient((1, 0), ()) == 0
    assert wm.coefficient((1, 1), ()) == 0
    assert wm.total_mass_exact() == F(3, 1)  # (1 + 1/2)(1 + 2/2)


def test_probe_outside_set():
    wm = weight_measure(UNIT)
    with pytest.raises(ProbeOutsideSet):
        wm.coefficient((5, 5), ())


@pytest.mark.parametrize("anchor, axes", [
    ((0, 0), ()),          # two coordinates for a 3-D anchor
    ((0, 0, 0), (5,)),     # no axis 5 in 3-D
    ((0, 0, 0), (1, 0)),   # axes out of order
    ((0, 0, 0), (1, 1)),   # a repeated axis
])
def test_malformed_face_key_is_refused(anchor, axes):
    wm = weight_measure(PixelSet(3, 1, [(0, 0, 0)]))
    with pytest.raises(ProbeOutsideSet):
        wm.coefficient(anchor, axes)
    assert wm.coefficient((0, 0, 0), (0, 1)) == F(1, 8)


def test_l_tromino_measure_and_polynomial():
    wm = weight_measure(L_TROMINO)
    sp = steiner_polynomial(L_TROMINO)
    assert sp.coefficients == (F(1), F(4), F(3))
    assert wm.total_mass_exact() == F(15, 4)
    assert sp.magnitude_exact() == F(15, 4)
    by_dim = wm.mass_by_dimension()
    # coefficient sums relate to the polynomial by V_i = 2^i scale^i sum_i
    assert by_dim == {0: F(1), 1: F(2), 2: F(3, 4)}
    # both ascii orientations give the same invariants
    other = parse_ascii(".#\n##")
    assert steiner_polynomial(other).coefficients == sp.coefficients


def test_measure_matches_inclusion_exclusion_oracle():
    rng = random.Random(7)
    for _ in range(30):
        p = blob(rng, rng.choice([1, 2, 3]), max_cells=8)
        a = weight_measure(p)
        b = weight_measure_ie(p)
        assert a.coefficients == b.coefficients
    # every nonempty subset of the 2x2x2 and 3x3 boxes
    for shape in ((2, 2, 2), (3, 3)):
        box = list(itertools.product(*map(range, shape)))
        for mask in range(1, 1 << len(box)):
            p = PixelSet(len(shape), 1,
                         [c for i, c in enumerate(box) if mask >> i & 1])
            assert weight_measure(p) == weight_measure_ie(p), p.cells


def test_measure_float_ignores_face_order():
    # the same coefficients stored in reversed order give the same float,
    # the exact total rounded within a few ulps
    rng = random.Random(21)
    for _ in range(60):
        p = blob(rng, rng.choice([1, 2, 3]), max_cells=12, span=5)
        p = PixelSet(p.dim, F(1, rng.choice([1, 3, 7])), p.cells)
        a = weight_measure(p)
        b = FaceMeasure(a.dim, a.scale,
                        dict(reversed(list(a.coefficients.items()))), a.cells)
        for t in (0.3, 1.0, 2.7):
            assert a.magnitude_at(t) == b.magnitude_at(t)
            exact = float(a.total_mass_exact(F(t)))
            assert a.magnitude_at(t) == pytest.approx(exact, rel=1e-15)


def test_cube_masses_and_runtime():
    # the k-cube's measure is the product of k-interval measures
    # (atoms 1/2, density 1/2), so mass by dimension d is C(3, d) (k/2)^d
    k = 10
    cube = PixelSet(3, 1, itertools.product(range(k), repeat=3))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        wm = weight_measure(cube)
        times.append(time.perf_counter() - t0)
    assert wm.mass_by_dimension() == {0: 1, 1: F(3 * k, 2), 2: F(3 * k * k, 4),
                                      3: F(k**3, 8)}
    assert min(times) < 0.5


def test_ie_oracle_cell_limit():
    cells = frozenset((i, 0) for i in range(21))
    with pytest.raises(TooManyCells):
        weight_measure_ie(PixelSet(2, 1, cells))


def test_measure_is_a_valuation():
    # wm(A) + wm(B) == wm(A|B) + wm(A&B) coefficient by coefficient, for
    # pairs whose closed regions meet exactly in the shared cells (solid
    # boxes overlapping in every axis; touching-only contact would add
    # boundary faces the cell intersection cannot see)
    rng = random.Random(13)
    for _ in range(20):
        dim = rng.choice([2, 3])

        def solid_box():
            lohi = []
            for _ in range(dim):
                lo = rng.randint(0, 2)
                hi = rng.randint(lo + 1, 4)
                lohi.append(range(lo, hi))
            return frozenset(itertools.product(*lohi))

        acells, bcells = solid_box(), solid_box()
        inter = acells & bcells
        if not inter:
            continue
        a = PixelSet(dim, 1, acells)
        b = PixelSet(dim, 1, bcells)
        union = PixelSet(dim, 1, acells | bcells)
        both = PixelSet(dim, 1, inter)
        left = {}
        for p in (a, b):
            for k, v in weight_measure(p).coefficients.items():
                left[k] = left.get(k, F(0)) + v
        right = {}
        for p in (union, both):
            for k, v in weight_measure(p).coefficients.items():
                right[k] = right.get(k, F(0)) + v
        assert {k: v for k, v in left.items() if v} == {
            k: v for k, v in right.items() if v
        }


def test_total_mass_equals_polynomial_magnitude_always():
    # two independent computations of the same quantity, convex or not
    rng = random.Random(99)
    for _ in range(40):
        dim = rng.choice([1, 2, 3])
        p = blob(rng, dim, span=6 if dim == 1 else 4)
        wm = weight_measure(p)
        sp = steiner_polynomial(p)
        for t in (F(1), F(3, 7), F(5, 2)):
            assert wm.total_mass_exact(t) == sp.magnitude_exact(t)


# ---------------------------------------------------------------------------
# expansion polynomial


def test_polynomial_of_boxes_factorizes():
    rng = random.Random(3)
    for _ in range(10):
        k1, k2 = rng.randint(1, 5), rng.randint(1, 5)
        lam = rng.choice([F(1), F(1, 2), F(2, 3)])
        cells = frozenset((i, j) for i in range(k1) for j in range(k2))
        sp = steiner_polynomial(PixelSet(2, lam, cells))
        t = F(rng.randint(1, 5), rng.randint(1, 3))
        expect = (1 + t * k1 * lam / 2) * (1 + t * k2 * lam / 2)
        assert sp.magnitude_exact(t) == expect


def test_two_by_three_box_magnitude_five():
    cells = frozenset((i, j) for i in range(2) for j in range(3))
    p = PixelSet(2, 1, cells)
    assert is_l1_convex(p)
    assert steiner_polynomial(p).magnitude_at(1.0) == pytest.approx(5.0, abs=1e-12)


def test_expanded_volume_matches_fresh_dilation_node():
    # r = 1/5 is none of the oracle's fitting nodes
    rng = random.Random(41)
    for _ in range(15):
        p = blob(rng, rng.choice([1, 2, 3]), max_cells=8, span=3)
        sp = steiner_polynomial(p)
        r = p.scale / 5
        expanded = sum(v * r ** (p.dim - i) for i, v in enumerate(sp.coefficients))
        assert expanded == per_cell_dilation_volume(p, r)


def test_unit_square_dilation():
    assert per_cell_dilation_volume(UNIT, F(1, 5)) == F(36, 25)  # (1 + r)^2
    assert steiner_polynomial(UNIT).coefficients == (F(1), F(2), F(1))


def test_ring_with_hole():
    ring = PixelSet(2, 1, frozenset(
        (x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)
    ))
    sp = steiner_polynomial(ring)
    # dilation grows the outside and shrinks the hole: (3+r)^2 - (1-r)^2
    assert sp.coefficients == (F(0), F(8), F(8))
    assert not is_l1_convex(ring)


def test_scale_third_l_tromino():
    p = PixelSet(2, F(1, 3), L_TROMINO.cells)
    assert steiner_polynomial(p).coefficients == (F(1), F(4, 3), F(1, 3))


def test_three_d_box():
    cells = frozenset((i, j, k) for i in range(1) for j in range(1) for k in range(2))
    sp = steiner_polynomial(PixelSet(3, 1, cells))
    assert sp.magnitude_exact() == F(3, 2) ** 2 * 2  # (1+1/2)^2 (1+2/2)
    assert sp.coefficients[-1] == 2  # V_n is the volume


# ---------------------------------------------------------------------------
# convexity and sampling


def test_l1_convexity_catalogue():
    convex = [
        "##\n##",
        "#.\n##",
        "###",
        ".#.\n###\n.#.",          # plus
        "##.\n.##",               # s-piece: staircases exist
        "###\n.#.",               # t-piece
    ]
    concave = [
        "#.#",
        "#.#\n###",               # u-piece
    ]
    for art in convex:
        assert is_l1_convex(parse_ascii(art)), art
    for art in concave:
        assert not is_l1_convex(parse_ascii(art)), art


def test_nonconvex_magnitude_flag_and_u_polynomial():
    u = parse_ascii("#.#\n###")
    assert not is_l1_convex(u)
    assert steiner_polynomial(u).coefficients == (F(1), F(6), F(5))


def test_grid_sample_increases_toward_polynomial_value():
    exact = float(steiner_polynomial(UNIT).magnitude_exact())
    coarse = magnitude(grid_sample(UNIT, 4), 1.0)
    fine = magnitude(grid_sample(UNIT, 8), 1.0)
    assert coarse < fine < exact
    assert exact - fine < 0.05


def test_grid_sample_point_count_and_metric():
    sp = grid_sample(L_TROMINO, 2)
    # 2 per unit on 3 cells: 21 lattice points
    assert sp.n_points == 21
    assert sp.diameter == pytest.approx(4.0)  # taxicab corner to corner
    with pytest.raises(PixelError):
        grid_sample(UNIT, 0)


def test_grid_sample_matches_broadcast_formula():
    # more than one row block of the shared distance helper
    sp = grid_sample(L_TROMINO, 6)
    pts = sp.points
    assert sp.n_points > 64
    assert np.array_equal(
        sp.distances, np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2))


# ---------------------------------------------------------------------------
# convex bodies


def test_box_body():
    body = build_body(ConvexBodySpec(2, "box", lengths=("1", "2")))
    assert len(body.vertices) == 4
    assert len(body.facets) == 4
    assert body.centroid == (F(1, 2), F(1))


def test_simplex_and_polytope_bodies():
    tri = build_body(ConvexBodySpec(
        2, "simplex_vertices", vertices=(("0", "0"), ("1", "0"), ("0", "1"))
    ))
    assert len(tri.facets) == 3
    octa = build_body(ConvexBodySpec(3, "polytope_vertices", vertices=(
        ("1", "0", "0"), ("-1", "0", "0"), ("0", "1", "0"),
        ("0", "-1", "0"), ("0", "0", "1"), ("0", "0", "-1"),
    )))
    assert len(octa.facets) == 8
    assert octa.centroid == (F(0), F(0), F(0))


def test_degenerate_and_nonconvex_vertex_errors():
    with pytest.raises(DegenerateBody):
        build_body(ConvexBodySpec(2, "simplex_vertices", vertices=(
            ("0", "0"), ("1", "1"), ("2", "2")
        )))
    with pytest.raises(NonConvexVertices):
        build_body(ConvexBodySpec(2, "polytope_vertices", vertices=(
            ("0", "0"), ("2", "0"), ("0", "2"), ("2", "2"), ("1", "1")
        )))


def test_unit_square_pixelation_is_tight():
    body = build_body(ConvexBodySpec(2, "box", lengths=("1", "1")))
    pix = outer_pixelation(body, 1)
    assert pix.cells == frozenset({(0, 0)})
    bounds = body_magnitude_bounds(body, 1)
    assert bounds.alpha == 1
    assert bounds.lower == bounds.upper == pytest.approx(2.25)


def test_box_pixelation_exact_at_half_scale():
    body = build_body(ConvexBodySpec(2, "box", lengths=("1", "2")))
    bounds = body_magnitude_bounds(body, F(1, 2))
    assert len(bounds.pixelation.cells) == 8
    assert bounds.alpha == 1
    assert bounds.upper == pytest.approx((1 + 0.5) * (1 + 1.0))
    assert bounds.lower == pytest.approx(bounds.upper)


def test_triangle_sandwich_narrows_with_scale():
    tri = ConvexBodySpec(
        2, "simplex_vertices", vertices=(("0", "0"), ("1", "0"), ("0", "1"))
    )
    body = build_body(tri)
    coarse = body_magnitude_bounds(body, F(1, 2))
    fine = body_magnitude_bounds(body, F(1, 4))
    assert coarse.lower <= coarse.upper
    assert fine.lower <= fine.upper
    assert fine.upper - fine.lower < coarse.upper - coarse.lower
    assert coarse.lower <= fine.upper and fine.lower <= coarse.upper
    assert fine.alpha > coarse.alpha  # sharper shrink factor as cells refine


def test_octahedron_bounds_sane():
    octa = build_body(ConvexBodySpec(3, "polytope_vertices", vertices=(
        ("1", "0", "0"), ("-1", "0", "0"), ("0", "1", "0"),
        ("0", "-1", "0"), ("0", "0", "1"), ("0", "0", "-1"),
    )))
    bounds = body_magnitude_bounds(octa, F(1, 2))
    assert 1.0 <= bounds.lower <= bounds.upper
    assert 0 < bounds.alpha <= 1


def test_pixelation_covers_the_body_vertices():
    tri = build_body(ConvexBodySpec(
        2, "simplex_vertices", vertices=(("0", "0"), ("3", "0"), ("0", "2"))
    ))
    pix = outer_pixelation(tri, F(1, 2))
    lam = pix.scale
    for v in tri.vertices:
        # every vertex lies in the closure of some chosen cell
        assert any(
            all(lam * c <= x <= lam * (c + 1) for x, c in zip(v, cell))
            for cell in pix.cells
        )


# ---------------------------------------------------------------------------
# measure verification against the defining integral identity


def test_unit_pixel_corner_probe():
    p = parse_ascii("#")
    fm = weight_measure(p)
    assert verify_weight_measure(p, fm, [(0.0, 0.0)]) <= 1e-12


def test_l_tromino_probe_grid_deviation():
    p = parse_ascii("##\n#.")
    fm = weight_measure(p)
    probes = probe_grid(p, per_cell=5)
    assert len(probes) == 3 * 25
    assert verify_weight_measure(p, fm, probes) <= 1e-12


def test_probe_grid_shape_and_bounds():
    p = parse_ascii("##\n#.", scale=F(1, 3))
    pts = probe_grid(p, per_cell=2)
    assert len(pts) == 3 * 4
    lam = 1.0 / 3.0
    cells = sorted(p.cells)
    for pt in pts:
        assert any(
            all(lam * c <= x <= lam * (c + 1) for x, c in zip(pt, cell))
            for cell in cells
        )
    single = probe_grid(parse_ascii("#"), per_cell=1)
    assert single == [(0.5, 0.5)]
    with pytest.raises(PixelError):
        probe_grid(p, per_cell=0)


def test_non_convex_set_probe_deviation_is_reported():
    # e^{-d} integral against the naive measure misses 1 on "#.#"
    p = parse_ascii("#.#")
    fm = weight_measure(p)
    dev = verify_weight_measure(p, fm, [(0.5, 0.5)])
    assert dev > 1e-6
    # exact value: each outer cell contributes 1 at its own probe, the
    # far cell's extra mass rides in at e^{-1.5} from the near edge
    assert dev == pytest.approx(math.exp(-1.5), rel=1e-9)


def test_probe_outside_set_raises():
    p = parse_ascii("##\n#.")
    fm = weight_measure(p)
    with pytest.raises(ProbeOutsideSet):
        verify_weight_measure(p, fm, [(1.5, 0.5)])  # the missing corner cell


def test_verify_measure_dimension_guard():
    p2 = parse_ascii("##")
    fm1 = weight_measure(parse_ascii("#", dim=1))
    with pytest.raises(PixelError):
        verify_weight_measure(p2, fm1, [(0.5, 0.5)])


def test_verify_measure_scaled_and_1d():
    p = parse_ascii("###", dim=1, scale=F(2))
    fm = weight_measure(p)
    assert verify_weight_measure(p, fm, probe_grid(p, 7)) <= 1e-12
    cube = PixelSet(3, F(1, 3), frozenset({(0, 0, 0), (1, 0, 0)}))
    fm3 = weight_measure(cube)
    assert verify_weight_measure(cube, fm3, probe_grid(cube, 3)) <= 1e-12


# ---------------------------------------------------------------------------
# convexity witnesses


def test_l1_convex_witness_pair():
    ok, pair = is_l1_convex(parse_ascii("#.#"), witness=True)
    assert ok is False
    assert pair == ((0, 0), (2, 0))
    ok, pair = is_l1_convex(parse_ascii("##\n#."), witness=True)
    assert ok is True and pair is None


# ---------------------------------------------------------------------------
# oracles: the pairwise staircase search and the per-cell Fourier-Motzkin
# test that the production paths replaced


def staircase_witness(p):
    """First sorted cell pair that no monotone staircase joins, or None."""
    cells = p.cells

    def reaches(a, b):
        seen, stack = set(), [a]
        while stack:
            c = stack.pop()
            if c == b:
                return True
            if c in seen:
                continue
            seen.add(c)
            for i in range(p.dim):
                if c[i] != b[i]:
                    step = 1 if b[i] > c[i] else -1
                    nxt = c[:i] + (c[i] + step,) + c[i + 1:]
                    if nxt in cells:
                        stack.append(nxt)
        return False

    return next(((a, b) for a, b in itertools.combinations(sorted(cells), 2)
                 if not reaches(a, b)), None)


def fm_feasible(rows, n):
    rows = [([F(c) for c in a], F(b), s) for a, b, s in rows]
    for var in range(n):
        pos = [r for r in rows if r[0][var] > 0]
        neg = [r for r in rows if r[0][var] < 0]
        new = [r for r in rows if r[0][var] == 0]
        for ap, bp, sp in pos:
            for an, bn, sn in neg:
                f_p, f_n = -an[var], ap[var]
                new.append(([f_p * x + f_n * y for x, y in zip(ap, an)],
                            f_p * bp + f_n * bn, sp or sn))
        rows = new
    return all(b > 0 if s else b >= 0 for _, b, s in rows)


def per_cell_pixelation(body, lam):
    """Cells whose open box meets the body, one elimination per cell."""
    n = body.dim
    ranges = [
        range((min(v[i] for v in body.vertices) / lam).__floor__() - 1,
              (max(v[i] for v in body.vertices) / lam).__ceil__() + 1)
        for i in range(n)
    ]
    cells = set()
    for cell in itertools.product(*ranges):
        rows = [(a, b, False) for a, b in body.facets]
        for i in range(n):
            unit = [int(j == i) for j in range(n)]
            rows.append(([-x for x in unit], -lam * cell[i], True))
            rows.append((unit, lam * (cell[i] + 1), True))
        if fm_feasible(rows, n):
            cells.add(cell)
    return frozenset(cells)


# ---------------------------------------------------------------------------
# the bitset convexity test against the search


@pytest.mark.parametrize("shape", [(4, 4), (3, 5), (2, 2, 3)],
                         ids=lambda shape: "-".join(map(str, shape)))
def test_convexity_test_matches_search_on_every_subset(shape):
    box = list(itertools.product(*map(range, shape)))
    for bits in range(1, 1 << len(box)):
        p = PixelSet(len(shape), 1, [c for k, c in enumerate(box) if bits >> k & 1])
        pair = staircase_witness(p)
        assert is_l1_convex(p) == (pair is None), sorted(p.cells)
        assert is_l1_convex(p, witness=True) == (pair is None, pair)


def test_convexity_in_one_dimension_is_an_interval():
    assert is_l1_convex(PixelSet(1, 1, [(x,) for x in range(-2, 5)]))
    p = PixelSet(1, 1, [(0,), (1,), (3,)])
    assert is_l1_convex(p, witness=True) == (False, ((0,), (3,)))


def test_three_d_keeps_the_search():
    # every axis line meets it in an interval and it is face-connected,
    # yet a staircase from (0,1,1) to (1,0,0) must leave the set
    p = PixelSet(3, 1, [(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)])
    assert staircase_witness(p) is not None
    assert not is_l1_convex(p)
    assert is_l1_convex(p, witness=True) == (False, staircase_witness(p))


def test_convexity_of_a_large_square_is_fast():
    # the pairwise search needs C(1600, 2) staircases here
    square = PixelSet(2, 1, itertools.product(range(40), repeat=2))
    holed = PixelSet(2, 1, square.cells - {(20, 20)})
    t0 = time.perf_counter()
    assert is_l1_convex(square, witness=True) == (True, None)
    assert not is_l1_convex(holed)
    # the pair staircase_witness(holed) gives
    assert is_l1_convex(holed, witness=True) == (False, ((0, 20), (21, 20)))
    assert time.perf_counter() - t0 < 2.0


def test_convexity_of_a_ten_cube_is_fast():
    cube = PixelSet(3, 1, itertools.product(range(10), repeat=3))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert is_l1_convex(cube)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.1
    # the pair staircase_witness gives once the centre cell is gone
    holed = PixelSet(3, 1, cube.cells - {(5, 5, 5)})
    assert is_l1_convex(holed, witness=True) == (False, ((0, 5, 5), (6, 5, 5)))


# ---------------------------------------------------------------------------
# one elimination per body against one per cell


@st.composite
def small_bodies(draw):
    dim = draw(st.sampled_from([2, 3]))
    den = st.integers(1, 3)
    coord = den.flatmap(lambda q: st.integers(-2 * q, 2 * q).map(lambda k: F(k, q)))
    if draw(st.booleans()):
        kind = "simplex_vertices"
        verts = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1,
                              max_size=dim + 1))
    else:
        kind = "polytope_vertices"
        lohi = [sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
                for _ in range(dim)]
        verts = list(itertools.product(*lohi))
    try:
        return build_body(ConvexBodySpec(dim, kind, vertices=tuple(verts)))
    except PixelError:
        assume(False)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(body=small_bodies(), lam=st.sampled_from([F(1), F(1, 2), F(2, 3)]))
def test_outer_pixelation_matches_per_cell_elimination(body, lam):
    assert outer_pixelation(body, lam).cells == per_cell_pixelation(body, lam)


def per_cell_shrink_factor(body, pix):
    """alpha from a pass over every cell for each facet."""
    c = body.centroid
    alpha = F(1)
    for a, b in body.facets:
        slack = F(b) - sum(ai * ci for ai, ci in zip(a, c))
        top = max(sum(ai * ki for ai, ki in zip(a, cell)) for cell in pix.cells)
        top += sum(ai for ai in a if ai > 0)
        reach = pix.scale * top - sum(ai * ci for ai, ci in zip(a, c))
        if reach > 0:
            alpha = min(alpha, slack / reach)
    return max(alpha, F(0))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(body=small_bodies(), lam=st.sampled_from([F(1), F(1, 2), F(2, 3)]))
def test_shrink_factor_matches_the_per_cell_pass(body, lam):
    bounds = body_magnitude_bounds(body, lam)
    assert bounds.alpha == per_cell_shrink_factor(body, bounds.pixelation)


@pytest.mark.parametrize("kind, vertices, lam", [
    ("simplex_vertices", (("0", "0"), ("1", "0"), ("0", "1")), F(1, 2)),
    ("simplex_vertices", (("0", "0"), ("1", "0"), ("0", "1")), F(1, 80)),
    ("simplex_vertices", (("0", "0"), ("3", "0"), ("0", "2")), F(1, 2)),
    ("polytope_vertices", (("0", "0"), ("3", "1"), ("2", "3"), ("-1", "2")),
     F(1, 80)),
    ("polytope_vertices", (("1", "0", "0"), ("-1", "0", "0"), ("0", "1", "0"),
                           ("0", "-1", "0"), ("0", "0", "1"),
                           ("0", "0", "-1")), F(1, 2)),
])
def test_shrink_factor_of_the_named_bodies(kind, vertices, lam):
    body = build_body(ConvexBodySpec(len(vertices[0]), kind, vertices=vertices))
    bounds = body_magnitude_bounds(body, lam)
    assert bounds.alpha == per_cell_shrink_factor(body, bounds.pixelation)


def test_triangle_bounds_at_fine_scale_are_fast():
    tri = build_body(ConvexBodySpec(
        2, "simplex_vertices", vertices=(("0", "0"), ("1", "0"), ("0", "1"))))
    t0 = time.perf_counter()
    bounds = body_magnitude_bounds(tri, F(1, 80))
    assert time.perf_counter() - t0 < 2.0
    # C(k+1, 2) cells, the cell count of a pixelated simplex
    assert bounds.pixelation.n_cells == math.comb(81, 2)
    assert bounds.lower <= bounds.upper


# ---------------------------------------------------------------------------
# the expansion polynomial from face counts against the dilation-volume fit


@st.composite
def pixel_sets(draw):
    dim = draw(st.integers(1, 3))
    cells = draw(st.sets(st.tuples(*[st.integers(-3, 2)] * dim),
                         min_size=1, max_size=8 if dim == 3 else 12))
    scale = draw(st.sampled_from([F(1), F(1, 2), F(2, 3), F(5, 3)]))
    return PixelSet(dim, scale, cells)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=pixel_sets())
def test_face_count_polynomial_matches_dilation_fit(p):
    v = steiner_polynomial(p).coefficients
    assert dilation_fit(p) == list(reversed(v)) + [0] * (3 - p.dim)
    masses = weight_measure(p).mass_by_dimension()
    assert list(v) == [(2 * p.scale) ** k * masses.get(k, 0)
                       for k in range(p.dim + 1)]


def test_far_apart_cells_count_as_two():
    for dim in (1, 2, 3):
        far = (10**15,) + (0,) * (dim - 1)
        p = PixelSet(dim, F(1, 3), [(0,) * dim, far])
        one = steiner_polynomial(PixelSet(dim, F(1, 3), [(0,) * dim]))
        assert steiner_polynomial(p).coefficients == tuple(
            2 * v for v in one.coefficients)
    p = PixelSet(2, 1, [(0, 0), (10**15, -(10**15))])
    assert steiner_polynomial(p).coefficients == (2, 4, 2)


def test_quadrilateral_polynomial_at_fine_scale_is_fast():
    quad = build_body(ConvexBodySpec(2, "polytope_vertices", vertices=(
        ("0", "0"), ("3", "1"), ("2", "3"), ("-1", "2"))))
    pix = outer_pixelation(quad, F(1, 80))
    assert pix.n_cells == 45200
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        sp = steiner_polynomial(pix)
        times.append(time.perf_counter() - t0)
    assert sp.coefficients == (1, 7, F(113, 16))
    assert min(times) < 0.5


def test_cell_limit_is_a_runtime_gate():
    # a 3-D box at the limit, 64^3 candidates with the margin, is the
    # slowest body per candidate: 2.2 s for the bounds on a 2-vCPU x86
    # machine; one step finer is refused before a cell is built
    cube = build_body(ConvexBodySpec(3, "box", lengths=("1", "1", "1")))
    assert 64**3 == CELL_LIMIT
    t0 = time.perf_counter()
    bounds = body_magnitude_bounds(cube, F(1, 62))
    assert time.perf_counter() - t0 < 8.0
    assert bounds.pixelation.n_cells == 62**3
    with pytest.raises(BadSpec, match="262,144 cells"):
        outer_pixelation(cube, F(1, 63))


def test_scale_message():
    with pytest.raises(BadScale, match=r"^scale must be > 0, got -1/2$"):
        PixelSet(2, "-1/2", [(0, 0)])
    # a scale is exact, of any size: no double range applies
    assert PixelSet(2, "1e400", [(0, 0)]).scale == 10**400


# ---------------------------------------------------------------------------
# the scale t must be positive


@pytest.mark.parametrize("t", [0, -1, 0.0, -1.0])
def test_nonpositive_t_is_refused(t):
    with pytest.raises(NonpositiveScale):
        steiner_polynomial(L_TROMINO).magnitude_at(t)
    with pytest.raises(NonpositiveScale):
        weight_measure(L_TROMINO).magnitude_at(t)
    box = build_body(ConvexBodySpec(2, "box", lengths=("1", "1")))
    with pytest.raises(NonpositiveScale):
        body_magnitude_bounds(box, 1, t)
