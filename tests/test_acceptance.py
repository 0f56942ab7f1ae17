"""Acceptance suite: twelve numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also fails loudly through plain asserts. Runtime caps are
asserted where a criterion pins one, and for the definiteness report of a
large ball sample. Everything is seeded and deterministic.
"""

import contextlib
import io
import itertools
import json
import time
from fractions import Fraction

import numpy as np
from scipy.spatial.distance import cdist

from magnitude import (
    FiniteMetricSpace,
    SpaceSpec,
    cantor_endpoints,
    definiteness_report,
    generate_space,
    lp_grid,
    magnitude,
    magnitude_function,
    points_on_line,
)
from magnitude import cli, diversity, euclid, lines, pixels
from magnitude.spaces import ball_sample, cantor_intervals, graph_metric
from oracles import grid_sample, probe_grid, verify_weight_measure, weight_measure_ie


class _Criterion:
    """Context manager that emits the single pass/fail line."""

    def __init__(self, num: int):
        self.num = num
        self.detail = ""

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def __exit__(self, exc_type, exc, tb) -> bool:
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.num:02d}: {status}  {self.detail}".rstrip())
        return False


def test_criterion_01_line_oracle_agreement():
    """Dense solve matches the line closed form on 1000 random subsets of R."""
    with _Criterion(1) as c:
        rng = np.random.default_rng(20260819)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 201))
            # gap floor 0.01 keeps the kernel condition number far from
            # eating the 1e-10 budget; spacing is otherwise random
            gaps = rng.uniform(0.01, 1.0, size=n - 1)
            xs = rng.uniform(-5.0, 5.0) + np.concatenate(([0.0], np.cumsum(gaps)))
            t = float(rng.uniform(0.1, 10.0))
            dense = magnitude(points_on_line(xs), t)
            closed = lines.line_magnitude(xs, t)
            worst = max(worst, abs(dense - closed) / abs(closed))
        assert worst <= 1e-10
        assert c.elapsed < 30.0
        c.detail = f"worst relative gap {worst:.2e} over 1000 sets ({c.elapsed:.1f}s)"


def test_criterion_02_interval_convergence():
    """Uniform grids on [0,2] at t=1 increase to 2 inside the Taylor bound."""
    with _Criterion(2) as c:
        mags = []
        for n in (10, 100, 1000):
            grid = lp_grid([n], spacing=2.0 / (n - 1))
            m = magnitude(grid, 1.0)
            err = 2.0 - m
            bound = 8.0 / (24.0 * (n - 1) ** 2)
            assert 0.0 < err <= bound, (n, err, bound)
            mags.append(m)
        assert mags[0] < mags[1] < mags[2] < 2.0
        assert c.elapsed < 5.0
        c.detail = f"errors {2.0 - mags[0]:.1e}/{2.0 - mags[1]:.1e}/{2.0 - mags[2]:.1e} at N=10/100/1000 ({c.elapsed:.1f}s)"


def test_criterion_03_cantor_series_and_endpoints():
    with _Criterion(3) as c:
        oracle = lines.cantor_magnitude(1.0, 1.0)
        compact = lines.compact_magnitude(cantor_intervals(12), 1.0)
        assert abs(oracle - compact) <= 1e-10
        # endpoint spaces sit on the line, so the closed form is exact;
        # a dense solve at 8192 points would add nothing but cubic cost
        vals = []
        for k in range(13):
            ep = cantor_endpoints(k)
            xs = ep.distances[0]
            assert np.all(np.diff(xs) > 0)
            vals.append(lines.line_magnitude(xs, 1.0))
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert abs(oracle - vals[12]) <= 1e-4
        assert c.elapsed < 10.0
        c.detail = f"series-compact gap {abs(oracle - compact):.1e}, depth-12 gap {abs(oracle - vals[12]):.1e} ({c.elapsed:.1f}s)"


def _pixel_corpus() -> list:
    """Forty l1-convex shapes in dimensions 1..3, none above 40 cells."""
    shapes = []
    for k in (1, 2, 3, 5, 8):
        shapes.append((f"seg{k}", pixels.PixelSet(1, 1, frozenset((i,) for i in range(k)))))
    for a, b in [(1, 1), (1, 2), (1, 4), (2, 2), (2, 3), (2, 5), (3, 3), (3, 4),
                 (4, 4), (4, 6), (5, 5), (5, 8), (6, 6)]:
        cells = frozenset(itertools.product(range(a), range(b)))
        shapes.append((f"rect{a}x{b}", pixels.PixelSet(2, 1, cells)))
    for k in (2, 3, 4, 5):
        cells = frozenset((x, y) for y in range(k) for x in range(k - y))
        shapes.append((f"stair{k}", pixels.PixelSet(2, 1, cells)))
    for h, w in [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4)]:
        cells = {(0, y) for y in range(h)} | {(x, 0) for x in range(w)}
        shapes.append((f"L{h}_{w}", pixels.PixelSet(2, 1, frozenset(cells))))
    plus = frozenset({(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)})
    shapes.append(("plus", pixels.PixelSet(2, 1, plus)))
    for dims in [(1, 1, 1), (1, 1, 3), (1, 2, 2), (2, 2, 2), (2, 2, 3), (2, 3, 3),
                 (3, 3, 3), (2, 3, 4), (1, 4, 4)]:
        cells = frozenset(itertools.product(*(range(d) for d in dims)))
        shapes.append(("box" + "x".join(map(str, dims)), pixels.PixelSet(3, 1, cells)))
    tromino = {(0, 0), (1, 0), (0, 1)}
    for depth in (2, 3):
        cells = frozenset((x, y, z) for (x, y) in tromino for z in range(depth))
        shapes.append((f"prismL{depth}", pixels.PixelSet(3, 1, cells)))
    stair = {(x, y) for y in range(3) for x in range(3 - y)}
    cells = frozenset((x, y, z) for (x, y) in stair for z in range(2))
    shapes.append(("prismStair", pixels.PixelSet(3, 1, cells)))
    return shapes


def test_criterion_04_l1_triple_agreement():
    """Weight measure, inclusion-exclusion, and the Steiner mass all agree."""
    with _Criterion(4) as c:
        shapes = _pixel_corpus()
        assert len(shapes) >= 30
        assert all(p.n_cells <= 40 and p.dim <= 3 for _, p in shapes)
        n_ie = 0
        worst_dev = 0.0
        for name, p in shapes:
            assert pixels.is_l1_convex(p), name
            fm = pixels.weight_measure(p)
            sp = pixels.steiner_polynomial(p)
            mass = sum(Fraction(v) / 2**i for i, v in enumerate(sp.coefficients))
            assert fm.total_mass_exact() == mass, name
            if p.n_cells <= 12:
                assert weight_measure_ie(p) == fm, name
                n_ie += 1
            dev = verify_weight_measure(p, fm, probe_grid(p, per_cell=2))
            worst_dev = max(worst_dev, dev)
        assert worst_dev <= 1e-12
        assert c.elapsed < 60.0
        c.detail = f"{len(shapes)} shapes, {n_ie} cross-checked by subset enumeration, worst probe deviation {worst_dev:.1e} ({c.elapsed:.1f}s)"


def test_criterion_05_l_shape_pin():
    with _Criterion(5) as c:
        L = pixels.parse_ascii("##\n#.")
        sp = pixels.steiner_polynomial(L)
        fm = pixels.weight_measure(L)
        assert sp.coefficients == (Fraction(1), Fraction(4), Fraction(3))
        assert sp.magnitude_exact() == Fraction(15, 4)
        assert fm.total_mass_exact() == Fraction(15, 4)
        mags = [magnitude(grid_sample(L, per), 1.0) for per in (5, 10, 20)]
        assert mags[0] < mags[1] < mags[2]
        assert 0.0 < 3.75 - mags[2] <= 1e-2
        c.detail = f"V'=(1,4,3), both paths 15/4, 20/unit grid sits {3.75 - mags[2]:.1e} below"


def test_criterion_06_euclidean_balls():
    """Exact odd-ball values plus seeded sample lower bounds."""
    with _Criterion(6) as c:
        assert euclid.ball_magnitude_exact(3, 1) == Fraction(25, 6)
        # 5-ball closed form with the linear numerator term restored; the
        # nearby truncated variant dips below 1 at small radius, which no
        # nonempty positive definite space can do
        assert euclid.ball_magnitude_exact(5, 1) == Fraction(3199, 480)
        exact = 25.0 / 6.0
        m500 = magnitude(ball_sample(3, 1.0, 500, seed=7), 1.0)
        m2000 = magnitude(ball_sample(3, 1.0, 2000, seed=7), 1.0)
        assert m500 <= exact
        assert m2000 <= exact
        assert m2000 >= 0.85 * exact
        # past five dimensions: 300-point samples of radius 2 stay under
        # the Hankel forms (42.63 and 70.71)
        high = {n: (magnitude(ball_sample(n, 2.0, 300, seed=7), 1.0),
                    euclid.ball_magnitude(n, 2.0)) for n in (7, 9)}
        assert all(1.0 < m < form for m, form in high.values())
        assert c.elapsed < 120.0
        c.detail = (f"25/6 and 3199/480 exact; samples {m500:.3f} (500) and "
                    f"{m2000:.3f} (2000) under {exact:.3f}; 7- and 9-ball "
                    + ", ".join(f"{m:.2f} under {f:.2f}" for m, f in high.values())
                    + f" ({c.elapsed:.1f}s)")


def test_slowest_ball_oracle_runtime_cap():
    """oracle --ball at the largest accepted dimension, over radii from the
    tiniest doubles (whose denominators enter every Hankel entry) to one
    that overflows: under 0.6 s for the four (fastest of three runs each;
    0.21-0.27 s when the limit was set; n = 17 took 0.43 s)."""
    n = euclid.BALL_DIMENSION_LIMIT
    total = 0.0
    for r in ("1e-300", "0.1", "3", "1e308"):
        times = []
        for _ in range(3):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(["oracle", "--ball", f"{n},{r}"])
                times.append(time.perf_counter() - t0)
            # R = 1e308 is accepted, and its value leaves the double range
            assert code == (2 if r == "1e308" else 0)
        total += min(times)
    assert total < 0.6, total


def _fastest(fn, runs=3):
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_support_search_runtime_caps():
    """The support search on the slowest spaces found among 60 ball
    samples and named graphs at each size: at SEARCH_LIMIT points under
    0.04 s (7-13 ms when it was set), and --exact at 15 points under
    0.48 s, 1.4 times the 0.34 s of the search's prototype (0.24-0.42 s
    when it was set); the fastest of three runs each. K_{7,8} at t = 0.5,
    where 5,871 of the 32,767 supports have a positive definite Z_S, is
    searched under 0.06 s (29-33 ms when it was set; 0.13 s while every
    support was visited)."""
    small = ball_sample(3, 1.0, diversity.SEARCH_LIMIT, seed=1)
    assert _fastest(lambda: diversity.max_diversity(small, 1.0)) < 0.04
    for dim, seed, t in ((2, 2, 1.0), (3, 1, 1.0), (1, 0, 0.01)):
        space = ball_sample(dim, 1.0, diversity.EXACT_DIVERSITY_LIMIT, seed=seed)
        assert _fastest(lambda: diversity.max_diversity_exact(space, t)) < 0.48
    k78 = graph_metric([(i, j) for i in range(7) for j in range(7, 15)])
    assert _fastest(lambda: diversity.max_diversity_exact(k78, 0.5)) < 0.06


def test_diversity_ladder_runtime_cap():
    """A 1500-point 3-D ball sample at t = 4, whose Z Cholesky accepts:
    the active set answers in 7 passes, global, in under 0.25 s, the
    fastest of three runs (0.16-0.17 s when the cap was set; 0.24 s
    while a short Frank-Wolfe run came first and failed)."""
    space = ball_sample(3, 1.0, 1500, seed=1)
    res = diversity.max_diversity(space, 4.0)
    assert (res.method, res.iterations, res.certificate) == (
        "active_set", 7, "global")
    assert _fastest(lambda: diversity.max_diversity(space, 4.0)) < 0.25


def test_definiteness_report_runtime_cap():
    """The d of a 1600-point 3-D ball sample, held, is proven of negative
    type, and its report made, in under 0.3 s (the fastest of three runs);
    the sample's points take the theorem."""
    space = FiniteMetricSpace(ball_sample(3, 1.0, 1600, seed=7).distances)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        rep = definiteness_report(space, 1.0)
        times.append(time.perf_counter() - t0)
    assert rep.negative_type_proof == "cholesky"
    assert rep.is_positive_definite
    assert min(times) < 0.3, times


def test_check_on_a_point_space_runtime_and_memory_caps():
    """check on a 4000-point 3-D ball sample answers from the theorem: the
    whole call, the sample and its row scan included, in under 0.15 s
    (the fastest of three runs; 0.052-0.078 s measured on 2 vCPUs) and
    6 MiB traced (4.86 MiB measured), where the Cholesky proof and PD
    test, half a factor at a time, took 1.37-1.47 s and 62.4 MiB."""
    import tracemalloc

    argv = ["check", "--ball", "3,1,4000", "--seed", "1", "--t", "2"]
    out = io.StringIO()
    times = []
    with contextlib.redirect_stdout(out):
        cli.main(argv)  # imports
        for _ in range(3):
            t0 = time.perf_counter()
            cli.main(argv)
            times.append(time.perf_counter() - t0)
        tracemalloc.start()
        try:
            cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    rep = json.loads(out.getvalue().splitlines()[-1])["results"]
    assert rep["negative_type_proof"] == "theorem"
    assert rep["is_positive_definite"] is True
    assert min(times) < 0.15, times
    assert peak <= 6 * 2**20, peak


def test_criterion_07_volume_asymptotics():
    with _Criterion(7) as c:
        r = 1e3
        ratio = euclid.ball_magnitude(3, r) / r**3
        assert abs(ratio * 6.0 - 1.0) <= 1e-2
        # a unit box at t=1e6 deviates by ~1e-6 (the deviation scales like
        # sum(L)/2t), so a thin box is the honest way to reach 1e-9
        t = 1e6
        sides = (1e-4, 2e-4)
        box = 1.0
        for s in sides:
            box *= lines.interval_magnitude(0.0, s, t)
        target = sides[0] * sides[1] / 4.0
        assert abs(box / t**2 - target) <= 1e-9
        c.detail = f"ball ratio off by {abs(ratio * 6 - 1):.1e}, box off by {abs(box / t**2 - target):.1e}"


def test_criterion_08_sphere_residual_decay():
    """R^2-damped residual of the 2-sphere never grows past twice its start."""
    with _Criterion(8) as c:
        rs = np.linspace(10.0, 100.0, 91)
        res = np.array([euclid.sphere_residual(2, float(R)) for R in rs])
        absres = np.abs(res)
        assert np.all(np.diff(absres) < 0)
        envelope = absres * rs**2
        assert np.all(envelope <= 2.0 * envelope[0])
        c.detail = f"|residual| falls {absres[0]:.1e} -> {absres[-1]:.1e} over R in [10,100]"


def test_criterion_09_conjecture_comparator():
    with _Criterion(9) as c:
        for R in np.linspace(0.1, 10.0, 25):
            exact, _, diff = euclid.conjecture_compare(3, float(R))
            assert abs(diff) <= 1e-12 * max(1.0, abs(exact)), R
        _, _, diff5 = euclid.conjecture_compare(5, 1.0)
        assert abs(diff5) > 1e-3
        c.detail = f"n=3 agrees on 25 radii, n=5 splits by {abs(diff5):.3f} at R=1"


def test_criterion_10_k32_pathologies():
    """One sweep certifies all three failure modes of a non-negative-type space."""
    with _Criterion(10) as c:
        k32 = generate_space(SpaceSpec("graph_shortest_path", {"name": "k32"}))
        ts = np.geomspace(0.01, 5.0, 400)
        samples = magnitude_function(k32, ts)
        bad = [s for s in samples if s.magnitude is None or s.magnitude < 0]
        assert len(bad) >= 1
        defined = [s for s in samples if s.magnitude is not None]
        assert any(b.magnitude < a.magnitude for a, b in zip(defined, defined[1:]))
        witness = None
        for s in samples:
            if s.magnitude is None:
                continue
            for drop in range(5):
                part = magnitude(k32.subspace([i for i in range(5) if i != drop]), s.t)
                if part > s.magnitude + 1e-12:
                    witness = (s.t, part - s.magnitude)
                    break
            if witness:
                break
        assert witness is not None
        assert c.elapsed < 10.0
        c.detail = f"{len(bad)} negative-or-undefined samples, subset exceeds whole by {witness[1]:.1e} at t={witness[0]:.3g} ({c.elapsed:.1f}s)"


def _diversity_corpus() -> list:
    rng = np.random.default_rng(4)
    cloud = rng.uniform(0.5, 2.0, size=(10, 3))
    return [
        ("line5", points_on_line([0.0, 0.4, 1.1, 2.0, 3.7]), True),
        ("line2", points_on_line([0.0, 2.5]), True),
        ("grid1d", lp_grid([7], spacing=0.5), True),
        ("grid2d", lp_grid([3, 3], spacing=0.8), False),
        ("grid2d_l1", lp_grid([3, 4], spacing=0.6, p=1), False),
        ("k32", generate_space(SpaceSpec("graph_shortest_path", {"name": "k32"})), False),
        ("c5", generate_space(SpaceSpec("graph_shortest_path", {"name": "c5"})), False),
        ("k4", generate_space(SpaceSpec("graph_shortest_path", {"name": "k4"})), False),
        ("cantor2", cantor_endpoints(2), True),
        ("ball8", ball_sample(3, 1.0, 8, seed=3), False),
        ("ball12", ball_sample(2, 1.0, 12, seed=5), False),
        ("cloud10", FiniteMetricSpace(cdist(cloud, cloud)), False),
    ]


def test_criterion_11_diversity_agreement():
    """Iterative solver against support enumeration, magnitude as the ceiling.

    The ladder runs directly: max_diversity answers these spaces, of at
    most 12 points, from the search itself where they are within its
    limit."""
    with _Criterion(11) as c:
        worst = 0.0
        n_pd = 0
        for name, space, on_line in _diversity_corpus():
            assert space.n_points <= 12, name
            for t in (0.5, 1.0, 2.0):
                fw = diversity._ladder(space, t, 1e-9, 200000)
                exact = diversity.max_diversity_exact(space, t)
                worst = max(worst, abs(fw.value - exact.value))
                if definiteness_report(space, t).is_positive_definite:
                    n_pd += 1
                    mag = magnitude(space, t)
                    assert fw.value <= mag + 1e-8, (name, t)
                    if on_line:
                        assert abs(fw.value - mag) <= 1e-7, (name, t)
        assert worst <= 1e-7
        assert c.elapsed < 60.0
        c.detail = f"12 spaces x 3 scales, worst solver gap {worst:.1e}, {n_pd} PD cases bounded by magnitude ({c.elapsed:.1f}s)"


def test_criterion_12_dimension_slopes():
    with _Criterion(12) as c:
        cant = cantor_endpoints(10)
        est = diversity.dimension_estimate(cant, 10.0, 1000.0, method="diversity_growth",
                                           tol=1e-6, max_iters=300000)
        assert 0.58 <= est.slope <= 0.68, est.slope
        grid = lp_grid([2001], spacing=1.0 / 2000)
        est2 = diversity.dimension_estimate(grid, 50.0, 1000.0, method="diversity_growth",
                                            tol=1e-6, max_iters=300000)
        assert 0.95 <= est2.slope <= 1.05, est2.slope
        assert c.elapsed < 120.0
        c.detail = f"cantor slope {est.slope:.4f} (target 0.6309), interval slope {est2.slope:.4f} ({c.elapsed:.1f}s)"
