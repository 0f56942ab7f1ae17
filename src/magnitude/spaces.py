"""Finite metric spaces: validation, generators, and matrix input.

A space is a validated N x N distance matrix d, which every consumer reads
a block of rows at a time (FiniteMetricSpace.rows). Explicit matrices and
graphs hold d; the generated point sets (lines, lp grids, Cantor endpoints
and ball samples) hold only their points and p, and form each row of d
from them as it is read. Validation enforces the four classical axioms
(zero diagonal, symmetry, separation, triangle inequality); the triangle
check tolerates floating-point slack of 1e-12 times the largest entry so
that computed metrics (for example l2 grids) are not rejected for rounding
noise, while real violations are.

Generators cover the standard test geometries: points on a line, unweighted
graph metrics via all-pairs shortest paths, lp lattice grids, middle-thirds
endpoint sets, seeded uniform samples of lp balls, and explicit matrices.
The spec layer (SpaceSpec, the KINDS table of parameter rules,
POINT_LIMIT, the coordinates of the line kinds with their checks, and a
graph's edges and metric rows) lives in the numpy-free specs module and
is re-exported here, so spaces.SpaceSpec is specs.SpaceSpec; the CLI
solves a space of a line kind (points_1d, lp_grid with at most one
shape entry above 1, cantor_endpoints) from those coordinates with the
line rung (tridiagonal), and the maximum diversity of a small graph from
its rows with the support search (supports), without this module and
without numpy, and builds every other space here. Ball samples draw
from the standard library's random.Random(seed), so a spec with a seed
reproduces the same points bit for bit on any platform. A spec, and a
direct call of a public builder, is checked against the KINDS table of
parameter rules, which holds the defaults too, before anything is
built; a builder checks only coincident points, distances outside the
double range or, in l2, below 2^-511, the ball's draw limit and POINT_LIMIT,
and the builders of the line kinds take their points, checked, from
specs.line_coordinates. On the line the lp distance is |x - y| for
every p, and a space of a line kind forms it so.

The metric and spec errors, NonpositiveScale, and ResultOverflow with its
finite_result guard live in the numpy-free errors module, shared with the
closed-form modules; they are re-exported here, so spaces.BadSpec is
errors.BadSpec.
"""

from __future__ import annotations

import functools
import inspect
import math
from itertools import product as _iterproduct
from itertools import repeat
from random import Random
from typing import Callable, Sequence

import numpy as np

from .errors import (  # noqa: F401  (re-exported: spaces.BadSpec etc.)
    BadSpec,
    DisconnectedGraph,
    MatrixParseError,
    MetricError,
    NegativeEntry,
    NonFiniteEntry,
    NonpositiveScale,
    NonzeroDiagonal,
    NotSquare,
    NotSymmetric,
    ResultOverflow,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
    finite_result,
    integral,
)
from .specs import (  # noqa: F401  (re-exported: spaces.SpaceSpec etc.)
    KINDS,
    POINT_LIMIT,
    SpaceSpec,
    cantor_intervals,
    cantor_points,
    check_points,
    graph_edges,
    graph_rows,
    grid_1d,
    points_1d,
)

TRIANGLE_TOL_FACTOR = 1e-12
# rows of d, or of a matrix formed from it, that a dense stage forms or
# reads at once: the blocks of engine.cholesky_rows and its substitutions,
# of the Frank-Wolfe row reader and of every row scan of d
ROW_BLOCK = 64
# rows of d that _lp_rows forms at once: its scratch plane is 8 n floats,
# and it took no longer than planes of ROW_BLOCK rows
_PLANE_ROWS = 8
# rows and values of k the triangle scan compares at once: its working
# set is _SCAN_ROWS * _SCAN_KS * n floats
_SCAN_ROWS = 16
_SCAN_KS = 16
# expected uniforms (cube draws times n) ball_sample may draw; a call
# refuses once it has drawn 4 times as many. A sample at the limit expects
# 4 count points of the ball in those draws, and finds fewer than count
# with probability about P(Poisson(4 count) < count): e^-4 (1.8%) for one
# point, 0.3% for two, less for more
BALL_DRAW_LIMIT = 2**25


class FiniteMetricSpace:
    """Validated finite metric space, read by rows.

    A space holds its distance matrix d (explicit matrices and graphs), or
    only its points and p, 1 or 2, the lp distance of the generated kinds
    (BadSpec for any other p); either way rows(lo, hi, col0) is
    d[lo:hi, col0:] and distances is the whole of d, read-only. Build
    instances through validate_metric or a generator, not directly, unless
    the matrix is already known to be a metric or the points distinct.
    """

    __slots__ = ("_d", "_planes", "p", "n_points", "_extremes")

    def __init__(self, distances=None, *, points=None, p=None):
        if points is None:
            self._d, self._planes = distances, None
            distances.setflags(write=False)
            n = distances.shape[0]
        else:
            # _lp_rows forms the l1 and l2 distances only
            p = integral(p, "p", 1, 2)
            # points one row each, or one number each (a 1-D array); one
            # contiguous plane per coordinate, as _lp_rows reads them
            pts = np.asarray(points, float)
            self._d, self._planes = None, _planes(pts.reshape(len(pts), -1))
            n = len(pts)
        self.p, self.n_points, self._extremes = p, n, None

    @property
    def points(self) -> np.ndarray | None:
        """The points, one row each, of a space of points; else None."""
        return None if self._planes is None else np.stack(self._planes, 1)

    def rows(self, lo: int, hi: int, col0: int = 0,
             out: np.ndarray | None = None) -> np.ndarray:
        """d[lo:hi, col0:], written into out when it is given; else a
        read-only view of a held d, or a new array formed from the
        points."""
        if self._planes is not None:
            return _lp_rows(self._planes, self.p, lo, hi, col0, out)
        if out is None:
            return self._d[lo:hi, col0:]
        np.copyto(out, self._d[lo:hi, col0:])
        return out

    @property
    def distances(self) -> np.ndarray:
        """The whole of d, read-only: held, or formed from the points on
        every call."""
        if self._planes is None:
            return self._d
        d = _distances(self.points, self.p)
        d.setflags(write=False)
        return d

    def _scan(self) -> tuple[float, float]:
        """(smallest off-diagonal entry, largest entry) of d, read once
        by rows on and right of the diagonal, ROW_BLOCK at a time, which
        suffices as d is symmetric; the smallest is inf for one point.
        Only the diagonal block is copied, to mask its diagonal, and each
        part is reduced row by row first, because reducing a strided view
        whole would allocate numpy's iteration buffer."""
        if self._extremes is None:
            low, high = math.inf, 0.0
            scratch = np.empty((ROW_BLOCK, ROW_BLOCK))
            for lo in range(0, self.n_points, ROW_BLOCK):
                rows = self.rows(lo, min(lo + ROW_BLOCK, self.n_points), lo)
                b = len(rows)
                square = scratch[:b, :b]
                square[...] = rows[:, :b]
                np.fill_diagonal(square, np.inf)
                # np.max, not max: a NaN entry makes the largest NaN
                high = float(np.max((high, rows.max(axis=1).max())))
                for part in (square, rows[:, b:]):
                    if part.size:
                        low = min(low, float(part.min(axis=1).min()))
            self._extremes = low, high
        return self._extremes

    @property
    def diameter(self) -> float:
        return self._scan()[1]

    @property
    def min_distance(self) -> float:
        """Smallest off-diagonal distance; inf for a single point."""
        return self._scan()[0]

    @property
    def holds_points(self) -> bool:
        """Whether the space holds points, distinct points of l1^k or l2^k
        as every generator builds them, rather than d: then Z(t) is
        positive definite at every scale and d is of negative type, by
        theorem (sweeps.theorem_report)."""
        return self._planes is not None

    @property
    def on_line(self) -> bool:
        """Whether the space is a set of points of the real line: a space
        of points with one coordinate."""
        return self.holds_points and len(self._planes) == 1

    def subspace(self, indices: Sequence[int]) -> "FiniteMetricSpace":
        """The space on the points indices: their points, or their block
        of a held d, which the fancy index copies. A repeated index would
        put two points at distance 0: ZeroDistanceDistinctPoints, at
        their places in the subspace."""
        idx = list(indices)
        first = {}
        for k, i in enumerate(idx):
            if first.setdefault(i, k) != k:
                raise ZeroDistanceDistinctPoints(first[i], k)
        if self._planes is not None:
            return FiniteMetricSpace(points=self.points[idx], p=self.p)
        return FiniteMetricSpace(self._d[np.ix_(idx, idx)])

    def __repr__(self):  # keep reprs short; matrices can be large
        return f"FiniteMetricSpace(n={self.n_points}, diam={self.diameter:.6g})"


def _first_violation_at(d: np.ndarray, tol: float, ks):
    """First (i, j, k) with d[i,j] - (d[i,k] + d[k,j]) > tol over k in ks,
    in k-major, then i, then j order, else None: the per-k scan, on
    _SCAN_ROWS full rows at a time."""
    n = d.shape[0]
    for k in ks:
        for lo in range(0, n, _SCAN_ROWS):
            rows = d[lo:lo + _SCAN_ROWS]
            slack = rows - (rows[:, k, None] + d[None, k, :])
            bad = slack > tol
            if bad.any():
                i, j = np.argwhere(bad)[0]
                return int(i) + lo, int(j), k
    return None


def first_triangle_violation(d: np.ndarray, tol: float):
    """First triple (i, j, k) with d[i,j] - (d[i,k] + d[k,j]) > tol, else
    (-1, -1, -1), in k-major, then i, then j order.

    Needs a symmetric d with a zero diagonal, nonnegative entries and
    tol >= 0, which validate_metric checks first: then the slack is
    exactly 0 where i = k or j = k and at most 0 where i = j, so no triple
    with a repeated index is ever reported and none needs masking.

    The scan takes _SCAN_KS values of k at a time, in order. For each
    block of _SCAN_ROWS rows I it forms min over the block's k of
    d[I,k] + d[k,j] and compares it once with d[I,j], for j >= min(I)
    only. Both shortcuts are exact. fl(a - b) is monotone in b, so the
    minimum violates exactly when some k of the block does. For symmetric
    d the slack of (i, j, k) equals that of (j, i, k) bit for bit, so a
    block of k holds a violation exactly when it holds one with i < j.
    The first block of k that violates is rescanned one k at a time over
    full rows, which returns the same witness as a whole-matrix k-major
    scan. Memory: the d[I,k] + d[k,j] block of _SCAN_ROWS * _SCAN_KS * n
    floats and its minimum; no n x n temporary.
    """
    d = np.ascontiguousarray(d, dtype=np.float64)
    n = d.shape[0]
    # near the double maximum d[i,k] + d[k,j] may overflow to inf, which
    # is never a violation, as the exact sum is none either
    with np.errstate(over="ignore"):
        for k0 in range(0, n, _SCAN_KS):
            krows = d[k0:k0 + _SCAN_KS]
            for lo in range(0, n, _SCAN_ROWS):
                rows = d[lo:lo + _SCAN_ROWS]
                via = (rows[:, k0:k0 + _SCAN_KS, None]
                       + krows[None, :, lo:]).min(axis=1)
                np.subtract(rows[:, lo:], via, out=via)
                if (via > tol).any():
                    return _first_violation_at(d, tol,
                                               range(k0, k0 + len(krows)))
    return -1, -1, -1


def _first_hit(d: np.ndarray, test) -> tuple[int, int] | None:
    """First (i, j) in row-major order where test(rows, lo) is true.

    test maps the rows lo .. lo + len(rows) of d to a mask of their shape;
    it sees ROW_BLOCK rows at a time, so no n x n mask is formed."""
    for lo in range(0, d.shape[0], ROW_BLOCK):
        hit = test(d[lo:lo + ROW_BLOCK], lo)
        if hit.any():
            i, j = np.argwhere(hit)[0]
            return lo + int(i), int(j)
    return None


def _zero_off_diagonal(rows: np.ndarray, lo: int) -> np.ndarray:
    hit = rows == 0
    k = np.arange(len(rows))
    hit[k, lo + k] = False
    return hit


def validate_metric(matrix, copy: bool = True) -> FiniteMetricSpace:
    """Certify a raw matrix as a metric or raise the first violated axiom.

    Check order: shape/finiteness, diagonal, symmetry, nonnegativity,
    separation, triangle inequality. The triangle witness (i, j, k) means
    d(i,j) > d(i,k) + d(k,j) + TRIANGLE_TOL_FACTOR * (largest entry).

    The space holds a copy of matrix, which it makes read-only. With
    copy=False a float64 array is validated and held as it is, for a
    caller that owns it and hands it over (the CSV reader's array).
    """
    d = np.array(matrix, dtype=float) if copy else np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise NotSquare(f"expected square matrix, got shape {d.shape}")
    bad = _first_hit(d, lambda rows, lo: ~np.isfinite(rows))
    if bad:
        raise NonFiniteEntry(f"non-finite entry at {bad}")
    n = d.shape[0]
    if n == 0:
        raise NotSquare("empty matrix")
    diag = np.diagonal(d)
    if np.any(diag != 0):
        i = int(np.argmax(diag != 0))
        raise NonzeroDiagonal(i, float(diag[i]))
    bad = _first_hit(d, lambda rows, lo: rows != d[:, lo:lo + len(rows)].T)
    if bad:
        i, j = bad
        raise NotSymmetric(i, j, float(d[i, j]), float(d[j, i]))
    bad = _first_hit(d, lambda rows, lo: rows < 0)
    if bad:
        raise NegativeEntry(*bad, float(d[bad]))
    bad = _first_hit(d, _zero_off_diagonal)
    if bad:
        raise ZeroDistanceDistinctPoints(*bad)
    tol = TRIANGLE_TOL_FACTOR * float(d.max()) if n > 1 else 0.0
    i, j, k = first_triangle_violation(d, tol)
    if i >= 0:
        excess = float(d[i, j] - d[i, k] - d[k, j])
        raise TriangleViolation(i, j, k, excess)
    return FiniteMetricSpace(d)


# ---------------------------------------------------------------------------
# generators


def _checked(kind: str) -> Callable:
    """A public builder of kind, checked: a direct call meets the KINDS
    rules that a spec meets, an argument of None standing for one not
    given, and every parameter not given takes its KINDS default (the
    builders' own optional parameters default to None). BUILDERS holds
    the builder itself, as __wrapped__, which takes every parameter."""
    def wrap(build):
        @functools.wraps(build)
        def checked(*args, **kwargs):
            given = inspect.signature(build).bind(*args, **kwargs).arguments
            given = {k: v for k, v in given.items() if v is not None}
            seed = given.pop("seed", None)
            return build(**SpaceSpec(kind, given, seed).effective())

        return checked

    return wrap


def _lp_rows(planes, p: int, lo: int, hi: int, col0: int = 0,
             out: np.ndarray | None = None) -> np.ndarray:
    """d[lo:hi, col0:] in the lp distance (p in 1, 2) of the points whose
    coordinates are given by planes, one 1-D array per coordinate, written
    into out, or a new array.

    Per coordinate, the differences are formed and taken to |x| (p = 1)
    or x^2 (p = 2), and these planes are added left to right; for p = 2
    the square root of the sum is taken. Below 8 coordinates this is the
    order in which numpy sums the last axis of a broadcast difference, so
    the entries are bit-identical to that sum; from 8 on numpy blocks its
    sum pairwise and an entry may differ from it in the last bit.

    The rows are formed _PLANE_ROWS at a time, so the planes after the
    first take _PLANE_ROWS * n floats of scratch, and each difference is
    formed a row at a time: a broadcast ufunc call over a block would
    allocate numpy's iteration buffers, up to 128 KiB."""
    power = np.abs if p == 1 else np.square
    if out is None:
        out = np.empty((hi - lo, len(planes[0]) - col0))
    if len(planes) > 1:
        part = np.empty((min(_PLANE_ROWS, hi - lo), out.shape[1]))
    for a in range(lo, hi, _PLANE_ROWS):
        b = min(a + _PLANE_ROWS, hi)
        acc = out[a - lo:b - lo]
        for c, x in enumerate(planes):
            target = part[:b - a] if c else acc
            tail = x[col0:]
            for i in range(a, b):
                np.subtract(x[i], tail, out=target[i - a])
            power(target, out=target)
            if c:
                acc += target
    if p == 2:
        np.sqrt(out, out=out)
    return out


def _planes(pts) -> tuple:
    """The coordinate planes of the points pts, one row each: read-only
    contiguous rows of one array."""
    coords = np.ascontiguousarray(np.asarray(pts, float).T)
    coords.setflags(write=False)
    return tuple(coords)


def _distances(pts: np.ndarray, p: int) -> np.ndarray:
    """lp distances between the rows of pts (p in 1, 2), the whole matrix
    that _lp_rows forms."""
    planes = _planes(pts)
    return _lp_rows(planes, p, 0, len(planes[0]))


def _points_space(pts, p: int) -> FiniteMetricSpace:
    """The space of the rows of pts in the lp distance, which holds the
    points and not d. Every generator but those of the line kinds, whose
    points specs.line_points checks, builds its space here and skips
    validate_metric, so one pass over d's rows checks here that every
    distance is finite and that distinct points lie apart, in l2 at least
    2^-511 apart: a smaller distance is the root of a subnormal sum of
    squares, which has lost bits (0 at the extreme). BadSpec otherwise."""
    space = FiniteMetricSpace(points=pts, p=p)
    with np.errstate(over="ignore", invalid="ignore"):
        low, high = space._scan()
    if not math.isfinite(high):
        raise BadSpec("coordinates give distances outside the double range")
    if low == 0.0 or (p == 2 and low < 2.0**-511):
        raise BadSpec("distinct points' distances fall below 2^-511: their "
                      "squared coordinate differences underflow at this "
                      "radius or spacing")
    return space


@_checked("points_1d")
def points_on_line(coordinates) -> FiniteMetricSpace:
    return FiniteMetricSpace(points=np.array(points_1d(coordinates)), p=1)


@_checked("graph_shortest_path")
def graph_metric(edges=None, n_vertices: int | None = None,
                 name: str | None = None) -> FiniteMetricSpace:
    """Shortest-path metric of an undirected unit-weight graph: its edges,
    and n_vertices for isolated vertices past the last endpoint, or a name
    (specs.graph_name_edges) that brings both, so k1 is the one-point
    space. The rows of d are specs.graph_rows', one breadth-first search
    per vertex, each written into the matrix as it is found. Hop counts
    are small integers, so the float64 matrix is exact."""
    edges, n = graph_edges(edges, n_vertices, name)
    d = np.empty((n, n))
    for i, row in enumerate(graph_rows(edges, n)):
        d[i] = row
    return FiniteMetricSpace(d)


@_checked("lp_grid")
def lp_grid(shape, p: int | None = None,
            spacing: float | None = None) -> FiniteMetricSpace:
    """The points spacing * i of the integer lattice of shape, i_k below
    shape[k], in the lp distance: by default p = 2 and spacing 1.0. With
    at most one entry of shape above 1 the grid lies on the line, where
    the distance is |x - y|, the lp distance of every p, formed as the l1
    one, which is exact."""
    xs = grid_1d(shape, spacing)
    if xs is not None:
        return FiniteMetricSpace(points=np.array(xs)[:, None], p=1)
    check_points(math.prod(shape), "lp_grid")
    pts = np.array(list(_iterproduct(*(range(s) for s in shape))), dtype=float)
    with np.errstate(over="ignore"):
        pts *= spacing
    return _points_space(pts, p)


@_checked("cantor_endpoints")
def cantor_endpoints(depth: int, length: float | None = None) -> FiniteMetricSpace:
    """The 2^(depth+1) interval endpoints of the depth-k construction on
    [0, length], by default [0, 1]."""
    return FiniteMetricSpace(points=np.array(cantor_points(depth, length)), p=1)


# most uniforms ball_sample draws at once, in whole chunks of 1024 rows:
# 512 KiB of candidates. At n = 12 batches of 2^14 to 2^18 drew in the
# same 2.0-2.7 s, and past 2^16 the peak grows with the batch (4.4 MiB
# traced at 2^18, 17 MiB at 2^20)
_DRAW_BATCH = 2**16


@_checked("ball_sample")
def ball_sample(n: int, radius: float, count: int, seed: int,
                p: int | None = None) -> FiniteMetricSpace:
    """Uniform sample of the lp ball (by default p = 2) by rejection from
    the bounding cube.

    The cube's points are rows of n draws of
    random.Random(seed).uniform(-radius, radius), bit for bit, a stream
    that Python keeps the same for a seed on every platform and version;
    the sample is the first count of them in the ball, so it depends only
    on the seed, and the sample of fewer points is a prefix of that of
    more. Raises BadSpec when the expected number of uniforms drawn
    (cube draws times n) exceeds BALL_DRAW_LIMIT, when the draws reach 4
    times it, or when sums of norms or distances leave the double range
    (rejection would never end). On the line (n = 1) the distance is
    |x - y| for every p, formed as the l1 one, which is exact.
    """
    check_points(count, "ball_sample")
    if n == 1:
        p = 1
    span = 2.0 * radius * n if p == 1 else 4.0 * radius * radius * n
    if not math.isfinite(span):
        raise BadSpec("ball_sample radius gives distances beyond the double range")
    # the ball keeps a share 1/n! (p = 1) or pi^(n/2) / (Gamma(n/2+1) 2^n)
    # (p = 2) of the cube's draws; refuse before drawing when the expected
    # number of uniforms is out of reach
    log_share = (-math.lgamma(n + 1) if p == 1 else
                 n / 2 * math.log(math.pi) - math.lgamma(n / 2 + 1) - n * math.log(2))
    log_draws = math.log(count) - log_share
    if log_draws + math.log(n) > math.log(BALL_DRAW_LIMIT):
        raise BadSpec(
            f"{count} points of the {n}-dimensional l{p} ball need about "
            f"10^{log_draws / math.log(10):.1f} cube draws of {n} "
            f"coordinates, over the limit of {BALL_DRAW_LIMIT:,} coordinates")
    rng = Random(seed)
    chunks = []
    have = drawn = 0
    while have < count:
        if drawn >= 4 * BALL_DRAW_LIMIT:
            raise BadSpec(
                f"{count} points of the {n}-dimensional l{p} ball are not in "
                f"the first {drawn:,} uniforms of seed {seed}, 4 times the "
                f"limit; change the seed")
        # whole chunks of 1024 rows, as many as the missing points are
        # expected to need, up to _DRAW_BATCH uniforms
        need = math.ceil((count - have) * math.exp(-log_share) / 1024)
        rows = 1024 * max(1, min(need, _DRAW_BATCH // (1024 * n)))
        cand = np.fromiter(map(Random.random, repeat(rng, rows * n)), float,
                           rows * n).reshape(rows, n)
        drawn += rows * n
        # -radius + (radius - -radius) u, rounded as Random.uniform rounds it
        cand *= 2.0 * radius
        cand -= radius
        norms = (
            np.abs(cand).sum(axis=1) if p == 1
            else np.sqrt((cand * cand).sum(axis=1))
        )
        keep = cand[norms <= radius]
        chunks.append(keep)
        have += len(keep)
    pts = np.concatenate(chunks)[:count]
    # rejection can in principle repeat a point; the chance is 0 for
    # continuous draws, but check anyway, in lexicographic order
    ordered = pts[np.lexsort(pts.T)]
    if (ordered[1:] == ordered[:-1]).all(axis=1).any():
        raise BadSpec("sample produced coincident points; change the seed")
    return _points_space(pts, p)


# ---------------------------------------------------------------------------
# matrix input


def load_distance_csv(source) -> np.ndarray:
    """Read an N x N matrix: N comma-separated numeric rows, no header.

    source is text or UTF-8 bytes, whose lines end at "\\n" only, or a
    file or any iterable of lines, read one at a time, so the whole text
    is never held. Blank lines are skipped; each row is parsed straight
    into one float array, N being the first row's width, which grows in
    place by doubling from one row up to N rows: a first row too wide for
    its input allocates one row. An unparsable entry raises at its line;
    a ragged or non-square matrix raises once every line has parsed.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    out = None
    rows = 0
    ragged = False
    lines = source.split("\n") if isinstance(source, str) else source
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values = list(map(float, line.split(",")))
        except ValueError as exc:
            raise MatrixParseError(f"line {lineno}: {exc}") from None
        if out is None:
            width = len(values)
            out = np.empty((1, width))
        ragged = ragged or len(values) != width
        if not ragged and rows < width:
            if rows == len(out):
                out.resize((min(2 * rows, width), width), refcheck=False)
            out[rows] = values
        rows += 1
    if out is None:
        raise MatrixParseError("no data rows")
    if ragged:
        raise MatrixParseError("ragged rows")
    if rows != width:
        raise MatrixParseError(f"matrix is {rows}x{width}, expected square")
    return out


def _explicit_matrix(matrix) -> FiniteMetricSpace:
    """The explicit_matrix builder: validate_metric, with the matrix as
    the one parameter a spec sets."""
    return validate_metric(matrix)


# ---------------------------------------------------------------------------
# the builder of each kind of specs.KINDS, its parameters in the order of
# the kind's rules there; it is called with every one of them, as
# SpaceSpec.effective() gives them, defaults included

BUILDERS = {
    "points_1d": points_on_line.__wrapped__,
    "graph_shortest_path": graph_metric.__wrapped__,
    "lp_grid": lp_grid.__wrapped__,
    "cantor_endpoints": cantor_endpoints.__wrapped__,
    "ball_sample": ball_sample.__wrapped__,
    "explicit_matrix": _explicit_matrix,
}


def generate_space(spec: SpaceSpec) -> FiniteMetricSpace:
    """Build the space a SpaceSpec describes. Pure function of the spec."""
    params = spec.effective()
    return BUILDERS[spec.kind](**params)
