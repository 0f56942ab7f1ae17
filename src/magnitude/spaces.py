"""Finite metric spaces: validation, generators, products, and matrix IO.

A space is a validated N x N distance matrix. Validation enforces the four
classical axioms (zero diagonal, symmetry, separation, triangle inequality);
the triangle check tolerates floating-point slack of 1e-12 times the largest
entry so that computed metrics (for example l2 grids) are not rejected for
rounding noise, while real violations are.

Generators cover the standard test geometries: points on a line, unweighted
graph metrics via all-pairs shortest paths, lp lattice grids, middle-thirds
endpoint sets, seeded uniform samples of lp balls, and explicit matrices.
Random kinds use numpy's counter-based Philox generator so a spec with a seed
reproduces the same matrix bit for bit on any platform. Generated matrices
skip validate_metric, so the generators reject non-finite distances
themselves.

The metric and spec errors, NonpositiveScale, and ResultOverflow with its
finite_result guard live in the numpy-free errors module, shared with the
closed-form modules; they are re-exported here, so spaces.BadSpec is
errors.BadSpec.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as _iterproduct
from typing import Sequence

import numpy as np

from .errors import (  # noqa: F401  (re-exported: spaces.BadSpec etc.)
    BadSpec,
    BadTolerance,
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
)

TRIANGLE_TOL_FACTOR = 1e-12
# rows of the distance matrix formed at once by _distances
_ROW_BLOCK = 64
# rows and values of k the triangle scan compares at once: its working
# set is _SCAN_ROWS * _SCAN_KS * n floats
_SCAN_ROWS = 16
_SCAN_KS = 16
# expected cube draws ball_sample may spend: a few seconds at n = 20
BALL_DRAW_LIMIT = 10**7


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Validated finite metric space.

    ``distances`` is a read-only float64 array; build instances through
    :func:`validate_metric` or a generator, not directly, unless the matrix
    is already known to be a metric.
    """

    distances: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        d = self.distances
        d.setflags(write=False)
        if self.labels is not None and len(self.labels) != d.shape[0]:
            raise ValueError("labels length != point count")

    @property
    def n_points(self) -> int:
        return self.distances.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.distances.max())

    @property
    def min_distance(self) -> float:
        """Smallest off-diagonal distance; inf for a single point.

        Per block of _ROW_BLOCK rows, the entries left and right of the
        diagonal block are reduced in place and only the diagonal block is
        copied, to mask its diagonal: _ROW_BLOCK^2 floats of scratch. Each
        part is reduced row by row first, because reducing a strided view
        whole would allocate numpy's iteration buffer."""
        d = self.distances
        best = math.inf
        scratch = np.empty((_ROW_BLOCK, _ROW_BLOCK))
        for lo in range(0, self.n_points, _ROW_BLOCK):
            rows = d[lo:lo + _ROW_BLOCK]
            hi = lo + len(rows)
            square = scratch[:hi - lo, :hi - lo]
            square[...] = rows[:, lo:hi]
            np.fill_diagonal(square, np.inf)
            for part in (rows[:, :lo], square, rows[:, hi:]):
                if part.size:
                    best = min(best, float(part.min(axis=1).min()))
        return best

    def subspace(self, indices: Sequence[int]) -> "FiniteMetricSpace":
        idx = list(indices)
        sub = self.distances[np.ix_(idx, idx)].copy()
        labs = tuple(self.labels[i] for i in idx) if self.labels else None
        return FiniteMetricSpace(sub, labs)

    def __repr__(self):  # keep reprs short; matrices can be large
        return f"FiniteMetricSpace(n={self.n_points}, diam={self.diameter:.6g})"


@dataclass(frozen=True)
class SpaceSpec:
    """Declarative space description: kind, per-kind params, optional seed."""

    kind: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    KINDS = (
        "points_1d",
        "graph_shortest_path",
        "lp_grid",
        "cantor_endpoints",
        "ball_sample",
        "explicit_matrix",
    )

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "params": self.params, "seed": self.seed}
        )

    @classmethod
    def from_json(cls, text: str) -> "SpaceSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise BadSpec(f"invalid spec JSON: {exc}") from None
        if not isinstance(obj, dict) or "kind" not in obj:
            raise BadSpec("spec JSON must be an object with a 'kind' key")
        return cls(obj["kind"], obj.get("params", {}), obj.get("seed"))


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


def validate_metric(raw, tol_factor: float = TRIANGLE_TOL_FACTOR,
                    labels: tuple | None = None) -> FiniteMetricSpace:
    """Certify a raw matrix as a metric or raise the first violated axiom.

    Check order: shape/finiteness, diagonal, symmetry, nonnegativity,
    separation, triangle inequality. The triangle witness (i, j, k) means
    d(i,j) > d(i,k) + d(k,j). tol_factor, a multiple of the largest
    entry, must be finite and >= 0 (BadTolerance otherwise).
    """
    if not (math.isfinite(tol_factor) and tol_factor >= 0):
        raise BadTolerance(
            f"tol_factor must be finite and >= 0, got {tol_factor!r}")
    d = np.array(raw, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise NotSquare(f"expected square matrix, got shape {d.shape}")
    if d.size and not np.isfinite(d).all():
        bad = np.argwhere(~np.isfinite(d))[0]
        raise NonFiniteEntry(f"non-finite entry at {tuple(bad)}")
    n = d.shape[0]
    if n == 0:
        raise NotSquare("empty matrix")
    diag = np.diagonal(d)
    if np.any(diag != 0):
        i = int(np.argmax(diag != 0))
        raise NonzeroDiagonal(i, float(diag[i]))
    asym = d != d.T
    if asym.any():
        i, j = map(int, np.argwhere(asym)[0])
        raise NotSymmetric(i, j, float(d[i, j]), float(d[j, i]))
    neg = d < 0
    if neg.any():
        i, j = map(int, np.argwhere(neg)[0])
        raise NegativeEntry(i, j, float(d[i, j]))
    zero_off = (d == 0) & ~np.eye(n, dtype=bool)
    if zero_off.any():
        i, j = map(int, np.argwhere(zero_off)[0])
        raise ZeroDistanceDistinctPoints(i, j)
    tol = tol_factor * float(d.max()) if n > 1 else 0.0
    i, j, k = first_triangle_violation(d, tol)
    if i >= 0:
        excess = float(d[i, j] - d[i, k] - d[k, j])
        raise TriangleViolation(i, j, k, excess)
    return FiniteMetricSpace(d, labels)


def scale_space(space: FiniteMetricSpace, t: float) -> FiniteMetricSpace:
    """Multiply every distance by t > 0."""
    if not t > 0:
        raise NonpositiveScale(f"scale must be positive, got {t!r}")
    return FiniteMetricSpace(space.distances * float(t), space.labels)


def l1_product(a: FiniteMetricSpace, b: FiniteMetricSpace) -> FiniteMetricSpace:
    """Product space with summed distances, points ordered a-major."""
    na, nb = a.n_points, b.n_points
    d = np.kron(a.distances, np.ones((nb, nb))) + np.kron(
        np.ones((na, na)), b.distances
    )
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = tuple((la, lb) for la in a.labels for lb in b.labels)
    return FiniteMetricSpace(d, labels)


# ---------------------------------------------------------------------------
# generators


def _distances(pts: np.ndarray, p: int) -> np.ndarray:
    """lp distances between the rows of pts (p in 1, 2). A coordinate or
    distance outside the double range raises BadSpec: every generator
    builds its matrix here and skips validate_metric, so this is where
    non-finite entries are caught.

    Rows are formed _ROW_BLOCK at a time, so the temporaries hold
    _ROW_BLOCK * n * dim floats rather than n * n * dim; each entry is
    the same expression over the same coordinates as a whole-matrix
    broadcast, so the matrix is bit-identical to it."""
    n = len(pts)
    d = np.empty((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _ROW_BLOCK):
            rows = d[lo:lo + _ROW_BLOCK]
            diff = pts[lo:lo + _ROW_BLOCK, None, :] - pts[None, :, :]
            if p == 1:
                np.abs(diff, out=diff).sum(axis=2, out=rows)
            else:
                np.multiply(diff, diff, out=diff).sum(axis=2, out=rows)
                np.sqrt(rows, out=rows)
            if not np.isfinite(rows).all():
                raise BadSpec(
                    "coordinates give distances outside the double range")
    return d


def points_on_line(coordinates) -> FiniteMetricSpace:
    x = np.asarray(list(coordinates), dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise BadSpec("points_1d needs a nonempty 1-d coordinate list")
    # adjacent entries of the sorted list: np.unique would import numpy.ma
    xs = np.sort(x)
    if (xs[1:] == xs[:-1]).any():
        raise BadSpec("points_1d coordinates must be distinct")
    d = _distances(x[:, None], 1)
    return FiniteMetricSpace(d, labels=tuple(float(v) for v in x))


def graph_metric(edges, n_vertices: int | None = None) -> FiniteMetricSpace:
    """Shortest-path metric of an undirected unit-weight graph.

    One breadth-first search per vertex over adjacency lists: O(n (n + m))
    time for n vertices and m edges, O(n^2) memory for the matrix. Hop
    counts are small integers, so the float64 matrix is exact."""
    edges = [(int(u), int(v)) for u, v in edges]
    if not edges and not n_vertices:
        raise BadSpec("graph needs edges or an explicit vertex count")
    seen = {u for e in edges for u in e}
    n = n_vertices if n_vertices is not None else (max(seen) + 1 if seen else 0)
    if n <= 0:
        raise BadSpec("graph has no vertices")
    if seen and max(seen) >= n:
        raise BadSpec("edge endpoint beyond vertex count")
    if seen and min(seen) < 0:
        raise BadSpec("negative edge endpoint")
    if any(u == v for u, v in edges):
        raise BadSpec("self-loops not allowed")
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    d = np.empty((n, n))
    for src in range(n):
        hops = [-1] * n
        hops[src] = 0
        frontier, level = [src], 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if hops[v] < 0:
                        hops[v] = level
                        nxt.append(v)
            frontier = nxt
        if -1 in hops:
            # the graph is undirected, so src = 0 already finds the first
            # unreachable pair in row-major order
            raise DisconnectedGraph(
                f"no path between vertices {src} and {hops.index(-1)}")
        d[src] = hops
    return FiniteMetricSpace(d)


def lp_grid(shape, p: int = 2, spacing: float = 1.0) -> FiniteMetricSpace:
    shape = [int(s) for s in shape]
    if not shape or any(s < 1 for s in shape):
        raise BadSpec("lp_grid shape must be positive integers")
    if p not in (1, 2):
        raise BadSpec("p must be 1 or 2")
    if not spacing > 0:
        raise BadSpec("spacing must be positive")
    pts = np.array(list(_iterproduct(*(range(s) for s in shape))), dtype=float)
    with np.errstate(over="ignore"):
        pts *= spacing
    d = _distances(pts, p)
    return FiniteMetricSpace(d, labels=tuple(map(tuple, pts)))


def cantor_intervals(depth: int, length: float = 1.0) -> list[tuple[float, float]]:
    """Closed intervals after `depth` middle-thirds removal steps on [0, length]."""
    if depth < 0:
        raise BadSpec("depth must be >= 0")
    iv = [(0.0, float(length))]
    for _ in range(depth):
        nxt = []
        for a, b in iv:
            third = (b - a) / 3.0
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        iv = nxt
    return iv


def cantor_endpoints(depth: int, length: float = 1.0) -> FiniteMetricSpace:
    """The 2^(depth+1) interval endpoints of the depth-k construction."""
    if not length > 0:
        raise BadSpec("length must be positive")
    iv = cantor_intervals(depth, length)
    pts = sorted({a for a, _ in iv} | {b for _, b in iv})
    return points_on_line(pts)


def cantor_gaps(depth: int, length: float = 1.0) -> list[tuple[float, float]]:
    """Open middle-third gaps removed during the first `depth` steps: the
    gaps between consecutive intervals of cantor_intervals."""
    iv = cantor_intervals(depth, length)
    return [(a[1], b[0]) for a, b in zip(iv, iv[1:])]


def ball_sample(n: int, radius: float, count: int, seed: int,
                p: int = 2) -> FiniteMetricSpace:
    """Uniform sample of the lp ball by rejection from the bounding cube.

    Philox keyed by `seed`; candidates are drawn in fixed blocks of 1024 so
    the accepted sequence depends only on the seed. Raises BadSpec when the
    expected number of draws exceeds BALL_DRAW_LIMIT.
    """
    if n < 1 or count < 1:
        raise BadSpec("need n >= 1 and count >= 1")
    if p not in (1, 2):
        raise BadSpec("p must be 1 or 2")
    # the largest sum the norms and distances form must stay finite, or
    # rejection would refuse every candidate forever
    span = 2.0 * radius * n if p == 1 else 4.0 * radius * radius * n
    if not (radius > 0 and math.isfinite(span)):
        raise BadSpec("radius must be positive and give finite distances")
    if seed is None:
        raise BadSpec("ball_sample requires a seed")
    # the ball keeps a share 1/n! (p = 1) or pi^(n/2) / (Gamma(n/2+1) 2^n)
    # (p = 2) of the cube's draws; refuse before drawing when the expected
    # number of draws is out of reach
    log_share = (-math.lgamma(n + 1) if p == 1 else
                 n / 2 * math.log(math.pi) - math.lgamma(n / 2 + 1) - n * math.log(2))
    log_draws = math.log(count) - log_share
    if log_draws > math.log(BALL_DRAW_LIMIT):
        raise BadSpec(
            f"{count} points of the {n}-dimensional l{p} ball need about "
            f"10^{log_draws / math.log(10):.1f} cube draws, over the limit "
            f"of {BALL_DRAW_LIMIT:,}")
    gen = np.random.Generator(np.random.Philox(int(seed)))
    chunks = []
    have = 0
    while have < count:
        cand = gen.uniform(-radius, radius, size=(1024, n))
        norms = (
            np.abs(cand).sum(axis=1) if p == 1
            else np.sqrt((cand * cand).sum(axis=1))
        )
        keep = cand[norms <= radius]
        chunks.append(keep)
        have += len(keep)
    pts = np.concatenate(chunks)[:count]
    d = _distances(pts, p)
    # rejection can in principle repeat a point; the chance is 0 for
    # continuous draws, but validate separation anyway (on d itself, its
    # diagonal lifted for the check and put back)
    np.fill_diagonal(d, np.inf)
    coincident = count > 1 and d.min() == 0.0
    np.fill_diagonal(d, 0.0)
    if coincident:
        raise BadSpec("sample produced coincident points; change the seed")
    return FiniteMetricSpace(d, labels=tuple(map(tuple, pts)))


def generate_space(spec: SpaceSpec) -> FiniteMetricSpace:
    """Build the space a SpaceSpec describes. Pure function of the spec."""
    kind, p = spec.kind, spec.params
    try:
        if kind == "points_1d":
            return points_on_line(p["coordinates"])
        if kind == "graph_shortest_path":
            if "name" in p:
                return named_graph(p["name"])
            return graph_metric(p["edges"], p.get("n_vertices", p.get("n")))
        if kind == "lp_grid":
            return lp_grid(p["shape"], p.get("p", 2), p.get("spacing", 1.0))
        if kind == "cantor_endpoints":
            return cantor_endpoints(p["depth"], p.get("length", 1.0))
        if kind == "ball_sample":
            return ball_sample(
                p["n"], p["radius"], p["count"], spec.seed, p.get("p", 2)
            )
        if kind == "explicit_matrix":
            return validate_metric(p["matrix"])
    except KeyError as exc:
        raise BadSpec(f"{kind} spec missing parameter {exc}") from None
    except (BadSpec, MetricError):
        raise
    except (TypeError, ValueError) as exc:  # parameters of the wrong type
        raise BadSpec(f"{kind} spec has a malformed parameter: {exc}") from None
    raise BadSpec(f"unknown kind {kind!r}; expected one of {SpaceSpec.KINDS}")


# ---------------------------------------------------------------------------
# named graphs and matrix IO (CLI conveniences)


def _parse_graph_name(name: str) -> tuple[list[tuple[int, int]], int]:
    """(edges, vertex count) for compact graph names.

    k<n> complete, k<a>,<b> complete bipartite (k32 = k3,2), c<n> cycle,
    p<n> path.
    """
    s = name.strip().lower()
    if s.startswith("k") and "," in s:
        try:
            a, b = (int(v) for v in s[1:].split(","))
        except ValueError:
            raise BadSpec(f"unknown graph name {name!r}") from None
        if a < 1 or b < 1:
            raise BadSpec("complete bipartite graph needs two nonempty parts")
        return [(i, a + j) for i in range(a) for j in range(b)], a + b
    if s.startswith("k") and len(s) == 3 and s[1:].isdigit() and "0" not in s[1:]:
        # two nonzero digits: complete bipartite shorthand, k32 = K_{3,2}
        a, b = int(s[1]), int(s[2])
        return [(i, a + j) for i in range(a) for j in range(b)], a + b
    if s.startswith("k") and s[1:].isdigit():
        n = int(s[1:])
        return [(i, j) for i in range(n) for j in range(i + 1, n)], n
    if s.startswith("c") and s[1:].isdigit():
        n = int(s[1:])
        if n < 3:
            raise BadSpec("cycle needs at least 3 vertices")
        return [(i, (i + 1) % n) for i in range(n)], n
    if s.startswith("p") and s[1:].isdigit():
        n = int(s[1:])
        if n < 2:
            raise BadSpec("path needs at least 2 vertices")
        return [(i, i + 1) for i in range(n - 1)], n
    raise BadSpec(f"unknown graph name {name!r}")


def named_graph_edges(name: str) -> list[tuple[int, int]]:
    """Edge list of a named graph (names as in _parse_graph_name)."""
    return _parse_graph_name(name)[0]


def named_graph(name: str) -> FiniteMetricSpace:
    """Shortest-path metric of a named graph. The vertex count comes with
    the name, so k1 is the one-point space; k0 has no vertices."""
    return graph_metric(*_parse_graph_name(name))


def load_distance_csv(source) -> np.ndarray:
    """Read an N x N matrix: N comma-separated numeric rows, no header."""
    if isinstance(source, (str, bytes)):
        text = source if isinstance(source, str) else source.decode("utf-8")
    else:
        text = source.read()
    rows = []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise MatrixParseError(f"line {lineno}: {exc}") from None
    if not rows:
        raise MatrixParseError("no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MatrixParseError("ragged rows")
    if len(rows) != width:
        raise MatrixParseError(f"matrix is {len(rows)}x{width}, expected square")
    return np.array(rows, dtype=float)


def save_distance_csv(space: FiniteMetricSpace) -> str:
    return "\n".join(
        ",".join(repr(float(v)) for v in row) for row in space.distances
    ) + "\n"
