"""Space specs, without numpy: SpaceSpec, the KINDS table, POINT_LIMIT, the
line kinds' coordinates, a graph's metric rows, and what a space is
(Structure), from which one function per product chooses its rung.

A spec names a kind, its parameters and a seed; SpaceSpec.effective()
checks them against the kind's rules in KINDS and fills in the defaults,
and every spec, space flag and builder call is checked there. The spaces
module builds each kind with numpy and re-exports this layer, so
spaces.SpaceSpec is specs.SpaceSpec.

The line kinds (points_1d, lp_grid with at most one shape entry above
1, cantor_endpoints) give their points by line_coordinates, and a graph
its edges and metric rows by graph_edges and graph_rows, with every
error that building them raises; the spaces builders take both here.

A Structure says what a space is: a line, a graph, points of l1^k or
l2^k off the line, or a held d. weighting, maximum_diversity and
definiteness choose each product's rung from it for the commands (see
cli) and the library's entries: a command hands the entries every space
with no numpy-free rung, and they pass their dense rungs back.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from typing import Callable, NamedTuple

from .errors import BadSpec, DisconnectedGraph, TooLarge, finite, integral

# most points a generator builds. Measured at n = 2000 in n x n float
# arrays: a dense solve holds half a factor, 0.59 (0.29 GiB at this
# size), and 1.59 where the space holds d (graphs, 0.79 GiB); a
# failed negative-type proof forms d, the centred matrix and eigvalsh's
# copy of it, three (1.5 GiB)
POINT_LIMIT = 2**13

# the default of a parameter that a spec must give (a graph's parameters
# default to None)
REQUIRED = object()


class SpaceSpec(NamedTuple):
    """Declarative space description: a kind of KINDS, its params, a seed."""

    kind: str
    # one empty dict, shared by every spec made without params: nothing
    # may mutate a spec's params
    params: dict = {}
    seed: int | None = None

    def effective(self) -> dict:
        """Every parameter of the kind, seed included, in the builder's
        order: each one given checked by KINDS, the rest its defaults.
        BadSpec for an unknown kind or key, a bad or missing parameter,
        or a seed on a kind that takes none."""
        kind, params = self.kind, self.params
        if not isinstance(kind, str) or kind not in KINDS:
            raise BadSpec(f"unknown kind {kind!r}; expected one of {tuple(KINDS)}")
        if not isinstance(params, dict) or "seed" in params:
            raise BadSpec(f"{kind} params must be an object, with any seed "
                          f"beside it, got {params!r}")
        given = params if self.seed is None else {**params, "seed": self.seed}
        rules = KINDS[kind]
        for key in given:
            if key not in rules:
                raise BadSpec(f"{kind} takes no parameter {key!r}")
        out = {}
        for key, (_, check, default) in rules.items():
            if key in given:
                out[key] = check(given[key], key)
            elif default is REQUIRED:
                raise BadSpec(f"{kind} needs the parameter {key!r}")
            else:
                out[key] = default
        return out

    @classmethod
    def from_json(cls, text: str) -> "SpaceSpec":
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # e.g. 5000 digits
            raise BadSpec(f"invalid spec JSON: {exc}") from None
        if not (isinstance(obj, dict) and "kind" in obj
                and obj.keys() <= {"kind", "params", "seed"}):
            raise BadSpec("spec JSON must be an object with a 'kind' key and "
                          "at most 'params' and 'seed' beside it")
        return cls(obj["kind"], obj.get("params", {}), obj.get("seed"))


def check_points(n: int, what: str) -> None:
    """BadSpec before a generator builds more than POINT_LIMIT points."""
    if n > POINT_LIMIT:
        raise BadSpec(f"{what} has {n} points, over the limit of "
                      f"{POINT_LIMIT:,}")


# ---------------------------------------------------------------------------
# the line kinds


def line_points(xs: list[float]) -> list[float]:
    """xs, the coordinates of a space on the line, once they are checked
    as a space of points is: BadSpec where a distance leaves the double
    range. On the line the lp distance of two points is |x - y| for
    every p, which is monotone, so the largest is that of the two ends;
    distinct doubles never differ by 0, so no distance rounds to 0."""
    if not math.isfinite(max(xs) - min(xs)):
        raise BadSpec("coordinates give distances outside the double range")
    return xs


def points_1d(coordinates) -> list[float]:
    """The points of a points_1d space, in the order given: BadSpec over
    POINT_LIMIT, for a repeated coordinate, or as line_points."""
    xs = [float(x) for x in coordinates]
    check_points(len(xs), "points_1d")
    if len(set(xs)) < len(xs):
        raise BadSpec("points_1d coordinates must be distinct")
    return line_points(xs)


def grid_1d(shape, spacing: float) -> list[float] | None:
    """The points i * spacing, i < n, of an lp_grid whose shape has at
    most one entry above 1, n their product: such a grid lies on the
    line, in this order, for every p. None for any other shape."""
    if sum(s > 1 for s in shape) > 1:
        return None
    n = math.prod(shape)
    check_points(n, "lp_grid")
    return line_points([i * spacing for i in range(n)])


def cantor_intervals(depth: int, length: float = 1.0) -> list[tuple[float, float]]:
    """Closed intervals after `depth` middle-thirds removal steps on [0, length]."""
    iv = [(0.0, float(length))]
    for _ in range(depth):
        nxt = []
        for a, b in iv:
            third = (b - a) / 3.0
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        iv = nxt
    return iv


def cantor_points(depth: int, length: float) -> list[float]:
    """The 2^(depth+1) interval endpoints of the depth-k construction,
    ascending; checked as points_1d."""
    if depth + 1 >= POINT_LIMIT.bit_length():  # 2^(depth+1) > POINT_LIMIT
        raise BadSpec(f"cantor_endpoints at depth {depth} has 2^{depth + 1} "
                      f"points, over the limit of {POINT_LIMIT:,}")
    iv = cantor_intervals(depth, length)
    return points_1d(sorted({a for a, _ in iv} | {b for _, b in iv}))


def line_coordinates(kind: str, params: dict) -> list[float] | None:
    """The points of the space of a line kind, for its effective params,
    in the order the space lists them; None for any other kind."""
    if kind == "points_1d":
        return points_1d(params["coordinates"])
    if kind == "lp_grid":
        return grid_1d(params["shape"], params["spacing"])
    if kind == "cantor_endpoints":
        return cantor_points(params["depth"], params["length"])
    return None


# ---------------------------------------------------------------------------
# graphs


def graph_name_edges(name: str) -> tuple[list[tuple[int, int]], int]:
    """(edges, vertex count) for compact graph names, sizes in ASCII digits.

    k<n> complete, k<a>,<b> complete bipartite (k32 = k3,2), c<n> cycle,
    p<n> path.
    """
    s = name.strip().lower()
    if re.fullmatch("k[1-9]{2}", s):  # two nonzero digits: k32 = K_{3,2}
        s = f"k{s[1]},{s[2]}"
    m = re.fullmatch(r"([kcp])(\d+)|k\s*(\d+)\s*,\s*(\d+)", s, re.ASCII)
    if m is None:
        raise BadSpec(f"unknown graph name {name!r}")
    if m[3] is not None:
        a, n = int(m[3]), int(m[3]) + int(m[4])
        if not 0 < a < n:
            raise BadSpec("complete bipartite graph needs two nonempty parts")
        check_points(n, "graph")
        return [(i, j) for i in range(a) for j in range(a, n)], n
    kind, n = m[1], int(m[2])
    least = {"k": 0, "c": 3, "p": 2}[kind]
    if n < least:
        raise BadSpec(f"{'cycle' if kind == 'c' else 'path'} needs at least "
                      f"{least} vertices")
    check_points(n, "graph")
    if kind == "k":
        return [(i, j) for i in range(n) for j in range(i + 1, n)], n
    return [(i, (i + 1) % n) for i in range(n if kind == "c" else n - 1)], n


def graph_edges(edges, n_vertices: int | None,
                name: str | None) -> tuple[list, int]:
    """(edges, vertex count) of a graph_shortest_path space, from its
    effective params: its edges, and n_vertices for isolated vertices past
    the last endpoint, or a name that brings both. BadSpec for a name
    beside edges or n_vertices, no vertices, more than POINT_LIMIT, an
    endpoint past the count or a self-loop."""
    if name is not None:
        if edges is not None or n_vertices is not None:
            raise BadSpec("a graph has a name or edges and n_vertices, not both")
        edges, n_vertices = graph_name_edges(name)
    edges = edges or []
    seen = {u for e in edges for u in e}
    n = n_vertices if n_vertices is not None else (max(seen) + 1 if seen else 0)
    if n <= 0:
        raise BadSpec("graph has no vertices")
    check_points(n, "graph")
    if seen and max(seen) >= n:
        raise BadSpec("edge endpoint beyond vertex count")
    if any(u == v for u, v in edges):
        raise BadSpec("self-loops not allowed")
    return edges, n


def graph_rows(edges, n: int):
    """The rows of the hop-count metric of the graph on n vertices with
    these edges, one list of ints at a time: one breadth-first search per
    vertex over adjacency lists, O(n (n + m)) time for m edges and O(n + m)
    memory besides the row. DisconnectedGraph at the first row that misses
    a vertex."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
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
        yield hops


# ---------------------------------------------------------------------------
# the KINDS table


def _list_of(item: Callable, lo: int = 0, hi: float = math.inf) -> Callable:
    """Check a list (tuple, range, numpy array) of lo to hi items by item."""
    def check(x, what):
        # an array comes only from a caller that has imported numpy
        numpy = sys.modules.get("numpy")
        if numpy is not None and isinstance(x, numpy.ndarray):
            x = x.tolist()
        if not isinstance(x, (list, tuple, range)) or not lo <= len(x) <= hi:
            raise BadSpec(f"{what} must be a list of length in [{lo}, {hi}], got {x!r}")
        return [item(v, f"{what}[{i}]") for i, v in enumerate(x)]

    return check


def _string(x, what):
    if not isinstance(x, str):
        raise BadSpec(f"{what} must be a string, got {x!r}")
    return x


def _matrix(x, what):
    # a float entry passes as it is, so that validate_metric reports a NaN
    # or an infinity; any other entry must be a finite number
    rows = _list_of(_list_of(
        lambda v, at: v if isinstance(v, float) else finite(v, at)))(x, what)
    if len({len(r) for r in rows}) > 1:
        raise BadSpec(f"{what} rows differ in length")
    return rows


_NONNEGATIVE = ("integer >= 0", lambda x, what: integral(x, what, 0))
_COUNT = ("integer >= 1", lambda x, what: integral(x, what, 1))
_P = ("1 or 2", lambda x, what: integral(x, what, 1, 2))
_POSITIVE = ("number > 0", lambda x, what: finite(x, what, 0))

# kind: {parameter: (values, check, default)}, in the order of the
# builder's parameters (spaces.BUILDERS): values names what the parameter
# takes (README --spec reference), check(value, what) returns what the
# builder gets or raises BadSpec, and a REQUIRED parameter has no
# default. The defaults live here alone: every builder is called with
# all its parameters, and its own optional ones default to None.
KINDS = {
    "points_1d": {
        "coordinates": ("nonempty list of finite numbers", _list_of(finite, 1),
                        REQUIRED)},
    "graph_shortest_path": {
        "edges": ("list of [u, v] pairs of integers >= 0",
                  _list_of(_list_of(_NONNEGATIVE[1], 2, 2)), None),
        "n_vertices": (*_COUNT, None),
        "name": ("graph name such as k5, k3,2, c6 or p4", _string, None)},
    "lp_grid": {
        "shape": ("nonempty list of integers >= 1", _list_of(_COUNT[1], 1),
                  REQUIRED),
        "p": (*_P, 2), "spacing": (*_POSITIVE, 1.0)},
    "cantor_endpoints": {
        "depth": (*_NONNEGATIVE, REQUIRED), "length": (*_POSITIVE, 1.0)},
    "ball_sample": {
        "n": (*_COUNT, REQUIRED), "radius": (*_POSITIVE, REQUIRED),
        "count": (*_COUNT, REQUIRED), "seed": (*_NONNEGATIVE, REQUIRED),
        "p": (*_P, 2)},
    "explicit_matrix": {
        "matrix": ("list of equal-length rows of numbers", _matrix, REQUIRED)},
}


# ---------------------------------------------------------------------------
# what a space is, and the rung that answers it

LINE, GRAPH, POINTS, HELD = "line", "graph", "points", "held"


class Structure(NamedTuple):
    """What a space is: its kind, its number of points, the kind's data (a
    line's coordinates in the space's order, a graph's edges, else None)
    and metric(), the spaces.FiniteMetricSpace that the dense rungs read,
    built on the first call for a spec's line or graph."""

    kind: str
    n: int
    data: list | None
    metric: Callable

    @property
    def of_points(self) -> bool:
        """Whether Z(t) is positive definite by theorem (l1^k, l2^k points)."""
        return self.kind in (LINE, POINTS)


def structure(spec: SpaceSpec) -> tuple[Structure, dict]:
    """The Structure of the space spec describes, and its effective params,
    with every error that building it raises: a line's coordinates and a
    graph's edges and first row of d are read without numpy."""
    params = spec.effective()
    xs = line_coordinates(spec.kind, params)

    @functools.cache
    def metric():
        from . import spaces

        return spaces.generate_space(spec)

    if xs is not None:
        return Structure(LINE, len(xs), xs, metric), params
    if spec.kind == "graph_shortest_path":
        edges, n = graph_edges(**params)
        next(graph_rows(edges, n))  # a DisconnectedGraph, before any solve
        return Structure(GRAPH, n, edges, metric), params
    return metric().structure, params


def min_distance(space: Structure) -> float:
    """The smallest distance between two points of space, inf for one: on
    the line that of two neighbours once sorted, as fl(y - x) grows with
    y; on a connected graph that of an edge, 1."""
    if space.kind == GRAPH:
        return 1.0 if space.n > 1 else math.inf
    if space.kind == LINE:
        xs = sorted(space.data)
        return min((b - a for a, b in zip(xs, xs[1:])), default=math.inf)
    return space.metric().min_distance


def weighting(space: Structure, t: float, dense: Callable | None = None):
    """The weighting of space at scale t: the line rung's on a line, else
    dense's, the dense solve that engine.solve_weighting passes, to which
    a space goes without it."""
    if space.kind == LINE:
        from . import tridiagonal

        return tridiagonal.solve(space.data, t)
    if dense is None:
        from . import engine

        dense = engine.solve_weighting
    return dense(space.metric(), t)


def maximum_diversity(space: Structure, t: float, tol: float = 1e-9,
                      exact: bool = False, dense: Callable | None = None):
    """Maximum diversity of space at scale t: the line rung's on a line, the
    search's on at most supports.SEARCH_LIMIT points (EXACT_LIMIT when
    exact, TooLarge above), else dense's, the active set to the gap tol. A
    space with no numpy-free rung goes without dense to
    diversity.max_diversity or max_diversity_exact, which pass _ladder."""
    if space.kind == LINE:
        from . import tridiagonal

        return tridiagonal.max_diversity(space.data, t)
    from . import supports

    limit = supports.EXACT_LIMIT if exact else supports.SEARCH_LIMIT
    if dense is None and not (space.kind == GRAPH and space.n <= limit):
        from . import diversity

        if exact:
            return diversity.max_diversity_exact(space.metric(), t)
        return diversity.max_diversity(space.metric(), t, tol)
    if space.n <= limit:
        rows = (graph_rows(space.data, space.n) if space.kind == GRAPH
                else space.metric().rows(0, space.n).tolist())
        return supports.search(supports.similarity(rows, t))
    if exact:
        raise TooLarge(space.n, limit)
    return dense(space.metric(), t, tol)


def definiteness(space: Structure, t: float, dense: Callable | None = None):
    """The definiteness report of space at scale t: the theorem's on
    points of l1^k or l2^k (sweeps.theorem_report), else dense's, the
    proofs on a held d that engine.definiteness_report passes, to which
    any space but a line goes without it."""
    if space.kind == LINE or (dense is not None and space.kind == POINTS):
        from .sweeps import theorem_report

        return theorem_report(space.n, t, min_distance(space))
    if dense is None:
        from . import engine

        dense = engine.definiteness_report
    return dense(space.metric(), t)
