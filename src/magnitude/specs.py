"""Space specs, without numpy: SpaceSpec, the KINDS table, POINT_LIMIT and
the coordinates of the line kinds.

A spec names a kind, its parameters and a seed; SpaceSpec.effective()
checks them against the kind's rules in KINDS and fills in the defaults,
and every spec, space flag and builder call is checked there. The spaces
module builds each kind with numpy and re-exports this layer, so
spaces.SpaceSpec is specs.SpaceSpec.

The line kinds are points_1d, lp_grid with a one-entry shape and
cantor_endpoints. line_coordinates gives their points as floats, in the
order the built space lists them, with every BadSpec check that building
them makes: POINT_LIMIT, distinct coordinates, distances inside the
double range and none rounding to 0. The spaces builders take their
points from it, and the CLI hands them to the line rung (tridiagonal),
which solves them without numpy.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Callable, NamedTuple

from .errors import BadSpec, finite, integral

# most points a generator builds. Measured at n = 2000 in n x n float
# arrays: a dense solve holds half of Z and half a factor, 1.10 (0.55 GiB
# at this size), and 2.10 where the space holds d (graphs, 1.05 GiB); a
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


def line_points(xs: list[float], p: int = 1) -> list[float]:
    """xs, the coordinates of a space on the line in the lp distance
    (p in 1, 2), once they are checked as a space of points is: BadSpec
    where a distance leaves the double range or where one between
    distinct points rounds to 0. In 1-D the lp distance of two points
    is |x - y| for p = 1 and sqrt((x - y)^2) for p = 2, and either is
    monotone in |x - y|, so the largest is that of the two ends and the
    smallest that of the closest neighbours."""
    ordered = sorted(xs)
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    span = ordered[-1] - ordered[0]
    if p == 2:  # float products overflow to inf and underflow to 0
        span, gaps = math.sqrt(span * span), [math.sqrt(g * g) for g in gaps]
    if not math.isfinite(span):
        raise BadSpec("coordinates give distances outside the double range")
    if gaps and min(gaps) == 0.0:
        raise BadSpec("distinct points' distances round to 0: their squared "
                      "coordinate differences underflow at this radius or "
                      "spacing")
    return xs


def points_1d(coordinates) -> list[float]:
    """The points of a points_1d space, in the order given: BadSpec over
    POINT_LIMIT, for a repeated coordinate, or as line_points."""
    xs = [float(x) for x in coordinates]
    check_points(len(xs), "points_1d")
    if len(set(xs)) < len(xs):
        raise BadSpec("points_1d coordinates must be distinct")
    return line_points(xs)


def grid_1d(n: int, p: int, spacing: float) -> list[float]:
    """The points i * spacing, i < n, of the lp_grid of shape [n]."""
    check_points(n, "lp_grid")
    return line_points([i * spacing for i in range(n)], p)


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
    if kind == "lp_grid" and len(params["shape"]) == 1:
        return grid_1d(params["shape"][0], params["p"], params["spacing"])
    if kind == "cantor_endpoints":
        return cantor_points(params["depth"], params["length"])
    return None


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
