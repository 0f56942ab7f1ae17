"""Closed-form magnitude on the real line.

For finite X = {x_1 < ... < x_N} with gaps g_i = x_{i+1} - x_i, the weighting
at scale t is explicit:

    w_1 = (1 + tanh(t g_1 / 2)) / 2
    w_i = (tanh(t g_{i-1} / 2) + tanh(t g_i / 2)) / 2   (interior)
    w_N = (1 + tanh(t g_{N-1} / 2)) / 2

so the magnitude telescopes to 1 + sum_i tanh(t g_i / 2). Every weight is
strictly positive, which is why these sets are the reference geometry for
the optimization-based routines: maximum diversity equals magnitude here.

Compact unions of closed intervals follow the same pattern in the limit:
a closed interval [a, b] has magnitude 1 + t (b - a) / 2, carried by point
masses 1/2 at each endpoint plus uniform density t/2 inside, and each gap
of width g between consecutive components contributes tanh(t g / 2). The
middle-thirds set is the depth limit of such unions; its magnitude is the
convergent series 1 + sum_{i>=1} 2^(i-1) tanh(t L / (2 * 3^i)).

The line rung (tridiagonal) produces the weights of a finite set for every
command, oracle --points included, which checks its points here first;
line_weighting and line_magnitude are the independent reference that the
tests and the benchmark check the rung against. Only line_weighting loads
numpy, for the arrays it returns.
"""

from __future__ import annotations

import math
from itertools import count

from .errors import LineError, finite, finite_result, positive_scale

# above this t L / 2 the Cantor series would form 3^i beyond the double
# range; tanh(h / 3) is exactly 1.0 for every h the reduction skips
CANTOR_SERIES_LIMIT = 1e50
# the Cantor series stops once its tail bound is below this
CANTOR_TOL = 1e-14


class DuplicatePoints(LineError):
    def __init__(self, value: float):
        super().__init__(f"coordinate {value!r} appears more than once")


class ReversedInterval(LineError):
    def __init__(self, a: float, b: float):
        super().__init__(f"interval [{a!r}, {b!r}] has b < a")


class OverlappingGaps(LineError):
    def __init__(self, b_prev: float, a_next: float):
        super().__init__(
            f"component starting at {a_next!r} overlaps previous end {b_prev!r}"
        )


def sorted_points(points) -> list[float]:
    """points as sorted floats: LineError if there are none or one is not
    finite, DuplicatePoints if two are equal."""
    x = sorted(finite(float(v), "coordinate", error=LineError) for v in points)
    if not x:
        raise LineError("need at least one point")
    for a, b in zip(x, x[1:]):
        if a == b:
            raise DuplicatePoints(a)
    return x


def _half_tanh(t: float, gaps) -> list[float]:
    """tanh(t gap / 2) per gap; a gap or t gap past the double range is
    inf, where tanh is exactly 1."""
    return [math.tanh(t * g / 2.0) for g in gaps]


def line_weighting(points, t: float):
    """Exact weighting of a finite subset of R at scale t.

    Returns (sorted coordinates, weights) as numpy arrays. Weights are
    strictly positive.
    """
    import numpy as np

    t = positive_scale(t)
    x = sorted_points(points)
    # one term per gap, and 1 past each end
    half = [1.0, *_half_tanh(t, [b - a for a, b in zip(x, x[1:])]), 1.0]
    w = [(a + b) / 2.0 for a, b in zip(half, half[1:])]
    return np.array(x), np.array(w)


def line_magnitude(points, t: float) -> float:
    """1 + sum of tanh(t gap / 2) over consecutive gaps."""
    t = positive_scale(t)
    x = sorted_points(points)
    return 1.0 + math.fsum(_half_tanh(t, [b - a for a, b in zip(x, x[1:])]))


@finite_result
def interval_weight_measure(a: float, b: float, t: float) -> dict:
    """Weight measure of [a, b]: endpoint atoms and interior density."""
    t = positive_scale(t)
    a, b = float(a), float(b)
    if b < a:
        raise ReversedInterval(a, b)
    mass = t * (b - a) / 2.0
    return {
        "endpoint_mass": 0.5,
        "interior_density": t / 2.0,
        "interior_mass": mass,
        "total": 1.0 + mass,
    }


def _checked_components(components) -> list[tuple[float, float]]:
    comp = [(float(a), float(b)) for a, b in components]
    if not comp:
        raise LineError("need at least one component interval")
    for a, b in comp:
        if b < a:
            raise ReversedInterval(a, b)
    comp.sort()
    for (_, b1), (a2, _) in zip(comp, comp[1:]):
        if a2 < b1:
            raise OverlappingGaps(b1, a2)
    return comp


@finite_result
def compact_magnitude(components, t: float) -> float:
    """Magnitude of a finite union of disjoint closed intervals.

    1 + t * (total length) / 2 + sum over gaps of tanh(t gap / 2).
    Touching components (gap 0) are allowed; the gap term vanishes and the
    result matches the merged interval.
    """
    t = positive_scale(t)
    comp = _checked_components(components)
    vol = sum(b - a for a, b in comp)
    gaps = [a2 - b1 for (_, b1), (a2, _) in zip(comp, comp[1:])]
    return 1.0 + t * vol / 2.0 + math.fsum(_half_tanh(t, gaps))


@finite_result
def interval_magnitude(a: float, b: float, t: float) -> float:
    """1 + t (b - a) / 2: the one-component compact set."""
    return compact_magnitude([(a, b)], t)


@finite_result
def cantor_magnitude(t: float, length: float = 1.0) -> float:
    """Magnitude of the middle-thirds set on [0, length] at scale t.

    Sums 1 + sum_{i>=1} 2^(i-1) tanh(t L / (2 3^i)) until the geometric
    tail bound (t L / 2) (2/3)^k drops below CANTOR_TOL. tanh is bounded
    by its argument, so the tail after k terms is at most
    sum_{i>k} 2^(i-1) t L / (2 3^i) = (t L / 2)(2/3)^k.

    Above t L / 2 = CANTOR_SERIES_LIMIT the self-similarity
    C(h) = 2 C(h / 3) - 1 + tanh(h / 3), whose tanh is then exactly 1.0,
    gives C(h) = 2^k C(h / 3^k) with h / 3^k below the limit, so no power
    leaves the double range unless the value itself does. From there the
    tail bound passes CANTOR_TOL by term 364.
    """
    t = positive_scale(t)
    length = finite(length, "length", 0, error=LineError)
    if t == math.inf:  # the reduction below would never end
        raise OverflowError("infinite scale")
    doublings = 0
    while t * length / 2.0 > CANTOR_SERIES_LIMIT:
        t /= 3.0
        doublings += 1
    total = 1.0
    half_tl = t * length / 2.0
    for i in count(1):
        total += 2.0 ** (i - 1) * math.tanh(half_tl / 3.0**i)
        if half_tl * (2.0 / 3.0) ** i < CANTOR_TOL:
            return math.ldexp(total, doublings)
