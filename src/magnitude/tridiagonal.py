"""The line rung: magnitude, weighting and maximum diversity of a finite
subset of the real line in O(n) time, in pure Python with math.

For sorted distinct x_1 < ... < x_n with gaps g_k = x_{k+1} - x_k and
a_k = exp(-t g_k), the similarity matrix is Z_ij = the product of the a_k
between i and j, and it is positive definite at every t > 0, as R is of
strict negative type (Leinster, Doc. Math. 18, 2013). Its inverse is
tridiagonal: with c_k = 1 / (1 - a_k^2),

    (Z^-1)_{k,k+1} = -a_k c_k,  (Z^-1)_{1,1} = c_1,  (Z^-1)_{n,n} = c_{n-1},
    (Z^-1)_{k,k} = c_{k-1} + c_k - 1 in between.

Row k of Z^-1 sums to the weight w_k, and as (1 - a) c = (1 + h) / 2 with
h = (1 - a) / (1 + a),

    w_1 = (1 + h_1) / 2,  w_k = (h_{k-1} + h_k) / 2,  w_n = (1 + h_{n-1}) / 2.

Each h_k is formed from e_k = 1 - a_k = -expm1(-t g_k) as e / (2 - e),
and each c_k from 1 - a_k^2 = -expm1(-2 t g_k), so nothing cancels where
gaps are small: the gap 1e-310 makes a_k = 1.0 and two rows of Z equal in
floats, and the weights are still exact to rounding. Every weight is
positive, so the maximum diversity is the magnitude, sum w, attained by
mu = w / sum w on every point (Leinster and Meckes, Entropy 18, 2016).

A solve reports what engine.solve_weighting reports, computed in the same
O(n) pass: the status UniquePD, from the theorem; the condition number
||Z||_1 ||Z^-1||_1 itself, not an estimate, where ||Z||_1 is the largest
row sum of Z, formed by two prefix sweeps (the sums left and right of
each point, L_k = 1 + a_{k-1} L_{k-1} and R_k = 1 + a_k R_{k+1}), and
||Z^-1||_1 the largest absolute row sum of the tridiagonal entries; and
the residual max |1 - Z w|, Z w formed by the same two sweeps over w.

This is the one producer of a finite line set's weights: specs.weighting
and maximum_diversity choose it for every space on the line, for the
commands and the library alike, and oracle --points prints its weights.
The tanh closed forms of lines.py, and
the dense solve, which runs on a line only where the space holds d, are
the references that the tests and the benchmark check the rung against.
"""

from __future__ import annotations

import math

from .errors import finite_scale
from .lines import sorted_points
from .sweeps import STATUS_PD, DiversityResult, WeightingResult


def _solve(coordinates, t: float):
    """(w, Z w, ||Z||_1, ||Z^-1||_1), the vectors in the order of
    coordinates, at a scale checked to be 0 < t < inf; LineError where
    lines.sorted_points refuses the coordinates (DuplicatePoints too)."""
    t = finite_scale(t)
    n = len(coordinates)
    order = sorted(range(n), key=coordinates.__getitem__)
    xs = sorted_points([coordinates[i] for i in order])
    tg = [t * (b - a) for a, b in zip(xs, xs[1:])]  # inf past the range
    a = [math.exp(-x) for x in tg]
    h = [e / (2.0 - e) for e in (-math.expm1(-x) for x in tg)]
    # t g may underflow to 0, where 1 - a^2 > 0 is below the double range
    c = [-1.0 / math.expm1(-2.0 * x) if x else math.inf for x in tg]
    # the weights, and the rows of Z^-1: its diagonal plus both neighbours
    w, inverse_rows = [1.0] * n, [1.0] * n
    if n > 1:
        w[0], w[-1] = (1.0 + h[0]) / 2.0, (1.0 + h[-1]) / 2.0
        inverse_rows[0] = c[0] + a[0] * c[0]
        inverse_rows[-1] = c[-1] + a[-1] * c[-1]
        for k in range(1, n - 1):
            w[k] = (h[k - 1] + h[k]) / 2.0
            inverse_rows[k] = (c[k - 1] + c[k] - 1.0
                               + a[k - 1] * c[k - 1] + a[k] * c[k])
    # the sums of Z's rows, and of Z w's terms, left and right of each point
    left, left_w = [1.0] * n, w[:]
    for k in range(1, n):
        left[k] += a[k - 1] * left[k - 1]
        left_w[k] += a[k - 1] * left_w[k - 1]
    right, right_w = [1.0] * n, w[:]
    for k in range(n - 2, -1, -1):
        right[k] += a[k] * right[k + 1]
        right_w[k] += a[k] * right_w[k + 1]
    znorm = max(lo + hi - 1.0 for lo, hi in zip(left, right))
    zw = [lo + hi - x for lo, hi, x in zip(left_w, right_w, w)]
    back = [0] * n
    for k, i in enumerate(order):
        back[i] = k
    return ([w[k] for k in back], [zw[k] for k in back], znorm,
            max(inverse_rows))


def solve(coordinates, t: float) -> WeightingResult:
    """The weighting of the distinct reals coordinates at scale t, as
    engine.solve_weighting reports it: a tuple of weights in the order
    given."""
    w, zw, znorm, inverse_norm = _solve(coordinates, t)
    return WeightingResult(tuple(w), math.fsum(w), STATUS_PD,
                         znorm * inverse_norm,
                         max(abs(1.0 - q) for q in zw))


def max_diversity(coordinates, t: float) -> DiversityResult:
    """Maximum diversity of the distinct reals coordinates at scale t: the
    magnitude, at mu = w / sum w (a tuple, in the order given) on every
    point, with the KKT gap of mu, 2 (mu' Z mu - min Z mu), which
    is 0 but for rounding; one solve, method "line", certificate
    "global"."""
    w, zw, _, _ = _solve(coordinates, t)
    total = math.fsum(w)
    mu = tuple(x / total for x in w)
    z_mu = [q / total for q in zw]
    gap = 2.0 * (math.fsum(m * q for m, q in zip(mu, z_mu)) - min(z_mu))
    return DiversityResult(total, mu, tuple(range(len(w))), gap, 1, "line",
                           "global")
