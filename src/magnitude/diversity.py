"""Maximum diversity, greedy covering numbers, and growth-based dimension.

The diversity of a distribution mu on the points of a space, at scale t,
is 1 / (mu' Z mu) with Z the similarity matrix: the reciprocal expected
similarity between two independent draws. Maximum diversity optimizes mu
over the probability simplex; for positive definite Z the optimum is
unique and never exceeds the magnitude, with equality exactly when the
weighting is nonnegative (subsets of the real line, for instance).

specs.maximum_diversity chooses the rung, for the commands and for
max_diversity and max_diversity_exact alike. On the line the line rung
(tridiagonal) answers: every weight is positive there, so the maximum is
the magnitude. Any other space of at most SEARCH_LIMIT points
(EXACT_DIVERSITY_LIMIT, exactly) is searched over the supports whose Z_S
is positive definite (supports.search), for the global maximum whether
or not Z is positive semidefinite.

A larger space climbs two rungs, chosen by one Cholesky factor of Z and
each certified by the Frank-Wolfe gap 2 (mu' Z mu - min (Z mu)) <= tol:

1. When Cholesky accepts Z, a Lawson-Hanson active set on
   min (1/2) y' Z y - 1' y over y >= 0, whose optimum solves Z_S y = 1
   on its support S, with mu = y / sum(y). It starts from the factor's
   weighting Z^-1 1, drops nonpositive entries until the solve is
   positive, then adds the most violated index with the usual
   feasibility inner loop, for at most 3n passes, and refactors each
   support from the rows of the subspace on it (S's points, or a copy of
   S's block of a held d). The value is 1 / (mu' (Z mu)).
2. Otherwise, or when the active set gives up, Frank-Wolfe with away
   steps on min mu' Z mu (fw_away_qp) from the uniform start, up to
   max_iters, one exact line search along +-(e_v - mu) per step.

Both read Z by rows formed from d's (engine.similarity_rows), ROW_BLOCK
at a time, so a call holds half a factor and a block of rows, never the
n x n Z. Every answer is a DiversityResult: the value, the maximizing
distribution mu as read-only weights, its support, the gap, iterations
(supports visited, for the search) and the method, with its
certificate: "global" from the line rung, the search, and both rungs
where Cholesky accepts Z, as the problem is then convex; "stationary"
from Frank-Wolfe on a Z that Cholesky rejects, whose gap certifies only
a stationary point there (K_{3,3} at t = 0.5 is a saddle at the uniform
start, 1.6876 against the maximum 1.7284).

Dimension estimates fit the growth rate of a quantity against scale on a
log-log window: maximum diversity for diversity_growth, covering numbers
at radius 1/t for covering_growth. The two extreme samples are dropped
before the fit to blunt boundary effects, and the line is fitted in
closed form from centred sums, with no least-squares solver
(sweeps.growth_dimension, which dim runs too).
"""

from __future__ import annotations

import numpy as np

from .engine import cholesky_rows, cholesky_solver, frozen, similarity_rows
from .errors import (  # noqa: F401  (TooLarge, WindowTooNarrow re-exported)
    DiversityError,
    NonConvergence,
    TooLarge,
    WindowTooNarrow,
    finite,
)
from .spaces import ROW_BLOCK, FiniteMetricSpace
from .specs import maximum_diversity
from .supports import EXACT_LIMIT as EXACT_DIVERSITY_LIMIT  # noqa: F401
from .supports import SEARCH_LIMIT  # noqa: F401  (both re-exported)
from .sweeps import (  # noqa: F401  (DimensionEstimate re-exported)
    DimensionEstimate,
    DiversityResult,
    growth_dimension,
)

# Lawson-Hanson pass bound per point, as in scipy's nnls
ACTIVE_SET_PASSES_PER_POINT = 3


def backend_name() -> str:
    """Kernel implementation that runs: always 'numpy'."""
    return "numpy"


def _products(rows, n: int, *xs: np.ndarray) -> tuple:
    """The products Z x, one for each x of xs, for the n x n Z of the row
    source rows: its rows are formed ROW_BLOCK at a time into one buffer,
    freed on return, and each block serves every product."""
    zxs = tuple(np.empty(n) for _ in xs)
    block = np.empty((min(ROW_BLOCK, n), n))
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        z = rows(lo, hi, out=block[:hi - lo])
        for x, zx in zip(xs, zxs):
            np.matmul(z, x, out=zx[lo:hi])
    return zxs


def fw_away_qp(rows, n: int, tol: float, max_iters: int):
    """Minimize x'Zx over the probability simplex, for a symmetric n x n Z.

    rows(lo, hi, out=None) gives Z[lo:hi], which the run reads and never
    writes: a held Z's rows, or engine.similarity_rows, which forms them
    from d's as they are asked for, in out where it is given. The run
    reads Z @ mu once, in blocks of ROW_BLOCK rows, and then one row Z[v]
    per iteration, into one buffer, which is column v as Z is symmetric;
    so both give bit-identical runs, and the formed rows hold ROW_BLOCK *
    n floats of Z at a time.
    Frank-Wolfe with away steps, one O(N) pass per iteration, updating
    its vectors in place. Deterministic: uniform start, lowest-index tie
    break in the linear minimization oracle. Each step is one exact line
    search along +-(e_v - mu): toward the oracle's vertex s (step cap 1)
    or away from the worst support vertex a (step cap mu_a / (1 - mu_a),
    where a leaves the support). The curvature along it is
    Z[v,v] - 2 (Z mu)_v + mu'Z mu; where it is not positive, the step
    takes its cap.

    Returns (x, objective, duality_gap, iterations). The run converged
    exactly when duality_gap <= tol; one stopped by max_iters returns
    iterations == max_iters and the gap measured before its last step.
    The gap is 2 (mu' Z mu - min (Z mu)): a value slightly below zero is
    rounding, and it certifies a global minimum only for PSD Z.
    """
    mu = np.full(n, 1.0 / n)
    q, = _products(rows, n, mu)    # running Z @ mu
    f = float(mu @ q)              # running objective mu' Z mu
    gap = np.inf                   # no gap measured before the first pass
    g = np.empty(n)                # gradient 2 Z mu
    work = np.empty(n)             # the away oracle's scores, then a row
    row_buffer = np.empty((1, n))  # where a formed row of Z is written
    support = np.empty(n, dtype=bool)
    it = 0
    while it < max_iters:
        np.multiply(q, 2.0, out=g)
        s = int(np.argmin(g))      # lowest index wins ties by argmin contract
        gmu = float(g @ mu)
        gap = gmu - g[s]
        if gap <= tol:
            break
        np.greater(mu, 0.0, out=support)
        work.fill(-np.inf)
        np.copyto(work, g, where=support)
        a = int(np.argmax(work))
        if gap >= g[a] - gmu:
            v, sign, hmax = s, 1.0, 1.0
        else:
            alpha = mu[a]
            v, sign = a, -1.0
            hmax = alpha / (1.0 - alpha) if alpha < 1.0 else 0.0
        row = rows(v, v + 1, out=row_buffer)[0]
        # the direction is sign * (e_v - mu): slope d'Z mu, curvature d'Zd
        slope = sign * (q[v] - f)
        curv = row[v] - 2.0 * q[v] + f
        h = hmax if curv <= 0.0 else max(min(hmax, -slope / curv), 0.0)
        f = f + 2.0 * h * slope + h * h * curv
        step = sign * h
        mu *= 1.0 - step
        mu[v] += step
        if sign < 0.0 and h == hmax:
            mu[v] = 0.0            # a drop step: v leaves the support exactly
        q *= 1.0 - step
        q += np.multiply(row, step, out=work)
        it += 1
    return mu, f, gap, it


def max_diversity(space: FiniteMetricSpace, t: float = 1.0,
                  tol: float = 1e-9, max_iters: int = 100_000) -> DiversityResult:
    """Maximum diversity at scale t, by specs.maximum_diversity's rung:
    the line rung on the line, the search up to SEARCH_LIMIT points, where
    tol and max_iters play no part, else the ladder of the module
    docstring, to the gap tol (NonConvergence where Frank-Wolfe misses
    it). The weights are read-only."""
    return _frozen(maximum_diversity(space.structure, t, tol, max_iters,
                                     dense=_ladder))


def _ladder(space: FiniteMetricSpace, t: float, tol: float,
            max_iters: int) -> DiversityResult:
    """The two rungs of the module docstring, on a space of any size,
    chosen by one Cholesky factor of Z: every answer is global where
    Cholesky accepts Z, and Frank-Wolfe's is stationary where it does
    not."""
    n = space.n_points
    z_rows = similarity_rows(space, t)
    ys = _unit_solve(z_rows, n)  # the weighting, full support
    found = None if ys is None else _active_set(space, t, z_rows, ys, tol)
    if found is not None:
        return found
    mu, f, gap, iters = fw_away_qp(z_rows, n, tol, max_iters)
    if gap > tol:
        raise NonConvergence(iters, gap)
    # on a positive definite Z the problem is convex: the gap certifies
    return _result(mu, 1.0 / f, gap, iters, "frank_wolfe",
                   "stationary" if ys is None else "global")


def _result(mu, value, gap, iterations, method, certificate) -> DiversityResult:
    """The result at weights mu; the support is where mu is positive."""
    support = tuple(int(i) for i in np.flatnonzero(mu > 0))
    return DiversityResult(float(value), mu, support, float(gap),
                           int(iterations), method, certificate)


def _unit_solve(rows, n: int) -> np.ndarray | None:
    """y with Z y = 1, for the n x n Z whose rows rows(lo, hi, col0) gives:
    its rows on and right of the diagonal are factored a block at a time,
    and the factor is freed on return; None where Cholesky rejects Z."""
    try:
        factor = cholesky_rows(lambda lo, hi: rows(lo, hi, lo), n)
    except np.linalg.LinAlgError:
        return None
    return cholesky_solver(factor)(np.ones(n))


def _active_set(space: FiniteMetricSpace, t: float, z_rows, ys: np.ndarray,
                tol: float) -> DiversityResult | None:
    """Lawson-Hanson active set on min (1/2) y'Zy - 1'y, y >= 0 (rung 1
    of the module docstring), from ys = Z^-1 1, where z_rows is the
    space's row source of Z at scale t.

    None when Cholesky rejects a principal block of Z, when no index
    violates optimality yet the gap exceeds tol, when an added index
    stalls, or when the pass bound runs out; the caller then falls back
    to Frank-Wolfe.
    """
    n = space.n_points
    idx = np.arange(n)
    y = None                    # feasible iterate once a solve is positive
    for passes in range(1, ACTIVE_SET_PASSES_PER_POINT * n + 1):
        if ys is None:
            return None         # Cholesky rejects Z on the support idx
        if ys.min() > 0:
            y = np.zeros(n)
            y[idx] = ys
            mu = y / y.sum()
            zmu, zy = _products(z_rows, n, mu, y)
            f = mu @ zmu
            gap = float(2.0 * (f - zmu.min()))
            if gap <= tol:
                return _result(mu, 1.0 / f, gap, passes, "active_set",
                               "global")
            w = 1.0 - zy        # negative gradient; positive = violated
            w[idx] = -np.inf
            j = int(np.argmax(w))
            if w[j] <= 0:
                return None
            idx = np.sort(np.append(idx, j))
        elif y is None:
            idx = idx[ys > 0]   # seeding: drop nonpositive weights
        else:
            # move from y toward ys until the first coordinate hits zero
            cur = y[idx]
            neg = ys <= 0
            if not (cur[neg] > 0).all():
                return None     # the index just added would leave at once
            ratios = cur[neg] / (cur[neg] - ys[neg])
            k = int(np.argmin(ratios))
            y[idx] = cur + ratios[k] * (ys - cur)
            y[idx[neg][k]] = 0.0
            idx = idx[y[idx] > 0]
        # the parent's diameter bounds the subspace's, which is then never
        # scanned
        ys = _unit_solve(similarity_rows(space.subspace(idx), t,
                                         space.diameter), idx.size)
    return None


def max_diversity_exact(space: FiniteMetricSpace,
                        t: float = 1.0) -> DiversityResult:
    """Maximum diversity as diversity --exact gives it: the line rung's on
    the line, else the search's on at most EXACT_DIVERSITY_LIMIT points;
    TooLarge above."""
    return _frozen(maximum_diversity(space.structure, t, exact=True,
                                     dense=_ladder))


def _frozen(res: DiversityResult) -> DiversityResult:
    return res._replace(weights=frozen(res.weights))


# ---------------------------------------------------------------------------
# greedy covering with centers inside the space


def _balls(space: FiniteMetricSpace, eps: float) -> np.ndarray:
    """The n x n mask d <= eps, filled from d's rows a block at a time."""
    # a radius past the diameter, an infinite one too, holds every point
    eps = finite(min(eps, space.diameter), "radius", least=0,
                 error=DiversityError)
    n = space.n_points
    balls = np.empty((n, n), dtype=bool)
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        np.less_equal(space.rows(lo, hi), eps, out=balls[lo:hi])
    return balls


def _greedy_cover(balls: np.ndarray) -> list:
    n = balls.shape[0]
    uncovered = np.ones(n, dtype=bool)
    centers = []
    while uncovered.any():
        gains = (balls & uncovered).sum(axis=1)
        c = int(np.argmax(gains))
        uncovered &= ~balls[c]
        centers.append(c)
    return centers


def greedy_covering_number(space: FiniteMetricSpace, eps: float) -> int:
    """Centers chosen greedily by residual coverage; an upper bound."""
    return len(_greedy_cover(_balls(space, eps)))


# ---------------------------------------------------------------------------
# dimension from growth rates


def dimension_estimate(space: FiniteMetricSpace, t_min: float, t_max: float,
                       method: str = "diversity_growth", samples: int = 12,
                       tol: float = 1e-6, max_iters: int = 300_000) -> DimensionEstimate:
    """Least-squares slope of log(quantity) against log(scale), as
    sweeps.growth_dimension fits it: maximum diversity (diversity_growth)
    or greedy covering numbers (covering_growth). growth_scales refuses a
    window that leaves fewer than 4 distinct fitted log-scales as
    WindowTooNarrow before any quantity is computed. Estimates are
    meaningful only while the scale still resolves the finest structure,
    roughly t_max * (smallest gap) <= 1; the caller is expected to check
    that."""
    return growth_dimension(space.structure, t_min, t_max, method, samples,
                            tol, max_iters, greedy_covering_number)
