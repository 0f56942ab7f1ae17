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

A larger space takes one Lawson-Hanson active set (_ladder) on
min (1/2) y' Z y - 1' y over y >= 0, whose optimum solves Z_S y = 1 on
its support S, with mu = y / sum(y) and value 1 / (mu' (Z mu)) = sum(y).
Maximum diversity is taken over supports whose Z_S is positive definite
and carries a nonnegative weighting (Leinster and Meckes, Entropy 18,
2016; see supports), so the run visits only those: it adds the most
violated index j whose bordering pivot z_jj - z_Sj' Z_S^-1 z_Sj is
positive, which is where Cholesky accepts Z_S+j, and on each such
support the problem is convex. Each pass refactors its support from the
rows of the subspace on it (S's points, or a copy of S's block of a held
d), and a run stops after at most 3n passes.

- Where Cholesky accepts Z, one run starts from the factor's weighting
  Z^-1 1 and drops nonpositive entries until the solve is positive. The
  problem is then convex: a gap 2 (mu' Z mu - min (Z mu)) <= tol
  certifies the maximum, "global". Where Cholesky rejects a support
  that seeding keeps, which rounding alone could make it do, the runs
  below answer instead, still "global".
- Where it rejects Z, STARTS runs start from one point each, the points
  of least Z row sum first, and the best run answers. A gap <= tol
  certifies a stationary point, "stationary".

A run that stops with a gap above tol, every violated index blocked by
a nonpositive pivot or the pass bound spent, answers "lower_bound": the
value is then only the diversity of the distribution printed.

Every run reads Z by rows formed from d's (engine.similarity_rows),
ROW_BLOCK at a time, so a call holds half a factor and a block of rows,
never the n x n Z. Every answer is a DiversityResult: the value, the
maximizing distribution mu as read-only weights, its support, the gap,
iterations (active-set passes over every run, or supports visited, for
the search) and the method, with its certificate.

Dimension estimates fit the growth rate of a quantity against scale on a
log-log window: maximum diversity for diversity_growth, covering numbers
at radius 1/t for covering_growth. The two extreme samples are dropped
before the fit to blunt boundary effects, and the line is fitted in
closed form from centred sums, with no least-squares solver
(sweeps.growth_dimension, which dim runs too).
"""

from __future__ import annotations

import numpy as np

from .engine import (
    cholesky_rows,
    cholesky_solver,
    frozen,
    similarity_rows,
    symmetric_product,
)
from .errors import (  # noqa: F401  (TooLarge, WindowTooNarrow re-exported)
    DiversityError,
    NonConvergence,  # no rung raises it: perfbench/layers.py's _fw_hook reads it
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
# runs where Cholesky rejects Z, one from each of the points of least Z
# row sum. On 600 random connected graphs of 11-14 vertices, at scales
# where it does, the best of 1, 2, 3, 4 and 6 runs was the maximum on
# 580, 589, 595, 597 and 598 (Frank-Wolfe from the uniform distribution:
# 597), at about 1 ms a run
STARTS = 4


def backend_name() -> str:
    """Kernel implementation that runs: always 'numpy'."""
    return "numpy"


def max_diversity(space: FiniteMetricSpace, t: float = 1.0,
                  tol: float = 1e-9, max_iters=None) -> DiversityResult:
    """Maximum diversity at scale t, by specs.maximum_diversity's rung:
    the line rung on the line, the search up to SEARCH_LIMIT points, where
    tol plays no part, else the active set of the module docstring, to
    the gap tol. The weights are read-only."""
    # max_iters is ignored: perfbench/checks.py's _exact_vs_fw passes it
    return _frozen(maximum_diversity(space.structure, t, tol, dense=_ladder))


def _ladder(space: FiniteMetricSpace, t: float, tol: float) -> DiversityResult:
    """The active set of the module docstring, on a space of any size: one
    run from Z^-1 1 where Cholesky accepts Z, else the best of STARTS runs
    from one point each, whose iterations are the passes of them all."""
    n = space.n_points
    z_rows = similarity_rows(space, t)
    ys = _unit_solve(z_rows, n)  # the weighting, full support
    certificate = "stationary" if ys is None else "global"
    if ys is not None:
        found = _active_set(space, t, z_rows, np.arange(n), ys, tol,
                            certificate)
        if found is not None:
            return found
    sums = symmetric_product(z_rows, np.ones(n))
    runs = [_active_set(space, t, z_rows, np.array([v]), np.ones(1), tol,
                        certificate)
            for v in np.argsort(sums, kind="stable")[:STARTS]]
    best = max(runs, key=lambda r: r.value)  # the first of equal values
    return best._replace(iterations=sum(r.iterations for r in runs))


def _unit_solve(rows, n: int) -> np.ndarray | None:
    """y with Z y = 1, for the n x n Z whose rows rows(lo, hi, col0) gives:
    its rows on and right of the diagonal are factored a block at a time,
    and the factor is freed on return; None where Cholesky rejects Z."""
    try:
        factor = cholesky_rows(lambda lo, hi: rows(lo, hi, lo), n)
    except np.linalg.LinAlgError:
        return None
    return cholesky_solver(factor)(np.ones(n))


def _active_set(space: FiniteMetricSpace, t: float, z_rows, idx: np.ndarray,
                ys: np.ndarray, tol: float,
                certificate: str) -> DiversityResult | None:
    """One run of the active set of the module docstring on min (1/2) y'Zy
    - 1'y, y >= 0, from the support idx, whose Z_S Cholesky accepts, and
    ys = Z_S^-1 1 on it, where z_rows is the space's row source of Z at
    scale t.

    The answer at the first feasible y whose gap is at most tol carries
    certificate; one where every violated index is blocked, or where the
    pass bound runs out, is a "lower_bound". None only where Cholesky
    rejects a support that seeding keeps, a principal block of a Z it
    accepted, which rounding alone could make.
    """
    n = space.n_points

    def solve(support):
        # the parent's diameter bounds the subspace's, which is then never
        # scanned
        return _unit_solve(similarity_rows(space.subspace(support), t,
                                           space.diameter), support.size)

    def answer(y, passes):
        """The result at y, whose support is where y is positive, and Z mu."""
        mu = y / y.sum()
        zmu = symmetric_product(z_rows, mu)
        f = mu @ zmu
        gap = float(2.0 * (f - zmu.min()))
        support = tuple(int(i) for i in np.flatnonzero(mu > 0))
        return DiversityResult(float(1.0 / f), mu, support, gap, passes,
                               "active_set",
                               certificate if gap <= tol else "lower_bound"), zmu

    y = None                    # feasible iterate once a solve is positive
    for passes in range(1, ACTIVE_SET_PASSES_PER_POINT * n + 1):
        if ys.min() > 0:
            y = np.zeros(n)
            y[idx] = ys
            res, zmu = answer(y, passes)
            if res.kkt_gap <= tol:
                return res
            w = 1.0 - y.sum() * zmu  # Z y = sum(y) Z mu; positive = violated
            w[idx] = -np.inf
            for j in np.argsort(-w, kind="stable"):
                if w[j] <= 0:
                    return res  # every violated index is blocked
                grown = np.sort(np.append(idx, j))
                ys = solve(grown)
                # a nonpositive pivot, or j leaving at once by rounding
                if ys is not None and ys[np.searchsorted(grown, j)] > 0:
                    idx = grown
                    break
            continue
        if y is None:
            idx = idx[ys > 0]   # seeding: drop nonpositive weights
        else:
            # move from y toward ys until the first coordinate hits zero
            cur = y[idx]
            neg = ys <= 0
            ratios = cur[neg] / (cur[neg] - ys[neg])
            k = int(np.argmin(ratios))
            y[idx] = cur + ratios[k] * (ys - cur)
            y[idx[neg][k]] = 0.0
            idx = idx[y[idx] > 0]
        ys = solve(idx)
        if ys is None:
            return None if y is None else answer(y, passes)[0]
    return answer(y, passes)[0]


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
                       tol: float = 1e-6) -> DimensionEstimate:
    """Least-squares slope of log(quantity) against log(scale), as
    sweeps.growth_dimension fits it: maximum diversity (diversity_growth)
    or greedy covering numbers (covering_growth). growth_scales refuses a
    window that leaves fewer than 4 distinct fitted log-scales as
    WindowTooNarrow before any quantity is computed. Estimates are
    meaningful only while the scale still resolves the finest structure,
    roughly t_max * (smallest gap) <= 1; the caller is expected to check
    that."""
    return growth_dimension(space.structure, t_min, t_max, method, samples,
                            tol, greedy_covering_number)
