"""Maximum diversity, greedy covering numbers, and growth-based dimension.

The diversity of a distribution mu on the points of a space, at scale t,
is 1 / (mu' Z mu) with Z the similarity matrix: the reciprocal expected
similarity between two independent draws. Maximum diversity optimizes mu
over the probability simplex; for positive definite Z the optimum is
unique and never exceeds the magnitude, with equality exactly when the
weighting is nonnegative (subsets of the real line, for instance).

max_diversity climbs a ladder of three rungs, each certified by the same
measured duality gap kkt_gap(Z, mu) <= tol on the unmodified Z:

1. Frank-Wolfe with away steps on min mu' Z mu (fw_away_qp) from the
   uniform start, for at most n iterations: about the cost of one dense
   factorisation, and enough on spaces whose optimum is near uniform.
   It reads Z by rows formed from d's (engine.similarity_rows), so a
   call that this rung certifies holds O(64 n) floats, never the n x n Z,
   and no d where the space holds its points.
   Toward and away steps are one exact line search along +-(e_v - mu).
   fw_away_qp reports the gap it measured and max_diversity compares it
   with tol; no separate status is kept.
2. When numpy's Cholesky accepts Z, a Lawson-Hanson active set on
   min (1/2) y' Z y - 1' y over y >= 0. Maximum diversity is the largest
   magnitude of a subset carrying a nonnegative weighting, so the optimum
   solves Z_S y = 1 on its support S and mu = y / sum(y). The set starts
   from the weighting Z^-1 1 on the full support, drops nonpositive
   entries until the solve is positive, then adds the most violated index
   with the usual feasibility inner loop, for at most 3n passes. It reads
   Z by the same rows: Z is factored from its rows on and right of the
   diagonal, as engine.is_positive_definite factors it; Z mu and Z y
   (the gap, the value and the gradient) are formed ROW_BLOCK rows at a
   time into one buffer; and each support S is refactored from the rows
   of the subspace on S, which copies S's points, or S's block of a held
   d. So a pass holds half a factor and one block of rows, and the value
   is 1 / (mu' (Z mu)).
3. Otherwise (Z not positive definite, as K_{3,2} below t = log 2 / 2),
   or when the active set does not certify, Frank-Wolfe up to max_iters
   on the same rows, one formed row per iteration.

No rung forms the n x n Z; only max_diversity_exact, on at most 15
points, holds it.

An independent oracle, max_diversity_exact, enumerates all supports for
small N and solves the stationarity system on each, one batched solve per
support size.

Both return a DiversityResult: the value, the maximizing distribution
mu as read-only weights, its support (the indices where mu is positive,
or the enumerated support), the kkt_gap, iterations and the method.

Dimension estimates fit the growth rate of a quantity against scale on a
log-log window: maximum diversity for diversity_growth, covering numbers
at radius 1/t for covering_growth. The two extreme samples are dropped
before the fit to blunt boundary effects, and the line is fitted in
closed form from centred sums, with no least-squares solver; the scales
and the fit are those of the sweeps module, which the line rung's dim
shares.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .engine import (
    cholesky_rows,
    cholesky_solver,
    similarity_matrix,
    similarity_rows,
)
from .errors import (  # noqa: F401  (WindowTooNarrow re-exported)
    DiversityError,
    NonConvergence,
    TooLarge,
    WindowTooNarrow,
    finite,
)
from .spaces import ROW_BLOCK, FiniteMetricSpace
from .sweeps import (  # noqa: F401  (DimensionEstimate re-exported)
    DimensionEstimate,
    DiversityResult,
    growth_estimate,
    growth_scales,
)

EXACT_DIVERSITY_LIMIT = 15
# support enumeration's feasibility slack: on y >= 0 and on the
# off-support first-order condition
EXACT_FEAS_TOL = 1e-12
# Lawson-Hanson pass bound per point, as in scipy's nnls
ACTIVE_SET_PASSES_PER_POINT = 3


def backend_name() -> str:
    """Kernel implementation that runs: always 'numpy'."""
    return "numpy"


def kkt_gap(z: np.ndarray, mu: np.ndarray) -> float:
    """Frank-Wolfe duality gap of mu for min mu' Z mu on the simplex.

    The gap is 2 (mu' Z mu - min_v (Z mu)_v) >= 0 in exact arithmetic, so a
    value slightly below zero is rounding: `diversity --graph k4,4 --t 1`
    reports -1.1e-16 at the uniform optimum. A gap <= tol certifies a
    global maximum of the diversity only when Z is positive semidefinite;
    otherwise it certifies a stationary point.
    """
    q = z @ mu
    return float(2.0 * (mu @ q - q.min()))


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
    The gap is the one kkt_gap measures: a value slightly below zero is
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
    """Maximum diversity at scale t, certified by kkt_gap <= tol.

    Short Frank-Wolfe, then the active set when Z is positive definite,
    then Frank-Wolfe up to max_iters (see the module docstring). Every
    rung reads Z by rows (engine.similarity_rows), so no n x n Z is
    formed. Raises NonConvergence if the last Frank-Wolfe run still misses
    tol. On spaces whose similarity matrix is not positive semidefinite
    the returned point is stationary but the global certificate is void.
    """
    n = space.n_points
    z_rows = similarity_rows(space, t)
    budget = min(n, max_iters)
    mu, f, gap, iters = fw_away_qp(z_rows, n, tol, budget)
    if gap > tol:
        found = _active_set(space, t, z_rows, tol)
        if found is not None:
            return found
        if budget < max_iters:
            mu, f, gap, iters = fw_away_qp(z_rows, n, tol, max_iters)
        if gap > tol:
            raise NonConvergence(iters, gap)
    return _result(mu, 1.0 / f, gap, iters, "frank_wolfe")


def _result(mu, value, gap, iterations, method, support=None) -> DiversityResult:
    """The result at weights mu, which it makes read-only; the support is
    where mu is positive unless given."""
    mu.setflags(write=False)
    if support is None:
        support = tuple(int(i) for i in np.flatnonzero(mu > 0))
    return DiversityResult(float(value), mu, support, float(gap),
                           int(iterations), method)


def _unit_solve(rows, n: int) -> np.ndarray:
    """y with Z y = 1, for the n x n Z whose rows rows(lo, hi, col0) gives:
    its rows on and right of the diagonal are factored a block at a time,
    and the factor is freed on return. Raises np.linalg.LinAlgError where
    Cholesky rejects Z."""
    factor = cholesky_rows(lambda lo, hi: rows(lo, hi, lo), n)
    return cholesky_solver(factor)(np.ones(n))


def _active_set(space: FiniteMetricSpace, t: float, z_rows,
                tol: float) -> DiversityResult | None:
    """Lawson-Hanson active set on min (1/2) y'Zy - 1'y, y >= 0.

    z_rows is the space's row source of Z at scale t, and each support is
    refactored from the rows of the subspace on it (rung 2 of the module
    docstring), so a pass holds half a factor and one block of rows.

    None when Cholesky rejects Z (or a principal block of it), when no
    index violates optimality yet the gap exceeds tol, when an added index
    stalls, or when the pass bound runs out; the caller then falls back to
    Frank-Wolfe.
    """
    n = space.n_points
    try:
        ys = _unit_solve(z_rows, n)  # the weighting, full support
    except np.linalg.LinAlgError:
        return None
    idx = np.arange(n)
    y = None                    # feasible iterate once a solve is positive
    for passes in range(1, ACTIVE_SET_PASSES_PER_POINT * n + 1):
        if ys.min() > 0:
            y = np.zeros(n)
            y[idx] = ys
            mu = y / y.sum()
            zmu, zy = _products(z_rows, n, mu, y)
            f = mu @ zmu
            gap = float(2.0 * (f - zmu.min()))
            if gap <= tol:
                return _result(mu, 1.0 / f, gap, passes, "active_set")
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
        try:
            # the parent's diameter bounds the subspace's, which is then
            # never scanned
            ys = _unit_solve(similarity_rows(space.subspace(idx), t,
                                             space.diameter), idx.size)
        except np.linalg.LinAlgError:
            return None
    return None


def max_diversity_exact(space: FiniteMetricSpace,
                        t: float = 1.0) -> DiversityResult:
    """Oracle by support enumeration, for spaces of at most 15 points.

    On each candidate support S the stationarity system Z_S y = 1 is
    solved; the candidate is kept when y is (numerically) nonnegative and
    every off-support point j satisfies
    (Z mu)_j >= mu' Z mu - EXACT_FEAS_TOL, the first-order condition for
    not benefiting from new support. The value
    on a feasible support is sum(y), and the maximum over supports is the
    global maximum diversity; among equal values the first support in
    size-then-lexicographic order wins.

    All supports of one size are solved by one batched np.linalg.solve
    and screened together; only a batch that numpy reports singular is
    solved support by support, skipping the singular ones.
    """
    n = space.n_points
    if n > EXACT_DIVERSITY_LIMIT:
        raise TooLarge(n, EXACT_DIVERSITY_LIMIT)
    z = similarity_matrix(space, t)
    best = None
    checked = 0
    for size in range(1, n + 1):
        subs = np.array(list(combinations(range(n), size)))
        checked += len(subs)
        zs = z[subs[:, :, None], subs[:, None, :]]
        ys = _solve_each(zs)
        totals = ys.sum(axis=1)
        # near-singular garbage, then a nonpositive value or negative weight
        resid = np.abs(zs @ ys[:, :, None] - 1.0).max(axis=(1, 2))
        keep = (~(resid > 1e-8) & (totals > 0)
                & ~(ys < -EXACT_FEAS_TOL).any(axis=1))
        subs, ys, totals = subs[keep], ys[keep], totals[keep]
        clipped = np.clip(ys, 0.0, None)
        mus = np.zeros((len(subs), n))
        np.put_along_axis(
            mus, subs, clipped / clipped.sum(axis=1, keepdims=True), axis=1)
        # Z mu for every candidate at once (Z is symmetric); no point may
        # fall below mu' Z mu = 1 / sum(y)
        low = (mus @ z < (1.0 / totals - EXACT_FEAS_TOL)[:, None]).any(axis=1)
        for i in np.flatnonzero(~low):
            total = float(totals[i])
            if best is None or total > best[0]:
                best = (total, mus[i].copy(), tuple(int(j) for j in subs[i]))
    if best is None:
        raise DiversityError("no feasible stationary support found")
    total, mu, sub = best
    return _result(mu, total, kkt_gap(z, mu), checked, "support_enumeration",
                   sub)


def _solve_each(zs: np.ndarray) -> np.ndarray:
    """y with zs[i] y[i] = 1 for a stack of systems; y[i] = 0, which no
    residual check passes, where zs[i] is singular."""
    ones = np.ones(zs.shape[:2])
    try:
        return np.linalg.solve(zs, ones[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass                    # numpy refuses the batch for one system
    ys = np.zeros_like(ones)
    for a, b, y in zip(zs, ones, ys):
        try:
            y[:] = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
    return ys


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
    """Least-squares slope of log(quantity) against log(scale).

    diversity_growth uses maximum diversity at each t; covering_growth
    uses the greedy covering number at radius 1/t. The scales are
    sweeps.growth_scales', which refuses a window that leaves fewer than
    4 distinct fitted log-scales as WindowTooNarrow before any quantity
    is computed; the first and last samples are dropped before fitting,
    and the line is fitted in closed form (sweeps.growth_estimate).
    Estimates are meaningful only while the scale still resolves the
    finest structure, roughly t_max * (smallest gap) <= 1; the caller is
    expected to check that.
    """
    ts = growth_scales(t_min, t_max, samples)
    if method == "diversity_growth":
        vals = [max_diversity(space, t, tol, max_iters).value for t in ts]
    elif method == "covering_growth":
        vals = [greedy_covering_number(space, 1.0 / t) for t in ts]
    else:
        raise DiversityError(f"unknown method {method!r}")
    return growth_estimate(ts, [float(v) for v in vals], method)
