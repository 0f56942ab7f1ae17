"""Magnitude of a finite metric space via the similarity matrix.

The similarity matrix at scale t is Z_ij = exp(-t d(i, j)). A weighting is
a vector w with Z w = 1 (all-ones right side); the magnitude is sum(w).
When Z is positive definite the weighting is unique and magnitude is also
the supremum of (sum x)^2 / (x' Z x), attained at w. When Z is merely
invertible the linear-algebra definition still applies; when Z is singular
or numerically untrustworthy the magnitude is reported as undefined rather
than guessed.

Solver ladder: Cholesky first (success certifies positive definiteness and
gives the cheapest solve), LU second, both followed by a reciprocal
condition estimate and iterative refinement. The residual of an accurate
solve is about eps ||Z|| ||w||, so refinement stops at that rounding
floor, N eps ||Z||_inf ||w||_inf in the max norm, or after
REFINE_MAX_PASSES passes; no caller tolerance decides when w is accurate
enough. A solve whose refined residual still exceeds
1e-9 max(1, ||Z|| ||w||) is demoted to undefined: the gate is relative to
the same floor, never stricter than 1e-9 absolute, and never silently
wrong.

Homogeneous spaces (all rows of Z share one sum) admit Speyer's shortcut
N / (row sum). It is no production path here: tests/oracles.py holds it,
with the Rayleigh ratio, as a reference the tests compare solves against.

Everything runs on numpy alone: importing scipy.linalg would cost a
process about 0.3 s, more than a solve at a thousand points. numpy has
no triangular solve, so the Cholesky rung substitutes on the factor in
blocks (cholesky_solver); the LU rung, for the rare Z that Cholesky
rejects, multiplies by one explicit inverse. Both rungs estimate the
condition number with the same Hager-Higham estimator that LAPACK's
dpocon and dgecon run.

Every positive definiteness decision factors with one kernel,
cholesky_rows: a blocked Cholesky that asks a row source for its input
one block of rows at a time, right of the diagonal only, and keeps the
factor as those block rows, half an n x n array. Every stage reads d
through the space's rows, ROW_BLOCK at a time, and a generated space
holds its points, not d, so forms them as they are asked for
(spaces.FiniteMetricSpace.rows). So no dense stage holds a square work
array, nor d: the PD test forms Z's rows as it factors and holds half a
factor; a solve keeps a copy of Z's rows on and right of the diagonal
as it factors them, and multiplies by Z from those (symmetric_product),
so it holds half of Z and half a factor, in one buffer of about one
n x n array; and
the negative-type proof of definiteness_report forms the rows of its
shifted matrix from d's rows and row means and holds half a factor.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NonpositiveScale, UndefinedMagnitude, positive_scale
from .spaces import ROW_BLOCK, FiniteMetricSpace, SpaceSpec, generate_space
from .sweeps import (  # noqa: F401  (re-exported: engine.STATUS_PD etc.)
    MONOTONE_SLACK,
    STATUS_INVERTIBLE,
    STATUS_PD,
    STATUS_UNDEFINED,
    MonotonicityViolation,
    RefinementSample,
    WeightingResult,
    refine,
)

# rcond below N * this factor means the solve cannot be trusted at all
CONDITION_RCOND_FACTOR = 1e-14
REFINE_MAX_PASSES = 3
# machine epsilon of float64: the residual floor is n EPS ||Z|| ||w||
EPS = float(np.finfo(float).eps)
# a refined solve is kept when max |Z w - 1| <= this times
# max(1, ||Z||_inf ||w||_inf)
RESIDUAL_GATE = 1e-9
# iteration cap of the 1-norm estimator, as in LAPACK's dlacn2
ESTIMATOR_MAX_ITERS = 5
# definiteness_report brackets the norm of d to this relative margin,
# far wider than eigvalsh's rounding (about N * 1e-16), in at most this
# many power-iteration steps
PERRON_MARGIN = 1e-8
PERRON_MAX_ITERS = 100
VERDICT_NEGATIVE_TYPE = "CertifiedNegativeType"
VERDICT_NOT = "CertifiedNot"
VERDICT_INCONCLUSIVE = "Inconclusive"

# which method decided a negative-type verdict
PROOF_CHOLESKY = "cholesky"
PROOF_EIGENVALUE_BAND = "eigenvalue_band"


class MagnitudeFunctionSample(NamedTuple):
    t: float
    magnitude: float | None
    status: str


class DefinitenessReport(NamedTuple):
    is_positive_definite: bool
    negative_type_verdict: str
    cnd_max_eigenvalue: float
    negative_type_proof: str
    scattered_bound_holds: bool


def similarity_rows(space: FiniteMetricSpace, t, diameter: float | None = None):
    """The row source of Z = exp(-t d) over a space: rows(lo, hi, col0,
    out) is Z[lo:hi, col0:] in out or a new array, where the space's rows
    are written and -t d and then Z overwrite them, so no second
    temporary exists. Every entry is bit-identical to np.exp(-t * d).

    The scale is checked here, once, so every block of Z is formed at a
    scale 0 < t < inf and raises the same errors. The product t d
    overflows to inf, where exp(-inf) = 0 is the exact limit, only where
    t times the diameter does; only then is it formed under np.errstate,
    whose entry costs more than a row of a thousand products. diameter
    is any bound on the space's diameter, its own by default, which a
    scan of d finds: a subspace passes its parent's, as a larger bound
    only forms the products under np.errstate, bit for bit the same."""
    t = positive_scale(t)
    if t == math.inf:
        raise NonpositiveScale(f"scale must be finite, got {t!r}")
    overflows = t * (space.diameter if diameter is None else diameter) == math.inf

    def rows(lo, hi, col0=0, out=None):
        if out is None:
            out = np.empty((hi - lo, space.n_points - col0))
        z = space.rows(lo, hi, col0, out=out)
        if overflows:
            with np.errstate(over="ignore"):
                np.multiply(z, -t, out=z)
        else:
            np.multiply(z, -t, out=z)
        return np.exp(z, out=z)

    return rows


def similarity_matrix(space: FiniteMetricSpace, t: float = 1.0,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Z = exp(-t d) in one n x n array, out or a new one, formed
    ROW_BLOCK rows at a time by similarity_rows."""
    n, z_rows = space.n_points, similarity_rows(space, t)
    z = np.empty((n, n)) if out is None else out
    for lo in range(0, n, ROW_BLOCK):
        z_rows(lo, min(lo + ROW_BLOCK, n), out=z[lo:lo + ROW_BLOCK])
    return z


def cholesky_rows(rows, n: int) -> list[np.ndarray]:
    """Upper Cholesky factor L' of a symmetric n x n matrix a, by block rows.

    rows(lo, hi) returns a new array holding a[lo:hi, lo:], which the
    kernel owns and overwrites; it is called once per block of ROW_BLOCK
    rows, in order. The factor is the list of those blocks, block k
    holding L'[lo:hi, lo:] (so lo = n - its width): n^2 / 2 + ROW_BLOCK
    n / 2 floats, no square array. Raises
    np.linalg.LinAlgError where a is not positive definite, as
    np.linalg.cholesky does.

    Left-looking: each block subtracts one matmul per block already
    factored, through one buffer of its own size, then numpy factors
    its diagonal block and its rows of L' right of it are solved by
    substitution, one row after another, with no explicit inverse. Every
    entry of L L' is then a sum of the same products as in the unblocked
    algorithm, in another order, so the computed factor keeps its
    backward error |L L' - a| <= gamma_{n+1} |L| |L'| (Higham, Accuracy
    and Stability, Theorem 10.3, which holds for any order of the inner
    products). The buffer is freed before the diagonal block is
    factored, so no two are alive at once, and it shrinks with the
    blocks, so by the last blocks, where the factor is largest, it is
    small.
    """
    factor = []
    for lo in range(0, n, ROW_BLOCK):
        block = rows(lo, min(lo + ROW_BLOCK, n))
        b = block.shape[0]
        update = np.empty_like(block)
        for done in factor:
            k = lo - (n - done.shape[1])  # this block's columns in done
            np.matmul(done[:, k:k + b].T, done[:, k:], out=update)
            block -= update
        del update
        diag = np.linalg.cholesky(block[:, :b])
        block[:, :b] = diag.T
        right = block[:, b:]
        for k, row in enumerate(right):
            if k:
                row -= diag[k, :k] @ right[:k]
            row /= diag[k, k]
        factor.append(block)
    return factor


def cholesky_solver(factor: list[np.ndarray]):
    """x -> (L L')^-1 x for the block rows of L' that cholesky_rows returns.

    Blocked forward and back substitution, one product per block in each
    direction: forward, a block's part of the solution is the inverse of
    its diagonal block of L times the right side, and the rest of the
    right side loses its product with the block's rows of L' right of the
    diagonal; backward, the block's part loses the product of those rows
    with the part already solved. The inverses are formed once here.
    """
    n = factor[0].shape[1]
    spans = [(n - block.shape[1], n - block.shape[1] + block.shape[0])
             for block in factor]
    inverses = [np.linalg.inv(block[:, :hi - lo].T)
                for block, (lo, hi) in zip(factor, spans)]

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = np.array(rhs, dtype=float)
        for block, (lo, hi), inv in zip(factor, spans, inverses):
            x[lo:hi] = inv @ x[lo:hi]
            x[hi:] -= x[lo:hi] @ block[:, hi - lo:]
        for block, (lo, hi), inv in zip(reversed(factor), reversed(spans),
                                        reversed(inverses)):
            x[lo:hi] = (x[lo:hi] - block[:, hi - lo:] @ x[hi:]) @ inv
        return x

    return solve


def symmetric_product(upper: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Z x for a symmetric n x n Z held as its block rows on and right of
    the diagonal, in the layout of cholesky_rows: block k is Z[lo:hi, lo:],
    lo = n - its width. Each block gives its rows' products with x[lo:]
    and, through its transpose, the products of the rows below it with
    x[lo:hi]."""
    q = np.zeros(len(x))
    for block in upper:
        b, lo = block.shape[0], len(x) - block.shape[1]
        q[lo:lo + b] += block @ x[lo:]
        q[lo + b:] += x[lo:lo + b] @ block[:, b:]
    return q


def _sign_vector(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, 1.0, -1.0)


def _inverse_norm_estimate(solve, n: int) -> float:
    """Lower bound on ||A^-1||_1 for a symmetric A, given x -> A^-1 x.

    Hager's estimator with Higham's refinements (ACM TOMS 14, 1988), step
    for step as LAPACK's dlacn2, which dpocon and dgecon drive: A is
    symmetric, so the transposed solves dlacn2 asks for are plain solves.
    """
    x = solve(np.full(n, 1.0 / n))
    if n == 1:
        return abs(float(x[0]))
    est = float(np.abs(x).sum())
    signs = _sign_vector(x)
    x = solve(signs)
    j = int(np.argmax(np.abs(x)))
    for _ in range(2, ESTIMATOR_MAX_ITERS + 1):  # dlacn2 counts from 2
        e = np.zeros(n)
        e[j] = 1.0
        x = solve(e)
        old, est = est, float(np.abs(x).sum())
        new = _sign_vector(x)
        if np.array_equal(new, signs) or est <= old:
            break  # a repeated sign vector, or cycling
        signs = new
        x = solve(signs)
        last, j = j, int(np.argmax(np.abs(x)))
        if x[last] == abs(x[j]):
            break
    # alternating ramp, against a local maximum the iteration got stuck in
    ramp = 1.0 + np.arange(n) / (n - 1)
    ramp[1::2] *= -1.0
    return max(est, 2.0 * float(np.abs(solve(ramp)).sum()) / (3 * n))


def solve_weighting(space: FiniteMetricSpace, t: float = 1.0) -> WeightingResult:
    """Solve Z w = 1 with condition screening and iterative refinement.

    Refinement runs until max |Z w - 1| <= N eps ||Z||_inf ||w||_inf, the
    rounding floor of the residual, or for REFINE_MAX_PASSES passes.

    Status is UniquePD when Cholesky succeeds, UniqueInvertible when only
    LU does, Undefined when the matrix is singular, the condition estimate
    exceeds 1 / (N * 1e-14), or refinement cannot push the max-norm
    residual below RESIDUAL_GATE * max(1, ||Z||_inf ||w||_inf).
    """
    n, z_rows = space.n_points, similarity_rows(space, t)
    ones = np.ones(n)
    # Z's rows on and right of the diagonal are formed in held[0], which
    # cholesky_rows factors in place, and copied to held[1], kept as upper.
    # One buffer: a sweep's solves take it from the heap again, where
    # blocks allocated one by one came as fresh pages at every solve
    held = np.empty((2, sum((min(lo + ROW_BLOCK, n) - lo) * (n - lo)
                            for lo in range(0, n, ROW_BLOCK))))
    upper = []

    def rows(lo, hi):
        start, shape = sum(u.size for u in upper), (hi - lo, n - lo)
        part = held[:, start:start + shape[0] * shape[1]]
        block = z_rows(lo, hi, lo, out=part[0].reshape(shape))
        upper.append(part[1].reshape(shape))
        upper[-1][...] = block
        return block

    status, product = STATUS_PD, lambda x: symmetric_product(upper, x)
    try:
        solve = cholesky_solver(cholesky_rows(rows, n))
    except np.linalg.LinAlgError:
        solve = None
    if solve is None:
        # LU on Z formed whole, once the partial rows and factor are freed
        upper = held = None
        z = similarity_matrix(space, t)
        try:
            inverse = np.linalg.inv(z)
        except np.linalg.LinAlgError:
            return WeightingResult(None, None, STATUS_UNDEFINED,
                                   float("inf"), None)
        status, product = STATUS_INVERTIBLE, z.__matmul__
        solve = lambda rhs: inverse @ rhs

    # a nearly singular factor may overflow; a non-finite estimate counts
    # as singular, as dgecon's check for NaN and infinity does
    with np.errstate(over="ignore", invalid="ignore"):
        ainvnm = _inverse_norm_estimate(solve, n)
    # Z > 0 entrywise, so its 1-norm is the largest column sum, Z 1 as Z
    # is symmetric, and that is also its inf-norm
    znorm = float(product(ones).max())
    rcond = (1.0 / ainvnm) / znorm if 0.0 < ainvnm < math.inf else 0.0
    cond = float("inf") if rcond == 0.0 else 1.0 / rcond
    if rcond < n * CONDITION_RCOND_FACTOR:
        return WeightingResult(None, None, STATUS_UNDEFINED, cond, None)

    w = solve(ones)
    r = ones - product(w)
    resid = float(np.abs(r).max())
    # the residual cannot fall below about eps ||Z|| ||w||: refinement
    # stops at that floor, and the gate scales with the same product
    for _ in range(REFINE_MAX_PASSES):
        if resid <= n * EPS * znorm * float(np.abs(w).max()):
            break
        w = w + solve(r)
        r = ones - product(w)
        resid = float(np.abs(r).max())
    gate = RESIDUAL_GATE * max(1.0, znorm * float(np.abs(w).max()))
    if resid > gate:
        return WeightingResult(None, None, STATUS_UNDEFINED, cond, resid)

    return WeightingResult(w, float(w.sum()), status, cond, resid)


def magnitude(space: FiniteMetricSpace, t: float = 1.0) -> float:
    res = solve_weighting(space, t)
    if not res.defined:
        raise UndefinedMagnitude(
            f"magnitude undefined at t={t!r} "
            f"(condition estimate {res.condition_estimate:.3e})"
        )
    return res.magnitude


def magnitude_function(space: FiniteMetricSpace, ts) -> list[MagnitudeFunctionSample]:
    """Sample the magnitude function; failed scales are marked, not raised."""
    out = []
    for t in ts:
        res = solve_weighting(space, float(t))
        out.append(MagnitudeFunctionSample(float(t), res.magnitude, res.status))
    return out


def approximate_compact_magnitude(specs, t: float = 1.0, levels=None,
                                  nested: bool = False) -> list[RefinementSample]:
    """Magnitude sequence of finite spaces refining a compact one.

    specs holds SpaceSpec or FiniteMetricSpace entries in refinement
    order; levels labels the rows (defaults to 1-based positions). The
    compact limit's magnitude is the supremum over its finite subsets, so
    these values approach it from below when the ambient is positive
    definite. nested=True declares the family an inclusion chain inside
    such an ambient: the sequence must then be nondecreasing, and a drop
    beyond MONOTONE_SLACK raises MonotonicityViolation, flagging a
    generator or solver bug rather than a fact about the limit. Scales
    where the solve fails are reported with magnitude None, never raised.
    The sequence rules are sweeps.refine's.
    """
    def solve(item):
        space = generate_space(item) if isinstance(item, SpaceSpec) else item
        res = solve_weighting(space, t)
        return space.n_points, res.magnitude, res.status

    return refine(specs, solve, levels, nested)


def is_positive_definite(space: FiniteMetricSpace, t: float = 1.0) -> bool:
    """Whether Z(t) is positive definite. On a space of points on the
    line it is, at every scale 0 < t < inf: distinct reals have a
    positive definite Z (R is of strict negative type; Leinster, Doc.
    Math. 18, 2013), also where gaps so small that Z's rows are equal in
    floats stop a Cholesky. On any other space, whether Cholesky factors
    Z(t). Z is formed from d's rows a block at a time, only its entries
    on and right of the diagonal, so the test holds half a factor and no
    n x n array, and takes half the exponentials."""
    z_rows = similarity_rows(space, t)
    if space.on_line:
        return True
    try:
        cholesky_rows(lambda lo, hi: z_rows(lo, hi, lo), space.n_points)
        return True
    except np.linalg.LinAlgError:
        return False


def scattered_bound_holds(space: FiniteMetricSpace, t: float = 1.0) -> bool:
    """True when t * (min distance) > log(N - 1), which forces a positive
    weighting regardless of geometry."""
    n = space.n_points
    if n <= 2:
        return True
    return float(t) * space.min_distance > math.log(n - 1)


def _negative_type_verdict(top: float, dnorm: float) -> str:
    if top <= 1e-10 * dnorm or dnorm == 0.0:
        return VERDICT_NEGATIVE_TYPE
    if top >= 1e-6 * dnorm:
        return VERDICT_NOT
    return VERDICT_INCONCLUSIVE


def _perron_bracket(d: np.ndarray):
    """Collatz-Wielandt bounds on the Perron root of a nonnegative d.

    Each power-iteration step from the all-ones vector yields
    min (d x)_i / x_i <= rho(d) <= max (d x)_i / x_i for positive x. A
    generator, so the caller stops once the bracket answers its question.
    """
    x = np.ones(d.shape[0])
    while True:
        y = d @ x
        ratios = y / x
        hi = float(ratios.max())
        yield float(ratios.min()), hi
        if hi == 0.0:
            return  # d = 0, one point: the bracket [0, 0] is exact
        x = y / y.max()


def _proof_terms(rows, n: int):
    """The float terms of the negative-type proof for the n x n matrix d
    whose rows rows(lo, hi) gives: r, its row means, formed a block of
    rows at a time and bit-identical to d.mean(axis=1), tau, the diagonal
    of A, and the exact sums of r and of the diagonal; None where one of
    them overflows."""
    r = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, n)
            rows(lo, hi).mean(axis=1, out=r[lo:hi])
        tau = 1e-10 * (1.0 - PERRON_MARGIN) * (n * float(r.min()))
        # the diagonal of A, rounded as A's rows round it below; d's
        # diagonal is 0, which subtracts exactly
        diagonal = r + r
        diagonal += tau / 2
    if not np.isfinite(diagonal).all():
        return None
    try:
        return r, tau, diagonal, math.fsum(r), math.fsum(diagonal)
    except OverflowError:  # an exact sum beyond the double range
        return None


def _negative_type_bound(space: FiniteMetricSpace) -> tuple[float | None, int]:
    """(beta, k): a proven upper bound beta on the top eigenvalue of
    P d' P, at most 1e-10 ||d'||, or None where the proof does not go
    through, for d' = 2^-k d, whose top eigenvalue is 2^-k that of P d P.

    k is 0 whenever the float terms of the proof are finite, so d' = d.
    Only near the double maximum, where a row sum of d or the sum of A's
    diagonal overflows, is k > 0, from the exponents of max(d) and 2 n,
    so that 2 n max(d') < 2^1023. That scaling is exact unless an entry
    of d' falls below the normal range; then the proof declines.

    For any vector r and v with 1'v = 0, v'(r 1' + 1 r' - d') v = -v'd' v,
    and the top eigenvalue of P d' P is the larger of 0 (its eigenvalue
    on 1) and the largest v'd' v over unit v with 1'v = 0. So if
    A = r 1' + 1 r' - d' + (tau / 2) I has lambda_min(A) >= tau / 2 - beta,
    that eigenvalue is at most beta. Here r is the computed row means of
    d' and A is formed, a block of rows at a time, and factored in
    floating point:

    - tau = 1e-10 (1 - PERRON_MARGIN) n min(r). The Perron root of d' is
      at least its smallest row sum, and the margin covers the rounding of
      the means (about n * 1e-16), so tau <= 1e-10 ||d'||;
    - forming A rounds each entry twice: |E| <= gamma_2 F entrywise, with
      F = r 1' + 1 r' + d' + (tau / 2) I, and ||E|| <= gamma_2 ||F||_inf;
    - a Cholesky of the formed A that finishes has backward error
      gamma_{n+1} |L| |L'|, whose 2-norm is at most
      gamma_{n+1} / (1 - gamma_{n+1}) tr A (Rump, BIT 46, 2006);
    - below the normal range a product or quotient may also be off by
      eta = 2^-1074. Each entry of L L' gathers at most n products and
      one quotient scaled by l_jj <= 1 + max a_jj, which adds at most
      n (n + 1) eta (1 + max a_jj) in the 2-norm.

    beta sums tau / 2 and the three terms in exact rational arithmetic on
    the float inputs, and the bound holds when beta <= tau.
    """
    # imported here, so that the commands that never reach it do not pay
    from fractions import Fraction

    n, k, d_rows = space.n_points, 0, space.rows
    terms = _proof_terms(d_rows, n)
    if terms is None:
        k = max(1, math.frexp(space.diameter)[1] + (2 * n).bit_length() - 1023)
        if math.ldexp(space.min_distance, -k) < 2.0 ** -1022:
            return None, k
        d_rows = lambda lo, hi, col0=0: np.ldexp(space.rows(lo, hi, col0), -k)
        terms = _proof_terms(d_rows, n)
    r, tau, diagonal, r_sum, diagonal_sum = terms

    def rows(lo, hi):
        block = np.add(r[lo:hi, None], r[None, lo:])
        np.subtract(block, d_rows(lo, hi, lo), out=block)
        block.ravel()[::n - lo + 1] += tau / 2
        return block

    # unit roundoff u = 2^-53; gamma_k = k u / (1 - k u) = k / (2^53 - k),
    # and a correctly rounded sum s is at most s (1 + u) exactly
    unit = 2 ** 53
    up = 1 + Fraction(1, unit)
    r_max = Fraction(float(r.max()))
    # each exact row sum of d' is at most n max(r) / (1 - gamma_n)
    f_norm = (n * r_max * (1 + Fraction(unit - n, unit - 2 * n))
              + Fraction(r_sum) * up + Fraction(tau / 2))
    forming = Fraction(2, unit - 2) * f_norm
    backward = (Fraction(n + 1, unit - 2 * (n + 1))
                * Fraction(diagonal_sum) * up)
    underflow = (n * (n + 1) * Fraction(1, 2 ** 1074)
                 * (1 + Fraction(float(diagonal.max()))))
    beta = Fraction(tau / 2) + forming + backward + underflow
    if beta > Fraction(tau):
        return None, k
    try:
        cholesky_rows(rows, n)
    except np.linalg.LinAlgError:
        return None, k
    return math.nextafter(float(beta), math.inf), k


def _eigenvalue_band(d: np.ndarray) -> tuple[float, str]:
    """Top eigenvalue of P d P from eigvalsh, and the verdict of the band.

    For symmetric d, (P d P)_ij = d_ij - (r_i + r_j) + g with r the row
    means and g their mean, formed in place in O(N^2) and exactly
    symmetric.

    The norm of the nonnegative symmetric d is its Perron root, bracketed
    by power iteration. For a fixed top eigenvalue the verdict is
    monotone in a positive norm (the norm is 0 only for one point, where
    the bracket is exact), so once both ends of the bracket, widened by
    PERRON_MARGIN to cover the rounding of eigvalsh, give one verdict,
    that is the verdict eigvalsh's norm would give. Only if they still
    disagree after PERRON_MAX_ITERS steps is the norm taken from eigvalsh.
    """
    r = d.mean(axis=1)
    centered = np.add(r[:, None], r[None, :])
    np.subtract(d, centered, out=centered)
    centered += r.mean()
    top = float(np.linalg.eigvalsh(centered)[-1])
    del centered
    for _, (lo, hi) in zip(range(PERRON_MAX_ITERS), _perron_bracket(d)):
        low = _negative_type_verdict(top, lo * (1.0 - PERRON_MARGIN))
        if low == _negative_type_verdict(top, hi * (1.0 + PERRON_MARGIN)):
            return top, low
    dnorm = float(np.abs(np.linalg.eigvalsh(d)).max())
    return top, _negative_type_verdict(top, dnorm)


def definiteness_report(space: FiniteMetricSpace, t: float = 1.0) -> DefinitenessReport:
    """Definiteness of Z(t) plus a negative-type certificate for d itself.

    Negative type is tested on the centered distance matrix P d P with
    P = I - J/N: its spectrum must be nonpositive on the mean-zero
    subspace. The verdict uses a two-sided band on its top eigenvalue,
    relative to the spectral norm of d: CertifiedNegativeType at most
    1e-10 ||d||, CertifiedNot at least 1e-6 ||d||, Inconclusive between.

    A proof decides first (negative_type_proof "cholesky"): a Cholesky of
    one shifted matrix that finishes bounds the top eigenvalue by at most
    1e-10 ||d||, including every rounding error (_negative_type_bound),
    and that bound is reported as cnd_max_eigenvalue. Only where the
    proof fails does eigvalsh give the top eigenvalue, and the band the
    verdict (negative_type_proof "eigenvalue_band", _eigenvalue_band).

    Near the double maximum the proof and the band read d scaled by a
    power of two, 2^-k d (_negative_type_bound), and the top eigenvalue
    is scaled back by 2^k; k is 0 wherever the proof's float terms are
    finite.

    Memory: half an n x n array at a time on the proof path, and no d
    where the space holds its points: the shifted matrix's rows are
    formed from d's rows and row means a block at a time, and its factor
    is freed before the PD test factors Z(t), whose rows are formed the
    same way. A failed proof frees its factor before the band forms d
    whole and its centred matrix (LAPACK's own working copy comes on top
    in eigvalsh).
    """
    top, k = _negative_type_bound(space)
    if top is not None:
        verdict, proof = VERDICT_NEGATIVE_TYPE, PROOF_CHOLESKY
    else:
        d = space.distances
        (top, verdict), proof = (_eigenvalue_band(np.ldexp(d, -k) if k else d),
                                 PROOF_EIGENVALUE_BAND)
    return DefinitenessReport(
        is_positive_definite(space, t),
        verdict,
        top * 2.0 ** k,
        proof,
        scattered_bound_holds(space, t),
    )
