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
condition estimate and a few steps of iterative refinement. A solve whose
refined residual still exceeds 1e-9 max(1, ||Z|| ||w||) in the max norm
is demoted to undefined: the residual of an accurate solve is about
eps ||Z|| ||w||, so the gate is relative to that floor, never stricter
than 1e-9 absolute, and never silently wrong.

Homogeneous spaces (all rows of Z share one sum) admit the shortcut
N / (row sum), used as a cross-check rather than a fast path.

Everything runs on numpy alone: importing scipy.linalg would cost a
process about 0.3 s, more than a solve at a thousand points. numpy has
no triangular solve, so the Cholesky rung substitutes on the factor in
blocks (cholesky_solver); the LU rung, for the rare Z that Cholesky
rejects, multiplies by one explicit inverse. Both rungs estimate the
condition number with the same Hager-Higham estimator that LAPACK's
dpocon and dgecon run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMagnitude
from .spaces import (
    FiniteMetricSpace,
    NonpositiveScale,
    SpaceSpec,
    generate_space,
)

DEFAULT_TOL = 1e-9
# rcond below N * this factor means the solve cannot be trusted at all
CONDITION_RCOND_FACTOR = 1e-14
REFINE_MAX_PASSES = 3
# a refined solve is kept when max |Z w - 1| <= this times
# max(1, ||Z||_inf ||w||_inf)
RESIDUAL_GATE = 1e-9
# rows per block of the triangular substitutions: one matrix-vector
# product per block keeps the Python loop at n / 64 steps
SUBSTITUTION_BLOCK = 64
# iteration cap of the 1-norm estimator, as in LAPACK's dlacn2
ESTIMATOR_MAX_ITERS = 5
# definiteness_report brackets the norm of d to this relative margin,
# far wider than eigvalsh's rounding (about N * 1e-16), in at most this
# many power-iteration steps
PERRON_MARGIN = 1e-8
PERRON_MAX_ITERS = 100

STATUS_PD = "UniquePD"
STATUS_INVERTIBLE = "UniqueInvertible"
STATUS_UNDEFINED = "Undefined"

VERDICT_NEGATIVE_TYPE = "CertifiedNegativeType"
VERDICT_NOT = "CertifiedNot"
VERDICT_INCONCLUSIVE = "Inconclusive"


class NotRowHomogeneous(ValueError):
    """Row sums of the similarity matrix disagree beyond tolerance."""


class MonotonicityViolation(ArithmeticError):
    """A subset's magnitude fell outside [1, magnitude of the whole]."""


@dataclass(frozen=True)
class SimilarityMatrix:
    entries: np.ndarray
    source_scale: float

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class WeightingResult:
    weighting: np.ndarray | None
    coweighting: np.ndarray | None
    magnitude: float | None
    status: str
    condition_estimate: float
    residual: float | None

    @property
    def defined(self) -> bool:
        return self.status != STATUS_UNDEFINED


@dataclass(frozen=True)
class MagnitudeFunctionSample:
    t: float
    magnitude: float | None
    positive_definite: bool
    status: str


@dataclass(frozen=True)
class DefinitenessReport:
    is_positive_definite: bool
    negative_type_verdict: str
    cnd_max_eigenvalue: float
    scattered_bound_holds: bool


def similarity_matrix(space: FiniteMetricSpace, t: float = 1.0) -> SimilarityMatrix:
    """Z = exp(-t d), formed in one n x n array and bit-identical to
    np.exp(-t * d): the product -t d is written to the array and the
    exponential overwrites it, so no second n x n temporary exists."""
    t = float(t)
    if not 0 < t < math.inf:
        raise NonpositiveScale(f"scale must be positive and finite, got {t!r}")
    # t d may overflow to inf, where exp(-inf) = 0 is the exact limit
    with np.errstate(over="ignore"):
        z = np.multiply(space.distances, -t)
        np.exp(z, out=z)
    return SimilarityMatrix(z, t)


def cholesky_solver(chol: np.ndarray):
    """x -> (L L')^-1 x for the lower Cholesky factor L.

    Blocked forward and back substitution: per block of SUBSTITUTION_BLOCK
    rows, one matrix-vector product with the rows already solved, then a
    product with the inverse of the block's diagonal, formed once here.
    """
    n = chol.shape[0]
    blocks = [(i, min(i + SUBSTITUTION_BLOCK, n))
              for i in range(0, n, SUBSTITUTION_BLOCK)]
    inverses = [np.linalg.inv(chol[i:j, i:j]) for i, j in blocks]

    def solve(rhs: np.ndarray) -> np.ndarray:
        u = np.empty(n)
        for (i, j), inv in zip(blocks, inverses):
            u[i:j] = inv @ (rhs[i:j] - chol[i:j, :i] @ u[:i])
        x = np.empty(n)
        for (i, j), inv in zip(reversed(blocks), reversed(inverses)):
            x[i:j] = (u[i:j] - x[j:] @ chol[j:, i:j]) @ inv
        return x

    return solve


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


def solve_weighting(space: FiniteMetricSpace, t: float = 1.0,
                    tol: float = DEFAULT_TOL) -> WeightingResult:
    """Solve Z w = 1 with condition screening and iterative refinement.

    Status is UniquePD when Cholesky succeeds, UniqueInvertible when only
    LU does, Undefined when the matrix is singular, the condition estimate
    exceeds 1 / (N * 1e-14), or refinement cannot push the max-norm
    residual below RESIDUAL_GATE * max(1, ||Z||_inf ||w||_inf).
    """
    z = similarity_matrix(space, t).entries
    n = z.shape[0]
    ones = np.ones(n)

    try:
        solve = cholesky_solver(np.linalg.cholesky(z))
        status = STATUS_PD
    except np.linalg.LinAlgError:
        try:
            inverse = np.linalg.inv(z)
        except np.linalg.LinAlgError:
            return WeightingResult(None, None, None, STATUS_UNDEFINED,
                                   float("inf"), None)
        solve = lambda rhs: inverse @ rhs
        status = STATUS_INVERTIBLE

    # a nearly singular factor may overflow; a non-finite estimate counts
    # as singular, as dgecon's check for NaN and infinity does
    with np.errstate(over="ignore", invalid="ignore"):
        ainvnm = _inverse_norm_estimate(solve, n)
    # Z > 0 entrywise, so its 1-norm is the largest column sum (no |Z|
    # temporary), and Z is symmetric, so that is also its inf-norm
    znorm = float(z.sum(axis=0).max())
    rcond = (1.0 / ainvnm) / znorm if 0.0 < ainvnm < math.inf else 0.0
    cond = float("inf") if rcond == 0.0 else 1.0 / rcond
    if rcond < n * CONDITION_RCOND_FACTOR:
        return WeightingResult(None, None, None, STATUS_UNDEFINED, cond, None)

    w = solve(ones)
    resid = float(np.abs(z @ w - ones).max())
    for _ in range(REFINE_MAX_PASSES):
        if resid <= tol / 10.0:
            break
        w = w + solve(ones - z @ w)
        resid = float(np.abs(z @ w - ones).max())
    # the residual cannot fall below about eps ||Z|| ||w||, so the gate
    # scales with that product; it is never stricter than RESIDUAL_GATE
    gate = RESIDUAL_GATE * max(1.0, znorm * float(np.abs(w).max()))
    if resid > gate:
        return WeightingResult(None, None, None, STATUS_UNDEFINED, cond, resid)

    # Z is symmetric, so the coweighting (row solve) equals the weighting
    return WeightingResult(w, w.copy(), float(w.sum()), status, cond, resid)


def magnitude(space: FiniteMetricSpace, t: float = 1.0,
              tol: float = DEFAULT_TOL) -> float:
    res = solve_weighting(space, t, tol)
    if not res.defined:
        raise UndefinedMagnitude(
            f"magnitude undefined at t={t!r} "
            f"(condition estimate {res.condition_estimate:.3e})"
        )
    return res.magnitude


def magnitude_function(space: FiniteMetricSpace, ts,
                       tol: float = DEFAULT_TOL) -> list[MagnitudeFunctionSample]:
    """Sample the magnitude function; failed scales are marked, not raised."""
    out = []
    for t in ts:
        res = solve_weighting(space, float(t), tol)
        out.append(MagnitudeFunctionSample(
            float(t), res.magnitude, res.status == STATUS_PD, res.status
        ))
    return out


@dataclass(frozen=True)
class RefinementSample:
    level: float
    n_points: int
    magnitude: float | None
    status: str
    delta: float | None  # change from the previous defined magnitude


def approximate_compact_magnitude(specs, t: float = 1.0,
                                  tol: float = DEFAULT_TOL, levels=None,
                                  nested: bool = False,
                                  slack: float = 1e-9) -> list[RefinementSample]:
    """Magnitude sequence of finite spaces refining a compact one.

    specs holds SpaceSpec or FiniteMetricSpace entries in refinement
    order; levels labels the rows (defaults to 1-based positions). The
    compact limit's magnitude is the supremum over its finite subsets, so
    these values approach it from below when the ambient is positive
    definite. nested=True declares the family an inclusion chain inside
    such an ambient: the sequence must then be nondecreasing, and a drop
    beyond slack raises MonotonicityViolation, flagging a generator or
    solver bug rather than a fact about the limit. Scales where the
    solve fails are reported with magnitude None, never raised.
    """
    items = list(specs)
    labels = list(levels) if levels is not None else list(range(1, len(items) + 1))
    if len(labels) != len(items):
        raise ValueError(
            f"{len(labels)} levels for {len(items)} refinement entries"
        )
    out = []
    prev = None
    prev_level = None
    for lev, item in zip(labels, items):
        space = generate_space(item) if isinstance(item, SpaceSpec) else item
        res = solve_weighting(space, t, tol)
        mag = res.magnitude if res.defined else None
        if nested and mag is not None and prev is not None \
                and mag < prev - slack:
            raise MonotonicityViolation(
                f"nested refinement decreased: level {prev_level} gave "
                f"{prev:.12g}, level {lev} gave {mag:.12g}"
            )
        delta = None if mag is None or prev is None else mag - prev
        if mag is not None:
            prev, prev_level = mag, lev
        out.append(RefinementSample(lev, space.n_points, mag, res.status, delta))
    return out


def speyer_magnitude(space: FiniteMetricSpace, t: float = 1.0,
                     tol: float = 1e-10) -> float:
    """Magnitude shortcut N / (row sum) for row-homogeneous Z."""
    z = similarity_matrix(space, t).entries
    sums = z.sum(axis=1)
    ref = float(sums[0])
    dev = float(np.abs(sums - ref).max())
    if dev > tol * max(1.0, abs(ref)):
        raise NotRowHomogeneous(f"row sums deviate by {dev:.3e}")
    return space.n_points / ref


def rayleigh_ratio(z: np.ndarray, x: np.ndarray) -> float:
    """(sum x)^2 / (x' Z x); the magnitude is its supremum for PD Z."""
    x = np.asarray(x, dtype=float)
    quad = float(x @ z @ x)
    if quad <= 0:
        raise ValueError("x' Z x must be positive")
    return float(x.sum()) ** 2 / quad


def is_positive_definite(space: FiniteMetricSpace, t: float = 1.0) -> bool:
    try:
        np.linalg.cholesky(similarity_matrix(space, t).entries)
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


def definiteness_report(space: FiniteMetricSpace, t: float = 1.0) -> DefinitenessReport:
    """Definiteness of Z(t) plus a negative-type certificate for d itself.

    Negative type is tested on the centered distance matrix P d P with
    P = I - J/N: its spectrum must be nonpositive on the mean-zero
    subspace. The verdict uses a two-sided tolerance band on the top
    eigenvalue, relative to the spectral norm of d, with an Inconclusive
    middle ground.

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

    Memory: besides d, two n x n arrays at a time. The centred matrix is
    freed as soon as eigvalsh returns, so the PD test's Z and Cholesky
    factor take its place (LAPACK's own working copy comes on top in each
    call).
    """
    d = space.distances
    r = d.mean(axis=1)
    centered = np.add(r[:, None], r[None, :])
    np.subtract(d, centered, out=centered)
    centered += r.mean()
    top = float(np.linalg.eigvalsh(centered)[-1])
    del centered  # before Z and its factor take its place
    verdict = None
    for _, (lo, hi) in zip(range(PERRON_MAX_ITERS), _perron_bracket(d)):
        low = _negative_type_verdict(top, lo * (1.0 - PERRON_MARGIN))
        if low == _negative_type_verdict(top, hi * (1.0 + PERRON_MARGIN)):
            verdict = low
            break
    if verdict is None:
        dnorm = float(np.abs(np.linalg.eigvalsh(d)).max())
        verdict = _negative_type_verdict(top, dnorm)
    return DefinitenessReport(
        is_positive_definite(space, t),
        verdict,
        top,
        scattered_bound_holds(space, t),
    )


def check_subset_monotone(space: FiniteMetricSpace, indices, t: float = 1.0,
                          tol: float = DEFAULT_TOL) -> float:
    """For PD spaces, assert 1 <= |subset| <= |whole| + tol; return |subset|."""
    whole = magnitude(space, t)
    part = magnitude(space.subspace(indices), t)
    if part < 1.0 - tol or part > whole + tol:
        raise MonotonicityViolation(
            f"subset magnitude {part!r} outside [1, {whole!r}]"
        )
    return part
