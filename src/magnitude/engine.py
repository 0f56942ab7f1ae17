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
refined residual still exceeds 1e-9 in the max norm is demoted to
undefined: slightly conservative, never silently wrong.

Homogeneous spaces (all rows of Z share one sum) admit the shortcut
N / (row sum), used as a cross-check rather than a fast path.

scipy.linalg is imported inside the two functions that factor Z
(solve_weighting and is_positive_definite), not at module level: it costs
about 0.3 s, and commands that never factor a matrix should not pay it.
"""

from __future__ import annotations

import math
import warnings
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
    t = float(t)
    if not 0 < t < math.inf:
        raise NonpositiveScale(f"scale must be positive and finite, got {t!r}")
    # t d may overflow to inf, where exp(-inf) = 0 is the exact limit
    with np.errstate(over="ignore"):
        return SimilarityMatrix(np.exp(-t * space.distances), t)


def _one_norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def solve_weighting(space: FiniteMetricSpace, t: float = 1.0,
                    tol: float = DEFAULT_TOL) -> WeightingResult:
    """Solve Z w = 1 with condition screening and iterative refinement.

    Status is UniquePD when Cholesky succeeds, UniqueInvertible when only
    LU does, Undefined when the matrix is singular, the condition estimate
    exceeds 1 / (N * 1e-14), or refinement cannot push the max-norm
    residual below 1e-9.
    """
    from scipy.linalg import (LinAlgError, LinAlgWarning, cho_factor,
                              cho_solve, lapack, lu_factor, lu_solve)

    z = similarity_matrix(space, t).entries
    n = z.shape[0]
    ones = np.ones(n)
    anorm = _one_norm(z)

    status = STATUS_UNDEFINED
    solve = None
    rcond = 0.0
    try:
        c, low = cho_factor(z, check_finite=False)
        rcond, info = lapack.dpocon(c, anorm, uplo=b"L" if low else b"U")
        if info != 0:
            raise LinAlgError("dpocon failed")
        status = STATUS_PD
        solve = lambda rhs: cho_solve((c, low), rhs, check_finite=False)
    except LinAlgError:
        try:
            with warnings.catch_warnings():
                # an exactly singular factor shows as rcond = 0 below
                warnings.simplefilter("ignore", LinAlgWarning)
                lu, piv = lu_factor(z, check_finite=False)
            rcond, info = lapack.dgecon(lu, anorm, norm="1")
            if info != 0:
                raise LinAlgError("dgecon failed")
            status = STATUS_INVERTIBLE
            solve = lambda rhs: lu_solve((lu, piv), rhs, check_finite=False)
        except LinAlgError:
            return WeightingResult(None, None, None, STATUS_UNDEFINED,
                                   float("inf"), None)

    cond = float("inf") if rcond == 0.0 else 1.0 / float(rcond)
    if rcond < n * CONDITION_RCOND_FACTOR:
        return WeightingResult(None, None, None, STATUS_UNDEFINED, cond, None)

    w = solve(ones)
    resid = float(np.abs(z @ w - ones).max())
    for _ in range(REFINE_MAX_PASSES):
        if resid <= tol / 10.0:
            break
        w = w + solve(ones - z @ w)
        resid = float(np.abs(z @ w - ones).max())
    if resid > 1e-9:
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
    from scipy.linalg import LinAlgError, cho_factor

    try:
        cho_factor(similarity_matrix(space, t).entries, check_finite=False)
        return True
    except LinAlgError:
        return False


def scattered_bound_holds(space: FiniteMetricSpace, t: float = 1.0) -> bool:
    """True when t * (min distance) > log(N - 1), which forces a positive
    weighting regardless of geometry."""
    n = space.n_points
    if n <= 2:
        return True
    return float(t) * space.min_distance > math.log(n - 1)


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
    """
    d = space.distances
    r = d.mean(axis=1)
    centered = np.add(r[:, None], r[None, :])
    np.subtract(d, centered, out=centered)
    centered += r.mean()
    top = float(np.linalg.eigvalsh(centered)[-1])
    dnorm = float(np.abs(np.linalg.eigvalsh((d + d.T) / 2.0)).max())
    if top <= 1e-10 * dnorm or dnorm == 0.0:
        verdict = VERDICT_NEGATIVE_TYPE
    elif top >= 1e-6 * dnorm:
        verdict = VERDICT_NOT
    else:
        verdict = VERDICT_INCONCLUSIVE
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
