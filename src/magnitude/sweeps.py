"""Scale sweeps, without numpy: the scales that magfn and dim sample, the
growth-rate fit of dim, and the refinement sequence of approx.

The dense routes (engine, diversity) and the line rung (tridiagonal) both
run these, so a command samples the same scales, fits its slope the same
way and applies the same sequence rules whichever route solves it; a
diversity growth fit asks specs.maximum_diversity at each scale, so it
loads numpy only where a sample does. The
records that every route returns (WeightingResult, DiversityResult,
DefinitenessReport) and the solve outcomes and verdicts it reports are
defined here too, with the report that a theorem gives every space of
points (theorem_report, which specs.definiteness chooses).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DiversityError, WindowTooNarrow, finite_scale

if TYPE_CHECKING:  # the records' annotations only; nothing here runs numpy
    import numpy as np

STATUS_PD = "UniquePD"
STATUS_INVERTIBLE = "UniqueInvertible"
STATUS_UNDEFINED = "Undefined"

# a nested refinement may drop by at most this much between levels
MONOTONE_SLACK = 1e-9

VERDICT_NEGATIVE_TYPE = "CertifiedNegativeType"
VERDICT_NOT = "CertifiedNot"
VERDICT_INCONCLUSIVE = "Inconclusive"

# what a maximum diversity answer proves of its value, weakest first
CERTIFICATES = ("lower_bound", "stationary", "global")

# which method decided a negative-type verdict
PROOF_THEOREM = "theorem"
PROOF_CHOLESKY = "cholesky"
PROOF_EIGENVALUE_BAND = "eigenvalue_band"


class WeightingResult(NamedTuple):
    # an array from the dense solve, a tuple from the line rung, each in
    # the order of the space's points
    weighting: np.ndarray | tuple | None
    magnitude: float | None
    status: str
    condition_estimate: float
    residual: float | None

    @property
    def defined(self) -> bool:
        return self.status != STATUS_UNDEFINED


class DiversityResult(NamedTuple):
    value: float
    # the maximizing distribution: a read-only array from diversity, a
    # tuple from the line rung
    weights: np.ndarray | tuple
    support: tuple   # the indices it is positive on
    kkt_gap: float
    # active-set passes over every run, the supports the search visited
    # (those whose Z_S is positive definite), or the line rung's one solve
    iterations: int
    # "active_set", "support_enumeration" or "line"
    method: str
    # one of CERTIFICATES: "global" where the value is the maximum (the
    # support search, the line rung, and the active set on a Z that
    # Cholesky accepts, where the problem is convex); "stationary" where
    # the active set's gap is within tol on a Z that Cholesky rejects;
    # "lower_bound" where it is not, so the value is only the diversity of
    # the weights
    certificate: str


class DefinitenessReport(NamedTuple):
    # whether Z(t) is positive definite: from the theorem on a space of
    # points, else whether a Cholesky of Z(t) finishes
    is_positive_definite: bool
    negative_type_verdict: str
    # the top eigenvalue of P d P, P = I - J/n: 0.0 from the theorem, a
    # proven bound from the Cholesky proof, eigvalsh's value from the band
    cnd_max_eigenvalue: float
    # PROOF_THEOREM, PROOF_CHOLESKY or PROOF_EIGENVALUE_BAND
    negative_type_proof: str
    scattered_bound_holds: bool


def scattered_bound(n: int, t: float, min_distance: float) -> bool:
    """True when n <= 2 or t * min_distance > log(n - 1), which forces a
    positive weighting whatever the geometry."""
    return n <= 2 or float(t) * min_distance > math.log(n - 1)


def theorem_report(n: int, t: float, min_distance: float) -> DefinitenessReport:
    """The definiteness report of n distinct points of l1^k or l2^k, the
    smallest distance between two of them min_distance (inf for one), at
    a scale checked to be 0 < t < inf, as the theorems give it, with no
    matrix formed. Such a Z(t) is positive definite at every scale: the
    Fourier transforms of exp(-t |x|_1) and exp(-t |x|_2) are positive
    everywhere (Meckes, Positivity 17, 2013; on the line, R is of strict
    negative type: Leinster, Doc. Math. 18, 2013). Both l1 and l2 are of
    negative type (Schoenberg), so P d P <= 0 on the mean-zero vectors,
    and P d P 1 = 0: its top eigenvalue is 0.0, exactly."""
    t = finite_scale(t)
    return DefinitenessReport(True, VERDICT_NEGATIVE_TYPE, 0.0, PROOF_THEOREM,
                              scattered_bound(n, t, min_distance))


def scales(lo: float, hi: float, count: int, log: bool = False) -> list[float]:
    """count scales from lo to hi, both ends included: evenly spaced, as
    np.linspace(lo, hi, count) forms them bit for bit, or, with log and
    0 < lo, evenly spaced in log10, as np.geomspace forms them: 10 to the
    power of the even spacing of log10(lo) to log10(hi), with the ends set
    to lo and hi. The logs and powers are math's, so a log-spaced scale
    may differ from numpy's in its last bits."""
    if log:
        ys = scales(math.log10(lo), math.log10(hi), count)
        # the last power is never formed: near the double maximum it
        # could overflow, and it is hi
        return ([lo] + [10.0 ** y for y in ys[1:-1]] + [hi])[:count]
    div = count - 1
    if div <= 0:
        return [lo][:count]
    delta = hi - lo
    step = delta / div
    if step == 0.0:  # a subnormal step: numpy scales by delta instead
        out = [i / div * delta + lo for i in range(count)]
    else:
        out = [i * step + lo for i in range(count)]
    out[-1] = hi
    return out


# ---------------------------------------------------------------------------
# growth-rate fits


class DimensionEstimate(NamedTuple):
    slope: float
    window: tuple
    fit_residual: float
    method: str
    # diversity_growth's: the weakest of its samples' (CERTIFICATES); None
    # for covering_growth
    certificate: str | None


def growth_scales(t_min: float, t_max: float, samples: int) -> list[float]:
    """The samples log-spaced scales of a growth fit over [t_min, t_max].

    WindowTooNarrow unless 0 < t_min < t_max, when fewer than 4 scales
    are left once the first and last are dropped, and when the logs of
    those that are left, rounded, are not strictly increasing, so that
    the fit would divide by no spread."""
    if not (0 < t_min < t_max):
        raise WindowTooNarrow(f"bad window [{t_min}, {t_max}]")
    if samples - 2 < 4:
        raise WindowTooNarrow(f"{samples} samples leave fewer than 4 usable")
    ts = scales(t_min, t_max, samples, log=True)
    lt = [math.log(t) for t in ts[1:-1]]
    if not all(a < b for a, b in zip(lt, lt[1:])):
        raise WindowTooNarrow(
            f"window [{t_min}, {t_max}] rounds to fewer than {samples - 2} "
            "distinct fitted scales")
    return ts


def growth_estimate(ts: list[float], vals: list[float], method: str,
                    certificate: str | None = None) -> DimensionEstimate:
    """The slope of log(vals) against log(ts), the first and last samples
    dropped, fitted in closed form (fit_line); DiversityError where a
    quantity is not positive."""
    if not all(v > 0 for v in vals):
        raise DiversityError("nonpositive quantity in growth fit")
    slope, _, resid = fit_line([math.log(t) for t in ts[1:-1]],
                               [math.log(v) for v in vals[1:-1]])
    return DimensionEstimate(slope, (float(ts[0]), float(ts[-1])), resid,
                             method, certificate)


def growth_dimension(space, t_min: float, t_max: float, method: str,
                     samples: int, tol: float, dense=None) -> DimensionEstimate:
    """The growth dimension of a specs.Structure: the fit over
    growth_scales of specs.maximum_diversity at each scale, certified by
    the weakest certificate of its samples, or of dense's covering number
    at radius 1/t. Without dense, covering_growth goes to
    diversity.dimension_estimate, which passes dense back."""
    from .specs import maximum_diversity

    if dense is None and method == "covering_growth":
        from . import diversity

        return diversity.dimension_estimate(space.metric(), t_min, t_max,
                                            method, samples, tol)
    ts = growth_scales(t_min, t_max, samples)
    if method == "diversity_growth":
        results = [maximum_diversity(space, t, tol) for t in ts]
        certificate = min((r.certificate for r in results),
                          key=CERTIFICATES.index)
        return growth_estimate(ts, [float(r.value) for r in results], method,
                               certificate)
    if method == "covering_growth":
        return growth_estimate(ts, [float(dense(space.metric(), 1.0 / t))
                                    for t in ts], method)
    raise DiversityError(f"unknown method {method!r}")


def fit_line(x, y) -> tuple[float, float, float]:
    """(slope, intercept, RMS residual) of the least-squares line through
    the points (x_i, y_i), in closed form from centred sums: slope =
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2, which needs the x
    to spread. Every sum is math.fsum's, correctly rounded."""
    n = len(x)
    xm, ym = math.fsum(x) / n, math.fsum(y) / n
    dx = [a - xm for a in x]
    slope = math.fsum(d * (b - ym) for d, b in zip(dx, y)) / math.fsum(
        d * d for d in dx)
    intercept = ym - slope * xm
    resid = math.sqrt(math.fsum((b - (slope * a + intercept)) ** 2
                                for a, b in zip(x, y)) / n)
    return float(slope), float(intercept), float(resid)


# ---------------------------------------------------------------------------
# refinement sequences


class MonotonicityViolation(ArithmeticError):
    """A nested refinement's magnitude dropped by more than MONOTONE_SLACK."""


class RefinementSample(NamedTuple):
    level: float
    n_points: int
    magnitude: float | None
    status: str
    delta: float | None  # change from the previous defined magnitude


def refine(items, solve, levels=None, nested: bool = False) -> list[RefinementSample]:
    """The magnitude sequence of a refinement family: solve(item) gives
    (point count, magnitude or None where undefined, status) for each
    item in refinement order, and levels labels the rows (1-based
    positions by default). With nested=True the family is an inclusion
    chain in a positive definite ambient, so the sequence must be
    nondecreasing: a drop beyond MONOTONE_SLACK raises
    MonotonicityViolation, a generator or solver bug, not a fact about
    the limit."""
    items = list(items)
    labels = list(levels) if levels is not None else list(range(1, len(items) + 1))
    if len(labels) != len(items):
        raise ValueError(
            f"{len(labels)} levels for {len(items)} refinement entries"
        )
    out = []
    prev = None
    prev_level = None
    for lev, item in zip(labels, items):
        n_points, mag, status = solve(item)
        if nested and mag is not None and prev is not None \
                and mag < prev - MONOTONE_SLACK:
            raise MonotonicityViolation(
                f"nested refinement decreased: level {prev_level} gave "
                f"{prev:.12g}, level {lev} gave {mag:.12g}"
            )
        delta = None if mag is None or prev is None else mag - prev
        if mag is not None:
            prev, prev_level = mag, lev
        out.append(RefinementSample(lev, n_points, mag, status, delta))
    return out


def approximate_compact_magnitude(specs, t: float = 1.0, levels=None,
                                  nested: bool = False) -> list[RefinementSample]:
    """The magnitude sequence, as approx prints it, of finite spaces
    refining a compact one (refine's rows, each magnitude at t from
    specs.weighting): specs holds SpaceSpec or FiniteMetricSpace entries
    in refinement order. The compact limit's magnitude is the supremum
    over its finite subsets, so these values approach it from below when
    the ambient is positive definite."""
    from .specs import SpaceSpec, structure, weighting

    def solve(item):
        space = (structure(item)[0] if isinstance(item, SpaceSpec)
                 else item.structure)
        res = weighting(space, t)
        return space.n, res.magnitude, res.status

    return refine(specs, solve, levels, nested)
