"""Scale sweeps, without numpy: the scales that magfn and dim sample, the
growth-rate fit of dim, and the refinement sequence of approx.

The dense routes (engine, diversity) and the line rung (tridiagonal) both
run these, so a command samples the same scales, fits its slope the same
way and applies the same sequence rules whichever route solves it. The
records that every route returns (WeightingResult, DiversityResult) and
the solve outcomes it reports are defined here too.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DiversityError, WindowTooNarrow

if TYPE_CHECKING:  # the records' annotations only; nothing here runs numpy
    import numpy as np

STATUS_PD = "UniquePD"
STATUS_INVERTIBLE = "UniqueInvertible"
STATUS_UNDEFINED = "Undefined"

# a nested refinement may drop by at most this much between levels
MONOTONE_SLACK = 1e-9


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
    # Frank-Wolfe iterations, active-set passes, supports checked, or the
    # line rung's one solve
    iterations: int
    # "frank_wolfe", "active_set", "support_enumeration" or "line"
    method: str


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


def growth_estimate(ts: list[float], vals: list[float], method: str) -> DimensionEstimate:
    """The slope of log(vals) against log(ts), the first and last samples
    dropped, fitted in closed form (fit_line); DiversityError where a
    quantity is not positive."""
    if not all(v > 0 for v in vals):
        raise DiversityError("nonpositive quantity in growth fit")
    slope, _, resid = fit_line([math.log(t) for t in ts[1:-1]],
                               [math.log(v) for v in vals[1:-1]])
    return DimensionEstimate(slope, (float(ts[0]), float(ts[-1])), resid,
                             method)


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
