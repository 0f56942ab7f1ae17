"""The package's shared exception types and input guards.

The guards are finite_result, positive_scale and finite_scale, and
finite and integral, the rules that space parameters and flags meet;
finite also checks the arguments of the closed forms and the pixel
scale, raising their own error types. Every error the CLI catches by
type lives here, and this module imports neither numpy nor any other
package module, so the CLI can name its input errors without paying for
the modules that compute. Each type is re-exported by its home module
(spaces, lines, euclid, pixels, diversity, engine), so spaces.BadSpec is
errors.BadSpec.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys


# ---------------------------------------------------------------------------
# metric spaces and their specs


class MetricError(ValueError):
    """A matrix failed metric validation; subclasses carry the witness."""


class NotSquare(MetricError):
    pass


class NonFiniteEntry(MetricError):
    pass


class NotSymmetric(MetricError):
    def __init__(self, i: int, j: int, dij: float, dji: float):
        self.witness = (i, j)
        super().__init__(f"d[{i},{j}]={dij!r} != d[{j},{i}]={dji!r}")


class NegativeEntry(MetricError):
    def __init__(self, i: int, j: int, value: float):
        self.witness = (i, j)
        super().__init__(f"d[{i},{j}]={value!r} < 0")


class NonzeroDiagonal(MetricError):
    def __init__(self, i: int, value: float):
        self.witness = (i,)
        super().__init__(f"d[{i},{i}]={value!r} != 0")


class ZeroDistanceDistinctPoints(MetricError):
    def __init__(self, i: int, j: int):
        self.witness = (i, j)
        super().__init__(f"d[{i},{j}]=0 but {i} != {j}")


class TriangleViolation(MetricError):
    """d(i,j) > d(i,k) + d(k,j) beyond tolerance; witness = (i, j, k)."""

    def __init__(self, i: int, j: int, k: int, excess: float):
        self.witness = (i, j, k)
        self.excess = excess
        super().__init__(
            f"d[{i},{j}] > d[{i},{k}] + d[{k},{j}] by {excess:.3e}"
        )


class NonpositiveScale(ValueError):
    pass


def positive_scale(t) -> float:
    """t as a float, or NonpositiveScale unless t > 0."""
    t = float(t)
    if not t > 0:
        raise NonpositiveScale(f"scale must be positive, got {t!r}")
    return t


def finite_scale(t) -> float:
    """t as a float, or NonpositiveScale unless 0 < t < inf."""
    t = positive_scale(t)
    if t == math.inf:
        raise NonpositiveScale(f"scale must be finite, got {t!r}")
    return t


class ResultOverflow(OverflowError):
    """A float result, or the arithmetic that forms it, leaves the double
    range: the inputs are too large for the closed form."""


def finite_result(fn):
    """Raise ResultOverflow when fn overflows float arithmetic or returns a
    non-finite float (alone, or as a tuple item or dict value)."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except OverflowError:  # float ** and math functions raise it
            out = math.inf
        items = out.values() if isinstance(out, dict) else \
            out if isinstance(out, tuple) else (out,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ResultOverflow(
                f"{fn.__qualname__} overflows the double range") from None
        return out

    return checked


class BadSpec(ValueError):
    """Malformed SpaceSpec parameters."""


class DisconnectedGraph(BadSpec):
    """Graph metric undefined: some pair has no connecting path."""


def finite(x, what: str, above: float | None = None, *,
           least: float | None = None, error: type = BadSpec):
    """x as a float: an int or float inside the double range, and no JSON
    true or false (bool subclasses int); a Fraction is returned as it is,
    exact, of any size. Greater than `above` and at least `least` where
    given. A value that breaks a rule raises error, BadSpec unless the
    caller names its own type."""
    exact = isinstance(x, numbers.Rational) \
        and not isinstance(x, numbers.Integral)
    # the range test is exact for ints past it too
    if not exact and (not isinstance(x, (int, float)) or isinstance(x, bool)
                      or not abs(x) <= sys.float_info.max):
        raise error(f"{what} must be a finite number, got {x!r}")
    if above is not None and not x > above:
        raise error(f"{what} must be > {above:g}, got {x}")
    if least is not None and not x >= least:
        raise error(f"{what} must be >= {least:g}, got {x}")
    return x if exact else float(x)


def integral(x, what: str, least=-math.inf, most=math.inf, *,
             error: type = BadSpec) -> int:
    """A count-like value (a dimension, a point count, a vertex, an lp
    exponent) from least to most in the double range; 3.5 is refused, not
    truncated, as is a JSON true or false (a bool is an int). A value
    that breaks a rule raises error, BadSpec unless the caller names its
    own type."""
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if not isinstance(x, int) or isinstance(x, bool) \
            or abs(x) > sys.float_info.max:
        raise error(f"{what} must be an integer, got {x!r}")
    if not least <= x <= most:
        bound = f">= {least}" if most == math.inf else f"from {least} to {most}"
        raise error(f"{what} must be an integer {bound}, got {x}")
    return x


class MatrixParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the closed-form and exact modules


class LineError(ValueError):
    pass


class EuclidError(ValueError):
    pass


class PixelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# solvers


class DiversityError(Exception):
    pass


# no rung raises it since the active set stops by itself; perfbench/layers.py
# tests for it on every traced max_diversity call
class NonConvergence(DiversityError):
    def __init__(self, iterations: int, gap: float):
        self.iterations = iterations
        self.gap = gap
        super().__init__(
            f"duality gap {gap:.3e} after {iterations} iterations"
        )


class TooLarge(DiversityError):
    def __init__(self, n: int, limit: int):
        super().__init__(f"exact method supports up to {limit} points, got {n}")


class WindowTooNarrow(DiversityError):
    pass


class UndefinedMagnitude(ArithmeticError):
    """Similarity matrix singular or too ill conditioned to invert."""
