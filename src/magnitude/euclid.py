"""Closed forms and asymptotics for Euclidean balls and spheres.

Magnitudes here are functions of the radius R; the magnitude of the
t-scaled unit ball is the value at R = t. Odd-dimensional balls have
exact rational-in-R forms (Barcelo-Carbery), here Willerton's ratio of
two Hankel determinants, evaluated by the exact elimination of bareiss,
for odd n up to BALL_DIMENSION_LIMIT; even-dimensional spheres
(with their geodesic metric) have a closed product form whose polynomial
part dominates, leaving an exponentially small residual that must be
computed analytically, since naive subtraction underflows once R is
moderately large.

The intrinsic-volume comparison: guessing that magnitude aggregates the
classical intrinsic volumes as sum_i V_i / (i! omega_i) reproduces the
exact ball values in dimensions one and three and fails in dimension
five, and the helpers here exist to exhibit exactly that.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .bareiss import bareiss
from .errors import EuclidError, finite, finite_result, integral


class UnsupportedDimension(EuclidError):
    pass


class OddDimension(EuclidError):
    """An even dimension was required."""


class CoefficientUnderflow(EuclidError):
    """A coefficient too small for a double: it would round to zero."""


# log of the smallest positive (subnormal) double
_LOG_TINY = math.log(math.ulp(0.0))
# log of the largest double, and a bound on the rounding of n log R -
# log n! near it (a few ulps of 710)
_LOG_HUGE = math.log(sys.float_info.max)
_LOG_SLACK = 1e-9
# the largest odd n of the ball forms. The slowest radii are the tiniest
# and the largest doubles, whose denominators (up to 2^1074) or numerators
# (up to 2^1024) enter every Hankel entry: the exact form at n = 15 took
# 0.15 s at R = 1e-300 or 5e-324 and 0.10 s at 1e308, at n = 17 0.33 s
# and at n = 21 1.0 s, while R = 0.1 or 3 took under 0.01 s (one 2-vCPU
# host)
BALL_DIMENSION_LIMIT = 15


def ball_magnitude_exact(n: int, radius) -> Fraction:
    """Exact magnitude of the ball B^n of radius R >= 0 for odd n up to
    BALL_DIMENSION_LIMIT, a rational function of R (Barcelo-Carbery), by
    Willerton's ratio of Hankel determinants: with n = 2p + 1,
    phi_0 = 1, phi_1 = R and phi_m = (2m - 3) phi_(m-1) + R^2 phi_(m-2)
    (R times the reverse Bessel polynomial theta_(m-1)),

        |B^n_R| = det[phi_(i+j+2)] / (n! R det[phi_(i+j)]), 0 <= i, j <= p.

    For R = a/b the entries are taken as b^m phi_m, integers, which
    scales the ratio by b^(2p+2); R = 0 is the one-point space."""
    r = finite(Fraction(radius), "radius", least=0, error=EuclidError)
    n = _ball_dimension(n)
    if r == 0:
        return Fraction(1)
    p, a, b = n // 2, r.numerator, r.denominator
    phi = [1, a]
    for m in range(2, n + 2):
        phi.append((2 * m - 3) * b * phi[-1] + a * a * phi[-2])
    top = bareiss([phi[i + 2:i + p + 3] for i in range(p + 1)])[1]
    bottom = bareiss([phi[i:i + p + 1] for i in range(p + 1)])[1]
    return Fraction(top, math.factorial(n) * a * b ** n * bottom)


def _ball_dimension(n) -> int:
    """n as an int, once it is odd and from 1 to BALL_DIMENSION_LIMIT."""
    n = integral(n, "n", error=UnsupportedDimension)
    if n % 2 == 0 or not 0 < n <= BALL_DIMENSION_LIMIT:
        raise UnsupportedDimension(f"ball forms exist for odd n, here from "
                                   f"1 to {BALL_DIMENSION_LIMIT}; got {n}")
    return n


@finite_result
def ball_magnitude(n: int, radius: float) -> float:
    """ball_magnitude_exact at R converted exactly, rounded once.

    The magnitude is at least R^n / n!, the volume over n! omega_n
    (Barcelo-Carbery), so a radius where n log R - log n! passes the log
    of the double maximum overflows at once, before the exact form is
    built (it takes 0.1 s at n = 15 and R = 1e308). The logs are
    rounded, so the test leaves them _LOG_SLACK, and a radius inside it
    takes the exact form and overflows there."""
    r = finite(radius, "radius", least=0, error=EuclidError)
    n = _ball_dimension(n)
    if r > 0 and n * math.log(r) - math.lgamma(n + 1) > _LOG_HUGE + _LOG_SLACK:
        raise OverflowError
    return float(ball_magnitude_exact(n, r))


def _sphere_radius(n: int, radius) -> float:
    """R as a float, once n is even and >= 2 and R >= 0: the domain of
    every sphere form."""
    if n % 2 != 0:
        raise OddDimension(f"sphere form needs even n, got {n}")
    if n < 2:
        raise UnsupportedDimension(f"sphere form needs n >= 2, got {n}")
    return float(finite(radius, "radius", least=0, error=EuclidError))


def _sphere_poly(n: int, radius: float) -> float:
    # prod over odd j < n of (1 + (R/j)^2)
    out = 1.0
    for j in range(1, n, 2):
        out *= 1.0 + (radius / j) ** 2
    return out


@finite_result
def sphere_magnitude(n: int, radius: float) -> float:
    """Magnitude of the even-dimensional geodesic sphere S^n, radius R:

        2 / (1 + exp(-pi R)) * prod over odd j < n of (1 + (R/j)^2).
    """
    r = _sphere_radius(n, radius)
    return 2.0 / (1.0 + math.exp(-math.pi * r)) * _sphere_poly(n, r)


@finite_result
def sphere_polynomial_part(n: int, radius: float) -> float:
    """The polynomial the sphere magnitude approaches from below:
    2 * prod over odd j < n of (1 + (R/j)^2)."""
    return 2.0 * _sphere_poly(n, _sphere_radius(n, radius))


@finite_result
def sphere_residual(n: int, radius: float) -> float:
    """sphere_magnitude - sphere_polynomial_part, computed analytically:

        -2 e^(-pi R) / (1 + e^(-pi R)) * prod (1 + (R/j)^2)

    Exponentially small; subtracting the two floats instead would lose
    everything beyond R of about 16.
    """
    r = _sphere_radius(n, radius)
    x = math.exp(-math.pi * r)
    if x > 0.0:
        return -2.0 * x / (1.0 + x) * _sphere_poly(n, r)
    # e^(-pi R) underflows: form the product in logs, where the polynomial
    # cannot overflow
    log_poly = sum(2.0 * math.log(math.hypot(1.0, r / j)) for j in range(1, n, 2))
    return -2.0 * math.exp(log_poly - math.pi * r)


# ---------------------------------------------------------------------------
# volumes and large-scale asymptotics


def unit_ball_volume(n: int) -> float:
    """omega_n, the volume of the Euclidean unit ball."""
    n = integral(n, "n", 0, error=UnsupportedDimension)
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def magnitude_leading_coefficient(n: int, p: int = 2) -> float:
    """c with |tA| ~ c vol(A) t^n as t grows, for full-dimensional A.

    p = 2: 1 / (n! omega_n) = Gamma(n/2 + 1) / (n! pi^(n/2)). Its log,
    from math.lgamma, screens out the n whose coefficient rounds to zero
    (n >= 237; it is subnormal from n = 227) before any factorial is
    formed; those raise CoefficientUnderflow. The value itself is an
    integer ratio, rounded once, over pi^floor(n/2), accurate to ~5e-15:
    exp of the log would not be, since its lgamma terms near 1e3 carry
    absolute errors of ~1e-13. p = 1: 1 / 2^n.
    """
    n = integral(n, "n", 1, error=UnsupportedDimension)
    if p == 2:
        try:
            log_c = (math.lgamma(n / 2 + 1) - math.lgamma(n + 1)
                     - n / 2 * math.log(math.pi))
        except OverflowError:  # lgamma of n near the double maximum
            log_c = -math.inf
        c = 0.0
        if log_c > _LOG_TINY - 1.0:
            m = n // 2
            if n % 2 == 0:  # Gamma(m + 1) / (n! pi^m)
                ratio = math.factorial(m) / math.factorial(n)
            else:  # Gamma(m + 3/2) = (2m + 2)! sqrt(pi) / (4^(m+1) (m + 1)!)
                ratio = math.factorial(n + 1) // math.factorial(m + 1) / (
                    4 ** (m + 1) * math.factorial(n))
            c = ratio / math.pi ** m
        if c == 0.0:
            raise CoefficientUnderflow(
                f"the n = {n} coefficient rounds to zero in double precision")
        return c
    if p == 1:
        return 0.5**n
    raise EuclidError(f"p must be 1 or 2, got {p}")


# ---------------------------------------------------------------------------
# the intrinsic-volume guess


@finite_result
def ball_intrinsic_volume(n: int, i: int, radius: float) -> float:
    """V_i(B^n_R) = binom(n, i) * omega_n / omega_(n-i) * R^i."""
    if not 0 <= i <= n:
        raise EuclidError(f"need 0 <= i <= n, got i={i}, n={n}")
    return (
        math.comb(n, i)
        * unit_ball_volume(n) / unit_ball_volume(n - i)
        * float(radius) ** i
    )


@finite_result
def conjectured_ball_magnitude(n: int, radius: float) -> float:
    """sum_i V_i(B^n_R) / (i! omega_i): exact in dimensions 1 and 3,
    provably wrong in dimension 5."""
    return sum(
        ball_intrinsic_volume(n, i, radius)
        / (math.factorial(i) * unit_ball_volume(i))
        for i in range(n + 1)
    )


@finite_result
def conjecture_compare(n: int, radius: float) -> tuple[float, float, float]:
    """(exact, conjectured, conjectured - exact) for the n-ball of the
    given radius. The difference vanishes for n in {1, 3} and is visibly
    nonzero for n = 5."""
    exact = ball_magnitude(n, radius)
    guess = conjectured_ball_magnitude(n, radius)
    return exact, guess, guess - exact
