"""Closed forms and asymptotics for balls and spheres."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magnitude import euclid
from magnitude.euclid import (
    BALL_DIMENSION_LIMIT,
    CoefficientUnderflow,
    EuclidError,
    OddDimension,
    UnsupportedDimension,
    ball_intrinsic_volume,
    ball_magnitude,
    ball_magnitude_exact,
    conjecture_compare,
    conjectured_ball_magnitude,
    magnitude_leading_coefficient,
    sphere_magnitude,
    sphere_polynomial_part,
    sphere_residual,
    unit_ball_volume,
)

from magnitude.spaces import ResultOverflow
from oracles import ball_form_by_hand

F = Fraction


# ---------------------------------------------------------------------------
# odd-dimensional balls


def test_ball_closed_forms_at_unit_radius():
    assert ball_magnitude_exact(1, 1) == 2
    assert ball_magnitude_exact(3, 1) == F(25, 6)
    assert ball_magnitude_exact(5, 1) == F(3199, 480)
    assert ball_magnitude_exact(5, 1) == F(213, 32) + F(1, 120)


def _reverse_bessel(k: int, r: Fraction) -> Fraction:
    # theta_0 = 1, theta_1 = r + 1, theta_{n+1} = (2n+1) theta_n + r^2 theta_{n-1}
    a, b = Fraction(1), r + 1
    for n in range(1, k):
        a, b = b, (2 * n + 1) * b + r * r * a
    return b if k >= 1 else a


def test_ball_hankel_determinant_identity():
    """The odd ball forms agree with Hankel determinants of the reverse
    Bessel polynomials: det[theta_{i+j+1}] over 1, 6, 240(R+3) for
    n = 1, 3, 5. Independent derivation path for the n=5 numerator."""
    for r in (F(1), F(1, 2), F(3), F(7, 3)):
        th = [_reverse_bessel(k, r) for k in range(6)]
        det1 = th[1]
        det2 = th[1] * th[3] - th[2] ** 2
        det3 = (
            th[1] * (th[3] * th[5] - th[4] ** 2)
            - th[2] * (th[2] * th[5] - th[3] * th[4])
            + th[3] * (th[2] * th[4] - th[3] ** 2)
        )
        assert det1 == ball_magnitude_exact(1, r)
        assert det2 == 6 * ball_magnitude_exact(3, r)
        assert det3 == 240 * (r + 3) * ball_magnitude_exact(5, r)


def test_ball_exact_accepts_rationals():
    v = ball_magnitude_exact(3, F(1, 2))
    assert v == 1 + 2 * F(1, 2) + F(1, 2) ** 2 + F(1, 2) ** 3 / 6
    assert ball_magnitude(3, 0.5) == pytest.approx(float(v), abs=1e-15)


@pytest.mark.parametrize("n, r, expect", [
    (3, 0.1, 1.2101666666666666),
    (3, 13.37, 604.8268588333333),
    (3, 1e60, 1.6666666666666665e+179),
    (5, 0.7, 4.191061731981982),
    (5, 2.5, 38.315932765151516),
    (5, 1000.0, 8459085460959.458),
])
def test_ball_magnitude_float_bits(n, r, expect):
    # the float form is the exact form at R converted exactly, rounded
    # once; these are its bits. While the forms were evaluated in floats,
    # operation for operation, (5, 0.7) read 4.191061731981981
    assert ball_magnitude(n, r) == float(ball_magnitude_exact(n, F(r))) \
        == expect


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.sampled_from((1, 3, 5, 7, 9)), r=st.floats(0.0, 1e300))
@example(n=5, r=5e-324)
@example(n=3, r=1e100)
@example(n=BALL_DIMENSION_LIMIT, r=1e-300)
def test_ball_magnitude_is_the_exact_form_rounded_once(n, r):
    try:
        got = ball_magnitude(n, r)
    except ResultOverflow:
        assert ball_magnitude_exact(n, r) > sys.float_info.max
        return
    assert got == float(ball_magnitude_exact(n, F(r)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.sampled_from((1, 3, 5)),
       r=st.fractions(min_value=0, max_denominator=10**40)
       | st.floats(0.0, 1e300).map(F))
@example(n=5, r=F(1))
@example(n=5, r=F(10**6))
@example(n=5, r=F(1, 10**9))
@example(n=5, r=F(0.1))
@example(n=3, r=F(7, 2))
def test_hankel_form_is_the_hand_form(n, r):
    # Willerton's ratio of Hankel determinants against Barcelo and
    # Carbery's forms as written
    assert ball_magnitude_exact(n, r) == ball_form_by_hand(n, r)


def test_hankel_form_is_sympys_determinants():
    # Willerton's ratio with sympy's determinants of the reverse Bessel
    # polynomials from their explicit sum, theta_k(R) = sum over j <= k of
    # (k + j)! / ((k - j)! j!) R^(k-j) / 2^j, and phi_m = R theta_(m-1)
    sympy = pytest.importorskip("sympy")

    def theta(k, r):
        return sum(sympy.factorial(k + j) / (sympy.factorial(k - j)
                   * sympy.factorial(j)) * r ** (k - j) / 2**j
                   for j in range(k + 1))

    for r in (sympy.Rational(1), sympy.Rational(2, 7), sympy.Rational(31, 3)):
        phi = [sympy.Integer(1)] + [r * theta(m - 1, r) for m in range(1, 2 * BALL_DIMENSION_LIMIT)]
        for n in range(1, BALL_DIMENSION_LIMIT + 1, 2):
            p = n // 2
            top = sympy.Matrix(p + 1, p + 1, lambda i, j: phi[i + j + 2]).det()
            bottom = sympy.Matrix(p + 1, p + 1, lambda i, j: phi[i + j]).det()
            want = top / (sympy.factorial(n) * r * bottom)
            assert ball_magnitude_exact(n, F(int(r.p), int(r.q))) == F(
                int(want.p), int(want.q))


def test_balls_past_five_dimensions():
    # the seventh is 5823701/609840 at R = 1
    assert ball_magnitude_exact(7, 1) == F(5823701, 609840)
    for n in range(7, BALL_DIMENSION_LIMIT + 1, 2):
        # one point as R -> 0, and |B^n_R| ~ R^n / n! (the volume times
        # 1 / (n! omega_n)) as R grows
        assert ball_magnitude_exact(n, F(1, 10**9)) - 1 < F(1, 10**8)
        assert ball_magnitude(n, 1e6) * math.factorial(n) / 1e6**n \
            == pytest.approx(1.0, abs=1e-3)
        prev = 1.0
        for r in (0.01, 0.1, 1.0, 10.0, 100.0):
            assert ball_magnitude(n, r) > prev
            prev = ball_magnitude(n, r)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.sampled_from(range(1, BALL_DIMENSION_LIMIT + 1, 2)),
       r=st.fractions(min_value=0, max_value=10**6, max_denominator=10**12)
       | st.floats(0.0, 1e300).map(F))
@example(n=BALL_DIMENSION_LIMIT, r=F(10**21))
@example(n=BALL_DIMENSION_LIMIT, r=F(1, 10**9))
@example(n=1, r=F(0))
def test_ball_is_at_least_its_volume_term(n, r):
    # |B^n_R| >= vol / (n! omega_n) = R^n / n! (Barcelo-Carbery), the bound
    # that lets ball_magnitude refuse an overflowing radius at once
    assert ball_magnitude_exact(n, r) >= r**n / math.factorial(n)


@pytest.mark.parametrize("r", [1e21, 1e22, 1e308])
def test_ball_overflow_is_refused_before_the_exact_form(monkeypatch, r):
    # R^n / n! passes the double maximum at n = 15 from R = 1e22 on; the
    # refusal keeps finite_result's message and builds no Hankel entry
    n = BALL_DIMENSION_LIMIT
    if r == 1e21:
        assert ball_magnitude(n, r) == 7.647163731819816e+302
        return

    def refuse(*args):
        raise AssertionError("the exact form was built")

    monkeypatch.setattr(euclid, "ball_magnitude_exact", refuse)
    with pytest.raises(ResultOverflow,
                       match="^ball_magnitude overflows the double range$"):
        ball_magnitude(n, r)


def test_ball_forms_share_one_domain():
    for n, r in ((1, F(7, 3)), (3, F(5, 2)), (5, F(1, 9))):
        assert ball_magnitude(n, float(r)) == pytest.approx(
            float(ball_magnitude_exact(n, r)), rel=1e-15)
    for form in (ball_magnitude, ball_magnitude_exact):
        with pytest.raises(UnsupportedDimension):
            form(4, 1)
        with pytest.raises(UnsupportedDimension):
            form(-1, 1)
        with pytest.raises(EuclidError):
            form(3, -1)


def test_ball_line_segment_case():
    # the 1-ball of radius R is an interval of length 2R at t=1
    for r in (0.5, 1.0, 7.0):
        assert ball_magnitude(1, r) == pytest.approx(1.0 + r)


def test_ball_dimension_errors():
    for n in (2, 4, 6):
        with pytest.raises(UnsupportedDimension):
            ball_magnitude(n, 1.0)
    with pytest.raises(UnsupportedDimension,
                       match=f"odd n, here from 1 to {BALL_DIMENSION_LIMIT}; got "):
        ball_magnitude(BALL_DIMENSION_LIMIT + 2, 1.0)
    with pytest.raises(EuclidError):
        ball_magnitude(3, -1.0)
    with pytest.raises(EuclidError, match=r"^radius must be >= 0, got -1/2$"):
        ball_magnitude_exact(3, Fraction(-1, 2))
    # a ball of radius 0 is one point; an exact radius has no double range
    assert ball_magnitude(3, 0.0) == 1.0 and ball_magnitude_exact(3, 0) == 1
    assert ball_magnitude_exact(1, 10**400) == 1 + 10**400


def test_ball_magnitude_increasing_and_at_least_one():
    for n in (1, 3, 5):
        prev = 1.0
        for r in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
            val = ball_magnitude(n, r)
            assert val >= max(1.0, prev)
            prev = val


def test_ball_volume_ratio_limit():
    # |B^3_R| / R^3 -> 1/6, the leading Steiner-like term
    assert ball_magnitude(3, 1e3) / 1e9 == pytest.approx(1.0 / 6.0, rel=1e-2)
    assert ball_magnitude(5, 1e4) / (1e20 / 120.0) == pytest.approx(1.0, rel=1e-2)


# ---------------------------------------------------------------------------
# even-dimensional spheres


def test_sphere_closed_form_small_dimensions():
    r = 1.3
    x = math.exp(-math.pi * r)
    expect2 = 2.0 / (1.0 + x) * (1.0 + r * r)
    assert sphere_magnitude(2, r) == pytest.approx(expect2, rel=1e-14)
    expect4 = 2.0 / (1.0 + x) * (1.0 + r * r) * (1.0 + r * r / 9.0)
    assert sphere_magnitude(4, r) == pytest.approx(expect4, rel=1e-14)


def test_sphere_polynomial_plus_residual_identity():
    for n in (2, 4, 6):
        for r in (0.3, 1.0, 2.5):
            total = sphere_polynomial_part(n, r) + sphere_residual(n, r)
            assert total == pytest.approx(sphere_magnitude(n, r), rel=1e-12)


def test_sphere_residual_values_and_decay():
    # analytic form avoids catastrophic cancellation at large radius
    assert sphere_residual(2, 10.0) == pytest.approx(-4.587624158014571e-12, rel=1e-9)
    r100 = sphere_residual(2, 100.0)
    assert r100 < 0
    assert abs(r100) < 1e-130
    prev = abs(sphere_residual(2, 1.0))
    for r in (2.0, 5.0, 10.0, 20.0):
        cur = abs(sphere_residual(2, r))
        assert cur < prev
        prev = cur


def test_sphere_rejects_odd_dimension():
    for n in (1, 3, 5):
        with pytest.raises(OddDimension):
            sphere_magnitude(n, 1.0)
        with pytest.raises(OddDimension):
            sphere_residual(n, 1.0)
    # both error kinds share the module base class
    assert issubclass(OddDimension, EuclidError)
    assert issubclass(UnsupportedDimension, EuclidError)


@pytest.mark.parametrize("form", [sphere_magnitude, sphere_polynomial_part,
                                  sphere_residual])
def test_sphere_forms_share_one_domain(form):
    with pytest.raises(OddDimension):
        form(3, 1.0)
    with pytest.raises(UnsupportedDimension):
        form(0, 1.0)
    with pytest.raises(EuclidError, match="radius"):
        form(4, -1.0)


# ---------------------------------------------------------------------------
# volumes, leading coefficients, the additivity conjecture


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


@pytest.mark.parametrize("form, n, detail", [
    (unit_ball_volume, -1, "n must be an integer >= 0, got -1"),
    (unit_ball_volume, 2.5, "n must be an integer, got 2.5"),
    (magnitude_leading_coefficient, 0, "n must be an integer >= 1, got 0"),
    (magnitude_leading_coefficient, True, "n must be an integer, got True"),
    # a dimension beyond the double range, like every count-like value
    (magnitude_leading_coefficient, 10**400,
     f"n must be an integer, got {10**400!r}"),
])
def test_dimension_rules_are_integral(form, n, detail):
    with pytest.raises(UnsupportedDimension) as info:
        form(n)
    assert str(info.value) == detail


def test_leading_coefficients():
    # euclidean normalization 1 / (n! omega_n); taxicab 1 / 2^n
    assert magnitude_leading_coefficient(3, p=2) == pytest.approx(
        1.0 / (6.0 * unit_ball_volume(3))
    )
    assert magnitude_leading_coefficient(2, p=1) == pytest.approx(0.25)
    with pytest.raises(EuclidError):
        magnitude_leading_coefficient(3, p=3)


def test_leading_coefficient_matches_mpmath():
    # 1 / (n! omega_n) = Gamma(n/2 + 1) / (n! pi^(n/2)): to 1e-13 relative
    # while normal, within one subnormal step from n = 227 on
    import mpmath

    with mpmath.workdps(50):
        for n in range(1, 237):
            half = mpmath.mpf(n) / 2
            ref = mpmath.gamma(half + 1) / (mpmath.factorial(n) * mpmath.pi ** half)
            got = magnitude_leading_coefficient(n)
            assert got > 0.0
            assert abs(got - ref) <= 1e-13 * ref + math.ulp(0.0), n
    for n in (237, 400, 10**6, 10**300):
        with pytest.raises(CoefficientUnderflow):
            magnitude_leading_coefficient(n)


def test_asymptotic_magnitude_matches_ball_growth():
    # |B^3_R| ~ c vol(B^3_R) as R grows
    r = 1e3
    approx = magnitude_leading_coefficient(3) * unit_ball_volume(3) * r**3
    assert approx == pytest.approx(ball_magnitude(3, r), rel=1e-2)


def test_intrinsic_volume_values():
    # V_i = C(n,i) omega_n / omega_{n-i} R^i
    assert ball_intrinsic_volume(3, 0, 2.0) == pytest.approx(1.0)
    assert ball_intrinsic_volume(3, 3, 2.0) == pytest.approx(
        unit_ball_volume(3) * 2.0**3)  # the volume
    assert ball_intrinsic_volume(1, 1, 5.0) == pytest.approx(10.0)  # length
    assert ball_intrinsic_volume(3, 2, 1.0) == pytest.approx(
        3.0 * unit_ball_volume(3) / unit_ball_volume(1)
    )


def test_conjectured_sum_exact_in_low_dimensions_fails_at_five():
    for n, r in ((1, 0.7), (1, 3.0), (3, 1.0), (3, 2.5)):
        assert conjectured_ball_magnitude(n, r) == pytest.approx(
            ball_magnitude(n, r), abs=1e-12
        )
    got = conjectured_ball_magnitude(5, 1.0)
    assert got == pytest.approx(6.452777777777779, abs=1e-12)
    assert abs(got - ball_magnitude(5, 1.0)) > 1e-3


def test_conjecture_compare_triple():
    exact, conj, diff = conjecture_compare(5, 1.0)
    assert exact == pytest.approx(float(F(3199, 480)), abs=1e-12)
    assert conj == pytest.approx(float(F(2323, 360)), abs=1e-12)
    assert diff == pytest.approx(conj - exact, abs=1e-15)
    assert abs(diff) > 1e-3
    # agreement in the low dimensions, across scales
    for n in (1, 3):
        for r in (0.1, 1.0, 7.5):
            exact, conj, diff = conjecture_compare(n, r)
            assert abs(diff) <= 1e-10 * max(1.0, exact)


@pytest.mark.parametrize("fn, args", [
    (ball_magnitude, (3, 1e200)),
    (ball_magnitude, (5, 1e70)),
    (sphere_magnitude, (4, 1e200)),
    (sphere_polynomial_part, (4, 1e200)),
    (conjecture_compare, (5, 1e100)),
])
def test_overflowing_values_raise_result_overflow(fn, args):
    with pytest.raises(ResultOverflow):
        fn(*args)


def test_sphere_residual_underflows_to_zero_not_nan():
    # e^(-pi R) underflows first; the polynomial is formed in logs
    assert sphere_residual(4, 1e150) == 0.0
    assert sphere_residual(4, 1e300) == 0.0
    tiny = sphere_residual(2, 240.0)  # subnormal, still negative
    assert tiny < 0 and math.isfinite(tiny)
    assert sphere_residual(2, 230.0) < 0
