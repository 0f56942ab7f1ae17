"""The exact elimination against sympy, and the facet normals built on it
against the hand-written ones."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magnitude.bareiss import bareiss
from magnitude.pixels import _normal_through
from oracles import normal_by_hand

sympy = pytest.importorskip("sympy")

ENTRIES = (
    st.integers(-3, 3),
    st.integers(-10**30, 10**30),
    st.fractions(-20, 20, max_denominator=50),
)


@st.composite
def matrices(draw):
    """Rows of ints or Fractions, up to 5 x 5, square half the time; a row
    repeats a multiple of an earlier one half the time, so singular ones
    are common. No rows is the 0 x 0 matrix."""
    m = draw(st.integers(0, 5))
    k = m if m == 0 or draw(st.booleans()) else draw(st.integers(1, 5))
    entry = draw(st.sampled_from(ENTRIES))
    rows = [[draw(entry) for _ in range(k)] for _ in range(m)]
    for i in range(1, m):
        if draw(st.booleans()):
            f = draw(st.integers(-3, 3))
            rows[i] = [f * x for x in rows[draw(st.integers(0, i - 1))]]
    return rows


def _sympy(rows):
    return sympy.Matrix(len(rows), len(rows[0]) if rows else 0,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in rows for x in row])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(matrices())
@example([])
@example([[]])
@example([[0, 0], [0, 0]])
@example([[0, 1], [1, 0]])
@example([[Fraction(1, 2), 3], [2, Fraction(5, 7)]])
@example([[1, 2, 3], [2, 4, 6]])
@example([[0, 0, 1], [0, 0, 2], [0, 1, 0]])
def test_bareiss_is_sympys_rank_and_det(rows):
    ref = _sympy(rows)
    rank, det = bareiss([list(r) for r in rows])
    assert rank == ref.rank()
    if ref.rows != ref.cols:
        assert det is None
        return
    want = ref.det(method="bareiss")
    assert det == Fraction(int(want.p), int(want.q))
    # an integer matrix keeps an integer determinant
    if all(isinstance(x, int) for r in rows for x in r):
        assert type(det) is int


def test_bareiss_leaves_its_rows_alone():
    rows = [[Fraction(1, 2), 1], [1, 2]]
    assert bareiss(rows) == (1, 0)
    assert rows == [[Fraction(1, 2), 1], [1, 2]]


@st.composite
def hyperplane_points(draw):
    n = draw(st.integers(1, 3))
    coord = st.fractions(-5, 5, max_denominator=6) | st.integers(-2, 2)
    return [tuple(draw(coord) for _ in range(n)) for _ in range(n)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hyperplane_points())
@example([(Fraction(3),)])
@example([(0, 0), (0, 0)])
@example([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
@example([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
def test_cofactor_normal_is_the_hand_normal(points):
    # (dy, -dx) in the plane and the cross product in space, 0 where the
    # points span no hyperplane
    assert _normal_through(points) == normal_by_hand(points)
