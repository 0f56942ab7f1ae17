"""Maximum diversity of a small space by one exact search over supports,
in pure Python with math.

Maximum diversity is the largest magnitude 1' Z_S^-1 1 of a support S
whose weighting y = Z_S^-1 1 is nonnegative and from which no other point
gains (Leinster and Meckes, Entropy 18, 2016): with mu = y / sum(y), every
point j must have (Z mu)_j >= mu' Z mu = 1 / sum(y). So on a space of a
few points it is a finite search over its 2^n - 1 supports, and the
answer is the global maximum whether or not Z is positive semidefinite,
where a first-order method certifies only a stationary point (K_{3,3} at
t = 0.5, say).

search goes depth first over supports in lexicographic order, and each
support S + [j] extends its parent's solution by one row (bordering):
with x = Z_S^-1 z_Sj and the pivot s = z_jj - z_Sj' x (the Schur
complement, a pivot of Z's L D L' factor in this order), its weighting is
(y_S - h x, h) with h = (1 - 1' x) / s, and its magnitude grows by h^2 s.
The vectors x that a support's children need come from their parent's,
each extended by one entry, as are their pivots, so a support costs
O(|S|) for each of its children and the whole search O(2^n n). A support
whose magnitude could reach the largest kept so far is tested with the
rules of the search: its weighting y >= -FEAS_TOL, sum(y) > 0,
(Z mu)_j >= 1 / sum(y) - FEAS_TOL at every point for mu = y+ / sum(y+),
and the residual max |Z_S y - 1| at most RESIDUAL_TOL. While every pivot
of the path is positive, Z_S is positive definite, where elimination
needs no pivoting, and the bordered y is tested as it is. Bordering does
not pivot, so below a negative pivot a support
that passes the rules with every slack widened by a relative SCREEN_TOL
is solved again by Gaussian elimination with partial pivoting, and that
solve is tested; and a pivot at most PIVOT_FLOOR in size ends the
bordering, so that support and every one below it are solved by
elimination alone. The supports whose magnitudes lie within a relative
TIE_TOL of the largest kept are tied, and the smallest of them, then the
lexicographically first, wins: the first in size-then-lexicographic
order, whatever the rounding.

Z is formed here with math.exp from the rows of d, so the package's
numpy routes and the command line's numpy-free route give the same answer
bit for bit. The result is a DiversityResult whose iterations count the
supports checked, 2^n - 1, with the certificate "global".
"""

from __future__ import annotations

import math
from operator import itemgetter, mul

from .errors import DiversityError, NonpositiveScale, TooLarge, positive_scale
from .sweeps import DiversityResult

# most points whose maximum diversity max_diversity takes from the search:
# the slowest search found at n = 10 took 7-13 ms in process, about a
# tenth of a command's start-up, and each point more about doubles it
# (0.24-0.42 s at n = 15; see README)
SEARCH_LIMIT = 10
# most points of the exact search (diversity --exact, max_diversity_exact)
EXACT_LIMIT = 15
# feasibility slack: on y >= 0 and on the off-support first-order condition
FEAS_TOL = 1e-12
# largest residual max |Z_S y - 1| of an accepted support's solve
RESIDUAL_TOL = 1e-8
# bordering pivots at most this in size end the factor (Z's diagonal is 1)
PIVOT_FLOOR = 2.0**-26
# relative slack of the screen ahead of the pivoted solve, and of the
# magnitude a support must come within of the largest kept to be tested
SCREEN_TOL = 1e-6
# supports whose magnitudes lie within this relative distance of the
# largest are tied, so that rounding never decides between supports of
# equal magnitude (automorphic images, say)
TIE_TOL = 1e-12


def similarity(d, t: float) -> list[list[float]]:
    """Z = exp(-t d) as rows of floats, from the rows of d, at a scale
    checked to be 0 < t < inf; t d past the double range gives 0."""
    t = positive_scale(t)
    if t == math.inf:
        raise NonpositiveScale(f"scale must be finite, got {t!r}")
    return [[math.exp(-t * x) for x in row] for row in d]


def max_diversity(d, t: float) -> DiversityResult:
    """Maximum diversity at scale t of the space whose distance rows are
    d (any sequence of rows of numbers), by search; TooLarge above
    EXACT_LIMIT points."""
    if len(d) > EXACT_LIMIT:
        raise TooLarge(len(d), EXACT_LIMIT)
    return search(similarity(d, t))


def search(z) -> DiversityResult:
    """The support search of the module docstring on the symmetric Z
    given as rows."""
    n = len(z)
    top = 0.0                   # the largest magnitude kept
    kept = []                   # (total, support, mu, Z mu) within TIE_TOL of top

    def test(sup, y=None):
        """Keep S if its weighting y, by default solved with pivoting,
        passes and its magnitude ties with the largest or beats it."""
        nonlocal top, kept
        if y is None:
            y = _pivoted_solve([[z[i][j] for j in sup] for i in sup])
        if y is None or min(y) < -FEAS_TOL:
            return
        total = math.fsum(y)
        if total <= 0.0 or total < top - TIE_TOL * top:
            return
        clipped = [max(x, 0.0) for x in y]
        mass = math.fsum(clipped)
        mu = [x / mass for x in clipped]
        q = _column_sum(z, sup, mu)
        if min(q) < 1.0 / total - FEAS_TOL or max(
                abs(1.0 - math.fsum(z[i][j] * x for j, x in zip(sup, y)))
                for i in sup) > RESIDUAL_TOL:
            return
        if total > top:
            top = total
            kept = [c for c in kept if c[0] >= top - TIE_TOL * top]
        kept.append((total, tuple(sup), mu, q))

    def unfactored(sup):
        # a support below a pivot under PIVOT_FLOOR, and all below it
        test(sup)
        for j in range(sup[-1] + 1, n):
            unfactored(sup + [j])

    def extend(sup, y, total, xs, pivots, definite):
        # for each child j: xs = Z_S^-1 z_Sj and pivots s = z_jj - z_Sj' xs,
        # in order; definite while every pivot is positive
        column = _gather(sup)   # z_Si of the row z[i]
        for k, j in enumerate(range(sup[-1] + 1 if sup else 0, n)):
            x, s = xs[k], pivots[k]
            child = sup + [j]
            if abs(s) <= PIVOT_FLOOR:
                unfactored(child)
                continue
            h = (1.0 - sum(x)) / s
            y_c = [a - h * b for a, b in zip(y, x)] + [h]
            grown = total + h * h * s
            definite_c = definite and s > 0.0
            xs_c, pivots_c = [], []
            zj = z[j]
            for j2, x2, s2 in zip(range(j + 1, n), xs[k + 1:], pivots[k + 1:]):
                c = (zj[j2] - sum(map(mul, x, column(z[j2])))) / s
                xs_c.append([a - c * b for a, b in zip(x2, x)] + [c])
                pivots_c.append(s2 - c * c * s)
            # (Z y)_i is 1' x_i at each point i past j, which must not fall
            # below 1 by more than the slack
            if (grown > 0.0 and grown >= top - SCREEN_TOL * top
                    and all(sum(x2) >= 1.0 - SCREEN_TOL for x2 in xs_c)):
                if definite_c:
                    test(child, y_c)
                elif _near_kkt(z, child, grown, y_c):
                    test(child)
            if xs_c:
                extend(child, y_c, grown, xs_c, pivots_c, definite_c)

    extend([], [], 0.0, [[] for _ in range(n)], [z[j][j] for j in range(n)],
           True)
    if not kept:
        raise DiversityError("no feasible stationary support found")
    total, sup, mu, q = min(kept, key=lambda c: (len(c[1]), c[1]))
    weights = [0.0] * n
    for j, m in zip(sup, mu):
        weights[j] = m
    gap = 2.0 * (math.fsum(m * q[j] for j, m in zip(sup, mu)) - min(q))
    return DiversityResult(total, tuple(weights), sup, gap, 2**n - 1,
                           "support_enumeration", "global")


def _near_kkt(z, sup, total: float, y) -> bool:
    """Whether the weighting y of the support sup, of magnitude total,
    passes the rules of the search with every slack widened by a relative
    SCREEN_TOL: y nearly nonnegative, and no point below 1 / total in
    Z y / sum(y+) by more than that."""
    if min(y) < -SCREEN_TOL * max(map(abs, y)) - FEAS_TOL:
        return False
    clipped = [max(x, 0.0) for x in y]
    low = math.fsum(clipped) * ((1.0 - SCREEN_TOL) / total - FEAS_TOL)
    return min(_column_sum(z, sup, clipped)) >= low


def _gather(sup):
    """The function that takes a row to its entries on the indices sup, as
    a tuple."""
    if len(sup) == 1:
        i, = sup
        return lambda row: (row[i],)
    return itemgetter(*sup) if sup else lambda row: ()


def _column_sum(z, sup, x) -> list[float]:
    """Z x for the x that is x on the indices sup and 0 elsewhere: the sum
    of the columns of the symmetric Z on sup, scaled, taken as its rows."""
    out = [0.0] * len(z)
    for j, xj in zip(sup, x):
        out = [a + xj * b for a, b in zip(out, z[j])]
    return out


def _pivoted_solve(a) -> list[float] | None:
    """y with A y = 1 by Gaussian elimination with partial pivoting on the
    rows a, which it overwrites; None where a pivot is 0."""
    k = len(a)
    b = [1.0] * k
    for c in range(k):
        p = max(range(c, k), key=lambda r: abs(a[r][c]))
        if a[p][c] == 0.0:
            return None
        a[c], a[p] = a[p], a[c]
        b[c], b[p] = b[p], b[c]
        top, pc = a[c], a[c][c]
        for r in range(c + 1, k):
            f = a[r][c] / pc
            if f:
                a[r] = a[r][:c + 1] + [x - f * y for x, y in
                                       zip(a[r][c + 1:], top[c + 1:])]
                b[r] -= f * b[c]
    y = [0.0] * k
    for c in range(k - 1, -1, -1):
        y[c] = (b[c] - math.fsum(map(mul, a[c][c + 1:], y[c + 1:]))) / a[c][c]
    return y
