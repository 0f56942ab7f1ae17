"""Maximum diversity of a small space by one exact search over supports,
in pure Python with math.

Maximum diversity is the largest magnitude 1' Z_S^-1 1 of a support S
whose weighting y = Z_S^-1 1 is nonnegative and from which no other point
gains (Leinster and Meckes, Entropy 18, 2016): with mu = y / sum(y), every
point j must have (Z mu)_j >= mu' Z mu = 1 / sum(y). So on a space of a
few points it is a finite search over supports, and the answer is the
global maximum whether or not Z is positive semidefinite, where the
active set that answers a larger space (diversity) certifies only a
stationary point. That active set borders as the search does, and visits
only the supports whose pivots are positive.

Only supports whose Z_S is positive definite are searched. The answer is
the smallest maximizer S, then the lexicographically first, and Z_S is
positive semidefinite at a maximizer (Leinster and Meckes state the
maximum over such supports). Were it singular, Z_S mu = lambda 1 with
lambda = mu' Z mu > 0 at the stationary mu, so each null vector v of Z_S
has 1'v = v' Z_S mu / lambda = 0: mu + s v keeps its sum and its value
until an entry reaches 0, a maximizer on a smaller support. So Z_S is
positive definite, and so is each principal submatrix on the path to S.

search goes depth first over supports in lexicographic order, and each
support S + [j] extends its parent's solution by one row (bordering):
with x = Z_S^-1 z_Sj and the pivot s = z_jj - z_Sj' x (the Schur
complement, a pivot of Z's L D L' factor in this order), its weighting is
(y_S - h x, h) with h = (1 - 1' x) / s. The vectors x that a support's
children need come from their parent's, each extended by one entry, as
are their pivots, so a support costs O(|S|) for each of its children and
the whole search O(2^n n). Z_S + [j] is positive definite exactly when
Z_S is and s > 0, so a pivot s <= 0 skips that child and every support
below it. A small positive pivot is no cut: 1e-9 above K_{3,3}'s pole
t = log 2 the maximizer is the whole space, whose last pivot is 2e-9.
A visited support's bordered weighting is tested as it is, with the
rules of the search: y >= -FEAS_TOL, sum(y) > 0, (Z mu)_j >= 1 / sum(y)
- FEAS_TOL at every point for mu = y+ / sum(y+), and the residual
max |Z_S y - 1| at most RESIDUAL_TOL. The supports whose magnitudes lie within a relative TIE_TOL
of the largest kept are tied, and the smallest of them, then the
lexicographically first, wins, whatever the rounding.

Z is formed here with math.exp from the rows of d (similarity), so a
held d and a graph's rows (specs.graph_rows) give the same answer bit
for bit. The result is a DiversityResult whose iterations count the
supports visited, those whose Z_S is positive definite (all 2^n - 1 where
Z is), with the certificate "global".
"""

from __future__ import annotations

import math
from operator import itemgetter, mul

from .errors import DiversityError, finite_scale
from .sweeps import DiversityResult

# most points whose maximum diversity specs.maximum_diversity searches
# for: the slowest search found at n = 10 took 7-13 ms in process, about a
# tenth of a command's start-up, and each point more about doubles it
# (0.24-0.42 s at n = 15; see README)
SEARCH_LIMIT = 10
# most points of the exact search (diversity --exact, max_diversity_exact)
EXACT_LIMIT = 15
# feasibility slack: on y >= 0 and on the off-support first-order condition
FEAS_TOL = 1e-12
# largest residual max |Z_S y - 1| of an accepted support's solve
RESIDUAL_TOL = 1e-8
# supports whose magnitudes lie within this relative distance of the
# largest are tied, so that rounding never decides between supports of
# equal magnitude (automorphic images, say)
TIE_TOL = 1e-12


def similarity(d, t: float) -> list[list[float]]:
    """Z = exp(-t d) as rows of floats, from the rows of d, at a scale
    checked to be 0 < t < inf; t d past the double range gives 0."""
    t = finite_scale(t)
    return [[math.exp(-t * x) for x in row] for row in d]


def search(z) -> DiversityResult:
    """The support search of the module docstring on the symmetric Z
    given as rows."""
    n = len(z)
    top = 0.0                   # the largest magnitude kept
    kept = []                   # (total, support, mu, Z mu) within TIE_TOL of top
    visited = 0

    def test(sup, y):
        """Keep S if its weighting y passes and its magnitude ties with the
        largest or beats it."""
        nonlocal top, kept
        if min(y) < -FEAS_TOL:
            return
        total = math.fsum(y)
        if total <= 0.0 or total < top - TIE_TOL * top:
            return
        clipped = [max(x, 0.0) for x in y]
        mass = math.fsum(clipped)
        mu = [x / mass for x in clipped]
        # Z mu, a row at a time (Z is symmetric), until a point gains
        column, low, q = _gather(sup), 1.0 / total - FEAS_TOL, []
        for row in z:
            q.append(sum(map(mul, mu, column(row))))
            if q[-1] < low:
                return
        if max(abs(1.0 - math.fsum(z[i][j] * x for j, x in zip(sup, y)))
               for i in sup) > RESIDUAL_TOL:
            return
        if total > top:
            top = total
            kept = [c for c in kept if c[0] >= top - TIE_TOL * top]
        kept.append((total, tuple(sup), mu, q))

    def extend(sup, y, xs, pivots):
        # for each child j: xs = Z_S^-1 z_Sj and pivots s = z_jj - z_Sj' xs,
        # in order
        nonlocal visited
        column = _gather(sup)   # z_Si of the row z[i]
        for k, j in enumerate(range(sup[-1] + 1 if sup else 0, n)):
            x, s = xs[k], pivots[k]
            if s <= 0.0:
                continue        # Z_S + [j] is not positive definite
            visited += 1
            child = sup + [j]
            h = (1.0 - sum(x)) / s
            y_c = [a - h * b for a, b in zip(y, x)] + [h]
            test(child, y_c)
            xs_c, pivots_c = [], []
            zj = z[j]
            for j2, x2, s2 in zip(range(j + 1, n), xs[k + 1:], pivots[k + 1:]):
                c = (zj[j2] - sum(map(mul, x, column(z[j2])))) / s
                xs_c.append([a - c * b for a, b in zip(x2, x)] + [c])
                pivots_c.append(s2 - c * c * s)
            if xs_c:
                extend(child, y_c, xs_c, pivots_c)

    extend([], [], [[] for _ in range(n)], [z[j][j] for j in range(n)])
    if not kept:
        raise DiversityError("no feasible stationary support found")
    total, sup, mu, q = min(kept, key=lambda c: (len(c[1]), c[1]))
    weights = [0.0] * n
    for j, m in zip(sup, mu):
        weights[j] = m
    gap = 2.0 * (math.fsum(m * q[j] for j, m in zip(sup, mu)) - min(q))
    return DiversityResult(total, tuple(weights), sup, gap, visited,
                           "support_enumeration", "global")


def _gather(sup):
    """The function that takes a row to its entries on the indices sup, as
    a tuple."""
    if len(sup) == 1:
        i, = sup
        return lambda row: (row[i],)
    return itemgetter(*sup) if sup else lambda row: ()
