"""Independent references the tests check the package against.

Nothing in the package or its command line runs these: each one computes
an answer the production path also gives, by a slower or more direct
route, so a test can compare the two.

* pixels: the weight measure by explicit inclusion-exclusion over cell
  subsets (weight_measure_ie), its defining integral identity evaluated
  at probe points (verify_weight_measure, probe_grid), the taxicab
  lattice points of a pixel set as a finite space (grid_sample), and the
  expansion polynomial fitted to exact dilation volumes, one fragment
  mask per cell (per_cell_dilation_volume, dilation_fit);
* engine: Speyer's shortcut N / (row sum) for row-homogeneous spaces and
  the Rayleigh ratio whose supremum is the magnitude for PD Z;
* spaces: l1 products, the edge lists of named graphs, ball samples by
  a plain loop of random.Random draws (ball_sample_loop), which
  spaces.ball_sample must match bit for bit, and the ball samples that
  numpy's Philox stream draws (ball_sample_points), on which tests pin
  values;
* lines: the union rule for two compact pieces a gap apart and the tail
  bound of the Cantor series;
* euclid: the magnitudes of the balls B^1, B^3 and B^5 as Barcelo and
  Carbery wrote them, transcribed by hand (ball_form_by_hand), against
  which the Hankel-determinant form of every odd n is checked;
* exact linear algebra: the normal of a hyperplane through n points as
  (dy, -dx) in the plane and the cross product in space
  (normal_by_hand), which the cofactor normals of pixels must equal;
* diversity: the Frank-Wolfe gap of a distribution on a held Z
  (kkt_gap), maximum diversity by solving the supports one at a time
  with numpy (max_diversity_support_loop), against which the support
  search is checked, with the positive definite supports among them
  counted by numpy's eigenvalues (smallest_eigenvalues), the
  Lawson-Hanson active set on a held n x n Z (active_set_held_z), exact
  covering numbers by branch and bound, and greedy packing numbers as
  their lower bound.

Tests import it as `from oracles import ...`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from itertools import product as _iterproduct

import numpy as np

from magnitude.diversity import ACTIVE_SET_PASSES_PER_POINT
from magnitude.engine import cholesky_rows, cholesky_solver, similarity_matrix
from magnitude.errors import (
    DiversityError,
    LineError,
    PixelError,
    TooLarge,
    finite_result,
    positive_scale,
)
from magnitude.pixels import FaceMeasure, PixelSet, ProbeOutsideSet
from magnitude.spaces import FiniteMetricSpace
from magnitude.specs import graph_name_edges
from magnitude.supports import FEAS_TOL, RESIDUAL_TOL, TIE_TOL
from magnitude.sweeps import DiversityResult

IE_CELL_LIMIT = 20
# dilation_fit's nodes, as fractions of the scale: all below it
DILATION_NODES = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
# speyer_magnitude accepts row sums that deviate by at most this times
# max(1, |row sum|)
ROW_SUM_TOL = 1e-10
EXACT_COVERING_LIMIT = 25


# ---------------------------------------------------------------------------
# pixels


class TooManyCells(PixelError):
    def __init__(self, count: int, limit: int = IE_CELL_LIMIT):
        super().__init__(
            f"subset enumeration over {count} cells exceeds the {limit}-cell limit"
        )


def weight_measure_ie(p: PixelSet) -> FaceMeasure:
    """Weight measure by explicit inclusion-exclusion over all nonempty
    cell subsets.

    Exponential in the cell count; refuses more than 20 cells. Subsets with
    empty intersection are pruned together with all their supersets.
    """
    if p.n_cells > IE_CELL_LIMIT:
        raise TooManyCells(p.n_cells)
    cells = sorted(p.cells)
    n = p.dim
    out = {}

    def box_add(lo, hi, sign):
        # closed box prod [lo_i, hi_i], hi_i in {lo_i, lo_i + 1}; spread
        # sign / 2^dim onto each of its faces
        opts = []
        for i in range(n):
            if hi[i] == lo[i]:
                opts.append(((lo[i], False),))
            else:
                opts.append(((lo[i], False), (lo[i], True), (hi[i], False)))
        dim_box = sum(1 for i in range(n) if hi[i] > lo[i])
        w = Fraction(sign, 2**dim_box)
        for pick in _iterproduct(*opts):
            anchor = tuple(x for x, _ in pick)
            axes = tuple(i for i in range(n) if pick[i][1])
            key = (anchor, axes)
            out[key] = out.get(key, Fraction(0)) + w

    big = 1 << 40

    def rec(start, lo, hi, size):
        # adding one cell to a subset of `size` gives sign (-1)^size
        for j in range(start, len(cells)):
            c = cells[j]
            nlo = tuple(max(a, x) for a, x in zip(lo, c))
            nhi = tuple(min(b, x + 1) for b, x in zip(hi, c))
            if any(a > b for a, b in zip(nlo, nhi)):
                continue
            box_add(nlo, nhi, (-1) ** size)
            rec(j + 1, nlo, nhi, size + 1)

    rec(0, (-big,) * n, (big,) * n, 0)
    out = {k: v for k, v in out.items() if v != 0}
    return FaceMeasure(n, p.scale, out, p.cells)


def probe_grid(p: PixelSet, per_cell: int = 5) -> list:
    """per_cell^dim points per cell, centered strictly inside it, in the
    absolute coordinates of the scaled set."""
    if per_cell < 1:
        raise PixelError("per_cell must be >= 1")
    lam = float(p.scale)
    offs = [(j + 0.5) / per_cell for j in range(per_cell)]
    out = []
    for cell in sorted(p.cells):
        for g in _iterproduct(offs, repeat=p.dim):
            out.append(tuple(lam * (ci + gi) for ci, gi in zip(cell, g)))
    return out


def _exp_box_integral(a, b, c):
    # integral of e^{-|c-u|} du over [a, b], elementwise; exponents are
    # clamped at 0 so the branches np.where discards cannot overflow
    span = 1.0 - np.exp(a - b)
    below = np.exp(np.minimum(c - a, 0.0)) * span
    above = np.exp(np.minimum(b - c, 0.0)) * span
    inside = 2.0 - np.exp(np.minimum(a - c, 0.0)) - np.exp(np.minimum(c - b, 0.0))
    return np.where(c <= a, below, np.where(c >= b, above, inside))


def verify_weight_measure(p: PixelSet, fm: FaceMeasure, probes) -> float:
    """Max over probes of |integral of e^{-d(probe, x)} dmu(x) - 1|.

    mu puts density coef(G) of len(axes)-dimensional Lebesgue measure on
    each face G, so the integral splits into a product of one-dimensional
    factors: a closed-form integral along the face's free axes and a point
    evaluation along the fixed ones. Zero deviation characterizes a weight
    measure; non-convex sets may deviate, which is reported, not raised.
    """
    if fm.dim != p.dim:
        raise PixelError(f"measure is {fm.dim}-dimensional, set is {p.dim}")
    pts = np.asarray(list(probes), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != p.dim:
        raise PixelError(f"probes must be points in R^{p.dim}")
    lam = float(p.scale)
    cells = np.array(sorted(p.cells), dtype=float) * lam
    # closed-set membership, with float slack at cell boundaries
    inside = (
        (pts[:, None, :] >= cells[None, :, :] - 1e-12)
        & (pts[:, None, :] <= cells[None, :, :] + lam + 1e-12)
    ).all(axis=2).any(axis=1)
    if not inside.all():
        bad = pts[int(np.flatnonzero(~inside)[0])]
        raise ProbeOutsideSet(
            f"probe {tuple(float(x) for x in bad)} is outside the set"
        )

    faces = list(fm.coefficients.items())
    coefs = np.array([float(c) for _, c in faces])
    anchors = np.array([[a * lam for a in anchor] for (anchor, _), _ in faces])
    free = np.zeros((len(faces), p.dim), dtype=bool)
    for row, ((_, axes), _) in enumerate(faces):
        for i in axes:
            free[row, i] = True

    total = np.ones((len(pts), len(faces)))
    for i in range(p.dim):
        a = anchors[None, :, i]
        c = pts[:, i][:, None]
        factor = np.where(
            free[None, :, i],
            _exp_box_integral(a, a + lam, c),
            np.exp(-np.abs(c - a)),
        )
        total *= factor
    return float(np.max(np.abs(total @ coefs - 1.0)))


def grid_sample(p: PixelSet, per_unit: int) -> FiniteMetricSpace:
    """Finite taxicab space of the lattice points at spacing
    scale/per_unit inside the closed set, held as its points."""
    if per_unit < 1:
        raise PixelError("per_unit must be >= 1")
    k = per_unit
    pts = set()
    for c in p.cells:
        for g in _iterproduct(range(k + 1), repeat=p.dim):
            pts.add(tuple(Fraction(ci * k + gi, k) for ci, gi in zip(c, g)))
    lam = float(p.scale)
    arr = np.array(sorted(pts), dtype=float) * lam
    return FiniteMetricSpace(points=arr, p=1)


def per_cell_dilation_volume(p: PixelSet, r) -> Fraction:
    """Exact volume of the set expanded by r/2 on every side.

    The expanded set is the union of the boxes [lam c - r/2, lam (c+1) + r/2].
    Each axis is cut into fragments at the box ends, each fragment carries
    the bitmask of the cells whose box covers it, and the volume sums the
    products of fragment lengths over the picks whose masks share a cell.
    """
    r = Fraction(r)
    lam, n = p.scale, p.dim
    cells = sorted(p.cells)
    den = 2 * lam.denominator * r.denominator
    lam_i, r_i = int(lam * den), int(r * den)
    masks = []
    for i in range(n):
        cuts = sorted({2 * lam_i * c[i] - r_i for c in cells}
                      | {2 * lam_i * (c[i] + 1) + r_i for c in cells})
        frag = []
        for a, b in zip(cuts, cuts[1:]):
            bit = 0
            for j, c in enumerate(cells):
                if 2 * lam_i * c[i] - r_i <= a and b <= 2 * lam_i * (c[i] + 1) + r_i:
                    bit |= 1 << j
            if bit:
                frag.append((b - a, bit))
        masks.append(frag)
    total = 0
    for pick in _iterproduct(*masks):
        bits = -1
        for _, bit in pick:
            bits &= bit
        if bits:
            total += math.prod(length for length, _ in pick)
    return Fraction(total, (2 * den) ** n)


def dilation_fit(p: PixelSet) -> list:
    """Coefficients of r^0 .. r^3 of the cubic through the dilation volumes
    at r = scale * DILATION_NODES, by Lagrange's formula.

    Below the scale the volume is sum_i V_i r^(dim-i), so the fit reads
    V_dim .. V_0 and then zeros.
    """
    xs = [p.scale * x for x in DILATION_NODES]
    out = [Fraction(0)] * len(xs)
    for j, xj in enumerate(xs):
        basis, denom = [Fraction(1)], Fraction(1)
        for m, xm in enumerate(xs):
            if m != j:
                # basis *= (r - xm)
                basis = [Fraction(0)] + basis
                for k in range(len(basis) - 1):
                    basis[k] -= xm * basis[k + 1]
                denom *= xj - xm
        yj = per_cell_dilation_volume(p, xj)
        for k, b in enumerate(basis):
            out[k] += yj * b / denom
    return out


# ---------------------------------------------------------------------------
# engine


class NotRowHomogeneous(ValueError):
    """Row sums of the similarity matrix disagree beyond tolerance."""


def speyer_magnitude(space: FiniteMetricSpace, t: float = 1.0) -> float:
    """Magnitude shortcut N / (row sum) for row-homogeneous Z."""
    z = similarity_matrix(space, t)
    sums = z.sum(axis=1)
    ref = float(sums[0])
    dev = float(np.abs(sums - ref).max())
    if dev > ROW_SUM_TOL * max(1.0, abs(ref)):
        raise NotRowHomogeneous(f"row sums deviate by {dev:.3e}")
    return space.n_points / ref


def rayleigh_ratio(z: np.ndarray, x: np.ndarray) -> float:
    """(sum x)^2 / (x' Z x); the magnitude is its supremum for PD Z."""
    x = np.asarray(x, dtype=float)
    quad = float(x @ z @ x)
    if quad <= 0:
        raise ValueError("x' Z x must be positive")
    return float(x.sum()) ** 2 / quad


# ---------------------------------------------------------------------------
# euclid and exact linear algebra


def ball_form_by_hand(n: int, r):
    """Magnitude of the ball B^n of radius r >= 0, n in (1, 3, 5), in the
    arithmetic of r (a Fraction or a float)."""
    if n == 1:
        return 1 + r
    if n == 3:
        return 1 + 2 * r + r**2 + r**3 / 6
    if n == 5:
        return (24 + 72 * r + 72 * r**2 + 35 * r**3 + 9 * r**4 + r**5) \
            / (8 * (r + 3)) + r**5 / 120
    raise ValueError(f"no hand form for n = {n}")


def normal_by_hand(points) -> tuple:
    """A normal of the hyperplane through the n points of n-space, n in
    (1, 2, 3): 1 on the line, (dy, -dx) in the plane, the cross product
    of the two differences in space; 0 where the points span none."""
    base = points[0]
    rows = [[x - y for x, y in zip(p, base)] for p in points[1:]]
    if len(base) == 1:
        return (1,)
    if len(base) == 2:
        (dx, dy), = rows
        return (dy, -dx)
    (u1, u2, u3), (v1, v2, v3) = rows
    return (u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1)


# ---------------------------------------------------------------------------
# spaces


def l1_product(a: FiniteMetricSpace, b: FiniteMetricSpace) -> FiniteMetricSpace:
    """Product space with summed distances, points ordered a-major."""
    na, nb = a.n_points, b.n_points
    d = np.kron(a.distances, np.ones((nb, nb))) + np.kron(
        np.ones((na, na)), b.distances
    )
    return FiniteMetricSpace(d)


def named_graph_edges(name: str) -> list[tuple[int, int]]:
    """Edge list of a named graph, as spaces.graph_metric reads the name."""
    return graph_name_edges(name)[0]


def ball_sample_loop(n: int, radius: float, count: int, seed: int,
                     p: int = 2) -> np.ndarray:
    """The points of spaces.ball_sample, one cube draw at a time: n
    draws of random.Random(seed).uniform(-radius, radius) each, kept
    while the first count in the lp ball are not yet found. The norm is
    summed left to right, as numpy sums fewer than 8 coordinates."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        row = [rng.uniform(-radius, radius) for _ in range(n)]
        norm = 0.0
        for x in row:
            norm += abs(x) if p == 1 else x * x
        if (norm if p == 1 else math.sqrt(norm)) <= radius:
            pts.append(row)
    return np.array(pts)


def ball_sample_points(n: int, radius: float, count: int, seed: int,
                       p: int = 2) -> np.ndarray:
    """The points of a ball sample drawn by numpy.random: rejection from
    the cube, 1024 candidates at a time, from
    np.random.Generator(np.random.Philox(seed)). Tests that pin values
    of seeded samples build their spaces from these points."""
    gen = np.random.Generator(np.random.Philox(seed))
    chunks = []
    have = 0
    while have < count:
        cand = gen.uniform(-radius, radius, size=(1024, n))
        norms = (
            np.abs(cand).sum(axis=1) if p == 1
            else np.sqrt((cand * cand).sum(axis=1))
        )
        keep = cand[norms <= radius]
        chunks.append(keep)
        have += len(keep)
    return np.concatenate(chunks)[:count]


# ---------------------------------------------------------------------------
# lines


class NegativeGap(LineError):
    def __init__(self, g: float):
        super().__init__(f"gap must be >= 0, got {g!r}")


@finite_result
def gap_union_magnitude(mag_a: float, mag_b: float, gap: float, t: float) -> float:
    """Magnitude of A union B when B sits a distance `gap` right of A.

    Both pieces must be compact subsets of R given by their own magnitudes
    at the same scale: the union costs mag_a + mag_b - 1 + tanh(t gap / 2).
    """
    t = positive_scale(t)
    gap = float(gap)
    if gap < 0:
        raise NegativeGap(gap)
    return float(mag_a) + float(mag_b) - 1.0 + math.tanh(t * gap / 2.0)


def cantor_magnitude_tail_bound(t: float, length: float, k: int) -> float:
    """Upper bound on the Cantor series remainder after k terms."""
    return (float(t) * float(length) / 2.0) * (2.0 / 3.0) ** k


# ---------------------------------------------------------------------------
# diversity: support enumeration one support at a time


def kkt_gap(z: np.ndarray, mu: np.ndarray) -> float:
    """Frank-Wolfe duality gap of mu for min mu' Z mu on the simplex.

    The gap is 2 (mu' Z mu - min_v (Z mu)_v) >= 0 in exact arithmetic, so a
    value slightly below zero is rounding. A gap <= tol certifies a global
    maximum of the diversity only when Z is positive semidefinite;
    otherwise it certifies a stationary point.
    """
    q = z @ mu
    return float(2.0 * (mu @ q - q.min()))


def smallest_eigenvalues(z: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of Z_S for every support S of the symmetric
    z, in size-then-lexicographic order: one batched np.linalg.eigvalsh
    for each size."""
    n = z.shape[0]
    out = []
    for size in range(1, n + 1):
        subs = np.array(list(combinations(range(n), size)))
        out.append(np.linalg.eigvalsh(z[subs[:, :, None], subs[:, None, :]])[:, 0])
    return np.concatenate(out)


def max_diversity_support_loop(space: FiniteMetricSpace,
                               t: float = 1.0) -> DiversityResult:
    """The support search of supports.search, one np.linalg.solve per
    support in size-then-lexicographic order: the same feasibility tests
    on every support, a singular one skipped, and the first support whose
    value lies within a relative TIE_TOL of the largest kept. Its
    iterations count the supports whose Z_S numpy's eigenvalues find
    positive definite, those the search visits."""
    n = space.n_points
    z = similarity_matrix(space, t)
    found = []
    for size in range(1, n + 1):
        for sub in combinations(range(n), size):
            idx = np.array(sub)
            zs = z[np.ix_(idx, idx)]
            try:
                y = np.linalg.solve(zs, np.ones(size))
            except np.linalg.LinAlgError:
                continue
            if np.abs(zs @ y - 1.0).max() > RESIDUAL_TOL:
                continue  # near-singular garbage
            total = float(y.sum())
            if total <= 0 or (y < -FEAS_TOL).any():
                continue
            mu = np.zeros(n)
            mu[idx] = np.clip(y, 0.0, None) / np.clip(y, 0.0, None).sum()
            m = 1.0 / total
            if ((z @ mu) < m - FEAS_TOL).any():
                continue
            found.append((total, mu, sub))
    if not found:
        raise DiversityError("no feasible stationary support found")
    top = max(total for total, _, _ in found)
    total, mu, sub = next(c for c in found if c[0] >= top - TIE_TOL * top)
    mu.setflags(write=False)  # read-only, as max_diversity_exact returns it
    definite = int((smallest_eigenvalues(z) > 0.0).sum())
    return DiversityResult(total, mu, sub, kkt_gap(z, mu), definite,
                           "support_enumeration", "global")


def active_set_held_z(z: np.ndarray, tol: float) -> DiversityResult | None:
    """max_diversity's run from Z^-1 1 on a Z that Cholesky accepts, on the
    whole n x n Z, held: the same passes, each product Z mu and each
    support's block of Z taken from the held matrix; the value is
    1 / ((mu Z) mu). None where Cholesky rejects Z, or a support that
    seeding keeps."""
    n = z.shape[0]

    def solve(idx):
        try:
            chol = cholesky_rows(
                lambda lo, hi: z[np.ix_(idx[lo:hi], idx[lo:])], idx.size)
        except np.linalg.LinAlgError:
            return None
        return cholesky_solver(chol)(np.ones(idx.size))

    def answer(y, passes):
        mu = y / y.sum()
        gap = kkt_gap(z, mu)
        mu.setflags(write=False)
        return DiversityResult(
            float(1.0 / (mu @ z @ mu)), mu,
            tuple(int(i) for i in np.flatnonzero(mu > 0)), gap, passes,
            "active_set", "global" if gap <= tol else "lower_bound")

    idx = np.arange(n)
    ys = solve(idx)             # the weighting, full support
    if ys is None:
        return None
    y = None                    # feasible iterate once a solve is positive
    for passes in range(1, ACTIVE_SET_PASSES_PER_POINT * n + 1):
        if ys.min() > 0:
            y = np.zeros(n)
            y[idx] = ys
            res = answer(y, passes)
            if res.kkt_gap <= tol:
                return res
            # negative gradient; positive = violated
            w = 1.0 - y.sum() * (z @ (y / y.sum()))
            w[idx] = -np.inf
            for j in np.argsort(-w, kind="stable"):
                if w[j] <= 0:
                    return res
                grown = np.sort(np.append(idx, j))
                ys = solve(grown)
                if ys is not None and ys[np.searchsorted(grown, j)] > 0:
                    idx = grown
                    break
            continue
        if y is None:
            idx = idx[ys > 0]   # seeding: drop nonpositive weights
        else:
            # move from y toward ys until the first coordinate hits zero
            cur = y[idx]
            neg = ys <= 0
            ratios = cur[neg] / (cur[neg] - ys[neg])
            k = int(np.argmin(ratios))
            y[idx] = cur + ratios[k] * (ys - cur)
            y[idx[neg][k]] = 0.0
            idx = idx[y[idx] > 0]
        ys = solve(idx)
        if ys is None:
            return None if y is None else answer(y, passes)
    return answer(y, passes)


# ---------------------------------------------------------------------------
# diversity: covering and packing with centers inside the space


def _balls(space: FiniteMetricSpace, eps: float) -> np.ndarray:
    if eps < 0:
        raise DiversityError("radius must be >= 0")
    return space.distances <= eps


def _disjoint_balls(balls: np.ndarray, centers) -> int:
    # greedy family, in the order given, of balls pairwise disjoint as
    # subsets of the space
    occupied = np.zeros(balls.shape[0], dtype=bool)
    count = 0
    for i in centers:
        if not (balls[i] & occupied).any():
            occupied |= balls[i]
            count += 1
    return count


def packing_number(space: FiniteMetricSpace, eps: float) -> int:
    """Size of a greedy maximal family of closed eps-balls, centered in
    the space, that are pairwise disjoint as subsets of the space.

    No center can cover two members of such a family, so this is a valid
    covering lower bound; intrinsic disjointness (no witness point within
    eps of both centers) keeps it tight when midpoints are missing.
    """
    return _disjoint_balls(_balls(space, eps), range(space.n_points))


def covering_number(space: FiniteMetricSpace, eps: float,
                    with_centers: bool = False):
    """Minimum number of closed eps-balls centered in the space that
    cover it. Exact branch and bound from the cover by every point;
    refuses more than 25 points. with_centers=True also returns one
    optimal center tuple."""
    n = space.n_points
    if n > EXACT_COVERING_LIMIT:
        raise TooLarge(n, EXACT_COVERING_LIMIT)
    balls = _balls(space, eps)
    covers = [np.flatnonzero(balls[:, j]) for j in range(n)]  # centers covering j
    best_centers = list(range(n))
    best = n

    def rec(uncovered, chosen):
        nonlocal best, best_centers
        if not uncovered.any():
            if len(chosen) < best:
                best = len(chosen)
                best_centers = list(chosen)
            return
        # uncovered points with pairwise-disjoint balls: each remaining
        # center handles at most one of them
        if len(chosen) + _disjoint_balls(balls, np.flatnonzero(uncovered)) >= best:
            return
        # branch on the hardest point: fewest balls cover it
        idx = np.flatnonzero(uncovered)
        j = idx[int(np.argmin([len(covers[i]) for i in idx]))]
        for c in covers[j]:
            chosen.append(int(c))
            rec(uncovered & ~balls[c], chosen)
            chosen.pop()

    rec(np.ones(n, dtype=bool), [])
    if with_centers:
        return best, tuple(sorted(best_centers))
    return best
