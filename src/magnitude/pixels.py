"""Exact magnitude machinery for unions of axis-aligned grid cells in l1.

A pixel set is a finite union of closed cubes lam * [c, c+1], c in Z^n,
n in {1, 2, 3}, with the taxicab metric. Everything here is exact rational
arithmetic; floats appear only when a result is evaluated at a float scale.

Two computations of the same object, behind the pixel command's --weights
and --intrinsic modes:

* the weight measure, face by face: each relatively open face G of the
  cell complex carries mass coef(G) * (t lam)^dim(G). On one cell it is
  the product of the one-dimensional measure (atoms 1/2 at the ends,
  density t/2 inside); on a union, inclusion-exclusion over the cells
  that own G (whose closure contains G) sums to a closed form in the
  owners' offsets O in {0,-1}^F, F the fixed axes of G:
  coef(G) = 2^-dim G * sum over T in F of (-1/2)^|T| |O|_T|.

* the expansion polynomial: the volume of the set grown by r/2 on every
  side (Minkowski sum with r * [-1/2, 1/2]^n) is a polynomial
  sum_i V_i r^(n-i) for 0 <= r < lam, and the V_i (V_0 the Euler
  characteristic, V_n the volume) follow from the face counts alone. The
  magnitude of the t-scaled set is then sum_i V_i t^i / 2^i.

For l1-convex sets (every two cells joined by a monotone staircase of
cells) the two agree and give the magnitude exactly. For other sets they
still agree, but their common value is neither the magnitude nor a bound
on it: at t = 1 the ring "###/#.#/###" gets 6, though a lattice sample
inside it has magnitude 6.24, and the U "#.#/###" gets 21/4, though its
bounding box has magnitude 5. is_l1_convex decides which case holds, in
every dimension, by one sweep of staircase reachability on cell bitsets
per orthant. Convex bodies with rational vertices get two-sided bounds
by sandwiching between an outer pixelation and a shrunken copy of it.

The references the tests hold these against live in tests/oracles.py:
the weight measure by explicit inclusion-exclusion over cell subsets and
by its defining integral at probe points, and the magnitude of lattice
samples of a set by a dense solve.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as _iterproduct
from math import comb, gcd, lcm, prod
from typing import NamedTuple

from .bareiss import bareiss
from .errors import BadSpec, PixelError, finite, finite_result, positive_scale

# most candidate cells, the cells of a body's bounding box, that
# outer_pixelation tests. At the limit a `pixel` call of a 3-D box (238,328
# cells) took 2.2 s and 201 MB as a process, a 2-D one (260,100) 1.8 s
CELL_LIMIT = 2**18


class EmptySet(PixelError):
    pass


class MixedDimensions(PixelError):
    pass


class BadScale(PixelError):
    pass


class ProbeOutsideSet(PixelError):
    pass


class DegenerateBody(PixelError):
    """Vertices do not span the ambient dimension."""


class NonConvexVertices(PixelError):
    """Some listed vertex lies strictly inside the hull of the others."""


def _as_scale(scale) -> Fraction:
    try:
        lam = Fraction(scale)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise BadScale(f"cannot read scale {scale!r}: {exc}") from None
    return finite(lam, "scale", 0, error=BadScale)


class PixelSet(NamedTuple("PixelSet", [("dim", int), ("scale", Fraction),
                                        ("cells", frozenset)])):
    """Cells c in Z^n, each the closed box scale * [c, c+1]."""

    __slots__ = ()

    def __new__(cls, dim: int, scale, cells):
        if dim not in (1, 2, 3):
            raise PixelError(f"dim must be 1, 2 or 3, got {dim!r}")
        lam = _as_scale(scale)
        cset = frozenset(tuple(int(x) for x in c) for c in cells)
        if not cset:
            raise EmptySet("pixel set needs at least one cell")
        if any(len(c) != dim for c in cset):
            got = sorted({len(c) for c in cset})
            raise MixedDimensions(f"cells of lengths {got} in a dim-{dim} set")
        return super().__new__(cls, dim, lam, cset)

    @property
    def n_cells(self) -> int:
        return len(self.cells)


# ---------------------------------------------------------------------------
# ascii art and the pixel file format


def parse_ascii(art: str, scale=1, dim: int = 2) -> PixelSet:
    """Rows of '#' (cell) and '.' (hole); the top row has the highest y.

    "##\\n#." gives cells (0,1), (1,1), (0,0). dim=1 takes a single row of
    cells along the x axis.
    """
    rows = [r for r in art.splitlines() if r.strip()]
    if not rows:
        raise EmptySet("no art rows")
    bad = {ch for r in rows for ch in r} - {"#", "."}
    if bad:
        raise PixelError(f"art may use only '#' and '.', found {sorted(bad)}")
    if dim == 1:
        if len(rows) != 1:
            raise PixelError("dim-1 art must be a single row")
        cells = [(x,) for x, ch in enumerate(rows[0]) if ch == "#"]
        return PixelSet(1, scale, cells)
    if dim != 2:
        raise PixelError("art supports dim 1 or 2 only")
    height = len(rows)
    cells = [
        (x, height - 1 - y)
        for y, row in enumerate(rows)
        for x, ch in enumerate(row)
        if ch == "#"
    ]
    return PixelSet(2, scale, cells)


def parse_pixel_file(text: str) -> PixelSet:
    """Header "dim <n> scale <p>/<q>", then either art rows or one cell per
    line as whitespace-separated integers."""
    lines = [l.strip() for l in text.splitlines()]
    lines = [l for l in lines if l and not l.startswith("//")]
    if not lines:
        raise PixelError("empty pixel file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "dim" or head[2] != "scale":
        raise PixelError(f"bad header {lines[0]!r}; expected 'dim <n> scale <p>/<q>'")
    try:
        dim = int(head[1])
    except ValueError:
        raise PixelError(f"bad dimension {head[1]!r}") from None
    scale = _as_scale(head[3])
    body = lines[1:]
    if not body:
        raise EmptySet("pixel file has no cells")
    if all(set(l) <= {"#", "."} for l in body):
        if dim not in (1, 2):
            raise PixelError(f"art rows cannot describe a dim-{dim} set")
        return parse_ascii("\n".join(body), scale, dim=dim)
    cells = []
    for l in body:
        try:
            cells.append(tuple(int(tok) for tok in l.split()))
        except ValueError:
            raise PixelError(f"bad cell line {l!r}") from None
    return PixelSet(dim, scale, cells)


# ---------------------------------------------------------------------------
# weight measure on the face complex


def _corner_cells(cells, corner, free: int = 0) -> tuple:
    """Offsets k of the cells owning the face anchored at a lattice corner
    with free-axis mask `free`; k stands for the cell corner + o with
    o_i = -(bit i of k), and owners have o = 0 on the free axes. free = 0
    gives every cell at the corner."""
    return tuple(
        k for k in range(1 << len(corner)) if not k & free
        and tuple(x - (k >> i & 1) for i, x in enumerate(corner)) in cells)


@lru_cache(maxsize=None)
def _corner_faces(n: int, occ: tuple) -> tuple:
    """Nonzero (axes, coefficient) of the faces anchored at a corner whose
    cells are at the offsets `occ`, by the identity in weight_measure."""
    out = []
    for free in range(1 << n):
        owners = [k for k in occ if not k & free]
        fixed = (1 << n) - 1 - free
        # 2^n coef(G) = sum over T in F of (-1)^|T| 2^|F - T| |O|_T|
        num = sum((-1) ** t.bit_count() * 2 ** (fixed - t).bit_count()
                  * len({k & t for k in owners})
                  for t in range(1 << n) if not t & free)
        if num:
            axes = tuple(i for i in range(n) if free >> i & 1)
            out.append((axes, Fraction(num, 2**n)))
    return tuple(out)


class FaceMeasure(NamedTuple):
    """Weight measure of a pixel set, stored per face.

    coefficients maps a face (anchor, axes) -- the open unit interval
    (anchor_i, anchor_i + 1) on the sorted axes, the point anchor_i on the
    others -- to an exact rational c; it carries mass c * (t * scale)^len(axes)
    at scale parameter t. Faces with coefficient zero are dropped.
    """

    dim: int
    scale: Fraction
    coefficients: dict
    cells: frozenset

    def coefficient(self, anchor, axes) -> Fraction:
        key = (tuple(anchor), tuple(axes))
        free = [i for i in range(self.dim) if i in key[1]]
        if len(key[0]) != self.dim or free != list(key[1]):
            raise ProbeOutsideSet(f"{key} is not a face key in dim {self.dim}")
        if key in self.coefficients:
            return self.coefficients[key]
        # distinguish an absent face from one that cancelled to zero
        if not _corner_cells(self.cells, key[0], sum(1 << i for i in free)):
            raise ProbeOutsideSet(f"face {key} is not a face of the set")
        return Fraction(0)

    def total_mass_exact(self, t: Fraction = Fraction(1)) -> Fraction:
        t = Fraction(t)
        return sum(
            (c * (t * self.scale) ** len(axes)
             for (_, axes), c in self.coefficients.items()),
            Fraction(0),
        )

    @finite_result
    def magnitude_at(self, t: float) -> float:
        """Sum over k of float(mass_k) * (t * scale)^k, k ascending.

        The per-dimension masses are exact, so the float depends on the
        measure alone, not on the order its faces were stored in.
        """
        positive_scale(t)
        lam = float(self.scale)
        masses = self.mass_by_dimension()
        return float(sum(float(masses[k]) * (t * lam) ** k
                         for k in sorted(masses)))

    def mass_by_dimension(self) -> dict:
        """Sum of coefficients per face dimension (scale factored out)."""
        out = {}
        for (_, axes), c in self.coefficients.items():
            out[len(axes)] = out.get(len(axes), Fraction(0)) + c
        return out


def weight_measure(p: PixelSet) -> FaceMeasure:
    """Face coefficients in closed form, one pattern lookup per corner.

    Inclusion-exclusion over the owners of G gives coef(G) = sum over
    their nonempty subsets S of (-1)^(|S|+1) (1/2)^dim(cap S), where
    dim(cap S) is dim G plus the number of fixed axes on which S agrees.
    Write (1/2)^[S agrees on i] = 1 - 1/2 [S agrees on i] and expand over
    F: the S that agree on T fall into one class per element of O|_T (the
    distinct restrictions of O to T), and each class sums to 1, so

        coef(G) = 2^-dim G * sum over T in F of (-1/2)^|T| |O|_T|.

    A corner's faces depend only on which of its 2^n cells are in the
    set, so their list is memoised per pattern.
    """
    n, cells = p.dim, p.cells
    corners = {tuple(x + d for x, d in zip(cell, step))
               for cell in cells for step in _iterproduct((0, 1), repeat=n)}
    out = {}
    for corner in corners:
        for axes, coef in _corner_faces(n, _corner_cells(cells, corner)):
            out[corner, axes] = coef
    return FaceMeasure(n, p.scale, out, cells)


# ---------------------------------------------------------------------------
# expansion polynomial


class SteinerPolynomial(NamedTuple):
    """Coefficients V_0 .. V_n of the expansion polynomial.

    The set expanded by r/2 on every side has volume sum_i V_i r^(n-i)
    for 0 <= r < scale; V_0 is the Euler characteristic and V_n the
    volume. sum_i V_i t^i / 2^i is the magnitude of the t-scaled set when
    the set is l1-convex; otherwise it is no bound on the magnitude.
    """

    dim: int
    scale: Fraction
    coefficients: tuple

    def magnitude_exact(self, t: Fraction = Fraction(1)) -> Fraction:
        t = Fraction(t)
        return sum(
            (v * t**i / 2**i for i, v in enumerate(self.coefficients)),
            Fraction(0),
        )

    @finite_result
    def magnitude_at(self, t: float) -> float:
        positive_scale(t)
        return float(sum(
            float(v) * (float(t) / 2.0) ** i
            for i, v in enumerate(self.coefficients)
        ))


def _face_counts(p: PixelSet) -> list:
    """f_k, the number of k-dimensional faces of the cell complex.

    A cell corner is one mixed-radix integer (radix span + 2 per axis, so
    a step past the last cell never carries). The faces with fixed axes F
    are anchored at the codes of the cells shifted by 0 or 1 along each
    axis of F; each set of codes is the set for F minus its top axis,
    united with its shift along that axis.
    """
    n, cells = p.dim, p.cells
    los = [min(c[i] for c in cells) for i in range(n)]
    strides, s = [], 1
    for i in range(n):
        strides.append(s)
        s *= max(c[i] for c in cells) - los[i] + 2
    anchors = [{sum((x - lo) * st for x, lo, st in zip(c, los, strides))
                for c in cells}]
    f = [0] * n + [len(anchors[0])]
    for fixed in range(1, 1 << n):
        top = fixed.bit_length() - 1
        prev = anchors[fixed ^ (1 << top)]
        anchors.append(prev | {a + strides[top] for a in prev})
        f[n - fixed.bit_count()] += len(anchors[fixed])
    return f


def steiner_polynomial(p: PixelSet) -> SteinerPolynomial:
    """V_i = scale^i sum over k >= i of C(k, i) (-1)^(k-i) f_k.

    For 0 <= r < scale the expanded set splits into one box per face of
    the complex: an open k-face contributes (scale - r)^k r^(n-k), and
    expanding in r gives V. Equivalently the magnitude at t is
    sum_k f_k (t scale / 2 - 1)^k.
    """
    f = _face_counts(p)
    return SteinerPolynomial(p.dim, p.scale, tuple(
        p.scale**i * sum(comb(k, i) * (-1) ** (k - i) * f[k]
                         for k in range(i, p.dim + 1))
        for i in range(p.dim + 1)))


# ---------------------------------------------------------------------------
# convexity in the taxicab sense


def is_l1_convex(p: PixelSet, witness: bool = False):
    """True when every two cells are joined by a monotone staircase.

    Each step moves one axis by one unit strictly toward the target cell
    and must stay inside the set. Cells are bits of Python ints, in sorted
    order. For each sign pattern s with s_0 = +1 (reversing a staircase
    covers the rest), a sweep in decreasing s.c gives R(c), the cells that
    steps along +s_i e_i reach from c; the set is l1-convex exactly when
    R(c) is all of c's s-cone in the set, the AND of one half-space per
    axis. A staircase never moves along an axis where its ends agree, so a
    cell in several cones is reached in all or none of them.
    With witness=True returns (verdict, pair), pair being the first cell
    pair (in sorted order) that no staircase joins, or None.
    """
    cells = sorted(p.cells)
    n = p.dim
    # (axis i, sign, v) -> the cells with sign * c_i >= sign * v
    half = {}
    for i in range(n):
        at = {}
        for k, c in enumerate(cells):
            at[c[i]] = at.get(c[i], 0) | 1 << k
        for sign in (1, -1):
            acc = 0
            for v in sorted(at, reverse=sign > 0):
                acc |= at[v]
                half[i, sign, v] = acc
    missing = [0] * len(cells)
    for tail in _iterproduct((1, -1), repeat=n - 1):
        s = (1,) + tail
        reach, level = {}, None
        for lv, k, c in sorted((-sum(a * b for a, b in zip(s, c)), k, c)
                               for k, c in enumerate(cells)):
            if lv != level:
                # the cells c + s_i e_i lie one level lower, in the level
                # swept just before; keeping only that one bounds memory
                last = reach if level == lv - 1 else {}
                reach, level = {}, lv
            r = 1 << k
            cone = -1
            for i in range(n):
                r |= last.get(c[:i] + (c[i] + s[i],) + c[i + 1:], 0)
                cone &= half[i, s[i], c[i]]
            reach[c] = r
            if r != cone:
                if not witness:
                    return False
                missing[k] |= cone ^ r
    for k, m in enumerate(missing):
        # pairs (c, d) with d before c in sorted order were seen at d
        m >>= k + 1
        if m:
            return False, (cells[k], cells[k + (m & -m).bit_length()])
    return (True, None) if witness else True


# ---------------------------------------------------------------------------
# convex bodies with rational vertices


class ConvexBodySpec(NamedTuple):
    """dim n, kind in {box, simplex_vertices, polytope_vertices}.

    box takes lengths (L_1 .. L_n); the vertex kinds take rational vertex
    tuples. All numbers may be strings like "3/2".
    """

    dim: int
    kind: str
    lengths: tuple = ()
    vertices: tuple = ()


class ConvexBody(NamedTuple):
    dim: int
    vertices: tuple          # tuples of Fractions
    facets: tuple            # (normal ints tuple, offset int): <a, x> <= b

    @property
    def centroid(self) -> tuple:
        n = len(self.vertices)
        return tuple(
            sum((v[i] for v in self.vertices), Fraction(0)) / n
            for i in range(self.dim)
        )


def _differences(points) -> list:
    """p - points[0] for each later point p."""
    return [[x - y for x, y in zip(p, points[0])] for p in points[1:]]


def _normal_through(points) -> tuple:
    """Normal of the hyperplane through n points in R^n (0 if none):
    signed cofactors of their differences, as (dy, -dx) and u x v are."""
    rows = _differences(points)
    return tuple((-1) ** i * bareiss([r[:i] + r[i + 1:] for r in rows])[1]
                 for i in range(len(points[0])))


def _canonical_facet(a, b):
    den = lcm(*(x.denominator for x in (*a, b)))
    ints = [int(x * den) for x in (*a, b)]
    g = gcd(*ints)
    return tuple(x // g for x in ints[:-1]), ints[-1] // g


def build_body(spec: ConvexBodySpec) -> ConvexBody:
    """Vertex list to facet system, with convexity and fullness checks."""
    n = spec.dim
    if n not in (1, 2, 3):
        raise PixelError(f"dim must be 1, 2 or 3, got {n!r}")
    try:
        if spec.kind == "box":
            ls = tuple(Fraction(x) for x in spec.lengths)
        else:
            vertices = tuple(tuple(Fraction(x) for x in v) for v in spec.vertices)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise PixelError(f"cannot read body coordinates: {exc}") from None
    if spec.kind == "box":
        if len(ls) != n or any(l <= 0 for l in ls):
            raise DegenerateBody(f"box needs {n} positive lengths")
        vertices = tuple(
            tuple(ls[i] if bit else Fraction(0) for i, bit in enumerate(bits))
            for bits in _iterproduct((0, 1), repeat=n)
        )
    elif spec.kind in ("simplex_vertices", "polytope_vertices"):
        if any(len(v) != n for v in vertices):
            raise PixelError("vertex arity does not match dim")
        if spec.kind == "simplex_vertices" and len(vertices) != n + 1:
            raise PixelError(f"simplex in dim {n} needs exactly {n + 1} vertices")
    else:
        raise PixelError(f"unknown body kind {spec.kind!r}")
    if len(set(vertices)) != len(vertices):
        raise PixelError("repeated vertices")
    if bareiss(_differences(vertices))[0] < n:
        raise DegenerateBody("vertices span less than the ambient dimension")

    facets = set()
    for sub in combinations(vertices, n):
        a = _normal_through(sub)
        if not any(a):
            continue
        b = sum(ai * xi for ai, xi in zip(a, sub[0]))
        vals = [sum(ai * xi for ai, xi in zip(a, v)) for v in vertices]
        if all(v <= b for v in vals):
            facets.add(_canonical_facet(a, b))
        elif all(v >= b for v in vals):
            facets.add(_canonical_facet(tuple(-x for x in a), -b))
    if not facets:
        raise DegenerateBody("no supporting facets found")

    # a listed vertex strictly inside every facet is not a hull vertex
    inner = [idx for idx, v in enumerate(vertices) if all(
        sum(ai * xi for ai, xi in zip(a, v)) < b for a, b in facets)]
    if inner:
        raise NonConvexVertices(f"vertices at indices {inner} are interior")
    return ConvexBody(n, vertices, tuple(sorted(facets)))


def _fm_conditions(rows, n) -> list:
    """Feasibility conditions of a system with parametric right-hand sides,
    by Fourier-Motzkin elimination of x_1 .. x_n.

    Rows are (a, b, strict) for sum_i a_i x_i <= b(c), or < b(c) when
    strict, where b(c) = b_0 + sum_j b_j c_j is given as (b_0, b_1, ..).
    Eliminating a variable combines each positive-coefficient row with each
    negative one; the combination is strict when either parent is. The
    multipliers depend on the coefficients only, so one elimination serves
    every c. Returns the remaining (b, strict): the system is feasible at c
    exactly when every b(c) > 0 (strict) or b(c) >= 0 holds.
    """
    rows = [(tuple(Fraction(x) for x in a), tuple(Fraction(x) for x in b), s)
            for a, b, s in rows]
    for var in range(n):
        pos, neg, rest = [], [], []
        for row in rows:
            coef = row[0][var]
            (pos if coef > 0 else neg if coef < 0 else rest).append(row)
        new = rest
        for ap, bp, sp in pos:
            for an, bn, sn in neg:
                f_p, f_n = -an[var], ap[var]
                a = tuple(f_p * x + f_n * y for x, y in zip(ap, an))
                b = tuple(f_p * x + f_n * y for x, y in zip(bp, bn))
                new.append((a, b, sp or sn))
        # dedupe (order kept) keeps the blowup tame at these sizes
        rows = list(dict.fromkeys(new))
    return [(b, s) for _, b, s in rows]


def outer_pixelation(body: ConvexBody, scale) -> PixelSet:
    """All cells whose open box meets the body.

    Open, so that a body touching a cell only along its boundary does not
    drag that cell into the pixelation; the closed cells of the remaining
    set still cover a full-dimensional body. The box rows of cell c,
    -x_i < -lam c_i and x_i < lam (c_i + 1), differ between cells only in
    right-hand sides affine in c, so the facets and box rows are
    eliminated once; the resulting conditions, scaled to integers, leave
    each row of candidate cells along the last axis one interval.

    BadSpec, before anything is built, where the candidates, the cells of
    the body's bounding box and a margin of one, exceed CELL_LIMIT.
    """
    lam = _as_scale(scale)
    n = body.dim
    ranges = []
    for i in range(n):
        lo = min(v[i] for v in body.vertices)
        hi = max(v[i] for v in body.vertices)
        ranges.append(range((lo / lam).__floor__() - 1,
                            (hi / lam).__ceil__() + 1))
    # exact: a range's len() would overflow past sys.maxsize
    if prod(r.stop - r.start for r in ranges) > CELL_LIMIT:
        raise BadSpec(f"the body's bounding box holds more than "
                      f"{CELL_LIMIT:,} cells at this scale")
    rows = [(a, (b,) + (0,) * n, False) for a, b in body.facets]
    for i in range(n):
        e = tuple(int(j == i) for j in range(n))
        rows.append((tuple(-x for x in e), (0,) + tuple(-lam * x for x in e), True))
        rows.append((e, (lam,) + tuple(lam * x for x in e), True))
    forms = []
    for b, s in _fm_conditions(rows, n):
        den = lcm(*(x.denominator for x in b))
        forms.append(([int(x * den) for x in b], s))
    # along the last axis each condition reads base + a x >= 0 (> 0 when
    # strict), so every row of candidates keeps one interval of x, found
    # by exact integer floor division
    last = ranges[-1]
    cells = []
    for head in _iterproduct(*ranges[:-1]):
        lo, hi = last.start, last.stop - 1
        for k, strict in forms:
            base = k[0] + sum(kj * cj for kj, cj in zip(k[1:], head))
            a = k[-1]
            if a > 0:    # x >= -base / a
                lo = max(lo, (-base) // a + 1 if strict else -(base // a))
            elif a < 0:  # x <= base / -a
                hi = min(hi, -(-base // -a) - 1 if strict else base // -a)
            elif base < 0 or (strict and base == 0):
                hi = lo - 1
            if lo > hi:
                break
        cells.extend(head + (x,) for x in range(lo, hi + 1))
    return PixelSet(n, lam, cells)


class BodyBounds(NamedTuple):
    lower: float
    upper: float
    alpha: Fraction
    pixelation: PixelSet
    steiner: SteinerPolynomial


def body_magnitude_bounds(body: ConvexBody, scale, t: float = 1.0) -> BodyBounds:
    """Sandwich the body's magnitude between a shrunken copy of its outer
    pixelation and the pixelation itself.

    alpha is the sharpest factor with centroid + alpha (P - centroid)
    inside the body: per facet, the slack at the centroid divided by the
    worst reach of the pixelation's corners. Exact rational; alpha = 1
    exactly when the pixelation equals the body.

    The worst reach is taken over the ends of the pixelation's rows along
    the last axis, found in one pass over its cells: a . k is linear in
    the last coordinate of k, so over a row it peaks at one of its ends.
    """
    positive_scale(t)
    pix = outer_pixelation(body, scale)
    sp = steiner_polynomial(pix)
    ends = {}
    for cell in pix.cells:
        head, x = cell[:-1], cell[-1]
        lo, hi = ends.get(head, (x, x))
        ends[head] = (min(lo, x), max(hi, x))
    c = body.centroid
    alpha = Fraction(1)
    for a, b in body.facets:
        slack = Fraction(b) - sum(ai * ci for ai, ci in zip(a, c))
        # the corners of the cells are lam * k, k integer; a . k peaks at a
        # cell's corner with the high end on every axis where a_i > 0
        last = a[-1]
        top = max(sum(ai * ki for ai, ki in zip(a, head))
                  + last * (hi if last > 0 else lo)
                  for head, (lo, hi) in ends.items())
        top += sum(ai for ai in a if ai > 0)
        reach = pix.scale * top - sum(ai * ci for ai, ci in zip(a, c))
        if reach > 0:
            alpha = min(alpha, slack / reach)
    if alpha < 0:
        alpha = Fraction(0)
    tt = float(t)
    upper = sp.magnitude_at(tt)
    lower = float(sum(
        float(v) * float(alpha) ** i * (tt / 2.0) ** i
        for i, v in enumerate(sp.coefficients)
    ))
    return BodyBounds(lower, upper, alpha, pix, sp)
