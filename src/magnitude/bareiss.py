"""The package's one exact elimination: rank and determinant."""

from fractions import Fraction
from math import lcm


def bareiss(rows) -> tuple:
    """(rank, det) of rows of ints or Fractions by fraction-free (Bareiss)
    elimination; det is None unless the matrix is square ([] is 0 x 0).

    Rows are scaled to integers. Entries below the pivots stay minors
    (Sylvester's identity), so each division by the last pivot is exact,
    and columns with no pivot are skipped.
    """
    scale, a = 1, []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        scale *= den
        a.append([int(x * den) for x in row])
    ncols = len(a[0]) if a else 0
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv], sign = a[piv], a[rank], -sign
        top, p = a[rank][col + 1:], a[rank][col]
        for r in range(rank + 1, len(a)):
            x = a[r][col]
            # the columns up to col are not read again
            a[r][col + 1:] = [(y * p - x * z) // prev
                              for y, z in zip(a[r][col + 1:], top)]
        prev, rank = p, rank + 1
    if len(a) != ncols:
        return rank, None
    det = sign * prev if rank == ncols else 0
    return rank, det if scale == 1 else Fraction(det, scale)
