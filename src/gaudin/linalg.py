"""Exact linear algebra: the one row reduction, matrix product, power-trace
loop and column determinant of the package, plus rank, the greedy
independent subset of a sequence of sparse vectors (a sparse, incremental
form of the same elimination) and expressing a target vector as a
combination of given sparse vectors.

The matrix product, power traces and column determinant use only ``+``,
``-``, ``*`` and unary ``-`` on entries, so ``Fraction``, ``RatFun`` and the
noncommutative sparse sums ``NCPoly``/``LaxEntry``/``DiffOpEntry`` all
qualify; products keep the factor order they are written in.

Row reduction takes rational entries only.  It scales each row to integers
by the lcm of its denominators, which changes neither the row space nor the
pivots, and eliminates fraction-free: a row is replaced by a*row - b*pivot
row, with a and b the two entries in the pivot column over their gcd, and
then divided by the gcd of its entries.  Each integer row stays a nonzero
multiple of the row that elimination over ``Fraction`` would hold, so the
pivots are the same, and scaling each pivot row to a unit pivot at the end
gives the same reduced rows; the loop itself runs on Python ints and builds
no ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import gcd, lcm
from operator import add
from typing import Hashable, Iterable, Iterator, Mapping, Sequence


def row_reduce(rows: list[list], ncols: int) -> list[int]:
    """In-place Gauss-Jordan elimination on the first ``ncols`` columns.

    The pivot of each column is the first nonzero entry at or below the
    current row; its row is scaled to a unit pivot and the column is cleared
    in every other row.  Row operations act on whole rows, so columns past
    ``ncols`` (an augmented block) are carried along.  Returns the pivot
    columns; the i-th pivot sits in row i.

    Entries are rationals (``int`` or ``Fraction``) and come back as
    ``Fraction``; the elimination is fraction-free (see the module
    docstring).  Rows past the last pivot are zero on the first ``ncols``
    columns; their augmented entries are fixed only up to a nonzero factor.
    """
    for i, row in enumerate(rows):
        d = 1
        for v in row:
            d = lcm(d, v.denominator)
        rows[i] = _primitive([v.numerator * (d // v.denominator) for v in row])
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        a = prow[col]
        for i, row in enumerate(rows):
            b = row[col]
            if i != r and b:
                g = gcd(a, b)
                ag, bg = a // g, b // g
                rows[i] = _primitive([ag * x - bg * y for x, y in zip(row, prow)])
        pivots.append(col)
    for r, col in enumerate(pivots):
        a = rows[r][col]
        rows[r] = [Fraction(v, a) for v in rows[r]]
    for i in range(len(pivots), len(rows)):
        rows[i] = [Fraction(v) for v in rows[i]]
    return pivots


def _primitive(row: list[int]) -> list[int]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """The product ab, each entry summed as a_i0 b_0j + a_i1 b_1j + ...

    ``b`` must have at least one row and one column.
    """
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = row[0] * b[0][j]
            for k in range(1, len(b)):
                acc = acc + row[k] * b[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def power_traces(a: Sequence[Sequence], max_power: int) -> Iterator:
    """Tr a, Tr a^2, ..., Tr a^max_power of a nonempty square matrix.

    a^(m-1) is carried across the powers and only the diagonal of the last
    product is formed: Tr a^m = sum_{i,k} (a^(m-1))_ik a_ki.
    """
    n = len(a)
    if max_power < 1:
        return
    yield reduce(add, (a[i][i] for i in range(n)))
    power = a  # a^(m-1)
    for m in range(2, max_power + 1):
        yield reduce(add, (power[i][k] * a[k][i] for i in range(n) for k in range(n)))
        if m < max_power:
            power = matmul(power, a)


def col_det(entries: Sequence[Sequence], column_order: Sequence[int] | None = None):
    """Column determinant of a nonempty square matrix.

    The signed sum over permutations s of the products of the entries
    (s(c), c), taken column by column in ``column_order`` (default 0..n-1),
    the first column's factor written first.
    """
    n = len(entries)
    if n == 0:
        raise ValueError("column determinant of an empty matrix")
    cols = tuple(range(n)) if column_order is None else tuple(column_order)
    if sorted(cols) != list(range(n)):
        raise ValueError(f"column order must be a permutation of 0..{n - 1}")
    total = None
    for perm in permutations(range(n)):
        prod = entries[perm[cols[0]]][cols[0]]
        for c in cols[1:]:
            prod = prod * entries[perm[c]][c]
        if total is None:                   # the identity, which comes first
            total = prod
        elif sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2:
            total = total - prod
        else:
            total = total + prod
    return total


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Row rank by exact Gaussian elimination."""
    mat = [list(row) for row in rows]
    if not mat:
        return 0
    return len(row_reduce(mat, len(mat[0])))


def independent_columns(vectors: Iterable[Mapping[Hashable, Fraction]]) -> list[int]:
    """Indices of the vectors outside the span of the vectors before them:
    the pivot columns of the matrix whose columns are the vectors.

    Sparse, fraction-free and incremental.  Each vector is scaled to
    integers and reduced against the pivot rows kept so far, in the order
    they were kept: a row is replaced by a*row - b*pivot row, with a and b
    the two entries at the pivot key over their gcd, then divided by the
    gcd of its entries.  A kept row is zero at the pivot keys of the rows
    kept before it, so one pass clears every pivot key.  The vector is
    independent exactly when something is left, and what is left becomes
    the next pivot row, pivoting on its first key.
    """
    kept: list[tuple[Hashable, int, dict]] = []
    out = []
    for index, vec in enumerate(vectors):
        d = 1
        for v in vec.values():
            d = lcm(d, v.denominator)
        row = {k: v.numerator * (d // v.denominator) for k, v in vec.items() if v}
        for key, a, prow in kept:
            b = row.get(key)
            if b:
                g = gcd(a, b)
                ag, bg = a // g, b // g
                if ag != 1:
                    row = {k: ag * v for k, v in row.items()}
                for k, v in prow.items():
                    row[k] = row.get(k, 0) - bg * v
                row = {k: v for k, v in row.items() if v}
                g = gcd(*row.values())
                if g > 1:
                    row = {k: v // g for k, v in row.items()}
        if row:
            key = next(iter(row))
            kept.append((key, row[key], row))
            out.append(index)
    return out


def solve_combination(vectors: Sequence[Mapping[Hashable, Fraction]],
                      target: Mapping[Hashable, Fraction]) -> list[Fraction] | None:
    """Coefficients x with sum_j x_j * vectors[j] == target, or None.

    Free variables are set to zero, so the reported combination is unique to
    the elimination order.
    """
    columns = [*vectors, target]
    ncols = len(vectors)
    # One row of the augmented system per key, in first-seen order (keys of
    # mixed types need not be comparable): the key's coordinate in every
    # vector, then in the target.
    index: dict[Hashable, int] = {}
    for vec in columns:
        for k in vec:
            index.setdefault(k, len(index))
    aug = [[Fraction(0)] * (ncols + 1) for _ in index]
    for j, vec in enumerate(columns):
        for k, v in vec.items():
            aug[index[k]][j] = v
    pivots = row_reduce(aug, ncols)
    if any(row[ncols] for row in aug[len(pivots):]):
        return None
    solution = [Fraction(0)] * ncols
    for row, col in enumerate(pivots):
        solution[col] = aug[row][ncols]
    return solution
