"""Exact linear algebra: the matrix product, power-trace loop and column
determinant of the package, its sparse elimination, ``Eliminator``, which
gives the expression of a target vector as a combination of given sparse
vectors, the rank of dense rows, and its one rational-to-integer scaling,
``integer_form``, which
the elimination, the two bracket engines (through ``Packing.pack``, also the
rank check's gradients) and the Poisson letter table use.

The matrix product, power traces and column minors use only ``+``, ``-``,
``*`` and unary ``-`` on entries, so ``Fraction``, ``RatFun`` and the
noncommutative sparse sums ``NCPoly``/``LaxEntry``/``DiffOpEntry`` all
qualify; products keep the factor order they are written in.  ``col_minor``
is the one column-determinant expansion, memoized; ``col_det`` reads it, and
``col_reorder`` gives a minor in any column sequence as a signed sorted minor
plus a remainder summed over the 2x2 minors of adjacent column swaps.

``Eliminator`` takes sparse vectors (dicts key -> rational), fraction-free.
A vector is scaled to integers by ``integer_form`` (one of ints is taken as
it is) and reduced against the pivot rows kept so far, in the order kept: a
row is replaced by a*row - b*pivot row, with a and b the two entries at the
pivot key over their gcd, then divided by the gcd of its entries.  A kept
row is zero at the pivot keys of the rows kept before it, so one pass clears
every pivot key; the vector is in their span exactly when nothing but
``_Tag`` keys is left once its zeros are dropped.  ``rank`` runs the same
reduction on dense rows, lists indexed by column.  The loops run on Python
ints and build no ``Fraction``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from operator import add


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


def col_minor(entries: Sequence[Sequence], rows: tuple[int, ...],
              cols: tuple[int, ...], memo: dict):
    """Column determinant of the submatrix on the ascending ``rows`` and the
    equally long column sequence ``cols``, in which a column may repeat.

    Expanded along the first column with its factor written first, so exact
    in any associative ring: the sum over p of
    (-1)^p * entries[rows[p]][cols[0]] * minor(rows without rows[p], cols[1:]).
    That is the permutation sum grouped by the row of the first factor, so
    the left factor of every product is an entry.  Every minor of two or
    more columns is kept in ``memo`` (one per matrix) under (rows, cols).
    """
    if len(cols) == 1:
        return entries[rows[0]][cols[0]]
    key = (rows, cols)
    minor = memo.get(key)
    if minor is None:
        c, rest = cols[0], cols[1:]
        for p, r in enumerate(rows):
            term = entries[r][c] * col_minor(entries, rows[:p] + rows[p + 1:], rest, memo)
            if p == 0:
                minor = term
            else:
                minor = minor - term if p % 2 else minor + term
        memo[key] = minor
    return minor


def _parity(seq: Sequence[int]) -> int:
    """The parity of the number of inversions of ``seq``."""
    return sum(x > y for i, x in enumerate(seq) for y in seq[i + 1:]) % 2


def _adjacent_term(entries: Sequence[Sequence], rows: tuple[int, ...],
                   cols: tuple[int, ...], k: int, memo: dict):
    """The sum over splits of the rows into P (k rows), Q (two rows) and S
    of eps * minor(P, cols[:k]) * middle(Q) * minor(S, cols[k+2:]), eps the
    sign of the row order P, Q, S; or None when every middle is zero.

    With a, b = cols[k], cols[k+1], middle(Q) is minor(Q, (a, b)) +
    minor(Q, (b, a)) when a != b, and minor(Q, (a, a)) when they are equal.
    The generalized Laplace expansion along columns k and k+1 makes the sum
    col_minor(rows, cols) plus the minor with a and b swapped, or, for a = b,
    col_minor(rows, cols) itself; the factors stay in column order, so this
    holds in any associative ring.  A zero middle is skipped before its
    outer minors are read."""
    a, b = cols[k], cols[k + 1]
    head, tail = cols[:k], cols[k + 2:]
    m = len(rows)
    total = None
    for q in combinations(range(m), 2):
        pair = (rows[q[0]], rows[q[1]])
        middle = col_minor(entries, pair, (a, b), memo)
        if a != b:
            middle = middle + col_minor(entries, pair, (b, a), memo)
        if not middle:
            continue
        rest = [i for i in range(m) if i not in q]
        for p in combinations(rest, k):
            s = tuple(i for i in rest if i not in p)
            term = middle
            if head:
                term = col_minor(entries, tuple(rows[i] for i in p), head, memo) * term
            if tail:
                term = term * col_minor(entries, tuple(rows[i] for i in s), tail, memo)
            if _parity(p + q + s):
                term = -term
            total = term if total is None else total + term
    return total


def col_reorder(entries: Sequence[Sequence], rows: tuple[int, ...],
                cols: Sequence[int], memo: dict) -> tuple[int, object]:
    """(s, R) with col_minor(rows, cols) = s * col_minor(rows, sorted(cols)) + R
    for the ascending ``rows`` and a column sequence ``cols``: s is the sign
    of the permutation that sorts ``cols``, or 0 when a column repeats, and
    R is None when it is zero.

    ``cols`` is sorted by adjacent swaps, as in a bubble sort.  A descent
    (a, b) at positions k, k+1 is swapped, since minor(c) = term -
    minor(c with a and b swapped) for the term of ``_adjacent_term``, and an
    adjacent repeated column ends the walk, since then minor(c) = term; R
    sums those terms, each with the sign reached before its step.  On a column Manin matrix every middle term is a column or
    cross residual of ``manin.is_manin``, zero, so R is None and nothing
    is multiplied; the 2x2 minors are read from ``memo``, as ``col_minor``
    keeps them, and so are the outer minors of a nonzero middle."""
    cols = list(cols)
    sign, residual = 1, None
    k = 0
    while k < len(cols) - 1:
        a, b = cols[k], cols[k + 1]
        if a < b:
            k += 1
            continue
        term = _adjacent_term(entries, rows, tuple(cols), k, memo)
        if term is not None:
            term = term if sign > 0 else -term
            residual = term if residual is None else residual + term
        if a == b:
            sign = 0
            break
        cols[k], cols[k + 1] = b, a
        sign = -sign
        k = max(k - 1, 0)
    return sign, residual or None


def col_det(entries: Sequence[Sequence], column_order: Sequence[int] | None = None,
            memo: dict | None = None):
    """Column determinant of a nonempty square matrix.

    The signed sum over permutations s of the products of the entries
    (s(c), c), taken column by column in ``column_order`` (default 0..n-1),
    the first column's factor written first: the order's sign times
    ``col_minor`` on all rows, expanded along the order's first column, with
    its ``memo``.  The memo then holds, for each order read, the minors on
    the order's column suffixes.
    """
    n = len(entries)
    if n == 0:
        raise ValueError("column determinant of an empty matrix")
    cols = tuple(range(n)) if column_order is None else tuple(column_order)
    if sorted(cols) != list(range(n)):
        raise ValueError(f"column order must be a permutation of 0..{n - 1}")
    det = col_minor(entries, tuple(range(n)), cols, {} if memo is None else memo)
    return -det if _parity(cols) else det


def integer_form(coeffs: Mapping[Hashable, Fraction]) -> tuple[int, dict[Hashable, int]]:
    """(d, key -> integer numerator): the coefficients times d, the lcm of
    their denominators.  Ints count as fractions over 1.  Zero coefficients
    are kept, so a caller whose coefficients may vanish drops them itself."""
    d = 1
    for c in coeffs.values():
        d = lcm(d, c.denominator)
    return d, {k: c.numerator * (d // c.denominator) for k, c in coeffs.items()}


class _Tag:
    """A key that no caller's vector holds and that never becomes a pivot.

    ``solve_combination`` gives each input vector one, with coefficient 1,
    so a reduced row records which inputs it combines.  Callers key vectors
    by ints (packed monomials) and tuples (words), so a tag is an object of
    its own class, equal only to itself.
    """

    __slots__ = ()


class Eliminator:
    """``rows``: (pivot key, entry there, integer row) per vector kept, in
    order; the pivot key is the row's first key that is not a ``_Tag``."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: list[tuple[Hashable, int, dict]] = []

    def reduce(self, vec: Mapping[Hashable, Fraction]) -> dict[Hashable, int]:
        """The integer remainder of ``vec`` against the rows, left as they
        are, its zeros dropped; without ``_Tag`` keys it is empty exactly on
        their span.  Integer coefficients are taken as they are."""
        if all(type(v) is int for v in vec.values()):
            row = dict(vec)
        else:
            row = integer_form(vec)[1]
        for key, a, prow in self.rows:
            b = row.get(key)
            if b:
                g = gcd(a, b)
                ag, bg = a // g, b // g
                if ag != 1:
                    row = {k: ag * v for k, v in row.items()}
                for k, v in prow.items():
                    row[k] = row.get(k, 0) - bg * v
                # a*b/g - b*a/g: the pivot key cancels exactly
                del row[key]
                g = gcd(*row.values())
                if g > 1:
                    row = {k: v // g for k, v in row.items()}
        return {k: v for k, v in row.items() if v}

    def add(self, vec: Mapping[Hashable, Fraction]) -> bool:
        """Whether the remainder of ``vec`` keeps a key that is not a
        ``_Tag``; if so it is kept as the next pivot row."""
        row = self.reduce(vec)
        key = next((k for k in row if type(k) is not _Tag), None)
        if key is None:
            return False
        self.rows.append((key, row[key], row))
        return True


def rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Row rank of dense rows, all of one length: the number of rows outside
    the span of the rows before them.

    Each row is scaled to integers (a row of ints as it is) and reduced,
    fraction-free, against the pivot rows kept so far, as in
    ``Eliminator``.  A kept row is divided by the gcd of its entries and
    pivots on its first nonzero column."""
    pivots: list[tuple[int, list[int]]] = []
    for row in rows:
        if all(type(v) is int for v in row):
            row = list(row)
        else:
            d = lcm(*(v.denominator for v in row))
            row = [v.numerator * (d // v.denominator) for v in row]
        for col, prow in pivots:
            b = row[col]
            if b:
                a = prow[col]
                g = gcd(a, b)
                a, b = a // g, b // g
                row = [a * x - b * y for x, y in zip(row, prow)]
        col = next((k for k, v in enumerate(row) if v), None)
        if col is not None:
            g = gcd(*row)
            pivots.append((col, [v // g for v in row] if g > 1 else row))
    return len(pivots)


def solve_combination(vectors: Sequence[Mapping[Hashable, Fraction]],
                      target: Mapping[Hashable, Fraction]) -> list[Fraction] | None:
    """Coefficients x with sum_j x_j * vectors[j] == target, or None.

    Vector j carries tag j and the target carries -1 times tag n, so
    sum_j x_j (vector j + tag j) - (target - tag n) = tag n + sum_j x_j tag j
    when the x solve the system.  The target reduced against the pivot rows
    is then a multiple of that tag-only row; otherwise a non-tag key is
    left.  A vector in the span of those before it is never a pivot row, so
    its coefficient (a free variable) is zero and the combination is unique.
    """
    tags = [_Tag() for _ in range(len(vectors) + 1)]
    span = Eliminator()
    for vec, tag in zip(vectors, tags):
        span.add({**vec, tag: 1})
    row = span.reduce({**target, tags[-1]: -1})
    if any(type(k) is not _Tag for k in row):
        return None
    scale = row[tags[-1]]
    return [Fraction(row.get(tag, 0), scale) for tag in tags[:-1]]
