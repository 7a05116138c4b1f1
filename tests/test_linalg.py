from fractions import Fraction

import pytest

from gaudin.algebra import AlgebraSignature, Mode
from gaudin.linalg import (
    col_det,
    matmul,
    power_traces,
    rank,
    row_reduce,
    solve_combination,
    span_dimension,
    spans_equal,
)
from gaudin.ratfun import DiffOpEntry, LaxEntry, RatFun


def F(v):
    return Fraction(v)


def test_rank_full_and_deficient():
    assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([]) == 0
    assert rank([[F(0), F(0)]]) == 0


def test_rank_exactness_with_fractions():
    # a matrix that floating point elimination would misjudge
    eps = Fraction(1, 10**30)
    assert rank([[eps, F(1)], [F(1), F(1) / eps]]) == 1


def test_span_dimension_and_equality():
    a = [{"x": F(1), "y": F(1)}, {"x": F(2), "y": F(2)}]
    b = [{"x": F(3), "y": F(3)}]
    assert span_dimension(a) == 1
    assert spans_equal(a, b)
    c = [{"x": F(1)}]
    assert not spans_equal(a, c)


def test_solve_combination_exact():
    vectors = [{"u": F(1), "v": F(1)}, {"v": F(1), "w": F(2)}]
    target = {"u": F(3), "v": F(5), "w": F(4)}
    coeffs = solve_combination(vectors, target)
    assert coeffs == [F(3), F(2)]


def test_solve_combination_inconsistent():
    vectors = [{"u": F(1)}]
    target = {"u": F(1), "v": F(1)}
    assert solve_combination(vectors, target) is None


def test_row_reduce_inverts_fraction_matrix():
    A = [[F(0), F(2)], [F(3), Fraction(1, 2)]]          # the first pivot needs a swap
    one, zero = F(1), F(0)
    aug = [row + [one if i == j else zero for j in range(2)] for i, row in enumerate(A)]
    assert row_reduce(aug, 2) == [0, 1]
    inverse = [row[2:] for row in aug]
    assert matmul(A, inverse) == [[one, zero], [zero, one]]


def test_row_reduce_singular_block_has_fewer_pivots():
    A = [[F(2), F(4), F(1)], [F(1), F(2), F(5)]]        # the second column repeats the first
    assert row_reduce(A, 2) == [0]


def weyl_sig():
    return AlgebraSignature(1, 1, Mode.QUANTUM)


def test_matmul_keeps_factor_order():
    sig = weyl_sig()
    d = DiffOpEntry.partial(sig)
    z = DiffOpEntry.from_entry(LaxEntry.scalar(sig, RatFun.z()))
    assert d * z != z * d
    assert matmul([[d, z]], [[z], [d]]) == [[d * z + z * d]]
    assert matmul([[d]], [[z]]) == [[d * z]]


def test_power_traces_keep_factor_order():
    sig = weyl_sig()
    d = DiffOpEntry.partial(sig)
    z = DiffOpEntry.from_entry(LaxEntry.scalar(sig, RatFun.z()))
    M = [[d, z], [DiffOpEntry.one(sig), d]]
    powers = [M, matmul(M, M), matmul(matmul(M, M), M)]
    assert list(power_traces(M, 3)) == [p[0][0] + p[1][1] for p in powers]
    assert list(power_traces(M, 0)) == []


def test_col_det_takes_factors_column_by_column():
    sig = weyl_sig()
    d = DiffOpEntry.partial(sig)
    z = DiffOpEntry.from_entry(LaxEntry.scalar(sig, RatFun.z()))
    M = [[d, d], [z, z]]
    # M00 M11 - M10 M01 = d z - z d = 1; the other column order gives -1.
    assert col_det(M) == M[0][0] * M[1][1] - M[1][0] * M[0][1] == DiffOpEntry.one(sig)
    assert col_det(M, (1, 0)) == -DiffOpEntry.one(sig)


@pytest.mark.parametrize("order", [(0, 0), (0,), (0, 2), (1, 0, 2)])
def test_col_det_rejects_bad_column_order(order):
    with pytest.raises(ValueError):
        col_det([[F(1), F(2)], [F(3), F(4)]], order)
