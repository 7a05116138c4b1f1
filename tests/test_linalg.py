import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from gaudin.algebra import AlgebraSignature, Mode
from gaudin.linalg import (
    Eliminator,
    _Tag,
    col_det,
    col_minor,
    col_reorder,
    matmul,
    power_traces,
    rank,
    solve_combination,
)
from gaudin.manin import _inverse
from gaudin.ratfun import DiffOpEntry, LaxEntry, RatFun

from oracles import (
    dense_rank,
    letter_matrix,
    noncommuting_operator_matrix,
    permutation_col_det,
    span_dimension,
    spans_equal,
)


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


def kept(vectors):
    """Indices of the vectors that one Eliminator keeps as pivot rows."""
    e = Eliminator()
    return [i for i, v in enumerate(vectors) if e.add(v)]


def test_eliminator_keeps_the_first_of_each_dependency():
    vectors = [{"u": F(1), "v": F(2)}, {}, {"u": F(2), "v": F(4)}, {"w": Fraction(1, 3)},
               {"u": F(1), "v": F(2), "w": F(5)}, {"v": F(1)}]
    assert kept(vectors) == [0, 3, 5]
    assert kept([]) == []
    assert kept([{}, {}]) == []


def _greedy_independent(vectors):
    """Indices that raise the span dimension, by one dense rank per vector."""
    kept, out = [], []
    for i, vec in enumerate(vectors):
        if span_dimension(kept + [vec]) > span_dimension(kept):
            kept.append(vec)
            out.append(i)
    return out


def _random_vectors(rng, keys):
    """Up to 8 sparse vectors over ``keys``, with duplicates, scaled copies
    and zero vectors among them."""
    vectors = []
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if vectors and roll < 0.2:              # a duplicate
            vectors.append(dict(rng.choice(vectors)))
        elif vectors and roll < 0.4:            # a scaled copy
            c = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
            vectors.append({k: c * v for k, v in rng.choice(vectors).items()})
        elif roll < 0.5:                        # a zero vector, possibly with zero entries
            vectors.append({k: Fraction(0) for k in rng.sample(keys, rng.randint(0, 2))})
        else:
            vectors.append({k: Fraction(rng.choice([-4, -1, 1, 2, 3]), rng.choice([1, 1, 3, 4]))
                            for k in rng.sample(keys, rng.randint(1, 4))})
    return vectors


def test_eliminator_matches_a_greedy_span_dimension_oracle():
    rng = random.Random(2718)
    keys = ["a", "b", "c", "d", "e", "f", "g"]
    for _ in range(200):
        vectors = _random_vectors(rng, keys)
        assert kept(vectors) == _greedy_independent(vectors)
    assert kept(iter([{"a": F(1)}, {"a": F(2)}, {"b": F(1)}])) == [0, 2]


def test_reduce_keeps_no_state_and_add_agrees_with_it():
    rng = random.Random(2719)
    tags = [_Tag(), _Tag()]
    keys = ["a", "b", "c", "d", "e", *tags]
    for _ in range(200):
        e = Eliminator()
        vectors = _random_vectors(rng, keys)
        for vec in vectors + _random_vectors(rng, keys):
            rows = [(key, a, dict(row)) for key, a, row in e.rows]
            remainder = e.reduce(vec)
            assert e.reduce(vec) == remainder
            assert [(key, a, dict(row)) for key, a, row in e.rows] == rows
            expected = any(type(k) is not _Tag for k in remainder)
            assert e.add(vec) is expected
            assert len(e.rows) == len(rows) + expected
            if expected:
                assert e.rows[-1][2] == remainder
        # a tag key never becomes a pivot, and without tags the remainder
        # is empty exactly on the span of the vectors kept so far
        assert all(type(key) is not _Tag and row[key] == a for key, a, row in e.rows)
        plain = [{k: v for k, v in vec.items() if type(k) is not _Tag} for vec in vectors]
        e = Eliminator()
        for i, vec in enumerate(plain):
            assert (not e.reduce(vec)) is (span_dimension(plain[:i + 1]) == span_dimension(plain[:i]))
            e.add(vec)


def test_a_tag_only_vector_is_never_kept():
    tag = _Tag()
    e = Eliminator()
    assert e.add({tag: F(2)}) is False
    assert e.add({tag: F(1), "a": F(3)}) is True
    assert e.rows == [("a", 3, {tag: 1, "a": 3})]
    assert e.reduce({"a": F(1)}) == {tag: -1}
    assert e.add({"a": F(1)}) is False


def test_mixed_key_types_need_no_key_order():
    # str and tuple keys together, and the int and (pole, order) keys of a
    # RatFun's terms, cannot be sorted; the keys are taken in first-seen order
    vectors = [{"a": F(1), (1, 2): F(2)}, {(1, 2): F(1)}]
    assert solve_combination(vectors, {"a": F(1), (1, 2): F(3)}) == [F(1), F(1)]
    assert solve_combination(vectors, {"b": F(1)}) is None
    assert span_dimension(vectors) == 2
    assert spans_equal(vectors, [{"a": F(1)}, {(1, 2): F(5)}])
    f = RatFun.z() + RatFun.one_over_z_minus(2)         # keys 1 and (2, 1)
    g = RatFun.one_over_z_minus(2)
    assert solve_combination([f.terms, g.terms], (f + g + g).terms) == [F(1), F(2)]


def test_solve_combination_inconsistent():
    vectors = [{"u": F(1)}]
    target = {"u": F(1), "v": F(1)}
    assert solve_combination(vectors, target) is None


def test_inverse_needs_a_row_swap():
    A = [[F(0), F(2)], [F(3), Fraction(1, 2)]]          # the first pivot needs a swap
    inverse = _inverse(A)
    assert inverse == [[Fraction(-1, 12), Fraction(1, 3)], [Fraction(1, 2), F(0)]]
    assert matmul(A, inverse) == [[F(1), F(0)], [F(0), F(1)]]


def test_inverse_of_a_singular_matrix_is_none():
    assert _inverse([[F(2), F(4)], [F(1), F(2)]]) is None    # the rows are proportional
    assert _inverse([[F(0)]]) is None


def test_int_keys_do_not_meet_the_internal_tags():
    # keys 0..4 are also the indices of the vectors and of the target, so a
    # tag that were an int would merge with them
    v0, v1, v3 = {0: F(3), 1: F(2)}, {1: F(1), 2: F(-1)}, {3: Fraction(1, 2), 4: F(1)}
    v2 = {k: v0.get(k, 0) + 3 * v1.get(k, 0) for k in range(3)}      # dependent
    vectors = [v0, v1, v2, v3]
    target = {0: F(6), 1: F(3), 2: F(1), 3: F(2), 4: F(4)}        # 2 v0 - v1 + 4 v3
    assert solve_combination(vectors, target) == [F(2), F(-1), F(0), F(4)]
    assert solve_combination(vectors, {**target, 4: F(5)}) is None
    assert kept(vectors) == [0, 1, 3]
    assert rank([[vec.get(k, 0) for k in range(5)] for vec in vectors]) == 3


# The elimination against sympy's reduced row echelon form.  The matrices
# have zero rows, duplicate rows and scaled copies of rows, so their rank is
# below the row count and the elimination clears whole rows.
def _random_rational_matrix(rng, nrows, ncols):
    base = [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7, 12)))
             if rng.random() < 0.7 else Fraction(0) for _ in range(ncols)]
            for _ in range(max(1, nrows - 3))]
    rows = base + [[Fraction(0)] * ncols, list(rng.choice(base)),
                   [v * Fraction(-5, 3) for v in rng.choice(base)]]
    rng.shuffle(rows)
    return rows[:nrows]


def _sympy_rref(rows):
    sympy = pytest.importorskip("sympy")
    reduced, pivots = sympy.Matrix(rows).rref()
    return ([[Fraction(int(v.p), int(v.q)) for v in reduced.row(i)]
             for i in range(reduced.rows)], list(pivots))


def test_eliminator_matches_sympy_rref_pivots():
    rng = random.Random(1410)
    for _ in range(40):
        rows = _random_rational_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        _, expected_pivots = _sympy_rref(rows)
        columns = [{i: row[j] for i, row in enumerate(rows)} for j in range(len(rows[0]))]
        assert kept(columns) == expected_pivots
        assert rank(rows) == len(expected_pivots)


def test_solve_combination_matches_sympy():
    rng = random.Random(1413)
    solved = 0
    for _ in range(30):
        dim, count = rng.randint(2, 6), rng.randint(1, 5)
        cols = _random_rational_matrix(rng, count, dim)
        vectors = [{k: v for k, v in enumerate(col) if v} for col in cols]
        if rng.random() < 0.7:
            weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in cols]
            target = {k: sum((w * col[k] for w, col in zip(weights, cols)), Fraction(0))
                      for k in range(dim)}
        else:
            target = {k: Fraction(rng.randint(-3, 3)) for k in range(dim)}
        target = {k: v for k, v in target.items() if v}
        keys = sorted({k for vec in vectors for k in vec} | set(target))
        aug = [[vec.get(k, Fraction(0)) for vec in vectors] + [target.get(k, Fraction(0))]
               for k in keys] if keys else []
        coeffs = solve_combination(vectors, target)
        if not keys:
            assert coeffs == [Fraction(0)] * count
            continue
        reduced, pivots = _sympy_rref(aug)
        if count in pivots:
            assert coeffs is None
            continue
        expected = [Fraction(0)] * count
        for row, col in enumerate(pivots):
            expected[col] = reduced[row][count]
        assert coeffs == expected
        combo = {k: sum((c * vec.get(k, Fraction(0)) for c, vec in zip(coeffs, vectors)),
                        Fraction(0)) for k in keys}
        assert {k: v for k, v in combo.items() if v} == target
        solved += 1
    assert solved >= 10


def test_rank_accepts_integer_entries():
    assert rank([[1, 2, 3], [2, 4, 6], [0, 1, Fraction(1, 2)]]) == 2


def test_rank_of_integer_rows_matches_dense_elimination():
    # random rows pivot out of column order, so a reduction must scale the
    # columns before the pivot too; combinations of earlier rows add no rank
    rng = random.Random(1417)
    deficient = 0
    for _ in range(60):
        ncols = rng.randint(1, 6)
        rows = [[rng.choice([0, 0, rng.randint(-5, 5)]) for _ in range(ncols)]
                for _ in range(rng.randint(1, 5))]
        for _ in range(rng.randint(0, 3)):
            weights = [rng.randint(-3, 3) for _ in rows]
            rows.append([sum(w * row[k] for w, row in zip(weights, rows)) for k in range(ncols)])
        rng.shuffle(rows)
        assert rank(rows) == dense_rank(rows)
        deficient += rank(rows) < min(len(rows), ncols)
    assert deficient > 20


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
    # M00 M11 - M10 M01 = d z - z d = 1; the other column order gives -1,
    # the order's sign times the minor on the columns (1, 0), M01 M10 - M11 M00 = 1
    assert col_det(M) == M[0][0] * M[1][1] - M[1][0] * M[0][1] == DiffOpEntry.one(sig)
    assert col_minor(M, (0, 1), (1, 0), {}) == DiffOpEntry.one(sig)


def test_col_minor_of_commuting_entries_is_alternating_in_its_columns():
    M = [[F(2), F(-1), F(3)], [F(1), F(4), F(0)], [F(5), F(2), F(1)]]
    memo: dict = {}
    rows = (0, 1, 2)
    # a repeated column gives zero and a swap of two columns flips the sign
    assert col_minor(M, rows, (0, 2, 0), memo) == 0
    assert col_minor(M, (0, 2), (1, 1), memo) == 0
    assert col_minor(M, rows, (1, 0, 2), memo) == -col_minor(M, rows, (0, 1, 2), memo)
    assert col_minor(M, (1, 2), (2, 0), memo) == M[1][2] * M[2][0] - M[2][2] * M[1][0]
    assert memo[rows, (0, 1, 2)] == col_det(M) == F(-45)
    # one entry per minor of two or more columns, none for single entries
    assert all(len(cols) >= 2 and len(r) == len(cols) for r, cols in memo)


def column_sequences(n: int) -> list[tuple[int, ...]]:
    """Every ordering of 0..n-1 and every length-n sequence in which one
    column appears twice and the others at most once."""
    seqs = set(permutations(range(n)))
    for a in range(n):
        for b in range(n):
            if a != b:
                multiset = [c for c in range(n) if c != b] + [a]
                seqs.update(permutations(multiset))
    return sorted(seqs)


@pytest.mark.parametrize("kind", ["letters", "operators"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_col_reorder_matches_the_permutation_sum(kind, n):
    # noncommuting entries, with d/dz parts for the operators: not Manin,
    # so the remainder R is the full difference from the sorted minor
    E = letter_matrix(n) if kind == "letters" else noncommuting_operator_matrix(n).entries
    rows = tuple(range(n))
    memo: dict = {}
    seqs = column_sequences(n)
    assert len(seqs) == factorial(n) * (1 + n * (n - 1) // 2)
    reference = permutation_col_det(E)
    nonzero = 0
    for cols in seqs:
        s, R = col_reorder(E, rows, cols, memo)
        minor = permutation_col_det([[E[r][c] for c in cols] for r in rows])
        if len(set(cols)) < n:
            assert s == 0
            difference = minor
        else:
            assert s == (-1) ** sum(x > y for i, x in enumerate(cols) for y in cols[i + 1:])
            difference = minor - reference if s > 0 else minor + reference
        assert (R is None) == (not difference)
        if R is not None:
            assert R == difference
            nonzero += 1
    assert nonzero or n == 1


def test_col_reorder_on_a_commuting_matrix_reads_only_2x2_minors():
    M = [[F(2), F(-1), F(3)], [F(1), F(4), F(0)], [F(5), F(2), F(1)]]
    memo: dict = {}
    for cols in column_sequences(3):
        s, R = col_reorder(M, (0, 1, 2), cols, memo)
        assert R is None
        assert s * col_det(M) == col_minor(M, (0, 1, 2), cols, {})
    # only the 2x2 minors of the adjacent swaps are read
    assert {len(rows) for rows, _ in memo} == {2}
