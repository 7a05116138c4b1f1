"""Independent oracles used by the tests.

These deliberately avoid the library's straightening / bracket code paths:
the free-word reducer normal-orders by right-to-left insertion without
memoization, the numeric Poisson oracle differentiates by exact finite
differences, and the block-operator oracle multiplies plain Fraction matrices
of finite-difference gradients.  Agreement between these and the kernel is evidence, not
circularity.  The sampled Jacobi test is the reference for the exhaustive
letter-triple certificate in ``gaudin.poisson``: it runs the Leibniz bracket
on random polynomials instead of summing table entries, and the full
ordered-pair bracket table is the reference for the centre-and-basis
certificate of ``manin.commutation_matrix``.  The Manin test that brackets
every pair of matrix positions is the reference for ``manin.is_manin``, which
states each relation once, and ``commutator_manin`` states each relation by
entry commutators, where ``is_manin`` reads 2x2 column minors.  The
permutation-sum column determinant ``permutation_col_det`` and the adjugate
``minor_adjugate`` built from it on minor copies are the references for the
memoized Laplace expansion ``linalg.col_minor`` and for the Cramer check that
reads its entries from it.  ``cayley_hamilton_residual`` sums the
characteristic polynomial of a matrix power by power, each coefficient
written on the left of its power, and is the reference for the Horner sum
of the Cayley-Hamilton check.  ``quantum_power_traces`` runs the
recursion P_k = P_(k-1) L - d/dz P_(k-1) of the iterated quantum powers,
whose traces the tests compare with the d/dz-free coefficients of
Tr (d/dz - L)^k.  The seeded random letters, words, polynomials and
differential-operator matrices the tests draw are generated here as well.

``fraction_letter_table`` compiles a block operator by summing its block
formula in Fractions; it is the reference for the integer letter table.

Three references are constructions rather than kernels.
``elementary_glue`` builds the pair of Lax matrices of one gluing step
directly from the fixed poles and the collapsing sites; the tests compare
``gluing.iterate_pattern`` with it.  The paper builds the limit algebra of a
tail collapse through two embeddings of enveloping algebras,
``diagonal_embedding`` (spread the last tensor factor diagonally over the
trailing sites) and ``shift_embedding`` (move all site indices up); the
tests compare ``gluing.limit_gaudin_algebra`` with it.  ``span_dimension``
and ``spans_equal`` compare spans of sparse vectors by ``dense_rank``, a
textbook Gaussian elimination kept apart from the sparse one in
``gaudin.linalg``.
"""

from __future__ import annotations

import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Sequence

from gaudin import linalg
from gaudin.algebra import (
    AlgebraSignature,
    Letter,
    Mode,
    ModeError,
    NCPoly,
    poisson_bracket,
)
from gaudin.gluing import LimitFamily
from gaudin.lax import LaxMatrix, lax_from_groups
from gaudin.manin import DiffOpMatrix
from gaudin.ratfun import DiffOpEntry, LaxEntry, RatFun


def random_letter(rng: random.Random, sig: AlgebraSignature) -> Letter:
    return (rng.randint(1, sig.sites), rng.randint(1, sig.rank), rng.randint(1, sig.rank))


def random_word(rng: random.Random, sig: AlgebraSignature, degree: int):
    return tuple(sorted(random_letter(rng, sig) for _ in range(degree)))


def random_ncpoly(rng: random.Random, sig: AlgebraSignature,
                  max_degree: int = 2, terms: int = 3,
                  coeff_lo: int = -4, coeff_hi: int = 4) -> NCPoly:
    """A seeded random element with nonzero integer coefficients."""
    items = []
    for _ in range(terms):
        deg = rng.randint(1, max_degree)
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(coeff_lo, coeff_hi)
        items.append((random_word(rng, sig, deg), Fraction(coeff)))
    return NCPoly.from_terms(sig, items)


def _letter_bracket(g, h):
    i, a, b = g
    j, c, d = h
    if i != j:
        return []
    out = []
    if b == c:
        out.append(((i, a, d), 1))
    if d == a:
        out.append(((i, c, b), -1))
    return out


def leibniz_terms(f_terms: dict, g_terms: dict, table=None) -> dict:
    """{F,G} expanded term by term and position by position: each letter copy
    of each F word against each letter copy of each G word, the bracket of
    the two letters (``table`` or the Lie-Poisson rule) times the remaining
    letters, every product sorted into a word.  A ``table`` is read in the
    library's form (d, rules), each integer numerator divided by d."""
    d, rules = (1, None) if table is None else table
    out: dict = {}
    for w1, c1 in f_terms.items():
        for w2, c2 in g_terms.items():
            for s, g in enumerate(w1):
                for t, h in enumerate(w2):
                    rule = _letter_bracket(g, h) if rules is None else rules.get((g, h), ())
                    for letter, k in rule:
                        word = tuple(sorted(w1[:s] + w1[s + 1:] + w2[:t] + w2[t + 1:]
                                            + (letter,)))
                        out[word] = out.get(word, Fraction(0)) + c1 * c2 * Fraction(k, d)
    return {w: c for w, c in out.items() if c}


def naive_normal_form(word) -> dict:
    """Reduce a free word to the PBW basis by scanning from the right."""
    if len(word) <= 1:
        return {tuple(word): Fraction(1)}
    # find the last descent instead of the first
    pos = None
    for p in range(len(word) - 2, -1, -1):
        if word[p] > word[p + 1]:
            pos = p
            break
    if pos is None:
        return {tuple(word): Fraction(1)}
    g, h = word[pos], word[pos + 1]
    result: dict = {}
    swapped = word[:pos] + (h, g) + word[pos + 2:]
    for w, c in naive_normal_form(swapped).items():
        result[w] = result.get(w, Fraction(0)) + c
    for letter, sign in _letter_bracket(g, h):
        shorter = word[:pos] + (letter,) + word[pos + 2:]
        for w, c in naive_normal_form(shorter).items():
            result[w] = result.get(w, Fraction(0)) + sign * c
    return {w: c for w, c in result.items() if c}


def naive_mul(p_terms: dict, q_terms: dict) -> dict:
    out: dict = {}
    for w1, c1 in p_terms.items():
        for w2, c2 in q_terms.items():
            for w, k in naive_normal_form(w1 + w2).items():
                coeff = out.get(w, Fraction(0)) + c1 * c2 * k
                if coeff:
                    out[w] = coeff
                else:
                    out.pop(w, None)
    return out


def naive_commutator(p_terms: dict, q_terms: dict) -> dict:
    left = naive_mul(p_terms, q_terms)
    right = naive_mul(q_terms, p_terms)
    for w, c in right.items():
        coeff = left.get(w, Fraction(0)) - c
        if coeff:
            left[w] = coeff
        else:
            left.pop(w, None)
    return left


def eval_terms(terms: dict, point: dict) -> Fraction:
    total = Fraction(0)
    for word, coeff in terms.items():
        val = Fraction(coeff)
        for g in word:
            val *= point[g]
        total += val
    return total


def fd_partial(terms: dict, letter, point: dict, max_degree: int) -> Fraction:
    """Exact derivative along one coordinate via Lagrange interpolation
    through max_degree+1 integer offsets."""
    samples = []
    for t in range(max_degree + 1):
        shifted = dict(point)
        shifted[letter] = point[letter] + t
        samples.append(eval_terms(terms, shifted))
    # derivative at offset 0 of the interpolating polynomial sum_t f_t L_t
    deriv = Fraction(0)
    nodes = list(range(max_degree + 1))
    for t in nodes:
        # L_t'(0) for nodes 0..d
        acc = Fraction(0)
        for m in nodes:
            if m == t:
                continue
            prod = Fraction(1, t - m)
            for k in nodes:
                if k in (t, m):
                    continue
                prod *= Fraction(0 - k, t - k)
            acc += prod
        deriv += samples[t] * acc
    return deriv


def numeric_poisson(f_terms: dict, g_terms: dict, point: dict,
                    max_degree: int) -> Fraction:
    """{F,G}(point) from the coordinate pairing, all derivatives by exact
    finite differences."""
    letters_f = sorted({g for w in f_terms for g in w})
    letters_g = sorted({g for w in g_terms for g in w})
    total = Fraction(0)
    for gf in letters_f:
        df = fd_partial(f_terms, gf, point, max_degree)
        if not df:
            continue
        for gg in letters_g:
            brs = _letter_bracket(gf, gg)
            if not brs:
                continue
            dg = fd_partial(g_terms, gg, point, max_degree)
            if not dg:
                continue
            for letter, sign in brs:
                total += df * dg * sign * point[letter]
    return total


def numeric_block_bracket(blocks: dict, rank: int, f_terms: dict, g_terms: dict,
                          point: dict, max_degree: int) -> Fraction:
    """sum_{i,j} Tr(grad_i F [P_ij, grad_j G]) at a point, with the block
    operator's matrices built as plain r x r lists of Fractions.

    ``blocks`` maps (i, j) to {k: c_k}, so that P_ij = sum_k c_k X_k with X_k
    the matrix of site-k coordinates.  Gradient entry (u, v) at site i is
    dF/dx[v,u]@i, taken by exact finite differences.
    """
    idx = range(rank)

    def gradient(terms, site):
        return [[fd_partial(terms, (site, v + 1, u + 1), point, max_degree)
                 for v in idx] for u in idx]

    def matmul(a, b):
        return [[sum((a[u][w] * b[w][v] for w in idx), Fraction(0))
                 for v in idx] for u in idx]

    total = Fraction(0)
    for (i, j), combo in blocks.items():
        grad_f, grad_g = gradient(f_terms, i), gradient(g_terms, j)
        p = [[sum((c * point[(k, u + 1, v + 1)] for k, c in combo.items()),
                  Fraction(0)) for v in idx] for u in idx]
        pg, gp = matmul(p, grad_g), matmul(grad_g, p)
        comm = [[pg[u][v] - gp[u][v] for v in idx] for u in idx]
        prod = matmul(grad_f, comm)
        total += sum((prod[u][u] for u in idx), Fraction(0))
    return total


def fraction_letter_table(op, sig: AlgebraSignature) -> dict:
    """(g, h) -> {letter: Fraction}: the block formula

        {x[a,b]@i, x[c,d]@j} = sum_k c^ij_k (d_bc x[a,d]@k - d_ad x[c,b]@k)

    accumulated in Fractions, zeros dropped; the reference for the integer
    form of ``poisson.letter_table``."""
    table: defaultdict = defaultdict(lambda: defaultdict(Fraction))
    for (i, j), combo in op.blocks.items():
        for k, coeff in combo.items():
            for a, b, c in product(range(1, sig.rank + 1), repeat=3):
                table[(i, a, b), (j, b, c)][k, a, c] += coeff
                table[(i, a, b), (j, c, a)][k, c, b] -= coeff
    out = {}
    for pair, combo in table.items():
        combo = {letter: coeff for letter, coeff in combo.items() if coeff}
        if combo:
            out[pair] = combo
    return out


def leibniz_jacobiator(table, f, g, h):
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}} through the Leibniz bracket."""
    def br(p, q):
        return poisson_bracket(p, q, table)

    return br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))


def sampled_jacobi(table, sig, rng, trials: int = 8) -> bool:
    """True iff the jacobiator of the letter-table bracket vanishes on
    ``trials`` random triples of degree <= 2 polynomials."""
    return all(
        leibniz_jacobiator(table, *(random_ncpoly(rng, sig, max_degree=2, terms=3)
                                    for _ in range(3))).is_zero()
        for _ in range(trials))


def ordered_pair_brackets(gens, table=None) -> dict:
    """(i, j) -> nonzero bracket terms of gens[i] and gens[j], over every
    ordered pair, the diagonal included: ``naive_commutator`` in Quantum
    mode, ``leibniz_terms`` (with ``table`` when given) in Classical mode."""
    out = {}
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            if g.sig.is_quantum:
                terms = naive_commutator(g.terms, h.terms)
            else:
                terms = leibniz_terms(g.terms, h.terms, table)
            if terms:
                out[(i, j)] = terms
    return out


def random_diffop_matrix(rng: random.Random, sig: AlgebraSignature, n: int,
                         row_sites: bool = False) -> DiffOpMatrix:
    """A seeded n x n matrix whose entries are sums of two letters, each times
    a + b/(z - p) for small integers a, b, p.  By default the letters range
    over every site and each entry carries such a sum times d/dz as well.
    With ``row_sites`` row i uses letters at site i only and no d/dz, so
    entries of different rows commute and the matrix is Manin."""
    def lax(site):
        items = []
        for _ in range(2):
            letter = random_letter(rng, sig)
            if site is not None:
                letter = (site, *letter[1:])
            f = RatFun.const(rng.randint(-2, 2)) + RatFun.one_over_z_minus(
                rng.randint(0, 2)).scale(rng.randint(1, 3))
            items.append(((letter,), f))
        return LaxEntry.from_terms(sig, items)

    rows = []
    for i in range(1, n + 1):
        row = []
        for _ in range(n):
            if row_sites:
                row.append(DiffOpEntry.from_entry(lax(i)))
            else:
                row.append(DiffOpEntry(sig, {0: lax(None), 1: lax(None)}))
        rows.append(row)
    return DiffOpMatrix(sig, rows)


def all_position_pairs_manin(M: DiffOpMatrix) -> list[dict]:
    """Manin witnesses from bracketing every pair of matrix positions: the
    column relation [M_ij, M_kj] for every column and rows i < k, then
    [M_ij, M_kl] - [M_kj, M_il] for every (i, j) < (k, l).  The second loop
    meets each cross relation twice (j and l swapped give the same residual),
    the column relation again at j = l (twice its residual) and the trivial
    case i = k; ``manin_relation`` names the relation a witness violates."""
    n = M.size
    E = M.entries

    def comm(a, b):
        return a * b - b * a

    witnesses = []
    for j in range(n):
        for i in range(n):
            for k in range(i + 1, n):
                res = comm(E[i][j], E[k][j])
                if not res.is_zero():
                    witnesses.append({"kind": "column",
                                      "positions": [[i + 1, j + 1], [k + 1, j + 1]],
                                      "residual": res.render()})
    for i in range(n):
        for k in range(n):
            for j in range(n):
                for l in range(n):
                    if (i, j) >= (k, l):
                        continue
                    res = comm(E[i][j], E[k][l]) - comm(E[k][j], E[i][l])
                    if not res.is_zero():
                        witnesses.append({"kind": "cross",
                                          "positions": [[i + 1, j + 1], [k + 1, l + 1]],
                                          "residual": res.render()})
    return witnesses


def commutator_manin(M: DiffOpMatrix) -> list[dict]:
    """``manin.is_manin``'s witnesses, in its order, from entry commutators:
    [M_ij, M_kj] for the column relation and [M_ij, M_kl] - [M_kj, M_il] for
    the cross relation, for rows i < k and columns j < l."""
    n = M.size
    E = M.entries

    def comm(a, b):
        return a * b - b * a

    witnesses = []
    for i in range(n):
        for k in range(i + 1, n):
            relations = [("column", comm(E[i][j], E[k][j]), j, j) for j in range(n)]
            relations += [("cross", comm(E[i][j], E[k][l]) - comm(E[k][j], E[i][l]), j, l)
                          for j in range(n) for l in range(j + 1, n)]
            for kind, res, j, l in relations:
                if not res.is_zero():
                    witnesses.append({"kind": kind,
                                      "positions": [[i + 1, j + 1], [k + 1, l + 1]],
                                      "residual": res.render()})
    return witnesses


def permutation_col_det(entries, column_order=None):
    """Column determinant of a nonempty square matrix as the signed sum over
    permutations s of the products entries[s(c)][c], the factors taken column
    by column in ``column_order`` (default 0..n-1), the first written first."""
    n = len(entries)
    cols = list(range(n)) if column_order is None else list(column_order)
    total = None
    for perm in permutations(range(n)):
        prod = entries[perm[cols[0]]][cols[0]]
        for c in cols[1:]:
            prod = prod * entries[perm[c]][c]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        if total is None:
            total = -prod if inversions % 2 else prod
        else:
            total = total - prod if inversions % 2 else total + prod
    return total


def minor_adjugate(M: DiffOpMatrix) -> list[list]:
    """adj(M)_ij = (-1)^(i+j) times the column determinant of the copy of M
    without row j and column i (1 for a 1x1 matrix)."""
    n = M.size
    E = M.entries
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            sub = [[e for c, e in enumerate(r) if c != i] for k, r in enumerate(E) if k != j]
            cof = permutation_col_det(sub) if sub else DiffOpEntry.one(M.sig)
            row.append(-cof if (i + j) % 2 else cof)
        out.append(row)
    return out


def cramer_residuals(M: DiffOpMatrix) -> list[dict]:
    """The nonzero entries of adj(M) M - det_col(M) Id, from ``minor_adjugate``
    and ``permutation_col_det``, as ``cramer`` witnesses in row-major order."""
    n = M.size
    E = M.entries
    adj = minor_adjugate(M)
    det = permutation_col_det(E)
    out = []
    for i in range(n):
        for j in range(n):
            acc = adj[i][0] * E[0][j]
            for k in range(1, n):
                acc = acc + adj[i][k] * E[k][j]
            if i == j:
                acc = acc - det
            if not acc.is_zero():
                out.append({"position": [i + 1, j + 1], "residual": acc.render()})
    return out


def cayley_hamilton_residual(M: DiffOpMatrix) -> list[dict]:
    """The nonzero entries of sum_k (-1)^(n-k) sigma_(n-k) M^k, k = 0..n,
    as ``cayley_hamilton`` witnesses in row-major order.  sigma_j sums the
    ``permutation_col_det`` of the j x j principal submatrices, M^k is
    M^(k-1) M, and each coefficient is multiplied on the left of M^k."""
    n = M.size
    E = M.entries
    one, zero = DiffOpEntry.one(M.sig), DiffOpEntry.zero(M.sig)
    sigma = [one]
    for j in range(1, n + 1):
        total = zero
        for keep in combinations(range(n), j):
            total = total + permutation_col_det([[E[r][c] for c in keep] for r in keep])
        sigma.append(total)
    power = [[one if i == j else zero for j in range(n)] for i in range(n)]
    acc = [[zero] * n for _ in range(n)]
    for k in range(n + 1):
        if k:
            power = [[sum((power[i][l] * E[l][j] for l in range(n)), zero)
                      for j in range(n)] for i in range(n)]
        coeff = -sigma[n - k] if (n - k) % 2 else sigma[n - k]
        acc = [[a + coeff * b for a, b in zip(ra, rb)] for ra, rb in zip(acc, power)]
    return [{"position": [i + 1, j + 1], "residual": acc[i][j].render()}
            for i in range(n) for j in range(n) if not acc[i][j].is_zero()]


def quantum_power_traces(L: LaxMatrix) -> list[LaxEntry]:
    """Tr P_k for k = 1..size, where P_0 = Id and P_k = P_(k-1) L - d/dz P_(k-1),
    d/dz acting on each entry.  These are the iterated quantum powers of L;
    Tr P_k is (-1)^k times the d/dz-free coefficient of Tr (d/dz - L)^k,
    which ``linalg.power_traces`` expands instead."""
    n = L.size
    one, zero = LaxEntry.one(L.sig), LaxEntry.zero(L.sig)
    power = [[one if i == j else zero for j in range(n)] for i in range(n)]
    traces = []
    for _ in range(n):
        power = [[a - b.derivative() for a, b in zip(ra, rb)]
                 for ra, rb in zip(linalg.matmul(power, L.entries), power)]
        traces.append(sum((power[i][i] for i in range(n)), zero))
    return traces


def manin_relation(witness: dict) -> tuple:
    """The relation a Manin witness violates, 1-based: ("column", i, k, j) or
    ("cross", i, k, j, l) with i < k and j < l."""
    (i, j), (k, l) = witness["positions"]
    if witness["kind"] == "column" or j == l:
        return ("column", i, k, j)
    return ("cross", i, k, min(j, l), max(j, l))


def elementary_glue(sig: AlgebraSignature, fixed: Sequence, collapsing: Sequence,
                    w) -> LimitFamily:
    """One gluing step: the first k poles stay fixed, the remaining sites
    collapse to w keeping relative positions.  Yields the pair

        L1(z) = sum_{i>k} X_i/(z - u_i)
        L2(z) = sum_{i<=k} X_i/(z - z_i) + (sum_{i>k} X_i)/(z - w)
    """
    k = len(fixed)
    tail = sig.sites - k
    if tail < 1:
        raise ValueError("nothing to collapse")
    if len(collapsing) != tail:
        raise ValueError(f"need {tail} relative positions, got {len(collapsing)}")
    fixed = [Fraction(p) for p in fixed]
    coll = [Fraction(u) for u in collapsing]
    w = Fraction(w)
    if len(set(fixed + [w])) != k + 1:
        raise ValueError("fixed poles and w must be pairwise distinct")
    if len(set(coll)) != tail:
        raise ValueError("relative positions must be pairwise distinct")
    l1 = lax_from_groups(sig, [([k + 1 + t], coll[t]) for t in range(tail)], label="L1")
    groups2 = [([i + 1], fixed[i]) for i in range(k)]
    groups2.append((list(range(k + 1, sig.sites + 1)), w))
    l2 = lax_from_groups(sig, groups2, label="L2")
    return LimitFamily(sig, [l1, l2], provenance={
        "label": "elementary_glue", "k": k, "w": w,
    })


def diagonal_embedding(p: NCPoly, target_sites: int) -> NCPoly:
    """Spread the last tensor factor diagonally: for p over k+1 sites, the
    generator e[a,b]@(k+1) goes to  sum_{j=k+1..target} e[a,b]@j."""
    src = p.sig
    if not src.is_quantum:
        raise ModeError("the diagonal embedding acts on Quantum-mode elements")
    if target_sites < src.sites:
        raise ValueError(f"cannot embed {src.sites} sites into {target_sites}")
    tsig = AlgebraSignature(src.rank, target_sites, Mode.QUANTUM)
    last = src.sites
    out = tsig.zero()
    for word, coeff in p.terms.items():
        acc = tsig.one() * coeff
        for (i, a, b) in word:
            if i < last:
                factor = tsig.gen(i, a, b)
            else:
                factor = tsig.zero()
                for j in range(last, target_sites + 1):
                    factor = factor + tsig.gen(j, a, b)
            acc = acc * factor
        out = out + acc
    return out


def shift_embedding(p: NCPoly, target_sites: int, shift: int | None = None) -> NCPoly:
    """Shift all site indices up by k, embedding the trailing factors:
    e[a,b]@j -> e[a,b]@(j+k)."""
    src = p.sig
    if not src.is_quantum:
        raise ModeError("the shift embedding acts on Quantum-mode elements")
    if shift is None:
        shift = target_sites - src.sites
    if shift < 0 or src.sites + shift > target_sites:
        raise ValueError(f"cannot shift {src.sites} sites by {shift} into {target_sites}")
    tsig = AlgebraSignature(src.rank, target_sites, Mode.QUANTUM)
    terms = {
        tuple((i + shift, a, b) for (i, a, b) in word): coeff
        for word, coeff in p.terms.items()
    }
    return NCPoly(tsig, terms)


def dense_rank(rows) -> int:
    """Row rank by textbook Gaussian elimination over ``Fraction``: swap a
    nonzero pivot up, subtract multiples of it from the rows below."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            factor = mat[i][col] / mat[rank][col]
            if factor:
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _dense(vectors, keys) -> list[list[Fraction]]:
    return [[Fraction(vec.get(k, 0)) for k in keys] for vec in vectors]


def span_dimension(vectors) -> int:
    """Dimension of the span of sparse vectors (dicts key -> rational)."""
    keys = list(dict.fromkeys(k for vec in vectors for k in vec))
    return dense_rank(_dense(vectors, keys))


def spans_equal(first, second) -> bool:
    """Whether two sequences of sparse vectors span the same space."""
    keys = list(dict.fromkeys(k for vec in [*first, *second] for k in vec))
    a, b = _dense(first, keys), _dense(second, keys)
    return dense_rank(a) == dense_rank(b) == dense_rank(a + b)
