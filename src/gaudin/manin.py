"""Manin-matrix machinery over the differential-operator algebra.

A (column) Manin matrix has commuting entries within each column and equal
cross commutators in every 2x2 submatrix.  For such matrices the column
determinant is well behaved: it ignores the column order, satisfies the left
Cramer formula, Cayley-Hamilton, and the Newton identities.  The matrix
d/dz - L(z) of a Gaudin-type Lax matrix is the motivating example; the
coefficients of its column determinant are the commuting quantum
Hamiltonians, and traces of its powers give the quantum trace family.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations, islice, permutations, product
from math import factorial
from operator import add

from .algebra import (
    AlgebraSignature,
    LetterTable,
    ModeError,
    NCPoly,
    SignatureMismatchError,
    bracket,
)
from . import linalg
from .lax import LaxMatrix, pole_site_groups
from .ratfun import DiffOpEntry, LaxEntry
from .reports import CheckReport


class DiffOpMatrix:
    """Square matrix of DiffOpEntry values; the Manin-candidate container.

    It keeps the entries and one table of column minors
    (``linalg.col_minor``) that every determinant check reads, so its
    entries must not change once one is read.  Matrix arithmetic runs on
    the entry lists (``linalg.matmul``)."""

    def __init__(self, sig: AlgebraSignature, entries: list[list[DiffOpEntry]]):
        self.sig = sig
        self.entries = entries
        self._minors: dict = {}

    @property
    def size(self) -> int:
        return len(self.entries)

    def is_diff_free(self) -> bool:
        return all(e.order <= 0 for row in self.entries for e in row)

    def col_minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> DiffOpEntry:
        """The column minor on the ascending ``rows`` and the column sequence
        ``cols``, read from the matrix's table (see ``linalg.col_minor``)."""
        return linalg.col_minor(self.entries, rows, cols, self._minors)

    def det(self) -> DiffOpEntry:
        """det_col of the matrix in the default column order."""
        return col_det(self)

    @cached_property
    def minor_sums(self) -> list[DiffOpEntry]:
        """sigma_0 = 1, sigma_1, ..., sigma_n with det_col(t + M) = sum_k sigma_k t^(n-k).

        For a central variable t, expanding the column determinant column by
        column gives  det_col(t + M) = sum over index sets S of t^(n-|S|) det_col(M_S)
        for any matrix, M_S being the principal submatrix with its column
        order kept; so sigma_k sums the column determinants of the k x k ones.
        """
        n = self.size
        return [DiffOpEntry.one(self.sig)] + [
            reduce(add, (self.col_minor(keep, keep) for keep in combinations(range(n), k)))
            for k in range(1, n + 1)
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOpMatrix):
            return NotImplemented
        return self.sig == other.sig and self.entries == other.entries


def partial_minus(L: LaxMatrix) -> DiffOpMatrix:
    """The differential-operator matrix d/dz - L(z)."""
    sig = L.sig
    out = []
    for a in range(L.size):
        row = []
        for b in range(L.size):
            e = DiffOpEntry.from_entry(-L.entries[a][b])
            if a == b:
                e = e + DiffOpEntry.partial(sig)
            row.append(e)
        out.append(row)
    return DiffOpMatrix(sig, out)


def is_manin(M: DiffOpMatrix) -> CheckReport:
    """Column Manin test: for every pair of rows i < k,

    - ``column``: [M_ij, M_kj] = 0 for every column j;
    - ``cross``: [M_ij, M_kl] = [M_kj, M_il] for every pair of columns j < l.

    The residuals are 2x2 column minors on rows (i, k), read from the
    matrix's table: the minor on columns (j, j), and the sum of those on
    (j, l) and (l, j).  Each violated relation gives one witness naming its
    positions (1-based) and rendering the residual.
    """
    n = M.size
    witnesses = []

    def record(kind, res, i, j, k, l):
        if not res.is_zero():
            witnesses.append({
                "kind": kind,
                "positions": [[i + 1, j + 1], [k + 1, l + 1]],
                "residual": res.render(),
            })

    for i, k in combinations(range(n), 2):
        for j in range(n):
            record("column", M.col_minor((i, k), (j, j)), i, j, k, j)
        for j, l in combinations(range(n), 2):
            record("cross", M.col_minor((i, k), (j, l)) + M.col_minor((i, k), (l, j)),
                   i, j, k, l)
    return CheckReport(
        check="is_manin",
        passed=not witnesses,
        params={"size": n},
        witnesses=witnesses,
    )


def col_det(M: DiffOpMatrix, column_order: tuple[int, ...] | None = None) -> DiffOpEntry:
    """Column determinant: signed sum over permutations with factors taken
    column by column, the first column's factor written first (see
    ``linalg.col_det``), read from the matrix's table of minors.  The empty
    matrix has determinant 1."""
    if not M.entries:
        return DiffOpEntry.one(M.sig)
    return linalg.col_det(M.entries, column_order, M._minors)


def column_order_invariance(M: DiffOpMatrix) -> CheckReport:
    """Evaluate the column expansion in every column order and compare with
    the default order's; n! determinants in all."""
    n = M.size
    if n > 4:
        raise ValueError("column-order sweep is limited to n <= 4")
    reference = M.det()
    witnesses = []
    for order in islice(permutations(range(n)), 1, None):    # skip the identity
        other = col_det(M, order)
        if other != reference:
            witnesses.append({
                "order": [c + 1 for c in order],
                "difference": (other - reference).render(),
            })
    return CheckReport(
        check="column_order_invariance",
        passed=not witnesses,
        params={"size": n, "orders": factorial(n)},
        witnesses=witnesses,
    )


def manin_property_suite(M: DiffOpMatrix) -> list[CheckReport]:
    """Cramer, Cayley-Hamilton and Schur checks for a Manin candidate.

    Cayley-Hamilton needs d/dz-free entries (substituting the matrix for t is
    only meaningful in the scalar setting); Schur needs an invertible leading
    block, which at desk scale means scalar entries, and is reported as
    skipped otherwise.
    """
    reports = [is_manin(M)]
    n = M.size

    # Left Cramer formula: adj(M) M = det_col(M) Id.  (adj(M) M)_ij is the
    # last-column expansion of the minor on all rows and the columns other
    # than i followed by j.  For i = j that is det_col in another column
    # order, as large as det_col(M); read once unless the sweep kept it.
    det = M.det()
    rows = tuple(range(n))
    witnesses = []
    for i in range(n):
        others = rows[:i] + rows[i + 1:]
        for j in range(n):
            key = (rows, others + (j,))
            read_once = i == j and key not in M._minors
            entry = M.col_minor(*key)
            if read_once:
                M._minors.pop(key, None)     # a 1x1 matrix keeps no minors
            entry = -entry if (i + n - 1) % 2 else entry
            res = entry - det if i == j else entry
            if not res.is_zero():
                witnesses.append({"position": [i + 1, j + 1], "residual": res.render()})
    reports.append(CheckReport(
        check="cramer", passed=not witnesses, params={"size": n}, witnesses=witnesses,
    ))

    # Cayley-Hamilton with coefficients substituted on the left:  the
    # t^k coefficient of det_col(t - M) is c_k = (-1)^(n-k) sigma_(n-k), and
    # sum_k c_k M^k is summed by Horner, ((M + c_(n-1)) M + c_(n-2)) M + ...,
    # step k adding c_(n-k) = (-1)^k sigma_k; each c stays on the left, since
    # (A + c) M = A M + c M.
    if M.is_diff_free():
        sigma = M.minor_sums
        acc = M.entries
        for k in range(1, n + 1):
            if k > 1:
                acc = linalg.matmul(acc, M.entries)
            coeff = -sigma[k] if k % 2 else sigma[k]
            acc = [[e + coeff if i == j else e for j, e in enumerate(row)]
                   for i, row in enumerate(acc)]
        witnesses = [
            {"position": [i + 1, j + 1], "residual": acc[i][j].render()}
            for i in range(n) for j in range(n)
            if not acc[i][j].is_zero()
        ]
        reports.append(CheckReport(
            check="cayley_hamilton", passed=not witnesses,
            params={"size": n}, witnesses=witnesses,
        ))
    else:
        reports.append(CheckReport(
            check="cayley_hamilton", passed=None, params={"size": n},
            info={"skipped": "entries carry d/dz; substitution t -> M undefined"},
        ))

    reports.append(_schur_check(M))
    return reports


def _scalar_matrix(M: DiffOpMatrix) -> list[list[Fraction]] | None:
    """M's entries as rational numbers, or None unless every entry is one."""
    out = []
    for row in M.entries:
        r = []
        for e in row:
            lax = e.entry(0)
            f = lax.constant_term()
            if e.order > 0 or lax.terms.keys() - {()} or f.terms.keys() - {0}:
                return None
            r.append(Fraction(f.terms.get(0, 0)))
        out.append(r)
    return out


def _inverse(mat: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Inverse of a square rational matrix, or None if it is singular: its
    i-th column expresses the i-th unit vector in the columns of ``mat``."""
    n = len(mat)
    columns = [{i: row[j] for i, row in enumerate(mat)} for j in range(n)]
    solved = [linalg.solve_combination(columns, {i: Fraction(1)}) for i in range(n)]
    if any(x is None for x in solved):
        return None
    return [list(row) for row in zip(*solved)]


def _schur_check(M: DiffOpMatrix) -> CheckReport:
    n = M.size
    if n < 2:
        return CheckReport(check="schur", passed=None, params={"size": n},
                           info={"skipped": "matrix too small to split"})
    k = n // 2
    scal = _scalar_matrix(M)
    if scal is None:
        return CheckReport(check="schur", passed=None, params={"size": n},
                           info={"skipped": "blocks are not invertible in the "
                                            "entry ring (noncommutative or d/dz entries)"})
    A = [row[:k] for row in scal[:k]]
    B = [row[k:] for row in scal[:k]]
    C = [row[:k] for row in scal[k:]]
    D = [row[k:] for row in scal[k:]]
    Ainv = _inverse(A)
    if Ainv is None:
        return CheckReport(check="schur", passed=None, params={"size": n, "split": k},
                           info={"skipped": "leading block is singular"})

    def sub(X, Y):
        return [[a - b for a, b in zip(rx, ry)] for rx, ry in zip(X, Y)]

    det, mul = linalg.col_det, linalg.matmul
    lhs = det(scal)
    rhs = det(A) * det(sub(D, mul(mul(C, Ainv), B)))
    ok = lhs == rhs
    witnesses = [] if ok else [{"residual": str(lhs - rhs)}]
    Dinv = _inverse(D)
    if Dinv is not None:
        rhs2 = det(D) * det(sub(A, mul(mul(B, Dinv), C)))
        if lhs != rhs2:
            ok = False
            witnesses.append({"residual_second_form": str(lhs - rhs2)})
    return CheckReport(check="schur", passed=ok, params={"size": n, "split": k},
                       witnesses=witnesses)


def newton_check(M: DiffOpMatrix) -> CheckReport:
    """Newton identities between det_col(t+M) coefficients and trace powers:
    (-1)^(k+1) k sigma_k = sum_{i<k} (-1)^i sigma_i Tr M^(k-i), which need
    the Manin property.

    The adjugate-trace identity  Tr (t+M)^adj = d/dt det_col(t+M)  is not
    checked: expanded in principal column minors it compares the same
    determinants on both sides, so it holds for any matrix once t is central.
    """
    n = M.size
    sig = M.sig
    sigma = M.minor_sums                   # det_col(t + M) = sum sigma_k t^(n-k)
    tau = [None, *linalg.power_traces(M.entries, n)]
    witnesses = []
    for k in range(1, n + 1):
        lhs = sigma[k].scale(Fraction((-1) ** (k + 1) * k))
        rhs = DiffOpEntry.zero(sig)
        for i in range(k):
            rhs = rhs + (sigma[i] * tau[k - i]).scale((-1) ** i)
        if lhs != rhs:
            witnesses.append({"k": k, "residual": (lhs - rhs).render()})
    return CheckReport(
        check="newton_identities", passed=not witnesses,
        params={"size": n}, witnesses=witnesses,
    )


class TalalaevOutput:
    """Coefficients of det_col(d/dz - L) and of the quantum trace powers;
    ``operator`` is d/dz - L, whose table of minors holds the determinant."""

    def __init__(self, lax: LaxMatrix, operator: DiffOpMatrix, qh: list[LaxEntry],
                 qtr: dict[tuple[int, int], LaxEntry]):
        self.lax = lax
        self.operator = operator
        self.qh = qh            # index = power of d/dz, 0..r
        self.qtr = qtr          # (k, j) from Tr (d/dz - L)^k

    @property
    def rank(self) -> int:
        return self.lax.size

    def qh_eval(self, point) -> list[NCPoly]:
        return [e.eval_z(point) for e in self.qh]

    def qtr_diag_eval(self, point) -> list[NCPoly]:
        return [self.qtr[(k, k)].eval_z(point) for k in range(1, self.rank + 1)]

    def to_json_dict(self) -> dict:
        return {
            "matrix": self.lax.label,
            "qh": {str(i): e.render() for i, e in enumerate(self.qh)},
            "qtr": {f"{k},{j}": e.render() for (k, j), e in sorted(self.qtr.items())},
        }


def talalaev_generators(L: LaxMatrix) -> TalalaevOutput:
    """Commuting quantum Hamiltonians from the column determinant of d/dz - L.

    Requires a quantum Gaudin-type matrix (simple poles with disjoint
    site-group residues), which guarantees the linear exchange relations and
    hence the Manin property of d/dz - L.
    """
    if not L.sig.is_quantum:
        raise ModeError("Talalaev generators require a Quantum-mode Lax matrix")
    if pole_site_groups(L) is None:
        raise ValueError("matrix is not of Gaudin type (simple poles with "
                         "disjoint site-group residues)")
    M = partial_minus(L)
    det = col_det(M)
    r = L.size
    qh = [det.entry(i) for i in range(r + 1)]
    qtr: dict[tuple[int, int], LaxEntry] = {}
    for k, tr in enumerate(linalg.power_traces(M.entries, r), start=1):
        for j in range(k + 1):
            qtr[(k, j)] = tr.entry(k - j)
    return TalalaevOutput(lax=L, operator=M, qh=qh, qtr=qtr)


def talalaev_coefficients(out: TalalaevOutput) -> list[tuple[str, NCPoly]]:
    """Residue coefficients of QH_0..QH_(r-1) and of the d/dz-free QTr_k.

    Each generator G has poles only at the poles z_p of L and no polynomial
    part, so G(u) = sum_{p,j} C_pj (u - z_p)^-(j+1).  These functions of u are
    linearly independent, hence [G(u), G'(v)] = 0 for all u and v exactly
    when every coefficient C_pj of G commutes with every C'_qk of G'.  The
    coefficients are labelled like ``QH0[z=1,order 1]``; zero ones and
    scalar multiples of one already listed are dropped.  Raises ValueError
    when a generator is not the sum of its principal parts at those poles.
    """
    L, r = out.lax, out.rank
    named = [(f"QH{i}", out.qh[i]) for i in range(r)]
    named += [(f"QTr{k}", out.qtr[(k, k)]) for k in range(1, r + 1)]
    declared = {pole for pole, _ in L.poles}
    coeffs: list[tuple[str, NCPoly]] = []
    for name, gen in named:
        for f in gen.terms.values():
            for key in f.terms:
                if type(key) is int:
                    raise ValueError(f"{name} has a polynomial part in z")
                if key[0] not in declared:
                    raise ValueError(f"{name} has a pole outside "
                                     f"{[str(p) for p, _ in L.poles]}")
        for pole, _ in L.poles:
            for j, c in enumerate(gen.principal_part(pole)):
                if c and all(c.proportionality(d) is None for _, d in coeffs):
                    coeffs.append((f"{name}[z={pole},order {j}]", c))
    return coeffs


def _centre_letters(sig: AlgebraSignature, table: LetterTable | None) -> list[NCPoly]:
    """Letters whose brackets with x all vanish only when x is central.

    Without a table the bracket with x is a derivation satisfying Jacobi, so
    the elements commuting with x form a subalgebra closed under the
    bracket; the Chevalley letters e[a,a+1]@i and e[a+1,a]@i generate sl_r at
    each site, and sum_a e[a,a]@i is central, so these 2(r-1)N letters
    suffice.  A letter table is only known to define a biderivation, so
    every letter is needed.
    """
    if table is not None:
        return [sig.gen(*g) for g in sig.letters()]
    out = []
    for i in range(1, sig.sites + 1):
        for a in range(1, sig.rank):
            out += [sig.gen(i, a, a + 1), sig.gen(i, a + 1, a)]
    return out


def _generating_set(gens: list[NCPoly], central: list[int], rest: list[int]) -> list[int]:
    """The generating set S: from the span of 1, walk ``central`` and then
    ``rest``, skip an input g in the span, and otherwise put x*g, x*g^2, ...
    in it for every product x kept so far (1 included) while the degree sum
    stays within the top input degree.  S is the inputs of ``rest`` kept."""
    top = max(g.degree for g in gens)
    span = linalg.Eliminator()
    one = NCPoly.one(gens[0].sig)
    span.add(one.terms)
    kept = [(0, one)]
    generators = []
    for i in central + rest:
        g = gens[i]
        if not span.reduce(g.terms):
            continue
        if i in rest:
            generators.append(i)
        for degree, x in list(kept):
            while degree + g.degree <= top:
                x, degree = x * g, degree + g.degree
                if span.add(x.terms):
                    kept.append((degree, x))
    return sorted(generators)


def commutation_matrix(gens: list[NCPoly], labels: list | None = None,
                       table: LetterTable | None = None) -> CheckReport:
    """PASS iff every bracket of two inputs vanishes, certified on the
    centre and a generating set instead of on every pair.

    1. An input whose brackets with the letters of ``_centre_letters`` all
       vanish (in both orders under a table) is central.
    2. The generating set S is chosen by ``_generating_set``: one
       ``linalg.Eliminator`` over the products of the central inputs and
       S, each input tested before its own products join.
    3. The pairs i < j of S, in input order, are bracketed; under a table,
       which need not be antisymmetric, every ordered pair of S, the
       diagonal included.

    Why a PASS proves that every pair of inputs commutes.  Every input is a
    polynomial in the central inputs and S.  The commutator and every
    biderivation, letter tables included, vanish on two such polynomials
    once they vanish on every pair of their generators, by Leibniz.

    A witness is a failing pair of S, both of them inputs, with its
    bracket.  ``info`` records the central inputs, the size of S and the
    pairs bracketed.  A classical letter ``table`` replaces the Lie-Poisson
    rule (see ``algebra.poisson_bracket``).
    """
    if labels is not None and len(labels) != len(gens):
        raise ValueError(f"{len(labels)} labels for {len(gens)} generators")
    if not gens:
        return CheckReport(check="commutation_matrix", passed=True, params={"count": 0},
                           info={"central": 0, "basis": 0, "pairs": 0})
    sig = gens[0].sig
    for g in gens[1:]:
        if g.sig != sig:
            raise SignatureMismatchError("generators live over mixed signatures")
    if labels is None:
        labels = [f"g{i}" for i in range(len(gens))]
    letters = _centre_letters(sig, table)

    def commutes(g: NCPoly, x: NCPoly) -> bool:
        return not bracket(g, x, table) and (table is None or not bracket(x, g, table))

    central = [i for i, g in enumerate(gens) if all(commutes(g, x) for x in letters)]
    rest = sorted(set(range(len(gens))) - set(central),
                  key=lambda i: (gens[i].degree, len(gens[i].terms), i))
    basis = _generating_set(gens, central, rest) if rest else []
    pairs = list(product(basis, repeat=2) if table is not None
                 else combinations(basis, 2))
    witnesses = []
    for i, j in pairs:
        res = bracket(gens[i], gens[j], table)
        if not res.is_zero():
            witnesses.append({"pair": [labels[i], labels[j]], "bracket": res.render()})
    return CheckReport(
        check="commutation_matrix",
        passed=not witnesses,
        params={"count": len(gens), "mode": sig.mode.value},
        witnesses=witnesses,
        info={"central": len(central), "basis": len(basis), "pairs": len(pairs)},
    )
