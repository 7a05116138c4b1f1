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
from itertools import combinations, islice, permutations
from math import factorial
from operator import add

from .algebra import (
    AlgebraSignature,
    LetterTable,
    ModeError,
    NCPoly,
    Packing,
    SignatureMismatchError,
    SparseSum,
    antisymmetry_residuals,
    commutator,
)
from . import linalg
from .lax import LaxMatrix, pole_site_groups
from .ratfun import DiffOpEntry, LaxEntry
from .reports import CheckReport


class DiffOpMatrix:
    """Square matrix over one entry ring; the Manin-candidate container.

    The entries are ``DiffOpEntry`` values where d/dz occurs (d/dz - L and
    the Weyl control); a matrix without d/dz holds the entries of its own
    ring, ``NCPoly`` letters or ints, whose products are cheaper, and every
    check runs the same code on all three.  ``sig`` is the algebra the
    entries stand in; witnesses print each residual as the ``DiffOpEntry``
    it stands for (``_render_entry``).

    It keeps the entries and one table of column minors
    (``linalg.col_minor``) that every determinant check reads, so its
    entries must not change once one is read.  Matrix arithmetic runs on
    the entry lists (``linalg.matmul``)."""

    def __init__(self, sig: AlgebraSignature, entries: list[list]):
        self.sig = sig
        self.entries = entries
        self._minors: dict = {}

    @property
    def size(self) -> int:
        return len(self.entries)

    def is_diff_free(self) -> bool:
        return all(not isinstance(e, DiffOpEntry) or e.order <= 0
                   for row in self.entries for e in row)

    def col_minor(self, rows: tuple[int, ...], cols: tuple[int, ...]):
        """The column minor on the ascending ``rows`` and the column sequence
        ``cols``, read from the matrix's table (see ``linalg.col_minor``)."""
        return linalg.col_minor(self.entries, rows, cols, self._minors)

    def col_reorder(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> tuple[int, object]:
        """(s, R) with col_minor(rows, cols) = s * col_minor(rows, sorted(cols)) + R,
        read from the matrix's table (see ``linalg.col_reorder``)."""
        return linalg.col_reorder(self.entries, rows, cols, self._minors)

    @cached_property
    def minor_sums(self) -> list:
        """sigma_0 = 1, sigma_1, ..., sigma_n with det_col(t + M) = sum_k sigma_k t^(n-k).

        For a central variable t, expanding the column determinant column by
        column gives  det_col(t + M) = sum over index sets S of t^(n-|S|) det_col(M_S)
        for any matrix, M_S being the principal submatrix with its column
        order kept; so sigma_k sums the column determinants of the k x k ones.
        """
        n = self.size
        e = self.entries[0][0] if n else DiffOpEntry.zero(self.sig)
        one = type(e).one(self.sig) if isinstance(e, SparseSum) else 1
        return [one] + [
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


def _render_entry(sig: AlgebraSignature, value) -> str:
    """``value`` rendered as the ``DiffOpEntry`` over ``sig`` that it
    stands for: an int or ``NCPoly`` residual of a matrix without d/dz
    prints as the d/dz-free operator it equals."""
    if type(value) is NCPoly:
        value = LaxEntry.from_ncpoly(value)
    if not isinstance(value, DiffOpEntry):
        value = DiffOpEntry.scalar(sig, value)
    return value.render()


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
        if res:
            witnesses.append({
                "kind": kind,
                "positions": [[i + 1, j + 1], [k + 1, l + 1]],
                "residual": _render_entry(M.sig, res),
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


def col_det(M: DiffOpMatrix):
    """Column determinant: signed sum over permutations with factors taken
    column by column, the first column's factor written first (see
    ``linalg.col_det``), read from the matrix's table of minors.  The empty
    matrix has determinant 1."""
    if not M.entries:
        return DiffOpEntry.one(M.sig)
    return linalg.col_det(M.entries, M._minors)


def column_order_invariance(M: DiffOpMatrix) -> CheckReport:
    """Compare the column expansion in every column order with the default
    order's.

    For each other order s, det_s - det_col is sgn(s) * R with R the
    remainder of ``DiffOpMatrix.col_reorder`` on all rows, a sum over the
    2x2 minors of the adjacent column swaps that sort s: on a Manin matrix
    each of them is one of ``is_manin``'s residuals, zero, and no
    determinant is formed."""
    n = M.size
    if n > 4:
        raise ValueError("column-order sweep is limited to n <= 4")
    rows = tuple(range(n))
    witnesses = []
    for order in islice(permutations(range(n)), 1, None):    # skip the identity
        sign, difference = M.col_reorder(rows, order)
        if difference:
            witnesses.append({
                "order": [c + 1 for c in order],
                "difference": _render_entry(M.sig, difference if sign > 0 else -difference),
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

    # Left Cramer formula: adj(M) M = det_col(M) Id.  (adj(M) M)_ij is
    # (-1)^(i+n-1) times the minor on all rows and the columns other than i
    # followed by j.  Sorted, those columns are the default order when
    # i = j, with sign (-1)^(n-1-i), and repeat j otherwise, so the entry
    # less delta_ij det_col is (-1)^(i+n-1) R, R the remainder of
    # ``DiffOpMatrix.col_reorder``: a sum over 2x2 minors that is zero on a
    # Manin matrix, and no minor of another column order is formed.
    rows = tuple(range(n))
    witnesses = []
    for i in range(n):
        others = rows[:i] + rows[i + 1:]
        for j in range(n):
            res = M.col_reorder(rows, others + (j,))[1]
            if res:
                res = -res if (i + n - 1) % 2 else res
                witnesses.append({"position": [i + 1, j + 1],
                                  "residual": _render_entry(M.sig, res)})
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
            {"position": [i + 1, j + 1], "residual": _render_entry(M.sig, acc[i][j])}
            for i in range(n) for j in range(n)
            if acc[i][j]
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
    """M's entries as rational numbers, or None unless every entry is one:
    each sparse sum, and then its constant coefficient, down to a number,
    must hold no term but its constant one."""
    out = []
    for row in M.entries:
        r = []
        for e in row:
            while isinstance(e, SparseSum):
                if e.terms.keys() - {e._unit}:
                    return None
                e = e.terms.get(e._unit, 0)
            r.append(Fraction(e))
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
    sigma = M.minor_sums                   # det_col(t + M) = sum sigma_k t^(n-k)
    tau = [None, *linalg.power_traces(M.entries, n)]
    witnesses = []
    for k in range(1, n + 1):
        lhs = (-1) ** (k + 1) * k * sigma[k]
        rhs = tau[k]                       # the i = 0 term, sigma_0 = 1
        for i in range(1, k):
            term = sigma[i] * tau[k - i]
            rhs = rhs - term if i % 2 else rhs + term
        if lhs != rhs:
            witnesses.append({"k": k, "residual": _render_entry(M.sig, lhs - rhs)})
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
    suffice.  A letter table is only known to define an antisymmetric
    biderivation, so every letter is needed, each in one order.
    """
    if table is not None:
        return [sig.gen(*g) for g in sig.letters()]
    out = []
    for i in range(1, sig.sites + 1):
        for a in range(1, sig.rank):
            out += [sig.gen(i, a, a + 1), sig.gen(i, a + 1, a)]
    return out


def _diagonal_letters(sig: AlgebraSignature) -> list[NCPoly]:
    """The Chevalley letters of the diagonal gl_r, sum_i e[a,a+1]@i and
    sum_i e[a+1,a]@i: an element whose Lie-Poisson brackets with these
    2(r-1) letters vanish is invariant under the diagonal GL_r, by the
    argument of ``_centre_letters`` (sum_a,i e[a,a]@i is central)."""
    out = []
    for a in range(1, sig.rank):
        for b, c in ((a, a + 1), (a + 1, a)):
            out.append(reduce(add, (sig.gen(i, b, c) for i in range(1, sig.sites + 1))))
    return out


def _diagonal_slice(packing: Packing, forms: dict) -> tuple[dict, int] | None:
    """The packed ``forms`` on the slice where the site-1 matrix X_1 is
    diagonal, with the ``packing.mask`` of the r^2 - r off-diagonal letters
    of site 1, or None when one of the forms is not invariant under the
    diagonal GL_r (``_diagonal_letters``).

    On the slice those letters vanish, so a form drops every gradient term
    that holds one of them, and ``Packing.bracket`` with the mask drops them
    from the rule's values: the slice bracket of two forms is their full
    bracket with those letters set to zero."""
    sig = packing.sig
    diagonal = [packing.pack(x) for x in _diagonal_letters(sig)]
    if any(packing.bracket(f, x) for f in forms.values() for x in diagonal):
        return None
    off = packing.mask((1, a, b) for a in range(1, sig.rank + 1)
                       for b in range(1, sig.rank + 1) if a != b)
    sliced = {}
    for i, (d, numerators, grad) in forms.items():
        grad = {g: {r: c for r, c in part.items() if not r & off} for g, part in grad.items()}
        sliced[i] = d, numerators, {g: part for g, part in grad.items() if part}
    return sliced, off


def _generating_set(forms: list, degrees: list[int], central: list[int],
                    rest: list[int]) -> list[int]:
    """The generating set S: from the span of 1, walk ``central`` and then
    ``rest``, skip an input g in the span, and otherwise put x*g, x*g^2, ...
    in it for every product x kept so far (1 included) while the degree sum
    stays within the top input degree.  S is the inputs of ``rest`` kept.

    ``forms`` are the inputs as ``NCPoly`` values or, in Classical mode,
    their ``PackedPoly`` numerators; scaling an input keeps the span."""
    top = max(degrees)
    span = linalg.Eliminator()
    one = type(forms[0]).one(forms[0].sig)
    span.add(one.terms)
    kept = [(0, one)]
    generators = []
    for i in central + rest:
        g, dg = forms[i], degrees[i]
        if not span.reduce(g.terms):
            continue
        if i in rest:
            generators.append(i)
        for degree, x in list(kept):
            while degree + dg <= top:
                x, degree = x * g, degree + dg
                if span.add(x.terms):
                    kept.append((degree, x))
    return sorted(generators)


def commutation_matrix(gens: list[NCPoly], labels: list | None = None,
                       table: LetterTable | None = None) -> CheckReport:
    """PASS iff every bracket of two inputs vanishes, certified on the
    centre and a generating set instead of on every pair.

    1. An input x whose brackets {x, g} with the letters g of
       ``_centre_letters`` all vanish is central.
    2. The generating set S is chosen by ``_generating_set``: one
       ``linalg.Eliminator`` over the products of the central inputs and
       S, each input tested before its own products join.
    3. The pairs i < j of S, in input order, are bracketed.

    Why a PASS proves that every pair of inputs commutes.  Every bracket
    here is antisymmetric, so the diagonal vanishes and one order decides
    each pair; {x, .} is a derivation, so x is central once {x, g} = 0 for
    the letters g of ``_centre_letters``.  Every input is a polynomial in the
    central inputs and S.  The commutator and every biderivation, letter
    tables included, vanish on two such polynomials once they vanish on
    every pair of their generators, by Leibniz.

    In Classical mode every input and centre letter is packed once
    (``algebra.Packing.pack``), at the one width that 2 * top degree - 1
    needs: no bracket of two inputs and no product the generating set
    keeps has a larger exponent.  The steps read those forms, and the
    brackets run ``Packing.bracket``, the engine of
    ``algebra.poisson_bracket``.  An input is packed just before its
    centre test; a central one keeps only its packed numerators, which the
    generating set multiplies, and drops its gradient at once.

    Classical pairs under the Lie-Poisson rule (no ``table``) are
    bracketed on the slice where the site-1 matrix X_1 is diagonal
    (``_diagonal_slice``) once every input of S is shown invariant under
    the diagonal GL_r, and only a pair whose slice bracket is nonzero is
    bracketed again in full, for its witness.  Why the slice decides each
    pair: the bracket of two inputs invariant under the diagonal GL_r is
    invariant, by Jacobi, and an invariant polynomial that vanishes on the
    slice vanishes on its GL_r-orbit, the dense set where X_1 is
    diagonalisable, so it is zero.  At rank 1 every input is central and
    no pair is left.

    A witness is a failing pair of S, both of them inputs, with its
    bracket.  ``info`` records the central inputs, the size of S and the
    pairs bracketed.  A classical letter ``table`` replaces the Lie-Poisson
    rule (see ``algebra.poisson_bracket``) and gets neither the Chevalley
    centre letters nor the slice; one that is not antisymmetric raises
    ``ValueError`` naming a failing letter pair, and in Quantum mode any
    table raises ``ModeError``.
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
    if table is not None:
        if sig.is_quantum:
            raise ModeError("a letter table defines a Poisson bracket; "
                            "Quantum mode uses the commutator")
        failing = next(antisymmetry_residuals(table), None)
        if failing:
            x, y = (sig.gen(*g).render() for g in failing[:2])
            raise ValueError(f"letter table is not antisymmetric: "
                             f"{{{x}, {y}}} + {{{y}, {x}}} != 0")
    if labels is None:
        labels = [f"g{i}" for i in range(len(gens))]
    letters = _centre_letters(sig, table)
    # a zero input has degree -inf; it and the constants bracket to zero
    degrees = [max(g.degree, 0) for g in gens]
    if sig.is_quantum:
        def pack(g) -> tuple:
            return g, g

        br = commutator
    else:
        packing = Packing(sig, 2 * max(degrees) - 1)
        letters = [packing.pack(x) for x in letters]

        def pack(g) -> tuple:
            form = packing.pack(g)
            return form, form[1]

        def br(a, b) -> NCPoly:
            return packing.bracket(a, b, table)

    # each input is packed just before its centre test; a central input
    # keeps only the numerators that the generating set multiplies
    central, forms, products = [], {}, []
    for i, g in enumerate(gens):
        form, numerators = pack(g)
        products.append(numerators)
        if all(not br(form, x) for x in letters):
            central.append(i)
        else:
            forms[i] = form
    rest = sorted(set(range(len(gens))) - set(central),
                  key=lambda i: (degrees[i], len(gens[i].terms), i))
    basis = _generating_set(products, degrees, central, rest) if rest else []
    # the pairs read the forms of S only; the others are released first
    forms = {i: forms[i] for i in basis}
    del products
    pairs = list(combinations(basis, 2))
    sliced, off = {}, 0
    if pairs and table is None and not sig.is_quantum:
        sliced, off = _diagonal_slice(packing, forms) or ({}, 0)
    witnesses = []
    for i, j in pairs:
        if sliced and not packing.bracket(sliced[i], sliced[j], zero=off):
            continue
        res = br(forms[i], forms[j])
        if not res.is_zero():
            witnesses.append({"pair": [labels[i], labels[j]], "bracket": res.render()})
    return CheckReport(
        check="commutation_matrix",
        passed=not witnesses,
        params={"count": len(gens), "mode": sig.mode.value},
        witnesses=witnesses,
        info={"central": len(central), "basis": len(basis), "pairs": len(pairs)},
    )
