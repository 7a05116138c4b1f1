import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice, permutations
from math import comb, factorial
from operator import add

import pytest

from gaudin import linalg, manin, suites
from gaudin.algebra import (
    AlgebraSignature, Mode, ModeError, NCPoly, Packing, classical_limit, commutator,
)
from gaudin.gluing import iterate_pattern, parse_pattern
from gaudin.lax import (
    LaxMatrix, bending_lax_rational, gaudin_lax, lax_from_groups, pole_site_groups,
    spectral_invariants,
)
from gaudin.manin import (
    DiffOpMatrix,
    col_det,
    column_order_invariance,
    commutation_matrix,
    is_manin,
    manin_property_suite,
    newton_check,
    partial_minus,
    talalaev_coefficients,
    talalaev_generators,
)
from gaudin.poisson import letter_table, standard_operator
from gaudin.ratfun import DiffOpEntry, LaxEntry, RatFun
from gaudin.suites import RunConfig, _cross_site_manin, run_suite

from oracles import (
    all_position_pairs_manin,
    cayley_hamilton_residual,
    commutator_manin,
    cramer_residuals,
    elementary_glue,
    leibniz_terms,
    manin_relation,
    letter_matrix,
    minor_adjugate,
    noncommuting_operator_matrix,
    on_diagonal_slice,
    ordered_pair_brackets,
    permutation_col_det,
    quantum_power_traces,
    random_diffop_matrix,
    random_invariant,
    random_letter,
    random_ncpoly,
    span_dimension,
)


def count_products(monkeypatch, cls=DiffOpEntry) -> list[int]:
    """A list that grows by one at each product whose left operand is a
    ``cls`` (not a subclass) from now on."""
    seen = []
    inner = cls.__mul__

    def counted(a, b):
        if type(a) is cls:
            seen.append(1)
        return inner(a, b)

    monkeypatch.setattr(cls, "__mul__", counted)
    return seen


def count_sliced_brackets(monkeypatch) -> list[int]:
    """A list that grows by one at each bracket on the mask of a diagonal
    slice (``manin._diagonal_slice``) from now on."""
    masks, seen = [], []
    diagonal_slice, bracket = manin._diagonal_slice, Packing.bracket

    def sliced(*args):
        out = diagonal_slice(*args)
        if out:
            masks.append(out[1])
        return out

    def counted(self, p, q, table=None, zero=0):
        if zero and zero in masks:
            seen.append(1)
        return bracket(self, p, q, table, zero)

    monkeypatch.setattr(manin, "_diagonal_slice", sliced)
    monkeypatch.setattr(Packing, "bracket", counted)
    return seen


def scalar_sig():
    return AlgebraSignature(1, 1, Mode.QUANTUM)


def const_matrix(values):
    sig = scalar_sig()
    return DiffOpMatrix(sig, [
        [DiffOpEntry.from_entry(LaxEntry.scalar(sig, Fraction(v))) for v in row]
        for row in values
    ])


def cross_site_matrix(rank):
    """Row i built from site i; such generator matrices are always Manin."""
    sig = AlgebraSignature(rank, rank, Mode.QUANTUM)
    return DiffOpMatrix(sig, [
        [DiffOpEntry.from_entry(LaxEntry.from_ncpoly(sig.gen(i, i, j)))
         for j in range(1, rank + 1)]
        for i in range(1, rank + 1)
    ])


def single_site_generator_matrix():
    """E = (e[a,b]@1) over gl2: one site, so column entries do not commute."""
    sig = AlgebraSignature(2, 1, Mode.QUANTUM)
    return DiffOpMatrix(sig, [
        [DiffOpEntry.from_entry(LaxEntry.from_ncpoly(sig.gen(1, a, b))) for b in (1, 2)]
        for a in (1, 2)
    ])


def weyl_control():
    sig = scalar_sig()
    z = DiffOpEntry.from_entry(LaxEntry.scalar(sig, RatFun.z()))
    d = DiffOpEntry.partial(sig)
    one = DiffOpEntry.one(sig)
    return DiffOpMatrix(sig, [[z, d], [one, z]])


class TestIsManin:
    def test_commuting_entries_always_manin(self):
        assert is_manin(const_matrix([[1, 2], [3, 4]])).passed

    @pytest.mark.parametrize("rank,sites", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_gaudin_candidates(self, rank, sites):
        sig = AlgebraSignature(rank, sites, Mode.QUANTUM)
        M = partial_minus(gaudin_lax(sig, list(range(sites))))
        assert is_manin(M).passed

    def test_glued_and_cluster_matrices(self):
        sig = AlgebraSignature(2, 3, Mode.QUANTUM)
        fam = elementary_glue(sig, fixed=[0], collapsing=[1, 2], w=5)
        for matrix in fam.matrices:
            assert is_manin(partial_minus(matrix)).passed
        assert is_manin(partial_minus(bending_lax_rational(sig, 2))).passed

    def test_weyl_pair_rejected_with_witness(self):
        rep = is_manin(weyl_control())
        assert rep.passed is False
        kinds = {w["kind"] for w in rep.witnesses}
        # the actual violation is in the second column, [d, z] = 1
        assert "column" in kinds
        col = next(w for w in rep.witnesses if w["kind"] == "column")
        assert col["positions"] == [[1, 2], [2, 2]]


SIG_2X4 = AlgebraSignature(2, 4, Mode.QUANTUM)

# (name, is Manin): random entries over all sites with d/dz parts; row i at
# site i without d/dz; the latter with entry (1,2) redrawn; two d/dz - L.
MANIN_CASES = [(f"{kind}-{n}", manin) for n in (2, 3, 4) for kind, manin in
               (("random", False), ("row-sites", True), ("perturbed", False))]
MANIN_CASES += [("gaudin-gl3", True), ("bending-rational", True)]


def manin_case(name: str) -> DiffOpMatrix:
    if name == "gaudin-gl3":
        return partial_minus(gaudin_lax(AlgebraSignature(3, 2, Mode.QUANTUM), [0, 1]))
    if name == "bending-rational":
        return partial_minus(bending_lax_rational(AlgebraSignature(2, 3, Mode.QUANTUM), 2))
    kind, n = name.rsplit("-", 1)
    rng = random.Random(name)
    M = random_diffop_matrix(rng, SIG_2X4, int(n), row_sites=kind != "random")
    if kind == "perturbed":
        M.entries[0][1] = random_diffop_matrix(rng, SIG_2X4, 1).entries[0][0]
    return M


class TestIsManinOracle:
    """is_manin states each relation once; the all-position-pairs loops of
    ``oracles.all_position_pairs_manin`` are the reference."""

    @pytest.mark.parametrize("name, manin", MANIN_CASES, ids=[c[0] for c in MANIN_CASES])
    def test_violated_relations_match(self, name, manin):
        M = manin_case(name)
        rep = is_manin(M)
        ref = all_position_pairs_manin(M)
        assert rep.passed is manin is (not ref)
        got = [manin_relation(w) for w in rep.witnesses]
        assert len(got) == len(set(got))
        assert set(got) == {manin_relation(w) for w in ref}
        # same positions and residual as the reference's witness of the relation
        assert all(w in ref for w in rep.witnesses)

    def test_perturbed_matrices_keep_some_relations(self):
        for n in (3, 4):
            rep = is_manin(manin_case(f"perturbed-{n}"))
            kinds = {w["kind"] for w in rep.witnesses}
            assert kinds == {"column", "cross"}
            assert len(rep.witnesses) < comb(n, 2) * (n + comb(n, 2))

    @pytest.mark.parametrize("n, calls", [(2, 4), (3, 27), (4, 96)])
    def test_one_commutator_per_relation_term(self, monkeypatch, n, calls):
        # each relation term is one 2x2 column minor on rows i < k and
        # columns (j, l), j = l allowed, computed once with two products
        M = manin_case(f"random-{n}")
        products = count_products(monkeypatch)
        is_manin(M)
        assert len(M._minors) == calls == comb(n, 2) * n * n
        assert {(len(rows), len(cols)) for rows, cols in M._minors} == {(2, 2)}
        assert len(products) == 2 * calls

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_determinant_per_column_order(self, monkeypatch, n):
        seen = []
        inner = manin.col_det
        monkeypatch.setattr(manin, "col_det", lambda M: seen.append(M) or inner(M))
        rng = random.Random(n)
        rep = column_order_invariance(
            const_matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]))
        assert rep.passed and rep.params["orders"] == factorial(n)
        # no determinant: every other order is read from 2x2 minors
        assert seen == []


class TestColDet:
    def test_commutative_two_by_two(self):
        M = const_matrix([[1, 2], [3, 4]])
        det = col_det(M)
        assert det == DiffOpEntry.from_entry(LaxEntry.scalar(scalar_sig(), Fraction(-2)))

    def test_rank_one_gaudin(self):
        sig = AlgebraSignature(1, 2, Mode.QUANTUM)
        L = gaudin_lax(sig, [0, 1])
        det = col_det(partial_minus(L))
        assert det.entry(1) == LaxEntry.one(sig)
        assert det.entry(0) == -L.entry(1, 1)

    def test_single_site_against_bruteforce_column_orders(self):
        sig = AlgebraSignature(2, 1, Mode.QUANTUM)
        M = partial_minus(gaudin_lax(sig, [0]))
        # direct two-permutation expansion, both column orders
        order_12 = (M.entries[0][0] * M.entries[1][1]
                    - M.entries[1][0] * M.entries[0][1])
        order_21 = (M.entries[1][1] * M.entries[0][0]
                    - M.entries[0][1] * M.entries[1][0])
        det = col_det(M)
        assert det == order_12
        assert det == order_21
        assert det.entry(2) == LaxEntry.one(sig)
        # coefficient of d/dz is minus the trace of L
        assert det.entry(1) == M.entries[0][0].entry(0) + M.entries[1][1].entry(0)

    def test_column_order_argument(self):
        # det_col in the order (1, 0) is -minor(1, 0) = -(s * det_col + R)
        M = const_matrix([[1, 2], [3, 4]])
        assert M.col_reorder((0, 1), (1, 0)) == (-1, None)
        assert -M.col_minor((0, 1), (1, 0)) == col_det(M)


class TestColumnOrderInvariance:
    def test_commutative_three_by_three(self):
        M = const_matrix([[1, 2, 0], [3, 4, 5], [1, 1, 2]])
        assert column_order_invariance(M).passed

    def test_gaudin_two_sites(self):
        sig = AlgebraSignature(2, 2, Mode.QUANTUM)
        assert column_order_invariance(partial_minus(gaudin_lax(sig, [0, 1]))).passed

    def test_gl3_all_six_orders(self):
        sig = AlgebraSignature(3, 1, Mode.QUANTUM)
        assert column_order_invariance(partial_minus(gaudin_lax(sig, [0]))).passed

    def test_weyl_control_reports_inequality(self):
        # [[z, d],[1, z]] is not Manin yet its column determinant happens to
        # be order independent; a control with both cross products
        # noncommuting is needed to surface the inequality
        sig = scalar_sig()
        z = DiffOpEntry.from_entry(LaxEntry.scalar(sig, RatFun.z()))
        d = DiffOpEntry.partial(sig)
        M = DiffOpMatrix(sig, [[z, z], [d, d]])
        assert is_manin(M).passed is False
        rep = column_order_invariance(M)
        assert rep.passed is False
        assert rep.witnesses


class TestPropertySuite:
    def test_cramer_on_gaudin(self):
        sig = AlgebraSignature(2, 2, Mode.QUANTUM)
        M = partial_minus(gaudin_lax(sig, [0, 1]))
        reports = {r.check: r for r in manin_property_suite(M)}
        assert reports["is_manin"].passed
        assert reports["cramer"].passed
        assert reports["cayley_hamilton"].passed is None  # carries d/dz
        assert reports["schur"].passed is None

    def test_cramer_adjugate_shape(self):
        M = const_matrix([[1, 2], [3, 4]])
        adj = minor_adjugate(M)
        assert adj[0][0] == M.entries[1][1]
        assert adj[0][1] == -M.entries[0][1]

    def test_cramer_on_rank_three_candidates(self):
        for sites in (1, 2):
            sig = AlgebraSignature(3, sites, Mode.QUANTUM)
            M = partial_minus(gaudin_lax(sig, list(range(sites))))
            reports = {r.check: r for r in manin_property_suite(M)}
            assert reports["cramer"].passed

    def test_one_by_one_matrix(self):
        M = partial_minus(gaudin_lax(AlgebraSignature(1, 2, Mode.QUANTUM), [0, 1]))
        reports = {r.check: r for r in manin_property_suite(M)}
        assert reports["is_manin"].passed and reports["cramer"].passed
        assert M._minors == {}

    def test_cayley_hamilton_cross_site(self):
        reports = {r.check: r for r in manin_property_suite(cross_site_matrix(2))}
        assert reports["is_manin"].passed
        assert reports["cramer"].passed
        assert reports["cayley_hamilton"].passed

    def test_cayley_hamilton_commutative(self):
        reports = {r.check: r for r in manin_property_suite(
            const_matrix([[2, 1], [0, 3]]))}
        assert reports["cayley_hamilton"].passed

    def test_schur_on_invertible_commutative_blocks(self):
        M = const_matrix([[2, 1, 0, 1], [1, 3, 1, 0], [0, 1, 4, 1], [1, 0, 1, 5]])
        reports = {r.check: r for r in manin_property_suite(M)}
        assert reports["schur"].passed

    def test_scalar_entries_leave_the_z_layer_as_fractions(self):
        from gaudin.manin import _scalar_matrix

        scal = _scalar_matrix(const_matrix([[2, Fraction(1, 2)], [0, -3]]))
        assert scal == [[2, Fraction(1, 2)], [0, -3]]
        assert all(type(v) is Fraction for row in scal for v in row)

    def test_schur_skipped_when_block_singular(self):
        M = const_matrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
        reports = {r.check: r for r in manin_property_suite(M)}
        assert reports["schur"].passed is None
        assert "singular" in reports["schur"].info["skipped"]

    def test_non_manin_generator_matrix_fails_cramer_and_cayley_hamilton(self):
        reports = {r.check: r for r in manin_property_suite(single_site_generator_matrix())}
        assert reports["is_manin"].passed is False
        assert reports["cramer"].passed is False
        assert reports["cayley_hamilton"].passed is False
        assert reports["cayley_hamilton"].witnesses[0] == {
            "position": [1, 1], "residual": "((1) * e[1,1]@1 + (-1) * e[2,2]@1)"}


class TestNewton:
    def test_diagonal_numeric_example(self):
        rep = newton_check(const_matrix([[2, 0], [0, 3]]))
        assert rep.passed
        # k=2 identity reads 2*sigma_2 = sigma_1 tau_1 - tau_2: 12 = 25 - 13
        assert 2 * 6 == 5 * 5 - 13

    def test_first_identity_is_trace(self):
        # k=1: sigma_1 = tau_1 on a random commutative matrix
        rng = random.Random(1)
        M = const_matrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        assert newton_check(M).passed

    def test_one_site_quantum_matrices(self):
        for rank in (2, 3):
            sig = AlgebraSignature(rank, 1, Mode.QUANTUM)
            M = partial_minus(gaudin_lax(sig, [0]))
            assert newton_check(M).passed

    def test_two_site_quantum_matrix(self):
        sig = AlgebraSignature(2, 2, Mode.QUANTUM)
        assert newton_check(partial_minus(gaudin_lax(sig, [0, 1]))).passed

    def test_cross_site(self):
        assert newton_check(cross_site_matrix(2)).passed
        assert newton_check(cross_site_matrix(3)).passed

    def test_commutative_random_up_to_four(self):
        rng = random.Random(9)
        for n in (2, 3, 4):
            M = const_matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            assert newton_check(M).passed

    def test_non_manin_generator_matrix_fails_at_k2(self):
        # k=1 (sigma_1 = Tr M) holds for any matrix; k=2 needs the Manin property.
        rep = newton_check(single_site_generator_matrix())
        assert rep.passed is False
        assert rep.witnesses == [
            {"k": 2, "residual": "((-1) * e[1,1]@1 + (1) * e[2,2]@1)"}]


class TestDeterminantCache:
    """Each column minor is computed once per matrix and shared by the
    column-order sweep, is_manin, Cramer, Cayley-Hamilton and Newton."""

    @staticmethod
    def gaudin_gl3_n3() -> DiffOpMatrix:
        return partial_minus(gaudin_lax(AlgebraSignature(3, 3, Mode.QUANTUM), [0, 1, 2]))

    def test_checks_share_the_principal_minors(self, monkeypatch):
        M = self.gaudin_gl3_n3()
        products = count_products(monkeypatch)
        assert column_order_invariance(M).passed
        assert all(r.passed is not False for r in manin_property_suite(M))
        # the sweep: the 18 minors on two rows and two distinct columns (36)
        # that its column swaps read, and no determinant; is_manin: the 9
        # minors on a repeated column (18); Cramer reads only those 2x2
        # minors.  Expanding every column order and every Cramer entry
        # made 90, and without the table 171.
        assert len(products) == 36 + 18 == 54

    def test_second_sweep_reads_the_table(self, monkeypatch):
        M = self.gaudin_gl3_n3()
        first = [column_order_invariance(M), *manin_property_suite(M)]
        products = count_products(monkeypatch)
        again = [column_order_invariance(M), *manin_property_suite(M)]
        assert products == []
        # Newton's characteristic sums: only det_col is new, expanded along
        # its first column on the kept 2x2 minors (3 products)
        sums = M.minor_sums
        assert len(products) == 3
        assert sums[M.size] is col_det(M)
        assert [r.to_json_dict() for r in again] == [r.to_json_dict() for r in first]

    def test_cramer_keeps_no_other_column_order(self):
        # without a sweep, Cramer reads its entries from the 2x2 minors of
        # is_manin and forms no minor on all rows, in any column order
        M = self.gaudin_gl3_n3()
        manin_property_suite(M)
        orders = {cols for rows, cols in M._minors
                  if len(rows) == M.size and len(set(cols)) == M.size}
        assert orders == set()
        assert {len(rows) for rows, cols in M._minors} == {2}

    def test_cached_values_match_fresh_determinants(self):
        M = manin_case("gaudin-gl3")
        n = M.size
        E = M.entries
        assert col_det(M) == permutation_col_det(E)
        fresh = [DiffOpEntry.one(M.sig)] + [
            reduce(add, (permutation_col_det([[E[i][j] for j in keep] for i in keep])
                         for keep in combinations(range(n), k)))
            for k in range(1, n + 1)]
        assert M.minor_sums == fresh
        assert M.minor_sums is M.minor_sums and M.minor_sums[n] is col_det(M)
        column_order_invariance(M)
        manin_property_suite(M)
        for (rows, cols), value in M._minors.items():
            assert value == permutation_col_det([[E[r][c] for c in cols] for r in rows])


class TestMinorTableOracle:
    """On random non-Manin matrices with noncommuting entries and d/dz parts,
    the memoized expansion, the sweep's differences and the Cramer entries
    agree with the permutation sum and the minor-copy adjugate, witnesses
    included."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_col_det_in_every_column_order(self, n):
        E = noncommuting_operator_matrix(n).entries
        rows = tuple(range(n))
        memo: dict = {}
        for order in permutations(range(n)):
            assert linalg.col_minor(E, rows, order, memo) == submatrix_det(E, rows, order)

    @pytest.mark.parametrize("n", [3, 4])
    def test_sweep_witnesses_match_the_permutation_sums(self, n):
        M = noncommuting_operator_matrix(n)
        E = M.entries
        rep = column_order_invariance(M)
        reference = permutation_col_det(E)
        differences = [{"order": [c + 1 for c in order],
                        "difference": (permutation_col_det(E, order) - reference).render()}
                       for order in islice(permutations(range(n)), 1, None)]
        assert rep.passed is False
        assert rep.witnesses == [d for d in differences if d["difference"] != "0"]
        assert len(rep.witnesses) == factorial(n) - 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_witnesses_match_the_commutator_and_adjugate_formulas(self, n):
        M = noncommuting_operator_matrix(n)
        reports = {r.check: r for r in manin_property_suite(M)}
        assert reports["is_manin"].passed is False
        assert reports["is_manin"].witnesses == commutator_manin(M)
        assert reports["cramer"].passed is False
        assert reports["cramer"].witnesses == cramer_residuals(M)


def expansion_case(name: str) -> list[list]:
    if name.startswith("letters-"):
        return letter_matrix(int(name[-1]))
    if name == "weyl":
        return weyl_control().entries
    rank, sites = {"gaudin-gl2-N3": (2, 3), "gaudin-gl3-N2": (3, 2)}[name]
    sig = AlgebraSignature(rank, sites, Mode.QUANTUM)
    return partial_minus(gaudin_lax(sig, list(range(sites)))).entries


def submatrix_det(E, rows, cols):
    """The permutation sum on the submatrix of ``rows`` and the column
    sequence ``cols``, repeated columns copied."""
    return permutation_col_det([[E[r][c] for c in cols] for r in rows])


class TestFirstColumnExpansion:
    """``linalg.col_minor`` expands along the first column, the entry
    written first; the permutation sum on the submatrix is the reference,
    in every column order, for every minor kept, and on column sequences
    that repeat a column."""

    CASES = ["letters-3", "letters-4", "gaudin-gl2-N3", "gaudin-gl3-N2", "weyl"]

    @pytest.mark.parametrize("name", CASES)
    def test_every_column_order_and_kept_minor(self, name):
        E = expansion_case(name)
        n = len(E)
        rows = tuple(range(n))
        memo: dict = {}
        for order in permutations(range(n)):
            assert linalg.col_minor(E, rows, order, memo) == submatrix_det(E, rows, order)
        # one suffix of each order and each set of rows below the top
        assert len(memo) == sum(comb(n, k) * factorial(n) // factorial(n - k)
                                for k in range(2, n + 1))
        for (rows, cols), value in memo.items():
            assert value == submatrix_det(E, rows, cols)

    @pytest.mark.parametrize("name", CASES)
    def test_repeated_columns(self, name):
        E = expansion_case(name)
        n = len(E)
        seqs = [(a, b, a) for a, b in permutations(range(n), 2)]
        seqs += [(a, b, b) for a, b in permutations(range(n), 2)]
        if n == 2:
            seqs = [(a, a) for a in range(n)]
        memo: dict = {}
        for cols in seqs:
            for rows in combinations(range(n), len(cols)):
                assert linalg.col_minor(E, rows, cols, memo) == submatrix_det(E, rows, cols)

    def test_the_left_factor_of_every_product_is_an_entry(self, monkeypatch):
        # on d/dz - L an entry has d-order at most 1, so each product's
        # Leibniz sum stops at its first derivative
        orders = []
        inner = DiffOpEntry.__mul__
        monkeypatch.setattr(DiffOpEntry, "__mul__",
                            lambda a, b: orders.append(a.order) or inner(a, b))
        M = partial_minus(gaudin_lax(AlgebraSignature(3, 3, Mode.QUANTUM), [0, 1, 2]))
        column_order_invariance(M)
        manin_property_suite(M)
        assert orders and max(orders) == 1


def moved_pole_operator() -> DiffOpMatrix:
    """d/dz - L of gl3 on one site with its (1,2) entry replaced by
    e[2,1]@1/(z - 1/2): not Manin, and no column order agrees with all
    others."""
    sig = AlgebraSignature(3, 1, Mode.QUANTUM)
    M = partial_minus(gaudin_lax(sig, [0]))
    M.entries[0][1] = DiffOpEntry.from_entry(LaxEntry.from_terms(
        sig, [(((1, 2, 1),), RatFun.one_over_z_minus(Fraction(1, 2)))]))
    return M


class TestNonManinOperator:
    """A d/dz matrix that is not Manin: the witnesses of ``is_manin``,
    ``cramer`` and the column-order sweep equal the entry-commutator,
    minor-adjugate and permutation-sum references, and their text is the
    one the last-column expansion printed (sha256 of the three reports)."""

    def test_witnesses_match_the_references(self):
        M = moved_pole_operator()
        E = M.entries
        reports = {r.check: r for r in [column_order_invariance(M), *manin_property_suite(M)]}
        assert reports["is_manin"].witnesses == commutator_manin(M)
        assert reports["cramer"].witnesses == cramer_residuals(M)
        reference = permutation_col_det(E)
        differences = [{"order": [c + 1 for c in order],
                        "difference": (permutation_col_det(E, order) - reference).render()}
                       for order in permutations(range(3))]
        assert reports["column_order_invariance"].witnesses == [
            d for d in differences[1:] if d["difference"] != "0"]
        text = json.dumps([reports[check].to_json_dict() for check in
                           ("column_order_invariance", "is_manin", "cramer")], sort_keys=True)
        assert all(reports[check].passed is False for check in
                   ("column_order_invariance", "is_manin", "cramer"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9b1ae337040f42411dbd5a66a78d6e1afde05a5fc0b7cc638a7270707e24726f")


class TestRenderEntry:
    """Witnesses of a matrix of ints or NCPoly letters print each residual
    as the DiffOpEntry it equals, as they did when the controls held
    DiffOpEntry values."""

    def test_int_and_ncpoly_residuals(self):
        sig = AlgebraSignature(2, 1, Mode.QUANTUM)
        assert manin._render_entry(scalar_sig(), -12) == "((-12))"
        residual = sig.gen(1, 1, 1) - sig.gen(1, 2, 2) * Fraction(3, 2)
        assert manin._render_entry(sig, residual) == "((1) * e[1,1]@1 + (-3/2) * e[2,2]@1)"
        op = DiffOpEntry.from_entry(LaxEntry.from_ncpoly(residual))
        assert manin._render_entry(sig, op) == op.render()

    def test_a_failing_letter_matrix_reports_like_its_operator_copy(self):
        sig = AlgebraSignature(2, 1, Mode.QUANTUM)
        letters = [[sig.gen(1, a, b) for b in (1, 2)] for a in (1, 2)]
        ops = [[DiffOpEntry.from_entry(LaxEntry.from_ncpoly(e)) for e in row]
               for row in letters]

        def reports(entries):
            M = DiffOpMatrix(sig, entries)
            return [r.to_json_dict() for r in
                    [column_order_invariance(M), *manin_property_suite(M), newton_check(M)]]

        got = reports(letters)
        assert got == reports(ops) == reports(single_site_generator_matrix().entries)
        assert sum(r["pass"] is False for r in got) == 5

    def test_an_int_matrix_reports_like_its_operator_copy(self):
        values = [[2, 1, 0, 1], [1, 3, 1, 0], [0, 1, 4, 1], [1, 0, 1, 5]]

        def reports(M):
            return [r.to_json_dict() for r in [*manin_property_suite(M), newton_check(M)]]

        assert reports(DiffOpMatrix(scalar_sig(), values)) == reports(const_matrix(values))


class TestCayleyHamiltonOracle:
    """The Horner sum of the Cayley-Hamilton check agrees with the power-sum
    formula, coefficients on the left, on d/dz-free matrices whose column
    entries do not commute."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_witnesses_match_the_power_sum(self, n):
        E = noncommuting_operator_matrix(n).entries
        M = DiffOpMatrix(E[0][0].sig, [[DiffOpEntry.from_entry(e.entry(0)) for e in row]
                                       for row in E])
        assert M.is_diff_free()
        reports = {r.check: r for r in manin_property_suite(M)}
        ref = cayley_hamilton_residual(M)
        assert reports["cayley_hamilton"].witnesses == ref
        assert reports["cayley_hamilton"].passed is (n == 1)
        assert reports["is_manin"].passed is (n == 1)


class TestManinWork:
    """Products of the Manin checks, each of its matrix's own entry type:
    Cayley-Hamilton makes n - 1 matrix products and scales no matrix, a
    random matrix with a singular leading block is redrawn before any suite
    runs on it, the cross-site matrix multiplies NCPoly letters, and only
    d/dz - L and the Weyl control hold DiffOpEntry values."""

    @pytest.mark.parametrize("rank, calls", [(2, 16), (3, 111)])
    def test_cross_site_suite(self, monkeypatch, rank, calls):
        M = _cross_site_manin(rank)
        products = count_products(monkeypatch, NCPoly)
        assert all(r.passed is not False for r in manin_property_suite(M))
        assert len(products) == calls

    @pytest.mark.parametrize("rank, calls, lax_calls", [(2, 23, 59), (3, 62, 130)])
    def test_manin_suite(self, monkeypatch, rank, calls, lax_calls):
        products = count_products(monkeypatch)
        lax_products = count_products(monkeypatch, LaxEntry)
        assert all(r.passed is not False for r in run_suite("manin", RunConfig(rank=rank)))
        assert len(products) == calls
        assert len(lax_products) == lax_calls

    def test_one_property_suite_per_kept_matrix(self, monkeypatch):
        import gaudin.suites

        seen = []
        monkeypatch.setattr(gaudin.suites, "manin_property_suite",
                            lambda M: seen.append(M.size) or manin_property_suite(M))
        run_suite("manin", RunConfig(rank=3, seed=12345))
        # d/dz - L, the cross-site matrix and the three random matrices
        assert seen == [3, 3, 3, 4, 3]


class TestTalalaev:
    def test_rank_one_coefficients(self):
        sig = AlgebraSignature(1, 2, Mode.QUANTUM)
        L = gaudin_lax(sig, [0, 1])
        out = talalaev_generators(L)
        assert out.qh[1] == LaxEntry.one(sig)
        assert out.qh[0] == -L.entry(1, 1)
        assert commutation_matrix(out.qh_eval(5) + out.qh_eval(7)).passed

    @pytest.mark.parametrize("pair", [(5, 7), (7, 11), (5, 11)])
    def test_two_site_commutators(self, pair):
        sig = AlgebraSignature(2, 2, Mode.QUANTUM)
        out = talalaev_generators(gaudin_lax(sig, [0, 1]))
        u, v = pair
        for i in range(3):
            for j in range(3):
                lhs = commutator(out.qh[i].eval_z(u), out.qh[j].eval_z(v))
                assert lhs.is_zero(), (i, j, pair)

    def test_three_site_commutators(self):
        sig = AlgebraSignature(2, 3, Mode.QUANTUM)
        out = talalaev_generators(gaudin_lax(sig, [0, 1, 2]))
        gens = []
        for u in (5, 7, 11):
            gens.extend(out.qh_eval(u)[:2])
            gens.extend(out.qtr_diag_eval(u))
        assert commutation_matrix(gens).passed

    def test_classical_limit_is_determinant_invariant(self):
        sig = AlgebraSignature(2, 2, Mode.QUANTUM)
        out = talalaev_generators(gaudin_lax(sig, [0, 1]))
        csig = sig.as_mode(Mode.CLASSICAL)
        E = gaudin_lax(csig, [0, 1]).eval_z(5)
        det_classical = E[0][0] * E[1][1] - E[0][1] * E[1][0]
        assert classical_limit(out.qh[0].eval_z(5)) == det_classical

    @pytest.mark.parametrize("rank,sites", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_trace_coefficients_are_binomial_in_the_diagonal(self, rank, sites):
        # qtr(k, j) = C(k, j) qtr(j, j): only the d/dz-free coefficients are new
        sig = AlgebraSignature(rank, sites, Mode.QUANTUM)
        out = talalaev_generators(gaudin_lax(sig, list(range(sites))))
        for k in range(2, rank + 1):
            for j in range(1, k):
                assert out.qtr[(k, j)] == out.qtr[(j, j)] * comb(k, j), (k, j)

    @pytest.mark.parametrize("rank,sites", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_diagonal_traces_match_the_quantum_power_recursion(self, rank, sites):
        # Tr P_k = (-1)^k qtr(k, k) for the iterated quantum powers P_k of L
        sig = AlgebraSignature(rank, sites, Mode.QUANTUM)
        L = gaudin_lax(sig, list(range(sites)))
        out = talalaev_generators(L)
        for k, tr in enumerate(quantum_power_traces(L), start=1):
            assert tr == out.qtr[(k, k)] * (-1) ** k, k

    def test_non_gaudin_type_rejected(self):
        sig = AlgebraSignature(2, 1, Mode.QUANTUM)
        entry = LaxEntry.scalar(sig, RatFun.one_over_z_minus(0) * RatFun.one_over_z_minus(0))
        bad = LaxMatrix(sig, [[entry, LaxEntry.zero(sig)],
                              [LaxEntry.zero(sig), entry]],
                        [(Fraction(0), 2)], label="double-pole")
        with pytest.raises(ValueError):
            talalaev_generators(bad)


class TestTalalaevCoefficients:
    def test_labels_and_count(self):
        sig = AlgebraSignature(2, 3, Mode.QUANTUM)
        coeffs = talalaev_coefficients(talalaev_generators(gaudin_lax(sig, [0, 1, 2])))
        labels = [label for label, _ in coeffs]
        assert len(labels) == 15
        assert labels[:2] == ["QH0[z=0,order 0]", "QH0[z=0,order 1]"]
        assert "QTr1[z=0,order 0]" not in labels  # QTr1 repeats QH1

    def test_generators_are_sums_of_their_principal_parts(self):
        sig = AlgebraSignature(2, 2, Mode.QUANTUM)
        L = gaudin_lax(sig, [0, 1])
        out = talalaev_generators(L)
        for gen in out.qh[:2] + [out.qtr[(k, k)] for k in (1, 2)]:
            rebuilt = LaxEntry.zero(sig)
            for pole, _ in L.poles:
                power = RatFun.one_over_z_minus(pole)  # (z - pole)^-(j+1)
                for c in gen.principal_part(pole):
                    rebuilt = rebuilt + LaxEntry.from_ncpoly(c) * power
                    power = power * RatFun.one_over_z_minus(pole)
            assert rebuilt == gen

    def test_corrupted_coefficient_is_named_by_every_witness(self):
        sig = AlgebraSignature(2, 2, Mode.QUANTUM)
        coeffs = talalaev_coefficients(talalaev_generators(gaudin_lax(sig, [0, 1])))
        assert commutation_matrix([c for _, c in coeffs]).passed
        label, c = coeffs[3]
        coeffs[3] = (label, c + sig.gen(1, 1, 2))
        rep = commutation_matrix([c for _, c in coeffs], [l for l, _ in coeffs])
        assert rep.passed is False and rep.witnesses
        assert all(label in w["pair"] for w in rep.witnesses)

    def test_polynomial_part_rejected(self):
        # talalaev_generators refuses such a matrix (see TestGaudinTypeGate),
        # so the constant goes into a generator after the fact
        sig = AlgebraSignature(2, 2, Mode.QUANTUM)
        out = talalaev_generators(gaudin_lax(sig, [0, 1]))
        out.qh[0] = out.qh[0] + LaxEntry.from_ncpoly(sig.gen(1, 1, 1))
        with pytest.raises(ValueError, match="QH0 has a polynomial part"):
            talalaev_coefficients(out)

    def test_undeclared_pole_rejected(self):
        sig = AlgebraSignature(2, 2, Mode.QUANTUM)
        out = talalaev_generators(gaudin_lax(sig, [0, 1]))
        out.lax.poles = out.lax.poles[:1]
        with pytest.raises(ValueError, match="pole outside"):
            talalaev_coefficients(out)


def _pole_entry(sig, word, pole, k=1):
    """LaxEntry  word / (z - pole)^k."""
    f = RatFun.const(1)
    for _ in range(k):
        f = f * RatFun.one_over_z_minus(pole)
    return LaxEntry.from_terms(sig, [(word, f)])


def _non_gaudin(name: str) -> LaxMatrix:
    """gaudin_lax at poles 0, 1 over gl2 with two sites, spoiled one way."""
    sig = AlgebraSignature(2, 2, Mode.QUANTUM)
    if name == "site-in-two-groups":
        return lax_from_groups(sig, [([1, 2], 0), ([2], 1)])
    L = gaudin_lax(sig, [0, 1])
    if name == "constant-term":
        L.entries[0][0] = L.entries[0][0] + LaxEntry.from_ncpoly(sig.gen(1, 1, 1))
    elif name == "undeclared-pole":
        L.poles = L.poles[:1]
    elif name == "coefficient-2":
        L.entries[0][1] = L.entries[0][1] + _pole_entry(sig, ((1, 1, 2),), 0)
    elif name == "transposed-letter":
        L.entries[1][0] = (_pole_entry(sig, ((1, 1, 2),), 0)
                           + _pole_entry(sig, ((2, 2, 1),), 1))
    elif name == "degree-2-word":
        L.entries[0][0] = L.entries[0][0] + _pole_entry(sig, ((1, 1, 1), (2, 2, 2)), 0)
    elif name == "scalar-residue":
        L.entries[0][0] = L.entries[0][0] + _pole_entry(sig, (), 0)
    elif name == "double-pole":
        L.entries[0][0] = L.entries[0][0] + _pole_entry(sig, ((1, 1, 1),), 0, k=2)
        L.poles = [(Fraction(0), 2), (Fraction(1), 1)]
    return L


NON_GAUDIN = ["coefficient-2", "transposed-letter", "site-in-two-groups",
              "degree-2-word", "scalar-residue", "double-pole"]


class TestGaudinTypeGate:
    """pole_site_groups accepts exactly what lax_from_groups builds from
    disjoint site groups at the declared poles: every coefficient counts, not
    only the residues there."""

    @staticmethod
    def _assert_rejected(name):
        L = _non_gaudin(name)
        assert pole_site_groups(L) is None
        with pytest.raises(ValueError, match="not of Gaudin type"):
            talalaev_generators(L)

    def test_constant_term_rejected(self):
        self._assert_rejected("constant-term")

    def test_undeclared_pole_rejected(self):
        self._assert_rejected("undeclared-pole")

    @pytest.mark.parametrize("name", NON_GAUDIN)
    def test_rejected(self, name):
        self._assert_rejected(name)

    @pytest.mark.parametrize("text, groups", [
        ("[1,[2,3]@5]", [{1: [2], 2: [3]}, {0: [1], 5: [2, 3]}]),
        ("[[1,2]@0,[3,4]@5]", [{0: [1], 1: [2]}, {2: [3], 3: [4]}, {0: [1, 2], 5: [3, 4]}]),
    ])
    def test_iterate_pattern_matrices_return_their_groups(self, text, groups):
        pattern = parse_pattern(text, sum(map(len, groups[-1].values())))
        sig = AlgebraSignature(2, pattern.n_leaves, Mode.QUANTUM)
        family = iterate_pattern(sig, pattern)
        assert [pole_site_groups(L) for L in family.matrices] == groups


class TestCommutationMatrix:
    def test_passes_on_commuting_generators(self):
        sig = AlgebraSignature(2, 2, Mode.QUANTUM)
        out = talalaev_generators(gaudin_lax(sig, [0, 1]))
        gens = [out.qh[0].eval_z(u) for u in (5, 7, 11)]
        assert commutation_matrix(gens).passed

    def test_fails_with_witness(self, q2):
        rep = commutation_matrix([q2.gen(1, 1, 1), q2.gen(1, 1, 2)], ["a", "b"])
        assert rep.passed is False
        assert rep.witnesses[0]["pair"] == ["a", "b"]

    def test_single_generator(self, q2):
        assert commutation_matrix([q2.gen(1, 1, 1)]).passed

    def test_letter_table_replaces_lie_poisson_rule(self, c2):
        gens = [c2.gen(1, 1, 1), c2.gen(1, 1, 2)]
        assert commutation_matrix(gens).passed is False
        assert commutation_matrix(gens, table=(1, {})).passed
        # {x[1,1]@1, x[1,2]@1} = 3 x[2,2]@2 = -{x[1,2]@1, x[1,1]@1}
        rep = commutation_matrix(gens, ["a", "b"], (1, {((1, 1, 1), (1, 1, 2)): [((2, 2, 2), 3)],
                                                        ((1, 1, 2), (1, 1, 1)): [((2, 2, 2), -3)]}))
        assert rep.witnesses == [{"pair": ["a", "b"], "bracket": "3 * x[2,2]@2"}]

    def test_letter_table_rejected_in_quantum_mode(self, q2):
        # a one-sided table too: the mode is checked before antisymmetry
        for rules in ({}, {((1, 1, 1), (1, 1, 2)): [((2, 2, 2), 1)]}):
            with pytest.raises(ModeError):
                commutation_matrix([q2.gen(1, 1, 1), q2.gen(1, 1, 2)], table=(1, rules))

    def test_labels_must_match_the_inputs(self, q2):
        gens = [q2.gen(1, 1, 1), q2.gen(1, 1, 2)]
        for labels in (["a"], ["a", "b", "c"]):
            with pytest.raises(ValueError, match=f"{len(labels)} labels for 2 generators"):
                commutation_matrix(gens, labels)

    def test_letter_table_with_a_diagonal_rule_is_refused(self, c2):
        # {x[1,1]@1, x[1,1]@1} = x[2,2]@2 is not antisymmetric
        table = (1, {((1, 1, 1), (1, 1, 1)): [((2, 2, 2), 1)]})
        with pytest.raises(ValueError, match=r"\{x\[1,1\]@1, x\[1,1\]@1\}"):
            commutation_matrix([c2.gen(1, 1, 1)], ["a"], table)


def _talalaev_coefficients(rank, sites):
    sig = AlgebraSignature(rank, sites, Mode.QUANTUM)
    return talalaev_coefficients(talalaev_generators(gaudin_lax(sig, list(range(sites)))))


def _glued_family(rank):
    sig = AlgebraSignature(rank, 3, Mode.CLASSICAL)
    family = iterate_pattern(sig, parse_pattern("[1,[2,3]@3]", 3), [0, 1, 2])
    return family.invariant_family().exprs()


class TestCommutationCertificate:
    """The centre-and-generating-set certificate against the full ordered-pair
    table."""

    @staticmethod
    def assert_matches_oracle(gens, table=None):
        rep = commutation_matrix(gens, table=table)
        want = ordered_pair_brackets(gens, table)
        assert rep.passed is (not want)
        for w in rep.witnesses:
            i, j = (int(label[1:]) for label in w["pair"])
            assert w["bracket"] == NCPoly(gens[0].sig, want[(i, j)]).render()
        return rep

    @pytest.mark.parametrize("family", [
        lambda: [c for _, c in _talalaev_coefficients(2, 2)],
        lambda: [c for _, c in _talalaev_coefficients(2, 3)],
        lambda: _glued_family(2),
    ], ids=["talalaev-r2n2", "talalaev-r2n3", "glue-r2"])
    def test_verdict_equals_the_full_table(self, family, rng):
        gens = family()
        assert self.assert_matches_oracle(gens).passed
        extra = random_ncpoly(rng, gens[0].sig, max_degree=2, terms=3)
        assert self.assert_matches_oracle(gens + [extra]).passed is False

    @staticmethod
    def random_antisymmetric_rules(rng, sig, letters, count):
        """``count`` random rules {g, h} = k * letter on pairs g != h of
        ``letters``, each stored with its negation at (h, g)."""
        rules = {}
        for _ in range(count):
            g, h = rng.sample(letters, 2)
            letter, k = random_letter(rng, sig), rng.choice([-2, -1, 1, 3])
            rules[(g, h)], rules[(h, g)] = [(letter, k)], [(letter, -k)]
        return rules

    def test_verdict_equals_the_full_table_under_antisymmetric_tables(self, c2, rng):
        verdicts = set()
        for _ in range(20):
            rules = self.random_antisymmetric_rules(rng, c2, list(c2.letters()), 3)
            gens = [random_ncpoly(rng, c2, max_degree=2, terms=2) for _ in range(3)]
            verdicts.add(self.assert_matches_oracle(gens, (1, rules)).passed)
        assert verdicts == {True, False}

    @staticmethod
    def central(gens):
        sig = gens[0].sig
        letters = [sig.gen(*g) for g in sig.letters()]
        return [i for i, g in enumerate(gens) if not any(commutator(g, x) for x in letters)]

    @staticmethod
    def generating_set(gens, central):
        """The generating set recomputed rank by rank: from the span of 1,
        walk the central inputs, then the others in (degree, term count,
        index) order; an input outside the span of the products kept so far
        joins S if it is not central, and then x*g, x*g^2, ... join for every
        kept product x (1 included) while the degree sum stays within the
        top input degree."""
        top = max(g.degree for g in gens)
        rest = sorted(set(range(len(gens))) - set(central),
                      key=lambda i: (gens[i].degree, len(gens[i].terms), i))
        one = NCPoly.one(gens[0].sig)
        span, products, basis = [one.terms], [(0, one)], []
        for i in central + rest:
            g = gens[i]
            if span_dimension(span + [g.terms]) == span_dimension(span):
                continue
            if i not in central:
                basis.append(i)
            for degree, x in list(products):
                for power in range(1, top + 1):
                    if degree + power * g.degree > top:
                        break
                    y = x * g ** power
                    if span_dimension(span + [y.terms]) > span_dimension(span):
                        span.append(y.terms)
                        products.append((degree + power * g.degree, y))
        return sorted(basis)

    @staticmethod
    def assert_corruption_fails(coeffs, k):
        sig = coeffs[0][1].sig
        label, c = coeffs[k]
        coeffs = list(coeffs)
        coeffs[k] = (label, c + sig.gen(1, 1, 2))
        rep = commutation_matrix([c for _, c in coeffs], [l for l, _ in coeffs])
        assert rep.passed is False
        assert rep.witnesses
        assert all(label in w["pair"] for w in rep.witnesses)

    def test_corrupted_central_coefficient_fails(self):
        coeffs = _talalaev_coefficients(2, 3)
        self.assert_corruption_fails(coeffs, self.central([c for _, c in coeffs])[0])

    def test_corrupted_coefficient_outside_the_basis_fails(self):
        coeffs = _talalaev_coefficients(2, 3)
        gens = [c for _, c in coeffs]
        central = self.central(gens)
        basis = self.generating_set(gens, central)
        assert commutation_matrix(gens).info["basis"] == len(basis)
        outside = [i for i in range(len(gens)) if i not in basis + central]
        assert outside
        self.assert_corruption_fails(coeffs, outside[0])

    def test_corrupted_coefficient_outside_the_linear_span_fails(self):
        # QTr3's order-1 residue at z=0 is independent of the inputs before
        # it in the walk, so only products take it out of the generating set
        coeffs = _talalaev_coefficients(3, 2)
        gens = [c for _, c in coeffs]
        k = [label for label, _ in coeffs].index("QTr3[z=0,order 1]")
        central = self.central(gens)
        before = [g.terms for i, g in enumerate(gens) if i in central
                  or (g.degree, len(g.terms), i) < (gens[k].degree, len(gens[k].terms), k)]
        assert span_dimension(before + [gens[k].terms]) == span_dimension(before) + 1
        assert k not in self.generating_set(gens, central)
        self.assert_corruption_fails(coeffs, k)

    def test_products_of_non_central_inputs_certify_nothing(self, q1):
        # e12 + e21 = (e12 + e21)(e11 + 1) - (e12 + e21) e11, but both
        # products have e12 + e21 as a factor, so they join the span only
        # after it is tested and e12 + e21 stays in the generating set
        e11 = q1.gen(1, 1, 1)
        gens = [e11, e11 * e11, e11 + NCPoly.one(q1), q1.gen(1, 1, 2) + q1.gen(1, 2, 1)]
        rep = self.assert_matches_oracle(gens)
        assert rep.passed is False
        assert all("g3" in w["pair"] for w in rep.witnesses)

    def test_a_product_column_follows_its_factor(self, q1):
        # with C and C + 1 central, g = (C + 1) g - C g for every g, so the
        # products of g must not join the span before g itself is tested
        c = q1.gen(1, 1, 1) + q1.gen(1, 2, 2)
        gens = [c, c + NCPoly.one(q1), c * c, q1.gen(1, 1, 2), q1.gen(1, 1, 1)]
        rep = self.assert_matches_oracle(gens)
        assert rep.passed is False
        assert rep.info == {"central": 3, "basis": 2, "pairs": 1}

    def test_a_product_of_two_generators_is_not_a_generator(self, q2):
        # a*b is a polynomial in a and b, so S = {a, b} and one pair is
        # bracketed; a module over the (empty) centre would need all three.
        # Adding e[1,2]@1 to the product takes it out of the span of the
        # products of a and b, so it joins S and fails.
        a, b = q2.gen(1, 1, 1), q2.gen(1, 2, 2)
        gens = [a, b, a * b]
        rep = self.assert_matches_oracle(gens)
        assert rep.passed
        assert rep.info == {"central": 0, "basis": 2, "pairs": 1}
        assert self.generating_set(gens, []) == [0, 1]
        rep = self.assert_matches_oracle([a, b, a * b + q2.gen(1, 1, 2)])
        assert rep.passed is False
        assert rep.witnesses
        assert all("g2" in w["pair"] for w in rep.witnesses)

    @staticmethod
    def random_module_family(rng, central, others, spoiler):
        """Two of ``central`` and a shifted copy of the first, two random
        combinations g of ``others``, and three products c*g plus sometimes
        a multiple of a g; half the time ``spoiler`` is added to one input
        that is not from ``central``.  Shuffled."""
        sig = central[0].sig
        cs = rng.sample(central, 2)
        cs.append(cs[0] + NCPoly.scalar(sig, rng.choice([-2, 1, 3])))
        gs = [reduce(add, (x.scale(rng.choice([-2, -1, 1, 3])) for x in rng.sample(others, 2)))
              for _ in range(2)]
        inputs = cs + gs
        for _ in range(3):
            inputs.append(rng.choice(cs) * rng.choice(gs)
                          + rng.choice(gs).scale(rng.choice([0, 1, -2])))
        if rng.random() < 0.5:
            k = rng.randrange(len(cs), len(inputs))
            inputs[k] = inputs[k] + spoiler
        rng.shuffle(inputs)
        return inputs

    def test_verdict_equals_the_full_table_on_random_central_modules(self, q2, c2, rng):
        for sig in (q2, c2):
            casimirs = []
            for i in (1, 2):
                e = [[sig.gen(i, a, b) for b in (1, 2)] for a in (1, 2)]
                casimirs += [e[0][0] + e[1][1], reduce(add, (e[a][b] * e[b][a]
                                                             for a in (0, 1) for b in (0, 1)))]
            # pairwise commuting: the diagonal letters at site 1 and a letter at site 2
            others = [sig.gen(1, 1, 1), sig.gen(1, 2, 2), sig.gen(2, 1, 2)]
            verdicts = set()
            for _ in range(12):
                gens = self.random_module_family(rng, casimirs, others, sig.gen(1, 1, 2))
                verdicts.add(self.assert_matches_oracle(gens).passed)
            assert verdicts == {True, False}

    def test_verdict_equals_the_full_table_on_random_central_modules_under_tables(self, c2, rng):
        # the tables bracket site-1 letters only, so site-2 polynomials are central
        site1 = [(1, a, b) for a in (1, 2) for b in (1, 2)]
        verdicts = set()
        for _ in range(20):
            table = (1, self.random_antisymmetric_rules(rng, c2, site1, 2))
            central = [NCPoly(c2, {tuple(sorted((2, a, b) for _, a, b in w)): v
                                   for w, v in random_ncpoly(rng, c2, terms=2).terms.items()})
                       for _ in range(3)]
            gens = self.random_module_family(rng, central, [c2.gen(*g) for g in site1],
                                             c2.gen(1, 1, 2))
            verdicts.add(self.assert_matches_oracle(gens, table).passed)
        assert verdicts == {True, False}

    def test_only_one_pair_of_top_degree_inputs_fails(self, c2):
        # p = x12^3 and q = x12^2 x22 at site 1: {p, q} = 3 x12^5 reaches the
        # exponent 2 * 3 - 1 that the certificate's one packing width holds;
        # the other inputs are Casimirs, the cubic one of top degree too
        e = [[c2.gen(1, a, b) for b in (1, 2)] for a in (1, 2)]
        x12, x22 = e[0][1], e[1][1]
        gens = [e[0][0] + e[1][1],
                reduce(add, (e[a][b] * e[b][a] for a in (0, 1) for b in (0, 1))),
                (c2.gen(2, 1, 1) + c2.gen(2, 2, 2)) ** 3,
                x12 ** 3, x12 * x12 * x22]
        rep = self.assert_matches_oracle(gens)
        assert set(ordered_pair_brackets(gens)) == {(3, 4), (4, 3)}
        assert rep.witnesses == [{"pair": ["g3", "g4"],
                                  "bracket": "3 * " + " * ".join(["x[1,2]@1"] * 5)}]

    @pytest.mark.parametrize("extra", [
        lambda sig: [NCPoly.scalar(sig, Fraction(-5, 3)), sig.zero()],
        lambda sig: [sig.zero(), NCPoly.one(sig)],
    ], ids=["constant-then-zero", "zero-then-constant"])
    def test_constant_and_zero_inputs(self, extra, rng):
        gens = _glued_family(2)
        sig = gens[0].sig
        rep = self.assert_matches_oracle(gens + extra(sig))
        assert rep.passed
        assert rep.info["central"] == commutation_matrix(gens).info["central"] + 2
        spoiled = gens + extra(sig) + [random_ncpoly(rng, sig, max_degree=2, terms=3)]
        assert self.assert_matches_oracle(spoiled).passed is False
        rep = self.assert_matches_oracle(extra(sig))
        assert rep.passed
        assert rep.info == {"central": 2, "basis": 0, "pairs": 0}

    def test_one_sided_table_is_refused(self, c2):
        # {x11@1, x12@1} = x22@2 while {x12@1, x11@1} = 0
        table = (1, {((1, 1, 1), (1, 1, 2)): [((2, 2, 2), 1)]})
        a, b = c2.gen(1, 1, 1), c2.gen(1, 1, 2)
        for gens in ([a, b], [b, a]):
            with pytest.raises(ValueError, match=r"\{x\[1,1\]@1, x\[1,2\]@1\}"):
                commutation_matrix(gens, table=table)

    def test_generic_families_at_two_pole_sets_fail_on_the_slice(self, monkeypatch):
        # the generic r = 3 families at poles (0, 1, 2) and (0, 1, 5) do not
        # commute with each other; every input is invariant, so every pair
        # of S runs on the slice and each failing pair again in full
        sig = AlgebraSignature(3, 3, Mode.CLASSICAL)
        gens = [m for poles in ([0, 1, 2], [0, 1, 5])
                for m in spectral_invariants(gaudin_lax(sig, poles)).exprs()]
        full = commutation_matrix(gens, table=letter_table(standard_operator(3), sig))
        sliced = count_sliced_brackets(monkeypatch)
        rep = commutation_matrix(gens)
        assert len(sliced) == rep.info["pairs"] == 45
        assert len(rep.witnesses) == 24
        assert rep.to_json_dict() == full.to_json_dict()
        for w in rep.witnesses:
            i, j = (int(label[1:]) for label in w["pair"])
            assert w["bracket"] == NCPoly(sig, leibniz_terms(gens[i].terms, gens[j].terms)).render()

    def test_an_input_off_the_invariants_is_bracketed_in_full(self, monkeypatch):
        sliced = count_sliced_brackets(monkeypatch)
        gens = _glued_family(3)
        sig = gens[0].sig
        assert commutation_matrix(gens).passed
        assert len(sliced) == 15
        # x[1,2]@1 folded into the last input: S is no longer invariant
        spoiled = gens[:-1] + [gens[-1] + sig.gen(1, 1, 2)]
        sliced.clear()
        rep = commutation_matrix(spoiled)
        assert not sliced
        assert rep.passed is False
        assert rep.to_json_dict() == commutation_matrix(
            spoiled, table=letter_table(standard_operator(3), sig)).to_json_dict()
        # {x[1,1]@1, x[1,2]@1} = x[1,2]@1 vanishes on the slice, so only the
        # invariance test keeps this pair from passing there
        c2 = AlgebraSignature(2, 2, Mode.CLASSICAL)
        a, b = c2.gen(1, 1, 1), c2.gen(1, 1, 2)
        assert not on_diagonal_slice(leibniz_terms(a.terms, b.terms))
        assert self.assert_matches_oracle([a, b]).passed is False
        assert not sliced

    def test_slice_bracket_is_the_full_bracket_on_the_slice(self, rng):
        nonzero = 0
        for rank in (2, 3):
            sig = AlgebraSignature(rank, 3, Mode.CLASSICAL)
            for _ in range(8):
                p, q = (random_invariant(rng, sig, terms=3) for _ in range(2))
                packing = Packing(sig, p.degree + q.degree - 1)
                forms, off = manin._diagonal_slice(packing, {0: packing.pack(p),
                                                             1: packing.pack(q)})
                want = on_diagonal_slice(leibniz_terms(p.terms, q.terms))
                assert packing.bracket(forms[0], forms[1], zero=off).terms == want
                nonzero += bool(want)
                spoiled = packing.pack(p + sig.gen(1, 1, 2))
                assert manin._diagonal_slice(packing, {0: spoiled}) is None
        assert nonzero >= 8

    def test_no_slice_at_rank_one(self, monkeypatch, rng):
        # the gl_1 Lie-Poisson bracket is zero: every input is central
        sig = AlgebraSignature(1, 3, Mode.CLASSICAL)
        sliced = count_sliced_brackets(monkeypatch)
        calls = []
        monkeypatch.setattr(manin, "_diagonal_slice", lambda *a: calls.append(a))
        rep = commutation_matrix([random_ncpoly(rng, sig, max_degree=3) for _ in range(4)])
        assert rep.passed
        assert rep.info == {"central": 4, "basis": 0, "pairs": 0}
        assert not calls and not sliced

    def test_glue_r3_work_counters(self, monkeypatch):
        """The certificate packs each input, centre letter and diagonal
        letter once and brackets its 15 pairs on the slice, the rank check
        packs each of its 24 + 18 members once and decodes each distinct
        rest monomial of their gradients once, and the invariants expand
        each product of basis functions once through RatFun."""
        phase = [None]
        packs, words, products = Counter(), Counter(), []
        sliced = count_sliced_brackets(monkeypatch)
        pack, word, mul = Packing.pack, Packing.word, RatFun.__mul__
        monkeypatch.setattr(Packing, "pack", lambda *a: packs.update([phase[0]]) or pack(*a))
        monkeypatch.setattr(Packing, "word", lambda *a: words.update([phase[0]]) or word(*a))
        monkeypatch.setattr(RatFun, "__mul__", lambda *a: products.append(1) or mul(*a))
        for name in ("commutation_matrix", "rank_completeness_check"):
            def within(*a, real=getattr(suites, name), name=name, **k):
                phase[0] = name
                try:
                    return real(*a, **k)
                finally:
                    phase[0] = None
            monkeypatch.setattr(suites, name, within)
        rep, ranks, *_ = run_suite("glue", RunConfig(rank=3))
        assert rep.passed and ranks.passed
        assert (rep.info["central"], rep.info["basis"], rep.info["pairs"]) == (10, 6, 15)
        assert packs == {"commutation_matrix": 24 + 12 + 4, "rank_completeness_check": 24 + 18}
        assert sliced == [True] * 15
        assert words["rank_completeness_check"] == 235
        assert len(products) <= 60

    @pytest.mark.parametrize("gens, info", [
        (lambda: [c for _, c in _talalaev_coefficients(3, 2)], (10, 3, 3)),
        (lambda: [c for _, c in _talalaev_coefficients(2, 3)], (9, 2, 1)),
        (lambda: _glued_family(3), (10, 6, 15)),
    ], ids=["talalaev-r3n2", "talalaev-r2n3", "glue-r3"])
    def test_work_counters(self, gens, info):
        rep = commutation_matrix(gens())
        assert rep.passed
        assert (rep.info["central"], rep.info["basis"], rep.info["pairs"]) == info
