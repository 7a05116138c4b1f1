import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import comb, factorial
from operator import add

import pytest

from gaudin import linalg, manin
from gaudin.algebra import (
    AlgebraSignature, Mode, ModeError, NCPoly, classical_limit, commutator,
)
from gaudin.gluing import iterate_pattern, parse_pattern
from gaudin.lax import (
    LaxMatrix, bending_lax_rational, gaudin_lax, lax_from_groups, pole_site_groups,
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
from gaudin.ratfun import DiffOpEntry, LaxEntry, RatFun
from gaudin.suites import RunConfig, _cross_site_manin, run_suite

from oracles import (
    all_position_pairs_manin,
    cayley_hamilton_residual,
    commutator_manin,
    cramer_residuals,
    elementary_glue,
    manin_relation,
    minor_adjugate,
    ordered_pair_brackets,
    permutation_col_det,
    quantum_power_traces,
    random_diffop_matrix,
    random_letter,
    random_ncpoly,
    span_dimension,
)


def count_products(monkeypatch) -> list[int]:
    """A list that grows by one at each DiffOpEntry product from now on."""
    seen = []
    inner = DiffOpEntry.__mul__
    monkeypatch.setattr(DiffOpEntry, "__mul__",
                        lambda a, b: seen.append(1) or inner(a, b))
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
        monkeypatch.setattr(manin, "col_det",
                            lambda M, order=None: seen.append(order) or inner(M, order))
        rng = random.Random(n)
        rep = column_order_invariance(
            const_matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]))
        assert rep.passed and rep.params["orders"] == factorial(n)
        assert len(seen) == factorial(n)
        assert seen[0] is None and tuple(range(n)) not in seen


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
        M = const_matrix([[1, 2], [3, 4]])
        assert col_det(M, (1, 0)) == col_det(M)


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
        # the sweep: 6 orders of 3 products and the 18 minors on two rows and
        # two distinct columns (36); is_manin: the 9 minors on a repeated
        # column (18); Cramer: the 6 off-diagonal entries (18).  Without the
        # table the same checks made 171.
        assert len(products) == 36 + 18 + 18 + 18 == 90

    def test_second_sweep_reads_the_table(self, monkeypatch):
        M = self.gaudin_gl3_n3()
        first = [column_order_invariance(M), *manin_property_suite(M)]
        products = count_products(monkeypatch)
        again = [column_order_invariance(M), *manin_property_suite(M)]
        sums = M.minor_sums        # Newton's characteristic sums
        assert products == []
        assert sums[M.size] is M.det()
        assert [r.to_json_dict() for r in again] == [r.to_json_dict() for r in first]

    def test_cramer_keeps_no_other_column_order(self):
        # without a sweep, the diagonal Cramer entries in column orders
        # other than the default are read once and not kept
        M = self.gaudin_gl3_n3()
        manin_property_suite(M)
        orders = {cols for rows, cols in M._minors
                  if len(rows) == M.size and len(set(cols)) == M.size}
        assert orders == {(0, 1, 2)}

    def test_cached_values_match_fresh_determinants(self):
        M = manin_case("gaudin-gl3")
        n = M.size
        E = M.entries
        assert M.det() == permutation_col_det(E)
        fresh = [DiffOpEntry.one(M.sig)] + [
            reduce(add, (permutation_col_det([[E[i][j] for j in keep] for i in keep])
                         for keep in combinations(range(n), k)))
            for k in range(1, n + 1)]
        assert M.minor_sums == fresh
        assert M.minor_sums is M.minor_sums and M.minor_sums[n] is M.det()
        column_order_invariance(M)
        manin_property_suite(M)
        for (rows, cols), value in M._minors.items():
            assert value == permutation_col_det([[E[r][c] for c in cols] for r in rows])


def noncommuting_operator_matrix(n: int) -> DiffOpMatrix:
    """A seeded n x n matrix whose entries are one letter of any site times
    a + b/(z - p), plus c d/dz: entries of one column do not commute, and
    d/dz does not commute with the coefficients.  One letter per entry keeps
    the 4! x 4! products of the permutation oracle cheap."""
    sig = AlgebraSignature(2, 2, Mode.QUANTUM)
    rng = random.Random(n)

    def entry():
        f = RatFun.const(rng.randint(-2, 2)) + RatFun.one_over_z_minus(
            rng.randint(0, 1)).scale(rng.randint(1, 2))
        lax = LaxEntry.from_terms(sig, [((random_letter(rng, sig),), f)])
        return DiffOpEntry(sig, {0: lax, 1: LaxEntry.one(sig).scale(rng.randint(1, 2))})

    return DiffOpMatrix(sig, [[entry() for _ in range(n)] for _ in range(n)])


class TestMinorTableOracle:
    """On random non-Manin matrices with noncommuting entries and d/dz parts,
    the memoized expansion agrees with the permutation sum and the minor-copy
    adjugate, witnesses included."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_col_det_in_every_column_order(self, n):
        E = noncommuting_operator_matrix(n).entries
        memo: dict = {}
        for order in permutations(range(n)):
            assert linalg.col_det(E, order, memo) == permutation_col_det(E, order)

    @pytest.mark.parametrize("n", [3, 4])
    def test_witnesses_match_the_commutator_and_adjugate_formulas(self, n):
        M = noncommuting_operator_matrix(n)
        reports = {r.check: r for r in manin_property_suite(M)}
        assert reports["is_manin"].passed is False
        assert reports["is_manin"].witnesses == commutator_manin(M)
        assert reports["cramer"].passed is False
        assert reports["cramer"].witnesses == cramer_residuals(M)


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
    """DiffOpEntry products of the Manin checks: Cayley-Hamilton makes n - 1
    matrix products and scales no matrix, and a random matrix with a singular
    leading block is redrawn before any suite runs on it."""

    @pytest.mark.parametrize("rank, calls", [(2, 16), (3, 135)])
    def test_cross_site_suite(self, monkeypatch, rank, calls):
        M = _cross_site_manin(rank)
        products = count_products(monkeypatch)
        assert all(r.passed is not False for r in manin_property_suite(M))
        assert len(products) == calls

    @pytest.mark.parametrize("rank, calls", [(2, 1100), (3, 1338)])
    def test_manin_suite(self, monkeypatch, rank, calls):
        products = count_products(monkeypatch)
        assert all(r.passed is not False for r in run_suite("manin", RunConfig(rank=rank)))
        assert len(products) == calls

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
        # {x[1,1]@1, x[1,2]@1} = 3 x[2,2]@2 under a one-entry table
        rep = commutation_matrix(gens, ["a", "b"], (1, {((1, 1, 1), (1, 1, 2)): [((2, 2, 2), 3)]}))
        assert rep.witnesses == [{"pair": ["a", "b"], "bracket": "3 * x[2,2]@2"}]

    def test_letter_table_rejected_in_quantum_mode(self, q2):
        with pytest.raises(ModeError):
            commutation_matrix([q2.gen(1, 1, 1), q2.gen(1, 1, 2)], table=(1, {}))

    def test_labels_must_match_the_inputs(self, q2):
        gens = [q2.gen(1, 1, 1), q2.gen(1, 1, 2)]
        for labels in (["a"], ["a", "b", "c"]):
            with pytest.raises(ValueError, match=f"{len(labels)} labels for 2 generators"):
                commutation_matrix(gens, labels)

    def test_letter_table_diagonal_is_bracketed(self, c2):
        # {x[1,1]@1, x[1,1]@1} = x[2,2]@2: only the diagonal pair fails
        rep = commutation_matrix([c2.gen(1, 1, 1)], ["a"],
                                 (1, {((1, 1, 1), (1, 1, 1)): [((2, 2, 2), 1)]}))
        assert rep.witnesses == [{"pair": ["a", "a"], "bracket": "x[2,2]@2"}]
        assert rep.info == {"central": 0, "basis": 1, "pairs": 1}


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

    def test_verdict_equals_the_full_table_under_non_antisymmetric_tables(self, c2, rng):
        verdicts = set()
        for _ in range(20):
            rules = {}
            for _ in range(3):
                g = random_letter(rng, c2)
                h = g if rng.random() < 0.3 else random_letter(rng, c2)
                rules[(g, h)] = [(random_letter(rng, c2), rng.choice([-2, -1, 1, 3]))]
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
            table = (1, {(rng.choice(site1), rng.choice(site1)):
                         [(random_letter(rng, c2), rng.choice([-2, -1, 1, 3]))]
                         for _ in range(2)})
            central = [NCPoly(c2, {tuple(sorted((2, a, b) for _, a, b in w)): v
                                   for w, v in random_ncpoly(rng, c2, terms=2).terms.items()})
                       for _ in range(3)]
            gens = self.random_module_family(rng, central, [c2.gen(*g) for g in site1],
                                             c2.gen(1, 1, 2))
            verdicts.add(self.assert_matches_oracle(gens, table).passed)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("gens, info", [
        (lambda: [c for _, c in _talalaev_coefficients(3, 2)], (10, 3, 3)),
        (lambda: [c for _, c in _talalaev_coefficients(2, 3)], (9, 2, 1)),
        (lambda: _glued_family(3), (10, 6, 15)),
    ], ids=["talalaev-r3n2", "talalaev-r2n3", "glue-r3"])
    def test_work_counters(self, gens, info):
        rep = commutation_matrix(gens())
        assert rep.passed
        assert (rep.info["central"], rep.info["basis"], rep.info["pairs"]) == info
