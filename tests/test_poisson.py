import random
from fractions import Fraction

import pytest

from gaudin.algebra import AlgebraSignature, Mode, ModeError, Packing, poisson_bracket
from gaudin.gluing import iterate_pattern, left_comb_pattern
from gaudin import poisson, suites
from gaudin.lax import (
    InvariantFamily, InvariantMember, gaudin_lax, lax_from_groups, spectral_invariants,
)
from gaudin.manin import commutation_matrix
from gaudin.poisson import (
    PoissonOperator,
    antisymmetry_check,
    bracket_eval,
    compatibility_check,
    family_commutes_under,
    fivesite_operator,
    jacobi_check,
    letter_table,
    limit_coefficient,
    limit_rijk_operator,
    open_site_pairs,
    open_site_triples,
    pencil,
    standard_operator,
)
from gaudin.reports import dumps_json
from gaudin.suites import RunConfig, run_suite

from oracles import (
    eval_terms, fraction_letter_table, leibniz_jacobiator, letter_antisymmetry_check,
    letter_jacobi_check, numeric_block_bracket, random_ncpoly, sampled_jacobi,
)


def xx2_blocks():
    """The expected four-site limit operator, block by block."""
    blocks = {}
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                blocks[(i, j)] = {min(i, j): Fraction(1)}
            elif i > 1:
                combo = {i: Fraction(i - 1)}
                for k in range(1, i):
                    combo[k] = Fraction(-1)
                blocks[(i, j)] = combo
    return blocks


class TestLimitOperator:
    def test_reproduces_four_site_block_table(self):
        assert dict(limit_rijk_operator(4).blocks) == xx2_blocks()

    def test_theta_zero_convention_kills_first_block(self):
        assert limit_coefficient(1, 1, 1) == 0
        assert limit_rijk_operator(4).block(1, 1) == {}

    def test_block22(self):
        assert limit_rijk_operator(4).block(2, 2) == {2: 1, 1: -1}

    def test_symmetric_blocks(self):
        op = limit_rijk_operator(5)
        for i in range(1, 6):
            for j in range(1, 6):
                assert op.block(i, j) == op.block(j, i)


class TestOperators:
    """Names, pencils and the site range of block operators."""

    def test_names(self):
        std, lim = standard_operator(4), limit_rijk_operator(4)
        assert (std.name, lim.name) == ("standard", "limit_rijk")
        assert pencil(1, std, -1, lim).name == "pencil(1*standard + -1*limit_rijk)"
        assert pencil(Fraction(1, 2), lim, 3, std).name == "pencil(1/2*limit_rijk + 3*standard)"
        assert lim.with_block(2, 2, {2: Fraction(1)}).name == "operator"
        assert fivesite_operator([0, 1, 2, 3, 4]).name == "operator"

    def test_name_takes_no_part_in_equality(self):
        std = standard_operator(3)
        assert PoissonOperator(3, dict(std.blocks)) == std
        assert pencil(1, std, 0, limit_rijk_operator(3)) == std

    def test_equality_reads_sites_and_blocks(self):
        blocks = {(1, 1): {1: Fraction(1)}, (2, 1): {1: Fraction(-2)}}
        op = PoissonOperator(2, blocks, "first")
        assert op == PoissonOperator(2, dict(blocks), "second")
        assert op != PoissonOperator(3, blocks, "first")
        assert op != op.with_block(2, 1, {1: Fraction(2)})
        assert op != standard_operator(2)

    def test_zero_coefficients_take_no_part_in_equality(self):
        a = PoissonOperator(2, {(1, 1): {1: 1, 2: 0}})
        assert a == PoissonOperator(2, {(1, 1): {1: 1}})
        assert PoissonOperator(2, {(1, 2): {1: 0}}) == PoissonOperator(2, {})
        assert pencil(1, a, 0, standard_operator(2)) == a

    def test_pencil_combines_blocks(self):
        combined = pencil(2, standard_operator(4), Fraction(-1, 3), limit_rijk_operator(4))
        assert combined.block(1, 1) == {1: 2}
        assert combined.block(2, 2) == {2: 2 - Fraction(1, 3), 1: Fraction(1, 3)}
        assert combined.block(1, 2) == {1: Fraction(-1, 3)}

    def test_self_cancelling_pencil_is_empty(self):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        op = limit_rijk_operator(4)
        zero = pencil(1, op, -1, op)
        assert zero.blocks == {} and letter_table(zero, sig) == (1, {})
        anti, jac = antisymmetry_check(zero, sig), jacobi_check(zero, sig)
        assert anti.passed and anti.info["failed"] == 0
        assert jac.passed and jac.info["failed"] == 0

    def test_pencil_of_different_site_counts_refused(self):
        with pytest.raises(ValueError, match="4-site and a 5-site"):
            pencil(1, standard_operator(4), 1, limit_rijk_operator(5))

    @pytest.mark.parametrize("blocks", [
        {(1, 3): {1: 1}, (3, 1): {1: 1}},
        {(1, 1): {3: 1}},
        {(0, 1): {1: 1}},
        {(2, 2): {0: 1}},
    ], ids=["block-site-3", "coefficient-site-3", "block-site-0", "coefficient-site-0"])
    def test_out_of_range_site_refused(self, blocks):
        # on two sites no checked triple would reach site 3, so a certificate
        # could pass an operator whose blocks it never read
        with pytest.raises(ValueError, match=r"outside 1\.\.2"):
            PoissonOperator(2, blocks)


class TestBracketEval:
    def test_standard_delegates_to_lie_poisson(self, c3, rng):
        for _ in range(15):
            f = random_ncpoly(rng, c3, 2, 3)
            g = random_ncpoly(rng, c3, 2, 3)
            assert bracket_eval(standard_operator(3), f, g) == poisson_bracket(f, g)

    def test_standard_operator_form_matches_kernel(self, c3, rng):
        spec = PoissonOperator(3, {(i, i): {i: 1} for i in range(1, 4)})
        for _ in range(15):
            f = random_ncpoly(rng, c3, 2, 3)
            g = random_ncpoly(rng, c3, 2, 3)
            assert bracket_eval(spec, f, g) == poisson_bracket(f, g)

    def test_limit_bracket_functions_of_first_site_only(self):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        f = sig.gen(1, 1, 2) * sig.gen(1, 2, 1)
        g = sig.gen(1, 1, 1) * sig.gen(1, 2, 2)
        assert bracket_eval(limit_rijk_operator(4), f, g).is_zero()

    def test_quantum_rejected(self, q2):
        with pytest.raises(ModeError):
            bracket_eval(standard_operator(2), q2.gen(1, 1, 1), q2.gen(1, 1, 2))

    def test_pencil_is_linear_combination(self, rng):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        std, lim = standard_operator(4), limit_rijk_operator(4)
        combined = pencil(Fraction(2), std, Fraction(-3), lim)
        for _ in range(5):
            f = random_ncpoly(rng, sig, 2, 2)
            g = random_ncpoly(rng, sig, 2, 2)
            expected = bracket_eval(std, f, g) * 2 - bracket_eval(lim, f, g) * 3
            assert bracket_eval(combined, f, g) == expected


class TestFivesiteOperator:
    def test_top_row(self):
        op = fivesite_operator([0, 1, 2, 3, 4])
        z23 = Fraction(1 - 2)
        assert op.block(1, 2) == {1: z23}
        for j in (1, 3, 4, 5):
            assert op.block(1, j) == {}

    def test_block_45_verbatim(self):
        z = [Fraction(v) for v in (0, 1, 2, 3, 4)]
        op = fivesite_operator(z)
        z13, z34, z35, z45 = z[0] - z[2], z[2] - z[3], z[2] - z[4], z[3] - z[4]
        expected = {4: z13 * z35 ** 2 / z45 ** 2, 5: z13 * z34 ** 2 / z45 ** 2}
        assert op.block(4, 5) == expected

    def test_coincident_parameters_rejected(self):
        with pytest.raises(ValueError):
            fivesite_operator([0, 1, 2, 2, 4])

    def test_antisymmetry_holds_but_jacobi_fails(self):
        # diagnostic finding: the tabulated operator is antisymmetric yet does
        # not satisfy Jacobi, so its checks never gate acceptance
        sig = AlgebraSignature(2, 5, Mode.CLASSICAL)
        spec = fivesite_operator([0, 1, 2, 3, 4])
        assert antisymmetry_check(spec, sig).passed
        rep = jacobi_check(spec, sig)
        assert rep.passed is False and rep.witnesses


class TestJacobi:
    def test_standard_passes(self):
        for rank in (1, 2, 3):
            for sites in (2, 3):
                sig = AlgebraSignature(rank, sites, Mode.CLASSICAL)
                assert jacobi_check(standard_operator(sites), sig).passed

    def test_limit_passes_gl2_n4(self):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        assert jacobi_check(limit_rijk_operator(4), sig).passed

    def test_corrupted_operator_fails_with_witness(self):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        bad = limit_rijk_operator(4).with_block(2, 2, {1: Fraction(1), 2: Fraction(1)})
        rep = jacobi_check(bad, sig)
        assert rep.passed is False
        assert rep.witnesses[0]["triple"]


class TestCompatibility:
    def test_standard_with_limit(self):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        rep = compatibility_check(standard_operator(4), limit_rijk_operator(4), sig)
        assert rep.passed
        assert rep.info == {"triples": 560, "failed": 0}

    def test_standard_with_itself(self, c3):
        assert compatibility_check(standard_operator(3), standard_operator(3), c3).passed

    def test_standard_with_corrupted_fails(self):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        bad = limit_rijk_operator(4).with_block(3, 3, {3: Fraction(2)})
        rep = compatibility_check(standard_operator(4), bad, sig)
        assert rep.passed is False
        assert rep.info["failed"] == len(rep.witnesses) > 0
        assert rep.params == {"first": "standard", "second": "operator"}
        specs = [w["spec"] for w in rep.witnesses]
        assert specs == ["pencil(1*standard + 1*operator)"] * 42


class TestFamilyCommutes:
    def test_bending_family_under_both_brackets_n3(self, c3):
        pattern, poles = left_comb_pattern(3)
        inv = iterate_pattern(c3, pattern, poles).invariant_family()
        assert family_commutes_under(standard_operator(3), inv).passed
        assert family_commutes_under(limit_rijk_operator(3), inv).passed

    def test_single_member_family(self, c3):
        fam = spectral_invariants(lax_from_groups(c3, [([1, 2, 3], 0)], "blob"), 1)
        assert family_commutes_under(limit_rijk_operator(3), fam).passed
        with pytest.raises(ValueError, match="operator is for 4 sites, signature has 3"):
            family_commutes_under(standard_operator(4), fam)

    def test_noncommuting_family_detected(self, c3):
        bad = InvariantFamily([
            InvariantMember(c3.gen(1, 1, 2), {"matrix": "control", "which": "x12"}),
            InvariantMember(c3.gen(1, 2, 1), {"matrix": "control", "which": "x21"}),
        ])
        rep = family_commutes_under(standard_operator(3), bad)
        assert rep.passed is False and rep.witnesses

    def test_non_antisymmetric_operator_is_refused(self, c2):
        # block (1, 2) without a block (2, 1): {x@1, y@2} != -{y@2, x@1}
        fam = spectral_invariants(lax_from_groups(c2, [([1], 0), ([2], 1)], "g"))
        with pytest.raises(ValueError, match=r"not antisymmetric: \{x\[\d,\d\]@1, x\[\d,\d\]@2\}"):
            family_commutes_under(PoissonOperator(2, {(1, 2): {1: 1}}), fam)

    def test_gaudin_invariants_commute_under_standard_bracket_only(self, c3):
        inv = spectral_invariants(lax_from_groups(c3, [([1], 0), ([2], 1), ([3], 2)], "g"))
        assert family_commutes_under(standard_operator(3), inv).passed
        rep = family_commutes_under(limit_rijk_operator(3), inv)
        assert rep.passed is False and rep.witnesses
        assert rep.check == "family_commutes"
        assert rep.params == {"spec": "limit_rijk", "family": "g", "members": len(inv)}

    def test_standard_operator_is_bracketed_on_the_slice(self, monkeypatch):
        # the standard operator, and a pencil equal to it, is the
        # Lie-Poisson bracket: no letter table is compiled, and every pair
        # of S is bracketed on the diagonal slice, with its nonzero mask
        sig = AlgebraSignature(3, 3, Mode.CLASSICAL)
        inv = spectral_invariants(lax_from_groups(sig, [([1], 0), ([2], 1), ([3], 2)], "g"))
        compiled, masked = [], []
        bracket = Packing.bracket

        def counted(self, p, q, table=None, zero=0):
            masked.append(bool(zero))
            return bracket(self, p, q, table, zero)

        monkeypatch.setattr(Packing, "bracket", counted)
        monkeypatch.setattr(poisson, "letter_table", lambda *a: compiled.append(a))
        std = standard_operator(3)
        for op in (std, pencil(2, std, -1, std)):
            masked.clear()
            rep = family_commutes_under(op, inv)
            assert rep.passed and not compiled
            assert masked.count(True) == rep.info["pairs"] == 15

    @pytest.mark.parametrize("pole_sets, failing", [
        ([[0, 1, 2]], 0),
        ([[0, 1, 2], [0, 1, 5]], 24),
    ], ids=["one-pole-set", "two-pole-sets"])
    def test_standard_operator_report_equals_the_compiled_table_s(self, pole_sets, failing):
        # the generic r = 3 families at two pole sets do not commute with
        # each other; the Lie-Poisson path reports what the standard
        # operator's letter table does, witnesses and info included
        sig = AlgebraSignature(3, 3, Mode.CLASSICAL)
        fam = InvariantFamily([m for poles in pole_sets
                               for m in spectral_invariants(gaudin_lax(sig, poles)).members],
                              "generic")
        rep = family_commutes_under(standard_operator(3), fam)
        full = commutation_matrix(fam.exprs(), [m.provenance for m in fam.members],
                                  letter_table(standard_operator(3), sig))
        full.check, full.params = rep.check, rep.params
        assert len(rep.witnesses) == failing
        assert dumps_json(rep.to_json_dict()) == dumps_json(full.to_json_dict())

    def test_quantum_family_is_refused(self, q3):
        fam = InvariantFamily([InvariantMember(q3.gen(1, 1, 2), {"which": "x12"}),
                               InvariantMember(q3.gen(1, 2, 1), {"which": "x21"})])
        for op in (standard_operator(3), limit_rijk_operator(3)):
            with pytest.raises(ModeError, match="defined in Classical mode only"):
                family_commutes_under(op, fam)


def _pencil(sign, sites):
    return pencil(1, standard_operator(sites), sign, limit_rijk_operator(sites))


def _corrupted(sites):
    return limit_rijk_operator(sites).with_block(2, 2, {1: Fraction(1), 2: Fraction(1)})


def _fivesite():
    return fivesite_operator([0, 1, 2, 3, 4])


def _leibniz_jacobiator(spec, sig, triple) -> str:
    by_name = {sig.gen(*g).render(): sig.gen(*g) for g in sig.letters()}
    return leibniz_jacobiator(letter_table(spec, sig),
                              *(by_name[name] for name in triple)).render()


class TestCertificates:
    """Exhaustive antisymmetry and Jacobi certificates on the letter table."""

    @pytest.mark.parametrize("rank, sites", [(2, 3), (2, 5), (3, 4)])
    def test_standard_limit_and_pencils_pass(self, rank, sites):
        sig = AlgebraSignature(rank, sites, Mode.CLASSICAL)
        n = rank * rank * sites
        for spec in (standard_operator(sites), limit_rijk_operator(sites),
                     _pencil(1, sites), _pencil(-1, sites)):
            anti, jac = antisymmetry_check(spec, sig), jacobi_check(spec, sig)
            assert anti.passed and jac.passed, spec.name
            assert anti.info == {"pairs": n * (n + 1) // 2, "failed": 0}
            assert jac.info == {"triples": n * (n - 1) * (n - 2) // 6, "failed": 0}
            assert anti.trials is None and "seed" not in jac.params

    def test_corrupted_block_fails_42_of_1140_triples(self):
        sig = AlgebraSignature(2, 5, Mode.CLASSICAL)
        rep = jacobi_check(_corrupted(5), sig)
        assert rep.passed is False
        assert rep.info == {"triples": 1140, "failed": 42}
        assert len(rep.witnesses) == 42
        for w in rep.witnesses[:5]:
            assert w["jacobiator"] == _leibniz_jacobiator(_corrupted(5), sig, w["triple"])

    def test_fivesite_fails_56_of_1140_and_is_antisymmetric(self):
        sig = AlgebraSignature(2, 5, Mode.CLASSICAL)
        anti = antisymmetry_check(_fivesite(), sig)
        assert anti.passed and anti.witnesses == []
        assert anti.info == {"pairs": 210, "failed": 0}
        rep = jacobi_check(_fivesite(), sig)
        assert rep.info == {"triples": 1140, "failed": 56}
        for w in rep.witnesses[:5]:
            assert w["jacobiator"] == _leibniz_jacobiator(_fivesite(), sig, w["triple"])

    def test_witnesses_undo_the_integer_scaling(self):
        # poles 0, 1, 5/2, 3, 7 give the table denominators 2 and 4
        sig = AlgebraSignature(2, 5, Mode.CLASSICAL)
        spec = fivesite_operator([0, 1, Fraction(5, 2), 3, 7])
        d, rules = letter_table(spec, sig)
        assert any(Fraction(c, d).denominator > 1 for combo in rules.values() for _, c in combo)
        rep = jacobi_check(spec, sig)
        assert rep.passed is False
        for w in rep.witnesses[:5]:
            assert w["jacobiator"] == _leibniz_jacobiator(spec, sig, w["triple"])

    def test_missing_transposed_block_fails_antisymmetry(self):
        sig = AlgebraSignature(2, 2, Mode.CLASSICAL)
        spec = PoissonOperator(2, {(1, 2): {1: Fraction(1)}})
        table = letter_table(spec, sig)
        rep = antisymmetry_check(spec, sig)
        assert rep.passed is False
        assert rep.info == {"pairs": 36, "failed": len(table[1])}
        assert rep.witnesses[0] == {"pair": ["x[1,1]@1", "x[1,2]@2"],
                                    "residual": "x[1,2]@1"}
        by_name = {sig.gen(*g).render(): g for g in sig.letters()}
        for w in rep.witnesses:
            g, h = (by_name[name] for name in w["pair"])
            assert g[0] == 1 and h[0] == 2
            assert w["residual"] == poisson_bracket(sig.gen(*g), sig.gen(*h), table).render()

    @pytest.mark.parametrize("spec", [
        standard_operator(5), limit_rijk_operator(5), _pencil(1, 5), _pencil(-1, 5),
        _corrupted(5), _fivesite(),
    ], ids=["standard", "limit", "std+limit", "std-limit", "corrupted", "fivesite"])
    def test_verdict_agrees_with_sampled_jacobi(self, spec, rng):
        sig = AlgebraSignature(2, 5, Mode.CLASSICAL)
        expected = sampled_jacobi(letter_table(spec, sig), sig, rng)
        assert jacobi_check(spec, sig).passed is expected

    def test_quantum_rejected(self, q2):
        for check in (antisymmetry_check, jacobi_check):
            with pytest.raises(ModeError):
                check(standard_operator(2), q2)


class TestLetterTableOracle:
    """The integer letter table against the block formula summed in Fractions."""

    @staticmethod
    def assert_matches(op, sig):
        d, rules = letter_table(op, sig)
        want = fraction_letter_table(op, sig)
        assert all(type(n) is int for rule in rules.values() for _, n in rule)
        assert rules.keys() == want.keys()
        for pair, rule in rules.items():
            assert len(rule) == len(want[pair])
            assert {g: Fraction(n, d) for g, n in rule} == want[pair]

    @pytest.mark.parametrize("rank, sites", [(2, 3), (2, 5), (3, 4)])
    def test_standard_and_limit(self, rank, sites):
        sig = AlgebraSignature(rank, sites, Mode.CLASSICAL)
        for op in (standard_operator(sites), limit_rijk_operator(sites)):
            self.assert_matches(op, sig)

    def test_fivesite_operator(self):
        sig = AlgebraSignature(2, 5, Mode.CLASSICAL)
        self.assert_matches(fivesite_operator([0, 1, Fraction(5, 2), 3, 7]), sig)

    def test_random_fractional_pencils(self, rng):
        sig = AlgebraSignature(2, 3, Mode.CLASSICAL)
        for _ in range(6):
            blocks = {(i, j): {k: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                               for k in range(1, 4)}
                      for i in range(1, 4) for j in range(1, 4)}
            lam = Fraction(rng.randint(-3, 3), rng.randint(1, 5))
            mu = Fraction(rng.choice([-2, 1, 3]), rng.choice([5, 7]))
            op = pencil(lam, limit_rijk_operator(3), mu, PoissonOperator(3, blocks))
            assert letter_table(op, sig)[0] > 1
            self.assert_matches(op, sig)


class TestBlockFormulaOracle:
    """bracket_eval against sum_{i,j} Tr(grad_i F [P_ij, grad_j G]) computed
    independently at random rational points."""

    @staticmethod
    def agree(spec, blocks_by_scale, sig, rng, pairs=6):
        for _ in range(pairs):
            f = random_ncpoly(rng, sig, max_degree=3, terms=3)
            g = random_ncpoly(rng, sig, max_degree=2, terms=3)
            point = {letter: Fraction(rng.randint(-7, 7), rng.randint(1, 5))
                     for letter in sig.letters()}
            expected = sum(
                (scale * numeric_block_bracket(blocks, sig.rank, f.terms, g.terms,
                                               point, max_degree=3)
                 for scale, blocks in blocks_by_scale),
                Fraction(0))
            assert eval_terms(bracket_eval(spec, f, g).terms, point) == expected

    def test_limit_bracket_four_sites(self, rng):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        self.agree(limit_rijk_operator(4), [(1, xx2_blocks())], sig, rng)

    def test_fivesite_operator(self, rng):
        sig = AlgebraSignature(2, 5, Mode.CLASSICAL)
        op = fivesite_operator([0, 1, Fraction(5, 2), 3, 7])
        self.agree(op, [(1, op.blocks)], sig, rng)

    def test_corrupted_operator(self, rng):
        sig = AlgebraSignature(3, 4, Mode.CLASSICAL)
        bad = dict(xx2_blocks())
        bad[(2, 2)] = {1: Fraction(1), 2: Fraction(1)}
        op = limit_rijk_operator(4).with_block(2, 2, bad[(2, 2)])
        self.agree(op, [(1, bad)], sig, rng, pairs=3)

    def test_random_asymmetric_operator(self, rng):
        # block (i,j) differs from block (j,i), so the oracle also pins which
        # site index belongs to which argument
        sig = AlgebraSignature(2, 3, Mode.CLASSICAL)
        blocks = {(i, j): {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                           for k in range(1, 4)}
                  for i in range(1, 4) for j in range(1, 4)}
        op = PoissonOperator(3, blocks)
        self.agree(op, [(1, blocks)], sig, rng)

    def test_pencil(self, rng):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        lam, mu = Fraction(2, 3), Fraction(-5)
        combined = pencil(lam, standard_operator(4), mu, limit_rijk_operator(4))
        standard = {(i, i): {i: Fraction(1)} for i in range(1, 5)}
        self.agree(combined, [(lam, standard), (mu, xx2_blocks())], sig, rng)


class TestSiteScreen:
    """The site-level screen of the certificates against the letter loops
    summed on the whole letter table (``oracles.letter_*_check``)."""

    @staticmethod
    def random_block_operator(rng, sites):
        # a standard, limit or pencil operator with up to two blocks perturbed
        std, lim = standard_operator(sites), limit_rijk_operator(sites)
        lam, mu = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
        op = rng.choice([std, lim, pencil(lam, std, mu, lim)])
        for _ in range(rng.choice([0, 0, 1, 2])):
            i, j, k = (rng.randint(1, sites) for _ in range(3))
            block = dict(op.block(i, j))
            block[k] = block.get(k, 0) + Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2))
            op = op.with_block(i, j, block)
        return op

    def test_reports_equal_the_letter_oracle_on_random_operators(self):
        rng = random.Random(3303)
        jacobi_cases, antisymmetry_cases = set(), set()
        for _ in range(120):
            sites, rank = rng.randint(1, 4), rng.randint(1, 3)
            sig = AlgebraSignature(rank, sites, Mode.CLASSICAL)
            op = self.random_block_operator(rng, sites)
            anti, jac = antisymmetry_check(op, sig), jacobi_check(op, sig)
            assert anti.to_json_dict() == letter_antisymmetry_check(op, sig).to_json_dict()
            assert jac.to_json_dict() == letter_jacobi_check(op, sig).to_json_dict()
            jacobi_cases.add((jac.passed, bool(open_site_triples(op))))
            antisymmetry_cases.add((anti.passed, bool(open_site_pairs(op))))
        # an open site triple passes where gl_r is abelian (r = 1)
        assert {(True, False), (False, True), (True, True)} <= jacobi_cases
        assert {(True, False), (False, True), (True, True)} <= antisymmetry_cases

    def test_open_site_triples(self):
        for sites in range(2, 7):
            std, lim = standard_operator(sites), limit_rijk_operator(sites)
            for op in (std, lim, pencil(1, std, 1, lim)):
                assert open_site_triples(op) == [] and open_site_pairs(op) == []
        control = _corrupted(5)
        assert open_site_triples(control) == [(2, 3, 3), (2, 4, 4), (2, 5, 5)]
        assert open_site_triples(_fivesite()) == [(2, 2, 4), (3, 4, 4), (4, 4, 5), (4, 5, 5)]
        assert open_site_pairs(control) == open_site_pairs(_fivesite()) == []
        assert open_site_pairs(PoissonOperator(3, {(1, 3): {1: 1}})) == [(1, 3)]

    @pytest.mark.parametrize("check", [antisymmetry_check, jacobi_check])
    def test_refusals_need_no_table(self, check, q2):
        # the standard operator opens no site tuple, so no table is built
        with pytest.raises(ModeError, match="defined in Classical mode only"):
            check(standard_operator(2), q2)
        sig = AlgebraSignature(2, 3, Mode.CLASSICAL)
        with pytest.raises(ValueError, match="operator is for 2 sites, signature has 3"):
            check(standard_operator(2), sig)


def test_poisson_suite_builds_each_operator_once(monkeypatch):
    # tables: the Jacobi checks of the control and the five-site operator;
    # the standard and limit operators, their sum pencil and the five-site
    # antisymmetry open no site tuple; limit operators: the four-site block
    # check, the suite's own and the control's
    calls = {"letter_table": 0, "limit_rijk_operator": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        wrapped = counted(name, getattr(poisson, name))
        monkeypatch.setattr(poisson, name, wrapped)
        if hasattr(suites, name):
            monkeypatch.setattr(suites, name, wrapped)
    reports = run_suite("poisson", RunConfig(sites=5))
    assert all(rep.passed is not False for rep in reports)
    assert calls == {"letter_table": 2, "limit_rijk_operator": 3}
