import random
from fractions import Fraction

import pytest

from gaudin.algebra import AlgebraSignature, Mode, ModeError, poisson_bracket
from gaudin.gluing import iterate_pattern, left_comb_pattern
from gaudin import poisson
from gaudin.lax import InvariantFamily, lax_from_groups, spectral_invariants
from gaudin.poisson import (
    LimitBracket,
    OperatorBracket,
    PencilBracket,
    PoissonOperator,
    StandardBracket,
    antisymmetry_check,
    bracket_eval,
    compatibility_check,
    describe,
    family_commutes_under,
    fivesite_operator,
    jacobi_check,
    letter_table,
    limit_coefficient,
    limit_rijk_operator,
    standard_operator,
)

from oracles import (
    eval_terms, leibniz_jacobiator, numeric_block_bracket, random_ncpoly, sampled_jacobi,
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


class TestBracketEval:
    def test_standard_delegates_to_lie_poisson(self, c3, rng):
        for _ in range(15):
            f = random_ncpoly(rng, c3, 2, 3)
            g = random_ncpoly(rng, c3, 2, 3)
            assert bracket_eval(StandardBracket(), f, g) == poisson_bracket(f, g)

    def test_standard_operator_form_matches_kernel(self, c3, rng):
        spec = OperatorBracket(standard_operator(3))
        for _ in range(15):
            f = random_ncpoly(rng, c3, 2, 3)
            g = random_ncpoly(rng, c3, 2, 3)
            assert bracket_eval(spec, f, g) == poisson_bracket(f, g)

    def test_limit_bracket_functions_of_first_site_only(self):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        f = sig.gen(1, 1, 2) * sig.gen(1, 2, 1)
        g = sig.gen(1, 1, 1) * sig.gen(1, 2, 2)
        assert bracket_eval(LimitBracket(), f, g).is_zero()

    def test_quantum_rejected(self, q2):
        with pytest.raises(ModeError):
            bracket_eval(StandardBracket(), q2.gen(1, 1, 1), q2.gen(1, 1, 2))

    def test_pencil_is_linear_combination(self, rng):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        pencil = PencilBracket(Fraction(2), StandardBracket(),
                               Fraction(-3), LimitBracket())
        for _ in range(5):
            f = random_ncpoly(rng, sig, 2, 2)
            g = random_ncpoly(rng, sig, 2, 2)
            expected = (bracket_eval(StandardBracket(), f, g) * 2
                        - bracket_eval(LimitBracket(), f, g) * 3)
            assert bracket_eval(pencil, f, g) == expected


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
        spec = OperatorBracket(fivesite_operator([0, 1, 2, 3, 4]))
        assert antisymmetry_check(spec, sig).passed
        rep = jacobi_check(spec, sig)
        assert rep.passed is False and rep.witnesses


class TestJacobi:
    def test_standard_passes(self):
        for rank in (1, 2, 3):
            for sites in (2, 3):
                sig = AlgebraSignature(rank, sites, Mode.CLASSICAL)
                assert jacobi_check(StandardBracket(), sig).passed

    def test_limit_passes_gl2_n4(self):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        assert jacobi_check(LimitBracket(), sig).passed

    def test_corrupted_operator_fails_with_witness(self):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        bad = limit_rijk_operator(4).with_block(2, 2, {1: Fraction(1), 2: Fraction(1)})
        rep = jacobi_check(OperatorBracket(bad), sig)
        assert rep.passed is False
        assert rep.witnesses[0]["triple"]


class TestCompatibility:
    def test_standard_with_limit(self):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        rep = compatibility_check(StandardBracket(), LimitBracket(), sig)
        assert rep.passed
        assert rep.info == {"triples": 2 * 560, "failed": 0}

    def test_standard_with_itself(self, c3):
        assert compatibility_check(StandardBracket(), StandardBracket(), c3).passed

    def test_standard_with_corrupted_fails(self):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        bad = limit_rijk_operator(4).with_block(3, 3, {3: Fraction(2)})
        rep = compatibility_check(StandardBracket(), OperatorBracket(bad), sig)
        assert rep.passed is False
        assert rep.info["failed"] == len(rep.witnesses) > 0
        assert rep.witnesses[0]["spec"].startswith("pencil(")


class TestFamilyCommutes:
    def test_bending_family_under_both_brackets_n3(self, c3):
        pattern, poles = left_comb_pattern(3)
        inv = iterate_pattern(c3, pattern, poles).invariant_family()
        assert family_commutes_under(StandardBracket(), inv).passed
        assert family_commutes_under(LimitBracket(), inv).passed

    def test_single_member_family(self, c3):
        fam = spectral_invariants(lax_from_groups(c3, [([1, 2, 3], 0)], "blob"), 1)
        assert family_commutes_under(LimitBracket(), fam).passed

    def test_noncommuting_family_detected(self, c3):
        from gaudin.lax import InvariantMember
        bad = InvariantFamily([
            InvariantMember(c3.gen(1, 1, 2), {"matrix": "control", "which": "x12"}),
            InvariantMember(c3.gen(1, 2, 1), {"matrix": "control", "which": "x21"}),
        ])
        rep = family_commutes_under(StandardBracket(), bad)
        assert rep.passed is False and rep.witnesses

    def test_gaudin_invariants_commute_under_standard_bracket_only(self, c3):
        inv = spectral_invariants(lax_from_groups(c3, [([1], 0), ([2], 1), ([3], 2)], "g"))
        assert family_commutes_under(StandardBracket(), inv).passed
        rep = family_commutes_under(LimitBracket(), inv)
        assert rep.passed is False and rep.witnesses
        assert rep.check == "family_commutes"
        assert rep.params == {"spec": "limit_rijk", "family": "g", "members": len(inv)}


def _pencil(sign):
    return PencilBracket(Fraction(1), StandardBracket(), Fraction(sign), LimitBracket())


def _corrupted(sites):
    return OperatorBracket(limit_rijk_operator(sites).with_block(
        2, 2, {1: Fraction(1), 2: Fraction(1)}))


def _fivesite():
    return OperatorBracket(fivesite_operator([0, 1, 2, 3, 4]))


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
        for spec in (StandardBracket(), LimitBracket(), _pencil(1), _pencil(-1)):
            anti, jac = antisymmetry_check(spec, sig), jacobi_check(spec, sig)
            assert anti.passed and jac.passed, describe(spec)
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
        spec = OperatorBracket(fivesite_operator([0, 1, Fraction(5, 2), 3, 7]))
        assert any(c.denominator > 1 for combo in letter_table(spec, sig).values()
                   for _, c in combo)
        rep = jacobi_check(spec, sig)
        assert rep.passed is False
        for w in rep.witnesses[:5]:
            assert w["jacobiator"] == _leibniz_jacobiator(spec, sig, w["triple"])

    def test_missing_transposed_block_fails_antisymmetry(self):
        sig = AlgebraSignature(2, 2, Mode.CLASSICAL)
        spec = OperatorBracket(PoissonOperator(2, {(1, 2): {1: Fraction(1)}}))
        table = letter_table(spec, sig)
        rep = antisymmetry_check(spec, sig)
        assert rep.passed is False
        assert rep.info == {"pairs": 36, "failed": len(table)}
        assert rep.witnesses[0] == {"pair": ["x[1,1]@1", "x[1,2]@2"],
                                    "residual": "x[1,2]@1"}
        by_name = {sig.gen(*g).render(): g for g in sig.letters()}
        for w in rep.witnesses:
            g, h = (by_name[name] for name in w["pair"])
            assert g[0] == 1 and h[0] == 2
            assert w["residual"] == poisson_bracket(sig.gen(*g), sig.gen(*h), table).render()

    def test_self_bracket_must_vanish(self, c2, monkeypatch):
        # no block operator gives {x, x} != 0, so the table is planted
        x = (1, 1, 2)
        monkeypatch.setattr(poisson, "letter_table",
                            lambda spec, sig: {(x, x): [((1, 1, 1), Fraction(1, 3))]})
        rep = antisymmetry_check(StandardBracket(), c2)
        assert rep.passed is False
        assert rep.witnesses == [{"pair": ["x[1,2]@1", "x[1,2]@1"],
                                  "residual": "2/3 * x[1,1]@1"}]

    @pytest.mark.parametrize("spec", [
        StandardBracket(), LimitBracket(), _pencil(1), _pencil(-1), _corrupted(5), _fivesite(),
    ], ids=["standard", "limit", "std+limit", "std-limit", "corrupted", "fivesite"])
    def test_verdict_agrees_with_sampled_jacobi(self, spec, rng):
        sig = AlgebraSignature(2, 5, Mode.CLASSICAL)
        expected = sampled_jacobi(letter_table(spec, sig), sig, rng)
        assert jacobi_check(spec, sig).passed is expected

    def test_quantum_rejected(self, q2):
        for check in (antisymmetry_check, jacobi_check):
            with pytest.raises(ModeError):
                check(StandardBracket(), q2)


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
        self.agree(LimitBracket(), [(1, xx2_blocks())], sig, rng)

    def test_fivesite_operator(self, rng):
        sig = AlgebraSignature(2, 5, Mode.CLASSICAL)
        op = fivesite_operator([0, 1, Fraction(5, 2), 3, 7])
        self.agree(OperatorBracket(op), [(1, op.blocks)], sig, rng)

    def test_corrupted_operator(self, rng):
        sig = AlgebraSignature(3, 4, Mode.CLASSICAL)
        bad = dict(xx2_blocks())
        bad[(2, 2)] = {1: Fraction(1), 2: Fraction(1)}
        op = limit_rijk_operator(4).with_block(2, 2, bad[(2, 2)])
        self.agree(OperatorBracket(op), [(1, bad)], sig, rng, pairs=3)

    def test_random_asymmetric_operator(self, rng):
        # block (i,j) differs from block (j,i), so the oracle also pins which
        # site index belongs to which argument
        sig = AlgebraSignature(2, 3, Mode.CLASSICAL)
        blocks = {(i, j): {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                           for k in range(1, 4)}
                  for i in range(1, 4) for j in range(1, 4)}
        op = PoissonOperator(3, blocks)
        self.agree(OperatorBracket(op), [(1, blocks)], sig, rng)

    def test_pencil(self, rng):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        lam, mu = Fraction(2, 3), Fraction(-5)
        pencil = PencilBracket(lam, StandardBracket(), mu, LimitBracket())
        standard = {(i, i): {i: Fraction(1)} for i in range(1, 5)}
        self.agree(pencil, [(lam, standard), (mu, xx2_blocks())], sig, rng)
