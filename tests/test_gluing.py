import random
from fractions import Fraction

import pytest

import gaudin.gluing
from gaudin.algebra import (
    AlgebraSignature, Mode, ModeError, NCPoly, Packing, commutator, poisson_bracket,
)
from gaudin.gluing import (
    LimitFamily,
    PatternError,
    PatternNode,
    _jacobians,
    classical_limits_match,
    hg_membership_check,
    infer_sites,
    iterate_pattern,
    left_comb_pattern,
    limit_gaudin_algebra,
    parse_pattern,
    random_point,
    rank_completeness_check,
)
from gaudin.lax import (
    InvariantFamily,
    InvariantMember,
    bending_lax_rational,
    gaudin_lax,
    lax_from_groups,
    spectral_invariants,
)
from gaudin.linalg import rank
from gaudin.manin import commutation_matrix, talalaev_coefficients, talalaev_generators

from oracles import (
    dense_rank, diagonal_embedding, elementary_glue, fd_partial, random_ncpoly,
    shift_embedding, spans_equal,
)


def _subtrees(node):
    return [c for c in node.children if isinstance(c, PatternNode)]


class TestParsePattern:
    def test_partial_collision_tree(self):
        pattern = parse_pattern("[1,2,[3,4,5]@3]", 5)
        assert pattern.root.leaves() == [1, 2, 3, 4, 5]
        inner = _subtrees(pattern.root)[0]
        assert inner.location == 3
        assert inner.leaves() == [3, 4, 5]

    def test_trivial_pattern(self):
        pattern = parse_pattern("[1,2,3]", 3)
        assert not _subtrees(pattern.root)

    def test_duplicate_leaf(self):
        with pytest.raises(PatternError, match="duplicate leaf"):
            parse_pattern("[1,1,2]", 3)

    def test_missing_leaf(self):
        with pytest.raises(PatternError, match="missing leaves"):
            parse_pattern("[1,2]", 3)

    @pytest.mark.parametrize("text, n, message, position", [
        ("[1,[2,2]@3]", 3, "duplicate leaf 2", 6),
        ("[1, [2, 3]@5, 1]", 3, "duplicate leaf 1", 14),
        ("[[1,2]@3, 4]", 3, r"leaf 4 out of range 1\.\.3", 10),
        ("[0,1,2]", 3, r"leaf 0 out of range 1\.\.3", 1),
        ("[1,2]", 3, r"missing leaves \[3\]", 5),
        ("[1, [2,4]@3 ] ", 4, r"missing leaves \[3\]", 14),
    ])
    def test_bad_leaf_reports_its_offset(self, text, n, message, position):
        with pytest.raises(PatternError, match=message) as err:
            parse_pattern(text, n)
        assert err.value.position == position

    def test_single_child_node(self):
        with pytest.raises(PatternError, match="at least 2 children"):
            parse_pattern("[1,[2]]", 2)

    @pytest.mark.parametrize("text, position", [("[1,2]@0", 5), ("[[1,2]@3,3] @3", 12)])
    def test_root_location_refused(self, text, position):
        for parse in (infer_sites, lambda t: parse_pattern(t, 3)):
            with pytest.raises(PatternError, match="root is not a collision") as err:
                parse(text)
            assert err.value.position == position

    def test_malformed_location_reports_position(self):
        with pytest.raises(PatternError) as err:
            parse_pattern("[1,2]@x", 2)
        assert err.value.position == 6

    def test_fractional_location(self):
        pattern = parse_pattern("[[1,2]@-3/2,3]", 3)
        assert _subtrees(pattern.root)[0].location == Fraction(-3, 2)


class TestElementaryGlue:
    def test_partial_collision_matrices(self):
        sig = AlgebraSignature(2, 5, Mode.CLASSICAL)
        fam = elementary_glue(sig, fixed=[0, 1], collapsing=[2, 3, 4], w=3)
        l1_expected = lax_from_groups(sig, [([3], 2), ([4], 3), ([5], 4)], "L1")
        l2_expected = lax_from_groups(
            sig, [([1], 0), ([2], 1), ([3, 4, 5], 3)], "L2")
        assert fam.matrices[0] == l1_expected
        assert fam.matrices[1] == l2_expected

    def test_degenerate_single_collapse(self):
        sig = AlgebraSignature(2, 3, Mode.CLASSICAL)
        fam = elementary_glue(sig, fixed=[0, 1], collapsing=[7], w=5)
        assert fam.matrices[0] == lax_from_groups(sig, [([3], 7)], "L1")
        assert fam.matrices[1] == lax_from_groups(
            sig, [([1], 0), ([2], 1), ([3], 5)], "L2")

    def test_cross_family_poisson_commutativity(self, c3):
        fam = elementary_glue(c3, fixed=[0], collapsing=[1, 2], w=5)
        first = spectral_invariants(fam.matrices[0])
        second = spectral_invariants(fam.matrices[1])
        for h1 in first.exprs():
            for h2 in second.exprs():
                assert poisson_bracket(h1, h2).is_zero()

    def test_coincident_points_rejected(self, c3):
        with pytest.raises(ValueError):
            elementary_glue(c3, fixed=[0], collapsing=[1, 2], w=0)
        with pytest.raises(ValueError):
            elementary_glue(c3, fixed=[0], collapsing=[1, 1], w=5)


class TestIteratePattern:
    def test_left_comb_three_sites(self, c3):
        pattern, poles = left_comb_pattern(3, 0, 1)
        fam = iterate_pattern(c3, pattern, poles)
        assert fam.matrices[0] == bending_lax_rational(c3, 1, 0, 1)
        assert fam.matrices[1] == bending_lax_rational(c3, 2, 0, 1)

    def test_left_comb_matches_rational_clusters_n4(self):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        pattern, poles = left_comb_pattern(4, 0, 1)
        fam = iterate_pattern(sig, pattern, poles)
        for k in range(1, 4):
            assert fam.matrices[k - 1] == bending_lax_rational(sig, k, 0, 1)

    def test_trivial_pattern_is_gaudin(self, c3):
        fam = iterate_pattern(c3, parse_pattern("[1,2,3]", 3))
        assert fam.matrices == [gaudin_lax(c3, [0, 1, 2])]

    def test_partial_collision_equals_elementary(self):
        sig = AlgebraSignature(2, 5, Mode.CLASSICAL)
        fam = iterate_pattern(sig, parse_pattern("[1,2,[3,4,5]@3]", 5),
                              poles=[0, 1, 2, 3, 4])
        ele = elementary_glue(sig, fixed=[0, 1], collapsing=[2, 3, 4], w=3)
        assert fam.matrices[0] == ele.matrices[0]
        assert fam.matrices[1] == ele.matrices[1]

    def test_fresh_locations_avoid_siblings(self, c3):
        fam = iterate_pattern(c3, parse_pattern("[[1,2],3]", 3))
        root = fam.matrices[1]
        # leaf 3 sits at pole 2; the unlocated node must pick something else
        locations = {p for p, _ in root.poles}
        assert Fraction(2) in locations and len(locations) == 2

    def test_all_family_members_commute(self, c3):
        for text in ["[1,2,3]", "[[1,2]@5,3]", "[1,[2,3]@7]"]:
            fam = iterate_pattern(c3, parse_pattern(text, 3))
            exprs = fam.invariant_family().exprs()
            for i in range(len(exprs)):
                for j in range(i + 1, len(exprs)):
                    assert poisson_bracket(exprs[i], exprs[j]).is_zero(), text

    def test_invariant_family_is_computed_once_per_power(self, c3):
        fam = iterate_pattern(c3, parse_pattern("[1,[2,3]@7]", 3))
        full = fam.invariant_family()
        assert fam.invariant_family() is full
        assert fam == iterate_pattern(c3, parse_pattern("[1,[2,3]@7]", 3))

    def test_equality_ignores_the_computed_outputs(self, q3):
        pattern = parse_pattern("[1,[2,3]@7]", 3)
        fam = iterate_pattern(q3, pattern)
        assert fam.talalaev_outputs is fam.talalaev_outputs
        fresh = iterate_pattern(q3, pattern)
        assert fam == fresh and fresh == fam
        assert fam != iterate_pattern(q3, parse_pattern("[[1,2]@7,3]", 3))
        assert fam != LimitFamily(q3, fam.matrices, {"label": "other"})
        assert fam == LimitFamily(q3, list(fam.matrices), {"label": "pattern"})

    def test_four_site_elementary_family_commutes(self):
        sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
        fam = elementary_glue(sig, fixed=[0, 1], collapsing=[2, 3], w=7)
        exprs = fam.invariant_family().exprs()
        for i in range(len(exprs)):
            for j in range(i + 1, len(exprs)):
                assert poisson_bracket(exprs[i], exprs[j]).is_zero()


class TestRankCompleteness:
    def test_elementary_glue_matches_generic(self, c3):
        fam = elementary_glue(c3, fixed=[0], collapsing=[1, 2], w=5)
        generic = spectral_invariants(gaudin_lax(c3, [0, 1, 2]))
        rep = rank_completeness_check(c3, fam, generic, seed=42)
        assert rep.passed
        assert all(r["limit"] == r["generic"] for r in rep.info["ranks"])

    def test_family_against_itself(self, c2):
        fam = iterate_pattern(c2, parse_pattern("[1,2]", 2))
        generic = fam.invariant_family()
        rep = rank_completeness_check(c2, fam, generic, seed=1)
        assert rep.passed

    def test_two_site_families_coincide(self, c2):
        fam = elementary_glue(c2, fixed=[0], collapsing=[1], w=5)
        generic = spectral_invariants(gaudin_lax(c2, [0, 1]))
        rep = rank_completeness_check(c2, fam, generic, seed=3)
        assert rep.passed


    def test_dropped_member_reports_a_rank_mismatch(self, c3, monkeypatch):
        # Tr X_1 (the degree-1 member of L2 at pole 0) is the only member
        # carrying the site-1 trace, so without it the Jacobian loses a rank
        fam = iterate_pattern(c3, parse_pattern("[1,[2,3]@3]", 3))
        full = fam.invariant_family()
        dropped = [m for m in full.members
                   if (m.provenance["matrix"], m.provenance["power"], m.provenance["pole"])
                   == ("L2", 1, "0")]
        assert len(dropped) == 1
        kept = InvariantFamily([m for m in full.members if m is not dropped[0]], full.label)
        monkeypatch.setattr(fam, "invariant_family", lambda: kept)
        generic = spectral_invariants(gaudin_lax(c3, [0, 1, 2]))
        rep = rank_completeness_check(c3, fam, generic, seed=7)
        assert rep.passed is False
        assert rep.params["limit_members"] == len(full) - 1
        assert rep.trials == 5
        assert rep.witnesses == [{"trial": t, "limit": 7, "generic": 8} for t in range(5)]

    def test_quantum_signature_is_refused(self, c2, q2):
        # Jacobian ranks are a classical notion, whatever families are passed
        fam = iterate_pattern(c2, parse_pattern("[1,2]", 2))
        with pytest.raises(ModeError, match="Classical"):
            rank_completeness_check(q2, fam, fam.invariant_family())

    def test_glue_r3_ranks_two_jacobians_per_trial(self, monkeypatch):
        # the families of `verify glue --r 3`; one rank per family per point
        sig = AlgebraSignature(3, 3, Mode.CLASSICAL)
        fam = iterate_pattern(sig, parse_pattern("[1,[2,3]@3]", 3), [0, 1, 2])
        generic = spectral_invariants(gaudin_lax(sig, [0, 1, 2]))
        calls = []
        real = gaudin.gluing.rank
        monkeypatch.setattr(gaudin.gluing, "rank", lambda rows: calls.append(1) or real(rows))
        rep = rank_completeness_check(sig, fam, generic, seed=12345)
        assert rep.passed
        assert len(calls) == 2 * 5


class TestIntegerJacobian:
    """Jacobian rows from ``Packing.pack``'s gradients against exact finite
    differences, and their ranks against textbook elimination."""

    SCALES = (Fraction(1, 3), Fraction(5, 6), Fraction(-7, 4))

    @pytest.fixture
    def members(self, c2):
        rng = random.Random(1803)
        base = []
        for _ in range(4):
            p = random_ncpoly(rng, c2, max_degree=3, terms=4)
            base.append(NCPoly(c2, {w: c * rng.choice(self.SCALES)
                                    for w, c in p.terms.items()}))
        # no linear part: the member's row vanishes at the origin
        base[3] = NCPoly(c2, {w: c for w, c in base[3].terms.items() if len(w) > 1})
        # a product and a combination of members: the Jacobian loses rank
        out = base + [base[0] * base[1], base[2] * Fraction(5, 6) - base[3] * Fraction(1, 3)]
        assert any(len(set(w)) < len(w) for m in out for w in m.terms)
        assert any(c.denominator > 1 for m in out for c in m.terms.values())
        return out

    @staticmethod
    def points(sig):
        rng = random.Random(77)
        letters = list(sig.letters())
        pts = [random_point(rng, sig) for _ in range(5)]
        for k, point in enumerate(pts):
            point.update({g: 0 for g in letters[k::k + 2]})
        pts.append({g: 0 for g in letters})
        assert all(any(v == 0 for v in pt.values()) for pt in pts)
        return pts

    @classmethod
    def jacobians(cls, sig, members):
        """Each member's denominator, and (point, the members' Jacobian rows
        there) for each of ``points``."""
        packing = Packing(sig, max(m.degree for m in members))
        packed = [packing.pack(m) for m in members]
        points = cls.points(sig)
        rows = _jacobians(packing, [[grad for _, _, grad in packed]], points)
        return [d for d, _, _ in packed], [(point, r) for point, (r,) in zip(points, rows)]

    def test_rows_are_denominator_times_derivative(self, c2, members):
        letters = list(c2.letters())
        denominators, jacobians = self.jacobians(c2, members)
        for point, rows in jacobians:
            for m, d, row in zip(members, denominators, rows):
                assert row == [d * fd_partial(m.terms, g, point, m.degree) for g in letters]

    def test_ranks_match_dense_elimination(self, c2, members):
        letters = list(c2.letters())
        ranks = []
        for point, rows in self.jacobians(c2, members)[1]:
            exact = [[fd_partial(m.terms, g, point, m.degree) for g in letters]
                     for m in members]
            ranks.append(rank(rows))
            assert ranks[-1] == dense_rank(exact)
        assert ranks[:-1] == [4] * 5 and ranks[-1] < 4


class TestHgMembership:
    def test_two_site_identity(self, c2):
        fam = elementary_glue(c2, fixed=[0], collapsing=[1], w=5)
        rep = hg_membership_check(c2, fam)
        assert rep.passed
        assert rep.info["combination"]

    def test_rank_one_any_sites(self):
        sig = AlgebraSignature(1, 4, Mode.CLASSICAL)
        pattern, poles = left_comb_pattern(4)
        fam = iterate_pattern(sig, pattern, poles)
        assert hg_membership_check(sig, fam).passed

    def test_bending_family_n3(self, c3):
        pattern, poles = left_comb_pattern(3)
        fam = iterate_pattern(c3, pattern, poles)
        assert hg_membership_check(c3, fam).passed


class TestEmbeddings:
    def test_full_diagonal(self, q2):
        src = AlgebraSignature(2, 1, Mode.QUANTUM)
        image = diagonal_embedding(src.gen(1, 1, 2), 2)
        assert image == q2.gen(1, 1, 2) + q2.gen(2, 1, 2)

    def test_diagonal_identity_when_sites_match(self, q2):
        p = q2.gen(2, 1, 2) * q2.gen(1, 2, 1)
        assert diagonal_embedding(p, 2) == p

    def test_diagonal_homomorphism(self, q2, rng):
        for _ in range(15):
            p = random_ncpoly(rng, q2, 2, 2)
            q = random_ncpoly(rng, q2, 2, 2)
            assert diagonal_embedding(p * q, 4) == \
                diagonal_embedding(p, 4) * diagonal_embedding(q, 4)

    def test_shift_relabels(self, q3):
        src = AlgebraSignature(2, 2, Mode.QUANTUM)
        assert shift_embedding(src.gen(2, 1, 2), 3) == q3.gen(3, 1, 2)

    def test_shift_zero_is_identity(self, q2):
        p = q2.gen(1, 1, 2)
        assert shift_embedding(p, 2, shift=0) == p

    def test_shift_homomorphism(self, rng):
        src = AlgebraSignature(2, 2, Mode.QUANTUM)
        for _ in range(15):
            p = random_ncpoly(rng, src, 2, 2)
            q = random_ncpoly(rng, src, 2, 2)
            assert shift_embedding(p * q, 4) == \
                shift_embedding(p, 4) * shift_embedding(q, 4)

    def test_shift_injective_on_basis(self):
        src = AlgebraSignature(2, 2, Mode.QUANTUM)
        p = src.gen(1, 1, 1) * src.gen(2, 1, 2)
        image = shift_embedding(p, 4, shift=2)
        assert list(image.terms) == [((3, 1, 1), (4, 1, 2))]


def embedding_reference(rank, node, poles):
    """The paper's limit algebra of a tail collapse, built with the
    embeddings: the Gaudin algebra on (fixed poles, w) spread diagonally over
    the collapsed group, plus the group's own limit algebra shifted up."""
    n = len(poles)

    def coefficients(sig, node_poles):
        out = talalaev_generators(gaudin_lax(sig, node_poles))
        return [c for _, c in talalaev_coefficients(out)]

    inner = _subtrees(node)
    if not inner:
        return coefficients(AlgebraSignature(rank, n, Mode.QUANTUM), poles)
    (child,) = inner
    k = n - len(child.leaves())
    factor = AlgebraSignature(rank, k + 1, Mode.QUANTUM)
    gens = [diagonal_embedding(g, n)
            for g in coefficients(factor, poles[:k] + [child.location])]
    gens += [shift_embedding(g, n, shift=k)
             for g in embedding_reference(rank, child, poles[k:])]
    return gens


class TestLimitGaudinAlgebra:
    def test_elementary_glue_cross_commutators(self, q3):
        pattern = parse_pattern("[1,[2,3]@3]", 3)
        gens = limit_gaudin_algebra(iterate_pattern(q3, pattern, poles=[0, 1, 2]))
        rep = commutation_matrix([g for _, g in gens], [l for l, _ in gens])
        assert rep.passed
        assert rep.params["count"] == 16

    @pytest.mark.parametrize("text", ["[1,[2,3]@5]", "[1,[2,3]@1/2]"])
    def test_collapse_point_may_be_any_rational(self, q3, text):
        # the generators carry no evaluation point, so no collapse location
        # can hit one
        gens = limit_gaudin_algebra(iterate_pattern(q3, parse_pattern(text, 3), [0, 1, 2]))
        assert commutation_matrix([g for _, g in gens]).passed

    def test_rank_one_everything_central(self):
        sig = AlgebraSignature(1, 3, Mode.QUANTUM)
        pattern = parse_pattern("[1,[2,3]@3]", 3)
        gens = limit_gaudin_algebra(iterate_pattern(sig, pattern, poles=[0, 1, 2]))
        assert commutation_matrix([g for _, g in gens]).passed

    def test_two_site_algebra_pole_independent(self):
        sig = AlgebraSignature(2, 2, Mode.QUANTUM)

        def span(poles):
            out = talalaev_generators(gaudin_lax(sig, poles))
            return [c.terms for _, c in talalaev_coefficients(out)]

        assert spans_equal(span([0, 1]), span([2, -3]))

    @pytest.mark.parametrize("text", ["[[1,2]@5,3]", "[2,[1,3]@7]",
                                      "[[1,2]@0,[3,4]@5]"])
    def test_non_tail_patterns_build_and_commute(self, text):
        sites = infer_sites(text)
        sig = AlgebraSignature(2, sites, Mode.QUANTUM)
        gens = limit_gaudin_algebra(iterate_pattern(sig, parse_pattern(text, sites)))
        assert commutation_matrix([g for _, g in gens], [l for l, _ in gens]).passed
        # FAIL control: one letter that is not central breaks the table
        gens.append(("letter", sig.gen(1, 1, 2)))
        rep = commutation_matrix([g for _, g in gens], [l for l, _ in gens])
        assert not rep.passed
        assert all("letter" in w["pair"] for w in rep.witnesses)

    def test_left_comb_count(self, q3):
        gens = limit_gaudin_algebra(iterate_pattern(q3, parse_pattern("[[1,2]@0,3]", 3)))
        assert len(gens) == 16
        assert gens[0][0].startswith("L1:QH0[")

    def test_unlocated_child_collapses_where_the_classical_family_does(self):
        sig = AlgebraSignature(2, 4, Mode.QUANTUM)

        def span(text):
            family = iterate_pattern(sig, parse_pattern(text, 4))
            return [g.terms for _, g in limit_gaudin_algebra(family)]

        assert spans_equal(span("[1,2,[3,4]]"), span("[1,2,[3,4]@2]"))
        assert not spans_equal(span("[1,2,[3,4]]"), span("[1,2,[3,4]@4]"))

    def test_classical_signature_rejected(self, c3):
        with pytest.raises(ModeError):
            limit_gaudin_algebra(iterate_pattern(c3, parse_pattern("[1,[2,3]@3]", 3)))

    @pytest.mark.parametrize("rank,text", [
        (2, "[1,[2,3]@3]"), (3, "[1,[2,3]@3]"), (2, "[1,[2,3]@5]"),
        (2, "[1,[2,3,4]@7]"), (2, "[1,2,[3,4]@5]"), (2, "[1,2,3]"),
        (2, "[1,[2,[3,4]@5]@9]"),
    ])
    def test_matches_the_embedding_construction(self, rank, text):
        sites = infer_sites(text)
        sig = AlgebraSignature(rank, sites, Mode.QUANTUM)
        pattern = parse_pattern(text, sites)
        poles = [Fraction(i) for i in range(sites)]
        family = iterate_pattern(sig, pattern, poles)
        gens = [g.terms for _, g in limit_gaudin_algebra(family)]
        reference = [g.terms for g in embedding_reference(rank, pattern.root, poles)]
        assert len(gens) == len(reference)
        assert spans_equal(gens, reference)

    def test_direct_generators_of_glued_matrices_commute(self, q3):
        # the glued matrices are Gaudin-type, so the column-determinant
        # generators of the two factors commute jointly
        from gaudin.manin import talalaev_generators
        fam = elementary_glue(q3, fixed=[0], collapsing=[1, 2], w=5)
        gens = []
        for matrix in fam.matrices:
            out = talalaev_generators(matrix)
            for u in (7, 11):
                gens.extend(out.qh_eval(u)[:2])
        assert commutation_matrix(gens).passed


def quantum_and_classical(rank, pattern, poles):
    """The quantum limit family of a pattern and the classical invariant
    family of the same pattern at the same poles."""
    quantum = iterate_pattern(AlgebraSignature(rank, pattern.n_leaves, Mode.QUANTUM),
                              pattern, poles)
    classical = iterate_pattern(AlgebraSignature(rank, pattern.n_leaves, Mode.CLASSICAL),
                                pattern, poles)
    return quantum, classical.invariant_family()


class TestQuantumBending:
    # the bending flows' quantum algebra is the limit algebra of the left comb

    @pytest.mark.parametrize("sites", [2, 3])
    def test_classical_limits_match(self, sites):
        quantum, classical = quantum_and_classical(2, *left_comb_pattern(sites))
        assert len(classical)
        assert classical_limits_match(quantum.talalaev_outputs, classical).passed

    def test_pairwise_quantum_commutativity_n3(self, q3):
        gens = limit_gaudin_algebra(iterate_pattern(q3, *left_comb_pattern(3)))
        rep = commutation_matrix([g for _, g in gens])
        assert rep.passed

    def test_rank_one_generators_central(self):
        sig = AlgebraSignature(1, 3, Mode.QUANTUM)
        gens = [g for _, g in limit_gaudin_algebra(iterate_pattern(sig, *left_comb_pattern(3)))]
        assert len(gens) == 4
        for letter in sig.letters():
            for g in gens:
                assert commutator(sig.gen(*letter), g).is_zero()


class TestClassicalLimitsMatch:
    # an int pattern is the site count of the left comb
    @pytest.mark.parametrize("rank,pattern,members", [
        (2, "[1,[2,3]@3]", 12), (3, "[1,[2,3]@3]", 24), (2, "[[1,2]@0,[3,4]@5]", 18),
        (2, 2, 6), (2, 3, 12), (2, 4, 18),
    ])
    def test_every_member_is_a_symbol(self, rank, pattern, members):
        if isinstance(pattern, int):
            pattern, poles = left_comb_pattern(pattern)
        else:
            pattern, poles = parse_pattern(pattern, infer_sites(pattern)), None
        quantum, classical = quantum_and_classical(rank, pattern, poles)
        rep = classical_limits_match(quantum.talalaev_outputs, classical)
        assert rep.passed, rep.witnesses
        assert rep.params == {"pairs": members}

    def test_moved_pole_fails_with_named_members(self, q3, c3):
        # FAIL control: the quantum family at poles 0,1,2 against the
        # classical family at 0,1,5
        pattern = parse_pattern("[1,[2,3]@3]", 3)
        quantum = iterate_pattern(q3, pattern, [0, 1, 2])
        classical = iterate_pattern(c3, pattern, [0, 1, 5]).invariant_family()
        rep = classical_limits_match(quantum.talalaev_outputs, classical)
        assert rep.passed is False
        assert rep.witnesses
        for w in rep.witnesses:
            assert set(w["provenance"]) == {"matrix", "power", "pole", "order"}
        # the members at the moved pole have no counterpart; a member at a
        # kept pole whose value moved is a mismatch
        assert {"matrix": "L1", "power": "1", "pole": "5", "order": "0"} in \
            [w["provenance"] for w in rep.witnesses if w["classical_limit"] is None]
        assert any(w["classical_limit"] is not None and w["provenance"]["pole"] == "1"
                   for w in rep.witnesses)

    def test_member_without_quantum_counterpart_fails(self, q3, c3):
        pattern = parse_pattern("[1,[2,3]@3]", 3)
        quantum = iterate_pattern(q3, pattern, [0, 1, 2])
        classical = iterate_pattern(c3, pattern, [0, 1, 2]).invariant_family()
        # drop the root's quantum matrix: its classical members are not
        # skipped, each one fails
        rep = classical_limits_match(quantum.talalaev_outputs[:1], classical)
        assert rep.passed is False
        root = [m for m in classical.members if m.provenance["matrix"] == "L2"]
        assert len(rep.witnesses) == len(root) > 0
        assert all(w["classical_limit"] is None and w["provenance"]["matrix"] == "L2"
                   for w in rep.witnesses)
        # a member whose order exceeds the quantum pole order fails the same way
        extra = InvariantFamily([InvariantMember(c3.gen(1, 1, 1), {
            "matrix": "L1", "power": 1, "pole": "1", "order": 3})])
        rep = classical_limits_match(quantum.talalaev_outputs, extra)
        assert rep.passed is False and rep.witnesses[0]["classical_limit"] is None

    def test_talalaev_outputs_computed_once_per_matrix(self, q3, monkeypatch):
        import gaudin.gluing

        calls = []
        real = gaudin.gluing.talalaev_generators
        monkeypatch.setattr(gaudin.gluing, "talalaev_generators",
                            lambda m: calls.append(m.label) or real(m))
        quantum = iterate_pattern(q3, parse_pattern("[1,[2,3]@3]", 3))
        gens = limit_gaudin_algebra(quantum)
        outputs = quantum.talalaev_outputs
        assert calls == ["L1", "L2"]
        assert [out.lax.label for out in outputs] == ["L1", "L2"]
        assert gens == limit_gaudin_algebra(quantum)
        assert calls == ["L1", "L2"]
