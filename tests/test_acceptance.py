"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (zero tolerance): a family "commutes" only when each
bracket reduces to the empty polynomial in the PBW basis.
"""

import random
from fractions import Fraction


from gaudin.algebra import (
    AlgebraSignature,
    Mode,
    commutator,
    poisson_bracket,
)
from gaudin.gluing import (
    classical_limits_match,
    hg_membership_check,
    iterate_pattern,
    left_comb_pattern,
    limit_gaudin_algebra,
    parse_pattern,
    rank_completeness_check,
)
from gaudin.lax import (
    bending_lax_rational,
    gaudin_lax,
    quadratic_hamiltonians,
    spectral_invariants,
)
from gaudin.manin import (
    DiffOpMatrix,
    column_order_invariance,
    commutation_matrix,
    is_manin,
    newton_check,
    partial_minus,
    talalaev_generators,
)
from gaudin.poisson import (
    compatibility_check,
    family_commutes_under,
    fivesite_operator,
    jacobi_check,
    limit_rijk_operator,
    standard_operator,
)
from gaudin.ratfun import DiffOpEntry, LaxEntry, RatFun

from oracles import diagonal_embedding, elementary_glue, random_ncpoly, shift_embedding


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_quadratic_commutativity():
    ok = True
    for rank in (2, 3):
        qsig = AlgebraSignature(rank, 3, Mode.QUANTUM)
        csig = qsig.as_mode(Mode.CLASSICAL)
        hq = quadratic_hamiltonians(qsig, [0, 1, 2])
        hc = quadratic_hamiltonians(csig, [0, 1, 2])
        for i in range(3):
            for j in range(i + 1, 3):
                ok &= commutator(hq[i], hq[j]).is_zero()
                ok &= poisson_bracket(hc[i], hc[j]).is_zero()
        total_q, total_c = qsig.zero(), csig.zero()
        for h in hq:
            total_q = total_q + h
        for h in hc:
            total_c = total_c + h
        ok &= total_q.is_zero() and total_c.is_zero()
    report(1, "quadratic commutativity gl(2)/gl(3), N=3", ok)


def test_criterion_2_glued_family_commutes():
    sig = AlgebraSignature(2, 3, Mode.CLASSICAL)
    fam = elementary_glue(sig, fixed=[0], collapsing=[1, 2], w=5)
    exprs = fam.invariant_family().exprs()
    ok = bool(exprs)
    for i in range(len(exprs)):
        for j in range(i + 1, len(exprs)):
            ok &= poisson_bracket(exprs[i], exprs[j]).is_zero()
    report(2, "elementary glue k=1: joint family Poisson-commutes", ok)


def test_criterion_3_rank_completeness():
    sig = AlgebraSignature(2, 3, Mode.CLASSICAL)
    fam = elementary_glue(sig, fixed=[0], collapsing=[1, 2], w=5)
    generic = spectral_invariants(gaudin_lax(sig, [0, 1, 2]))
    rep = rank_completeness_check(sig, fam, generic, seed=2024)
    report(3, "glued vs generic Jacobian ranks at 5 seeded points", bool(rep.passed))


def test_criterion_4_hg_membership():
    ok = True
    sig2 = AlgebraSignature(2, 2, Mode.CLASSICAL)
    ok &= bool(hg_membership_check(
        sig2, elementary_glue(sig2, fixed=[0], collapsing=[1], w=5)).passed)
    sig3 = AlgebraSignature(2, 3, Mode.CLASSICAL)
    ok &= bool(hg_membership_check(
        sig3, elementary_glue(sig3, fixed=[0], collapsing=[1, 2], w=5)).passed)
    report(4, "physical Hamiltonian lies in the glued family, N=2,3", ok)


def test_criterion_5_limit_bracket():
    op = limit_rijk_operator(4)
    expected = {}
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                expected[(i, j)] = {min(i, j): Fraction(1)}
            elif i > 1:
                combo = {i: Fraction(i - 1)}
                combo.update({k: Fraction(-1) for k in range(1, i)})
                expected[(i, j)] = combo
    ok = dict(op.blocks) == expected
    sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
    ok &= bool(jacobi_check(op, sig).passed)
    ok &= bool(compatibility_check(standard_operator(4), op, sig).passed)
    report(5, "limit bracket block table; Jacobi and compatibility", ok)


def test_criterion_6_bending_flows():
    sig = AlgebraSignature(2, 4, Mode.CLASSICAL)
    pattern, poles = left_comb_pattern(4, 0, 1)
    fam = iterate_pattern(sig, pattern, poles)
    ok = all(fam.matrices[k - 1] == bending_lax_rational(sig, k, 0, 1)
             for k in range(1, 4))
    inv = fam.invariant_family()
    ok &= bool(family_commutes_under(standard_operator(4), inv).passed)
    ok &= bool(family_commutes_under(limit_rijk_operator(4), inv).passed)
    report(6, "bending clusters reproduce rational matrices; bi-commuting N=4", ok)


def test_criterion_7_manin_talalaev():
    ok = True
    for sites in (1, 2, 3):
        sig = AlgebraSignature(2, sites, Mode.QUANTUM)
        M = partial_minus(gaudin_lax(sig, list(range(sites))))
        ok &= bool(is_manin(M).passed)
        ok &= bool(column_order_invariance(M).passed)
    sig3 = AlgebraSignature(3, 1, Mode.QUANTUM)
    ok &= bool(column_order_invariance(partial_minus(gaudin_lax(sig3, [0]))).passed)

    # Newton identities across the Manin test set
    manin_test_matrices = [
        partial_minus(gaudin_lax(AlgebraSignature(2, 1, Mode.QUANTUM), [0])),
        partial_minus(gaudin_lax(AlgebraSignature(2, 2, Mode.QUANTUM), [0, 1])),
        partial_minus(gaudin_lax(AlgebraSignature(3, 1, Mode.QUANTUM), [0])),
        _cross_site(2),
        _cross_site(3),
        _commutative([[2, 1, 0], [0, 3, 1], [1, 0, 4]]),
        _commutative([[1, 2], [3, 4]]),
    ]
    for M in manin_test_matrices:
        ok &= bool(newton_check(M).passed)

    out = talalaev_generators(gaudin_lax(AlgebraSignature(2, 2, Mode.QUANTUM), [0, 1]))
    for (u, v) in [(5, 7), (7, 11), (5, 11)]:
        for i in range(3):
            for j in range(3):
                ok &= commutator(out.qh[i].eval_z(u), out.qh[j].eval_z(v)).is_zero()
    report(7, "Manin predicate, column determinant, Newton, Talalaev", ok)


def _cross_site(rank):
    sig = AlgebraSignature(rank, rank, Mode.QUANTUM)
    return DiffOpMatrix(sig, [
        [DiffOpEntry.from_entry(LaxEntry.from_ncpoly(sig.gen(i, i, j)))
         for j in range(1, rank + 1)]
        for i in range(1, rank + 1)
    ])


def _commutative(values):
    sig = AlgebraSignature(1, 1, Mode.QUANTUM)
    return DiffOpMatrix(sig, [
        [DiffOpEntry.from_entry(LaxEntry.scalar(sig, Fraction(v))) for v in row]
        for row in values
    ])


def test_criterion_8_quantum_limit_algebras():
    ok = True
    rng = random.Random(2024)
    src = AlgebraSignature(2, 2, Mode.QUANTUM)
    for _ in range(10):
        p = random_ncpoly(rng, src, 2, 2)
        q = random_ncpoly(rng, src, 2, 2)
        ok &= diagonal_embedding(p * q, 4) == \
            diagonal_embedding(p, 4) * diagonal_embedding(q, 4)
        ok &= shift_embedding(p * q, 4) == \
            shift_embedding(p, 4) * shift_embedding(q, 4)

    sig = AlgebraSignature(2, 3, Mode.QUANTUM)
    pattern = parse_pattern("[1,[2,3]@3]", 3)
    gens = limit_gaudin_algebra(iterate_pattern(sig, pattern, poles=[0, 1, 2]))
    ok &= bool(commutation_matrix([g for _, g in gens]).passed)

    # the bending flows' quantum algebra: the limit algebra of the left comb
    for sites in (2, 3):
        pattern, poles = left_comb_pattern(sites)
        quantum = iterate_pattern(AlgebraSignature(2, sites, Mode.QUANTUM), pattern, poles)
        classical = iterate_pattern(AlgebraSignature(2, sites, Mode.CLASSICAL), pattern, poles)
        ok &= bool(classical_limits_match(quantum.talalaev_outputs,
                                          classical.invariant_family()).passed)
        gens = limit_gaudin_algebra(quantum)
        ok &= bool(commutation_matrix([g for _, g in gens]).passed)
    report(8, "quantum limit algebras: embeddings, commutators, symbols", ok)


def test_fivesite_operator_diagnostics_do_not_gate():
    # The five-site partial-collision operator is exercised as a diagnostic
    # only: its findings are printed, never asserted.
    sig = AlgebraSignature(2, 5, Mode.CLASSICAL)
    spec = fivesite_operator([0, 1, 2, 3, 4])
    from gaudin.poisson import antisymmetry_check
    anti = antisymmetry_check(spec, sig)
    jac = jacobi_check(spec, sig)
    print(f"ACCEPTANCE - five-site operator diagnostics: "
          f"antisymmetry={'ok' if anti.passed else 'violated'}, "
          f"jacobi={'ok' if jac.passed else 'violated'} (non-gating)")


def test_criterion_9_fail_path_controls():
    ok = True

    bad_operator = limit_rijk_operator(4).with_block(
        2, 2, {1: Fraction(1), 2: Fraction(1)})
    rep = jacobi_check(bad_operator,
                       AlgebraSignature(2, 4, Mode.CLASSICAL))
    ok &= rep.passed is False and bool(rep.witnesses)

    weyl_sig = AlgebraSignature(1, 1, Mode.QUANTUM)
    weyl = DiffOpMatrix(weyl_sig, [
        [DiffOpEntry.from_entry(LaxEntry.scalar(weyl_sig, RatFun.z())),
         DiffOpEntry.partial(weyl_sig)],
        [DiffOpEntry.one(weyl_sig),
         DiffOpEntry.from_entry(LaxEntry.scalar(weyl_sig, RatFun.z()))],
    ])
    rep = is_manin(weyl)
    ok &= rep.passed is False and bool(rep.witnesses)

    q2 = AlgebraSignature(2, 2, Mode.QUANTUM)
    rep = commutation_matrix([q2.gen(1, 1, 1), q2.gen(1, 1, 2)], ["a", "b"])
    ok &= rep.passed is False and bool(rep.witnesses)
    report(9, "fail-path controls produce FAIL with witnesses", ok)
