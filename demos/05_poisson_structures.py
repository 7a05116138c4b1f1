"""Alternative Poisson structures for collided poles.

Brackets are presented as block operators: block (i,j) acts by a commutator
with a fixed combination of site variables.  Each one compiles to its values
on coordinate pairs, which Leibniz extends to all polynomials.  The
total-collision limit bracket comes from an explicit coefficient formula; a
five-site operator for a partial collision is implemented exactly as
tabulated and examined as a diagnostic.
"""

from fractions import Fraction

from gaudin import (
    AlgebraSignature,
    LimitBracket,
    Mode,
    OperatorBracket,
    StandardBracket,
    compatibility_check,
    fivesite_operator,
    jacobi_check,
    limit_rijk_operator,
)
from gaudin.poisson import antisymmetry_check, limit_coefficient

print("Limit-bracket coefficients r_ijk with theta(0) = 0, four sites:")
op = limit_rijk_operator(4)
for (i, j), combo in sorted(op.blocks.items()):
    terms = " + ".join(f"{c}*ad(X_{k})" for k, c in sorted(combo.items()))
    print(f"  block({i},{j}) = {terms}")
print("  (block(1,1) is absent: r_111 =", limit_coefficient(1, 1, 1), ")")

sig = AlgebraSignature(rank=2, sites=4, mode=Mode.CLASSICAL)
print("\nExact randomized checks at gl(2), N=4:")
print("  Jacobi for the standard bracket:",
      jacobi_check(StandardBracket(), sig, trials=20, seed=1).passed)
print("  Jacobi for the limit bracket:",
      jacobi_check(LimitBracket(), sig, trials=20, seed=1).passed)
print("  compatibility of the two:",
      compatibility_check(StandardBracket(), LimitBracket(), sig,
                          trials=20, seed=1).passed)

print("\nA corrupted operator (sign flip in block (2,2)) fails Jacobi:")
bad = limit_rijk_operator(4).with_block(2, 2, {1: Fraction(1), 2: Fraction(1)})
rep = jacobi_check(OperatorBracket(bad), sig, trials=20, seed=2)
print("  passed:", rep.passed, "| first witness kind:",
      rep.witnesses[0]["kind"] if rep.witnesses else None)

print("\nFive-site partial-collision operator, implemented verbatim:")
z = [0, 1, 2, 3, 4]
spec5 = OperatorBracket(fivesite_operator(z))
sig5 = AlgebraSignature(rank=2, sites=5, mode=Mode.CLASSICAL)
print("  antisymmetry:", antisymmetry_check(spec5, sig5, trials=10, seed=3).passed)
print("  Jacobi:", jacobi_check(spec5, sig5, trials=10, seed=3).passed)
print("  -> diagnostic finding: the tabulated blocks are antisymmetric but")
print("     does not satisfy Jacobi, so these checks never gate acceptance.")
