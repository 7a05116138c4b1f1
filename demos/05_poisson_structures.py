"""Alternative Poisson structures for collided poles.

Brackets are presented as block operators: block (i,j) acts by a commutator
with a fixed combination of site variables.  Each one compiles to its values
on coordinate pairs, which Leibniz extends to all polynomials, so the
Poisson property is certified exhaustively on coordinate pairs and triples.
The total-collision limit bracket comes from an explicit coefficient formula; a
five-site operator for a partial collision is implemented exactly as
tabulated and examined as a diagnostic.
"""

from fractions import Fraction

from gaudin import (
    AlgebraSignature,
    Mode,
    compatibility_check,
    fivesite_operator,
    jacobi_check,
    limit_rijk_operator,
    standard_operator,
)
from gaudin.poisson import antisymmetry_check, limit_coefficient

print("Limit-bracket coefficients r_ijk with theta(0) = 0, four sites:")
op = limit_rijk_operator(4)
for (i, j), combo in sorted(op.blocks.items()):
    terms = " + ".join(f"{c}*ad(X_{k})" for k, c in sorted(combo.items()))
    print(f"  block({i},{j}) = {terms}")
print("  (block(1,1) is absent: r_111 =", limit_coefficient(1, 1, 1), ")")

sig = AlgebraSignature(rank=2, sites=4, mode=Mode.CLASSICAL)
std = standard_operator(4)
print("\nExhaustive certificates at gl(2), N=4:")
for label, rep in (
    ("Jacobi for the standard bracket", jacobi_check(std, sig)),
    ("Jacobi for the limit bracket", jacobi_check(op, sig)),
    ("compatibility of the two", compatibility_check(std, op, sig)),
):
    print(f"  {label}: {rep.passed} ({rep.info['triples']} coordinate triples)")

print("\nA corrupted operator (sign flip in block (2,2)) fails Jacobi:")
bad = limit_rijk_operator(4).with_block(2, 2, {1: Fraction(1), 2: Fraction(1)})
rep = jacobi_check(bad, sig)
print("  passed:", rep.passed, f"| {rep.info['failed']} of {rep.info['triples']} triples fail")
print("  first witness:", rep.witnesses[0]["triple"], "->", rep.witnesses[0]["jacobiator"])

print("\nFive-site partial-collision operator, implemented verbatim:")
z = [0, 1, 2, 3, 4]
spec5 = fivesite_operator(z)
sig5 = AlgebraSignature(rank=2, sites=5, mode=Mode.CLASSICAL)
jac5 = jacobi_check(spec5, sig5)
print("  antisymmetry:", antisymmetry_check(spec5, sig5).passed)
print("  Jacobi:", jac5.passed, f"({jac5.info['failed']} of {jac5.info['triples']} triples fail)")
print("  -> diagnostic finding: the tabulated blocks are antisymmetric but")
print("     do not satisfy Jacobi, so these checks never gate acceptance.")
