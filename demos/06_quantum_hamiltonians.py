"""Quantum commuting Hamiltonians from the column determinant.

The matrix d/dz - L(z) has noncommutative entries, but its columns commute
and its 2x2 cross commutators agree (the Manin property).  Its column
determinant is therefore well defined, and the coefficients of the powers of
d/dz commute for all evaluations of z: these are the higher quantum
Hamiltonians.  The d/dz-free coefficients of Tr (d/dz - L)^k give an
equivalent generating set, and both constructions transport through the
gluing limits.
"""

from gaudin import (
    AlgebraSignature,
    Mode,
    classical_limit,
    commutation_matrix,
    commutator,
    gaudin_lax,
    is_manin,
    iterate_pattern,
    left_comb_pattern,
    limit_gaudin_algebra,
    parse_pattern,
    partial_minus,
    talalaev_generators,
)
from gaudin.gluing import classical_limits_match

sig = AlgebraSignature(rank=2, sites=2, mode=Mode.QUANTUM)
L = gaudin_lax(sig, poles=[0, 1])
M = partial_minus(L)

print("d/dz - L is a Manin matrix:", is_manin(M).passed)

out = talalaev_generators(L)
print("\nColumn-determinant coefficients (QH_i = coefficient of (d/dz)^i):")
for i, qh in enumerate(out.qh):
    print(f"  QH_{i} =", qh)

print("\nCommutators vanish across evaluation points:")
for (u, v) in [(5, 7), (7, 11), (5, 11)]:
    res = commutator(out.qh[0].eval_z(u), out.qh[0].eval_z(v))
    print(f"  [QH_0({u}), QH_0({v})] =", res)

print("\nClassical limit of QH_0 is the determinant-type invariant:")
csig = sig.as_mode(Mode.CLASSICAL)
E = gaudin_lax(csig, [0, 1]).eval_z(5)
det_cl = E[0][0] * E[1][1] - E[0][1] * E[1][0]
print("  symbol(QH_0(5)) == det L_cl(5):",
      classical_limit(out.qh[0].eval_z(5)) == det_cl)

print("\nGlued quantum family on three sites (tail collapse at w=3):")
q3 = AlgebraSignature(rank=2, sites=3, mode=Mode.QUANTUM)
gens = limit_gaudin_algebra(iterate_pattern(q3, parse_pattern("[1,[2,3]@3]", 3), [0, 1, 2]))
rep = commutation_matrix([g for _, g in gens], [l for l, _ in gens])
print(f"  {len(gens)} residue coefficients, all pairwise commutators zero: {rep.passed}")

print("\nQuantum bending flows (the left comb's limit algebra) and their symbols:")
comb, comb_poles = left_comb_pattern(3)
quantum = iterate_pattern(q3, comb, comb_poles)
classical = iterate_pattern(q3.as_mode(Mode.CLASSICAL), comb, comb_poles).invariant_family()
print("  member-by-member symbol match:",
      classical_limits_match(quantum.talalaev_outputs, classical).passed)
print("  pairwise quantum commutativity:",
      commutation_matrix([g for _, g in limit_gaudin_algebra(quantum)]).passed)
