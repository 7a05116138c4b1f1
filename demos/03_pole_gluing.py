"""Letting poles of the Lax matrix collide.

A gluing pattern is a tree over the pole labels: each internal node is a
collision point and contributes one limit Lax matrix.  The invariants of all
the limit matrices together still commute, span as much as the generic
family, and contain the physical Hamiltonian.
"""

from gaudin import (
    AlgebraSignature,
    Mode,
    gaudin_lax,
    hg_membership_check,
    iterate_pattern,
    parse_pattern,
    poisson_bracket,
    rank_completeness_check,
    spectral_invariants,
)
from gaudin.lax import lax_from_groups

sig = AlgebraSignature(rank=2, sites=5, mode=Mode.CLASSICAL)

print('Pattern "[1,2,[3,4,5]@3]": sites 3,4,5 collide at w = 3.')
pattern = parse_pattern("[1,2,[3,4,5]@3]", 5)
family = iterate_pattern(sig, pattern, poles=[0, 1, 2, 3, 4])
for matrix in family.matrices:
    print(f"\n{matrix.label}: poles {[str(p) for p, _ in matrix.poles]}")
    print("  entry (1,1):", matrix.entry(1, 1))

print("\nThe same pair, built directly from (site group, pole) lists:")
l1 = lax_from_groups(sig, [([3], 2), ([4], 3), ([5], 4)])
l2 = lax_from_groups(sig, [([1], 0), ([2], 1), ([3, 4, 5], 3)])
print("  matrices agree:", l1 == family.matrices[0], l2 == family.matrices[1])

# Desk-scale verification of the three structural claims, on 3 sites:
# sites 2 and 3 (poles 1 and 2) collide at w = 5.
small = AlgebraSignature(rank=2, sites=3, mode=Mode.CLASSICAL)
glued = iterate_pattern(small, parse_pattern("[1,[2,3]@5]", 3), poles=[0, 1, 2])
inv = glued.invariant_family()

exprs = inv.exprs()
bad = sum(
    1
    for i in range(len(exprs))
    for j in range(i + 1, len(exprs))
    if not poisson_bracket(exprs[i], exprs[j]).is_zero()
)
print(f"\n1. joint family of {len(exprs)} invariants: {bad} nonzero brackets")

generic = spectral_invariants(gaudin_lax(small, [0, 1, 2]))
rep = rank_completeness_check(small, glued, generic, seed=11)
print("2. Jacobian ranks match the generic family:", rep.passed,
      rep.info["ranks"][0])

rep = hg_membership_check(small, glued)
print("3. H_G is a combination of limit invariants:", rep.passed)
for term in rep.info["combination"]:
    print("   ", term["coefficient"], "*", term["member"])
