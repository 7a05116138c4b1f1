"""The total collision: bending flows.

Collapsing all poles one after another (the left-comb pattern) produces the
cluster Lax matrices of the bending system.  Their invariants commute under
the standard Lie-Poisson bracket and under the parameter-free limit bracket,
making the system bi-Hamiltonian.
"""

from gaudin import (
    AlgebraSignature,
    Mode,
    bending_lax,
    bending_lax_rational,
    family_commutes_under,
    iterate_pattern,
    left_comb_pattern,
    limit_rijk_operator,
    spectral_invariants,
    standard_operator,
)

sig = AlgebraSignature(rank=2, sites=4, mode=Mode.CLASSICAL)

print("Polynomial cluster matrices z*X_k + (X_{k+1} + ... + X_N):")
for k in (1, 2, 3):
    print(f"  k={k}: entry (1,1) =", bending_lax(sig, k).entry(1, 1))

print("\nEach polynomial cluster has a rational stand-in with two poles;")
print("the left-comb pattern reproduces those verbatim:")
pattern, poles = left_comb_pattern(4, 0, 1)
family = iterate_pattern(sig, pattern, poles)
for k in (1, 2, 3):
    match = family.matrices[k - 1] == bending_lax_rational(sig, k, 0, 1)
    print(f"  step {k} == rational cluster {k}: {match}")

print("\nCluster Hamiltonians: z-coefficients of traces of powers, e.g. k=1:")
fam1 = spectral_invariants(bending_lax(sig, 1), max_power=2)
for m in fam1.members[:4]:
    print(f"  power={m.provenance['power']} z^{m.provenance['zpower']}: "
          f"degree {m.expr.degree}")

inv = family.invariant_family()
print(f"\nBi-Hamiltonian property of all {len(inv)} rational-cluster invariants:")
print("  commute under the standard bracket:",
      family_commutes_under(standard_operator(4), inv).passed)
print("  commute under the limit bracket:",
      family_commutes_under(limit_rijk_operator(4), inv).passed)
