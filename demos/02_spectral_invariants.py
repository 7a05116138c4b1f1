"""Gaudin Lax matrices and their commuting Hamiltonian families.

The N-site Lax matrix L(z) = sum_i X_i/(z - z_i) packs all the conserved
quantities: residues of traces of its powers Poisson-commute, the quadratic
ones are the long-range spin Hamiltonians, and everything commutes with the
mean-field Hamiltonian H_G.
"""

from gaudin import (
    AlgebraSignature,
    Mode,
    commutator,
    gaudin_lax,
    physical_hamiltonian,
    poisson_bracket,
    quadratic_hamiltonians,
    spectral_invariants,
)

sig = AlgebraSignature(rank=2, sites=3, mode=Mode.CLASSICAL)
L = gaudin_lax(sig, poles=[0, 1, 2])

print("Entry (1,2) of the three-site gl(2) Lax matrix:")
print("  ", L.entry(1, 2))

print("\nResidue at z = 0 recovers the site-1 generator block:")
for row in L.entries:
    print("  ", [str(e.residue(0)) for e in row])

fam = spectral_invariants(L, max_power=2)
print(f"\nSpectral invariants up to Tr L^2: {len(fam)} members")
for m in fam.members:
    print(f"  power={m.provenance['power']} pole={m.provenance['pole']} "
          f"order={m.provenance['order']}  degree={m.expr.degree}")

print("\nAll pairs Poisson-commute (exact zeros):")
exprs = fam.exprs()
bad = sum(
    1
    for i in range(len(exprs))
    for j in range(i + 1, len(exprs))
    if not poisson_bracket(exprs[i], exprs[j]).is_zero()
)
print(f"  nonzero brackets: {bad} of {len(exprs) * (len(exprs) - 1) // 2}")

print("\nQuadratic Hamiltonians sum to zero (regularity at infinity):")
hams = quadratic_hamiltonians(sig, [0, 1, 2])
total = sig.zero()
for h in hams:
    total = total + h
print("  sum_i H_i =", total)

print("\nThe same family is commutative in the quantum algebra:")
qsig = sig.as_mode(Mode.QUANTUM)
qhams = quadratic_hamiltonians(qsig, [0, 1, 2])
print("  [H_1, H_2] =", commutator(qhams[0], qhams[1]))

print("\nAnd conserves the physical Hamiltonian:")
hg = physical_hamiltonian(sig)
print("  {H_1, H_G} =", poisson_bracket(hams[0], hg))
