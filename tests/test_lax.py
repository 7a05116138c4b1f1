from fractions import Fraction

import pytest

from gaudin.algebra import (
    AlgebraSignature,
    Mode,
    ModeError,
    commutator,
    diagonal_generators,
    poisson_bracket,
)
from gaudin.gluing import iterate_pattern, left_comb_pattern, parse_pattern
from gaudin.lax import (
    LaxMatrix,
    bending_lax,
    bending_lax_rational,
    gaudin_lax,
    physical_hamiltonian,
    pole_site_groups,
    quadratic_hamiltonians,
    spectral_invariants,
)
from gaudin.linalg import matmul, power_traces
from gaudin.ratfun import LaxEntry, RatFun

from oracles import ratfun_spectral_invariants


def tr_xx(sig, i, j, weight=1):
    """sum_ab x[a,b]@i x[b,a]@j with a rational weight."""
    total = sig.zero()
    for a in range(1, sig.rank + 1):
        for b in range(1, sig.rank + 1):
            total = total + sig.gen(i, a, b) * sig.gen(j, b, a)
    return total * Fraction(weight)


class TestGaudinLax:
    def test_rank_one_two_sites(self):
        sig = AlgebraSignature(1, 2, Mode.CLASSICAL)
        L = gaudin_lax(sig, [0, 1])
        expected = LaxEntry.from_terms(sig, [
            (((1, 1, 1),), RatFun.one_over_z_minus(0)),
            (((2, 1, 1),), RatFun.one_over_z_minus(1)),
        ])
        assert L.entry(1, 1) == expected

    def test_residue_is_site_block(self, c3):
        L = gaudin_lax(c3, [0, 1, 2])
        res = [[e.residue(Fraction(0)) for e in row] for row in L.entries]
        for a in range(1, 3):
            for b in range(1, 3):
                assert res[a - 1][b - 1] == c3.gen(1, a, b)

    def test_single_site_trace_square_has_double_pole(self):
        sig = AlgebraSignature(2, 1, Mode.CLASSICAL)
        L = gaudin_lax(sig, [3])
        *_, tr2 = power_traces(L.entries, 2)
        fam = spectral_invariants(L, 2)
        # order-1 residue at the double pole is the quadratic Casimir
        member = [m for m in fam.members
                  if m.provenance["power"] == 2 and m.provenance["order"] == 1]
        assert len(member) == 1
        assert member[0].expr == tr_xx(sig, 1, 1)
        # no simple-pole part for a one-site matrix
        assert tr2.residue(Fraction(3), 0).is_zero()

    def test_power_traces_match_full_matrix_powers(self):
        sig = AlgebraSignature(2, 2, Mode.CLASSICAL)
        L = gaudin_lax(sig, [0, Fraction(1, 2)])
        power = L.entries
        for m, tr in enumerate(power_traces(L.entries, 4), start=1):
            assert tr == sum((power[i][i] for i in range(2)), LaxEntry.zero(sig))
            assert list(power_traces(L.entries, m))[-1] == tr
            power = matmul(L.entries, power)
        assert list(power_traces(L.entries, 0)) == []

    def test_repeated_poles_rejected(self, c3):
        with pytest.raises(ValueError):
            gaudin_lax(c3, [0, 0, 1])

    def test_site_groups_readout(self, c3):
        L = gaudin_lax(c3, [0, 1, 2])
        assert pole_site_groups(L) == {Fraction(0): [1], Fraction(1): [2], Fraction(2): [3]}


class TestBendingLax:
    def test_two_site_cluster_matrix(self):
        sig = AlgebraSignature(2, 2, Mode.CLASSICAL)
        L = bending_lax(sig, 1)
        for a in range(1, 3):
            for b in range(1, 3):
                assert L.entry(a, b) == LaxEntry.from_terms(sig, [
                    (((1, a, b),), RatFun.z()),
                    (((2, a, b),), RatFun.const(1)),
                ])

    def test_last_cluster_single_tail(self):
        sig = AlgebraSignature(2, 3, Mode.CLASSICAL)
        L = bending_lax(sig, 2)
        assert L.entry(1, 1) == LaxEntry.from_terms(sig, [
            (((2, 1, 1),), RatFun.z()),
            (((3, 1, 1),), RatFun.const(1)),
        ])

    def test_trace_at_zero_is_tail_trace(self):
        sig = AlgebraSignature(2, 3, Mode.CLASSICAL)
        L = bending_lax(sig, 1)
        tr, = power_traces(L.entries, 1)
        got = tr.eval_z(0)
        expected = (sig.gen(2, 1, 1) + sig.gen(2, 2, 2)
                    + sig.gen(3, 1, 1) + sig.gen(3, 2, 2))
        assert got == expected

    def test_k_out_of_range(self):
        sig = AlgebraSignature(2, 3, Mode.CLASSICAL)
        with pytest.raises(ValueError):
            bending_lax(sig, 3)
        with pytest.raises(ValueError):
            bending_lax(sig, 0)


class TestBendingLaxRational:
    def test_first_member(self, c3):
        L = bending_lax_rational(c3, 1, 0, 1)
        assert L.entry(1, 2) == LaxEntry.from_terms(c3, [
            (((2, 1, 2),), RatFun.one_over_z_minus(1)),
            (((1, 1, 2),), RatFun.one_over_z_minus(0)),
        ])

    def test_last_member_accumulates_head(self, c3):
        L = bending_lax_rational(c3, 2, 0, 1)
        assert L.entry(2, 1) == LaxEntry.from_terms(c3, [
            (((3, 2, 1),), RatFun.one_over_z_minus(1)),
            (((1, 2, 1),), RatFun.one_over_z_minus(0)),
            (((2, 2, 1),), RatFun.one_over_z_minus(0)),
        ])

    def test_residues_sum_to_leading_groups(self, c3):
        L = bending_lax_rational(c3, 1, 0, 1)
        total = [[e.residue(Fraction(0)) + e.residue(Fraction(1)) for e in row]
                 for row in L.entries]
        for a in range(1, 3):
            for b in range(1, 3):
                assert total[a - 1][b - 1] == c3.gen(1, a, b) + c3.gen(2, a, b)

    def test_coincident_poles_rejected(self, c3):
        with pytest.raises(ValueError):
            bending_lax_rational(c3, 1, 2, 2)


class TestSpectralInvariants:
    def test_two_site_residue_is_quadratic_hamiltonian(self, c2):
        L = gaudin_lax(c2, [0, 1])
        fam = spectral_invariants(L, 2)
        member = [m for m in fam.members
                  if m.provenance == {"matrix": "gaudin", "power": 2,
                                      "pole": "0", "order": 0}]
        # Res_{z=0} Tr L^2 = 2 Tr(X_1 X_2)/(z_1 - z_2) with z_1=0, z_2=1
        assert member[0].expr == tr_xx(c2, 1, 2, Fraction(2, 0 - 1))

    def test_rank_one_residues_are_site_variables(self):
        sig = AlgebraSignature(1, 3, Mode.CLASSICAL)
        fam = spectral_invariants(gaudin_lax(sig, [0, 1, 2]), 1)
        exprs = fam.exprs()
        assert exprs == [sig.gen(1, 1, 1), sig.gen(2, 1, 1), sig.gen(3, 1, 1)]
        # central: they Poisson-commute with every coordinate
        for expr in exprs:
            for letter in sig.letters():
                assert poisson_bracket(expr, sig.gen(*letter)).is_zero()

    def test_polynomial_cluster_coefficient(self):
        sig = AlgebraSignature(2, 2, Mode.CLASSICAL)
        fam = spectral_invariants(bending_lax(sig, 1), 2)
        member = [m for m in fam.members
                  if m.provenance.get("power") == 2 and m.provenance.get("zpower") == 1]
        assert member[0].expr == tr_xx(sig, 1, 2, 2)

    def test_quantum_mode_rejected(self, q2):
        with pytest.raises(ModeError):
            spectral_invariants(gaudin_lax(q2, [0, 1]), 2)

    @pytest.mark.parametrize("rank,sites", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_pairwise_poisson_commutativity(self, rank, sites):
        sig = AlgebraSignature(rank, sites, Mode.CLASSICAL)
        fam = spectral_invariants(gaudin_lax(sig, list(range(sites))), rank)
        exprs = fam.exprs()
        for i in range(len(exprs)):
            for j in range(i + 1, len(exprs)):
                assert poisson_bracket(exprs[i], exprs[j]).is_zero()

    def test_members_commute_with_cartan(self, c3):
        fam = spectral_invariants(gaudin_lax(c3, [0, 1, 2]), 2)
        for d in diagonal_generators(c3):
            for expr in fam.exprs():
                assert poisson_bracket(d, expr).is_zero()


def _gaudin(rank, sites, poles):
    return lambda: [gaudin_lax(AlgebraSignature(rank, sites, Mode.CLASSICAL), poles)]


def _pattern(rank, text, sites, poles=None):
    sig = AlgebraSignature(rank, sites, Mode.CLASSICAL)
    return lambda: iterate_pattern(sig, parse_pattern(text, sites), poles).matrices


def _left_comb(rank, sites):
    sig = AlgebraSignature(rank, sites, Mode.CLASSICAL)
    pattern, poles = left_comb_pattern(sites)
    return lambda: iterate_pattern(sig, pattern, poles).matrices


HALF, THIRD = Fraction(1, 2), Fraction(-2, 3)


class TestSpectralInvariantsReference:
    """Packed-monomial traces against ``power_traces`` over ``LaxEntry``:
    the same members, in the same order, with the same provenance."""

    @staticmethod
    def assert_matches_reference(L, max_power=None):
        got = spectral_invariants(L, max_power)
        want = ratfun_spectral_invariants(L, max_power)
        assert got.label == want.label
        assert ([list(m.provenance.items()) for m in got.members]
                == [list(m.provenance.items()) for m in want.members])
        assert got.exprs() == want.exprs()
        assert all(type(c) is Fraction for e in got.exprs() for c in e.terms.values())
        return got

    @pytest.mark.parametrize("matrices", [
        _gaudin(2, 3, [0, 1, 2]),
        _gaudin(2, 3, [HALF, THIRD, 2]),
        _gaudin(3, 3, [0, 1, 2]),
        _gaudin(3, 3, [HALF, 5, THIRD]),
        _gaudin(3, 2, [0, 1]),
        _gaudin(3, 2, [THIRD, Fraction(7, 4)]),
        _gaudin(2, 5, [0, 1, 2, 3, 4]),
        _gaudin(2, 5, [HALF, -1, THIRD, 4, Fraction(9, 5)]),
        lambda: [bending_lax(AlgebraSignature(2, 3, Mode.CLASSICAL), k) for k in (1, 2)],
        lambda: [bending_lax(AlgebraSignature(3, 2, Mode.CLASSICAL), 1)],
        lambda: [bending_lax_rational(AlgebraSignature(2, 3, Mode.CLASSICAL), k, HALF, THIRD)
                 for k in (1, 2)],
        _pattern(3, "[1,[2,3]@3]", 3, [0, 1, 2]),
        _pattern(2, "[1,[2,3]@3]", 3, [HALF, THIRD, 1]),
        _left_comb(2, 4),
        _left_comb(3, 4),
        _pattern(2, "[1,2,[3,4,5]@3]", 5),
    ], ids=["gaudin-r2n3", "gaudin-r2n3-fractional", "gaudin-r3n3", "gaudin-r3n3-fractional",
            "gaudin-r3n2", "gaudin-r3n2-fractional", "gaudin-r2n5", "gaudin-r2n5-fractional",
            "bending-r2n3", "bending-r3n2", "bending-rational-r2n3", "pattern-r3",
            "pattern-r2-fractional", "left-comb-r2n4", "left-comb-r3n4", "pattern-r2n5"])
    def test_members_match_the_reference(self, matrices):
        for L in matrices():
            assert len(self.assert_matches_reference(L))

    @pytest.mark.parametrize("matrix, powers", [
        (lambda: gaudin_lax(AlgebraSignature(2, 3, Mode.CLASSICAL), [0, HALF, 2]), (1, 4)),
        (lambda: gaudin_lax(AlgebraSignature(3, 2, Mode.CLASSICAL), [THIRD, 1]), (2, 5)),
        (lambda: bending_lax(AlgebraSignature(2, 3, Mode.CLASSICAL), 1), (1, 4)),
    ], ids=["gaudin-r2n3", "gaudin-r3n2", "bending-r2n3"])
    def test_powers_below_and_above_the_rank(self, matrix, powers):
        L = matrix()
        for max_power in powers:
            got = self.assert_matches_reference(L, max_power)
            assert max(m.provenance["power"] for m in got.members) == max_power

    def test_undeclared_poles_rejected(self, c2):
        # the reference raises only once a trace also has a polynomial part;
        # a matrix without one gave it an empty family
        rational = gaudin_lax(c2, [0, HALF]).entries
        polynomial = bending_lax(c2, 1).entries
        mixed = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(rational, polynomial)]
        for build in (spectral_invariants, ratfun_spectral_invariants):
            with pytest.raises(ValueError, match="not polynomial in z"):
                build(LaxMatrix(c2, mixed, [], "undeclared"))
        with pytest.raises(ValueError, match="not polynomial in z"):
            spectral_invariants(LaxMatrix(c2, rational, [], "undeclared"))

    def test_quantum_mode_rejected_like_the_reference(self, q2):
        L = gaudin_lax(q2, [0, HALF])
        for build in (spectral_invariants, ratfun_spectral_invariants):
            with pytest.raises(ModeError):
                build(L)


class TestQuadraticHamiltonians:
    def test_two_site_antisymmetry(self, c2):
        h1, h2 = quadratic_hamiltonians(c2, [0, 1])
        assert h1 == tr_xx(c2, 1, 2, Fraction(1, -1))
        assert h1 == -h2

    def test_sum_vanishes(self, c3):
        hams = quadratic_hamiltonians(c3, [0, 1, 2])
        total = c3.zero()
        for h in hams:
            total = total + h
        assert total.is_zero()

    @pytest.mark.parametrize("sites", [3, 4])
    def test_quantum_commutativity(self, sites):
        sig = AlgebraSignature(2, sites, Mode.QUANTUM)
        hams = quadratic_hamiltonians(sig, list(range(sites)))
        for i in range(len(hams)):
            for j in range(i + 1, len(hams)):
                assert commutator(hams[i], hams[j]).is_zero()


class TestPhysicalHamiltonian:
    def test_two_sites(self, c2):
        assert physical_hamiltonian(c2) == tr_xx(c2, 1, 2, 2)

    def test_commutes_with_quadratic_family(self, c3):
        hg = physical_hamiltonian(c3)
        for h in quadratic_hamiltonians(c3, [0, 1, 2]):
            assert poisson_bracket(hg, h).is_zero()

    def test_rank_one_is_central(self):
        sig = AlgebraSignature(1, 3, Mode.QUANTUM)
        hg = physical_hamiltonian(sig)
        expected = 2 * (sig.gen(1, 1, 1) * sig.gen(2, 1, 1)
                        + sig.gen(1, 1, 1) * sig.gen(3, 1, 1)
                        + sig.gen(2, 1, 1) * sig.gen(3, 1, 1))
        assert hg == expected
        for letter in sig.letters():
            assert commutator(sig.gen(*letter), hg).is_zero()
