import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaudin.algebra import AlgebraSignature, Mode, NCPoly, SignatureMismatchError
from gaudin.ratfun import (
    DiffOpEntry,
    LaxEntry,
    PoleEvaluationError,
    Poly,
    RatFun,
)


def rf(num, den=(1,)):
    return RatFun(Poly(num), Poly(den))


class TestPoly:
    def test_divmod_roundtrip(self):
        a = Poly([1, 0, 2, 3])
        b = Poly([-1, 1])
        q, r = a.divmod(b)
        assert q * b + r == a

    def test_shift(self):
        p = Poly([0, 0, 1])  # z^2
        assert p.shift(1) == Poly([1, 2, 1])  # (w+1)^2

    def test_derivative_and_eval(self):
        p = Poly([1, 2, 3])
        assert p.derivative() == Poly([2, 6])
        assert p(2) == Fraction(17)


class TestRatFunArith:
    def test_partial_fraction_sum(self):
        f = RatFun.one_over_z_minus(1) + RatFun.one_over_z_minus(-1)
        assert f == rf([0, 2], [-1, 0, 1])  # 2z/(z^2-1)

    def test_multiply_by_zero(self):
        f = rf([1, 2], [3, 1])
        assert (f * RatFun.const(0)).is_zero()

    def test_gcd_reduction(self):
        f = rf([-1, 0, 1], [-1, 1])  # (z^2-1)/(z-1)
        assert f == rf([1, 1])  # z+1

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rf([1]) / RatFun.const(0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
           st.lists(st.integers(-5, 5), min_size=1, max_size=5),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    def test_field_laws(self, n1, n2, d1, d2):
        if not any(d1) or not any(d2):
            return
        f = rf(n1, d1)
        g = rf(n2, d2)
        assert f + g == g + f
        assert f * g == g * f
        assert (f - f).is_zero()
        if not f.is_zero():
            assert f / f == RatFun.const(1)
            assert (Fraction(1) / f) * f == RatFun.const(1)

    def test_canonical_form_random(self):
        rng = random.Random(5)
        for _ in range(100):
            num = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 5))])
            den = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 5))])
            if den.is_zero():
                continue
            f = RatFun(num, den)
            assert (f - f).is_zero()
            if not f.is_zero():
                inv = RatFun(f.den, f.num)
                assert f * inv == RatFun.const(1)
            assert f.den.is_zero() or f.den.lead() == 1


class TestResidue:
    def test_simple_pole(self):
        assert RatFun.one_over_z_minus(2).residue(2, 0) == 1

    def test_double_pole_first_order(self):
        f = rf([1], [4, -4, 1])  # 1/(z-2)^2
        assert f.residue(2, 1) == 1
        assert f.residue(2, 0) == 0

    def test_no_simple_pole_part(self):
        f = rf([1], [0, 0, 1])  # 1/z^2
        assert f.residue(0, 0) == 0
        assert f.residue(0, 1) == 1

    def test_regular_point(self):
        assert rf([1, 1]).residue(3, 0) == 0

    def test_matches_partial_fractions(self):
        # f = 3/(z-1) + 5/(z-1)^2 + 7/(z+2)
        f = (RatFun.one_over_z_minus(1) * 3
             + rf([5], [1, -2, 1])
             + RatFun.one_over_z_minus(-2) * 7)
        assert f.residue(1, 0) == 3
        assert f.residue(1, 1) == 5
        assert f.residue(-2, 0) == 7


def _random_ratfun(rng):
    """Poles of order up to 3 at some of -2, 0, 1/2, 3, sometimes a factor
    z^2 + 1 without rational roots, and a numerator of degree up to 6."""
    den = Poly([1])
    for p in rng.sample([Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3)], 2):
        for _ in range(rng.randint(0, 3)):
            den = den * Poly([-p, 1])
    if rng.random() < 0.3:
        den = den * Poly([1, 0, 1])
    num = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 7))])
    return RatFun(num, den)


class TestPrincipalPart:
    POLES = (Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3), Fraction(7))

    def test_matches_residues_and_rebuilds_the_proper_part(self):
        rng = random.Random(31)
        for _ in range(60):
            f = _random_ratfun(rng)
            rest = f
            for pole in self.POLES:
                part = f.principal_part(pole)
                assert not part or part[-1] != 0
                assert part == [f.residue(pole, j) for j in range(len(part))]
                assert f.residue(pole, len(part)) == 0
                power = RatFun.one_over_z_minus(pole)
                for c in part:
                    rest = rest - power * c
                    power = power * RatFun.one_over_z_minus(pole)
            # what is left has no pole at any of the listed points
            assert all(not rest.principal_part(pole) for pole in self.POLES)

    def test_matches_sympy_taylor_coefficients(self):
        # with m the multiplicity sympy finds for the pole, c_j is the
        # (m-1-j)-th Taylor coefficient of (z - pole)^m f at the pole
        sympy = pytest.importorskip("sympy")
        z = sympy.symbols("z")

        def expr(poly):
            return sum(sympy.Rational(c.numerator, c.denominator) * z ** k
                       for k, c in enumerate(poly.coeffs))

        rng = random.Random(5)
        for _ in range(20):
            f = _random_ratfun(rng)
            g = sympy.cancel(expr(f.num) / expr(f.den))
            roots = sympy.roots(sympy.Poly(sympy.denom(g), z))
            for pole in self.POLES:
                p = sympy.Rational(pole.numerator, pole.denominator)
                m = roots.get(p, 0)
                h = sympy.cancel(g * (z - p) ** m)
                want = [sympy.diff(h, z, m - 1 - j).subs(z, p) / sympy.factorial(m - 1 - j)
                        for j in range(m)]
                got = f.principal_part(pole)
                assert [sympy.Rational(c.numerator, c.denominator) for c in got] == want

    def test_lax_entry_reads_one_series_per_coefficient(self):
        sig = AlgebraSignature(2, 1, Mode.QUANTUM)
        e = LaxEntry.from_terms(sig, [
            (((1, 1, 1),), rf([1], [0, 0, 1])),               # 1/z^2
            (((1, 1, 2),), rf([3, 1], [0, 1])),               # (z + 3)/z
            (((1, 2, 1),), RatFun.one_over_z_minus(2)),
        ])
        part = e.principal_part(0)
        assert part == [sig.gen(1, 1, 2) * 3, sig.gen(1, 1, 1)]
        assert part == [e.residue(0, j) for j in range(2)]
        assert e.residue(0, 2).is_zero()
        assert e.principal_part(2) == [sig.gen(1, 2, 1)]
        assert e.principal_part(5) == []


@pytest.fixture
def scalar_sig():
    return AlgebraSignature(1, 1, Mode.QUANTUM)


class TestDiffOp:
    def test_leibniz_on_one_over_z(self, scalar_sig):
        d = DiffOpEntry.partial(scalar_sig)
        f = DiffOpEntry.from_entry(LaxEntry.scalar(scalar_sig, RatFun.one_over_z_minus(0)))
        prod = d * f
        # (1/z) d - 1/z^2
        assert prod.entry(1) == LaxEntry.scalar(scalar_sig, RatFun.one_over_z_minus(0))
        assert prod.entry(0) == LaxEntry.scalar(scalar_sig, rf([-1], [0, 0, 1]))

    def test_square_of_partial_minus_one_over_z(self, scalar_sig):
        d = DiffOpEntry.partial(scalar_sig)
        f = DiffOpEntry.from_entry(LaxEntry.scalar(scalar_sig, RatFun.one_over_z_minus(0)))
        sq = (d - f) * (d - f)
        assert sq.entry(2) == LaxEntry.one(scalar_sig)
        assert sq.entry(1) == LaxEntry.scalar(scalar_sig, rf([-2], [0, 1]))
        assert sq.entry(0) == LaxEntry.scalar(scalar_sig, rf([2], [0, 0, 1]))

    def test_multiply_by_one(self, scalar_sig, rng):
        one = DiffOpEntry.one(scalar_sig)
        a = _random_diffop(rng, scalar_sig)
        assert a * one == a
        assert one * a == a

    def test_associativity_random(self, scalar_sig, rng):
        for _ in range(25):
            a = _random_diffop(rng, scalar_sig)
            b = _random_diffop(rng, scalar_sig)
            c = _random_diffop(rng, scalar_sig)
            assert (a * b) * c == a * (b * c)

    def test_commutator_with_function_is_derivative(self, scalar_sig):
        rng = random.Random(17)
        d = DiffOpEntry.partial(scalar_sig)
        for _ in range(50):
            num = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
            den = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))])
            if den.is_zero():
                continue
            fr = RatFun(num, den)
            f = DiffOpEntry.from_entry(LaxEntry.scalar(scalar_sig, fr))
            comm = d * f - f * d
            assert comm == DiffOpEntry.from_entry(
                LaxEntry.scalar(scalar_sig, fr.derivative()))


def _random_diffop(rng, sig):
    coeffs = {}
    for power in range(rng.randint(1, 3)):
        den_choice = rng.choice([(1,), (0, 1), (0, 0, 1), (-1, 1)])
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        f = RatFun(Poly(num), Poly(den_choice))
        if not f.is_zero():
            coeffs[power] = LaxEntry.scalar(sig, f)
    return DiffOpEntry(sig, coeffs)


class TestEvalZ:
    def test_eval_lax_entry(self):
        sig = AlgebraSignature(2, 1, Mode.QUANTUM)
        e = LaxEntry.from_terms(sig, [(((1, 1, 1),), RatFun.one_over_z_minus(1))])
        val = e.eval_z(3)
        assert val == sig.gen(1, 1, 1) * Fraction(1, 2)

    def test_eval_at_pole_reports_the_pole(self):
        sig = AlgebraSignature(2, 1, Mode.QUANTUM)
        e = LaxEntry.from_terms(sig, [(((1, 1, 1),), RatFun.one_over_z_minus(1))])
        with pytest.raises(PoleEvaluationError) as err:
            e.eval_z(1)
        assert err.value.point == 1

    def test_eval_diffop_coefficient_list(self, scalar_sig):
        d = DiffOpEntry.partial(scalar_sig)
        f = DiffOpEntry.from_entry(LaxEntry.scalar(scalar_sig, RatFun.one_over_z_minus(0)))
        sq = (d - f) * (d - f)
        values = sq.eval_z(1)
        consts = [v.constant_term() for v in values]
        assert consts == [2, -2, 1]


class TestLaxEntryAlgebra:
    def test_quantum_mult_uses_straightening(self):
        sig = AlgebraSignature(2, 1, Mode.QUANTUM)
        e12 = LaxEntry.from_terms(sig, [(((1, 1, 2),), RatFun.const(1))])
        e11 = LaxEntry.from_terms(sig, [(((1, 1, 1),), RatFun.const(1))])
        prod = e12 * e11
        assert prod == LaxEntry.from_terms(sig, [
            (((1, 1, 1), (1, 1, 2)), RatFun.const(1)),
            (((1, 1, 2),), RatFun.const(-1)),
        ])

    def test_z_coefficient_requires_polynomial(self):
        sig = AlgebraSignature(1, 1, Mode.CLASSICAL)
        e = LaxEntry.from_terms(sig, [(((1, 1, 1),), RatFun.one_over_z_minus(0))])
        with pytest.raises(ValueError):
            e.z_coefficient(0)

    def test_proportionality(self):
        sig = AlgebraSignature(1, 1, Mode.CLASSICAL)
        e = LaxEntry.from_terms(sig, [(((1, 1, 1),), RatFun.one_over_z_minus(0))])
        assert (e * 3).proportionality(e) == 3
        other = LaxEntry.from_terms(sig, [(((1, 1, 1),), RatFun.z())])
        assert other.proportionality(e) is None

    def test_ncpoly_proportionality_needs_one_ratio(self):
        sig = AlgebraSignature(2, 1, Mode.QUANTUM)
        p = sig.gen(1, 1, 1) + sig.gen(1, 1, 2) * 2
        assert (p * Fraction(-3, 2)).proportionality(p) == Fraction(-3, 2)
        assert (sig.gen(1, 1, 1) + sig.gen(1, 1, 2)).proportionality(p) is None
        assert sig.gen(1, 1, 1).proportionality(p) is None
        assert sig.zero().proportionality(p) == 0
        assert p.proportionality(sig.zero()) is None


def _one_of_each(sig):
    """An NCPoly, a LaxEntry and a DiffOpEntry, each with a word term."""
    p = sig.gen(1, 1, 2) + 1
    e = LaxEntry.from_ncpoly(p) * RatFun.one_over_z_minus(0)
    return p, e, DiffOpEntry.from_entry(e) + DiffOpEntry.partial(sig)


OPS = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b]


class TestSparseSum:
    """The sum/scale/map core shared by NCPoly, LaxEntry and DiffOpEntry."""

    @pytest.mark.parametrize("op", OPS)
    def test_mixed_containers_are_refused(self, q1, op):
        p, e, d = _one_of_each(q1)
        for a, b in [(p, e), (e, p), (p, d), (d, p)]:
            with pytest.raises(TypeError):
                op(a, b)

    @pytest.mark.parametrize("op", OPS)
    def test_signature_clash_raises(self, q1, q2, op):
        for a, b in zip(_one_of_each(q1), _one_of_each(q2)):
            with pytest.raises(SignatureMismatchError):
                op(a, b)
        with pytest.raises(SignatureMismatchError):
            op(_one_of_each(q1)[2], _one_of_each(q2)[1])

    def test_equality_across_signatures_is_false(self, q1, q2):
        for a, b in zip(_one_of_each(q1), _one_of_each(q2)):
            assert a != b
            assert not a == b
        assert _one_of_each(q1)[2] != _one_of_each(q2)[1]
        assert q1.zero() != q2.zero()
        p = _one_of_each(q1)[0]
        assert p != LaxEntry.from_ncpoly(p)

    def test_lax_entry_constants_become_ratfuns(self, q1):
        e = _one_of_each(q1)[1]
        for c in (1, Fraction(1, 3), Poly([1, 2]), RatFun.z()):
            for total in (e + c, e - c, e * c, c + e, c - e, c * e):
                assert all(type(f) is RatFun for f in total.terms.values())
        assert (e + 1) - e == LaxEntry.one(q1)
        assert LaxEntry.one(q1) == 1

    def test_poly_operators_defer_to_foreign_operands(self, q1):
        e = _one_of_each(q1)[1]
        c = Poly([1, 2])
        assert c + e == e + c
        assert c - e == -(e - c)
        assert c * e == e * c
        with pytest.raises(TypeError):
            c + "z"

    def test_scale_by_one_shares_the_value(self, q1):
        for obj in _one_of_each(q1):
            assert obj.scale(1) is obj and obj.scale(Fraction(1)) is obj
            assert obj * 1 == obj and obj.scale(2) is not obj

    def test_diffop_plus_lax_entry_lands_at_d0(self, q1):
        e = _one_of_each(q1)[1]
        d = DiffOpEntry.partial(q1)
        total = d + e
        assert total.terms == {1: LaxEntry.one(q1), 0: e}
        assert e + d == total
        assert e - d == -(d - e)
        assert (d + 3).entry(0) == LaxEntry.scalar(q1, 3)

    def test_right_multiplication_by_a_function_uses_leibniz(self, q1):
        d = DiffOpEntry.partial(q1)
        z = RatFun.z()
        # d/dz . z = z . d/dz + 1, while the left product z . d/dz has no d^0 term
        assert d * z == DiffOpEntry.from_entry(LaxEntry.scalar(q1, z)) * d + 1
        assert z * d == DiffOpEntry(q1, {1: LaxEntry.scalar(q1, z)})

    def test_scale_and_maps_drop_zeros(self, q1):
        p, e, d = _one_of_each(q1)
        assert p.scale(0).is_zero() and e.scale(0).is_zero() and d.scale(0).is_zero()
        assert LaxEntry.from_ncpoly(p).derivative().is_zero()
        assert d.z_derivative() == DiffOpEntry.from_entry(e.derivative())
        assert e.eval_z(1) == p
        assert type(e.residue(0)) is NCPoly and e.residue(0) == p
        assert e.residue(1).is_zero()

    def test_no_instance_has_a_dict(self, q1):
        for obj in _one_of_each(q1):
            assert not hasattr(obj, "__dict__")
            with pytest.raises(AttributeError):
                obj.extra = 1
