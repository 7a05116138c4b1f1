import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaudin.algebra import AlgebraSignature, Mode, NCPoly, SignatureMismatchError, SparseSum
from gaudin.ratfun import (
    DiffOpEntry,
    LaxEntry,
    PoleEvaluationError,
    Poly,
    RatFun,
    poly_gcd,
)


Z = RatFun.z()


def pole(p, k=1):
    """(z - p)^-k as a product of simple poles."""
    f = RatFun.const(1)
    for _ in range(k):
        f = f * RatFun.one_over_z_minus(p)
    return f


def zpoly(*coeffs):
    """sum_k coeffs[k] z^k."""
    f, power = RatFun.const(0), RatFun.const(1)
    for c in coeffs:
        f, power = f + power * c, power * Z
    return f


class TestPoly:
    def test_divmod_roundtrip(self):
        a = Poly([1, 0, 2, 3])
        b = Poly([-1, 1])
        q, r = a.divmod(b)
        assert q * b + r == a

    def test_derivative_and_eval(self):
        # polynomials in z differentiate and evaluate term by term
        p = zpoly(1, 2, 3)
        assert p.derivative() == zpoly(2, 6)
        assert p(2) == Fraction(17)


class TestRatFunArith:
    def test_partial_fraction_sum(self):
        f = RatFun.one_over_z_minus(1) + RatFun.one_over_z_minus(-1)
        assert str(f) == "(2*z)/(z^2 - 1)"
        assert f == pole(1) + pole(-1)

    def test_multiply_by_zero(self):
        f = Z + pole(-3) * 5
        assert (f * RatFun.const(0)).is_zero()
        assert (f * 0).is_zero() and (0 * f).is_zero()

    def test_gcd_reduction(self):
        # common factors cancel in the product, with no gcd taken
        assert zpoly(-1, 0, 1) * pole(1) == zpoly(1, 1)         # (z^2-1)/(z-1)
        assert (Z - 1) * pole(1, 2) == pole(1)
        assert (Z - 2) * (Z - 3) * pole(2) * pole(3) == RatFun.const(1)

    @settings(max_examples=60, deadline=None)
    @given(*[st.lists(st.integers(-5, 5), min_size=1, max_size=4) for _ in range(3)],
           st.lists(st.sampled_from([0, 1, -2, Fraction(1, 2)]), min_size=3, max_size=3))
    def test_field_laws(self, n1, n2, n3, poles):
        # the laws that need no division: partial fractions form a ring
        f, g, h = (zpoly(*n[:2]) + sum((pole(p, k + 1) * c for k, c in enumerate(n[:3])),
                                       RatFun.const(0))
                   for n, p in zip((n1, n2, n3), poles))
        assert f + g == g + f
        assert f * g == g * f
        assert (f - f).is_zero()
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()

    def test_canonical_form_random(self):
        rng = random.Random(5)
        for _ in range(100):
            f = _random_ratfun(rng)
            assert (f - f).is_zero()
            assert all(c for c in f.terms.values())
            num, den = f.num_den()
            assert den.lead() == 1
            if not f.is_zero():
                assert poly_gcd(num, den) == Poly([1])
            # multiplying by a pole's linear factor and back is the identity
            for p in (0, Fraction(1, 2), 3):
                assert f * (Z - p) * pole(p) == f


class TestResidue:
    def test_simple_pole(self):
        assert RatFun.one_over_z_minus(2).residue(2, 0) == 1

    def test_double_pole_first_order(self):
        f = pole(2, 2)
        assert f.residue(2, 1) == 1
        assert f.residue(2, 0) == 0

    def test_no_simple_pole_part(self):
        f = pole(0, 2)
        assert f.residue(0, 0) == 0
        assert f.residue(0, 1) == 1

    def test_regular_point(self):
        assert zpoly(1, 1).residue(3, 0) == 0

    def test_matches_partial_fractions(self):
        # f = 3/(z-1) + 5/(z-1)^2 + 7/(z+2), written over one denominator
        f = zpoly(11, -6, 10) * pole(1, 2) * pole(-2)
        assert f == pole(1) * 3 + pole(1, 2) * 5 + pole(-2) * 7
        assert f.residue(1, 0) == 3
        assert f.residue(1, 1) == 5
        assert f.residue(-2, 0) == 7


RANDOM_POLES = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2))


def _random_terms(rng, poles=None, degree=None):
    """(key, coefficient) pairs, a key k standing for z^k and (p, k) for
    (z-p)^-k: poles of order up to 3 at ``poles`` (default: some of 0, 1,
    -2, 1/2) and a polynomial part of degree ``degree`` (default: up to 2)."""
    if poles is None:
        poles = rng.sample(RANDOM_POLES, rng.randint(0, 3))
    if degree is None:
        degree = rng.randint(-1, 2)
    terms = [(k, rng.randint(-4, 4)) for k in range(degree + 1)]
    for p in poles:
        terms += [((p, k), rng.randint(-4, 4)) for k in range(1, rng.randint(1, 3) + 1)]
    return terms


def _random_ratfun(rng):
    """A random function built from the constructors (see ``_random_terms``)."""
    return sum((zpoly(*[0] * key, c) if type(key) is int else pole(*key) * c
                for key, c in _random_terms(rng)), RatFun.const(0))


def _random_pair(rng, z, **shape):
    """The same random function as a RatFun and as a sympy expression."""
    import sympy
    f, expr = RatFun.const(0), sympy.Integer(0)
    for key, c in _random_terms(rng, **shape):
        if type(key) is int:
            f, expr = f + zpoly(*[0] * key, c), expr + c * z ** key
        else:
            p, k = key
            sp = sympy.Rational(p.numerator, p.denominator)
            f, expr = f + pole(p, k) * c, expr + c / (z - sp) ** k
    return f, expr


class TestPrincipalPart:
    POLES = (Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7))

    def test_matches_residues_and_rebuilds_the_proper_part(self):
        rng = random.Random(31)
        for _ in range(60):
            f = _random_ratfun(rng) * _random_ratfun(rng)
            rest = f
            for p in self.POLES:
                part = f.principal_part(p)
                assert not part or part[-1] != 0
                assert part == [f.residue(p, j) for j in range(len(part))]
                assert f.residue(p, len(part)) == 0
                for j, c in enumerate(part):
                    rest = rest - pole(p, j + 1) * c
            # what is left has no pole at any of the listed points
            assert rest.is_polynomial()

    def test_matches_sympy_taylor_coefficients(self):
        # with m the multiplicity sympy finds for the pole, c_j is the
        # (m-1-j)-th Taylor coefficient of (z - pole)^m f at the pole
        sympy = pytest.importorskip("sympy")
        z = sympy.symbols("z")
        rng = random.Random(5)
        for _ in range(20):
            f, expr = _random_pair(rng, z)
            g = sympy.cancel(expr)
            roots = sympy.roots(sympy.Poly(sympy.denom(g), z))
            for p in self.POLES:
                sp = sympy.Rational(p.numerator, p.denominator)
                m = roots.get(sp, 0)
                h = sympy.cancel(g * (z - sp) ** m)
                want = [sympy.diff(h, z, m - 1 - j).subs(z, sp) / sympy.factorial(m - 1 - j)
                        for j in range(m)]
                got = f.principal_part(p)
                assert [sympy.Rational(c.numerator, c.denominator) for c in got] == want

    def test_lax_entry_reads_one_series_per_coefficient(self):
        sig = AlgebraSignature(2, 1, Mode.QUANTUM)
        e = LaxEntry.from_terms(sig, [
            (((1, 1, 1),), pole(0, 2)),                       # 1/z^2
            (((1, 1, 2),), (Z + 3) * pole(0)),                # (z + 3)/z
            (((1, 2, 1),), RatFun.one_over_z_minus(2)),
        ])
        part = e.principal_part(0)
        assert part == [sig.gen(1, 1, 2) * 3, sig.gen(1, 1, 1)]
        assert part == [e.residue(0, j) for j in range(2)]
        assert e.residue(0, 2).is_zero()
        assert e.principal_part(2) == [sig.gen(1, 2, 1)]
        assert e.principal_part(5) == []


class TestSympyOracle:
    """Products, derivatives, values and the rendered num/den against sympy's
    ``apart`` and ``cancel``, on random inputs built independently on both
    sides (principal parts: ``TestPrincipalPart``)."""

    @pytest.fixture
    def z(self):
        return pytest.importorskip("sympy").symbols("z")

    @staticmethod
    def _expr(f, z):
        import sympy
        out = sympy.Integer(0)
        for key, c in f.terms.items():
            c = sympy.Rational(c.numerator, c.denominator)
            if type(key) is int:
                out += c * z ** key
            else:
                assert key[1] >= 1
                out += c / (z - sympy.Rational(key[0].numerator, key[0].denominator)) ** key[1]
        return out

    @pytest.mark.parametrize("shape", ["same pole", "two poles", "polynomial by pole",
                                       "general"])
    def test_products(self, z, shape):
        import sympy
        rng = random.Random(shape)
        for _ in range(15):
            p, q = rng.sample(RANDOM_POLES, 2)
            left, right = {
                "same pole": ({"poles": [p], "degree": -1}, {"poles": [p], "degree": -1}),
                "two poles": ({"poles": [p], "degree": -1}, {"poles": [q], "degree": -1}),
                "polynomial by pole": ({"poles": [], "degree": 2}, {"poles": [p], "degree": -1}),
                "general": ({}, {}),
            }[shape]
            f, F = _random_pair(rng, z, **left)
            g, G = _random_pair(rng, z, **right)
            assert sympy.cancel(self._expr(f * g, z) - sympy.apart(F * G, z)) == 0

    def test_derivatives_and_values(self, z):
        import sympy
        rng = random.Random(11)
        for _ in range(30):
            f, F = _random_pair(rng, z)
            assert sympy.cancel(self._expr(f.derivative(), z) - sympy.diff(F, z)) == 0
            den = sympy.denom(sympy.cancel(F))
            for x in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(5, 3)):
                sx = sympy.Rational(x.numerator, x.denominator)
                if den.subs(z, sx) == 0:
                    with pytest.raises(PoleEvaluationError):
                        f(x)
                else:
                    assert f(x) == F.subs(z, sx)

    def test_rendered_num_den(self, z):
        import sympy
        rng = random.Random(13)
        for _ in range(30):
            f, F = _random_pair(rng, z)
            num, den = sympy.fraction(sympy.cancel(sympy.together(F)))
            lead = sympy.Poly(den, z).LC()
            text = str(f)
            if text.startswith("(") and ")/(" in text:
                got_num, got_den = text[1:-1].split(")/(")
            else:
                got_num, got_den = text, "1"
            for got, want in ((got_num, num / lead), (got_den, den / lead)):
                got = sympy.sympify(got.replace("^", "**"), locals={"z": z})
                assert sympy.Poly(got, z) == sympy.Poly(want, z)


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
        assert prod.entry(0) == LaxEntry.scalar(scalar_sig, pole(0, 2) * -1)

    def test_square_of_partial_minus_one_over_z(self, scalar_sig):
        d = DiffOpEntry.partial(scalar_sig)
        f = DiffOpEntry.from_entry(LaxEntry.scalar(scalar_sig, RatFun.one_over_z_minus(0)))
        sq = (d - f) * (d - f)
        assert sq.entry(2) == LaxEntry.one(scalar_sig)
        assert sq.entry(1) == LaxEntry.scalar(scalar_sig, pole(0) * -2)
        assert sq.entry(0) == LaxEntry.scalar(scalar_sig, pole(0, 2) * 2)

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
            fr = _random_ratfun(rng)
            f = DiffOpEntry.from_entry(LaxEntry.scalar(scalar_sig, fr))
            comm = d * f - f * d
            assert comm == DiffOpEntry.from_entry(
                LaxEntry.scalar(scalar_sig, fr.derivative()))


def _random_diffop(rng, sig):
    coeffs = {}
    for power in range(rng.randint(1, 3)):
        den_choice = rng.choice([RatFun.const(1), pole(0), pole(0, 2), pole(1)])
        f = zpoly(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]) * den_choice
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


def _subtraction_operands(sig):
    """Per container, values whose differences cancel some keys (at every
    nesting level) and keep others."""
    f = Z * 2 + pole(0) + 3
    g = Z * 2 - pole(0) * Fraction(1, 2)
    x, y = sig.gen(1, 1, 2), sig.gen(1, 2, 1)
    p, q = x * y + x + 1, x * y - y * Fraction(1, 3)
    e = LaxEntry.from_ncpoly(p) * f
    h = LaxEntry.from_ncpoly(p) * g + LaxEntry.from_ncpoly(q)
    d = DiffOpEntry.partial(sig)
    return {
        "RatFun": [f, g],
        "NCPoly": [p, q],
        "LaxEntry": [e, h],
        "DiffOpEntry": [d * e + h, d * h + e, DiffOpEntry.from_entry(h) + d * e],
    }


def _zero_free(obj) -> bool:
    """No coefficient, at any nesting level, is zero."""
    return all(c and (not isinstance(c, SparseSum) or _zero_free(c))
               for c in obj.terms.values())


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
        for c in (1, Fraction(1, 3), pole(1, 2), RatFun.z()):
            for total in (e + c, e - c, e * c, c + e, c - e, c * e):
                assert all(type(f) is RatFun for f in total.terms.values())
        assert (e + 1) - e == LaxEntry.one(q1)
        assert LaxEntry.one(q1) == 1
        assert RatFun.const(1) == LaxEntry.one(q1) == RatFun.const(1)

    def test_poly_operators_defer_to_foreign_operands(self, q1):
        # Poly is the dense render-time type: it defers to a LaxEntry, which
        # refuses it, while RatFun operands reach the LaxEntry operators
        e = _one_of_each(q1)[1]
        c = Poly([1, 2])
        assert c.__add__(e) is NotImplemented and c.__mul__(e) is NotImplemented
        for op in OPS:
            with pytest.raises(TypeError):
                op(c, e)
        with pytest.raises(TypeError):
            c + "z"
        f = zpoly(1, 2)
        assert f + e == e + f
        assert f - e == -(e - f)
        assert f * e == e * f
        with pytest.raises(TypeError):
            f + "z"

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

    @pytest.mark.parametrize("kind", ["RatFun", "NCPoly", "LaxEntry", "DiffOpEntry"])
    def test_subtraction_is_adding_the_negative(self, q1, kind):
        ops = _subtraction_operands(q1)[kind]
        pairs = [(a, b) for a in ops for b in ops]
        for c in (3, Fraction(-2, 5), Z * 2 - pole(1)):
            if isinstance(c, type(ops[0])._scalars):
                pairs += [(a, c) for a in ops] + [(c, a) for a in ops]
        for a, b in pairs:
            before = copy.deepcopy((a, b))
            diff = a - b
            assert type(diff) is type(ops[0])
            assert diff == a + (-b)
            assert _zero_free(diff)
            assert (a, b) == before
        for a in ops:
            assert (a - a).terms == {}

    def test_no_instance_has_a_dict(self, q1):
        for obj in _one_of_each(q1):
            assert not hasattr(obj, "__dict__")
            with pytest.raises(AttributeError):
                obj.extra = 1



def _ratfuns(obj):
    """The RatFun coefficients inside a RatFun, LaxEntry or DiffOpEntry."""
    if isinstance(obj, RatFun):
        yield obj
    else:
        for c in obj.terms.values():
            yield from _ratfuns(c)


def _points(obj):
    return [key[0] for f in _ratfuns(obj) for key in f.terms if type(key) is tuple]


def _coeffs(obj):
    return [c for f in _ratfuns(obj) for c in f.terms.values()]


class TestIntegerZLayer:
    """Ints inside the z-layer where a value is integral, Fractions at every
    value that leaves it, and no float anywhere."""

    @staticmethod
    def _workload(rng, poles):
        """Random functions over ``poles`` with their products, derivatives
        and scalings."""
        out = []
        for _ in range(20):
            f = sum((zpoly(*[0] * key, c) if type(key) is int else pole(*key) * c
                     for key, c in _random_terms(rng, poles=rng.sample(poles, 2))),
                    RatFun.const(0))
            g = RatFun.one_over_z_minus(rng.choice(poles)) * rng.randint(1, 3) + Z
            out += [f, f * g, (f * g).derivative(), f.scale(3), f.scale(Fraction(4, 2))]
        return out

    @staticmethod
    def _col_det_terms(poles):
        """d/dz - L for a rank-2 Gaudin matrix: two entry products, a
        commutator and the column determinant."""
        from gaudin.lax import gaudin_lax
        from gaudin.manin import col_det, partial_minus

        M = partial_minus(gaudin_lax(AlgebraSignature(2, 2, Mode.QUANTUM), poles))
        (a, b), (c, d) = M.entries
        return [a * d, b * c - c * b, col_det(M)]

    def test_no_coefficient_or_pole_is_a_float(self):
        rng = random.Random(43)
        values = self._workload(rng, [0, 1, 3, Fraction(1, 2), Fraction(-3, 4)])
        values += self._col_det_terms([Fraction(1, 2), 5]) + self._col_det_terms([0, 3])
        for value in values:
            assert all(type(x) in (int, Fraction) for x in _coeffs(value) + _points(value))

    def test_integral_poles_are_int_keys(self):
        rng = random.Random(41)
        for value in self._workload(rng, [0, 1, -2, Fraction(3)]) + self._col_det_terms([0, 3]):
            assert all(type(p) is int for p in _points(value))

    def test_unit_spaced_poles_stay_on_ints(self):
        # (p - q)^-e is integral when |p - q| = 1, so nothing leaves the ints
        rng = random.Random(45)
        for value in self._workload(rng, [0, 1]) + self._col_det_terms([0, 1]):
            assert _coeffs(value) and all(type(c) is int for c in _coeffs(value))

    def test_values_leaving_the_layer_are_fractions(self):
        rng = random.Random(47)
        sig = AlgebraSignature(1, 1, Mode.QUANTUM)
        for f in self._workload(rng, [0, 1, Fraction(1, 2)]):
            for p in (0, 1, Fraction(1, 2), 7):
                assert all(type(c) is Fraction for c in f.principal_part(p))
                assert all(type(f.residue(p, j)) is Fraction for j in range(4))
            assert type(f(Fraction(1, 3))) is Fraction and type(f(9)) is Fraction
            e = LaxEntry.scalar(sig, f) + LaxEntry.from_ncpoly(sig.gen(1, 1, 1)) * f
            for value in (e.eval_z(9), e.residue(0), *e.principal_part(1)):
                assert all(type(c) is Fraction for c in value.terms.values())
        for f in (zpoly(3, 0, -2), zpoly(1, 2) * Fraction(1, 2) + 4):
            e = LaxEntry.scalar(sig, f) + LaxEntry.from_ncpoly(sig.gen(1, 1, 1)) * f
            coeffs = [c for k in range(3) for c in e.z_coefficient(k).terms.values()]
            assert coeffs and all(type(c) is Fraction for c in coeffs)

    def test_integral_pole_renders_like_its_fraction(self):
        f, g = RatFun.one_over_z_minus(2), RatFun.one_over_z_minus(Fraction(2))
        assert f == g and hash(next(iter(f.terms))) == hash(next(iter(g.terms)))
        assert str(f) == str(g) == "(1)/(z - 2)"
        assert f.terms == g.terms == {(2, 1): 1}
        assert type(next(iter(g.terms))[0]) is int
        assert type(next(iter(RatFun.one_over_z_minus(Fraction(1, 2)).terms))[0]) is Fraction
        assert [type(c) for c in (RatFun.const(Fraction(6, 3)) * Z).terms.values()] == [int]
        # z/(z - 1/2) = 1 + (1/2)/(z - 1/2): the integral part of a product
        # over a non-integral pole is an int too
        assert (Z * pole(Fraction(1, 2))).terms == {0: 1, (Fraction(1, 2), 1): Fraction(1, 2)}
        assert type((Z * pole(Fraction(1, 2))).terms[0]) is int

    def test_proportionality_of_int_coefficients_is_a_fraction(self):
        sig = AlgebraSignature(1, 1, Mode.CLASSICAL)
        x = sig.gen(1, 1, 1)
        e1, e2 = LaxEntry.from_ncpoly(x), LaxEntry.from_ncpoly(x) * 2
        assert [f.terms for f in (*e1.terms.values(), *e2.terms.values())] == [{0: 1}, {0: 2}]
        ratio = e1.proportionality(e2)
        assert type(ratio) is Fraction and ratio == Fraction(1, 2)
        ratio = (e1 * RatFun.one_over_z_minus(3)).proportionality(
            e2 * RatFun.one_over_z_minus(3))
        assert type(ratio) is Fraction and ratio == Fraction(1, 2)
