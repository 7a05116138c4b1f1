"""Exact arithmetic in the spectral parameter z, and the coefficient objects
layered on it.

``Poly`` and ``RatFun`` are univariate polynomials / rational functions over
the rationals in canonical form (monic denominator, gcd removed).  ``LaxEntry``
is ``algebra.NCPoly`` over rational-function coefficients: one matrix entry of
a Lax matrix, whose z-operations (derivative, evaluation, residues) map the
coefficients.  ``DiffOpEntry`` is an ``algebra.SparseSum`` from powers of d/dz
to LaxEntry coefficients, multiplying by the exact Leibniz rule
``d/dz . f = f . d/dz + f'``.  All three share the sparse-sum arithmetic.

Pole locations are restricted to rational points; residues are computed by
exact local power-series division, never by numeric limits.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable

from .algebra import AlgebraSignature, NCPoly, SparseSum, _acc


class PoleEvaluationError(ValueError):
    """Raised when a rational function is evaluated at one of its poles."""

    def __init__(self, point: Fraction):
        self.point = point
        super().__init__(f"evaluation at pole z = {point}")


class Poly:
    """Dense univariate polynomial in z with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "Poly":
        return Poly([Fraction(c)])

    @staticmethod
    def z() -> "Poly":
        return Poly([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Poly([c * q for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.lead()
        dn = other.degree
        for k in range(len(rem) - 1, dn - 1, -1):
            c = rem[k] / dlead
            if not c:
                continue
            quo[k - dn] = c
            for j, b in enumerate(other.coeffs):
                rem[k - dn + j] -= c * b
        return Poly(quo), Poly(rem)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = 1 / self.lead()
        return Poly([c * inv for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([c * k for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, point) -> Fraction:
        point = Fraction(point)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * point + c
        return total

    def shift(self, c) -> "Poly":
        """The polynomial w -> p(w + c)."""
        c = Fraction(c)
        n = len(self.coeffs)
        out = [Fraction(0)] * n
        for j, pj in enumerate(self.coeffs):
            if not pj:
                continue
            power = Fraction(1)
            for k in range(j, -1, -1):
                out[k] += pj * comb(j, k) * power
                power *= c
        return Poly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mag = c if c > 0 else -c
            if k == 0:
                body = str(mag)
            else:
                zpow = "z" if k == 1 else f"z^{k}"
                body = zpow if mag == 1 else f"{mag}*{zpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    __str__ = render

    def __repr__(self) -> str:
        return f"<Poly {self.render()}>"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r.monic() if not r.is_zero() else r
    return a.monic() if not a.is_zero() else a


class RatFun:
    """Rational function of z in canonical form: monic denominator, gcd 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly([1])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly([1])
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, _ = num.divmod(g)
            den, _ = den.divmod(g)
        inv = 1 / den.lead()
        self.num = num * inv
        self.den = den * inv

    @staticmethod
    def const(c) -> "RatFun":
        return RatFun(Poly.const(c))

    @staticmethod
    def z() -> "RatFun":
        return RatFun(Poly.z())

    @staticmethod
    def one_over_z_minus(point) -> "RatFun":
        return RatFun(Poly([1]), Poly([-Fraction(point), 1]))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def is_constant(self) -> bool:
        return self.den.degree == 0 and self.num.degree <= 0

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.num(0)

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        return other / self

    def derivative(self) -> "RatFun":
        return RatFun(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, point) -> Fraction:
        point = Fraction(point)
        dval = self.den(point)
        if not dval:
            raise PoleEvaluationError(point)
        return self.num(point) / dval

    def principal_part(self, pole) -> list[Fraction]:
        """[c_0, ..., c_(m-1)]: c_j is the coefficient of (z-pole)^-(j+1), m the
        multiplicity of the pole (empty when ``pole`` is not a pole).

        One Taylor shift of numerator and denominator, then one local series
        division up to the pole's multiplicity.
        """
        pole = Fraction(pole)
        den = self.den.shift(pole).coeffs
        mult = next(i for i, c in enumerate(den) if c)
        num = self.num.shift(pole).coeffs
        den = den[mult:]
        series: list[Fraction] = []  # coefficients of (z-pole)^(k - mult)
        for k in range(mult):
            acc = num[k] if k < len(num) else Fraction(0)
            for j in range(max(0, k - len(den) + 1), k):
                acc -= series[j] * den[k - j]
            series.append(acc / den[0])
        return series[::-1]

    def residue(self, pole, order: int = 0) -> Fraction:
        """Coefficient of (z-pole)^(-1) in (z-pole)^order * self."""
        if order < 0:
            raise ValueError("residue order must be non-negative")
        part = self.principal_part(pole)
        return part[order] if order < len(part) else Fraction(0)

    def __eq__(self, other) -> bool:
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def render(self) -> str:
        if self.den.degree == 0:
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    __str__ = render

    def __repr__(self) -> str:
        return f"<RatFun {self.render()}>"


def _as_ratfun(value) -> RatFun | None:
    if isinstance(value, RatFun):
        return value
    if isinstance(value, (int, Fraction)):
        return RatFun.const(value)
    if isinstance(value, Poly):
        return RatFun(value)
    return None


class LaxEntry(NCPoly):
    """Noncommutative polynomial with RatFun coefficients: one Lax-matrix entry.

    The PBW product and the sparse-sum arithmetic are ``NCPoly``'s; the
    z-operations map the coefficients.
    """

    __slots__ = ()
    _scalars = (int, Fraction, RatFun, Poly)

    @staticmethod
    def _coeff(sig: AlgebraSignature, c) -> RatFun:
        return _as_ratfun(c)

    @staticmethod
    def from_ncpoly(p: NCPoly) -> "LaxEntry":
        return p.map(RatFun.const, LaxEntry)

    def derivative(self) -> "LaxEntry":
        return self.map(RatFun.derivative)

    def eval_z(self, point) -> NCPoly:
        """Substitute z = point in every coefficient (errors name the pole)."""
        return self.map(lambda f: f(point), NCPoly)

    def principal_part(self, pole) -> list[NCPoly]:
        """[C_0, C_1, ...]: C_j is the coefficient of (z-pole)^-(j+1), up to the
        pole's multiplicity in the entry (one series per coefficient)."""
        parts = [(word, f.principal_part(pole)) for word, f in self.terms.items()]
        mult = max((len(part) for _, part in parts), default=0)
        return [NCPoly.from_terms(self.sig, [(word, part[j]) for word, part in parts
                                             if j < len(part)])
                for j in range(mult)]

    def residue(self, pole, order: int = 0) -> NCPoly:
        """Coefficient of (z-pole)^(-1) in (z-pole)^order * self."""
        if order < 0:
            raise ValueError("residue order must be non-negative")
        part = self.principal_part(pole)
        return part[order] if order < len(part) else NCPoly.zero(self.sig)

    def z_coefficient(self, power: int) -> NCPoly:
        """Coefficient of z^power; entry must be polynomial in z."""
        if not all(f.is_polynomial() for f in self.terms.values()):
            raise ValueError("entry is not polynomial in z")
        return self.map(lambda f: f.num.coeffs[power] if power <= f.num.degree else 0,
                        NCPoly)

    @staticmethod
    def _constant(f: RatFun) -> Fraction | None:
        return f.as_constant() if f.is_constant() else None

    def render(self) -> str:
        if not self.terms:
            return "0"
        sym = "e" if self.sig.is_quantum else "x"
        parts = []
        for word, f in self.sorted_terms():
            factors = [f"{sym}[{a},{b}]@{i}" for (i, a, b) in word]
            body = " * ".join([f"({f.render()})"] + factors) if factors else f"({f.render()})"
            parts.append(body if not parts else f"+ {body}")
        return " ".join(parts)


class DiffOpEntry(SparseSum):
    """Polynomial in d/dz with LaxEntry coefficients: ``terms`` maps each power
    of d/dz to its coefficient, written to the left of the power.

    Multiplication implements the exact commutation  d/dz . f = f . d/dz + f',
    so products of differential-operator matrices expand correctly.  Constants
    and LaxEntry values are accepted as operands at d/dz power 0.
    """

    __slots__ = ()
    _scalars = (int, Fraction, RatFun, Poly, LaxEntry)
    _unit = 0

    @staticmethod
    def _coeff(sig: AlgebraSignature, c) -> LaxEntry:
        return LaxEntry.zero(sig) + c

    @staticmethod
    def partial(sig: AlgebraSignature, power: int = 1) -> "DiffOpEntry":
        return DiffOpEntry(sig, {power: LaxEntry.one(sig)})

    @staticmethod
    def from_entry(entry: LaxEntry) -> "DiffOpEntry":
        return DiffOpEntry.scalar(entry.sig, entry)

    @property
    def order(self) -> int:
        return max(self.terms) if self.terms else -1

    def entry(self, power: int) -> LaxEntry:
        return self.terms.get(power, LaxEntry.zero(self.sig))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[int, LaxEntry] = {}
        for m, a in self.terms.items():
            for n, b in other.terms.items():
                db = b
                for t in range(m + 1):
                    _acc(terms, m + n - t, (a * db).scale(comb(m, t)))
                    if t < m:
                        db = db.derivative()
        return DiffOpEntry(self.sig, terms)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def z_derivative(self) -> "DiffOpEntry":
        """Coefficient-wise d/dz (the commutator [d/dz, A])."""
        return self.map(LaxEntry.derivative)

    def eval_z(self, point) -> list[NCPoly]:
        """Evaluated coefficients listed by d/dz power, constant term first."""
        return [self.entry(k).eval_z(point) for k in range(self.order + 1)]

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            head = "" if k == 0 else ("d" if k == 1 else f"d^{k}")
            body = self.terms[k].render()
            parts.append(f"({body}){head}" if head else f"({body})")
        return " + ".join(parts)

