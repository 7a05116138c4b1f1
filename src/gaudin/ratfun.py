"""Exact arithmetic in the spectral parameter z, and the coefficient objects
layered on it.

Every z-dependent object of the package has poles only at given rational
points, so ``RatFun`` stores a rational function in partial-fraction form: a
``SparseSum`` whose key ``k`` (an int >= 0) stands for z^k and whose key
``(p, k)`` (k >= 1) stands for (z-p)^-k.  That form is canonical, so sums,
equality and scaling are the sparse-sum ones; a product expands through a
cached table of basis products, and derivatives, values and principal parts
act term by term.  No arithmetic path divides or shifts a polynomial or takes
a gcd.

Inside this layer a rational number is a Python ``int`` when it is integral
and a ``Fraction`` otherwise: constants, pole points and the basis-product
table enter through ``_num``, so integral poles make int keys and integral
coefficients stay ints.  A ``Fraction`` appears only where a value is not
integral, such as the 1/(p-q) that two distinct poles produce; sums and
products through one may leave an integral ``Fraction``, which equals and
hashes like the int, so the partial-fraction form stays canonical.  Every
value that leaves the layer (``RatFun.__call__``, ``residue``,
``principal_part``, ``LaxEntry.z_coefficient`` and ``eval_z``) is a
``Fraction``, and every division goes through ``Fraction``, so no float is
ever produced.

``Poly`` is the dense polynomial that ``render`` multiplies out at the edge;
``poly_gcd`` is kept as a callable for code outside the arithmetic path.

``LaxEntry`` is ``algebra.NCPoly`` over RatFun coefficients: one matrix entry
of a Lax matrix, whose z-operations (derivative, evaluation, residues) map the
coefficients.  ``DiffOpEntry`` is an ``algebra.SparseSum`` from powers of d/dz
to LaxEntry coefficients, multiplying by the exact Leibniz rule
``d/dz . f = f . d/dz + f'``.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import cache
from math import comb

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

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
    """Monic gcd by Euclid's algorithm.  No arithmetic path of the package
    takes one: ``RatFun`` is canonical without it."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r.monic() if not r.is_zero() else r
    return a.monic() if not a.is_zero() else a


def _num(c) -> int | Fraction:
    """The rational c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


@cache
def _basis_product(s, t) -> tuple[tuple[object, int | Fraction], ...]:
    """The product of the basis functions keyed s and t, as (key, coefficient)
    pairs of the partial-fraction basis; a coefficient is an int when it is
    integral."""
    if type(s) is tuple and type(t) is int:
        s, t = t, s
    if type(t) is int:                                  # z^s z^t
        return ((s + t, 1),)
    b, n = t
    if type(s) is int:                                  # z^s (z-b)^-n
        # z^s = sum_i C(s,i) b^(s-i) (z-b)^i; powers i >= n leave the
        # polynomial (z-b)^(i-n) = sum_l C(i-n,l) (-b)^(i-n-l) z^l
        terms: dict = {}
        for i in range(s + 1):
            c = comb(s, i) * b ** (s - i)
            if i < n:
                _acc(terms, (b, n - i), c)
            else:
                for l in range(i - n + 1):
                    _acc(terms, l, c * comb(i - n, l) * (-b) ** (i - n - l))
        return tuple((key, _num(c)) for key, c in terms.items())
    a, m = s
    if a == b:                                          # (z-a)^-m (z-a)^-n
        return (((a, m + n), 1),)
    # (z-a)^-m (z-b)^-n: the coefficient of (z-p)^-k, p one pole of order
    # mp and q the other of order mq, is
    # (-1)^(mp-k) C(mp+mq-k-1, mp-k) (p-q)^-(mp+mq-k); there is no polynomial part
    out = []
    for p, mp, q, mq in ((a, m, b, n), (b, n, a, m)):
        for k in range(1, mp + 1):
            c = (-1) ** (mp - k) * comb(mp + mq - k - 1, mp - k)
            out.append(((p, k), _num(Fraction(c, (p - q) ** (mp + mq - k)))))
    return tuple(out)


class RatFun(SparseSum):
    """Rational function of z with rational poles, in partial-fraction form:
    ``terms`` maps k to the coefficient of z^k and (p, k) to that of
    (z-p)^-k.  Coefficients and pole points are ints or Fractions (see the
    module docstring); the values returned by ``__call__``, ``residue`` and
    ``principal_part`` are Fractions.  Sums, negation, equality, ``scale``
    and ``map`` are the ``SparseSum`` ones over no signature (``sig`` is
    None)."""

    __slots__ = ()
    _scalars = (int, Fraction)
    _unit = 0

    @staticmethod
    def _coeff(sig: None, c) -> int | Fraction:
        return _num(c)

    @staticmethod
    def const(c) -> "RatFun":
        return RatFun.scalar(None, c)

    @staticmethod
    def z() -> "RatFun":
        return RatFun(None, {1: 1})

    @staticmethod
    def one_over_z_minus(point) -> "RatFun":
        return RatFun(None, {(_num(point), 1): 1})

    def is_polynomial(self) -> bool:
        return all(type(key) is int for key in self.terms)

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict = {}
        for s, a in self.terms.items():
            for t, b in other.terms.items():
                ab = a * b
                for key, c in _basis_product(s, t):
                    _acc(terms, key, ab * c)
        return RatFun(None, terms)

    __rmul__ = __mul__

    def derivative(self) -> "RatFun":
        terms = {}
        for key, c in self.terms.items():
            if type(key) is int:
                if key:
                    terms[key - 1] = c * key
            else:
                p, k = key
                terms[(p, k + 1)] = -k * c
        return RatFun(None, terms)

    def __call__(self, point) -> Fraction:
        x = Fraction(point)
        total = Fraction(0)
        for key, c in self.terms.items():
            if type(key) is int:
                total += c * x ** key
            elif x == key[0]:
                raise PoleEvaluationError(x)
            else:
                total += c / (x - key[0]) ** key[1]
        return total

    def principal_part(self, pole) -> list[Fraction]:
        """[c_0, ..., c_(m-1)]: c_j is the coefficient of (z-pole)^-(j+1), m the
        multiplicity of the pole (empty when ``pole`` is not a pole)."""
        pole = _num(pole)
        mult = max((key[1] for key in self.terms
                    if type(key) is tuple and key[0] == pole), default=0)
        return [Fraction(self.terms.get((pole, j), 0)) for j in range(1, mult + 1)]

    def residue(self, pole, order: int = 0) -> Fraction:
        """Coefficient of (z-pole)^(-1) in (z-pole)^order * self."""
        if order < 0:
            raise ValueError("residue order must be non-negative")
        return Fraction(self.terms.get((_num(pole), order + 1), 0))

    def num_den(self) -> tuple[Poly, Poly]:
        """(num, den) with self = num/den and den = prod (z-p)^m_p monic.  The
        top coefficient at each pole is nonzero, so the two are coprime."""
        orders: dict = {}
        for key in self.terms:
            if type(key) is tuple:
                orders[key[0]] = max(orders.get(key[0], 0), key[1])

        def den_without(p=None, k=0) -> Poly:
            out = Poly([1])
            for q, m in orders.items():
                for _ in range(m - k if q == p else m):
                    out = out * Poly([-q, 1])
            return out

        den = den_without()
        top = max((key for key in self.terms if type(key) is int), default=-1)
        num = Poly([self.terms.get(k, 0) for k in range(top + 1)]) * den
        for key, c in self.terms.items():
            if type(key) is tuple:
                num = num + den_without(*key) * c
        return num, den

    def render(self) -> str:
        num, den = self.num_den()
        if den.degree == 0:
            return num.render()
        return f"({num.render()})/({den.render()})"


class LaxEntry(NCPoly):
    """Noncommutative polynomial with RatFun coefficients: one Lax-matrix entry.

    The PBW product and the sparse-sum arithmetic are ``NCPoly``'s; the
    z-operations map the coefficients.
    """

    __slots__ = ()
    _scalars = (int, Fraction, RatFun)

    @staticmethod
    def _coeff(sig: AlgebraSignature, c) -> RatFun:
        return c if isinstance(c, RatFun) else RatFun.const(c)

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
        pole's multiplicity in the entry."""
        parts = [(word, f.principal_part(pole)) for word, f in self.terms.items()]
        mult = max((len(part) for _, part in parts), default=0)
        return [NCPoly.from_terms(self.sig, [(word, part[j]) for word, part in parts
                                             if j < len(part)])
                for j in range(mult)]

    def residue(self, pole, order: int = 0) -> NCPoly:
        """Coefficient of (z-pole)^(-1) in (z-pole)^order * self."""
        return self.map(lambda f: f.residue(pole, order), NCPoly)

    def z_coefficient(self, power: int) -> NCPoly:
        """Coefficient of z^power; entry must be polynomial in z."""
        if not all(f.is_polynomial() for f in self.terms.values()):
            raise ValueError("entry is not polynomial in z")
        return self.map(lambda f: Fraction(f.terms.get(power, 0)), NCPoly)

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
    _scalars = (int, Fraction, RatFun, LaxEntry)
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

