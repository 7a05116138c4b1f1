"""Exact kernel for the site-wise gl(r) algebras.

Both the quantum algebra U(gl_r)^{tensor N} and its classical counterpart,
the symmetric algebra carrying the product Lie-Poisson structure, share one
sparse representation: a rational linear combination of PBW-ordered words in
the matrix-unit generators.  A generator is the triple ``(site, row, col)``
standing for e[row,col] acting at the given tensor site; words are kept
non-decreasing in the lexicographic order on these triples, which is the PBW
straightening order (different-site letters sort by site, so cross-site
products never need correction terms).

Quantum products and commutators are therefore computed site by site: a word
splits into per-site blocks, each site's letters multiply on their own, and a
commutator of two words telescopes over the sites where both hold letters
(term pairs sharing no site are skipped, since they commute).  Only
single-site words are ever rewritten, so the one straightening cache,
``_STRAIGHTEN``, holds single-site words only, and its size is set by the
rank and degree, not by the number of sites.  A product whose words are
already in order is concatenated without consulting it, a one-letter word
whose site holds no letter of the right word that sorts before it is
inserted where it sorts, and a constant left factor scales the right one.  The commutator also
memoizes, per pair of single-site words, the two local products and their
difference (``_LOCAL_PAIRS``).

``SparseSum`` is the one sparse container of the package: a zero-free map from
keys to coefficients with addition, negation, equality, scaling and
coefficient maps written once.  ``NCPoly`` adds the PBW product over
``Fraction`` coefficients; ``ratfun.RatFun`` keys rationals by the
partial-fraction basis in z, ``ratfun.LaxEntry`` is the PBW product over
RatFun coefficients, and ``ratfun.DiffOpEntry`` keys LaxEntry coefficients by
powers of d/dz.

Coefficients are exact ``fractions.Fraction`` values at the API; no float is
produced anywhere.  Inside the z-layer (``ratfun``) a coefficient or pole is
kept as a Python ``int`` where it is integral and every value leaving it is a
``Fraction`` again, so ``NCPoly`` coefficients are always Fractions.  The two
bracket engines (``commutator`` and ``Packing.bracket``) scale each operand
once to integer numerators over one common denominator
(``linalg.integer_form``), run their loops on Python ints and divide by the
product of the denominators at the end, so a bracket builds one ``Fraction``
per output term.  A letter table arrives in the same form, one denominator
and integer rules.  An exact zero is the only accepted "commutes" verdict
anywhere downstream.

A classical word is a packed monomial (``Packing``): one int holding its
exponent vector, a field per letter in ``sig.letters()`` order, all fields
of one width fixed per packing.  While no exponent exceeds what the width
holds, multiplying monomials is adding ints and never carries between
fields.  ``Packing.pack`` turns an operand into its packed numerators
(``PackedPoly``, whose product is that addition) and its gradient, which
maps a letter g to {packed dp/dg term: numerator}; it is the package's one
classical gradient, which ``gluing.rank_completeness_check`` evaluates at
points.  ``Packing.word`` decodes a packed monomial, visiting only its
nonzero fields, and ``Packing.mask`` tests one for a set of letters with
one ``&``.  ``Packing.bracket`` is the one classical bracket engine:
for each letter h of q it forms X_h = sum_g {g, h} dp/dg once, drops its
zeros and multiplies it by dq/dh, and it decodes only the nonzero output
terms back to sorted words.  Without a letter table it reads the
Lie-Poisson rule from ``_letter_bracket``, the rule's one encoding, which
straightening shares; a mask of letters drops the X_h terms holding one,
which is how ``manin.commutation_matrix`` brackets on its diagonal slice.
``poisson_bracket`` packs its two operands at the width that
deg p + deg q - 1 needs; ``manin.commutation_matrix`` packs each input and
centre letter once at one width for the whole certificate, and
``lax.spectral_invariants`` packs formal z-variables beside the letters.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from enum import Enum
from fractions import Fraction
from operator import index

from .linalg import integer_form

Letter = tuple[int, int, int]
Word = tuple[Letter, ...]
# A classical bracket's values on coordinate pairs over one denominator d:
# (d, (g, h) -> [(letter, integer numerator)]), {g, h} = sum numerator/d * letter.
# Certificates take antisymmetric tables only: {h, g} = -{g, h}, {g, g} = 0.
LetterTable = tuple[int, Mapping[tuple[Letter, Letter], Sequence[tuple[Letter, int]]]]


def antisymmetry_residuals(table: LetterTable) -> Iterator[tuple[Letter, Letter, dict]]:
    """(x, y, numerators of d({x, y} + {y, x})) for each letter pair x <= y
    on which the table fails antisymmetry, in sorted order; for x = y the
    residual is 2{x, x}.  Only pairs the table lists can fail."""
    rules = table[1]
    for x, y in sorted({tuple(sorted(pair)) for pair in rules}):
        res: dict[Letter, int] = {}
        for g, c in (*rules.get((x, y), ()), *rules.get((y, x), ())):
            res[g] = res.get(g, 0) + c
        res = {g: c for g, c in res.items() if c}
        if res:
            yield x, y, res


class Mode(Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"


class SignatureMismatchError(ValueError):
    """Two operands live over different algebra signatures."""


class ModeError(ValueError):
    """Operation not defined for the signature's mode."""


class AlgebraSignature(namedtuple("AlgebraSignature", "rank sites mode")):
    """Shape of the ambient algebra: one copy of gl(rank) per tensor site.

    A tuple, so equality and hashing stay C-level on the kernel's hot path."""

    __slots__ = ()

    def __new__(cls, rank: int, sites: int, mode: Mode) -> "AlgebraSignature":
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if sites < 1:
            raise ValueError(f"sites must be >= 1, got {sites}")
        return super().__new__(cls, rank, sites, mode)

    @property
    def is_quantum(self) -> bool:
        return self.mode is Mode.QUANTUM

    def as_mode(self, mode: Mode) -> "AlgebraSignature":
        return AlgebraSignature(self.rank, self.sites, mode)

    def zero(self) -> "NCPoly":
        return NCPoly(self, {})

    def one(self) -> "NCPoly":
        return NCPoly(self, {(): Fraction(1)})

    def gen(self, site: int, row: int, col: int) -> "NCPoly":
        self.check_letter((site, row, col))
        return NCPoly(self, {((site, row, col),): Fraction(1)})

    def letters(self) -> Iterator[Letter]:
        for i in range(1, self.sites + 1):
            for a in range(1, self.rank + 1):
                for b in range(1, self.rank + 1):
                    yield (i, a, b)

    def check_letter(self, letter: Letter) -> None:
        i, a, b = letter
        if not (1 <= i <= self.sites):
            raise ValueError(f"site {i} out of range 1..{self.sites}")
        if not (1 <= a <= self.rank and 1 <= b <= self.rank):
            raise ValueError(f"indices ({a},{b}) out of range 1..{self.rank}")


def _letter_bracket(g: Letter, h: Letter) -> list[tuple[Letter, int]]:
    # [e_ab@i, e_cd@j] = delta_ij (delta_bc e_ad - delta_da e_cb)
    i, a, b = g
    j, c, d = h
    if i != j:
        return []
    out = []
    if b == c:
        out.append(((i, a, d), 1))
    if d == a:
        out.append(((i, c, b), -1))
    return out


# Callers pass ``straighten_word`` single-site words only (see the module
# docstring), which keeps this cache site-local.  Coefficients stay int.
_STRAIGHTEN: dict[Word, dict[Word, int]] = {}


def straighten_word(word: Word) -> Mapping[Word, int]:
    """Normal-order a word of generators on one site by adjacent-transposition
    rewriting.

    Returns the expansion of the product in the PBW basis as a map from
    non-decreasing words to integer coefficients.  Every word the rewriting
    visits lies on the same site, so the cache stays site-local.
    """
    cached = _STRAIGHTEN.get(word)
    if cached is not None:
        return cached
    for pos in range(len(word) - 1):
        if word[pos] > word[pos + 1]:
            break
    else:
        return {word: 1}
    g, h = word[pos], word[pos + 1]
    head, tail = word[:pos], word[pos + 2:]
    result = dict(straighten_word(head + (h, g) + tail))
    for letter, sign in _letter_bracket(g, h):
        for w, c in straighten_word(head + (letter,) + tail).items():
            acc = result.get(w, 0) + sign * c
            if acc:
                result[w] = acc
            else:
                result.pop(w, None)
    _STRAIGHTEN[word] = result
    return result


def _site_blocks(word: Word, sites: int) -> tuple[list[Word], int]:
    """(the word's letters at each site 1..sites, bitmask of the sites that
    hold letters).  A PBW word is sorted by site, so each block is a slice."""
    blocks = [()] * sites
    mask = 0
    start = 0
    for p in range(1, len(word) + 1):
        if p == len(word) or word[p][0] != word[start][0]:
            s = word[start][0] - 1
            blocks[s] = word[start:p]
            mask |= 1 << s
            start = p
    return blocks, mask


def _local_product(a: Word, b: Word):
    """a·b for nonempty PBW words on one site: the word a + b when it is
    already in order, else its expansion."""
    if a[-1] <= b[0]:
        return a + b
    return straighten_word(a + b)


def _expand(factors) -> list[tuple[Word, int]]:
    """The product of per-site factors in site order, each a fixed word or an
    expansion {word: int}.  Distinct choices of local words concatenate to
    distinct words, so nothing needs accumulating."""
    out = [((), 1)]
    fixed = ()
    for f in factors:
        if type(f) is tuple:
            fixed += f
        else:
            out = [(w + fixed + v, c * k) for w, c in out for v, k in f.items()]
            fixed = ()
    if fixed:
        out = [(w + fixed, c) for w, c in out]
    return out


def _letter_times(g: Letter, word: Word) -> Word | None:
    """g·word as one PBW word, g inserted where it sorts, when the letters
    sorting before it lie at other sites and so commute with it; else None.
    ``word`` is nonempty and its first letter sorts before g."""
    pos = bisect_left(word, g)
    if word[pos - 1][0] == g[0]:
        return None
    return word[:pos] + (g,) + word[pos:]


def _word_product(w1: Word, w2: Word, sites: int) -> list[tuple[Word, int]]:
    """PBW expansion of w1·w2: each site's letters multiply on their own."""
    return _expand([_local_product(a, b) if a and b else a + b
                    for a, b in zip(_site_blocks(w1, sites)[0],
                                    _site_blocks(w2, sites)[0])])


# Commutation tables revisit few single-site word pairs many times; without
# this memo a talalaev-r3n2 verdict takes about a third longer.
_LOCAL_PAIRS: dict[tuple[Word, Word], tuple] = {}


def _local_pair(a: Word, b: Word) -> tuple:
    """(a·b, b·a, [a, b]) for nonempty PBW words on one site."""
    got = _LOCAL_PAIRS.get((a, b))
    if got is None:
        p, q = _local_product(a, b), _local_product(b, a)
        c = dict(p) if type(p) is dict else {p: 1}
        for w, k in (q.items() if type(q) is dict else ((q, 1),)):
            acc = c.get(w, 0) - k
            if acc:
                c[w] = acc
            else:
                del c[w]
        got = _LOCAL_PAIRS[(a, b)] = (p, q, c)
    return got


def _word_commutator(b1: list[Word], b2: list[Word]) -> list[tuple[Word, int]]:
    """PBW expansion of [w1, w2] from the words' site blocks.

    With P_s = a_s b_s and Q_s = b_s a_s the local products at site s,
    prod P - prod Q telescopes to sum_k Q_<k [a_k, b_k] P_>k (the mirrored
    sum_k P_<k [a_k, b_k] Q_>k is the same difference).  Only sites where
    both words hold letters contribute a term or differ between P and Q;
    every other site contributes its one block.
    """
    ab, ba, comm = [], [], []
    for a, b in zip(b1, b2):
        if a and b:
            p, q, c = _local_pair(a, b)
            if c:
                comm.append((len(ab), c))
            ab.append(p)
            ba.append(q)
        else:
            ab.append(a + b)
            ba.append(a + b)
    out = []
    for i, c in comm:
        out += _expand(ba[:i] + [c] + ab[i + 1:])
    return out


def _acc(terms: dict, key, val) -> None:
    cur = terms.get(key)
    if cur is None:
        if val:
            terms[key] = val
        return
    cur = cur + val
    if cur:
        terms[key] = cur
    else:
        del terms[key]


def _difference(a, b):
    """a - b: b's coefficients subtracted from a copy of a's terms, so a
    negated coefficient is built only where a has no such key."""
    terms = dict(a.terms)
    for key, c in b.terms.items():
        cur = terms.get(key)
        cur = -c if cur is None else cur - c
        if cur:
            terms[key] = cur
        else:
            del terms[key]
    return type(a)(a.sig, terms)


class SparseSum:
    """Zero-free sparse sum over an algebra signature (None where no algebra
    is involved, as for ``ratfun.RatFun``): ``terms`` maps each key to a
    nonzero coefficient.

    The additive structure, scaling and coefficient maps live here once.  A
    subclass fixes its coefficient ring with ``_coeff(sig, c)``, which turns
    a constant into a coefficient, and names the constant types it accepts
    as operands in ``_scalars``; a constant sits at key ``_unit``.  Operands
    of another class are refused (``NotImplemented``, hence ``TypeError``),
    and operands over another signature raise ``SignatureMismatchError``.
    Values are immutable by convention: operations always build new objects.
    """

    __slots__ = ("sig", "terms")
    _scalars: tuple[type, ...] = ()
    _unit = ()

    def __init__(self, sig: AlgebraSignature, terms: dict):
        self.sig = sig
        self.terms = terms

    @staticmethod
    def _coeff(sig: AlgebraSignature, c):
        raise NotImplementedError

    @classmethod
    def zero(cls, sig: AlgebraSignature):
        return cls(sig, {})

    @classmethod
    def scalar(cls, sig: AlgebraSignature, c):
        """The constant c."""
        c = cls._coeff(sig, c)
        return cls(sig, {cls._unit: c} if c else {})

    @classmethod
    def one(cls, sig: AlgebraSignature):
        return cls.scalar(sig, 1)

    @classmethod
    def from_terms(cls, sig: AlgebraSignature, items):
        """Build from (key, coefficient) pairs, accumulating duplicates."""
        terms: dict = {}
        for key, c in items:
            _acc(terms, key, cls._coeff(sig, c))
        return cls(sig, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other):
        if type(other) is type(self):
            if other.sig is not self.sig and other.sig != self.sig:
                raise SignatureMismatchError(
                    f"operands over different signatures: {self.sig} vs {other.sig}")
            return other
        if isinstance(other, self._scalars):
            return self.scalar(self.sig, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _acc(terms, key, c)
        return type(self)(self.sig, terms)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.sig, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _difference(self, other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _difference(other, self)

    def __eq__(self, other) -> bool:
        try:
            other = self._coerce(other)
        except SignatureMismatchError:
            return False
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def scale(self, c):
        """Every coefficient times the constant c; ``self`` itself when c is
        the number 1 (results are never mutated, so sharing is safe)."""
        if isinstance(c, (int, Fraction)) and c == 1:
            return self
        c = self._coeff(self.sig, c)
        if not c:
            return self.zero(self.sig)
        return self.map(lambda t: t * c)

    def map(self, fn, cls=None):
        """``fn`` applied to every coefficient, zeros dropped; the result is a
        ``cls`` (default: this class) over the same signature."""
        terms = {}
        for key, c in self.terms.items():
            c = fn(c)
            if c:
                terms[key] = c
        return (cls or type(self))(self.sig, terms)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.render()}>"


class NCPoly(SparseSum):
    """Sparse exact-rational combination of PBW-normal-form words.

    Subclasses keep the PBW product over another coefficient ring (see
    ``ratfun.LaxEntry``).
    """

    __slots__ = ()
    _scalars = (int, Fraction)

    @staticmethod
    def _coeff(sig: AlgebraSignature, c) -> Fraction:
        return Fraction(c)

    @property
    def degree(self):
        """Word-length degree; the zero polynomial reports -inf."""
        if not self.terms:
            return float("-inf")
        return max(len(w) for w in self.terms)

    def constant_term(self):
        return self.terms.get((), self._coeff(self.sig, 0))

    def proportionality(self, other: "NCPoly") -> Fraction | None:
        """The constant c with self == c * other, if one exists.

        c is read off one rational coefficient of ``other`` (descending
        through sparse-sum coefficients such as ``RatFun``) and then checked.
        """
        if other.is_zero():
            return None
        a, b = self, other
        while isinstance(b, SparseSum):
            key = next(iter(b.terms))
            a, b = a.terms.get(key, 0), b.terms[key]
            if not a:
                return None if self else Fraction(0)
        ratio = Fraction(a, b)
        return ratio if self == other.scale(ratio) else None

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if len(self.terms) == 1 and () in self.terms:    # a constant scales
            c1 = self.terms[()]
            return other if c1 == 1 else other.map(lambda c2: c1 * c2)
        quantum = self.sig.is_quantum
        terms: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                c = c1 * c2
                if not quantum:
                    _acc(terms, tuple(sorted(w1 + w2)), c)
                elif not w1 or not w2 or w1[-1] <= w2[0]:  # already in order
                    _acc(terms, w1 + w2, c)
                elif len(w1) == 1 and (w := _letter_times(w1[0], w2)):
                    _acc(terms, w, c)
                else:
                    for w, k in _word_product(w1, w2, self.sig.sites):
                        _acc(terms, w, c if k == 1 else c * k)
        return type(self)(self.sig, terms)

    def __rmul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = self.one(self.sig)
        for _ in range(n):
            out = out * self
        return out

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        """Terms in the stable output order: graded, then PBW-lexicographic."""
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def render(self) -> str:
        if not self.terms:
            return "0"
        sym = "e" if self.sig.is_quantum else "x"
        parts: list[str] = []
        for word, coeff in self.sorted_terms():
            factors = [f"{sym}[{a},{b}]@{i}" for (i, a, b) in word]
            mag = coeff if coeff > 0 else -coeff
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = " * ".join(factors)
            else:
                body = " * ".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)


def commutator(p: NCPoly, q: NCPoly) -> NCPoly:
    """pq - qp in normal form.  Quantum mode only.

    Each operand term is split into site blocks once; term pairs that share
    no site commute and are skipped.
    """
    if not p.sig.is_quantum:
        raise ModeError("commutator requires Quantum mode; use poisson_bracket")
    if p.sig != q.sig:
        raise SignatureMismatchError(
            f"operands over different signatures: {p.sig} vs {q.sig}")
    dp, ip = integer_form(p.terms)
    dq, iq = integer_form(q.terms)
    n = p.sig.sites
    split_q = [(*_site_blocks(w, n), c) for w, c in iq.items()]
    terms: dict[Word, int] = {}
    get = terms.get
    for w1, c1 in ip.items():
        b1, m1 = _site_blocks(w1, n)
        for b2, m2, c2 in split_q:
            if m1 & m2:
                c = c1 * c2
                for w, k in _word_commutator(b1, b2):
                    terms[w] = get(w, 0) + c * k
    d = dp * dq
    return NCPoly(p.sig, {w: Fraction(c, d) for w, c in terms.items() if c})


class PackedPoly(SparseSum):
    """Commutative polynomial with integer coefficients whose keys are
    packed monomials (see ``Packing``): a monomial product is an int
    addition.  Its signature only tags it; the packing gives keys their
    meaning."""

    __slots__ = ()
    _scalars = (int,)
    _unit = 0

    @staticmethod
    def _coeff(sig: AlgebraSignature, c) -> int:
        return index(c)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[int, int] = {}
        get = terms.get
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = k1 + k2
                terms[key] = get(key, 0) + c1 * c2
        return PackedPoly(self.sig, {key: c for key, c in terms.items() if c})


# A classical operand in packed form: (d, its numerators over its common
# denominator d, letter g -> {packed word with one g removed: numerator *
# multiplicity of g}).
Packed = tuple[int, PackedPoly, dict[Letter, dict[int, int]]]


class Packing:
    """Packed monomials over ``sig``'s letters followed by the ``extra``
    formal variables: a monomial is one int holding its exponent vector, a
    field of max_exponent.bit_length() bits per variable in that order.
    While no exponent exceeds ``max_exponent``, multiplying monomials is
    adding ints and never carries between fields."""

    __slots__ = ("sig", "variables", "bits", "unit")

    def __init__(self, sig: AlgebraSignature, max_exponent: int, extra: Iterable = ()):
        self.sig = sig
        self.variables = [*sig.letters(), *extra]
        self.bits = max(max_exponent, 1).bit_length()
        self.unit = {v: 1 << (self.bits * i) for i, v in enumerate(self.variables)}

    def monomial(self, word) -> int:
        return sum(map(self.unit.__getitem__, word))

    def mask(self, variables) -> int:
        """The fields of ``variables``: m & mask is zero exactly when the
        monomial m holds none of them."""
        field = (1 << self.bits) - 1
        return sum(field * self.unit[v] for v in set(variables))

    def word(self, m: int) -> tuple:
        """The variables of the monomial m in packing order, each repeated
        by its exponent: a sorted word when m holds letters only.  Only the
        nonzero fields are visited, each found by m's lowest set bit."""
        bits = self.bits
        mask = (1 << bits) - 1
        variables = self.variables
        w = []
        while m:
            i = ((m & -m).bit_length() - 1) // bits
            shift = i * bits
            e = m >> shift & mask
            w += [variables[i]] * e
            m -= e << shift
        return tuple(w)

    def pack(self, p: NCPoly) -> Packed:
        """p in packed form, with its gradient (see ``Packed``)."""
        d, terms = integer_form(p.terms)
        unit = self.unit
        packed: dict[int, int] = {}
        grad: dict[Letter, dict[int, int]] = {}
        for w, c in terms.items():
            m = self.monomial(w)
            packed[m] = c
            prev = None
            for g in w:     # each distinct letter once: w is sorted
                if g != prev:
                    grad.setdefault(g, {})[m - unit[g]] = c * w.count(g)
                    prev = g
        return d, PackedPoly(p.sig, packed), grad

    def bracket(self, p: Packed, q: Packed, table: LetterTable | None = None,
                zero: int = 0) -> NCPoly:
        """The classical bracket engine: {p, q} of two packed operands, the
        Lie-Poisson bracket without a table (see ``poisson_bracket``).

        {p, q} = sum_h X_h * dq/dh with X_h = sum_g {g, h} * dp/dg, each
        X_h formed once, its zeros dropped, and so are its terms holding a
        letter of the mask ``zero`` (see ``mask``).  On operands whose
        gradients hold none of those letters, that is the bracket with them
        set to zero: a gradient term r times a rule value u holds one
        exactly when u does.  Every exponent of the result is at most deg p + deg q - 1,
        which the packing must hold.  Only the nonzero output terms are
        decoded back to sorted words."""
        dp, _, grad_p = p
        dq, _, grad_q = q
        unit = self.unit
        dt, letter_rules = (1, None) if table is None else table
        rules = []
        for h, right in grad_q.items():
            rule = []
            for g, left in grad_p.items():
                br = _letter_bracket(g, h) if letter_rules is None else letter_rules.get((g, h))
                if br:
                    rule.append((left, br))
            if rule:
                rules.append((right, rule))
        terms: dict[int, int] = {}
        get = terms.get
        for right, rule in rules:
            x: dict[int, int] = {}
            xget = x.get
            for left, br in rule:
                for letter, k in br:
                    u = unit[letter]
                    for r, c in left.items():
                        key = r + u
                        x[key] = xget(key, 0) + c * k
            x = [(r, c) for r, c in x.items() if c and not r & zero]
            for r2, c2 in right.items():
                for r1, c1 in x:
                    key = r1 + r2
                    terms[key] = get(key, 0) + c1 * c2
        d = dp * dq * dt
        return NCPoly(self.sig, {self.word(m): Fraction(c, d) for m, c in terms.items() if c})


def poisson_bracket(p: NCPoly, q: NCPoly, table: LetterTable | None = None) -> NCPoly:
    """Biderivation fixed by its values on coordinate pairs, extended by Leibniz.

    Without a table this is the site-wise Lie-Poisson bracket; a table
    (d, rules) maps each letter pair (g, h) to the (letter, integer
    numerator) expansion of d{g, h}, absent pairs bracketing to zero.
    Classical mode only.

    Both operands are packed at the width that deg p + deg q - 1 needs and
    bracketed by ``Packing.bracket``.
    """
    if p.sig.is_quantum:
        raise ModeError("poisson_bracket requires Classical mode; use commutator")
    if p.sig != q.sig:
        raise SignatureMismatchError(f"{p.sig} vs {q.sig}")
    if p.degree < 1 or q.degree < 1:
        return p.sig.zero()
    packing = Packing(p.sig, p.degree + q.degree - 1)
    return packing.bracket(packing.pack(p), packing.pack(q), table)


def classical_limit(p: NCPoly) -> NCPoly:
    """Top-filtration-degree symbol of an enveloping-algebra element.

    PBW basis words of maximal length survive with the same coefficients,
    reinterpreted as commutative monomials; lower-order terms are discarded.
    """
    if not p.sig.is_quantum:
        raise ModeError("classical_limit expects a Quantum-mode element")
    csig = p.sig.as_mode(Mode.CLASSICAL)
    if p.is_zero():
        return NCPoly(csig, {})
    top = p.degree
    return NCPoly(csig, {w: c for w, c in p.terms.items() if len(w) == top})


def diagonal_generators(sig: AlgebraSignature) -> list[NCPoly]:
    """The Cartan part of the diagonal action: sum_i e[a,a]@i for each a."""
    out = []
    for a in range(1, sig.rank + 1):
        p = sig.zero()
        for i in range(1, sig.sites + 1):
            p = p + sig.gen(i, a, a)
        out.append(p)
    return out


def bracket(p: NCPoly, q: NCPoly) -> NCPoly:
    """Mode-appropriate bracket: commutator or Lie-Poisson bracket."""
    if p.sig.is_quantum:
        return commutator(p, q)
    return poisson_bracket(p, q)
