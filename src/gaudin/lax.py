"""Lax matrices of Gaudin type and their spectral-invariant families.

The rational constructors all produce matrices of the shape
``sum over pole groups of (group generator block)/(z - pole)`` whose residue
at each pole is the site-group block itself.  Entry (a,b) carries e[a,b]: with
this orientation the trace invariants reproduce the quadratic Hamiltonians
literally, and d/dz - L satisfies the column-Manin property needed by the
quantum machinery.

The classical invariants are read off Tr L^m, which ``linalg.power_traces``
forms over packed monomials (``algebra.PackedPoly``): each partial-fraction
basis function of the entries' ``RatFun`` coefficients is a formal
commuting variable beside the letters, so a trace is a sum of letter
monomials times products of basis functions, with integer coefficients over
one denominator.  Only the distinct products of basis functions are
expanded into partial fractions, through ``RatFun``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import mul

from .algebra import AlgebraSignature, ModeError, NCPoly, PackedPoly, Packing
from .linalg import integer_form, power_traces
from .ratfun import LaxEntry, RatFun


class LaxMatrix:
    """Square matrix of LaxEntry values with its declared pole set."""

    def __init__(self, sig: AlgebraSignature, entries: list[list[LaxEntry]],
                 poles: list[tuple[Fraction, int]], label: str):
        self.sig = sig
        self.entries = entries
        self.poles = poles
        self.label = label

    @property
    def size(self) -> int:
        return self.sig.rank

    def entry(self, a: int, b: int) -> LaxEntry:
        """1-based entry access."""
        return self.entries[a - 1][b - 1]

    def is_polynomial(self) -> bool:
        return not self.poles

    def eval_z(self, point) -> list[list[NCPoly]]:
        return [[e.eval_z(point) for e in row] for row in self.entries]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaxMatrix):
            return NotImplemented
        return self.sig == other.sig and self.entries == other.entries

    def render(self) -> str:
        rows = []
        for row in self.entries:
            rows.append("[" + ", ".join(e.render() for e in row) + "]")
        return "[" + ", ".join(rows) + "]"

    __str__ = render


class InvariantMember:
    def __init__(self, expr: NCPoly, provenance: dict):
        self.expr = expr
        self.provenance = provenance

    def to_json_dict(self) -> dict:
        out = dict(self.provenance)
        out["expr"] = self.expr.render()
        return out


class InvariantFamily:
    """Spectral invariants tagged with where they came from."""

    def __init__(self, members: list[InvariantMember], label: str = ""):
        self.members = members
        self.label = label

    def exprs(self) -> list[NCPoly]:
        return [m.expr for m in self.members]

    def of_degree(self, degree: int) -> list[InvariantMember]:
        return [m for m in self.members if m.expr.degree == degree]

    def __len__(self) -> int:
        return len(self.members)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "members": [m.to_json_dict() for m in self.members],
        }


def check_distinct(points: Iterable[Fraction], what: str) -> list[Fraction]:
    """The points as Fractions; ValueError naming ``what`` if two are equal."""
    pts = [Fraction(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError(f"repeated {what}: {[str(p) for p in pts]}")
    return pts


def lax_from_groups(sig: AlgebraSignature,
                    groups: Sequence[tuple[Sequence[int], Fraction]],
                    label: str = "L") -> LaxMatrix:
    """Gaudin-type matrix  sum over (site group, pole) of (group block)/(z-pole)."""
    locs = check_distinct([loc for _, loc in groups], "pole locations")
    entries = []
    for a in range(1, sig.rank + 1):
        row = []
        for b in range(1, sig.rank + 1):
            items = []
            for (sites, _), loc in zip(groups, locs):
                f = RatFun.one_over_z_minus(loc)
                for i in sites:
                    items.append((((i, a, b),), f))
            row.append(LaxEntry.from_terms(sig, items))
        entries.append(row)
    return LaxMatrix(sig, entries, [(loc, 1) for loc in locs], label=label)


def gaudin_lax(sig: AlgebraSignature, poles: Sequence) -> LaxMatrix:
    """The N-site Lax matrix with simple poles: entry (a,b) is
    sum_i e[a,b]@i / (z - z_i)."""
    pts = check_distinct(poles, "poles")
    if len(pts) != sig.sites:
        raise ValueError(f"need {sig.sites} poles, got {len(pts)}")
    return lax_from_groups(sig, [([i], p) for i, p in enumerate(pts, start=1)],
                           label="gaudin")


def bending_lax(sig: AlgebraSignature, k: int) -> LaxMatrix:
    """Polynomial cluster Lax matrix  z*X_k + sum_{i>k} X_i,  1 <= k <= N-1."""
    if not 1 <= k <= sig.sites - 1:
        raise ValueError(f"k must lie in 1..{sig.sites - 1}, got {k}")
    zpoly = RatFun.z()
    entries = []
    for a in range(1, sig.rank + 1):
        row = []
        for b in range(1, sig.rank + 1):
            items = [(((k, a, b),), zpoly)]
            items += [(((i, a, b),), RatFun.const(1)) for i in range(k + 1, sig.sites + 1)]
            row.append(LaxEntry.from_terms(sig, items))
        entries.append(row)
    return LaxMatrix(sig, entries, [], label=f"bending(k={k})")


def bending_lax_rational(sig: AlgebraSignature, k: int, z1=0, z2=1) -> LaxMatrix:
    """Rational cluster Lax matrix  X_{k+1}/(z-z2) + (X_1+...+X_k)/(z-z1)."""
    if not 1 <= k <= sig.sites - 1:
        raise ValueError(f"k must lie in 1..{sig.sites - 1}, got {k}")
    z1, z2 = Fraction(z1), Fraction(z2)
    if z1 == z2:
        raise ValueError("the two pole locations must differ")
    return lax_from_groups(sig, [(range(1, k + 1), z1), ([k + 1], z2)],
                           label=f"bending_rational(k={k})")


def spectral_invariants(matrix: LaxMatrix, max_power: int | None = None) -> InvariantFamily:
    """Residues (or z-coefficients, for polynomial matrices) of Tr L^m.

    Residue orders are enumerated exhaustively up to the pole order of
    Tr L^m; members that vanish are dropped rather than predicting the
    exponent set in advance.  Classical mode only: quantum invariants go
    through the Manin-matrix machinery instead.

    The traces come from ``linalg.power_traces`` over ``PackedPoly``
    entries.  Each partial-fraction basis function of an entry's
    coefficients, z^k or (z-p)^-k, is a formal commuting variable packed
    beside the letters (``Packing``), at a width that max_power times the
    entries' top degree needs, and every coefficient is scaled to an
    integer by d, the lcm of their denominators.  Each distinct product of
    basis functions in a trace is expanded into partial fractions once,
    through ``RatFun``, as integers over its own denominator.  With e the
    lcm of those denominators in Tr L^m, a residue or z-coefficient is an
    integer sum over the trace's terms, divided by d^m e.
    """
    sig = matrix.sig
    if sig.is_quantum:
        raise ModeError("spectral invariants are classical; quantum families "
                        "come from the column-determinant generators")
    if max_power is None:
        max_power = sig.rank
    cells = [[[(w, key, c) for w, f in e.terms.items() for key, c in f.terms.items()]
              for e in row] for row in matrix.entries]
    items = [t for row in cells for cell in row for t in cell]
    d = lcm(*(c.denominator for _, _, c in items))
    keys = list(dict.fromkeys(key for _, key, _ in items))
    top = max((len(w) for w, _, _ in items), default=0)
    packing = Packing(sig, max_power * max(top, 1), keys)
    unit = packing.unit
    entries = [[PackedPoly(sig, {packing.monomial(w) + unit[key]: c.numerator * (d // c.denominator)
                                 for w, key, c in cell})
                for cell in row] for row in cells]
    split = unit[keys[0]] if keys else 1    # monomials below it hold letters only
    # product of basis functions -> integer form of its RatFun expansion
    expansions: dict[int, tuple[int, dict]] = {}
    words: dict[int, tuple] = {}            # letter monomial -> the one word the members share
    members: list[InvariantMember] = []
    for m, tr in enumerate(power_traces(entries, max_power), start=1):
        parts: dict[int, list] = {}         # product of basis functions -> its terms
        for mono, c in tr.terms.items():
            letters = mono % split
            parts.setdefault(mono - letters, []).append((letters, c))
        for basis in parts:
            if basis not in expansions:
                expansions[basis] = integer_form(reduce(
                    mul, (RatFun(None, {key: 1}) for key in packing.word(basis))).terms)
        e = lcm(*(expansions[basis][0] for basis in parts))
        shares: dict = {}       # RatFun basis key -> {letter monomial: numerator}
        for basis, group in parts.items():
            eb, expansion = expansions[basis]
            for key, v in expansion.items():
                v *= e // eb
                share = shares.setdefault(key, {})
                for letters, c in group:
                    share[letters] = share.get(letters, 0) + c * v
        if matrix.is_polynomial():
            if any(type(key) is not int for key in shares):
                raise ValueError("entry is not polynomial in z")
            found = [(a, {"zpower": a}) for a in sorted(shares)]
        else:
            found = [((pole, j + 1), {"pole": str(pole), "order": j})
                     for pole, order in matrix.poles for j in range(m * order)]
        scale = d ** m * e
        for key, where in found:
            terms = {}
            for letters, c in shares.get(key, {}).items():
                if c:
                    word = words.get(letters)
                    if word is None:
                        word = words[letters] = packing.word(letters)
                    terms[word] = Fraction(c, scale)
            if terms:
                members.append(InvariantMember(NCPoly(sig, terms), {
                    "matrix": matrix.label, "power": m, **where}))
    return InvariantFamily(members, label=matrix.label)


def quadratic_hamiltonians(sig: AlgebraSignature, poles: Sequence) -> list[NCPoly]:
    """H_i = sum_{k != i} Tr(X_i X_k)/(z_i - z_k); their sum vanishes."""
    pts = check_distinct(poles, "poles")
    if len(pts) != sig.sites:
        raise ValueError(f"need {sig.sites} poles, got {len(pts)}")
    out = []
    for i in range(1, sig.sites + 1):
        items = []
        for k in range(1, sig.sites + 1):
            if k == i:
                continue
            weight = 1 / (pts[i - 1] - pts[k - 1])
            for a in range(1, sig.rank + 1):
                for b in range(1, sig.rank + 1):
                    word = tuple(sorted(((i, a, b), (k, b, a))))
                    items.append((word, weight))
        out.append(NCPoly.from_terms(sig, items))
    return out


def physical_hamiltonian(sig: AlgebraSignature) -> NCPoly:
    """The mean-field spin-spin Hamiltonian sum_{i != j} Tr(X_i X_j)."""
    if sig.sites < 2:
        raise ValueError("need at least two sites")
    items = []
    for i in range(1, sig.sites + 1):
        for j in range(i + 1, sig.sites + 1):
            for a in range(1, sig.rank + 1):
                for b in range(1, sig.rank + 1):
                    items.append((((i, a, b), (j, b, a)), Fraction(2)))
    return NCPoly.from_terms(sig, items)


def pole_site_groups(matrix: LaxMatrix) -> dict[Fraction, list[int]] | None:
    """Site groups read off the residues, or None if the matrix is not of
    Gaudin type: it must equal ``lax_from_groups`` of disjoint site groups at
    its declared poles, all of them simple.  Each pole's group is read from
    the residue of entry (1,1)."""
    if matrix.is_polynomial() or any(order != 1 for _, order in matrix.poles):
        return None
    groups = {pole: sorted({word[0][0] for word in matrix.entries[0][0].residue(pole).terms
                            if word})
              for pole, _ in matrix.poles}
    sites = [i for group in groups.values() for i in group]
    if len(sites) != len(set(sites)):
        return None
    rebuilt = lax_from_groups(matrix.sig, [(group, pole) for pole, group in groups.items()])
    if rebuilt.entries != matrix.entries:
        return None
    return groups
