"""Alternative Poisson structures for collided-pole systems.

A bracket is presented as a block operator: block (i,j) sends the j-th
gradient to a commutator with a fixed linear combination of the site
variables, and

    {F, G} = sum_{i,j} Tr( grad_i F [P_ij, grad_j G] ).

Such a bracket is a biderivation, so it is fixed by its values on coordinate
pairs.  Every bracket description (standard, limit, block operator, pencil)
compiles to that letter table once per check, and the table drives the same
Leibniz loop as the standard bracket (``algebra.poisson_bracket``).

The same table makes the Poisson property a finite check: a biderivation is
Poisson iff it is antisymmetric on every pair of coordinate letters and its
jacobiator vanishes on every triple of distinct letters.  ``antisymmetry_check``
and ``jacobi_check`` examine all of them, so a PASS is a certificate for all
polynomials, not a sample; ``compatibility_check`` applies the Jacobi
certificate to the sum and difference of two brackets.

The diagonal operator with P_ii = X_i reproduces the standard product
Lie-Poisson bracket.  The parameter-free limit bracket arising from the total
collision has coefficients

    r_ijk = (k-1) d_ij d_jk - theta(i-k) d_ij + theta(j-i) d_ik + theta(i-j) d_jk

with theta(n) = 1 for n > 0 and 0 otherwise; this is the unique theta
convention reproducing the tabulated four-site operator block by block.  The
five-site operator for the partial collision is implemented verbatim and its
checks are diagnostics only.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm
from typing import Mapping, Sequence

from .algebra import (
    AlgebraSignature,
    LetterTable,
    ModeError,
    NCPoly,
    poisson_bracket,
)
from .lax import InvariantFamily
from .manin import commutation_matrix
from .reports import CheckReport

Block = dict[int, Fraction]


@dataclass(frozen=True)
class PoissonOperator:
    """N x N block operator; block (i,j) is a combination sum_k c_k ad(X_k)."""

    sites: int
    blocks: Mapping[tuple[int, int], Block]

    def block(self, i: int, j: int) -> Block:
        return self.blocks.get((i, j), {})

    def with_block(self, i: int, j: int, block: Block) -> "PoissonOperator":
        blocks = {k: dict(v) for k, v in self.blocks.items()}
        blocks[(i, j)] = dict(block)
        return PoissonOperator(self.sites, blocks)

    def to_json_dict(self) -> dict:
        return {
            "sites": self.sites,
            "blocks": {
                f"{i},{j}": {str(k): str(c) for k, c in sorted(combo.items())}
                for (i, j), combo in sorted(self.blocks.items())
            },
        }


def standard_operator(sites: int) -> PoissonOperator:
    return PoissonOperator(sites, {(i, i): {i: Fraction(1)} for i in range(1, sites + 1)})


def theta(n: int) -> int:
    return 1 if n > 0 else 0


def limit_coefficient(i: int, j: int, k: int) -> Fraction:
    d_ij = i == j
    d_jk = j == k
    d_ik = i == k
    return Fraction((k - 1) * (d_ij and d_jk)
                    - theta(i - k) * d_ij
                    + theta(j - i) * d_ik
                    + theta(i - j) * d_jk)


def limit_rijk_operator(sites: int) -> PoissonOperator:
    blocks: dict[tuple[int, int], Block] = {}
    for i in range(1, sites + 1):
        for j in range(1, sites + 1):
            combo = {}
            for k in range(1, sites + 1):
                c = limit_coefficient(i, j, k)
                if c:
                    combo[k] = c
            if combo:
                blocks[(i, j)] = combo
    return PoissonOperator(sites, blocks)


def fivesite_operator(z: Sequence) -> PoissonOperator:
    """The five-site operator for the pattern collapsing sites 3..5, with the
    new pole placed at z_3.  Implemented exactly as tabulated; its checks are
    diagnostics only."""
    pts = [Fraction(p) for p in z]
    if len(pts) != 5:
        raise ValueError("need exactly 5 pole parameters")
    if len(set(pts)) != 5:
        raise ValueError("pole parameters must be pairwise distinct")

    def zd(i: int, j: int) -> Fraction:
        return pts[i - 1] - pts[j - 1]

    blocks: dict[tuple[int, int], Block] = {}

    def put(i, j, combo: dict[int, Fraction]):
        combo = {k: c for k, c in combo.items() if c}
        if combo:
            blocks[(i, j)] = combo

    z12, z13, z23 = zd(1, 2), zd(1, 3), zd(2, 3)
    z34, z35, z45 = zd(3, 4), zd(3, 5), zd(4, 5)

    put(1, 2, {1: z23})
    put(2, 1, {1: z23})
    put(2, 2, {2: z23, 1: -z23, 3: z12, 4: z12, 5: z12})
    put(2, 3, {3: -z12})
    put(3, 2, {3: -z12})
    put(2, 4, {4: -z12})
    put(4, 2, {4: -z12})
    put(2, 5, {5: -z12})
    put(5, 2, {5: -z12})
    put(3, 4, {3: -z13 * z34 / z45})
    put(4, 3, {3: -z13 * z34 / z45})
    put(3, 5, {3: z13 * z35 / z45})
    put(5, 3, {3: z13 * z35 / z45})
    c44 = z13 * z34 / z45
    put(4, 4, {3: c44, 4: -c44 * (z35 - z45) / z45, 5: -c44 * z13 * z34 / z45})
    p45 = z13 / (z45 * z45)
    put(4, 5, {4: p45 * z35 * z35, 5: p45 * z34 * z34})
    put(5, 4, {4: p45 * z35 * z35, 5: p45 * z34 * z34})
    c55 = -z13 * z35 / z45
    put(5, 5, {3: c55, 4: c55 * z35 / z45, 5: c55 * (z34 - z45) / z45})
    return PoissonOperator(5, blocks)


class BracketSpec:
    """Marker base class for bracket descriptions."""


@dataclass(frozen=True)
class StandardBracket(BracketSpec):
    pass


@dataclass(frozen=True)
class LimitBracket(BracketSpec):
    """The parameter-free total-collision bracket from the r_ijk formula."""


@dataclass(frozen=True)
class OperatorBracket(BracketSpec):
    operator: PoissonOperator


@dataclass(frozen=True)
class PencilBracket(BracketSpec):
    lam: Fraction
    first: BracketSpec
    mu: Fraction
    second: BracketSpec


def describe(spec: BracketSpec) -> str:
    if isinstance(spec, StandardBracket):
        return "standard"
    if isinstance(spec, LimitBracket):
        return "limit_rijk"
    if isinstance(spec, OperatorBracket):
        return "operator"
    if isinstance(spec, PencilBracket):
        return (f"pencil({spec.lam}*{describe(spec.first)} "
                f"+ {spec.mu}*{describe(spec.second)})")
    return spec.__class__.__name__


def _table() -> defaultdict:
    return defaultdict(lambda: defaultdict(Fraction))


def _operator_table(op: PoissonOperator, sig: AlgebraSignature) -> defaultdict:
    """{x[a,b]@i, x[c,d]@j} = sum_k c^ij_k (d_bc x[a,d]@k - d_ad x[c,b]@k),
    read off Tr(grad_i F [P_ij, grad_j G]) on coordinate functions."""
    if op.sites != sig.sites:
        raise ValueError(f"operator is for {op.sites} sites, signature has {sig.sites}")
    table = _table()
    for (i, j), combo in op.blocks.items():
        for k, coeff in combo.items():
            for a, b, c in product(range(1, sig.rank + 1), repeat=3):
                table[(i, a, b), (j, b, c)][k, a, c] += coeff  # the d_bc term
                table[(i, a, b), (j, c, a)][k, c, b] -= coeff  # the d_ad term
    return table


def _spec_table(spec: BracketSpec, sig: AlgebraSignature) -> defaultdict:
    if isinstance(spec, StandardBracket):
        return _operator_table(standard_operator(sig.sites), sig)
    if isinstance(spec, LimitBracket):
        return _operator_table(limit_rijk_operator(sig.sites), sig)
    if isinstance(spec, OperatorBracket):
        return _operator_table(spec.operator, sig)
    if isinstance(spec, PencilBracket):
        table = _table()
        for scale, part in ((Fraction(spec.lam), spec.first),
                            (Fraction(spec.mu), spec.second)):
            for pair, combo in _spec_table(part, sig).items():
                for letter, coeff in combo.items():
                    table[pair][letter] += scale * coeff
        return table
    raise TypeError(f"unknown bracket spec {spec!r}")


def letter_table(spec: BracketSpec, sig: AlgebraSignature) -> LetterTable:
    """Compile a bracket description to its nonzero values on coordinate pairs."""
    table = {}
    for pair, combo in _spec_table(spec, sig).items():
        terms = [(letter, coeff) for letter, coeff in combo.items() if coeff]
        if terms:
            table[pair] = terms
    return table


def bracket_eval(spec: BracketSpec, F: NCPoly, G: NCPoly) -> NCPoly:
    """Evaluate the described bracket on two classical polynomials.

    Compiles the letter table on every call; checks that evaluate many
    brackets compile it once with ``letter_table``.
    """
    if F.sig.is_quantum:
        raise ModeError("bracket_eval works on Classical-mode elements")
    return poisson_bracket(F, G, letter_table(spec, F.sig))


def _scaled_table(spec: BracketSpec, sig: AlgebraSignature) -> tuple[int, dict]:
    """(d, table): the letter table times d, the lcm of its denominators, as
    (g, h) -> {letter: integer numerator}."""
    if sig.is_quantum:
        raise ModeError("Poisson certificates run in Classical mode")
    table = letter_table(spec, sig)
    d = 1
    for combo in table.values():
        for _, c in combo:
            d = lcm(d, c.denominator)
    return d, {pair: {g: c.numerator * (d // c.denominator) for g, c in combo}
               for pair, combo in table.items()}


def _render_linear(sig: AlgebraSignature, combo: dict, d: int) -> str:
    return NCPoly(sig, {(g,): Fraction(c, d) for g, c in combo.items() if c}).render()


def _names(sig: AlgebraSignature, letters) -> list[str]:
    return [sig.gen(*g).render() for g in letters]


def antisymmetry_check(spec: BracketSpec, sig: AlgebraSignature) -> CheckReport:
    """{x, y} + {y, x} = 0 on every pair of coordinate letters, x = y
    included; the witness residual is {x, y} + {y, x}."""
    d, table = _scaled_table(spec, sig)
    n = sig.sites * sig.rank ** 2
    witnesses = []
    for x, y in sorted({tuple(sorted(pair)) for pair in table}):
        res = dict(table.get((x, y), {}))
        for g, c in table.get((y, x), {}).items():
            res[g] = res.get(g, 0) + c
        if any(res.values()):
            witnesses.append({"pair": _names(sig, (x, y)),
                              "residual": _render_linear(sig, res, d)})
    return CheckReport(
        check="antisymmetry",
        passed=not witnesses,
        params={"spec": describe(spec)},
        witnesses=witnesses,
        info={"pairs": n * (n + 1) // 2, "failed": len(witnesses)},
    )


def jacobi_check(spec: BracketSpec, sig: AlgebraSignature) -> CheckReport:
    """The jacobiator {a,{b,c}} + {b,{c,a}} + {c,{a,b}} on every triple a < b < c
    of coordinate letters.

    The table is linear, so each jacobiator is a linear form, summed exactly on
    integer numerators (Jacobi is homogeneous, so scaling the table does not
    change the verdict).  For an antisymmetric biderivation the jacobiator is a
    trivector field, determined by its values on triples of distinct letters:
    a PASS here, with ``antisymmetry_check``, certifies the Jacobi identity on
    every polynomial.
    """
    d, table = _scaled_table(spec, sig)
    letters = list(sig.letters())
    empty: dict = {}
    witnesses = []
    for a, b, c in combinations(letters, 3):
        res: dict = {}
        for x, inner in ((a, (b, c)), (b, (c, a)), (c, (a, b))):
            for w, k in table.get(inner, empty).items():
                for g, m in table.get((x, w), empty).items():
                    res[g] = res.get(g, 0) + k * m
        if any(res.values()):
            witnesses.append({"triple": _names(sig, (a, b, c)),
                              "jacobiator": _render_linear(sig, res, d * d)})
    return CheckReport(
        check="jacobi",
        passed=not witnesses,
        params={"spec": describe(spec)},
        witnesses=witnesses,
        info={"triples": comb(len(letters), 3), "failed": len(witnesses)},
    )


def compatibility_check(first: BracketSpec, second: BracketSpec,
                        sig: AlgebraSignature) -> CheckReport:
    """Two Poisson brackets are compatible iff their sum and difference both
    satisfy Jacobi (by bilinearity this covers the whole pencil)."""
    reps = [jacobi_check(PencilBracket(Fraction(1), first, Fraction(sign), second), sig)
            for sign in (1, -1)]
    return CheckReport(
        check="compatibility",
        passed=all(rep.passed for rep in reps),
        params={"first": describe(first), "second": describe(second)},
        witnesses=[{"spec": rep.params["spec"], **w} for rep in reps for w in rep.witnesses],
        info={key: sum(rep.info[key] for rep in reps) for key in ("triples", "failed")},
    )


def family_commutes_under(spec: BracketSpec, family: InvariantFamily) -> CheckReport:
    """Whether the family members commute pairwise under the given spec,
    certified by ``commutation_matrix`` on the spec's letter table."""
    members = family.members
    table = letter_table(spec, members[0].expr.sig) if len(members) > 1 else {}
    rep = commutation_matrix(family.exprs(), [m.provenance for m in members], table)
    rep.check = "family_commutes"
    rep.params = {"spec": describe(spec), "family": family.label, "members": len(members)}
    return rep
