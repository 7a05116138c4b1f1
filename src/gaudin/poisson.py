"""Alternative Poisson structures for collided-pole systems.

A bracket is presented as a block operator: block (i,j) sends the j-th
gradient to a commutator with a fixed linear combination of the site
variables, and

    {F, G} = sum_{i,j} Tr( grad_i F [P_ij, grad_j G] ).

Such a bracket is a biderivation, so it is fixed by its values on coordinate
pairs.  A ``PoissonOperator`` is the only bracket description: the standard
and limit brackets, a tabulated operator and a pencil are all block operators,
and since the bracket is linear in the blocks, ``pencil`` combines the blocks
of two operators.  A check compiles the operator to that letter table at
most once (``letter_table``), and the table drives the same Leibniz loop as
the standard bracket (``algebra.poisson_bracket``).  The table has one form, integer
numerators over one denominator: the block coefficients are scaled once by
``linalg.integer_form`` and the values on coordinate pairs are summed on
ints, so the bracket, the certificates and ``manin.commutation_matrix`` all
read the same integer rules.

The same table makes the Poisson property a finite check: a biderivation is
Poisson iff it is antisymmetric on every pair of coordinate letters and its
jacobiator vanishes on every triple of distinct letters.  ``antisymmetry_check``
and ``jacobi_check`` decide all of them, so a PASS is a certificate for all
polynomials, not a sample; ``compatibility_check`` applies the Jacobi
certificate to the sum of two brackets, a proof once both are Poisson.

Most of those letter tuples are decided at site level, because every block
factors through gl_r: {x@i, y@j} = sum_k c^ij_k [x, y]@k.  So
{x@i, y@j} + {y@j, x@i} = sum_k (c^ij_k - c^ji_k) [x, y]@k vanishes when
c^ij = c^ji, and {x@i, {y@j, z@l}} = sum_m n(i,j,l)_m [x, [y, z]]@m with
n(i,j,l)_m = sum_k c^jl_k c^ik_m, so where n(i,j,l) = n(j,l,i) = n(l,i,j)
the jacobiator of every letter triple on those sites is a sum of Jacobi
identities of gl_r and vanishes.  The checks compare these site-level
coefficients on the integer form of the blocks and sum on the letter table
only the letter tuples on the remaining "open" site pairs and triples
(``open_site_pairs``, ``open_site_triples``); the table is built only when
one is open.  The standard and limit operators and their sum pencil open
none.

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
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb

from .algebra import (
    AlgebraSignature,
    LetterTable,
    ModeError,
    NCPoly,
    antisymmetry_residuals,
    poisson_bracket,
)
from .lax import InvariantFamily
from .linalg import integer_form
from .manin import commutation_matrix
from .reports import CheckReport

Block = dict[int, Fraction]


class PoissonOperator:
    """N x N block operator; block (i,j) is a combination sum_k c_k ad(X_k).

    ``name`` labels the bracket in reports and takes no part in equality.
    A block key or coefficient site outside 1..sites is refused, so every
    block reaches the letter table that the certificates examine.  Zero
    coefficients and the blocks they leave empty are dropped, so two
    operators with the same bracket are equal."""

    def __init__(self, sites: int, blocks: Mapping[tuple[int, int], Block],
                 name: str = "operator"):
        self.sites = sites
        self.blocks: dict[tuple[int, int], Block] = {}
        self.name = name
        for (i, j), combo in blocks.items():
            for s in (i, j, *combo):
                if not 1 <= s <= sites:
                    raise ValueError(f"block ({i},{j}) names site {s}, "
                                     f"outside 1..{sites}")
            combo = {k: c for k, c in combo.items() if c}
            if combo:
                self.blocks[i, j] = combo

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoissonOperator):
            return NotImplemented
        return self.sites == other.sites and self.blocks == other.blocks

    def block(self, i: int, j: int) -> Block:
        return self.blocks.get((i, j), {})

    def with_block(self, i: int, j: int, block: Block) -> "PoissonOperator":
        return PoissonOperator(self.sites, {**self.blocks, (i, j): block})


def pencil(lam, first: PoissonOperator, mu, second: PoissonOperator) -> PoissonOperator:
    """The operator lam*first + mu*second; the bracket is linear in the blocks."""
    if first.sites != second.sites:
        raise ValueError(f"pencil of a {first.sites}-site and a "
                         f"{second.sites}-site operator")
    blocks: dict[tuple[int, int], Block] = {}
    for scale, op in ((lam, first), (mu, second)):
        for key, combo in op.blocks.items():
            acc = blocks.setdefault(key, {})
            for k, c in combo.items():
                acc[k] = acc.get(k, 0) + scale * c
    return PoissonOperator(first.sites, blocks,
                           f"pencil({lam}*{first.name} + {mu}*{second.name})")


def standard_operator(sites: int) -> PoissonOperator:
    return PoissonOperator(sites, {(i, i): {i: Fraction(1)} for i in range(1, sites + 1)},
                           "standard")


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
    ids = range(1, sites + 1)
    blocks = {(i, j): {k: limit_coefficient(i, j, k) for k in ids} for i in ids for j in ids}
    return PoissonOperator(sites, blocks, "limit_rijk")


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

    z12, z13, z23 = zd(1, 2), zd(1, 3), zd(2, 3)
    z34, z35, z45 = zd(3, 4), zd(3, 5), zd(4, 5)
    c44 = z13 * z34 / z45
    p45 = z13 / (z45 * z45)
    c55 = -z13 * z35 / z45
    return PoissonOperator(5, {
        (1, 2): {1: z23},
        (2, 1): {1: z23},
        (2, 2): {2: z23, 1: -z23, 3: z12, 4: z12, 5: z12},
        (2, 3): {3: -z12},
        (3, 2): {3: -z12},
        (2, 4): {4: -z12},
        (4, 2): {4: -z12},
        (2, 5): {5: -z12},
        (5, 2): {5: -z12},
        (3, 4): {3: -z13 * z34 / z45},
        (4, 3): {3: -z13 * z34 / z45},
        (3, 5): {3: z13 * z35 / z45},
        (5, 3): {3: z13 * z35 / z45},
        (4, 4): {3: c44, 4: -c44 * (z35 - z45) / z45, 5: -c44 * z13 * z34 / z45},
        (4, 5): {4: p45 * z35 * z35, 5: p45 * z34 * z34},
        (5, 4): {4: p45 * z35 * z35, 5: p45 * z34 * z34},
        (5, 5): {3: c55, 4: c55 * z35 / z45, 5: c55 * (z34 - z45) / z45},
    })


def _check_signature(op: PoissonOperator, sig: AlgebraSignature) -> None:
    if sig.is_quantum:
        raise ModeError("block-operator brackets are defined in Classical mode only")
    if op.sites != sig.sites:
        raise ValueError(f"operator is for {op.sites} sites, signature has {sig.sites}")


def _integer_blocks(op: PoissonOperator) -> tuple[int, dict]:
    """(d, (i, j) -> {k: c^ij_k * d}): the block coefficients scaled once to
    integers over d, the lcm of their denominators."""
    d, coeffs = integer_form({(i, j, k): c for (i, j), combo in op.blocks.items()
                              for k, c in combo.items()})
    blocks: defaultdict = defaultdict(dict)
    for (i, j, k), c in coeffs.items():
        blocks[i, j][k] = c
    return d, blocks


def letter_table(op: PoissonOperator, sig: AlgebraSignature) -> LetterTable:
    """Compile a block operator to its nonzero values on coordinate pairs,

        {x[a,b]@i, x[c,d]@j} = sum_k c^ij_k (d_bc x[a,d]@k - d_ad x[c,b]@k),

    read off Tr(grad_i F [P_ij, grad_j G]) on coordinate functions, as
    (d, (g, h) -> [(letter, integer numerator)]): the block coefficients are
    scaled once to integers over d, the lcm of their denominators."""
    _check_signature(op, sig)
    d, blocks = _integer_blocks(op)
    table: defaultdict = defaultdict(lambda: defaultdict(int))
    for (i, j), combo in blocks.items():
        for k, coeff in combo.items():
            for a, b, c in product(range(1, sig.rank + 1), repeat=3):
                table[(i, a, b), (j, b, c)][k, a, c] += coeff  # the d_bc term
                table[(i, a, b), (j, c, a)][k, c, b] -= coeff  # the d_ad term
    rules = {pair: [(g, c) for g, c in combo.items() if c] for pair, combo in table.items()}
    return d, {pair: rule for pair, rule in rules.items() if rule}


def open_site_pairs(op: PoissonOperator) -> list[tuple[int, int]]:
    """The site pairs i < j with c^ij != c^ji: elsewhere
    {x@i, y@j} + {y@j, x@i} = sum_k (c^ij_k - c^ji_k) [x, y]@k vanishes for
    every pair of letters, the diagonal i = j included."""
    blocks = _integer_blocks(op)[1]
    return [(i, j) for i, j in combinations(range(1, op.sites + 1), 2)
            if blocks.get((i, j), {}) != blocks.get((j, i), {})]


def _nested(blocks: dict, i: int, j: int, l: int) -> dict[int, int]:
    # n(i,j,l): {x@i, {y@j, z@l}} = sum_m n_m [x, [y, z]]@m
    out: dict[int, int] = {}
    for k, c in blocks.get((j, l), {}).items():
        for m, e in blocks.get((i, k), {}).items():
            out[m] = out.get(m, 0) + c * e
    return {m: v for m, v in out.items() if v}


def open_site_triples(op: PoissonOperator) -> list[tuple[int, int, int]]:
    """The sorted site triples i <= j <= l on which n(i,j,l), n(j,l,i) and
    n(l,i,j) are not all equal.  Elsewhere the jacobiator of every letter
    triple on those sites is sum_m n_m (the Jacobi identity of gl_r)@m = 0."""
    blocks = _integer_blocks(op)[1]
    return [(i, j, l) for i, j, l in combinations_with_replacement(range(1, op.sites + 1), 3)
            if not _nested(blocks, i, j, l) == _nested(blocks, j, l, i)
            == _nested(blocks, l, i, j)]


def bracket_eval(op: PoissonOperator, F: NCPoly, G: NCPoly) -> NCPoly:
    """Evaluate the operator's bracket on two classical polynomials.

    Compiles the letter table on every call; checks that evaluate many
    brackets compile it once with ``letter_table``.  No check calls this: it
    stays only as a trace target of the benchmark (``perfbench/spans.py``).
    """
    return poisson_bracket(F, G, letter_table(op, F.sig))


def _render_linear(sig: AlgebraSignature, combo: dict, d: int) -> str:
    return NCPoly(sig, {(g,): Fraction(c, d) for g, c in combo.items() if c}).render()


def _site_letters(sig: AlgebraSignature, i: int) -> list:
    return [(i, a, b) for a in range(1, sig.rank + 1) for b in range(1, sig.rank + 1)]


def _names(sig: AlgebraSignature, site_tuples) -> dict:
    """letter -> rendered name, for every letter on a site of ``site_tuples``."""
    return {g: sig.gen(*g).render() for i in {i for t in site_tuples for i in t}
            for g in _site_letters(sig, i)}


def antisymmetry_check(op: PoissonOperator, sig: AlgebraSignature) -> CheckReport:
    """{x, y} + {y, x} = 0 on every pair of coordinate letters, x = y
    included; the witness residual is {x, y} + {y, x}.

    The pairs are decided site by site first: {x@i, y@j} + {y@j, x@i} is
    sum_k (c^ij_k - c^ji_k) [x, y]@k, which vanishes when c^ij = c^ji.  Only
    the letter pairs on the other site pairs (``open_site_pairs``) are summed
    on the letter table, which is built only when there are any.
    ``info.pairs`` still counts every letter pair the certificate decides."""
    _check_signature(op, sig)
    n = sig.sites * sig.rank ** 2
    witnesses = []
    open_pairs = set(open_site_pairs(op))
    if open_pairs:
        d, rules = letter_table(op, sig)
        names = _names(sig, open_pairs)
        rules = {(g, h): rule for (g, h), rule in rules.items()
                 if tuple(sorted((g[0], h[0]))) in open_pairs}
        witnesses = [{"pair": [names[x], names[y]], "residual": _render_linear(sig, res, d)}
                     for x, y, res in antisymmetry_residuals((d, rules))]
    return CheckReport(
        check="antisymmetry",
        passed=not witnesses,
        params={"spec": op.name},
        witnesses=witnesses,
        info={"pairs": n * (n + 1) // 2, "failed": len(witnesses)},
    )


def _letter_triples(sig: AlgebraSignature, site_triples) -> list:
    """The letter triples a < b < c whose sites form one of the sorted
    ``site_triples``, in the order of ``combinations(sig.letters(), 3)``."""
    return sorted((a, b, c) for sites in site_triples
                  for a, b, c in product(*(_site_letters(sig, i) for i in sites))
                  if a < b < c)


def jacobi_check(op: PoissonOperator, sig: AlgebraSignature) -> CheckReport:
    """The jacobiator {a,{b,c}} + {b,{c,a}} + {c,{a,b}} on every triple a < b < c
    of coordinate letters.

    The triples are decided site by site first.  A block operator brackets
    {x@i, y@j} = sum_k c^ij_k [x, y]@k, so {x@i, {y@j, z@l}} is
    sum_m n(i,j,l)_m [x, [y, z]]@m with n(i,j,l)_m = sum_k c^jl_k c^ik_m, and
    where n(i,j,l) = n(j,l,i) = n(l,i,j) the jacobiator of every letter
    triple on those sites is sum_m n_m (the Jacobi identity of gl_r)@m = 0.
    Only the letter triples on the other site triples (``open_site_triples``)
    are summed on the letter table, which is built only when there are any;
    ``info.triples`` still counts every letter triple the certificate decides.

    The table is linear, so each jacobiator is a linear form, summed exactly on
    integer numerators (Jacobi is homogeneous, so scaling the table does not
    change the verdict).  For an antisymmetric biderivation the jacobiator is a
    trivector field, determined by its values on triples of distinct letters:
    a PASS here, with ``antisymmetry_check``, certifies the Jacobi identity on
    every polynomial.
    """
    _check_signature(op, sig)
    n = sig.sites * sig.rank ** 2
    witnesses = []
    open_triples = open_site_triples(op)
    if open_triples:
        d, table = letter_table(op, sig)
        names = _names(sig, open_triples)
        for a, b, c in _letter_triples(sig, open_triples):
            res: dict = {}
            for x, inner in ((a, (b, c)), (b, (c, a)), (c, (a, b))):
                for w, k in table.get(inner, ()):
                    for g, m in table.get((x, w), ()):
                        res[g] = res.get(g, 0) + k * m
            if any(res.values()):
                witnesses.append({"triple": [names[a], names[b], names[c]],
                                  "jacobiator": _render_linear(sig, res, d * d)})
    return CheckReport(
        check="jacobi",
        passed=not witnesses,
        params={"spec": op.name},
        witnesses=witnesses,
        info={"triples": comb(n, 3), "failed": len(witnesses)},
    )


def compatibility_check(first: PoissonOperator, second: PoissonOperator,
                        sig: AlgebraSignature) -> CheckReport:
    """Jacobi of the sum pencil first + second.  The jacobiator is quadratic
    in the bracket, J(lam A + mu B) = lam^2 J(A) + mu^2 J(B) + lam mu X, so
    for two Poisson brackets J(A + B) = X, and X = 0 makes the whole
    (antisymmetric) pencil Poisson.  A PASS is a proof together with the
    antisymmetry and Jacobi checks of both brackets.  The sum pencil is a
    block operator, so ``jacobi_check`` decides it at site level first and
    sums on a letter table only the letter triples on its open site
    triples."""
    rep = jacobi_check(pencil(1, first, 1, second), sig)
    rep.check = "compatibility"
    rep.witnesses = [{"spec": rep.params["spec"], **w} for w in rep.witnesses]
    rep.params = {"first": first.name, "second": second.name}
    return rep


def family_commutes_under(op: PoissonOperator, family: InvariantFamily) -> CheckReport:
    """Whether the family members commute pairwise under the operator's
    bracket, certified by ``commutation_matrix`` on its letter table, which
    refuses an operator that is not antisymmetric."""
    members = family.members
    table = letter_table(op, members[0].expr.sig) if len(members) > 1 else (1, {})
    rep = commutation_matrix(family.exprs(), [m.provenance for m in members], table)
    rep.check = "family_commutes"
    rep.params = {"spec": op.name, "family": family.label, "members": len(members)}
    return rep
