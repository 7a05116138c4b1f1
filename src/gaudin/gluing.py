"""Gluing patterns over pole sets and the limit families they generate.

A pattern is a rooted tree whose leaves are the original pole labels and
whose internal nodes are collision points.  Each internal node contributes
one Lax matrix: the poles of that matrix are the locations of the node's
children, and the residue at each location is the sum of the site variables
under that child.  Limits are realized constructively from these data, never
by symbolic limit-taking.

The quantum limit algebra is read from the same limit matrices, built in
Quantum mode: it is generated by the Talalaev residue coefficients of each
node's matrix (``limit_gaudin_algebra``), and ``classical_limits_match``
checks that every classical member is the symbol of one of them.  The
paper's construction through the diagonal and shift embeddings of
enveloping algebras is kept in ``tests/oracles.py`` as the reference that
the tests compare against.
"""

from __future__ import annotations

import random
import re
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from math import prod

from .algebra import (
    AlgebraSignature,
    Letter,
    ModeError,
    NCPoly,
    Packing,
    classical_limit,
)
from .lax import (
    InvariantFamily,
    LaxMatrix,
    lax_from_groups,
    physical_hamiltonian,
    spectral_invariants,
)
from .linalg import rank, solve_combination
from .manin import TalalaevOutput, talalaev_coefficients, talalaev_generators
from .reports import CheckReport


class PatternError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class PatternNode:
    def __init__(self, children: list[PatternNode | int], location: Fraction | None):
        self.children = children
        self.location = location

    def leaves(self) -> list[int]:
        out: list[int] = []
        for child in self.children:
            if isinstance(child, PatternNode):
                out.extend(child.leaves())
            else:
                out.append(child)
        return out


class GluingPattern:
    def __init__(self, root: PatternNode, n_leaves: int):
        self.root = root
        self.n_leaves = n_leaves


_RATIONAL = re.compile(r"-?\d+(/\d+)?")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.leaves: list[tuple[int, int]] = []  # (leaf, offset in text)

    def error(self, message: str) -> PatternError:
        return PatternError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_node(self) -> PatternNode:
        self.expect("[")
        children: list[PatternNode | int] = [self.parse_item()]
        while self.peek() == ",":
            self.pos += 1
            children.append(self.parse_item())
        self.expect("]")
        location = None
        if self.peek() == "@":
            self.pos += 1
            location = self.parse_rational()
        if len(children) < 2:
            raise self.error("an internal node needs at least 2 children")
        return PatternNode(children, location)

    def parse_item(self) -> PatternNode | int:
        ch = self.peek()
        if ch == "[":
            return self.parse_node()
        m = re.match(r"\d+", self.text[self.pos:])
        if not m:
            raise self.error("expected a leaf index or a nested pattern")
        leaf = int(m.group(0))
        self.leaves.append((leaf, self.pos))
        self.pos += len(m.group(0))
        return leaf

    def parse_rational(self) -> Fraction:
        self.skip_ws()
        m = _RATIONAL.match(self.text[self.pos:])
        if not m:
            raise self.error("malformed location (expected integer or p/q)")
        text = m.group(0)
        try:
            location = Fraction(text)
        except ZeroDivisionError:
            raise self.error(f"bad location {text!r}: zero denominator") from None
        self.pos += len(text)
        return location


def _parse_root(text: str) -> tuple[PatternNode, list[tuple[int, int]]]:
    """The whole of ``text`` as one pattern node, with its (leaf, offset)
    pairs in leaf order; trailing input is an error, and so is a location on
    the root, which is not a collision."""
    parser = _Parser(text)
    root = parser.parse_node()
    if root.location is not None:
        raise PatternError("the root is not a collision and takes no location",
                           text.rindex("@", 0, parser.pos))
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after pattern")
    return root, parser.leaves


def infer_sites(text: str) -> int:
    """Leaf count of a pattern, for configurations that omit the site count."""
    return len(_parse_root(text)[1])


def parse_pattern(text: str, n: int) -> GluingPattern:
    """Parse the bracket grammar  root := "[" item ("," item)* "]"  where an
    item is a leaf index or a nested collision  root ("@" rational)?.
    Leaves must be exactly 1..n, each used once; a bad leaf is reported at
    its offset, missing leaves at the end of the text."""
    root, leaves = _parse_root(text)
    seen: set[int] = set()
    for leaf, position in leaves:
        if leaf < 1 or leaf > n:
            raise PatternError(f"leaf {leaf} out of range 1..{n}", position)
        if leaf in seen:
            raise PatternError(f"duplicate leaf {leaf}", position)
        seen.add(leaf)
    missing = set(range(1, n + 1)) - seen
    if missing:
        raise PatternError(f"missing leaves {sorted(missing)}", len(text))
    return GluingPattern(root, n)


def left_comb_pattern(n: int, z1=0, z2=1) -> tuple[GluingPattern, list[Fraction]]:
    """The total-collision pattern [[..[[1,2]@z1,3]@z1..]@z1,N] together with
    the leaf locations (z1, z2, z2, ...) that make its output reproduce the
    rational cluster matrices verbatim."""
    if n < 2:
        raise ValueError("need at least 2 sites")
    z1, z2 = Fraction(z1), Fraction(z2)
    if z1 == z2:
        raise ValueError("the two pole locations must differ")
    node = PatternNode([1, 2], location=None)
    for leaf in range(3, n + 1):
        node.location = z1
        node = PatternNode([node, leaf], location=None)
    pattern = GluingPattern(node, n)
    poles = [z1] + [z2] * (n - 1)
    return pattern, poles


class LimitFamily:
    """Ordered list of limit Lax matrices (one per elementary gluing step).

    Two families are equal when their signature, matrices and provenance are;
    the computed invariants take no part in equality."""

    def __init__(self, sig: AlgebraSignature, matrices: list[LaxMatrix], provenance: dict):
        self.sig = sig
        self.matrices = matrices
        self.provenance = provenance
        # the matrices are never mutated once built, so the suites and checks
        # share one invariant family
        self._invariants: InvariantFamily | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, LimitFamily):
            return NotImplemented
        return ((self.sig, self.matrices, self.provenance)
                == (other.sig, other.matrices, other.provenance))

    def invariant_family(self) -> InvariantFamily:
        """The spectral invariants of every matrix, computed on the first call."""
        if self._invariants is None:
            members = [member for matrix in self.matrices
                       for member in spectral_invariants(matrix).members]
            self._invariants = InvariantFamily(
                members, label=self.provenance.get("label", "limit"))
        return self._invariants

    @cached_property
    def talalaev_outputs(self) -> list[TalalaevOutput]:
        """``talalaev_generators`` of each matrix, computed on first read."""
        return [talalaev_generators(m) for m in self.matrices]

    def to_json_dict(self) -> dict:
        return {
            "provenance": {k: str(v) for k, v in self.provenance.items()},
            "matrices": [
                {"label": m.label, "entries": m.render(),
                 "poles": [[str(p), o] for p, o in m.poles]}
                for m in self.matrices
            ],
        }


def iterate_pattern(sig: AlgebraSignature, pattern: GluingPattern,
                    poles: Sequence | None = None) -> LimitFamily:
    """One Lax matrix per internal node, children first, root last.

    Leaf children sit at their original pole (defaults 0, 1, 2, ...); an
    internal child sits at its recorded location, or at a fresh small integer
    distinct from its siblings when the pattern text omitted one.  Locations
    only need to be distinct within each node: translation invariance of the
    invariant ring justifies reusing values across different nodes.
    """
    if pattern.n_leaves != sig.sites:
        raise ValueError(f"pattern has {pattern.n_leaves} leaves, signature {sig.sites} sites")
    if poles is None:
        poles = [Fraction(i) for i in range(sig.sites)]
    else:
        poles = [Fraction(p) for p in poles]
    if len(poles) != sig.sites:
        raise ValueError(f"need {sig.sites} poles, got {len(poles)}")
    matrices: list[LaxMatrix] = []
    counter = [0]

    def walk(node: PatternNode) -> list[int]:
        groups: list[tuple[list[int], Fraction | None]] = []
        for child in node.children:
            if isinstance(child, PatternNode):
                sites = walk(child)
                groups.append((sites, child.location))
            else:
                groups.append(([child], poles[child - 1]))
        # fill in fresh locations for unlocated internal children
        used = {loc for _, loc in groups if loc is not None}
        filled: list[tuple[list[int], Fraction]] = []
        fresh = 0
        for sites, loc in groups:
            if loc is None:
                while Fraction(fresh) in used:
                    fresh += 1
                loc = Fraction(fresh)
                used.add(loc)
            filled.append((sites, loc))
        locs = [loc for _, loc in filled]
        if len(set(locs)) != len(locs):
            raise ValueError(f"coincident child locations {[str(l) for l in locs]} "
                             "within one node")
        counter[0] += 1
        matrix = lax_from_groups(sig, filled, label=f"L{counter[0]}")
        matrices.append(matrix)
        return node.leaves()

    walk(pattern.root)
    return LimitFamily(sig, matrices, provenance={"label": "pattern"})


def random_point(rng: random.Random, sig: AlgebraSignature) -> dict[Letter, int]:
    """A seeded integer point of the classical phase space."""
    return {letter: rng.randint(-9, 9) for letter in sig.letters()}


# Seeded points at which the rank check compares the two Jacobians.
TRIALS = 5


def _jacobians(packing: Packing, families: list[list[dict]],
               points: Iterable[dict]) -> Iterator[list[list[list[int]]]]:
    """Each family's Jacobian rows at each integer point, a column per
    coordinate, from its gradients packed by ``packing``.  Each distinct
    rest monomial is decoded once and evaluated once per point."""
    rests = {r for grads in families for grad in grads for part in grad.values() for r in part}
    words = {r: packing.word(r) for r in rests}
    column = {g: k for k, g in enumerate(packing.sig.letters())}
    for point in points:
        values = {r: prod(map(point.__getitem__, w)) for r, w in words.items()}
        out = []
        for grads in families:
            rows = []
            for grad in grads:
                row = [0] * len(column)
                for g, part in grad.items():
                    total = 0
                    for r, c in part.items():
                        total += c * values[r]
                    row[column[g]] = total
                rows.append(row)
            out.append(rows)
        yield out


def rank_completeness_check(sig: AlgebraSignature, family: LimitFamily,
                            generic: InvariantFamily, seed: int = 0) -> CheckReport:
    """Compare exact Jacobian ranks of the limit family and the generic
    family at ``TRIALS`` seeded random integer points of the phase space.

    Every member is packed once, at the families' top degree, and its
    gradient read from ``Packing.pack``: integer numerators over the
    member's common denominator d, keyed by packed rest monomials, so each
    row is evaluated with int arithmetic only.  A row is d != 0 times the
    rational row, which keeps the rank."""
    if sig.is_quantum:
        raise ModeError("rank comparison runs in Classical mode")
    members = [family.invariant_family().exprs(), generic.exprs()]
    packing = Packing(sig, max(m.degree for exprs in members for m in exprs))
    families = [[packing.pack(m)[2] for m in exprs] for exprs in members]
    rng = random.Random(seed)
    jacobians = _jacobians(packing, families, (random_point(rng, sig) for _ in range(TRIALS)))
    results = [{"trial": trial, "limit": rank(limit_rows), "generic": rank(generic_rows)}
               for trial, (limit_rows, generic_rows) in enumerate(jacobians)]
    witnesses = [r for r in results if r["limit"] != r["generic"]]
    return CheckReport(
        check="rank_completeness",
        passed=not witnesses,
        params={"seed": seed, "limit_members": len(members[0]),
                "generic_members": len(members[1])},
        trials=TRIALS,
        witnesses=witnesses,
        info={"ranks": results},
    )


def hg_membership_check(sig: AlgebraSignature, family: LimitFamily) -> CheckReport:
    """Solve exactly for the physical Hamiltonian as a linear combination of
    degree-2 members and products of degree-1 members of the family."""
    if sig.is_quantum:
        raise ModeError("membership check runs in Classical mode")
    fam = family.invariant_family()
    candidates: list[tuple[str, NCPoly]] = []
    for member in fam.of_degree(2):
        candidates.append((f"deg2:{member.provenance}", member.expr))
    deg1 = fam.of_degree(1)
    for i in range(len(deg1)):
        for j in range(i, len(deg1)):
            candidates.append((
                f"prod:{deg1[i].provenance}*{deg1[j].provenance}",
                deg1[i].expr * deg1[j].expr,
            ))
    target = physical_hamiltonian(sig)
    solution = solve_combination([expr.terms for _, expr in candidates], target.terms)
    combination = None
    if solution is not None:
        combination = [
            {"coefficient": str(c), "member": label}
            for (label, _), c in zip(candidates, solution) if c
        ]
    return CheckReport(
        check="hg_membership",
        passed=solution is not None,
        params={"candidates": len(candidates)},
        witnesses=[] if solution is not None else [{"target": "physical Hamiltonian"}],
        info={"combination": combination},
    )


def limit_gaudin_algebra(family: LimitFamily) -> list[tuple[str, NCPoly]]:
    """Generators of the limit commutative algebra attached to a pattern.

    ``family`` is the quantum ``iterate_pattern(sig, pattern, poles)`` of any
    pattern (a classical one raises ModeError).  The generators are the
    Talalaev residue coefficients (``talalaev_coefficients``) of every matrix
    of the family, labelled ``f"{matrix.label}:{coefficient label}"``, e.g.
    ``L2:QH0[z=0,order 0]``.

    Why this is the limit algebra: a node's matrix is
    sum_p Y_p/(z - p) with Y_p = sum_{i in G_p} X_i over disjoint site
    groups G_p.  The map e[a,b]@p -> sum_{i in G_p} e[a,b]@i is an algebra
    homomorphism that sends the Gaudin matrix of the node's children to this
    matrix, so the matrix's Talalaev generators are the image of the
    children's Gaudin algebra under it.  For a tail collapse this image is
    what the paper's diagonal and shift embeddings of enveloping algebras
    compute (the tests keep that construction as their reference); the
    grouping map covers every tree.

    Generators of different nodes commute.  A node's algebra lies in the
    algebra generated by the entries of its blocks Y_p, and it is invariant
    under the diagonal gl_r action over the node's own sites (that action
    conjugates L by constant matrices, which leaves det_col(d/dz - L) and
    Tr (d/dz - L)^k unchanged).  Two nodes
    either have disjoint sites, so their algebras commute trivially, or one
    node D lies below the other.  Then each block of the upper node either
    avoids D's sites or is the diagonal action over D's sites plus letters
    outside them, and both commute with D's algebra.
    """
    return [(f"{out.lax.label}:{label}", coeff)
            for out in family.talalaev_outputs
            for label, coeff in talalaev_coefficients(out)]


def classical_limits_match(quantum: Sequence[TalalaevOutput],
                           classical: InvariantFamily) -> CheckReport:
    """Each classical member is the symbol of its named quantum generator.

    A member with provenance (matrix, power m, pole, order) must equal the
    classical limit of the same principal-part coefficient of (-1)^m times
    the d/dz-free QTr_m of the same-labelled matrix among the Talalaev
    outputs ``quantum``.  A member without such a coefficient fails with
    ``"classical_limit": None``.  A PASS shows that the classical family
    lies in the associated graded of the quantum algebra; it says nothing
    about the converse.
    """
    symbols = {(out.lax.label, m, str(pole), j): classical_limit(c * Fraction((-1) ** m))
               for out in quantum for m in range(1, out.rank + 1)
               for pole, _ in out.lax.poles
               for j, c in enumerate(out.qtr[(m, m)].principal_part(pole))}
    witnesses = []
    for member in classical.members:
        prov = member.provenance
        got = symbols.get((prov["matrix"], prov["power"], prov.get("pole"), prov.get("order")))
        if got is None or got != member.expr:
            witnesses.append({"provenance": {k: str(v) for k, v in prov.items()},
                              "classical_limit": None if got is None else got.render(),
                              "expected": member.expr.render()})
    return CheckReport(
        check="quantum_classical_limits",
        passed=not witnesses,
        params={"pairs": len(classical)},
        witnesses=witnesses,
    )
