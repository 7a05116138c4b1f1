"""Gluing patterns over pole sets and the limit families they generate.

A pattern is a rooted tree whose leaves are the original pole labels and
whose internal nodes are collision points.  Each internal node contributes
one Lax matrix: the poles of that matrix are the locations of the node's
children, and the residue at each location is the sum of the site variables
under that child.  Limits are realized constructively from these data, never
by symbolic limit-taking.

The quantum counterparts are built from two embeddings of enveloping
algebras: ``diagonal_embedding`` spreads the last tensor factor diagonally
over the trailing sites, and ``shift_embedding`` moves all site indices up.
Images of commuting families under these maps generate the limit commutative
algebras.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .algebra import (
    AlgebraSignature,
    Letter,
    Mode,
    ModeError,
    NCPoly,
    classical_limit,
    evaluate,
    partial,
)
from .lax import (
    InvariantFamily,
    InvariantMember,
    LaxMatrix,
    bending_lax_rational,
    gaudin_lax,
    lax_from_groups,
    physical_hamiltonian,
    spectral_invariants,
)
from .linalg import rank, solve_combination
from .manin import talalaev_coefficients, talalaev_generators
from .reports import CheckReport


class PatternError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnsupportedPatternError(ValueError):
    """Pattern shape outside what the quantum construction supports."""


@dataclass
class PatternNode:
    children: list["PatternNode | int"]
    location: Fraction | None = None

    def leaves(self) -> list[int]:
        out: list[int] = []
        for child in self.children:
            if isinstance(child, PatternNode):
                out.extend(child.leaves())
            else:
                out.append(child)
        return out

    def internal_children(self) -> list["PatternNode"]:
        return [c for c in self.children if isinstance(c, PatternNode)]

    def is_trivial(self) -> bool:
        return not self.internal_children()


@dataclass
class GluingPattern:
    root: PatternNode
    n_leaves: int

    def internal_nodes(self) -> list[PatternNode]:
        """All internal nodes in post order (children first, root last)."""
        out: list[PatternNode] = []

        def walk(node: PatternNode) -> None:
            for child in node.internal_children():
                walk(child)
            out.append(node)

        walk(self.root)
        return out


_RATIONAL = re.compile(r"-?\d+(/\d+)?")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

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
        self.pos += len(m.group(0))
        return int(m.group(0))

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


def infer_sites(text: str) -> int:
    """Leaf count of a pattern, for configurations that omit the site count."""
    parser = _Parser(text)
    root = parser.parse_node()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after pattern")
    return len(root.leaves())


def parse_pattern(text: str, n: int) -> GluingPattern:
    """Parse the bracket grammar  pattern := "[" item ("," item)* "]" ("@" rational)?
    where an item is a leaf index or a nested pattern.  Leaves must be exactly
    1..n, each used once."""
    parser = _Parser(text)
    root = parser.parse_node()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after pattern")
    leaves = root.leaves()
    seen: set[int] = set()
    for leaf in leaves:
        if leaf < 1 or leaf > n:
            raise PatternError(f"leaf {leaf} out of range 1..{n}", 0)
        if leaf in seen:
            raise PatternError(f"duplicate leaf {leaf}", 0)
        seen.add(leaf)
    missing = set(range(1, n + 1)) - seen
    if missing:
        raise PatternError(f"missing leaves {sorted(missing)}", 0)
    return GluingPattern(root, n)


def left_comb_pattern(n: int, z1=0, z2=1) -> tuple[GluingPattern, list[Fraction]]:
    """The total-collision pattern [[..[[1,2]@z1,3]@z1..]@z1,N] together with
    the leaf locations (z1, z2, z2, ...) that make its output reproduce the
    rational cluster matrices verbatim."""
    if n < 2:
        raise ValueError("need at least 2 sites")
    z1, z2 = Fraction(z1), Fraction(z2)
    node = PatternNode([1, 2], location=None)
    for leaf in range(3, n + 1):
        node.location = z1
        node = PatternNode([node, leaf], location=None)
    pattern = GluingPattern(node, n)
    poles = [z1] + [z2] * (n - 1)
    return pattern, poles


@dataclass
class LimitFamily:
    """Ordered list of limit Lax matrices (one per elementary gluing step)."""

    sig: AlgebraSignature
    matrices: list[LaxMatrix]
    provenance: dict = field(default_factory=dict)
    # invariant_family results per max_power; the matrices are never mutated
    # once built, so the suites and checks share one computation.
    _invariants: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def invariant_family(self, max_power: int | None = None) -> InvariantFamily:
        family = self._invariants.get(max_power)
        if family is None:
            members: list[InvariantMember] = []
            for matrix in self.matrices:
                members.extend(spectral_invariants(matrix, max_power).members)
            family = InvariantFamily(members, label=self.provenance.get("label", "limit"))
            self._invariants[max_power] = family
        return family

    def to_json_dict(self) -> dict:
        return {
            "provenance": {k: str(v) for k, v in self.provenance.items()},
            "matrices": [
                {"label": m.label, "entries": m.render(),
                 "poles": [[str(p), o] for p, o in m.poles]}
                for m in self.matrices
            ],
        }


def elementary_glue(sig: AlgebraSignature, fixed: Sequence, collapsing: Sequence,
                    w) -> LimitFamily:
    """One gluing step: the first k poles stay fixed, the remaining sites
    collapse to w keeping relative positions.  Yields the pair

        L1(z) = sum_{i>k} X_i/(z - u_i)
        L2(z) = sum_{i<=k} X_i/(z - z_i) + (sum_{i>k} X_i)/(z - w)
    """
    k = len(fixed)
    tail = sig.sites - k
    if tail < 1:
        raise ValueError("nothing to collapse")
    if len(collapsing) != tail:
        raise ValueError(f"need {tail} relative positions, got {len(collapsing)}")
    fixed = [Fraction(p) for p in fixed]
    coll = [Fraction(u) for u in collapsing]
    w = Fraction(w)
    if len(set(fixed + [w])) != k + 1:
        raise ValueError("fixed poles and w must be pairwise distinct")
    if len(set(coll)) != tail:
        raise ValueError("relative positions must be pairwise distinct")
    l1 = lax_from_groups(sig, [([k + 1 + t], coll[t]) for t in range(tail)], label="L1")
    groups2 = [([i + 1], fixed[i]) for i in range(k)]
    groups2.append((list(range(k + 1, sig.sites + 1)), w))
    l2 = lax_from_groups(sig, groups2, label="L2")
    return LimitFamily(sig, [l1, l2], provenance={
        "label": "elementary_glue", "k": k, "w": w,
    })


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


def random_point(rng: random.Random, sig: AlgebraSignature,
                 lo: int = -9, hi: int = 9) -> dict[Letter, int]:
    """A seeded integer point of the classical phase space."""
    return {letter: rng.randint(lo, hi) for letter in sig.letters()}


def rank_completeness_check(sig: AlgebraSignature, family: LimitFamily,
                            generic: InvariantFamily, trials: int = 5,
                            seed: int = 0) -> CheckReport:
    """Compare exact Jacobian ranks of the limit family and the generic
    family at seeded random integer points of the phase space."""
    if sig.is_quantum:
        raise ModeError("rank comparison runs in Classical mode")
    limit_members = family.invariant_family().exprs()
    generic_members = generic.exprs()
    letters = list(sig.letters())
    jac_limit = [[partial(m, g) for g in letters] for m in limit_members]
    jac_generic = [[partial(m, g) for g in letters] for m in generic_members]
    rng = random.Random(seed)
    results = []
    ok = True
    for trial in range(trials):
        point = random_point(rng, sig)
        r_limit = rank([[evaluate(d, point) for d in row] for row in jac_limit])
        r_generic = rank([[evaluate(d, point) for d in row] for row in jac_generic])
        results.append({"trial": trial, "limit": r_limit, "generic": r_generic})
        if r_limit != r_generic:
            ok = False
    return CheckReport(
        check="rank_completeness",
        passed=ok,
        params={"seed": seed, "limit_members": len(limit_members),
                "generic_members": len(generic_members)},
        trials=trials,
        witnesses=[r for r in results if r["limit"] != r["generic"]],
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


def diagonal_embedding(p: NCPoly, target_sites: int) -> NCPoly:
    """Spread the last tensor factor diagonally: for p over k+1 sites, the
    generator e[a,b]@(k+1) goes to  sum_{j=k+1..target} e[a,b]@j."""
    src = p.sig
    if not src.is_quantum:
        raise ModeError("the diagonal embedding acts on Quantum-mode elements")
    if target_sites < src.sites:
        raise ValueError(f"cannot embed {src.sites} sites into {target_sites}")
    tsig = AlgebraSignature(src.rank, target_sites, Mode.QUANTUM)
    last = src.sites
    out = tsig.zero()
    for word, coeff in p.terms.items():
        acc = tsig.one() * coeff
        for (i, a, b) in word:
            if i < last:
                factor = tsig.gen(i, a, b)
            else:
                factor = tsig.zero()
                for j in range(last, target_sites + 1):
                    factor = factor + tsig.gen(j, a, b)
            acc = acc * factor
        out = out + acc
    return out


def shift_embedding(p: NCPoly, target_sites: int, shift: int | None = None) -> NCPoly:
    """Shift all site indices up by k, embedding the trailing factors:
    e[a,b]@j -> e[a,b]@(j+k)."""
    src = p.sig
    if not src.is_quantum:
        raise ModeError("the shift embedding acts on Quantum-mode elements")
    if shift is None:
        shift = target_sites - src.sites
    if shift < 0 or src.sites + shift > target_sites:
        raise ValueError(f"cannot shift {src.sites} sites by {shift} into {target_sites}")
    tsig = AlgebraSignature(src.rank, target_sites, Mode.QUANTUM)
    terms = {
        tuple((i + shift, a, b) for (i, a, b) in word): coeff
        for word, coeff in p.terms.items()
    }
    return NCPoly(tsig, terms)


def limit_gaudin_algebra(sig: AlgebraSignature, pattern: GluingPattern,
                         poles: Sequence | None = None) -> list[tuple[str, NCPoly]]:
    """Generators of the limit commutative algebra attached to a pattern.

    Supported patterns are tail collapses (possibly nested): each internal
    node may have one internal child, whose leaves must be the trailing
    sites.  The generator set is the union of the diagonal-embedded factor
    algebra on (fixed poles, w) and the shift-embedded algebra of the
    collapsed group, recursively; each factor algebra is generated by the
    residue coefficients of its Talalaev generators (``talalaev_coefficients``).
    """
    if not sig.is_quantum:
        raise ModeError("limit Gaudin algebras are quantum objects")
    if pattern.n_leaves != sig.sites:
        raise ValueError(f"pattern has {pattern.n_leaves} leaves, signature {sig.sites}")
    if poles is None:
        poles = [Fraction(i) for i in range(sig.sites)]
    else:
        poles = [Fraction(p) for p in poles]

    def build(node: PatternNode, nsites: int, node_poles: list[Fraction],
              fresh_base: int) -> list[tuple[str, NCPoly]]:
        ssig = AlgebraSignature(sig.rank, nsites, Mode.QUANTUM)
        internal = node.internal_children()
        if not internal:
            return talalaev_coefficients(talalaev_generators(gaudin_lax(ssig, node_poles)))
        if len(internal) > 1:
            raise UnsupportedPatternError(
                "only one collapsing group per node is supported "
                "for the quantum construction")
        child = internal[0]
        child_leaves = sorted(child.leaves())
        leaf_children = sorted(c for c in node.children if not isinstance(c, PatternNode))
        k = len(leaf_children)
        if leaf_children != list(range(1, k + 1)) or \
                child_leaves != list(range(k + 1, nsites + 1)):
            raise UnsupportedPatternError(
                "quantum construction expects the collapsing group "
                "to be the trailing sites")
        w = child.location
        if w is None:
            w = Fraction(fresh_base)
            while w in set(node_poles[:k]):
                w += 1
        factor_sig = AlgebraSignature(sig.rank, k + 1, Mode.QUANTUM)
        factor_gens = talalaev_coefficients(
            talalaev_generators(gaudin_lax(factor_sig, node_poles[:k] + [w])))
        gens = [(f"D[{label}]", diagonal_embedding(g, nsites))
                for label, g in factor_gens]
        # relabel the collapsed group to 1..nsites-k and recurse
        sub = _relabel(child, k)
        sub_poles = node_poles[k:]
        for label, g in build(sub, nsites - k, sub_poles, fresh_base):
            gens.append((f"I[{label}]", shift_embedding(g, nsites, shift=k)))
        return gens

    return build(pattern.root, sig.sites, poles, fresh_base=sig.sites)


def _relabel(node: PatternNode, k: int) -> PatternNode:
    return PatternNode(
        [c - k if not isinstance(c, PatternNode) else _relabel(c, k)
         for c in node.children],
        location=node.location,
    )


def quantum_bending_generators(sig: AlgebraSignature, z1=0, z2=1,
                               ) -> list[dict]:
    """Quantum cluster generators with their classical counterparts.

    For each cluster matrix the d/dz-free quantum trace coefficients are
    extracted residue by residue and normalized by (-1)^m so that the
    classical limit of each generator equals the matching classical spectral
    invariant member for member.
    """
    if not sig.is_quantum:
        raise ModeError("quantum bending generators require Quantum mode")
    csig = sig.as_mode(Mode.CLASSICAL)
    out: list[dict] = []
    for k in range(1, sig.sites):
        quantum_matrix = bending_lax_rational(sig, k, z1, z2)
        classical_matrix = bending_lax_rational(csig, k, z1, z2)
        tal = talalaev_generators(quantum_matrix)
        classical_members = spectral_invariants(classical_matrix, sig.rank)
        parts: dict[tuple[int, str], list[NCPoly]] = {}
        for member in classical_members.members:
            m, pole, order = (member.provenance[key] for key in ("power", "pole", "order"))
            if (m, pole) not in parts:
                parts[(m, pole)] = tal.qtr[(m, m)].principal_part(Fraction(pole))
            part = parts[(m, pole)]
            gen = (part[order] if order < len(part) else sig.zero()) * Fraction((-1) ** m)
            out.append({
                "k": k,
                "provenance": dict(member.provenance),
                "generator": gen,
                "classical": member.expr,
            })
    return out


def classical_limits_match(pairs: list[dict]) -> CheckReport:
    """Member-by-member comparison of classical limits for the bending pairs."""
    witnesses = []
    for pair in pairs:
        got = classical_limit(pair["generator"])
        if got != pair["classical"]:
            witnesses.append({
                "provenance": {k: str(v) for k, v in pair["provenance"].items()},
                "classical_limit": got.render(),
                "expected": pair["classical"].render(),
            })
    return CheckReport(
        check="bending_classical_limits",
        passed=not witnesses,
        params={"pairs": len(pairs)},
        witnesses=witnesses,
    )
