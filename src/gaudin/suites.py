"""Named verification suites driven by a single run configuration.

Each suite returns a list of CheckReports; a suite passes when every gating
report passes (diagnostics are reported but never gate).  All randomness is
drawn from the configured seed, which is recorded in the emitted report.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction

from .algebra import (
    AlgebraSignature,
    Mode,
    bracket,
    diagonal_generators,
)
from . import linalg
from .gluing import (
    GluingPattern,
    classical_limits_match,
    hg_membership_check,
    iterate_pattern,
    left_comb_pattern,
    limit_gaudin_algebra,
    parse_pattern,
    rank_completeness_check,
)
from .lax import (
    InvariantFamily,
    bending_lax_rational,
    gaudin_lax,
    physical_hamiltonian,
    quadratic_hamiltonians,
    spectral_invariants,
)
from .manin import (
    DiffOpMatrix,
    column_order_invariance,
    commutation_matrix,
    is_manin,
    manin_property_suite,
    newton_check,
    partial_minus,
    talalaev_coefficients,
    talalaev_generators,
)
from .poisson import (
    antisymmetry_check,
    compatibility_check,
    family_commutes_under,
    fivesite_operator,
    jacobi_check,
    limit_rijk_operator,
    standard_operator,
)
from .ratfun import DiffOpEntry, LaxEntry, RatFun
from .reports import CheckReport

SUITES = ("quadratic", "glue", "bending", "talalaev", "manin", "poisson")


class RunConfig:
    """One suite run's settings.  ``cli`` reads the defaults off
    ``vars(RunConfig())`` in this order, one flag per attribute."""

    def __init__(self, rank: int = 2, sites: int = 3, mode: str = "classical",
                 poles: Sequence[Fraction] = (), pattern: str = "",
                 eval_points: Sequence[Fraction] = (Fraction(5), Fraction(7)),
                 seed: int = 12345, k: int = 1, z1: Fraction = Fraction(0),
                 z2: Fraction = Fraction(1), unsafe_scale: bool = False):
        self.rank = rank
        self.sites = sites
        self.mode = mode
        self.poles = list(poles)
        self.pattern = pattern
        self.eval_points = list(eval_points)
        self.seed = seed
        self.k = k
        self.z1 = z1
        self.z2 = z2
        self.unsafe_scale = unsafe_scale

    def signature(self, mode: str | None = None) -> AlgebraSignature:
        m = Mode.QUANTUM if (mode or self.mode) == "quantum" else Mode.CLASSICAL
        return AlgebraSignature(self.rank, self.sites, m)

    def pole_list(self) -> list[Fraction]:
        if self.poles:
            return list(self.poles)
        return [Fraction(i) for i in range(self.sites)]

    def check_scale(self, mode: str | None = None) -> None:
        """Desk-scale guard; lift with unsafe_scale.  ``mode`` names the
        algebra a caller builds whatever the configured mode says."""
        if self.unsafe_scale:
            return
        mode = mode or self.mode
        limit_sites = 3 if mode == "quantum" else 5
        if self.rank > 3 or self.sites > limit_sites:
            raise ValueError(
                f"rank {self.rank} / sites {self.sites} exceeds the desk-scale "
                f"limits (rank <= 3, sites <= {limit_sites} in {mode} mode); "
                "pass --unsafe-scale to override"
            )

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank, "sites": self.sites, "mode": self.mode,
            "poles": [str(p) for p in self.pole_list()],
            "pattern": self.pattern,
            "eval_points": [str(u) for u in self.eval_points],
            "seed": self.seed, "k": self.k,
            "z1": str(self.z1), "z2": str(self.z2),
            "unsafe_scale": self.unsafe_scale,
        }


def suite_quadratic(cfg: RunConfig) -> list[CheckReport]:
    cfg.check_scale("classical")
    poles = cfg.pole_list()
    reports = []
    for mode in ("quantum", "classical"):
        sig = cfg.signature(mode)
        hams = quadratic_hamiltonians(sig, poles)
        labels = [f"H{i + 1}" for i in range(len(hams))]
        rep = commutation_matrix(hams, labels)
        rep.check = f"quadratic_commute_{mode}"
        rep.params = {"rank": cfg.rank, "sites": cfg.sites,
                      "poles": [str(p) for p in poles]}
        reports.append(rep)
        total = sig.zero()
        for h in hams:
            total = total + h
        reports.append(CheckReport(
            check=f"quadratic_sum_zero_{mode}", passed=total.is_zero(),
            params={"rank": cfg.rank, "sites": cfg.sites},
            witnesses=[] if total.is_zero() else [{"sum": total.render()}],
        ))
        hg = physical_hamiltonian(sig)
        bad = [labels[i] for i, h in enumerate(hams) if not bracket(h, hg).is_zero()]
        bad += [f"S[{a}]" for a, d in enumerate(diagonal_generators(sig), start=1)
                if not bracket(d, hg).is_zero()]
        reports.append(CheckReport(
            check=f"physical_hamiltonian_conserved_{mode}", passed=not bad,
            params={"rank": cfg.rank, "sites": cfg.sites},
            witnesses=[{"generator": b} for b in bad],
        ))
    return reports


def _quantum_half(cfg: RunConfig, pattern: GluingPattern, poles: list[Fraction],
                 classical: InvariantFamily, symbols: str,
                 table: str) -> list[CheckReport]:
    """The quantum limit family of ``pattern`` at ``poles``: the symbol check
    of ``classical`` against it, then its commutation table, named
    ``symbols`` and ``table``.  Both read the one Talalaev output per matrix
    that the family caches."""
    family = iterate_pattern(cfg.signature("quantum"), pattern, poles)
    symbol_rep = classical_limits_match(family.talalaev_outputs, classical)
    symbol_rep.check = symbols
    gens = limit_gaudin_algebra(family)
    table_rep = commutation_matrix([g for _, g in gens], [l for l, _ in gens])
    table_rep.check = table
    return [symbol_rep, table_rep]


def suite_glue(cfg: RunConfig) -> list[CheckReport]:
    cfg.check_scale()
    text = cfg.pattern or ("[1,[2,3]@3]" if cfg.sites == 3 else None)
    if text is None:
        raise ValueError("glue suite needs --pattern for this site count")
    pattern = parse_pattern(text, cfg.sites)
    poles = cfg.pole_list()
    reports = []

    sig = cfg.signature("classical")
    family = iterate_pattern(sig, pattern, poles)
    inv = family.invariant_family()
    rep = commutation_matrix(inv.exprs(), [str(m.provenance) for m in inv.members])
    rep.check = "glued_family_commutes"
    rep.params = {"pattern": text, "members": len(inv)}
    reports.append(rep)
    generic = spectral_invariants(gaudin_lax(sig, poles))
    reports.append(rank_completeness_check(sig, family, generic, seed=cfg.seed))
    reports.append(hg_membership_check(sig, family))

    if (cfg.mode == "quantum" or cfg.rank <= 2) and (cfg.sites <= 3 or cfg.unsafe_scale):
        symbols, table = _quantum_half(cfg, pattern, poles, inv, "quantum_classical_limits",
                                       "quantum_limit_algebra")
        table.params["pattern"] = text
        reports += [symbols, table]
    return reports


def suite_bending(cfg: RunConfig) -> list[CheckReport]:
    cfg.check_scale("classical")
    sig = cfg.signature("classical")
    pattern, poles = left_comb_pattern(cfg.sites, cfg.z1, cfg.z2)
    family = iterate_pattern(sig, pattern, poles)
    reports = []
    mismatched = [
        k for k in range(1, cfg.sites)
        if family.matrices[k - 1] != bending_lax_rational(sig, k, cfg.z1, cfg.z2)
    ]
    reports.append(CheckReport(
        check="left_comb_reproduces_rational_clusters", passed=not mismatched,
        params={"sites": cfg.sites},
        witnesses=[{"k": k} for k in mismatched],
    ))
    inv = family.invariant_family()
    std_rep = family_commutes_under(standard_operator(sig.sites), inv)
    lim_rep = family_commutes_under(limit_rijk_operator(sig.sites), inv)
    std_rep.check = "bending_commutes_standard"
    lim_rep.check = "bending_commutes_limit"
    reports += [std_rep, lim_rep]

    if cfg.sites <= 3 or cfg.unsafe_scale:
        reports += _quantum_half(cfg, pattern, poles, inv, "bending_classical_limits",
                                "quantum_bending_commutation")
    return reports


def suite_talalaev(cfg: RunConfig) -> list[CheckReport]:
    cfg.check_scale("quantum")
    sig = cfg.signature("quantum")
    poles = cfg.pole_list()
    out = talalaev_generators(gaudin_lax(sig, poles))
    reports = [is_manin(out.operator)]
    if sig.rank <= 3:
        reports.append(column_order_invariance(out.operator))
    coeffs = talalaev_coefficients(out)
    leading = CheckReport(
        check="talalaev_leading_coefficient",
        passed=out.qh[sig.rank] == LaxEntry.one(sig),
        params={"rank": sig.rank},
    )
    del out     # frees d/dz - L and its table of minors before the certificate
    rep = commutation_matrix([c for _, c in coeffs], [label for label, _ in coeffs])
    rep.check = "talalaev_commutation"
    return reports + [rep, leading]


def _cross_site_manin(rank: int) -> DiffOpMatrix:
    """Row i drawn from site i: any such generator matrix is Manin.  Its
    entries are the ``NCPoly`` letters e[i,j]@i themselves; no d/dz or z
    occurs, so the checks multiply letters without a RatFun coefficient."""
    sig = AlgebraSignature(rank, rank, Mode.QUANTUM)
    return DiffOpMatrix(sig, [[sig.gen(i, i, j) for j in range(1, rank + 1)]
                              for i in range(1, rank + 1)])


def _weyl_control() -> DiffOpMatrix:
    sig = AlgebraSignature(1, 1, Mode.QUANTUM)
    z = DiffOpEntry.from_entry(LaxEntry.scalar(sig, RatFun.z()))
    d = DiffOpEntry.partial(sig)
    one = DiffOpEntry.one(sig)
    return DiffOpMatrix(sig, [[z, d], [one, z]])


def _random_commutative_matrix(rng: random.Random, n: int) -> DiffOpMatrix:
    """A random integer matrix, redrawn up to 10 times while its leading
    n//2 block is singular, so that the Schur identity is exercised rather
    than skipped.  Its entries are Python ints: the checks run on integer
    arithmetic, and a witness prints as the constant operator it equals."""
    k = n // 2
    for _ in range(10):
        values = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if linalg.rank([row[:k] for row in values[:k]]) == k:
            break
    return DiffOpMatrix(AlgebraSignature(1, 1, Mode.QUANTUM), values)


def suite_manin(cfg: RunConfig) -> list[CheckReport]:
    cfg.check_scale("quantum")
    rng = random.Random(cfg.seed)
    reports = []

    def tag(rep: CheckReport, name: str) -> CheckReport:
        rep.params["matrix"] = name
        rep.check = f"{rep.check}[{name}]"
        return rep

    qsig = cfg.signature("quantum")
    gaudin_m = partial_minus(gaudin_lax(qsig, cfg.pole_list()))
    name = f"d/dz-gaudin(gl{cfg.rank},N={cfg.sites})"
    if cfg.rank <= 3:
        reports.append(tag(column_order_invariance(gaudin_m), name))
    for rep in manin_property_suite(gaudin_m):
        reports.append(tag(rep, name))
    if cfg.rank <= 2:
        reports.append(tag(newton_check(gaudin_m), name))

    cross = _cross_site_manin(min(cfg.rank, 3) if cfg.rank >= 2 else 2)
    for rep in manin_property_suite(cross):
        reports.append(tag(rep, "cross-site"))
    reports.append(tag(newton_check(cross), "cross-site"))

    for trial in range(3):
        m = _random_commutative_matrix(rng, 3 + trial % 2)
        for rep in manin_property_suite(m):
            reports.append(tag(rep, f"commutative#{trial}"))
        reports.append(tag(newton_check(m), f"commutative#{trial}"))

    weyl = is_manin(_weyl_control())
    reports.append(CheckReport(
        check="weyl_control_rejected", passed=weyl.passed is False,
        params={"matrix": "[[z,d],[1,z]]"},
        witnesses=weyl.witnesses[:2],
    ))
    return reports


def suite_poisson(cfg: RunConfig) -> list[CheckReport]:
    cfg.check_scale("classical")
    sig = cfg.signature("classical")
    reports = []

    op = limit_rijk_operator(4)
    expected = _xx2_blocks()
    got = {key: {k: c for k, c in combo.items()} for key, combo in op.blocks.items()}
    reports.append(CheckReport(
        check="limit_operator_four_site_blocks",
        passed=got == expected, params={"sites": 4},
        witnesses=[] if got == expected else [{"got": str(got)}],
    ))

    std, lim = standard_operator(sig.sites), limit_rijk_operator(sig.sites)
    for rep, name in (
        (antisymmetry_check(std, sig), "antisymmetry_standard"),
        (antisymmetry_check(lim, sig), "antisymmetry_limit"),
        (jacobi_check(std, sig), "jacobi_standard"),
        (jacobi_check(lim, sig), "jacobi_limit"),
        (compatibility_check(std, lim, sig), "compatibility_standard_limit"),
    ):
        rep.check = name
        reports.append(rep)

    # control: a sign flip in one diagonal block must break Jacobi; at rank 1
    # or on two sites the flipped operator still satisfies it, so the control
    # runs on at least rank 2 and three sites
    csig = AlgebraSignature(max(sig.rank, 2), max(sig.sites, 3), Mode.CLASSICAL)
    bad = limit_rijk_operator(csig.sites).with_block(
        2, 2, {1: Fraction(1), 2: Fraction(1)})
    control = jacobi_check(bad, csig)
    reports.append(CheckReport(
        check="corrupted_operator_rejected", passed=control.passed is False,
        params={"flipped_block": "2,2"}, witnesses=control.witnesses[:1],
        info=control.info,
    ))

    # five-site operator: diagnostics only (the tabulated blocks do not
    # satisfy Jacobi, see fivesite_jacobi)
    z5 = [Fraction(i) for i in range(5)]
    op5 = fivesite_operator(z5)
    sig5 = AlgebraSignature(cfg.rank, 5, Mode.CLASSICAL)
    for rep, name in ((antisymmetry_check(op5, sig5), "fivesite_antisymmetry"),
                      (jacobi_check(op5, sig5), "fivesite_jacobi")):
        reports.append(CheckReport(
            check=name, passed=None, params=rep.params, witnesses=rep.witnesses[:2],
            info={**rep.info, "diagnostic": True, "observed_pass": rep.passed},
        ))
    return reports


def _xx2_blocks() -> dict:
    one = Fraction(1)
    blocks: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                if i == 1:
                    continue
                combo = {i: Fraction(i - 1)}
                for k in range(1, i):
                    combo[k] = -one
                blocks[(i, j)] = combo
            else:
                blocks[(i, j)] = {min(i, j): one}
    return blocks


SUITE_RUNNERS = {
    "quadratic": suite_quadratic,
    "glue": suite_glue,
    "bending": suite_bending,
    "talalaev": suite_talalaev,
    "manin": suite_manin,
    "poisson": suite_poisson,
}


def run_suite(name: str, cfg: RunConfig) -> list[CheckReport]:
    if name not in SUITE_RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return SUITE_RUNNERS[name](cfg)
